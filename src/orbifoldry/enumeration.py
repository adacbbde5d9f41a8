"""Exact counts of the vectors of an even positive definite lattice by norm.

The memoised depth-first search behind lattice.enumerate_vectors_by_norm,
which imports this module when it is called: loading the data, and every
command that counts no vectors, compiles none of it.
"""

from __future__ import annotations

from math import gcd, isqrt, lcm, prod
from operator import mul
from typing import NamedTuple

# the Smith form is read through its module, where the benchmark's tracer
# and the tests that count Smith forms wrap it
from . import lattice

# Enumeration memoises a level k only while det L_k, the (k+1)-th leading
# minor, is at most this: its table then holds at most that many entries
# (one per coset of L_k in its dual), so the whole table stays below
# rank * MEMO_MINOR_LIMIT entries whatever the lattice, budget or norm.
MEMO_MINOR_LIMIT = 1 << 12


class _ScaledForm(NamedTuple):
    """The form in scaled integers, with the coset key map of each level.

    The basis is in the pivot order of _bareiss, which keeps the leading
    minors (the cosets the memo searches) small; G is the Gram matrix in
    that order.  Level i costs amp[i] * (den[i] * x_i + centre_i)^2 scaled
    units, `scale` to a unit of norm, with centre_i = upper[i] . x_{>i}.
    keys[k], for a memoised level k below the top (else None), names the
    coset of a fixed prefix x_{>k} in L_k^#/L_k, L_k being spanned by the
    first k+1 basis vectors: y mod G_k Z^{k+1}, with y = G[0..k][>k]
    x_{>k} and G_k the leading block.  For a Smith form U G_k V = D that
    is (U y)_r mod D_r over the rows with D_r > 1, read in coordinates of
    that group that _fewest_steps chooses; each key row (t, step, m) has
    m = D_r and gives the digit step x_{k+1} + t . x_{>k+1} mod m.
    """

    den: list
    upper: list
    amp: list
    scale: int
    keys: list


def _key_maps(gram, minors) -> list:
    """The coset key rows of each level of a positive definite Gram
    matrix (see _ScaledForm), None above MEMO_MINOR_LIMIT.

    Smith forms U G_k V = D are kept exactly, in integers.  The
    transforms of G_{k-1}, extended by one, turn G_k into
    [[D, U b], [b^T V, c]].  Each border entry is reduced modulo its D_r,
    which changes only the corner and clears it where D_r = 1; a Smith
    form of the other rows plus the border finishes the step, carrying
    the rows of U and the columns of V that it changes.
    """
    memoised = [k for k in range(len(gram) - 1)
                if minors[k] <= MEMO_MINOR_LIMIT]
    keys = [None] * len(gram)
    left, right, diag = [], [], []  # the rows of U, the columns of V, D
    for k in range(max(memoised, default=-1) + 1):
        border, corner = gram[k][:k], gram[k][k]
        beta = [sum(map(mul, u, border)) for u in left]
        alpha = [sum(map(mul, v, border)) for v in right]
        # column operations (down) reduce U b, then row operations (up)
        # reduce b^T V; each moves the corner by its multiple of the
        # other border entry as it stands at that point
        down = [x // d for x, d in zip(beta, diag)]
        up = [x // d for x, d in zip(alpha, diag)]
        beta = [x % d for x, d in zip(beta, diag)]
        corner -= sum(map(mul, down, alpha)) + sum(map(mul, up, beta))
        alpha = [x % d for x, d in zip(alpha, diag)]
        left = [u + [0] for u in left] + [
            [-sum(map(mul, up, x)) for x in zip(*left)] + [1]]
        right = [v + [0] for v in right] + [
            [-sum(map(mul, down, x)) for x in zip(*right)] + [1]]
        rest = [r for r, d in enumerate(diag) if d > 1]
        diag.append(corner)
        if rest:
            block = ([[diag[r] * (r == s) for s in rest] + [beta[r]]
                      for r in rest] + [[alpha[s] for s in rest] + [corner]])
            rest.append(k)
            # the form carries the rows of U and the columns of V it changes
            rows, cols = [left[r] for r in rest], [right[r] for r in rest]
            invariants = lattice.smith_normal_form(block, rows, cols)
            for r, u, v, d in zip(rest, rows, cols, invariants):
                left[r], right[r], diag[r] = u, v, d
        if k in memoised:
            rows = []
            for u, d in zip(left, diag):
                if d > 1:
                    step, *t = [sum(map(mul, u, g)) % d for g in gram[k + 1:]]
                    rows.append([t, step, d])
            keys[k] = _fewest_steps(rows)
    return keys


def _fewest_steps(rows: list) -> list:
    """Key rows [t, step, m] of one level, rewritten so that fewer steps
    are nonzero: a row whose step is 0 gives a digit that no candidate of
    a search moves.  Adding c times row i to a row j with m_j | m_i,
    modulo m_j, is an automorphism of the coset group; c clears step_j
    where gcd(step_i, m_j) divides it.  Pivots go by falling modulus."""
    for pivot, step, m in sorted(rows, key=lambda row: -row[2]):
        for row in rows:
            g = gcd(step, row[2])
            if row[0] is pivot or not row[1] or m % row[2] or row[1] % g:
                continue
            c = -(row[1] // g) * pow(step // g, -1, row[2] // g)
            row[0] = [(x + c * y) % row[2] for x, y in zip(row[0], pivot)]
            row[1] = (row[1] + c * step) % row[2]
    return [tuple(row) for row in rows]


def _scaled_form(lat: lattice.Lattice) -> _ScaledForm:
    """The square completion Q(x) = sum_i d_i (x_i + sum_{j>i} u_ij x_j)^2
    read from the lattice's elimination: d_i = minors[i] / minors[i-1],
    u_ij = rows[i][j] / minors[i]; den[i] is the denominator of row i."""
    order, minors, rows = lat._elimination
    n = lat.rank
    gram = [[lat.gram[i][j] for j in order] for i in order]
    below = [1] + minors[:-1]
    shrink = [gcd(minors[i], *rows[i][i + 1:]) for i in range(n)]
    den = [minors[i] // shrink[i] for i in range(n)]
    upper = [[x // shrink[i] for x in rows[i][i + 1:]] for i in range(n)]
    scale = lcm(*(below[i] // gcd(below[i], minors[i]) * den[i] ** 2
                  for i in range(n)))
    amp = [scale * minors[i] // (below[i] * den[i] ** 2) for i in range(n)]
    common = gcd(scale, *amp)
    return _ScaledForm(den, upper, [a // common for a in amp], scale // common,
                       _key_maps(gram, minors))


def _field_rows(form: _ScaledForm) -> list:
    """The linear forms in x_{>j} whose values the search state keeps for
    each level j: its centre, then the key rows of the level below."""
    rows = []
    for j, centre in enumerate(form.upper):
        key_map = form.keys[j - 1] if j else None
        rows.append([centre] + [t for t, _, _ in key_map or ()])
    return rows


def _state_width(form: _ScaledForm, max_norm: int) -> int:
    """Bits of one field of the search state of count_by_norm.

    Every candidate x_i has |den_i x_i + centre_i| <= isqrt(total //
    amp_i), total = scale * max_norm, because no search runs at a radius
    above total.  With centre_i = upper_i . x_{>i} that bounds |x_i| from
    the top level down, by reach_i = (isqrt(total // amp_i) + |upper_i| .
    reach_{>i}) // den_i.  A field holds a partial sum of a form of
    _field_rows over x_{>j}, so no field is larger than |form| . reach_{>j},
    and a signed field needs one bit more than that bound.

    The norm of the whole vector bounds no coordinate here: each memoised
    level searches its coset afresh at a radius up to total, below a
    prefix that may already cost as much, so the vectors on a path reach
    norm 47 on Leech at norm 6, not 2 * max_norm.
    """
    den, upper, amp, scale, _ = form
    total = scale * max_norm
    reach = [0] * len(den)
    for i in reversed(range(len(den))):
        centre = sum(map(mul, map(abs, upper[i]), reach[i + 1:]))
        reach[i] = (isqrt(total // amp[i]) + centre) // den[i]
    bound = max(sum(map(mul, map(abs, row), reach[j + 1:]))
                for j, rows in enumerate(_field_rows(form)) for row in rows)
    return bound.bit_length() + 1


def count_by_norm(lat: lattice.Lattice, max_norm: int,
                  budget: int) -> dict[int, int]:
    """Exact count of the vectors of the lattice at each even norm
    0..max_norm, max_norm even and nonnegative.

    Depth-first search over the square completion that the lattice's
    elimination gives (_scaled_form), basis in its pivot order, bounds in
    scaled integers.  An outer loop fixes the highest nonzero coordinate
    x_k to a positive value (nonzero norms count twice).  Below it the
    search runs over all of Z^k, so each subtree is counted once per
    coset of the fixed prefix modulo the span of the first basis vectors,
    on the levels MEMO_MINOR_LIMIT admits, and once per pair of opposite
    cosets: x -> -x maps the subtree of a prefix onto that of its
    negative.  Raises BudgetExceeded (discarding partial counts) once
    more than `budget` candidates are visited; a memo hit visits none.

    State.  A search at level L is passed one integer, not its prefix
    x_{>L}: the values over x_{>L} of the forms of _field_rows for every
    level j <= L, each biased by 2^(bits-1) into a `bits`-wide field
    (_state_width), level L's fields lowest and level 0's highest.  The
    search reads its centre and key bases from its own fields with shifts
    and masks; shifting them off leaves the state of x_{>L} for the levels
    below, and fixing x_L adds x_L times column[L], the coefficients of
    x_L in those fields.  Every field stays in range, so no carry crosses
    into the next.

    Key.  A level's table is keyed by the coset code alone, its digits
    with step 0 (most of them, _fewest_steps) read once per search and
    the rest once per candidate.  The radius
    left below a prefix x_{>k} is congruent mod scale to minus its
    projected scaled norm (a search starts in its caller's residue
    class), and that norm mod scale is fixed by the coset: with w =
    sum_{i>k} x_i b_i and u its projection to the span of L_k, which lies
    in the dual L_k^#, the projected norm is |w|^2 - |u|^2, |w|^2 is even,
    and |u|^2 mod 2 depends only on u mod L_k.  Opposite cosets have the
    same norms.
    """
    counts = {m: int(m == 0) for m in range(0, max_norm + 1, 2)}
    n = lat.rank
    if n == 0 or max_norm == 0:
        return counts

    form = _scaled_form(lat)
    den, _, amp, scale, keys = form
    total = scale * max_norm
    nodes = 0
    memo = [{} for _ in range(n)]
    # one object per distinct histogram: 631 for the 5,655 searches of
    # Leech at norm 6 (24 from the top, the rest on a memo miss), which
    # fill 11,017 table entries
    interned = {}
    # A histogram packs a subtree's vectors by projected scaled norm v
    # into one integer, the count of each v // scale in a `width`-bit
    # field.  The lattice is integral, so each v is congruent to its
    # radius mod scale and a field holds one v; no subtree outnumbers the
    # box of each level's widest range, so no field overflows.
    width = prod(2 * (isqrt(total // a) // b) + 3
                 for a, b in zip(amp, den)).bit_length()
    masks = [(1 << (m + 1) * width) - 1 for m in range(max_norm + 1)]

    bits = _state_width(form, max_norm)
    field = (1 << bits) - 1
    bias = 1 << bits - 1
    rows = _field_rows(form)
    own = [bits * len(level_rows) for level_rows in rows]
    column = [0] * n
    for m in range(1, n):
        shift = 0
        for j in reversed(range(m)):
            for row in rows[j]:
                column[m] += row[m - j - 1] << shift
                shift += bits

    def expand(level: int, state: int, rem: int, positive=False) -> int:
        """Histogram of the subtree at this level, through radius rem,
        below the fixed coordinates that `state` holds."""
        nonlocal nodes
        b, a = den[level], amp[level]
        centre = (state & field) - bias
        reach = isqrt(rem // a)
        lo = 1 if positive else -((reach + centre) // b)
        hi = (reach - centre) // b
        if hi < lo:
            return 0
        nodes += hi - lo + 1
        if nodes > budget:
            raise lattice.BudgetExceeded(budget, nodes)
        hist = 0
        if level == 0:
            for xi in range(lo, hi + 1):
                e = b * xi + centre
                hist += 1 << a * e * e // scale * width
            return hist
        below = level - 1
        key_map = keys[below]
        rest, col = state >> own[level], column[level]
        if key_map is not None:
            table = memo[below]
            # the digits that x_level moves follow those it leaves fixed
            fixed = fixed_negated = 0
            bases = []
            for _, step, mod in key_map:
                state >>= bits
                base = (state & field) - bias
                if step:
                    bases.append((base, step, mod))
                else:
                    fixed = fixed * mod + base % mod
                    fixed_negated = fixed_negated * mod + -base % mod
        # field f of a child's histogram, v = f * scale + sub_rem % scale,
        # moves to field units - left + f: cost + v = (units - left + f) *
        # scale + rem % scale, with left = sub_rem // scale
        units = rem // scale
        for xi in range(lo, hi + 1):
            e = b * xi + centre
            sub_rem = rem - a * e * e
            left = sub_rem // scale
            if key_map is None:
                sub = expand(below, rest + xi * col, sub_rem)
            else:
                code = fixed
                for base, step, mod in bases:
                    code = code * mod + (base + step * xi) % mod
                sub = table.get(code)
                if sub is None:
                    # the subtree depends only on the coset; the largest
                    # radius <= total in its residue class serves every
                    # caller, one with a smaller radius masking the rest
                    residue = sub_rem - scale * left
                    radius = total - scale + residue if residue else total
                    sub = expand(below, rest + xi * col, radius)
                    sub = table[code] = interned.setdefault(sub, sub)
                    # x -> -x maps the subtree of this coset onto that of
                    # its negative with the same norms: one search for both
                    negated = fixed_negated
                    for base, step, mod in bases:
                        negated = negated * mod + -(base + step * xi) % mod
                    table[negated] = sub
                sub &= masks[left]
            hist += sub << (units - left) * width
        return hist

    hist = 0
    fields = 0
    try:
        for top in range(n):
            # x_{>top} = 0: every field of the levels <= top at its bias
            fields += len(rows[top])
            start = bias * ((1 << fields * bits) - 1) // field
            hist += expand(top, start, total, positive=True)
    finally:
        # expand reaches itself through its closure cell; breaking that
        # cycle frees the memo at return instead of at the next collection
        del expand
    for norm in counts:
        counts[norm] += 2 * (hist >> norm * width & masks[0])
    return counts
