"""Even positive definite integral lattices.

Gram-matrix validation, Smith normal form with transformation matrices,
quotient-group invariants and exact norm-bounded vector enumeration.  All
arithmetic is exact, in integers.
"""

from __future__ import annotations

from math import gcd, isqrt, lcm, prod
from operator import mul
from typing import NamedTuple, Sequence

IntMatrix = tuple[tuple[int, ...], ...]

DEFAULT_NODE_BUDGET = 10**9

# Enumeration memoises a level k only while det L_k, the (k+1)-th leading
# minor, is at most this: its table then holds at most that many entries
# (one per coset of L_k in its dual), so the whole table stays below
# rank * MEMO_MINOR_LIMIT entries whatever the lattice, budget or norm.
MEMO_MINOR_LIMIT = 1 << 12


class BudgetExceeded(RuntimeError):
    """Enumeration hit its candidate budget; partial counts are discarded.

    `nodes` is the number of candidates visited when the search stopped.
    """

    def __init__(self, budget: int, nodes: int) -> None:
        super().__init__(f"enumeration exceeded its budget of {budget} "
                         f"candidates ({nodes} visited when it stopped)")
        self.budget = budget
        self.nodes = nodes


def _freeze(matrix: Sequence[Sequence[int]]) -> IntMatrix:
    # from lists, so each tuple is allocated at its final size: one grown
    # from an iterator is resized, and on release CPython parks it on a
    # free list that the next build from an iterator does not draw from
    return tuple([tuple([int(x) for x in row]) for row in matrix])


def _identity(n: int) -> list[list[int]]:
    return [[int(i == j) for j in range(n)] for i in range(n)]


def _bareiss(matrix: Sequence[Sequence[int]], order=None) -> tuple:
    """Fraction-free (Bareiss) elimination without row swaps: the
    successive pivots and the eliminated rows.

    The k-th pivot is the k-th leading principal minor of the input
    (Sylvester's criterion).  Entry (k, j), j >= k, of the eliminated
    rows is the minor on rows 0..k and columns 0..k-1, j.  Stops at the
    first zero pivot.  Given `order`, the list of indices, each step
    first swaps in the least remaining diagonal entry, the least next
    leading minor, by rows and columns, and permutes `order` alike.
    """
    work = [list(row) for row in matrix]
    n = len(work)
    pivots: list[int] = []
    prev = 1
    for k in range(n):
        if order is not None:
            i = min(range(k, n), key=lambda i: work[i][i])
            # swap entries k and i of `order`, the rows and each row
            for seq in (order, work, *work):
                seq[k], seq[i] = seq[i], seq[k]
        pivot = work[k][k]
        pivots.append(pivot)
        if pivot == 0:
            break
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                work[i][j] = (work[i][j] * pivot - work[i][k] * work[k][j]) // prev
        prev = pivot
    return pivots, work


class Lattice:
    """Even positive definite lattice described by its Gram matrix.

    Invariants are checked at construction: the matrix must be square,
    symmetric, have even diagonal, and pass Sylvester's criterion.
    Lattices are equal when their Gram matrices are.
    """

    # _coinvariants: divisors of L/(1 - g)L by the matrix of g, filled by
    # Isometry.coinvariant_divisors
    __slots__ = ("gram", "_coinvariants", "_determinant")

    def __init__(self, gram: Sequence[Sequence[int]]) -> None:
        self.gram = gram = _freeze(gram)
        self._coinvariants = {}
        n = len(gram)
        if any(len(row) != n for row in gram):
            raise ValueError("gram matrix must be square")
        for i in range(n):
            for j in range(i):
                if gram[i][j] != gram[j][i]:
                    raise ValueError(f"gram matrix is not symmetric at ({i},{j})")
        for i in range(n):
            if gram[i][i] % 2:
                raise ValueError(f"diagonal entry {gram[i][i]} at index {i} is odd")
        minors = _bareiss(gram)[0]
        if len(minors) < n or any(m <= 0 for m in minors):
            raise ValueError("a leading principal minor is not positive")
        # a positive definite Gram needs no row swaps: its determinant is
        # the last leading minor
        self._determinant = minors[-1] if n else 1

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Lattice):
            return NotImplemented
        return self.gram == other.gram

    def __hash__(self) -> int:
        return hash(self.gram)

    def __repr__(self) -> str:
        return f"Lattice(gram={self.gram!r})"

    @property
    def rank(self) -> int:
        return len(self.gram)

    def determinant(self) -> int:
        return self._determinant


def parse_matrix(source: str) -> IntMatrix:
    """Parse a square integer matrix from text: size on the first data
    line, then that many rows.  '#' starts a comment; blank lines are
    skipped.
    """
    lines = [text for text in (raw.split("#", 1)[0].strip()
                               for raw in source.splitlines()) if text]
    if not lines:
        raise ValueError("empty matrix description")
    head = lines[0].split()
    if len(head) != 1:
        raise ValueError("first data line must contain the size alone")
    try:
        size = int(head[0])
    except ValueError as exc:
        raise ValueError(f"size is not an integer: {head[0]!r}") from exc
    if size < 0:
        raise ValueError("size must be nonnegative")
    rows = lines[1:]
    if len(rows) != size:
        raise ValueError(f"expected {size} matrix rows, found {len(rows)}")
    matrix = []
    for idx, line in enumerate(rows):
        parts = line.split()
        if len(parts) != size:
            raise ValueError(f"row {idx} has {len(parts)} entries, expected {size}")
        try:
            matrix.append(tuple(int(p) for p in parts))
        except ValueError as exc:
            raise ValueError(f"row {idx} contains a non-integer entry") from exc
    return tuple(matrix)


# ----- Smith normal form ----------------------------------------------


class SmithForm(NamedTuple):
    """Diagonalization left @ A @ right = diag(invariants) with unimodular
    transforms and the divisibility chain d1 | d2 | ... | dr.
    """

    invariants: tuple[int, ...]
    left: IntMatrix
    right: IntMatrix


def _smallest_entry(a, t):
    best = None
    for i in range(t, len(a)):
        for j in range(t, len(a)):
            v = abs(a[i][j])
            if v and (best is None or v < best[0]):
                if v == 1:
                    # no nonzero entry is smaller than a unit
                    return i, j
                best = (v, i, j)
    return best and best[1:]


def smith_normal_form(matrix: Sequence[Sequence[int]]) -> SmithForm:
    """Smith normal form of a square integer matrix.

    Pivots are chosen by smallest absolute value to keep intermediate
    entries small, the first unit found being taken at once; the
    divisibility chain is enforced by folding any non-divisible entry
    into the pivot row before moving on, which a unit pivot never needs.
    """
    a = [[int(x) for x in row] for row in matrix]
    n = len(a)
    if any(len(row) != n for row in a):
        raise ValueError("matrix must be square")
    left = _identity(n)
    right = _identity(n)
    for t in range(n):
        while (pivot := _smallest_entry(a, t)) is not None:
            i, j = pivot
            a[t], a[i] = a[i], a[t]
            left[t], left[i] = left[i], left[t]
            if j != t:
                for row in a + right:
                    row[t], row[j] = row[j], row[t]
            p = a[t][t]
            dirty = False
            for r in range(t + 1, n):
                if a[r][t]:
                    k = a[r][t] // p
                    a[r] = [x - k * y for x, y in zip(a[r], a[t])]
                    left[r] = [x - k * y for x, y in zip(left[r], left[t])]
                    dirty = dirty or a[r][t]
            for c in range(t + 1, n):
                if a[t][c]:
                    k = a[t][c] // p
                    for row in a + right:
                        row[c] -= k * row[t]
                    dirty = dirty or a[t][c]
            if dirty:
                continue
            if p in (1, -1):
                # a unit divides every entry
                break
            offender = next((r for r in range(t + 1, n)
                             if any(x % p for x in a[r][t + 1:])), None)
            if offender is None:
                break
            a[t] = [x + y for x, y in zip(a[t], a[offender])]
            left[t] = [x + y for x, y in zip(left[t], left[offender])]
    for t in range(n):
        if a[t][t] < 0:
            a[t][t] = -a[t][t]
            left[t] = [-x for x in left[t]]
    return SmithForm(tuple(a[t][t] for t in range(n)), _freeze(left),
                     _freeze(right))


def quotient_invariants(lattice: Lattice, matrix: Sequence[Sequence[int]]) -> list[int]:
    """Elementary divisors > 1 of the finite group L/(M L).

    M is a nonsingular integer matrix in the lattice basis; the product
    of the returned divisors equals |det M|.
    """
    if len(matrix) != lattice.rank or any(len(r) != lattice.rank for r in matrix):
        raise ValueError("matrix shape does not match lattice rank")
    form = smith_normal_form(matrix)
    if 0 in form.invariants:
        raise ArithmeticError("matrix has determinant zero")
    return [d for d in form.invariants if d > 1]


# ----- vector enumeration ---------------------------------------------


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
    is (U y)_r mod D_r over the rows with D_r > 1; each key row (t, step,
    m) has m = D_r and (U y)_r = step x_{k+1} + t . x_{>k+1}.
    """

    den: list
    upper: list
    amp: list
    scale: int
    keys: list


def _key_maps(gram, minors) -> list:
    """The coset key rows of each level of a positive definite Gram
    matrix (see _ScaledForm), None above MEMO_MINOR_LIMIT.

    Smith forms U G_k V = D are kept modulo N, the lcm of the memoised
    minors.  The transforms of G_{k-1}, extended by one, turn G_k into
    [[D, U b], [b^T V, c]].  Each border entry is reduced modulo its D_r,
    which changes only the corner and clears it where D_r = 1; a Smith
    form of the other rows plus the border finishes the step.
    """
    memoised = [k for k in range(len(gram) - 1)
                if minors[k] <= MEMO_MINOR_LIMIT]
    modulus = lcm(*(minors[k] for k in memoised))
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
            [-sum(map(mul, up, x)) % modulus for x in zip(*left)] + [1]]
        right = [v + [0] for v in right] + [
            [-sum(map(mul, down, x)) % modulus for x in zip(*right)] + [1]]
        rest = [r for r, d in enumerate(diag) if d > 1]
        diag.append(corner % modulus)
        if rest:
            form = smith_normal_form(
                [[diag[r] * (r == s) for s in rest] + [beta[r]] for r in rest]
                + [[alpha[s] for s in rest] + [diag[k]]])
            rest.append(k)
            rows = list(zip(*[left[r] for r in rest]))
            cols = list(zip(*[right[r] for r in rest]))
            for r, f, g, d in zip(rest, form.left, zip(*form.right),
                                  form.invariants):
                left[r] = [sum(map(mul, f, x)) % modulus for x in rows]
                right[r] = [sum(map(mul, g, x)) % modulus for x in cols]
                diag[r] = d
        for r in rest or [k]:  # the rows whose D_r changed
            # scale U_r by a unit w modulo N with w D_r = gcd(D_r, N)
            d = gcd(diag[r], modulus)
            w = pow(diag[r] // d, -1, modulus // d)
            while gcd(w, modulus) > 1:
                w += modulus // d
            left[r] = [x * w % modulus for x in left[r]]
            diag[r] = d
        if k in memoised:
            keys[k] = []
            for u, d in zip(left, diag):
                if d > 1:
                    step, *t = [sum(map(mul, u, g)) % d for g in gram[k + 1:]]
                    keys[k].append((t, step, d))
    return keys


def _scaled_form(gram: IntMatrix) -> _ScaledForm:
    n = len(gram)
    # the square completion Q(x) = sum_i d_i (x_i + sum_{j>i} u_ij x_j)^2
    # from fraction-free elimination: d_i = minors[i] / minors[i-1] and
    # u_ij = rows[i][j] / minors[i]; den[i] is the denominator of row i
    order = list(range(n))
    minors, rows = _bareiss(gram, order=order)
    gram = [[gram[i][j] for j in order] for i in order]
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


def enumerate_vectors_by_norm(lattice: Lattice, max_norm: int,
                              budget: int = DEFAULT_NODE_BUDGET) -> dict[int, int]:
    """Exact count of lattice vectors at each even norm 0..max_norm.

    Depth-first search over the square completion of the form, basis in
    pivot order, bounds in scaled integers.  An outer loop fixes the
    highest nonzero coordinate x_k to a positive value (nonzero norms
    count twice).  Below it the search runs over all of Z^k, so each
    subtree is counted once per coset of the fixed prefix modulo the span
    of the first basis vectors, on the levels MEMO_MINOR_LIMIT admits, and
    once per pair of opposite cosets: x -> -x maps the subtree of a prefix
    onto that of its negative.  Raises BudgetExceeded (discarding partial
    counts) once more than `budget` candidates are visited; a memo hit
    visits none.
    """
    if max_norm < 0:
        raise ValueError("max_norm must be nonnegative")
    if max_norm % 2:
        raise ValueError("max_norm must be even for an even lattice")
    counts = {m: int(m == 0) for m in range(0, max_norm + 1, 2)}
    n = lattice.rank
    if n == 0 or max_norm == 0:
        return counts

    den, upper, amp, scale, keys = _scaled_form(lattice.gram)
    total = scale * max_norm
    nodes = 0
    memo = [{} for _ in range(n)]
    # one object per distinct histogram: 631 for Leech's 5,631 searches
    interned = {}
    # A histogram packs a subtree's vectors by projected scaled norm v
    # into one integer, the count of each v // scale in a `width`-bit
    # field.  The lattice is integral, so each v is congruent to its
    # radius mod scale and a field holds one v; no subtree outnumbers the
    # box of each level's widest range, so no field overflows.
    width = prod(2 * (isqrt(total // a) // b) + 3
                 for a, b in zip(amp, den)).bit_length()
    masks = [(1 << (m + 1) * width) - 1 for m in range(max_norm + 1)]

    def expand(level: int, prefix: list, rem: int, positive=False) -> int:
        """Histogram of the subtree at this level, through radius rem,
        below the fixed coordinates prefix = [x_{level+1}, ...]."""
        nonlocal nodes
        b, a = den[level], amp[level]
        centre = sum(map(mul, upper[level], prefix))
        reach = isqrt(rem // a)
        lo = 1 if positive else -((reach + centre) // b)
        hi = (reach - centre) // b
        if hi < lo:
            return 0
        nodes += hi - lo + 1
        if nodes > budget:
            raise BudgetExceeded(budget, nodes)
        hist = 0
        if level == 0:
            for xi in range(lo, hi + 1):
                e = b * xi + centre
                hist += 1 << a * e * e // scale * width
            return hist
        below = level - 1
        key_map = keys[below]
        if key_map is not None:
            table = memo[below]
            bases = [(sum(map(mul, t, prefix)), step, mod)
                     for t, step, mod in key_map]
        for xi in range(lo, hi + 1):
            e = b * xi + centre
            cost = a * e * e
            sub_rem = rem - cost
            residue = sub_rem % scale
            if key_map is None:
                sub = expand(below, [xi] + prefix, sub_rem)
            else:
                code = 0
                for base, step, mod in bases:
                    code = code * mod + (base + step * xi) % mod
                key = code * scale + residue
                sub = table.get(key)
                if sub is None:
                    # the subtree depends only on the coset; the largest
                    # radius <= total in this residue class serves every
                    # caller, one with a smaller radius masking the rest
                    radius = total - scale + residue if residue else total
                    sub = expand(below, [xi] + prefix, radius)
                    sub = table[key] = interned.setdefault(sub, sub)
                    # x -> -x maps the subtree of this coset onto that of
                    # its negative with the same norms: one search for both
                    negated = 0
                    for base, step, mod in bases:
                        negated = negated * mod + -(base + step * xi) % mod
                    table[negated * scale + residue] = sub
                sub &= masks[sub_rem // scale]
            hist += sub << (cost + residue) // scale * width
        return hist

    try:
        hist = sum(expand(top, [], total, positive=True) for top in range(n))
    finally:
        # expand reaches itself through its closure cell; breaking that
        # cycle frees the memo at return instead of at the next collection
        del expand
    for norm in counts:
        counts[norm] += 2 * (hist >> norm * width & masks[0])
    return counts
