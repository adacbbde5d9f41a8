"""Even positive definite integral lattices.

Gram-matrix validation, Smith normal form with transformation matrices,
quotient-group invariants, exact norm-bounded vector enumeration, and
theta series.  All arithmetic is exact (integers and Fractions).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from math import gcd, isqrt, lcm
from operator import mul
from typing import NamedTuple, Sequence

from .qseries import FracSeries

IntMatrix = tuple[tuple[int, ...], ...]

DEFAULT_NODE_BUDGET = 10**9

# Enumeration memoises a level k only while det L_k, the (k+1)-th leading
# minor, is at most this: its table then holds at most that many entries
# (one per coset of L_k in its dual), so the whole table stays below
# rank * MEMO_MINOR_LIMIT entries whatever the lattice, budget or norm.
MEMO_MINOR_LIMIT = 1 << 12


class ParseError(ValueError):
    """Lattice text data is malformed (shape, tokens, or symmetry)."""


class NotEven(ValueError):
    """A Gram matrix has an odd diagonal entry."""


class NotPositiveDefinite(ValueError):
    """A Gram matrix fails Sylvester's criterion."""


class SingularMatrix(ArithmeticError):
    """A nonsingular matrix is required but the determinant is zero."""


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


def _bareiss(matrix: Sequence[Sequence[int]],
             pivoting: bool = False) -> tuple[list[int], int, list[list[int]]]:
    """Fraction-free (Bareiss) elimination: the successive pivots, the
    sign of the row swaps made, and the eliminated rows.

    The k-th pivot is the k-th leading principal minor of the row-swapped
    matrix.  Without pivoting these are the leading minors of the input
    (Sylvester's criterion); with pivoting, sign * last pivot is the
    determinant.  Entry (k, j), j >= k, of the eliminated rows is the
    minor on rows 0..k and columns 0..k-1, j.  Stops at the first zero
    pivot that no row swap (or, without pivoting, nothing) replaces.
    """
    work = [list(row) for row in matrix]
    n = len(work)
    pivots: list[int] = []
    sign = 1
    prev = 1
    for k in range(n):
        if pivoting and work[k][k] == 0:
            for i in range(k + 1, n):
                if work[i][k]:
                    work[k], work[i] = work[i], work[k]
                    sign = -sign
                    break
        pivot = work[k][k]
        pivots.append(pivot)
        if pivot == 0:
            break
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                work[i][j] = (work[i][j] * pivot - work[i][k] * work[k][j]) // prev
        prev = pivot
    return pivots, sign, work


def _det_int(matrix: Sequence[Sequence[int]]) -> int:
    """Exact determinant of a square integer matrix."""
    pivots, sign, _ = _bareiss(matrix, pivoting=True)
    return sign * pivots[-1] if pivots else 1


@dataclass(frozen=True)
class Lattice:
    """Even positive definite lattice described by its Gram matrix.

    Invariants are checked at construction: the matrix must be square,
    symmetric, have even diagonal, and pass Sylvester's criterion.
    """

    gram: IntMatrix
    label: str = ""
    # divisors of L/(1 - g)L by the matrix of g, filled by
    # Isometry.coinvariant_divisors
    _coinvariants: dict[IntMatrix, tuple[int, ...]] = field(
        default_factory=dict, init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        gram = _freeze(self.gram)
        object.__setattr__(self, "gram", gram)
        n = len(gram)
        for row in gram:
            if len(row) != n:
                raise ParseError("gram matrix must be square")
        for i in range(n):
            for j in range(i):
                if gram[i][j] != gram[j][i]:
                    raise ParseError(f"gram matrix is not symmetric at ({i},{j})")
        for i in range(n):
            if gram[i][i] % 2:
                raise NotEven(f"diagonal entry {gram[i][i]} at index {i} is odd")
        minors = _bareiss(gram)[0]
        if len(minors) < n or any(m <= 0 for m in minors):
            raise NotPositiveDefinite("a leading principal minor is not positive")
        # a positive definite Gram needs no row swaps: its determinant is
        # the last leading minor
        object.__setattr__(self, "_determinant", minors[-1] if n else 1)

    @property
    def rank(self) -> int:
        return len(self.gram)

    def determinant(self) -> int:
        return self._determinant

    def norm(self, vector: Sequence[int]) -> int:
        """⟨v,v⟩ of an integer coordinate vector in the lattice basis."""
        if len(vector) != self.rank:
            raise ValueError("vector length does not match lattice rank")
        total = 0
        for i, xi in enumerate(vector):
            if xi:
                row = self.gram[i]
                total += xi * sum(g * xj for g, xj in zip(row, vector))
        return total


def parse_matrix(source: str) -> IntMatrix:
    """Parse a square integer matrix from text: size on the first data
    line, then that many rows.  '#' starts a comment; blank lines are
    skipped.
    """
    lines = []
    for raw in source.splitlines():
        text = raw.split("#", 1)[0].strip()
        if text:
            lines.append(text)
    if not lines:
        raise ParseError("empty matrix description")
    head = lines[0].split()
    if len(head) != 1:
        raise ParseError("first data line must contain the size alone")
    try:
        size = int(head[0])
    except ValueError as exc:
        raise ParseError(f"size is not an integer: {head[0]!r}") from exc
    if size < 0:
        raise ParseError("size must be nonnegative")
    rows = lines[1:]
    if len(rows) != size:
        raise ParseError(f"expected {size} matrix rows, found {len(rows)}")
    matrix = []
    for idx, line in enumerate(rows):
        parts = line.split()
        if len(parts) != size:
            raise ParseError(f"row {idx} has {len(parts)} entries, expected {size}")
        try:
            matrix.append(tuple(int(p) for p in parts))
        except ValueError as exc:
            raise ParseError(f"row {idx} contains a non-integer entry") from exc
    return tuple(matrix)


def load_lattice(source: str, label: str = "") -> Lattice:
    """Parse a Gram matrix in the parse_matrix text format and validate
    all lattice invariants."""
    return Lattice(gram=parse_matrix(source), label=label)


# ----- Smith normal form ----------------------------------------------


@dataclass(frozen=True)
class SmithForm:
    """Diagonalization left @ A @ right = diag(invariants) with unimodular
    transforms and the divisibility chain d1 | d2 | ... | dr.
    """

    invariants: tuple[int, ...]
    left: IntMatrix
    right: IntMatrix


def _smallest_entry(a: list[list[int]], t: int) -> tuple[int, int] | None:
    n = len(a)
    best = None
    best_abs = 0
    for i in range(t, n):
        for j in range(t, n):
            v = a[i][j]
            if v and (best is None or abs(v) < best_abs):
                if v in (1, -1):
                    # no nonzero entry is smaller than a unit
                    return i, j
                best = (i, j)
                best_abs = abs(v)
    return best


def smith_normal_form(matrix: Sequence[Sequence[int]]) -> SmithForm:
    """Smith normal form of a square integer matrix.

    Pivots are chosen by smallest absolute value to keep intermediate
    entries small, the first unit found being taken at once; the
    divisibility chain is enforced by folding any non-divisible entry
    into the pivot row before moving on, which a unit pivot never needs.
    """
    a = [[int(x) for x in row] for row in matrix]
    n = len(a)
    for row in a:
        if len(row) != n:
            raise ValueError("matrix must be square")
    left = _identity(n)
    right = _identity(n)

    def swap_rows(i: int, j: int) -> None:
        a[i], a[j] = a[j], a[i]
        left[i], left[j] = left[j], left[i]

    def swap_cols(i: int, j: int) -> None:
        for row in a:
            row[i], row[j] = row[j], row[i]
        for row in right:
            row[i], row[j] = row[j], row[i]

    def add_row(dst: int, src: int, k: int) -> None:
        a[dst] = [x + k * y for x, y in zip(a[dst], a[src])]
        left[dst] = [x + k * y for x, y in zip(left[dst], left[src])]

    def add_col(dst: int, src: int, k: int) -> None:
        for row in a:
            row[dst] += k * row[src]
        for row in right:
            row[dst] += k * row[src]

    for t in range(n):
        while True:
            pivot = _smallest_entry(a, t)
            if pivot is None:
                break
            if pivot[0] != t:
                swap_rows(t, pivot[0])
            if pivot[1] != t:
                swap_cols(t, pivot[1])
            dirty = False
            for r in range(t + 1, n):
                if a[r][t]:
                    add_row(r, t, -(a[r][t] // a[t][t]))
                    dirty = dirty or bool(a[r][t])
            for c in range(t + 1, n):
                if a[t][c]:
                    add_col(c, t, -(a[t][c] // a[t][t]))
                    dirty = dirty or bool(a[t][c])
            if dirty:
                continue
            if a[t][t] in (1, -1):
                # a unit divides every entry
                break
            offender = None
            for r in range(t + 1, n):
                for c in range(t + 1, n):
                    if a[r][c] % a[t][t]:
                        offender = r
                        break
                if offender is not None:
                    break
            if offender is None:
                break
            add_row(t, offender, 1)
    for t in range(n):
        if a[t][t] < 0:
            a[t] = [-x for x in a[t]]
            left[t] = [-x for x in left[t]]
    return SmithForm(
        invariants=tuple(a[t][t] for t in range(n)),
        left=_freeze(left),
        right=_freeze(right),
    )


def quotient_invariants(lattice: Lattice, matrix: Sequence[Sequence[int]]) -> list[int]:
    """Elementary divisors > 1 of the finite group L/(M L).

    M is a nonsingular integer matrix in the lattice basis; the product
    of the returned divisors equals |det M|.
    """
    m = [[int(x) for x in row] for row in matrix]
    if len(m) != lattice.rank or any(len(r) != lattice.rank for r in m):
        raise ValueError("matrix shape does not match lattice rank")
    form = smith_normal_form(m)
    if any(d == 0 for d in form.invariants):
        raise SingularMatrix("matrix has determinant zero")
    return [d for d in form.invariants if d > 1]


# ----- vector enumeration ---------------------------------------------


# A coset key map: one (row, step, modulus) per Smith row with modulus > 1.
_KeyMap = list[tuple[tuple[int, ...], int, int]]


class _ScaledForm(NamedTuple):
    """The form in scaled integers, with the coset key map of each level.

    Level i costs amp[i] * (den[i] * x_i + centre_i)^2 scaled units, one
    unit of norm being `scale`, with centre_i = sum_{j>i} columns[j][i] *
    x_j.  keys[k] is None unless level k is memoised and lies below the
    top; otherwise it names the coset of a fixed prefix x_{>k} in
    L_k^#/L_k, L_k being spanned by the first k+1 basis vectors.  The
    coset is y mod G_k Z^{k+1}, with y = G[0..k][>k] x_{>k} and G_k the
    leading block; for a Smith form U G_k V = D it is (U y)_r mod D_r
    over the rows with D_r > 1.  Each key row (t, step, m) has m = D_r,
    (t . centres) // scale congruent to (U y)_r mod m, and step =
    (U G[0..k][k+1])_r mod m, the change of (U y)_r as x_{k+1} grows by
    one.
    """

    den: list[int]
    columns: list[list[int]]
    amp: list[int]
    scale: int
    keys: list[_KeyMap | None]


def _scaled_form(gram: IntMatrix) -> _ScaledForm:
    n = len(gram)
    # the square completion Q(x) = sum_i d_i (x_i + sum_{j>i} u_ij x_j)^2
    # from fraction-free elimination: d_i = minors[i] / minors[i-1] and
    # u_ij = rows[i][j] / minors[i]; den[i] is the denominator of row i
    minors, _, rows = _bareiss(gram)
    below = [1] + minors[:-1]
    shrink = [gcd(minors[i], *rows[i][i + 1:]) for i in range(n)]
    den = [minors[i] // shrink[i] for i in range(n)]
    columns = [[rows[i][j] // shrink[i] for i in range(j)] for j in range(n)]
    scale = lcm(*(below[i] // gcd(below[i], minors[i]) * den[i] ** 2
                  for i in range(n)))
    amp = [scale * minors[i] // (below[i] * den[i] ** 2) for i in range(n)]
    common = gcd(scale, *amp)
    scale //= common
    amp = [a // common for a in amp]
    # G = R^T diag(d) R for the unit upper triangular R[i][j] = u_ij, so
    # scale * y = A . centres with A lower triangular: A[i][l] =
    # columns[i][l] * amp[l] below the diagonal and amp[i] * den[i] on it
    lower = [[columns[i][l] * amp[l] for l in range(i)] + [amp[i] * den[i]]
             for i in range(n)]
    keys: list[_KeyMap | None] = []
    for k, minor in enumerate(minors[:-1]):
        if minor > MEMO_MINOR_LIMIT:
            keys.append(None)
            continue
        form = smith_normal_form([row[:k + 1] for row in gram[:k + 1]])
        key_rows = []
        for r, m in enumerate(form.invariants):
            if m == 1:
                continue
            left = form.left[r]
            t = tuple([sum(left[i] * lower[i][l] for i in range(l, k + 1))
                       % (scale * m) for l in range(k + 1)])
            step = sum(left[i] * gram[i][k + 1] for i in range(k + 1)) % m
            key_rows.append((t, step, m))
        keys.append(key_rows)
    return _ScaledForm(den, columns, amp, scale, keys)


def enumerate_vectors_by_norm(lattice: Lattice, max_norm: int,
                              budget: int = DEFAULT_NODE_BUDGET) -> dict[int, int]:
    """Exact count of lattice vectors at each even norm 0..max_norm.

    Depth-first search over the square-completion of the form with all
    bounds computed in scaled integer arithmetic.  An outer loop fixes
    the highest nonzero coordinate x_k to a positive value (counts for
    nonzero norms are doubled).  Below it the search runs over all of
    Z^k, so each subtree is counted once per coset of the fixed prefix
    modulo the sublattice spanned by the first basis vectors, on the
    levels MEMO_MINOR_LIMIT admits, and once per pair of opposite
    cosets: x -> -x maps the subtree of a prefix onto that of its
    negative with the same norms.  Raises BudgetExceeded (discarding all
    partial counts) if more than `budget` candidates are visited; a memo
    hit visits none.
    """
    if max_norm < 0:
        raise ValueError("max_norm must be nonnegative")
    if max_norm % 2:
        raise ValueError("max_norm must be even for an even lattice")
    counts = {m: 0 for m in range(0, max_norm + 1, 2)}
    counts[0] = 1
    n = lattice.rank
    if n == 0 or max_norm == 0:
        return counts

    den, columns, amp, scale, keys = _scaled_form(lattice.gram)
    total = scale * max_norm
    nodes = 0
    memo: list[dict[int, tuple[int, ...]]] = [{} for _ in range(n)]
    interned: dict[tuple[int, ...], tuple[int, ...]] = {}

    # A histogram h counts the vectors of a subtree by projected scaled
    # norm v: h[v // scale].  The lattice is integral, so every v in a
    # subtree reached with radius rem is congruent to rem mod scale, and
    # each index holds one value of v.

    def expand(level: int, centres: list[int], rem: int,
               positive: bool = False) -> list[int]:
        """Histogram of the subtree at this level, through radius rem."""
        nonlocal nodes
        hist = [0] * (rem // scale + 1)
        b, a, centre = den[level], amp[level], centres[level]
        reach = isqrt(rem // a)
        lo = 1 if positive else -((reach + centre) // b)
        hi = (reach - centre) // b
        if hi < lo:
            return hist
        nodes += hi - lo + 1
        if nodes > budget:
            raise BudgetExceeded(budget, nodes)
        if level == 0:
            for xi in range(lo, hi + 1):
                e = b * xi + centre
                hist[a * e * e // scale] += 1
            return hist
        column = columns[level]
        below = level - 1
        key_map = keys[below]
        if key_map is not None:
            table = memo[below]
            bases = [(sum(map(mul, t, centres)) // scale, step, mod)
                     for t, step, mod in key_map]
        for xi in range(lo, hi + 1):
            e = b * xi + centre
            cost = a * e * e
            sub_rem = rem - cost
            residue = sub_rem % scale
            if key_map is None:
                sub = expand(below, [c + w * xi for c, w in zip(centres, column)],
                             sub_rem)
            else:
                code = 0
                for base, step, mod in bases:
                    code = code * mod + (base + step * xi) % mod
                key = code * scale + residue
                sub = table.get(key)
                if sub is None:
                    # the subtree depends only on the coset, so the centres
                    # need no reduction; the largest radius <= total in
                    # this residue class serves every caller, one with a
                    # smaller radius reading a prefix
                    radius = total - scale + residue if residue else total
                    sub = tuple(expand(
                        below, [c + w * xi for c, w in zip(centres, column)],
                        radius))
                    sub = interned.setdefault(sub, sub)
                    table[key] = sub
                    # x -> -x maps the subtree of this coset onto that of
                    # its negative with the same norms: one search for both
                    negated = 0
                    for base, step, mod in bases:
                        negated = negated * mod + -(base + step * xi) % mod
                    table[negated * scale + residue] = sub
            shift = (cost + residue) // scale
            for m in range(sub_rem // scale + 1):
                if sub[m]:
                    hist[shift + m] += sub[m]
        return hist

    try:
        for top in range(n):
            hist = expand(top, [0] * (top + 1), total, positive=True)
            for norm in counts:
                counts[norm] += 2 * hist[norm]
    finally:
        # expand reaches itself through its closure cell; breaking that
        # cycle frees the memo at return instead of at the next collection
        del expand
    return counts


def theta_series(lattice: Lattice, cutoff: Fraction | int,
                 budget: int = DEFAULT_NODE_BUDGET) -> FracSeries:
    """Theta series sum_v q^{norm(v)/2} truncated at the given weight.

    Norms are even, so the series enumerated through int(cutoff) is exact
    through the requested cutoff and is stated there.
    """
    c = Fraction(cutoff)
    if c < 0:
        raise ValueError("cutoff must be nonnegative")
    counts = enumerate_vectors_by_norm(lattice, 2 * int(c), budget=budget)
    return FracSeries.from_terms({m // 2: cnt for m, cnt in counts.items()},
                                 cutoff=c, grain=c.denominator)
