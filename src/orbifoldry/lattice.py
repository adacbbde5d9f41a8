"""Even positive definite integral lattices.

Gram-matrix validation, Smith normal form with transformation matrices,
quotient-group invariants, exact norm-bounded vector enumeration, and
theta series.  All arithmetic is exact (integers and Fractions).
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import isqrt, lcm
from typing import Sequence

from .qseries import FracSeries

IntMatrix = tuple[tuple[int, ...], ...]

DEFAULT_NODE_BUDGET = 10**9


class ParseError(ValueError):
    """Lattice text data is malformed (shape, tokens, or symmetry)."""


class NotEven(ValueError):
    """A Gram matrix has an odd diagonal entry."""


class NotPositiveDefinite(ValueError):
    """A Gram matrix fails Sylvester's criterion."""


class SingularMatrix(ArithmeticError):
    """A nonsingular matrix is required but the determinant is zero."""


class BudgetExceeded(RuntimeError):
    """Enumeration hit its node budget; partial counts are discarded."""


def _freeze(matrix: Sequence[Sequence[int]]) -> IntMatrix:
    return tuple(tuple(int(x) for x in row) for row in matrix)


def _identity(n: int) -> list[list[int]]:
    return [[int(i == j) for j in range(n)] for i in range(n)]


def _bareiss(matrix: Sequence[Sequence[int]],
             pivoting: bool = False) -> tuple[list[int], int]:
    """Fraction-free (Bareiss) elimination: the successive pivots and the
    sign of the row swaps made.

    The k-th pivot is the k-th leading principal minor of the row-swapped
    matrix.  Without pivoting these are the leading minors of the input
    (Sylvester's criterion); with pivoting, sign * last pivot is the
    determinant.  Stops at the first zero pivot that no row swap (or,
    without pivoting, nothing) replaces.
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
    return pivots, sign


def _det_int(matrix: Sequence[Sequence[int]]) -> int:
    """Exact determinant of a square integer matrix."""
    pivots, sign = _bareiss(matrix, pivoting=True)
    return sign * pivots[-1] if pivots else 1


@dataclass(frozen=True)
class Lattice:
    """Even positive definite lattice described by its Gram matrix.

    Invariants are checked at construction: the matrix must be square,
    symmetric, have even diagonal, and pass Sylvester's criterion.
    """

    gram: IntMatrix
    label: str = ""

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
        minors, _ = _bareiss(gram)
        if len(minors) < n or any(m <= 0 for m in minors):
            raise NotPositiveDefinite("a leading principal minor is not positive")

    @property
    def rank(self) -> int:
        return len(self.gram)

    def determinant(self) -> int:
        return _det_int(self.gram)

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
                best = (i, j)
                best_abs = abs(v)
    return best


def smith_normal_form(matrix: Sequence[Sequence[int]]) -> SmithForm:
    """Smith normal form of a square integer matrix.

    Pivots are chosen by smallest absolute value to keep intermediate
    entries small; the divisibility chain is enforced by folding any
    non-divisible entry into the pivot row before moving on.
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


def _squares_decomposition(gram: IntMatrix) -> tuple[list[Fraction], list[list[Fraction]]]:
    """Write the form as sum_i d_i (x_i + sum_{j>i} u_ij x_j)^2 exactly."""
    n = len(gram)
    a = [[Fraction(x) for x in row] for row in gram]
    d = [Fraction(0)] * n
    u = [[Fraction(0)] * n for _ in range(n)]
    for i in range(n):
        d[i] = a[i][i]
        for j in range(i + 1, n):
            u[i][j] = a[i][j] / a[i][i]
        for r in range(i + 1, n):
            for c in range(i + 1, n):
                a[r][c] -= a[r][i] * a[i][c] / a[i][i]
    return d, u


def enumerate_vectors_by_norm(lattice: Lattice, max_norm: int,
                              budget: int = DEFAULT_NODE_BUDGET) -> dict[int, int]:
    """Exact count of lattice vectors at each even norm 0..max_norm.

    Depth-first search over the square-completion of the form with all
    bounds computed in scaled integer arithmetic.  Only the half-space
    where the highest fixed coordinate is positive is visited; counts
    for nonzero norms are doubled.  Raises BudgetExceeded (discarding
    all partial counts) if more than `budget` candidates are visited.
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

    d, u = _squares_decomposition(lattice.gram)
    row_den = []
    row_num = []
    for i in range(n):
        bi = 1
        for j in range(i + 1, n):
            bi = lcm(bi, u[i][j].denominator)
        row_den.append(bi)
        row_num.append([int(u[i][j] * bi) for j in range(n)])
    scale = 1
    for i in range(n):
        scale = lcm(scale, d[i].denominator * row_den[i] * row_den[i])
    # amp[i] * (b_i x_i + a_i)^2 is the exact scaled cost of level i
    amp = [scale // (d[i].denominator * row_den[i] * row_den[i]) * d[i].numerator
           for i in range(n)]

    total = scale * max_norm
    x = [0] * n
    nodes = 0

    def descend(level: int, remaining: int, lead: bool) -> None:
        nonlocal nodes
        wrow = row_num[level]
        center = 0
        for j in range(level + 1, n):
            if x[j]:
                center += wrow[j] * x[j]
        bi = row_den[level]
        reach = isqrt(remaining // amp[level])
        lo = -((reach + center) // bi)
        hi = (reach - center) // bi
        if lead and lo < 0:
            lo = 0
        span = hi - lo + 1
        if span <= 0:
            return
        nodes += span
        if nodes > budget:
            raise BudgetExceeded(f"enumeration exceeded {budget} nodes")
        if level == 0:
            for xi in range(lo, hi + 1):
                if lead and xi == 0:
                    continue
                e = bi * xi + center
                used = total - (remaining - amp[0] * e * e)
                counts[used // scale] += 2
        else:
            for xi in range(lo, hi + 1):
                e = bi * xi + center
                x[level] = xi
                descend(level - 1, remaining - amp[level] * e * e,
                        lead and xi == 0)
            x[level] = 0

    descend(n - 1, total, True)
    return counts


def theta_series(lattice: Lattice, cutoff: Fraction | int,
                 budget: int = DEFAULT_NODE_BUDGET) -> FracSeries:
    """Theta series sum_v q^{norm(v)/2} truncated at the given weight."""
    c = Fraction(cutoff)
    if c < 0:
        raise ValueError("cutoff must be nonnegative")
    top = int(c)
    counts = enumerate_vectors_by_norm(lattice, 2 * top, budget=budget)
    return FracSeries.from_terms({m // 2: cnt for m, cnt in counts.items()},
                                 cutoff=top, grain=1)
