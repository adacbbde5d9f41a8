"""Even positive definite integral lattices.

Gram-matrix validation, Smith normal form with transformation matrices,
quotient-group invariants and exact norm-bounded vector counts, whose
search is the module `enumeration`.  All arithmetic is exact, in
integers.
"""

from __future__ import annotations

from typing import NamedTuple, Sequence

IntMatrix = tuple[tuple[int, ...], ...]

DEFAULT_NODE_BUDGET = 10**9


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


def enumerate_vectors_by_norm(lattice: Lattice, max_norm: int,
                              budget: int = DEFAULT_NODE_BUDGET) -> dict[int, int]:
    """Exact count of lattice vectors at each even norm 0..max_norm.

    Counted by the memoised search of enumeration.count_by_norm, which
    visits each subtree once per pair of opposite cosets of its fixed
    prefix.  Raises BudgetExceeded (discarding partial counts) once more
    than `budget` candidates are visited; a memo hit visits none.
    """
    if max_norm < 0:
        raise ValueError("max_norm must be nonnegative")
    if max_norm % 2:
        raise ValueError("max_norm must be even for an even lattice")
    # only the commands that count vectors compile the search
    from .enumeration import count_by_norm
    return count_by_norm(lattice.gram, max_norm, budget)
