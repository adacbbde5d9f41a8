"""Even positive definite integral lattices.

Gram-matrix validation, Smith normal form carrying the caller's vectors
through its row and column operations, quotient-group invariants and
exact norm-bounded vector counts, whose search is the module
`enumeration`.  All arithmetic is exact, in integers.
"""

from __future__ import annotations

from typing import Sequence

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


def _bareiss(matrix: Sequence[Sequence[int]]) -> tuple:
    """Fraction-free (Bareiss) elimination: the pivot order, the pivots
    and the eliminated rows.  Each step first swaps in, by rows and
    columns, the least remaining diagonal entry, the least next leading
    minor.  In the pivot order, entries (order[i], order[j]) of the input,
    the k-th pivot is the k-th leading principal minor, and entry (k, j),
    j >= k, of the rows the minor on rows 0..k and columns 0..k-1, j.
    Stops at the first zero pivot.
    """
    work = [list(row) for row in matrix]
    n = len(work)
    order = list(range(n))
    pivots: list[int] = []
    prev = 1
    for k in range(n):
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
    return order, pivots, work


class Lattice:
    """Even positive definite lattice described by its Gram matrix.

    Invariants are checked at construction: the matrix must be square,
    symmetric, have even diagonal, and pass Sylvester's criterion in the
    pivot order of _bareiss, whose result the determinant and the
    enumeration's square completion read.  Lattices are equal when their
    Gram matrices are.
    """

    # _coinvariants: divisors of L/(1 - g)L by the matrix of g, filled by
    # Isometry.coinvariant_divisors; _elimination: _bareiss of the Gram
    __slots__ = ("gram", "_coinvariants", "_elimination")

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
        # a symmetric permutation keeps positive definiteness and the
        # determinant: the pivots decide the one and end with the other
        self._elimination = _bareiss(gram)
        minors = self._elimination[1]
        if len(minors) < n or any(m <= 0 for m in minors):
            raise ValueError("a leading principal minor is not positive")

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
        return self._elimination[1][-1] if self.rank else 1


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


def smith_normal_form(matrix: Sequence[Sequence[int]], rows: list,
                      cols: list) -> tuple[int, ...]:
    """Invariant factors d1 | d2 | ... | dr of a square integer matrix A,
    the diagonal of its Smith normal form U A V.

    Each row operation on A is applied to `rows`, one vector per row of
    A, and each column operation to `cols`, one vector per column, in
    place: carried vectors R and C come back as U R and V^T C, so the
    rows of the identity come back as the rows of U and the columns of V,
    and empty vectors carry nothing.  A diagonal A of positive entries,
    each dividing the next, is its own form, returned at once.  Otherwise
    pivots are chosen by smallest absolute value to keep entries small,
    the first unit found being taken at once; the chain is enforced by
    folding any non-divisible entry into the pivot row before moving on,
    which a unit pivot never needs.
    """
    a = [[int(x) for x in row] for row in matrix]
    n = len(a)
    if any(len(row) != n for row in a) or len(rows) != n or len(cols) != n:
        raise ValueError("matrix must be square, with one carried vector "
                         "per row and per column")
    if all(0 < row[t] == sum(map(abs, row)) and not sum(below) % row[t]
           for t, (row, below) in enumerate(zip(a, a[1:] + a[-1:]))):
        return tuple(row[t] for t, row in enumerate(a))  # a diagonal chain
    for t in range(n):
        while (pivot := _smallest_entry(a, t)) is not None:
            i, j = pivot
            a[t], a[i] = a[i], a[t]
            rows[t], rows[i] = rows[i], rows[t]
            if j != t:
                for row in a:
                    row[t], row[j] = row[j], row[t]
                cols[t], cols[j] = cols[j], cols[t]
            p = a[t][t]
            dirty = False
            for r in range(t + 1, n):
                if a[r][t]:
                    k = a[r][t] // p
                    a[r] = [x - k * y for x, y in zip(a[r], a[t])]
                    rows[r] = [x - k * y for x, y in zip(rows[r], rows[t])]
                    dirty = dirty or a[r][t]
            for c in range(t + 1, n):
                if a[t][c]:
                    k = a[t][c] // p
                    for row in a:
                        row[c] -= k * row[t]
                    cols[c] = [x - k * y for x, y in zip(cols[c], cols[t])]
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
            rows[t] = [x + y for x, y in zip(rows[t], rows[offender])]
    for t in range(n):
        if a[t][t] < 0:
            a[t][t] = -a[t][t]
            rows[t] = [-x for x in rows[t]]
    return tuple(a[t][t] for t in range(n))


def quotient_invariants(lattice: Lattice, matrix: Sequence[Sequence[int]]) -> list[int]:
    """Elementary divisors > 1 of the finite group L/(M L).

    M is a nonsingular integer matrix in the lattice basis; the product
    of the returned divisors equals |det M|.
    """
    if len(matrix) != lattice.rank or any(len(r) != lattice.rank for r in matrix):
        raise ValueError("matrix shape does not match lattice rank")
    invariants = smith_normal_form(matrix, [()] * lattice.rank,
                                   [()] * lattice.rank)
    if 0 in invariants:
        raise ArithmeticError("matrix has determinant zero")
    return [d for d in invariants if d > 1]


# ----- vector enumeration ---------------------------------------------


def enumerate_vectors_by_norm(lattice: Lattice, max_norm: int,
                              budget: int = DEFAULT_NODE_BUDGET) -> dict[int, int]:
    """Exact count of lattice vectors at each even norm 0..max_norm.

    Counted by the memoised search of enumeration.count_by_norm over the
    square completion that the lattice's elimination gives, visiting each
    subtree once per pair of opposite cosets of its fixed prefix.  Raises
    BudgetExceeded (discarding partial counts) once more than `budget`
    candidates are visited; a memo hit visits none.
    """
    if max_norm < 0:
        raise ValueError("max_norm must be nonnegative")
    if max_norm % 2:
        raise ValueError("max_norm must be even for an even lattice")
    # only the commands that count vectors compile the search
    from .enumeration import count_by_norm
    return count_by_norm(lattice, max_norm, budget)
