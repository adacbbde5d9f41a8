"""Slow reference enumeration, for the tests only.

The depth-first Fincke-Pohst search the package used before the
memoised kernel: it visits every candidate coordinate one by one, under
the rule that the highest nonzero coordinate is positive.  It shares no
code with orbifoldry.lattice except the BudgetExceeded exception.
"""

from fractions import Fraction
from math import isqrt, lcm

from orbifoldry.lattice import BudgetExceeded


def norm(gram, vector) -> int:
    """<v, v> of an integer coordinate vector in the basis of gram."""
    return sum(x * y * g for x, row in zip(vector, gram)
               for y, g in zip(vector, row))


def _squares_decomposition(gram) -> tuple[list[Fraction], list[list[Fraction]]]:
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


def enumerate_vectors_by_norm(lattice, max_norm: int,
                              budget: int = 10**9) -> dict[int, int]:
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
            raise BudgetExceeded(budget, nodes)
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
