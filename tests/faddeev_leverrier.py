"""Slow reference characteristic polynomial, for the tests only.

The Faddeev-LeVerrier recurrence over the integers, the way the package
computed charpolys before the mod-prime Hessenberg kernel: n - 1 exact
integer matrix products, every division by k checked.  It shares no code
with orbifoldry.isometry.
"""


def charpoly(matrix):
    """Coefficients of det(xI - M), highest power first."""
    n = len(matrix)
    base = [list(row) for row in matrix]
    work = [row[:] for row in base]
    coeffs = [1]
    for k in range(1, n + 1):
        tr = sum(work[i][i] for i in range(n))
        ck, rem = divmod(-tr, k)
        if rem:
            raise ArithmeticError("Faddeev-LeVerrier trace division failed")
        coeffs.append(ck)
        if k < n:
            for i in range(n):
                work[i][i] += ck
            cols = list(zip(*work))
            work = [[sum(x * y for x, y in zip(row, col)) for col in cols]
                    for row in base]
    return coeffs
