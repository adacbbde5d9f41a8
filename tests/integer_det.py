"""Exact integer determinant, for the tests only.

Fraction-free (Bareiss) elimination with row swaps, the way the package
computed determinants while the word search still confirmed its result
by det(M^i - I) != 0.  The package now eliminates only positive
definite Gram matrices, which need no swaps.
"""


def det_int(matrix):
    """Exact determinant of a square integer matrix."""
    work = [list(row) for row in matrix]
    n = len(work)
    sign = 1
    prev = 1
    for k in range(n):
        if work[k][k] == 0:
            swap = next((i for i in range(k + 1, n) if work[i][k]), None)
            if swap is None:
                return 0
            work[k], work[swap] = work[swap], work[k]
            sign = -sign
        pivot = work[k][k]
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                work[i][j] = (work[i][j] * pivot - work[i][k] * work[k][j]) // prev
        prev = pivot
    return sign * prev
