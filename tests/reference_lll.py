"""Exact LLL on a Gram matrix with Gram-Schmidt recomputed in full after
every size reduction: the slow reference for tools/generate_data.py's
lll_gram, which updates mu in place instead."""

from fractions import Fraction


def lll_gram(gram, delta=Fraction(99, 100)):
    """Returns (reduced_gram, transform) with reduced = T @ gram @ T.T."""
    n = len(gram)
    g = [[Fraction(x) for x in row] for row in gram]
    u = [[int(i == j) for j in range(n)] for i in range(n)]

    def gso():
        mu = [[Fraction(0)] * n for _ in range(n)]
        norms = [Fraction(0)] * n
        r = [[Fraction(0)] * n for _ in range(n)]
        for i in range(n):
            for j in range(i + 1):
                s = g[i][j]
                for k in range(j):
                    s -= mu[j][k] * r[i][k]
                r[i][j] = s
                if j < i:
                    mu[i][j] = s / norms[j]
            norms[i] = r[i][i]
        return mu, norms

    while True:
        mu, norms = gso()
        changed = False
        for k in range(1, n):
            for j in range(k - 1, -1, -1):
                q = round(mu[k][j])
                if q:
                    changed = True
                    for t in range(n):
                        u[k][t] -= q * u[j][t]
                    g[k] = [g[k][t] - q * g[j][t] for t in range(n)]
                    for t in range(n):
                        if t != k:
                            g[t][k] -= q * g[t][j]
                    g[k][k] -= q * g[k][j]
                    mu, norms = gso()
        swapped = False
        for k in range(1, n):
            if norms[k] < (delta - mu[k][k - 1] ** 2) * norms[k - 1]:
                g[k], g[k - 1] = g[k - 1], g[k]
                for t in range(n):
                    g[t][k], g[t][k - 1] = g[t][k - 1], g[t][k]
                u[k], u[k - 1] = u[k - 1], u[k]
                swapped = True
                break
        if not swapped and not changed:
            return [[int(x) for x in row] for row in g], u
