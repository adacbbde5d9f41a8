"""Seeded changes of basis: unimodular products of elementary matrices."""


def seeded_unimodular(rng, n, factors):
    """U and U^-1 for U a product of elementary matrices I +- E_ab."""
    u = [[int(i == j) for j in range(n)] for i in range(n)]
    u_inv = [row[:] for row in u]
    for _ in range(factors):
        a, b = rng.sample(range(n), 2)
        s = rng.choice((1, -1))
        # U <- U (I + s E_ab): column b += s column a; the inverse factor
        # I - s E_ab multiplies U^-1 from the left: row a -= s row b
        for row in u:
            row[b] += s * row[a]
        u_inv[a] = [x - s * y for x, y in zip(u_inv[a], u_inv[b])]
    return u, u_inv
