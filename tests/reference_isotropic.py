"""The maximal isotropic search on Z_n x Z_n as it was written over
Fraction values of q, kept as a slow reference for the integer search in
orbifoldry.fusion.  It shares no code with the package."""

from fractions import Fraction


def _q(a, n):
    return Fraction(a[0] * a[1], n) % 1


def _span(gens, n):
    seen = {(0, 0)}
    frontier = [(0, 0)]
    while frontier:
        x, y = frontier.pop()
        for i, j in gens:
            step = ((x + i) % n, (y + j) % n)
            if step not in seen:
                seen.add(step)
                frontier.append(step)
    return frozenset(seen)


def maximal_isotropic_element_sets(n):
    """Element sets of the maximal subgroups on which q(i, j) = ij/n mod 1
    vanishes: spans of q-null pairs whose polarization
    q(a + b) - q(a) - q(b) vanishes mod 1, kept when no other span
    contains them."""
    null = [(i, j) for i in range(n) for j in range(n) if _q((i, j), n) == 0]
    spans = set()
    for a in null:
        for b in null:
            total = ((a[0] + b[0]) % n, (a[1] + b[1]) % n)
            if (_q(total, n) - _q(a, n) - _q(b, n)) % 1 == 0:
                spans.add(_span((a, b), n))
    return {h for h in spans if not any(h < k for k in spans)}
