"""Level-one modular form expansions used as independent character oracles.

Everything is an exact FracSeries in integer weights: the Eisenstein
series E4, the discriminant form and the constant-free j - 744.  The
theta series of a rank-24 even unimodular lattice with N_2 norm-2
vectors is pinned inside the two-dimensional weight-12 space as
E4^3 + (N_2 - 720)*discriminant; the test suite checks it against direct
lattice enumeration.
"""

from __future__ import annotations

from math import comb

from .qseries import FracSeries


def _divisor_power_sum(n: int, k: int) -> int:
    total = 0
    for d in range(1, n + 1):
        if n % d == 0:
            total += d ** k
    return total


def eisenstein_e4(cutoff: int) -> FracSeries:
    """E4 = 1 + 240 sum sigma_3(n) q^n."""
    if cutoff < 0:
        raise ValueError("cutoff must be nonnegative")
    terms = {0: 1}
    for n in range(1, cutoff + 1):
        terms[n] = 240 * _divisor_power_sum(n, 3)
    return FracSeries(1, terms, cutoff)


def discriminant_form(cutoff: int) -> FracSeries:
    """q * prod_{n>=1} (1 - q^n)^24, the weight-12 cusp form."""
    if cutoff < 0:
        raise ValueError("cutoff must be nonnegative")
    acc = FracSeries.one(cutoff, grain=1)
    for n in range(1, cutoff + 1):
        factor = {n * k: (-1) ** k * comb(24, k) for k in range(cutoff // n + 1)}
        acc = acc * FracSeries(1, factor, cutoff)
    return acc.shift(1)


def moonshine_j(cutoff: int) -> FracSeries:
    """j - 744, for the modular j-function E4^3 / discriminant: leading
    exponent -1, constant term 0."""
    e4 = eisenstein_e4(cutoff + 2)
    delta = discriminant_form(cutoff + 2)
    return (e4 * e4 * e4 * delta.inverse()).truncated(cutoff) - 744


def unimodular_theta_rank24(cutoff: int, roots: int = 0) -> FracSeries:
    """Theta series of a rank-24 even unimodular lattice with `roots`
    norm-2 vectors: the unique weight-12 form 1 + roots*q + ... is
    E4^3 + (roots - 720)*delta."""
    if cutoff < 0:
        raise ValueError("cutoff must be nonnegative")
    e4 = eisenstein_e4(cutoff)
    delta = discriminant_form(cutoff)
    return e4 * e4 * e4 + (roots - 720) * delta
