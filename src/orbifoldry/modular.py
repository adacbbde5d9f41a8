"""Level-one modular form expansions used as independent character oracles.

Everything is an exact FracSeries in integer weights: the Eisenstein
series E4, the discriminant form, the j-function and its constant-free
shift.  The rank-24 even unimodular theta series with zero norm-2
coefficient is pinned inside the two-dimensional weight-12 space as
E4^3 - 720*discriminant; its weight-2 coefficient 196560 is cross-checked
against direct lattice enumeration in the test suite.
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
    return FracSeries.from_terms(terms, cutoff=cutoff, grain=1)


def discriminant_form(cutoff: int) -> FracSeries:
    """q * prod_{n>=1} (1 - q^n)^24, the weight-12 cusp form."""
    if cutoff < 0:
        raise ValueError("cutoff must be nonnegative")
    acc = FracSeries.one(cutoff, grain=1)
    for n in range(1, cutoff + 1):
        factor = {n * k: (-1) ** k * comb(24, k) for k in range(cutoff // n + 1)}
        acc = acc * FracSeries.from_terms(factor, cutoff=cutoff, grain=1)
    return acc.shift(1)


def j_invariant(cutoff: int) -> FracSeries:
    """The modular j-function E4^3 / discriminant, from weight -1 up."""
    e4 = eisenstein_e4(cutoff + 2)
    delta = discriminant_form(cutoff + 2)
    return (e4 * e4 * e4 * delta.inverse()).truncated(cutoff)


def moonshine_j(cutoff: int) -> FracSeries:
    """j - 744: leading exponent -1, constant term 0."""
    return j_invariant(cutoff) - 744


def unimodular_theta_rank24(cutoff: int) -> FracSeries:
    """Theta series of a rank-24 even unimodular lattice with no norm-2
    vectors: the unique weight-12 form 1 + 0*q + ... is E4^3 - 720*delta."""
    if cutoff < 0:
        raise ValueError("cutoff must be nonnegative")
    e4 = eisenstein_e4(cutoff)
    delta = discriminant_form(cutoff)
    return e4 * e4 * e4 - 720 * delta
