"""Slow reference expansions of infinite products, for the tests only.

These multiply the factors out one FracSeries at a time, the way the
package did before the integer Euler-product kernel; they share no code
with qseries.euler_product beyond the series ring itself.
"""

from fractions import Fraction
from math import comb, lcm

from orbifoldry.qseries import FracSeries


def direct_product(multiplicities, grain, n):
    """prod_s (1 - x^s)^(-m_s) through x^n, x = q^(1/grain), m_s of either
    sign: a binomial series per factor for m_s > 0, a polynomial for
    m_s < 0."""
    acc = FracSeries.one(Fraction(n, grain), grain)
    for s, m in multiplicities.items():
        if m > 0:
            factor = {s * t: comb(m - 1 + t, t) for t in range(n // s + 1)}
        elif m < 0:
            factor = {s * t: (-1) ** t * comb(-m, t)
                      for t in range(min(-m, n // s) + 1)}
        else:
            continue
        acc = acc * FracSeries(grain, factor, n)
    return acc


def direct_grading_product(modes, cutoff, grain=None):
    """prod over (e, mult) of prod_{k>=0} (1 - q^(e+k))^(-mult), one
    factor per tower rung."""
    cut = Fraction(cutoff)
    mode_list = []
    g = grain if grain is not None else 1
    for e, mult in modes:
        ef = Fraction(e)
        if ef <= 0:
            raise ValueError(f"mode exponent {ef} must be positive")
        g = lcm(g, ef.denominator)
        if mult:
            mode_list.append((ef, mult))
    result = FracSeries.one(cut, g)
    n = int(cut * g)
    for e, mult in mode_list:
        k = 0
        while e + k <= cut:
            step = int((e + k) * g)
            factor = {step * t: comb(mult - 1 + t, t) for t in range(n // step + 1)}
            result = result * FracSeries(g, factor, n)
            k += 1
    return result
