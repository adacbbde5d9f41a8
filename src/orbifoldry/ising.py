"""Characters of the three simple modules of the central charge 1/2
Virasoro algebra, realized by free-fermion products.

ch_0 and ch_{1/2} are the even- and odd-fermion-number halves of the
Neveu-Schwarz product prod_{n>=0}(1 + q^{n+1/2}); ch_{1/16} is
q^{1/16} prod_{n>=1}(1 + q^n); both are expanded by qseries.euler_product.
"""

from __future__ import annotations

from collections import Counter
from fractions import Fraction
from math import lcm

from .qseries import FracSeries, Rational, euler_product

__all__ = [
    "ALLOWED_WEIGHTS",
    "MinimalModelChar",
    "UnknownHighestWeight",
    "c12_character",
    "extension_weight_one_check",
]

ALLOWED_WEIGHTS = (Fraction(0), Fraction(1, 2), Fraction(1, 16))


class UnknownHighestWeight(ValueError):
    """Highest weight outside {0, 1/2, 1/16}."""


class MinimalModelChar:
    """Graded dimension of one simple module: leading term q^h."""

    __slots__ = ("h", "series")

    def __init__(self, h: Rational, series: FracSeries) -> None:
        self.h, self.series = Fraction(h), series
        if self.h not in ALLOWED_WEIGHTS:
            raise UnknownHighestWeight(f"no simple module of weight {self.h}")
        if self.series.leading_term() != (self.h, 1):
            raise ValueError(f"series does not lead with 1*q^{self.h}")
        for _, value in self.series.terms():
            if value.denominator != 1 or value < 0:
                raise ValueError("character coefficients must be counts")


def _fermion_product(first: Fraction, cutoff: Fraction, sign: int,
                     grain: int) -> FracSeries:
    """prod_{k>=0} (1 + sign * q^(first + k)) through the cutoff, sign = +-1:
    1 - x^s is Euler multiplicity -1 at s, 1 + x^s = (1 - x^2s)/(1 - x^s)
    is +1 at s and -1 at 2s (x = q^(1/grain))."""
    n = int(cutoff * grain)
    multiplicities: Counter[int] = Counter()
    for s in range(int(first * grain), n + 1, grain):
        multiplicities[s] += sign
        if sign > 0:
            multiplicities[2 * s] -= 1
    return FracSeries(grain, dict(enumerate(euler_product(multiplicities, n))), n)


def c12_character(h: Rational, cutoff: Rational) -> MinimalModelChar:
    """Character of the simple module of highest weight h in {0, 1/2, 1/16}."""
    hw = Fraction(h)
    c = Fraction(cutoff)
    if hw not in ALLOWED_WEIGHTS:
        raise UnknownHighestWeight(f"no simple module of weight {h}")
    if c < hw:
        raise ValueError(f"cutoff {c} is below the leading weight {hw}")
    if hw == Fraction(1, 16):
        acc = _fermion_product(Fraction(1), c - hw, 1, lcm(16, c.denominator))
        return MinimalModelChar(hw, acc.shift(hw))
    half = Fraction(1, 2)
    grain = lcm(2, c.denominator)
    plus = _fermion_product(half, c, 1, grain)
    minus = _fermion_product(half, c, -1, grain)
    series = (plus + minus) * half if hw == 0 else (plus - minus) * half
    return MinimalModelChar(hw, series)


def extension_weight_one_check(cutoff: Rational = 2) -> Fraction:
    """Weight-one coefficient of ch_0^2 + ch_{1/2}^2: the two-module
    extension acquires a weight-one vector, so it cannot embed in a
    space with none."""
    c = Fraction(cutoff)
    if c < 1:
        raise ValueError("cutoff must reach weight one")
    ch0 = c12_character(0, c).series
    ch_half = c12_character(Fraction(1, 2), c).series
    value = (ch0 * ch0 + ch_half * ch_half).coefficient_at(1)
    assert value > 0
    return value
