"""Exact formal power series in fractional powers of q.

A series lives on the grid (1/D)*Z for a positive integer D called the grain.
Coefficients are ints: every series the verifier builds is a graded
dimension or a trace over one, and the one division, exact_div, raises
rather than leave a remainder.  Exponents are integers in grain units, and
every series carries an explicit truncation cutoff: the coefficient of q^(k/D)
is exact for all k <= cutoff and undefined past it.  Reading past the cutoff
raises LookupError rather than returning a silent zero.

Finite Laurent tails (negative exponents) are allowed; infinite tails are not.
All values are immutable: operations return new series.

Infinite products prod_s (1 - q^(s/D))^(-m_s) are expanded by one integer
kernel, euler_product; grading_product maps oscillator modes onto it.
"""
from __future__ import annotations

from collections import Counter
from fractions import Fraction
from math import lcm
from typing import Iterable, Mapping


class FracSeries:
    """Truncated series sum(c_k * q^(k/grain)) with int coefficients.

    coeffs maps k <= cutoff (grain units, possibly negative) to a nonzero
    int.  Instances are value objects, equal by weight cutoff and
    coefficients whatever their grain; do not mutate one after construction.
    """

    __slots__ = ("grain", "coeffs", "cutoff")

    def __init__(self, grain: int, coeffs: Mapping[int, int], cutoff: int) -> None:
        if grain < 1:
            raise ValueError(f"grain must be >= 1, got {grain}")
        cleaned = {int(k): v for k, v in coeffs.items() if v}
        for k in cleaned:
            if k > cutoff:
                raise ValueError(f"term q^({k}/{grain}) lies past cutoff {cutoff}")
        self.grain = grain
        self.coeffs = cleaned
        self.cutoff = cutoff

    # ----- constructors -------------------------------------------------

    @staticmethod
    def zero(cutoff: Fraction | int, grain: int = 1) -> FracSeries:
        return FracSeries(grain, {}, _to_grain_units(cutoff, grain))

    @staticmethod
    def one(cutoff: Fraction | int, grain: int = 1) -> FracSeries:
        return FracSeries(grain, {0: 1}, _to_grain_units(cutoff, grain))

    # ----- inspection ---------------------------------------------------

    @property
    def weight_cutoff(self) -> Fraction:
        """Largest weight at which coefficients are exact."""
        return Fraction(self.cutoff, self.grain)

    def tail_exponent(self) -> int:
        """Smallest stored exponent in grain units; cutoff for the zero series.

        The zero-series convention keeps cutoff arithmetic conservative: a
        factor exactly zero through its cutoff cannot certify product terms
        further out than that.
        """
        return min(self.coeffs) if self.coeffs else self.cutoff

    def leading_term(self) -> tuple[Fraction, int]:
        """(exponent, coefficient) of the lowest-order term."""
        if not self.coeffs:
            raise ArithmeticError("zero series has no leading term")
        k = min(self.coeffs)
        return Fraction(k, self.grain), self.coeffs[k]

    def coefficient_at(self, exponent: Fraction | int) -> int:
        e = Fraction(exponent)
        if e > self.weight_cutoff:
            raise LookupError(f"coefficient at {e} requested, cutoff is {self.weight_cutoff}")
        scaled = e * self.grain
        if scaled.denominator != 1:
            return 0
        return self.coeffs.get(int(scaled), 0)

    def terms(self) -> list[tuple[Fraction, int]]:
        """Sorted (exponent, coefficient) pairs."""
        return [(Fraction(k, self.grain), v) for k, v in sorted(self.coeffs.items())]

    def agrees_with(self, other: FracSeries) -> bool:
        """Coefficient-wise equality through min(weight cutoffs)."""
        bound = min(self.weight_cutoff, other.weight_cutoff)
        a, b = _aligned(self, other)
        kmax = int(bound * a.grain)
        keys = {k for k in a.coeffs if k <= kmax} | {k for k in b.coeffs if k <= kmax}
        return all(a.coeffs.get(k, 0) == b.coeffs.get(k, 0) for k in keys)

    # ----- grain and cutoff management ----------------------------------

    def rescaled(self, new_grain: int) -> FracSeries:
        """Re-express on a finer grid; new_grain must be a multiple of grain."""
        if new_grain == self.grain:
            return self
        if new_grain % self.grain != 0:
            raise ValueError(f"cannot rescale grain {self.grain} to {new_grain}")
        f = new_grain // self.grain
        return FracSeries(new_grain, {k * f: v for k, v in self.coeffs.items()}, self.cutoff * f)

    def truncated(self, cutoff: Fraction | int) -> FracSeries:
        n = _to_grain_units(cutoff, self.grain)
        if n > self.cutoff:
            raise LookupError(f"cannot extend cutoff {self.weight_cutoff} to {cutoff}")
        return FracSeries(self.grain, {k: v for k, v in self.coeffs.items() if k <= n}, n)

    # ----- ring operations ----------------------------------------------

    def __neg__(self) -> FracSeries:
        return FracSeries(self.grain, {k: -v for k, v in self.coeffs.items()}, self.cutoff)

    def __add__(self, other: FracSeries | int) -> FracSeries:
        if isinstance(other, int):
            other = FracSeries(self.grain, {0: other}, self.cutoff)
        a, b = _aligned(self, other)
        n = min(a.cutoff, b.cutoff)
        out = dict(a.coeffs)
        for k, v in b.coeffs.items():
            out[k] = out.get(k, 0) + v
        return FracSeries(a.grain, {k: v for k, v in out.items() if k <= n}, n)

    def __sub__(self, other: FracSeries | int) -> FracSeries:
        return self + (-other)

    def __mul__(self, other: FracSeries | int) -> FracSeries:
        if isinstance(other, int):
            return FracSeries(self.grain, {k: v * other for k, v in self.coeffs.items()},
                              self.cutoff)
        a, b = _aligned(self, other)
        # worst-case exactness: a term at e needs b exact at e - tail(a) and
        # vice versa, so the product is exact through min of the shifted cutoffs
        n = min(a.cutoff + b.tail_exponent(), b.cutoff + a.tail_exponent())
        out: dict[int, int] = {}
        for ka, va in a.coeffs.items():
            for kb, vb in b.coeffs.items():
                k = ka + kb
                if k <= n:
                    out[k] = out.get(k, 0) + va * vb
        return FracSeries(a.grain, out, n)

    __rmul__ = __mul__

    def shift(self, delta: Fraction | int) -> FracSeries:
        """Multiply by q^delta (delta may be negative)."""
        d = Fraction(delta)
        g = lcm(self.grain, d.denominator)
        s = self.rescaled(g)
        off = int(d * g)
        return FracSeries(g, {k + off: v for k, v in s.coeffs.items()}, s.cutoff + off)

    def exact_div(self, m: int) -> FracSeries:
        """self / m, the integrality certificate: a coefficient that m does
        not divide raises ArithmeticError naming it and its exponent."""
        out = {}
        for k, v in sorted(self.coeffs.items()):
            out[k], rem = divmod(v, m)
            if rem:
                raise ArithmeticError(f"coefficient {v} at q^({Fraction(k, self.grain)}) "
                                      f"is not divisible by {m}")
        return FracSeries(self.grain, out, self.cutoff)

    def inverse(self) -> FracSeries:
        """Multiplicative inverse; the leading coefficient must be +-1, so
        that the inverse has int coefficients, else ArithmeticError.

        If self is exact through cutoff N with tail t, the inverse is exact
        through N - 2t: the coefficient of the inverse at -t + s consumes
        self's coefficients through t + s.
        """
        if not self.coeffs:
            raise ArithmeticError("cannot invert the zero series")
        t = min(self.coeffs)
        n_inv = self.cutoff - 2 * t
        lead = self.coeffs[t]
        if lead not in (1, -1):
            raise ArithmeticError(f"leading coefficient {lead} at q^({Fraction(t, self.grain)}) "
                                  "is not +-1, so the inverse is not integral")
        # lead is its own inverse; the normalized unit
        # u = q^(-t) * self / lead = 1 + sum_{j>=1} u_j q^j
        steps = sorted((k - t, v * lead) for k, v in self.coeffs.items() if k > t)
        # u^(-1) through q^(N - t), which puts the inverse's top at N - 2t
        inv = [1] + [0] * (self.cutoff - t)
        for k in range(1, len(inv)):
            s = 0
            for j, uj in steps:
                if j > k:
                    break
                s -= uj * inv[k - j]
            inv[k] = s
        return FracSeries(self.grain, {k - t: v * lead for k, v in enumerate(inv) if v},
                          n_inv)

    # ----- graded structure ----------------------------------------------

    def extract_weight_class(self, residue: Fraction | int) -> FracSeries:
        """Terms whose exponent is congruent to residue mod 1: the k with
        k = residue * grain mod grain, none when residue is off the grid."""
        g = self.grain
        r = Fraction(residue) * g
        if r.denominator != 1:
            return FracSeries(g, {}, self.cutoff)
        r = r.numerator % g
        return FracSeries(g, {k: v for k, v in self.coeffs.items() if k % g == r}, self.cutoff)

    # ----- serialization --------------------------------------------------

    def to_dict(self) -> dict:
        """{"grain", "terms": [[k, "c"], ...], "cutoff"}, JSON-able."""
        terms = [[k, str(v)] for k, v in sorted(self.coeffs.items())]
        return {"grain": self.grain, "terms": terms, "cutoff": self.cutoff}

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, FracSeries):
            return NotImplemented
        return (self.weight_cutoff == other.weight_cutoff
                and self.agrees_with(other))

    def __hash__(self) -> int:
        return hash(self.weight_cutoff)

    def __repr__(self) -> str:
        parts = [f"{v}*q^({Fraction(k, self.grain)})" for k, v in sorted(self.coeffs.items())[:8]]
        more = " + ..." if len(self.coeffs) > 8 else ""
        body = " + ".join(parts) if parts else "0"
        return f"FracSeries({body}{more}; cutoff={self.weight_cutoff})"


# ----- helpers -----------------------------------------------------------

def _to_grain_units(cutoff: Fraction | int, grain: int) -> int:
    c = Fraction(cutoff) * grain
    if c.denominator != 1:
        raise ValueError(f"cutoff {cutoff} is not representable at grain {grain}")
    return int(c)


def _aligned(a: FracSeries, b: FracSeries) -> tuple[FracSeries, FracSeries]:
    g = lcm(a.grain, b.grain)
    return a.rescaled(g), b.rescaled(g)


def euler_product(multiplicities: Mapping[int, int], n: int) -> list[int]:
    """Coefficients b_0..b_n of prod_s (1 - x^s)^(-m_s) over s >= 1, m_s of either sign,
    by the Euler transform on plain ints: j b_j = sum_{k<=j} c_k b_{j-k} with
    c_k = sum_{s|k} s m_s.  A division by j that leaves a remainder raises
    ArithmeticError (the integrality certificate) instead of being floored."""
    if n < 0:
        raise ValueError(f"length {n} must be nonnegative")
    c = [0] * (n + 1)
    for s, m in multiplicities.items():
        if s < 1:
            raise ValueError(f"factor exponent {s} must be positive")
        for k in range(s, n + 1, s):
            c[k] += s * m
    steps = [(k, ck) for k, ck in enumerate(c) if ck]
    b = [1] + [0] * n
    for j in range(1, n + 1):
        total = sum(ck * b[j - k] for k, ck in steps if k <= j)
        b[j], rem = divmod(total, j)
        if rem:
            raise ArithmeticError(f"Euler transform at x^{j}: {total} is not divisible by {j}")
    return b


def grading_product(modes: Iterable[tuple[Fraction | int, int]],
                    cutoff: Fraction | int,
                    grain: int = 1) -> FracSeries:
    """prod over (e, mult) of prod_{k>=0} (1 - q^(e+k))^(-mult), truncated.

    Each mode contributes a free graded piece at exponents e, e+1, e+2, ...
    with the given multiplicity.  Only modes with e + k <= cutoff matter.
    The towers become euler_product multiplicities in grain units.

    Raises ValueError if some mode exponent e is <= 0.
    """
    mode_list = [(Fraction(e), mult) for e, mult in modes]
    for e, mult in mode_list:
        if e <= 0:
            raise ValueError(f"mode exponent {e} must be positive")
        if mult < 0:
            raise ValueError(f"multiplicity {mult} must be nonnegative")
        grain = lcm(grain, e.denominator)
    n = _to_grain_units(cutoff, grain)
    multiplicities: Counter[int] = Counter()
    for e, mult in mode_list:
        for s in range(int(e * grain), n + 1, grain):
            multiplicities[s] += mult
    return FracSeries(grain, dict(enumerate(euler_product(multiplicities, n))), n)
