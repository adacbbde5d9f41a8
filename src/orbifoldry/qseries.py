"""Exact formal power series in fractional powers of q.

A series lives on the grid (1/D)*Z for a positive integer D called the grain.
Coefficients are exact rationals, exponents are integers in grain units, and
every series carries an explicit truncation cutoff: the coefficient of q^(k/D)
is exact for all k <= cutoff and undefined past it.  Reading past the cutoff
raises BeyondCutoff rather than returning a silent zero.

Finite Laurent tails (negative exponents) are allowed; infinite tails are not.
All values are immutable: operations return new series.

Infinite products prod_s (1 - q^(s/D))^(-m_s) are expanded by one integer
kernel, euler_product; grading_product maps oscillator modes onto it.
"""
from __future__ import annotations

from collections import Counter
from fractions import Fraction
from math import gcd, lcm
from typing import Iterable, Mapping

Rational = Fraction

DEFAULT_CUTOFF = Fraction(6)


class ZeroLeadingTerm(ArithmeticError):
    """Inversion requires a nonzero leading coefficient."""


class NonPositiveExponent(ValueError):
    """Graded product modes must sit at strictly positive exponents."""


class BeyondCutoff(LookupError):
    """A coefficient past the stored truncation cutoff was requested."""


def _as_fraction(x: int | Fraction) -> Fraction:
    return x if isinstance(x, Fraction) else Fraction(x)


class FracSeries:
    """Truncated series sum(c_k * q^(k/grain)) with exact Fraction coefficients.

    coeffs maps k (grain units, possibly negative) to a nonzero Fraction; all
    keys satisfy k <= cutoff.  Instances are value objects, equal and hashed
    by their canonical (coarsest) grid; do not mutate one after construction.
    """

    __slots__ = ("grain", "coeffs", "cutoff")

    def __init__(self, grain: int, coeffs: Mapping[int, Fraction], cutoff: int) -> None:
        if grain < 1:
            raise ValueError(f"grain must be >= 1, got {grain}")
        cleaned = {int(k): _as_fraction(v) for k, v in coeffs.items() if v != 0}
        for k in cleaned:
            if k > cutoff:
                raise ValueError(f"term q^({k}/{grain}) lies past cutoff {cutoff}")
        self.grain = grain
        self.coeffs = cleaned
        self.cutoff = cutoff

    # ----- constructors -------------------------------------------------

    @staticmethod
    def zero(cutoff: Fraction | int = DEFAULT_CUTOFF, grain: int = 1) -> FracSeries:
        return FracSeries(grain, {}, _to_grain_units(cutoff, grain))

    @staticmethod
    def one(cutoff: Fraction | int = DEFAULT_CUTOFF, grain: int = 1) -> FracSeries:
        return FracSeries(grain, {0: Fraction(1)}, _to_grain_units(cutoff, grain))

    @staticmethod
    def from_terms(terms: Mapping[Fraction | int, Fraction | int],
                   cutoff: Fraction | int = DEFAULT_CUTOFF, grain: int | None = None) -> FracSeries:
        exps = [_as_fraction(e) for e in terms]
        g = grain if grain is not None else 1
        for e in exps:
            g = lcm(g, e.denominator)
        coeffs = {int(_as_fraction(e) * g): _as_fraction(c) for e, c in terms.items()}
        return FracSeries(g, coeffs, _to_grain_units(cutoff, g))

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

    def leading_term(self) -> tuple[Fraction, Fraction]:
        """(exponent, coefficient) of the lowest-order term."""
        if not self.coeffs:
            raise ZeroLeadingTerm("zero series has no leading term")
        k = min(self.coeffs)
        return Fraction(k, self.grain), self.coeffs[k]

    def coefficient_at(self, exponent: Fraction | int) -> Fraction:
        e = _as_fraction(exponent)
        if e > self.weight_cutoff:
            raise BeyondCutoff(f"coefficient at {e} requested, cutoff is {self.weight_cutoff}")
        scaled = e * self.grain
        if scaled.denominator != 1:
            return Fraction(0)
        return self.coeffs.get(int(scaled), Fraction(0))

    def terms(self) -> list[tuple[Fraction, Fraction]]:
        """Sorted (exponent, coefficient) pairs."""
        return [(Fraction(k, self.grain), v) for k, v in sorted(self.coeffs.items())]

    def agrees_with(self, other: FracSeries, through: Fraction | int | None = None) -> bool:
        """Coefficient-wise equality through min(weight cutoffs) or `through`."""
        bound = min(self.weight_cutoff, other.weight_cutoff)
        if through is not None:
            t = _as_fraction(through)
            if t > bound:
                raise BeyondCutoff(f"comparison through {t} exceeds common cutoff {bound}")
            bound = t
        a, b = _aligned(self, other)
        kmax = int(bound * a.grain)
        keys = {k for k in a.coeffs if k <= kmax} | {k for k in b.coeffs if k <= kmax}
        return all(a.coeffs.get(k, Fraction(0)) == b.coeffs.get(k, Fraction(0)) for k in keys)

    # ----- grain and cutoff management ----------------------------------

    def rescaled(self, new_grain: int) -> FracSeries:
        """Re-express on a finer grid; new_grain must be a multiple of grain."""
        if new_grain == self.grain:
            return self
        if new_grain % self.grain != 0:
            raise ValueError(f"cannot rescale grain {self.grain} to {new_grain}")
        f = new_grain // self.grain
        return FracSeries(new_grain, {k * f: v for k, v in self.coeffs.items()}, self.cutoff * f)

    def canonical(self) -> FracSeries:
        """Coarsest equivalent grain (divides out common factors of the grid)."""
        g = self.grain
        for k in self.coeffs:
            g = gcd(g, k)
        if g <= 1 or self.grain == 1:
            return self
        # keep the cutoff exactly representable on the coarse grid
        g = gcd(g, self.cutoff)
        if g <= 1:
            return self
        return FracSeries(self.grain // g, {k // g: v for k, v in self.coeffs.items()},
                          self.cutoff // g)

    def truncated(self, cutoff: Fraction | int) -> FracSeries:
        n = _to_grain_units(cutoff, self.grain)
        if n > self.cutoff:
            raise BeyondCutoff(f"cannot extend cutoff {self.weight_cutoff} to {cutoff}")
        return FracSeries(self.grain, {k: v for k, v in self.coeffs.items() if k <= n}, n)

    # ----- ring operations ----------------------------------------------

    def __neg__(self) -> FracSeries:
        return FracSeries(self.grain, {k: -v for k, v in self.coeffs.items()}, self.cutoff)

    def __add__(self, other: FracSeries | int | Fraction) -> FracSeries:
        if isinstance(other, (int, Fraction)):
            other = FracSeries(self.grain, {0: _as_fraction(other)}, self.cutoff)
        a, b = _aligned(self, other)
        n = min(a.cutoff, b.cutoff)
        out = dict(a.coeffs)
        for k, v in b.coeffs.items():
            out[k] = out.get(k, Fraction(0)) + v
        return FracSeries(a.grain, {k: v for k, v in out.items() if k <= n}, n)

    __radd__ = __add__

    def __sub__(self, other: FracSeries | int | Fraction) -> FracSeries:
        return self + (-other if isinstance(other, FracSeries) else -_as_fraction(other))

    def __rsub__(self, other: int | Fraction) -> FracSeries:
        return (-self) + _as_fraction(other)

    def __mul__(self, other: FracSeries | int | Fraction) -> FracSeries:
        if isinstance(other, (int, Fraction)):
            c = _as_fraction(other)
            if c == 0:
                return FracSeries(self.grain, {}, self.cutoff)
            return FracSeries(self.grain, {k: v * c for k, v in self.coeffs.items()}, self.cutoff)
        a, b = _aligned(self, other)
        # worst-case exactness: a term at e needs b exact at e - tail(a) and
        # vice versa, so the product is exact through min of the shifted cutoffs
        n = min(a.cutoff + b.tail_exponent(), b.cutoff + a.tail_exponent())
        out: dict[int, Fraction] = {}
        for ka, va in a.coeffs.items():
            for kb, vb in b.coeffs.items():
                k = ka + kb
                if k <= n:
                    out[k] = out.get(k, Fraction(0)) + va * vb
        return FracSeries(a.grain, out, n)

    __rmul__ = __mul__

    def __pow__(self, exponent: int) -> FracSeries:
        if exponent < 0:
            return self.inverse() ** (-exponent)
        result = FracSeries.one(Fraction(self.cutoff, self.grain), self.grain)
        base = self
        e = exponent
        while e:
            if e & 1:
                result = result * base
            base = base * base if e > 1 else base
            e >>= 1
        return result

    def shift(self, delta: Fraction | int) -> FracSeries:
        """Multiply by q^delta (delta may be negative)."""
        d = _as_fraction(delta)
        g = lcm(self.grain, d.denominator)
        s = self.rescaled(g)
        off = int(d * g)
        return FracSeries(g, {k + off: v for k, v in s.coeffs.items()}, s.cutoff + off)

    def inverse(self) -> FracSeries:
        """Multiplicative inverse; the series must have a nonzero leading term.

        If self is exact through cutoff N with tail t, the inverse is exact
        through N - 2t: the coefficient of the inverse at -t + s consumes
        self's coefficients through t + s.
        """
        if not self.coeffs:
            raise ZeroLeadingTerm("cannot invert the zero series")
        t = min(self.coeffs)
        n_inv = self.cutoff - 2 * t
        lead = self.coeffs[t]
        # normalized unit u = q^(-t) * self / lead = 1 + sum_{k>=1} u_k q^k
        u = {k - t: v / lead for k, v in self.coeffs.items()}
        order = self.cutoff - t
        inv = {0: Fraction(1)}
        for k in range(1, order + 1):
            s = Fraction(0)
            for j, uj in u.items():
                if 0 < j <= k:
                    c = inv.get(k - j)
                    if c:
                        s -= uj * c
            if s:
                inv[k] = s
        out = {k - t: v / lead for k, v in inv.items() if k - t <= n_inv}
        return FracSeries(self.grain, out, n_inv)

    # ----- graded structure ----------------------------------------------

    def extract_weight_class(self, residue: Fraction | int) -> FracSeries:
        """Terms whose exponent is congruent to residue mod 1."""
        r = _as_fraction(residue) % 1
        out = {}
        for k, v in self.coeffs.items():
            if (Fraction(k, self.grain) - r).denominator == 1:
                out[k] = v
        return FracSeries(self.grain, out, self.cutoff)

    # ----- serialization --------------------------------------------------

    def to_dict(self) -> dict:
        """{"grain", "terms": [[k, "num/den"], ...], "cutoff"}, JSON-able."""
        terms = [[k, _frac_str(v)] for k, v in sorted(self.coeffs.items())]
        return {"grain": self.grain, "terms": terms, "cutoff": self.cutoff}

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, FracSeries):
            return NotImplemented
        a, b = self.canonical(), other.canonical()
        return a.grain == b.grain and a.cutoff == b.cutoff and a.coeffs == b.coeffs

    def __hash__(self) -> int:
        c = self.canonical()
        return hash((c.grain, c.cutoff))

    def __repr__(self) -> str:
        parts = [f"{v}*q^({Fraction(k, self.grain)})" for k, v in sorted(self.coeffs.items())[:8]]
        more = " + ..." if len(self.coeffs) > 8 else ""
        body = " + ".join(parts) if parts else "0"
        return f"FracSeries({body}{more}; cutoff={self.weight_cutoff})"


# ----- helpers -----------------------------------------------------------

def _to_grain_units(cutoff: Fraction | int, grain: int) -> int:
    c = _as_fraction(cutoff) * grain
    if c.denominator != 1:
        raise ValueError(f"cutoff {cutoff} is not representable at grain {grain}")
    return int(c)


def _aligned(a: FracSeries, b: FracSeries) -> tuple[FracSeries, FracSeries]:
    g = lcm(a.grain, b.grain)
    return a.rescaled(g), b.rescaled(g)


def _frac_str(v: Fraction) -> str:
    return f"{v.numerator}/{v.denominator}" if v.denominator != 1 else str(v.numerator)


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
            raise NonPositiveExponent(f"factor exponent {s} must be positive")
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
                    grain: int | None = None) -> FracSeries:
    """prod over (e, mult) of prod_{k>=0} (1 - q^(e+k))^(-mult), truncated.

    Each mode contributes a free graded piece at exponents e, e+1, e+2, ...
    with the given multiplicity.  Only modes with e + k <= cutoff matter.
    The towers become euler_product multiplicities in grain units.

    Raises NonPositiveExponent if some mode exponent e is <= 0.
    """
    mode_list = [(_as_fraction(e), mult) for e, mult in modes]
    g = grain if grain is not None else 1
    for e, mult in mode_list:
        if e <= 0:
            raise NonPositiveExponent(f"mode exponent {e} must be positive")
        if mult < 0:
            raise ValueError(f"multiplicity {mult} must be nonnegative")
        g = lcm(g, e.denominator)
    n = _to_grain_units(cutoff, g)
    multiplicities: Counter[int] = Counter()
    for e, mult in mode_list:
        for s in range(int(e * g), n + 1, g):
            multiplicities[s] += mult
    return FracSeries(g, dict(enumerate(euler_product(multiplicities, n))), n)
