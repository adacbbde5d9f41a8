"""Twisted-sector invariants and graded characters.

For a fixed-point-free power g^i of a finite-order lattice isometry:
the conformal weight of the twisted sector, the defect-module dimension
sqrt|L/(1-g^i)L|, the twisted Fock character, twined traces on the
untwisted space, and the exact discrete Fourier transform that splits
the untwisted character into eigencomponents.

Fock characters are eta products, expanded by qseries.grading_product.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from math import gcd, isqrt, lcm
from typing import Sequence

from .isometry import (
    Isometry,
    OrderDoesNotDivide,
    cyclotomic_profile,
    eigenspace_dims,
    euler_phi,
    multiplicative_order,
)
from .lattice import (
    DEFAULT_NODE_BUDGET,
    Lattice,
    SingularMatrix,
    theta_series,
)
from .qseries import FracSeries, Rational, grading_product


class FixedPointsPresent(ValueError):
    """The eigenvalue-1 space is nonzero where a fixed-point-free action
    is required."""


class SingularOneMinusG(ArithmeticError):
    """1 - g^i is singular, so the defect quotient is infinite."""


class NotPerfectSquare(ArithmeticError):
    """|L/(1-g^i)L| is not a perfect square; the input data is corrupt."""


class UnsupportedFixedSublattice(ValueError):
    """A twined trace was requested for a power with a nonzero fixed
    sublattice; the lattice contribution is underdetermined there."""


# ----- numeric invariants ------------------------------------------------


def conformal_weight(eig_dims: Sequence[int], m: int) -> Fraction:
    """rho = (1/4m^2) sum_j j(m-j) dim_j over j = 1..m-1."""
    if m < 1 or len(eig_dims) != m:
        raise ValueError("eigenspace vector length must equal the modulus")
    if eig_dims[0] != 0:
        raise FixedPointsPresent("eigenvalue-1 multiplicity must vanish")
    total = sum(j * (m - j) * d for j, d in enumerate(eig_dims))
    return Fraction(total, 4 * m * m)


def defect_dimension(lattice: Lattice, g: Isometry, i: int) -> int:
    """sqrt of |L/(1-g^i)L|, an integer for the lattices treated here.

    The quotient depends only on the cyclic subgroup <g^i>, so its Smith
    form is taken once per subgroup (Isometry.coinvariant_divisors)."""
    if lattice.rank != g.lattice.rank:
        raise ValueError("isometry rank does not match lattice rank")
    try:
        divisors = g.power(i).coinvariant_divisors
    except SingularMatrix as exc:
        raise SingularOneMinusG(f"1 - g^{i} is singular") from exc
    order = 1
    for d in divisors:
        order *= d
    root = isqrt(order)
    if root * root != order:
        raise NotPerfectSquare(f"|L/(1-g^{i})L| = {order} is not a square")
    return root


@dataclass(frozen=True)
class SectorInvariants:
    """Numeric data of the g^i-twisted sector: eigenspace dimensions for
    eigenvalues zeta_m^{-j}, conformal weight, defect dimension."""

    power: int
    modulus: int
    rho: Fraction
    defect_dim: int
    eig_dims: tuple[int, ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "eig_dims", tuple(int(d) for d in self.eig_dims))
        object.__setattr__(self, "rho", Fraction(self.rho))
        if self.rho != conformal_weight(self.eig_dims, self.modulus):
            raise ValueError("rho does not match the eigenspace dimensions")
        if self.defect_dim < 1:
            raise ValueError("defect dimension must be positive")


def sector_invariants(lattice: Lattice, g: Isometry, i: int) -> SectorInvariants:
    """Assemble the invariants of the g^i-twisted sector (i != 0 mod order)."""
    m = multiplicative_order(g)
    dims = eigenspace_dims(g.power(i % m), m)
    rho = conformal_weight(dims, m)
    defect = defect_dimension(lattice, g, i % m)
    return SectorInvariants(power=i % m, modulus=m, rho=rho,
                            defect_dim=defect, eig_dims=dims)


# ----- characters ---------------------------------------------------------


@lru_cache(maxsize=None)
def twisted_character(sector: SectorInvariants, cutoff: Rational) -> FracSeries:
    """defect_dim * q^rho * prod_{j=1}^{m-1} prod_{k>=0} (1-q^{j/m+k})^{-dim_j}."""
    m = sector.modulus
    c = Fraction(cutoff)
    grain = lcm(lcm(m, sector.rho.denominator), c.denominator)
    relative = c - sector.rho
    if relative < 0:
        return FracSeries.zero(c, grain)
    # the oscillator grid is (1/m)Z above rho: flooring the relative cutoff
    # to it loses no terms, and the result re-asserts the requested cutoff
    floored = Fraction(int(relative * m), m)
    modes = [(Fraction(j, m), d) for j, d in enumerate(sector.eig_dims) if j and d]
    fock = grading_product(modes, cutoff=floored, grain=m)
    terms = {sector.rho + e: sector.defect_dim * v for e, v in fock.terms()}
    return FracSeries.from_terms(terms, cutoff=c, grain=grain)


def twined_untwisted_character(lattice: Lattice, g: Isometry, j: int,
                               cutoff: Rational,
                               theta: FracSeries | None = None,
                               budget: int = DEFAULT_NODE_BUDGET) -> FracSeries:
    """Graded trace of g^j on the untwisted space, in the weight grading.

    For g^j = identity this is the full untwisted character
    theta_L(q) * prod (1-q^n)^{-rank}; theta may be supplied (e.g. from a
    modular-form identity) or is enumerated from the lattice.  For
    fixed-point-free g^j only the zero lattice vector contributes and the
    trace is prod_n det(I - (g^j) q^n)^{-1}, expanded through the integer
    coefficients of det(I - M x).

    Both expansions run at the integral cutoff int(cutoff); only integral
    weights occur, so a series exact through int(cutoff) is restated at
    the requested cutoff.
    """
    c = Fraction(cutoff)
    if c < 0:
        raise ValueError("cutoff must be nonnegative")
    top = int(c)
    gj = g.power(j)
    n_rank = lattice.rank
    if gj.is_identity():
        if theta is None:
            theta = theta_series(lattice, top, budget=budget)
        series = theta * grading_product([(1, n_rank)], cutoff=top, grain=1)
    else:
        profile = cyclotomic_profile(gj)
        if profile.multiplicity(1):
            raise UnsupportedFixedSublattice(
                "the power has a nonzero fixed sublattice; its character is "
                "not determined at this level")
        # det(I - M x) has coefficient c_k at x^k when det(xI - M) = sum c_k x^{n-k}
        det_coeffs = gj.charpoly
        acc = FracSeries.one(top, grain=1)
        for n in range(1, top + 1):
            factor = {n * k: det_coeffs[k] for k in range(min(n_rank, top // n) + 1)}
            acc = acc * FracSeries.from_terms(factor, cutoff=top, grain=1)
        series = acc.inverse()
    # a supplied theta exact through less than top caps the series there
    if c != top and series.weight_cutoff == top:
        series = FracSeries.from_terms(dict(series.terms()), cutoff=c,
                                       grain=c.denominator)
    return series


def moebius(n: int) -> int:
    if n < 1:
        raise ValueError("n must be positive")
    result = 1
    x = n
    p = 2
    while p * p <= x:
        if x % p == 0:
            x //= p
            if x % p == 0:
                return 0
            result = -result
        p += 1
    if x > 1:
        result = -result
    return result


def ramanujan_sum(q: int, n: int) -> int:
    """Sum of n-th powers of the primitive q-th roots of unity."""
    g = gcd(n, q)
    return moebius(q // g) * (euler_phi(q) // euler_phi(q // g))


def eigencomponent_character(lattice: Lattice, g: Isometry, m: int, j: int,
                             cutoff: Rational,
                             theta: FracSeries | None = None,
                             budget: int = DEFAULT_NODE_BUDGET) -> FracSeries:
    """Character of the zeta_m^j eigencomponent of the untwisted space:
    (1/m) sum_{j'} zeta_m^{-j j'} tr(g^{j'} q^{L0}).

    The twined trace depends on j' only through gcd(j', m), so the sum
    collapses to one Ramanujan sum per divisor of m; the arithmetic stays
    in integers and exact series.
    """
    if m < 1:
        raise ValueError("modulus must be positive")
    order = multiplicative_order(g)
    if m % order:
        raise OrderDoesNotDivide(f"isometry order {order} does not divide {m}")
    total: FracSeries | None = None
    for e in range(1, m + 1):
        if m % e:
            continue
        weight = ramanujan_sum(m // e, j)
        if weight == 0:
            continue
        trace = twined_untwisted_character(lattice, g, e, cutoff,
                                           theta=theta, budget=budget)
        piece = weight * trace
        total = piece if total is None else total + piece
    assert total is not None
    return Fraction(1, m) * total
