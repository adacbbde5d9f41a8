"""Twisted-sector invariants and graded characters.

For a fixed-point-free power g^i of a finite-order lattice isometry:
the conformal weight of the twisted sector, the defect-module dimension
sqrt|L/(1-g^i)L|, the twisted Fock character, twined traces on the
untwisted space, and the exact discrete Fourier transform that splits
the untwisted character into eigencomponents.

Fock characters are eta products, expanded by qseries.grading_product.
"""

from __future__ import annotations

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
from .lattice import SingularMatrix
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


def defect_dimension(g: Isometry, i: int) -> int:
    """sqrt of |L/(1-g^i)L|, L the lattice of g: an integer here.

    The quotient depends only on the cyclic subgroup <g^i>, so its Smith
    form is taken once per subgroup (Isometry.coinvariant_divisors)."""
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


class SectorInvariants:
    """Numeric data of the g^i-twisted sector: eigenspace dimensions for
    eigenvalues zeta_m^{-j} (m = modulus), which fix the conformal weight
    rho, and the defect dimension.

    These depend only on the cyclic subgroup <g^i>, so `power` is a label
    that takes no part in equality or hashing: the sectors of one
    subgroup compare equal and share one twisted character.
    """

    __slots__ = ("power", "defect_dim", "eig_dims", "modulus", "rho")

    def __init__(self, power: int, defect_dim: int, eig_dims: Sequence[int]) -> None:
        self.power = power
        self.defect_dim = defect_dim
        self.eig_dims = dims = tuple(int(d) for d in eig_dims)
        self.modulus = len(dims)
        self.rho = conformal_weight(dims, len(dims))
        if defect_dim < 1:
            raise ValueError("defect dimension must be positive")

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, SectorInvariants):
            return NotImplemented
        return self.defect_dim == other.defect_dim and self.eig_dims == other.eig_dims

    def __hash__(self) -> int:
        return hash((self.defect_dim, self.eig_dims))

    def __repr__(self) -> str:
        return (f"SectorInvariants(power={self.power!r}, defect_dim={self.defect_dim!r}, "
                f"eig_dims={self.eig_dims!r}, modulus={self.modulus!r}, rho={self.rho!r})")


def sector_invariants(g: Isometry, i: int) -> SectorInvariants:
    """Assemble the invariants of the g^i-twisted sector (i != 0 mod order)."""
    m = multiplicative_order(g)
    dims = eigenspace_dims(g.power(i % m), m)
    # a fixed vector is reported as such, before 1 - g^i is found singular
    conformal_weight(dims, m)
    return SectorInvariants(power=i % m, defect_dim=defect_dimension(g, i % m),
                            eig_dims=dims)


# ----- characters ---------------------------------------------------------


@lru_cache(maxsize=None)
def twisted_character(sector: SectorInvariants, cutoff: Rational) -> FracSeries:
    """defect_dim * q^rho * prod_{j=1}^{m-1} prod_{k>=0} (1-q^{j/m+k})^{-dim_j}.

    Cached by sector, that is once per cyclic subgroup <g^i> and cutoff.
    """
    m = sector.modulus
    c = Fraction(cutoff)
    if c < 0:
        raise ValueError("cutoff must be nonnegative")
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


@lru_cache(maxsize=None)
def _fock_product(rank: int, cutoff: int) -> FracSeries:
    """prod_{n>=1} (1-q^n)^{-rank} through weight cutoff, built once."""
    return grading_product([(1, rank)], cutoff=cutoff, grain=1)


def twined_untwisted_character(g: Isometry, j: int, cutoff: Rational,
                               theta: FracSeries) -> FracSeries:
    """Graded trace of g^j on the untwisted space, in the weight grading.

    For g^j = identity this is the full untwisted character
    theta * prod (1-q^n)^{-rank}, theta being the caller's theta series of
    the lattice of g.  For fixed-point-free g^j only the zero lattice
    vector contributes and the trace is prod_n det(I - (g^j) q^n)^{-1},
    expanded through the integer coefficients of det(I - M x).

    Both expansions run at the integral cutoff int(cutoff); only integral
    weights occur, so a series exact through int(cutoff) is restated at
    the requested cutoff.
    """
    c = Fraction(cutoff)
    if c < 0:
        raise ValueError("cutoff must be nonnegative")
    top = int(c)
    gj = g.power(j)
    n_rank = g.lattice.rank
    if gj.is_identity():
        series = theta * _fock_product(n_rank, top)
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
    # a theta exact through less than top caps the series there
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


def eigencomponent_character(g: Isometry, m: int, j: int, cutoff: Rational,
                             theta: FracSeries) -> FracSeries:
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
        piece = weight * twined_untwisted_character(g, e, cutoff, theta)
        total = piece if total is None else total + piece
    assert total is not None
    return Fraction(1, m) * total
