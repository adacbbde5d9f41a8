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
from typing import NamedTuple, Sequence

from .isometry import (
    CycloProfile,
    Isometry,
    cyclotomic_polynomial,
    cyclotomic_profile,
    multiplicative_order,
    power_profile,
)
from .qseries import FracSeries, grading_product


# ----- numeric invariants ------------------------------------------------


def conformal_weight(eig_dims: Sequence[int]) -> Fraction:
    """rho = (1/4m^2) sum_j j(m-j) dim_j over j = 1..m-1, where the modulus
    m is the length of eig_dims."""
    m = len(eig_dims)
    if not m:
        raise ValueError("eigenspace vector must be nonempty")
    if eig_dims[0] != 0:
        raise ValueError("eigenvalue-1 multiplicity must vanish")
    total = sum(j * (m - j) * d for j, d in enumerate(eig_dims))
    return Fraction(total, 4 * m * m)


def defect_dimension(g: Isometry, i: int) -> int:
    """sqrt of |L/(1-g^i)L|, L the lattice of g: an integer here.

    The quotient depends only on the cyclic subgroup <g^i>, so the Smith
    form is taken of its generator h = g^gcd(i, N), N the order of g.
    Then g^i = h^j with j prime to the order M of h, and (1 - h^j)L =
    (1 - h)L, since 1 - h^j = (1 - h)(1 + h + ... + h^(j-1)) and 1 - h =
    (1 - h^j)(1 + h^j + ... + h^(j(k-1))) with jk = 1 mod M."""
    divisors = g.power(gcd(i, multiplicative_order(g))).coinvariant_divisors
    order = 1
    for d in divisors:
        order *= d
    root = isqrt(order)
    if root * root != order:
        raise ArithmeticError(f"|L/(1-g^{i})L| = {order} is not a square")
    return root


class SectorInvariants(NamedTuple):
    """Numeric data of the g^i-twisted sector: the defect dimension and the
    eigenspace dimensions for eigenvalues zeta_m^{-j} (m = modulus), which
    fix the conformal weight rho.  They depend only on the cyclic subgroup
    <g^i>, so the sectors of one subgroup compare equal and share one
    twisted character."""

    defect_dim: int
    eig_dims: tuple[int, ...]

    @property
    def modulus(self) -> int:
        return len(self.eig_dims)

    @property
    def rho(self) -> Fraction:
        return conformal_weight(self.eig_dims)


def sector_invariants(g: Isometry, i: int) -> SectorInvariants:
    """Assemble the invariants of the g^i-twisted sector (i != 0 mod order)."""
    m = multiplicative_order(g)
    dims = power_profile(cyclotomic_profile(g), i).eigenspace_dims(m)
    # a fixed vector is reported as such, before 1 - g^i is found singular
    conformal_weight(dims)
    return SectorInvariants(defect_dimension(g, i % m), dims)


# ----- characters ---------------------------------------------------------


@lru_cache(maxsize=None)
def twisted_character(sector: SectorInvariants, cutoff: Fraction | int) -> FracSeries:
    """defect_dim * q^rho * prod_{j=1}^{m-1} prod_{k>=0} (1-q^{j/m+k})^{-dim_j}.

    Cached by sector, that is once per cyclic subgroup <g^i> and cutoff.
    """
    m = sector.modulus
    c = Fraction(cutoff)
    if c < 0:
        raise ValueError("cutoff must be nonnegative")
    grain = lcm(m, sector.rho.denominator, c.denominator)
    relative = c - sector.rho
    if relative < 0:
        return FracSeries.zero(c, grain)
    # the oscillator grid is (1/m)Z above rho: flooring the relative cutoff
    # to it loses no terms, and the result re-asserts the requested cutoff
    floored = Fraction(int(relative * m), m)
    modes = [(Fraction(j, m), d) for j, d in enumerate(sector.eig_dims) if j and d]
    fock = grading_product(modes, cutoff=floored, grain=m)
    # q^rho times the Fock product, moved from grain m onto the finer grid
    shift, stride, dim = int(sector.rho * grain), grain // m, sector.defect_dim
    return FracSeries(grain, {shift + k * stride: dim * v for k, v in fock.coeffs.items()},
                      int(c * grain))


@lru_cache(maxsize=None)
def _fock_product(rank: int, cutoff: int) -> FracSeries:
    """prod_{n>=1} (1-q^n)^{-rank} through weight cutoff, built once."""
    return grading_product([(1, rank)], cutoff=cutoff, grain=1)


def twined_untwisted_character(g: Isometry, j: int, cutoff: Fraction | int,
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
    n_rank = g.lattice.rank
    profile = power_profile(cyclotomic_profile(g), j)
    fixed = profile.multiplicity(1)
    # g^j is diagonalisable, so all n eigenvalues 1 make it the identity
    if fixed == n_rank:
        series = theta * _fock_product(n_rank, top)
    elif fixed:
        raise ValueError(
            "the power has a nonzero fixed sublattice; its character is "
            "not determined at this level")
    else:
        # det(I - M x) has coefficient c_k at x^k when det(xI - M) = sum c_k x^{n-k}
        det_coeffs = profile.charpoly()
        acc = FracSeries.one(top, grain=1)
        for n in range(1, top + 1):
            factor = {n * k: det_coeffs[k] for k in range(min(n_rank, top // n) + 1)}
            acc = acc * FracSeries(1, factor, top)
        series = acc.inverse()
    # a theta exact through less than top caps the series there
    if c != top and series.weight_cutoff == top:
        d = c.denominator
        series = FracSeries(d, {int(w * d): v for w, v in series.terms()}, c.numerator)
    return series


def ramanujan_sum(q: int, n: int) -> int:
    """Sum of n-th powers of the primitive q-th roots of unity, that is
    the trace of B^n for a Phi_q block B.  B^n has the profile
    power_profile(Phi_q, n), and the roots of each Phi_d sum to minus its
    second-highest coefficient.  The Moebius function is ramanujan_sum(n, 1)."""
    blocks = power_profile(CycloProfile.of({q: 1}), n).factors
    return -sum(e * cyclotomic_polynomial(d)[-2] for d, e in blocks)


def eigencomponent_character(g: Isometry, j: int, cutoff: Fraction | int,
                             theta: FracSeries) -> FracSeries:
    """Character of the zeta_m^j eigencomponent of the untwisted space, m
    the order of g: (1/m) sum_{j'} zeta_m^{-j j'} tr(g^{j'} q^{L0}).

    The twined trace depends on j' only through gcd(j', m), so the sum
    collapses to one Ramanujan sum per divisor of m; the arithmetic stays
    in integers, and exact_div(m) certifies that the component is integral.
    """
    m = multiplicative_order(g)
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
    return total.exact_div(m)
