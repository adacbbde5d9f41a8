"""Twisted-sector invariants and exact graded characters.

Oracles used here, independent of the series arithmetic under test:
an unbounded-knapsack count of oscillator multisets, matrix traces,
Smith invariants of explicit integer matrices, and frozen integer
tables for the classical graded dimensions.
"""

from fractions import Fraction

import pytest

from direct_products import direct_grading_product
from orbifoldry.datafiles import SUPPORTED_P, load_generators, load_leech, load_sigma
from orbifoldry.isometry import OrderDoesNotDivide, negation_isometry
from orbifoldry.lattice import quotient_invariants, theta_series
from orbifoldry.modular import unimodular_theta_rank24
from orbifoldry.sectors import (
    FixedPointsPresent,
    SectorInvariants,
    UnsupportedFixedSublattice,
    conformal_weight,
    defect_dimension,
    eigencomponent_character,
    moebius,
    ramanujan_sum,
    sector_invariants,
    twined_untwisted_character,
    twisted_character,
)

# Graded dimensions of the untwisted space and its sign split under -1.
# Regression anchors; the same numbers fall out of the modular-function
# route exercised in test_modular.
UNTWISTED = (1, 24, 196884, 21493760, 864299970)
EVEN_PART = (1, 0, 98580, 10745856, 432155586)
ODD_PART = (0, 24, 98304, 10747904, 432144384)

# prod_n (1+q^n)^{-24}: weight 2 is 276 = 300 - 24 (the symmetric square
# of the 24 degree-one oscillators contributes +300, the 24 degree-two
# oscillators flip sign, and the 196560 norm-4 exponentials pair off).
TWINED_NEGATION = (1, -24, 276, -2048, 11202)

MOEBIUS_TABLE = (1, -1, -1, 0, -1, 1, -1, 0, 0, 1, -1, 0)


@pytest.fixture(scope="module")
def leech():
    return load_leech()


@pytest.fixture(scope="module")
def sigmas(leech):
    return {p: load_sigma(p, lattice=leech) for p in SUPPORTED_P}


@pytest.fixture(scope="module")
def theta2():
    return unimodular_theta_rank24(2)


@pytest.fixture(scope="module")
def theta4():
    return unimodular_theta_rank24(4)


def mode_partition_counts(modes, grain, units):
    """Coefficients, in grain units, of prod over (e, c) of
    prod_{k>=0} (1 - q^{e+k})^{-c}: brute-force unbounded knapsack,
    one color at a time."""
    colors = [0] * (units + 1)
    for exponent, mult in modes:
        base = Fraction(exponent) * grain
        assert base.denominator == 1 and base > 0
        u = int(base)
        while u <= units:
            colors[u] += mult
            u += grain
    counts = [0] * (units + 1)
    counts[0] = 1
    for u in range(1, units + 1):
        for _ in range(colors[u]):
            for total in range(u, units + 1):
                counts[total] += counts[total - u]
    return counts


# ----- conformal weights and defects ---------------------------------------


def test_conformal_weight_examples():
    assert conformal_weight((0, 24), 2) == Fraction(3, 2)
    assert conformal_weight((0, 12, 12), 3) == Fraction(4, 3)
    assert conformal_weight((0, 12, 0, 0, 0, 12), 6) == Fraction(5, 6)
    with pytest.raises(ValueError):
        conformal_weight((0, 24), 3)
    with pytest.raises(FixedPointsPresent):
        conformal_weight((1, 23), 2)


@pytest.mark.parametrize("p", SUPPORTED_P)
def test_sector_invariants_three_cases(leech, sigmas, p):
    """Weight and defect of every nontrivial power, by residue class."""
    g = sigmas[p]
    for i in range(1, 2 * p):
        inv = sector_invariants(g, i)
        assert inv.modulus == 2 * p and inv.power == i
        if i == p:
            assert inv.rho == Fraction(3, 2)
            assert inv.defect_dim == 2**12
            assert inv.eig_dims == (0,) * p + (24,) + (0,) * (p - 1)
        elif i % 2 == 0:
            assert inv.rho == Fraction(p + 1, p)
            assert inv.defect_dim == p ** (12 // (p - 1))
        else:
            assert inv.rho == Fraction(2 * p - 1, 2 * p)
            assert inv.defect_dim == 1
        assert sum(inv.eig_dims) == 24 and inv.eig_dims[0] == 0


@pytest.mark.parametrize("p", SUPPORTED_P)
def test_quotient_invariants_of_sector_maps(leech, sigmas, p):
    """Smith invariants behind the defects: (1 - g^2) and 2*identity."""
    g2 = sigmas[p].power(2)
    one_minus = tuple(
        tuple((i == j) - g2.matrix[i][j] for j in range(24)) for i in range(24)
    )
    assert tuple(quotient_invariants(leech, one_minus)) == (p,) * (24 // (p - 1))
    doubling = tuple(tuple(2 * (i == j) for j in range(24)) for i in range(24))
    assert tuple(quotient_invariants(leech, doubling)) == (2,) * 24


@pytest.mark.parametrize("p", SUPPORTED_P)
def test_lower_modulus_consistency(sigmas, leech, p):
    """The order-p power seen on its own terms gives the same sector data."""
    via_even_power = sector_invariants(sigmas[p], 2)
    direct = sector_invariants(sigmas[p].power(2), 1)
    assert direct.modulus == p
    assert direct.rho == via_even_power.rho == Fraction(p + 1, p)
    assert direct.defect_dim == via_even_power.defect_dim


def test_identity_power_rejected(leech, sigmas):
    with pytest.raises(FixedPointsPresent):
        sector_invariants(sigmas[3], 0)
    with pytest.raises(FixedPointsPresent):
        sector_invariants(sigmas[3], 6)


def test_sector_invariants_validation():
    good = SectorInvariants(power=1, defect_dim=4096, eig_dims=(0, 24))
    assert good.modulus == 2 and good.rho == Fraction(3, 2)
    with pytest.raises(ValueError):
        SectorInvariants(power=1, defect_dim=0, eig_dims=(0, 24))
    with pytest.raises(FixedPointsPresent):
        SectorInvariants(power=1, defect_dim=1, eig_dims=(1, 23))


def test_sectors_differing_only_in_power_share_a_character():
    dims = (0, 12, 0, 0, 0, 12)
    first, fifth = (SectorInvariants(power=i, defect_dim=1, eig_dims=dims)
                    for i in (1, 5))
    assert first == fifth and hash(first) == hash(fifth)
    assert first != SectorInvariants(power=1, defect_dim=2, eig_dims=dims)
    twisted_character.cache_clear()
    assert twisted_character(first, Fraction(3)) is twisted_character(fifth, Fraction(3))
    assert twisted_character.cache_info().misses == 1


def test_defect_dimension_direct(leech, sigmas):
    assert defect_dimension(negation_isometry(leech), 1) == 4096
    assert defect_dimension(sigmas[3], 1) == 1
    assert defect_dimension(sigmas[3], 2) == 729


# ----- twisted characters ---------------------------------------------------


def test_twisted_character_involution_sector(leech):
    sector = sector_invariants(negation_isometry(leech), 1)
    ch = twisted_character(sector, Fraction(4))
    assert ch.leading_term() == (Fraction(3, 2), 4096)
    assert ch.coefficient_at(2) == 4096 * 24 == 98304
    counts = mode_partition_counts([(Fraction(1, 2), 24)], 2, 5)
    for u in range(6):
        w = Fraction(3, 2) + Fraction(u, 2)
        assert ch.coefficient_at(w) == 4096 * counts[u]


def test_twisted_character_oracle_sweep(leech, sigmas):
    sector = sector_invariants(sigmas[3], 1)
    ch = twisted_character(sector, Fraction(3))
    modes = [(Fraction(j, 6), d) for j, d in enumerate(sector.eig_dims) if d]
    counts = mode_partition_counts(modes, 6, 13)
    for u in range(14):
        w = Fraction(5, 6) + Fraction(u, 6)
        assert ch.coefficient_at(w) == counts[u]


@pytest.mark.parametrize("p", SUPPORTED_P)
def test_twisted_character_leading_terms(leech, sigmas, p):
    odd = twisted_character(sector_invariants(sigmas[p], 1), Fraction(2))
    assert odd.leading_term() == (Fraction(2 * p - 1, 2 * p), 1)
    even = twisted_character(sector_invariants(sigmas[p], 2), Fraction(2))
    assert even.leading_term() == (Fraction(p + 1, p), p ** (12 // (p - 1)))


@pytest.mark.parametrize("p", SUPPORTED_P)
def test_twisted_character_matches_direct_product(leech, sigmas, p):
    """Every sector's character at cutoff 4 against the factor-by-factor
    product; rho lies on the 1/m grid, so no flooring is involved."""
    for i in range(1, 2 * p):
        sector = sector_invariants(sigmas[p], i)
        m = sector.modulus
        modes = [(Fraction(j, m), d) for j, d in enumerate(sector.eig_dims) if j and d]
        fock = direct_grading_product(modes, 4 - sector.rho, grain=m)
        expected = fock.shift(sector.rho) * sector.defect_dim
        assert twisted_character(sector, Fraction(4)) == expected, i


def test_twisted_character_below_leading_weight(leech):
    sector = sector_invariants(negation_isometry(leech), 1)
    ch = twisted_character(sector, Fraction(1))
    assert ch.terms() == []
    assert ch.coefficient_at(1) == 0
    assert twisted_character(sector, Fraction(0)).terms() == []


def test_twisted_character_rejects_negative_cutoff(leech):
    sector = sector_invariants(negation_isometry(leech), 1)
    with pytest.raises(ValueError, match="cutoff must be nonnegative"):
        twisted_character(sector, Fraction(-1))


# ----- twined and plain untwisted characters --------------------------------


def test_untwisted_character(leech, theta4):
    neg = negation_isometry(leech)
    ch = twined_untwisted_character(neg, 0, Fraction(4), theta4)
    assert tuple(ch.coefficient_at(w) for w in range(5)) == UNTWISTED


def test_untwisted_character_dual_theta_routes(leech):
    """Enumerated theta and the modular-identity theta must agree."""
    neg = negation_isometry(leech)
    enumerated = twined_untwisted_character(neg, 0, Fraction(2),
                                            theta_series(leech, 2))
    modular = twined_untwisted_character(neg, 0, Fraction(2),
                                         unimodular_theta_rank24(2))
    assert enumerated == modular
    assert enumerated.coefficient_at(2) == 196884


def test_twined_negation_series(leech, theta4):
    neg = negation_isometry(leech)
    tw = twined_untwisted_character(neg, 1, Fraction(4), theta4)
    assert tuple(tw.coefficient_at(w) for w in range(5)) == TWINED_NEGATION


@pytest.mark.parametrize("p", SUPPORTED_P)
def test_twined_weight_one_is_trace(leech, sigmas, theta2, p):
    g = sigmas[p]
    for j in (1, 2):
        tw = twined_untwisted_character(g, j, Fraction(2), theta2)
        mat = g.power(j).matrix
        assert tw.coefficient_at(0) == 1
        assert tw.coefficient_at(1) == sum(mat[i][i] for i in range(24))


def test_twined_rejects_fixed_sublattice(leech, theta2):
    gen_a, _ = load_generators(lattice=leech)
    with pytest.raises(UnsupportedFixedSublattice):
        twined_untwisted_character(gen_a, 1, Fraction(2), theta2)


# ----- eigencomponents ------------------------------------------------------


def test_moebius_and_ramanujan():
    assert tuple(moebius(n) for n in range(1, 13)) == MOEBIUS_TABLE
    for q in range(1, 13):
        assert ramanujan_sum(q, 0) == sum(
            1 for a in range(1, q + 1) if __import__("math").gcd(a, q) == 1)
        assert ramanujan_sum(q, 1) == moebius(q)
    with pytest.raises(ValueError):
        moebius(0)


def test_sign_split_under_negation(leech, theta4):
    neg = negation_isometry(leech)
    even = eigencomponent_character(neg, 2, 0, Fraction(4), theta4)
    odd = eigencomponent_character(neg, 2, 1, Fraction(4), theta4)
    assert tuple(even.coefficient_at(w) for w in range(5)) == EVEN_PART
    assert tuple(odd.coefficient_at(w) for w in range(5)) == ODD_PART
    total = twined_untwisted_character(neg, 0, Fraction(4), theta4)
    assert even + odd == total


def test_eigencomponents_complete_and_nonnegative(leech, sigmas):
    theta3 = unimodular_theta_rank24(3)
    g = sigmas[3]
    comps = [eigencomponent_character(g, 6, j, Fraction(3), theta3)
             for j in range(6)]
    assert comps[0].coefficient_at(1) == 0
    total = comps[0]
    for piece in comps[1:]:
        total = total + piece
    untwisted = twined_untwisted_character(g, 0, Fraction(3), theta3)
    assert total == untwisted
    for piece in comps:
        for exponent, value in piece.terms():
            assert value.denominator == 1 and value >= 0, exponent


@pytest.mark.slow
@pytest.mark.parametrize("p", [5, 7, 13])
def test_eigencomponents_complete_larger_orders(leech, sigmas, theta2, p):
    g = sigmas[p]
    m = 2 * p
    comps = [eigencomponent_character(g, m, j, Fraction(2), theta2)
             for j in range(m)]
    total = comps[0]
    for piece in comps[1:]:
        total = total + piece
    assert total == twined_untwisted_character(g, 0, Fraction(2), theta2)
    for piece in comps:
        for _, value in piece.terms():
            assert value.denominator == 1 and value >= 0


def test_eigencomponent_wrong_modulus(leech, sigmas, theta2):
    with pytest.raises(OrderDoesNotDivide):
        eigencomponent_character(sigmas[3], 5, 0, Fraction(2), theta2)
    with pytest.raises(ValueError):
        eigencomponent_character(sigmas[3], 0, 0, Fraction(2), theta2)
