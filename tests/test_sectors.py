"""Twisted-sector invariants and exact graded characters.

Oracles used here, independent of the series arithmetic under test:
an unbounded-knapsack count of oscillator multisets, matrix traces,
Smith invariants of explicit integer matrices, and frozen integer
tables for the classical graded dimensions.
"""

import random
import re
from fractions import Fraction
from math import isqrt, prod

import pytest

from direct_products import direct_grading_product
from orbifoldry.datafiles import SUPPORTED_P, load_leech, load_sigma
from orbifoldry.isometry import (
    Isometry,
    multiplicative_order,
    negation_isometry,
)
from orbifoldry.lattice import (
    Lattice,
    enumerate_vectors_by_norm,
    quotient_invariants,
)
from orbifoldry.modular import unimodular_theta_rank24
from orbifoldry.qseries import FracSeries
from orbifoldry.sectors import (
    SectorInvariants,
    conformal_weight,
    defect_dimension,
    eigencomponent_character,
    ramanujan_sum,
    sector_invariants,
    twined_untwisted_character,
    twisted_character,
)
from tools_search import search

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
    assert conformal_weight((0, 24)) == Fraction(3, 2)
    assert conformal_weight((0, 12, 12)) == Fraction(4, 3)
    assert conformal_weight((0, 12, 0, 0, 0, 12)) == Fraction(5, 6)
    with pytest.raises(ValueError):
        conformal_weight(())
    with pytest.raises(ValueError, match="eigenvalue-1 multiplicity must vanish"):
        conformal_weight((1, 23))


@pytest.mark.parametrize("p", SUPPORTED_P)
def test_sector_invariants_three_cases(leech, sigmas, p):
    """Weight and defect of every nontrivial power, by residue class."""
    g = sigmas[p]
    for i in range(1, 2 * p):
        inv = sector_invariants(g, i)
        assert inv.modulus == 2 * p
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
    with pytest.raises(ValueError, match="eigenvalue-1 multiplicity must vanish"):
        sector_invariants(sigmas[3], 0)
    with pytest.raises(ValueError, match="eigenvalue-1 multiplicity must vanish"):
        sector_invariants(sigmas[3], 6)


def test_sector_invariants_validation():
    good = SectorInvariants(defect_dim=4096, eig_dims=(0, 24))
    assert good.modulus == 2 and good.rho == Fraction(3, 2)
    # the weight is defined only for a fixed-point-free sector
    with pytest.raises(ValueError, match="eigenvalue-1 multiplicity must vanish"):
        SectorInvariants(defect_dim=1, eig_dims=(1, 23)).rho


def test_sectors_differing_only_in_power_share_a_character(sigmas):
    # sigma and sigma^5 generate one subgroup of the order-6 group
    first, fifth = (sector_invariants(sigmas[3], i) for i in (1, 5))
    assert first == fifth and hash(first) == hash(fifth)
    assert first != SectorInvariants(defect_dim=2, eig_dims=first.eig_dims)
    twisted_character.cache_clear()
    assert twisted_character(first, Fraction(3)) is twisted_character(fifth, Fraction(3))
    assert twisted_character.cache_info().misses == 1


def test_defect_dimension_direct(leech, sigmas):
    assert defect_dimension(negation_isometry(leech), 1) == 4096
    assert defect_dimension(sigmas[3], 1) == 1
    assert defect_dimension(sigmas[3], 2) == 729


def test_defect_dimension_matches_the_smith_form_of_every_power():
    # defect_dimension reads the generator g^gcd(i, N) of <g^i>; the
    # reference takes the Smith form of 1 - g^i itself, for signed
    # permutations of (2Z)^n, whose 1 - g^i is often singular or of
    # non-square order
    rng = random.Random(2609)
    for n in range(2, 9):
        lattice = Lattice([[2 * int(r == c) for c in range(n)] for r in range(n)])
        for _ in range(6):
            perm, signs = rng.sample(range(n), n), [rng.choice((1, -1)) for _ in range(n)]
            m = [[signs[c] * int(perm[c] == r) for c in range(n)] for r in range(n)]
            g, power = Isometry(lattice, m), m
            for i in range(1, multiplicative_order(g) + 1):
                one_minus = [[int(r == c) - power[r][c] for c in range(n)]
                             for r in range(n)]
                try:
                    size = prod(quotient_invariants(lattice, one_minus))
                except ArithmeticError as exc:
                    assert str(exc) == "matrix has determinant zero"
                    with pytest.raises(ArithmeticError,
                                       match="matrix has determinant zero"):
                        defect_dimension(g, i)
                else:
                    if isqrt(size) ** 2 == size:
                        assert defect_dimension(g, i) == isqrt(size), (m, i)
                    else:
                        with pytest.raises(ArithmeticError, match=re.escape(
                                f"|L/(1-g^{i})L| = {size} is not a square")):
                            defect_dimension(g, i)
                power = [[sum(a * b for a, b in zip(row, col)) for col in zip(*m)]
                         for row in power]


def test_defect_dimension_rejects_odd_and_infinite_quotients():
    # -1 on the rank-one lattice of norm 4: |L/2L| = 2 is not a square,
    # and g^0 = 1 makes 1 - g^0 = 0
    minus_one = negation_isometry(Lattice(((4,),)))
    with pytest.raises(ArithmeticError,
                       match=re.escape("|L/(1-g^1)L| = 2 is not a square")):
        defect_dimension(minus_one, 1)
    with pytest.raises(ArithmeticError, match="matrix has determinant zero"):
        defect_dimension(minus_one, 0)


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


def test_twisted_character_at_its_leading_weight(sigmas):
    # a cutoff equal to rho keeps the one term defect_dim q^rho
    sector = sector_invariants(sigmas[3], 2)
    assert (sector.rho, sector.defect_dim) == (Fraction(4, 3), 729)
    ch = twisted_character(sector, sector.rho)
    assert ch.terms() == [(Fraction(4, 3), 729)]
    assert ch.weight_cutoff == Fraction(4, 3)


# ----- twined and plain untwisted characters --------------------------------


def test_twined_character_at_cutoff_zero(leech, sigmas, theta2):
    # the fixed-point-free and the identity route both stop at q^0
    for g, j in ((sigmas[3], 1), (negation_isometry(leech), 0)):
        ch = twined_untwisted_character(g, j, 0, theta2)
        assert ch.terms() == [(0, 1)] and ch.weight_cutoff == 0, j


def test_untwisted_character(leech, theta4):
    neg = negation_isometry(leech)
    ch = twined_untwisted_character(neg, 0, Fraction(4), theta4)
    assert tuple(ch.coefficient_at(w) for w in range(5)) == UNTWISTED


def test_untwisted_character_dual_theta_routes(leech):
    """Enumerated theta and the modular-identity theta must agree."""
    neg = negation_isometry(leech)
    # at grain 2 the term q^(norm/2) sits at key norm
    theta = FracSeries(2, enumerate_vectors_by_norm(leech, 4), 4)
    enumerated = twined_untwisted_character(neg, 0, Fraction(2), theta)
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
    gen_a, _ = search.load_generators(leech)
    with pytest.raises(ValueError,
                       match="the power has a nonzero fixed sublattice"):
        twined_untwisted_character(gen_a, 1, Fraction(2), theta2)


# ----- eigencomponents ------------------------------------------------------


def test_moebius_and_ramanujan():
    for q in range(1, 13):
        assert ramanujan_sum(q, 0) == sum(
            1 for a in range(1, q + 1) if __import__("math").gcd(a, q) == 1)
    assert tuple(ramanujan_sum(q, 1) for q in range(1, 13)) == MOEBIUS_TABLE


def test_ramanujan_sum_matches_orthogonality_recursion():
    # the q-th roots of unity are the primitive d-th roots over d | q, and
    # their n-th powers sum to q when q | n and to 0 otherwise
    for n in range(61):
        exact: dict[int, int] = {}
        for q in range(1, 31):
            exact[q] = q * (n % q == 0) - sum(
                exact[d] for d in range(1, q) if q % d == 0)
            assert ramanujan_sum(q, n) == exact[q], (q, n)


def test_sign_split_under_negation(leech, theta4):
    neg = negation_isometry(leech)
    even = eigencomponent_character(neg, 0, Fraction(4), theta4)
    odd = eigencomponent_character(neg, 1, Fraction(4), theta4)
    assert tuple(even.coefficient_at(w) for w in range(5)) == EVEN_PART
    assert tuple(odd.coefficient_at(w) for w in range(5)) == ODD_PART
    total = twined_untwisted_character(neg, 0, Fraction(4), theta4)
    assert even + odd == total


def test_eigencomponents_complete_and_nonnegative(leech, sigmas):
    theta3 = unimodular_theta_rank24(3)
    g = sigmas[3]
    comps = [eigencomponent_character(g, j, Fraction(3), theta3)
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
    comps = [eigencomponent_character(g, j, Fraction(2), theta2)
             for j in range(2 * p)]
    total = comps[0]
    for piece in comps[1:]:
        total = total + piece
    assert total == twined_untwisted_character(g, 0, Fraction(2), theta2)
    for piece in comps:
        for _, value in piece.terms():
            assert value.denominator == 1 and value >= 0


def test_eigencomponent_of_the_identity_is_the_untwisted_character(leech,
                                                                   theta4):
    # m = 1: the one component is theta * prod (1 - q^n)^-24
    identity = Isometry(leech, [[int(r == c) for c in range(24)]
                                for r in range(24)])
    ch = eigencomponent_character(identity, 0, Fraction(4), theta4)
    assert ch == theta4 * direct_grading_product([(1, 24)], 4)
    assert tuple(ch.coefficient_at(w) for w in range(5)) == UNTWISTED
