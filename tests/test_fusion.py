"""Quadratic-form combinatorics on Z_n x Z_n and orbifold characters.

Oracles: hand-enumerated subgroup lists for small n, the modular
J-function expansion from orbifoldry.modular (an independent route to
the same coefficients), brute-force maximality witnesses, and the
Fraction-valued isotropic search kept in reference_isotropic.
"""

import random
from fractions import Fraction
from math import gcd

import pytest

from orbifoldry import fusion as fusion_module
from orbifoldry.datafiles import SUPPORTED_P, load_leech, load_sigma
from orbifoldry.fusion import (
    MAX_ISOTROPIC_MODULUS,
    integral_weight_labels,
    maximal_isotropic_subgroups,
    orbifold_character,
    weight_one_dimension_H2,
)
from orbifoldry.isometry import Isometry, negation_isometry
from orbifoldry.lattice import Lattice, enumerate_vectors_by_norm
from orbifoldry.modular import moonshine_j, unimodular_theta_rank24
from orbifoldry.qseries import FracSeries
from orbifoldry.sectors import (
    eigencomponent_character,
    sector_invariants,
    twined_untwisted_character,
    twisted_character,
)
from reference_isotropic import (
    _span as reference_span,
    maximal_isotropic_element_sets,
)

MOONSHINE_HEAD = (1, 0, 196884, 21493760, 864299970)


@pytest.fixture(scope="module")
def leech():
    return load_leech()


@pytest.fixture(scope="module")
def sigmas(leech):
    return {p: load_sigma(p, lattice=leech) for p in SUPPORTED_P}


@pytest.fixture(scope="module")
def theta3():
    return unimodular_theta_rank24(3)


# ----- isotropic subgroups --------------------------------------------------


@pytest.mark.parametrize("p", SUPPORTED_P)
def test_four_maximal_isotropics(p):
    n = 2 * p
    groups = maximal_isotropic_subgroups(n)
    assert len(groups) == 4
    assert all(g.order == n for g in groups)
    expected = [
        {(0, j) for j in range(n)},
        {(i, 0) for i in range(n)},
        {(2 * k % n, p * k % n) for k in range(n)},
        {(p * k % n, 2 * k % n) for k in range(n)},
    ]
    found = [set(g.elements) for g in groups]
    for target in expected:
        assert target in found


def test_two_maximal_isotropics_mod_two():
    groups = maximal_isotropic_subgroups(2)
    assert [g.elements for g in groups] == [((0, 0), (0, 1)), ((0, 0), (1, 0))]


def test_three_maximal_isotropics_mod_four():
    # axes plus the doubled diagonal 2Z_4 x 2Z_4, each of order 4
    groups = maximal_isotropic_subgroups(4)
    assert len(groups) == 3
    assert {(0, 0), (0, 2), (2, 0), (2, 2)} in [set(g.elements) for g in groups]


def test_maximality_witnessed():
    for n in (2, 4, 6, 10):
        null = [(i, j) for i in range(n) for j in range(n) if i * j % n == 0]
        for group in maximal_isotropic_subgroups(n):
            members = set(group.elements)
            for extra in null:
                if extra in members:
                    continue
                # the enlarged span must contain a non-null element
                grown = set(members)
                frontier = list(grown)
                while frontier:
                    x, y = frontier.pop()
                    s = ((x + extra[0]) % n, (y + extra[1]) % n)
                    if s not in grown:
                        grown.add(s)
                        frontier.append(s)
                assert any(i * j % n for i, j in grown)


def test_integer_search_matches_fraction_reference():
    for n in range(1, MAX_ISOTROPIC_MODULUS + 1):
        groups = maximal_isotropic_subgroups(n)
        found = [frozenset(g.elements) for g in groups]
        assert len(set(found)) == len(found)
        assert set(found) == maximal_isotropic_element_sets(n), n
        for g, members in zip(groups, found):
            assert g.elements == tuple(sorted(members)), (n, g)
            assert reference_span(g.generators, n) == members, (n, g)


def test_isotropic_search_skips_pairs_inside_found_spans(monkeypatch):
    # one breadth-first span per null pair with vanishing pairing made
    # 2,359 span searches at n = 26 for 4 maximal subgroups
    calls = []
    span = fusion_module._span

    def counted(gens, n):
        calls.append(gens)
        return span(gens, n)

    monkeypatch.setattr(fusion_module, "_span", counted)
    found = maximal_isotropic_subgroups(26)
    assert {frozenset(g.elements) for g in found} == \
        maximal_isotropic_element_sets(26)
    assert len(calls) <= 10


def test_enumeration_capped():
    with pytest.raises(ValueError,
                       match="exhaustive enumeration is capped at n = 30"):
        maximal_isotropic_subgroups(31)


def test_modulus_must_be_positive():
    for n in (0, -1):
        with pytest.raises(ValueError, match="modulus must be positive"):
            maximal_isotropic_subgroups(n)
        with pytest.raises(ValueError, match="modulus must be positive"):
            integral_weight_labels(n, 1)


# ----- integral-weight labels -----------------------------------------------


@pytest.mark.parametrize("p", SUPPORTED_P)
def test_integral_weight_labels_three_cases(p):
    for i in range(1, 2 * p):
        labels = integral_weight_labels(2 * p, i)
        if i == p:
            assert labels == {j for j in range(2 * p) if j % 2 == 0}
        elif i % 2 == 0:
            assert labels == {0, p}
        else:
            assert labels == {0}


def test_integral_weight_labels_coprime_case():
    rng = random.Random(908)
    for _ in range(50):
        n = rng.randint(2, 30)
        units = [i for i in range(1, n) if gcd(i, n) == 1]
        i = rng.choice(units)
        assert integral_weight_labels(n, i) == {0}


# ----- orbifold characters --------------------------------------------------


@pytest.mark.parametrize("p", SUPPORTED_P)
def test_orbifold_character_head(leech, sigmas, theta3, p):
    tau = sigmas[p].power(2)
    ch = orbifold_character(tau, Fraction(3), theta3)
    assert tuple(ch.coefficient_at(w) for w in range(4)) == MOONSHINE_HEAD[:4]
    for _, value in ch.terms():
        assert value.denominator == 1 and value >= 0


def test_orbifold_matches_modular_j(leech, sigmas):
    """Shifting by the central charge offset reproduces the J-expansion."""
    theta5 = unimodular_theta_rank24(5)
    tau = sigmas[3].power(2)
    ch = orbifold_character(tau, Fraction(5), theta5)
    assert tuple(ch.coefficient_at(w) for w in range(5)) == MOONSHINE_HEAD
    assert ch.shift(-1) == moonshine_j(4)


def test_orbifold_character_at_a_half_integral_cutoff(leech, sigmas, theta3):
    for g in (sigmas[3].power(2), negation_isometry(leech)):
        ch = orbifold_character(g, Fraction(5, 2), theta3)
        assert ch.weight_cutoff == Fraction(5, 2)
        assert [ch.coefficient_at(Fraction(k, 2)) for k in range(6)] == \
            [1, 0, 0, 0, 196884, 0]


def test_z2_and_zp_constructions_agree(leech, sigmas):
    theta5 = unimodular_theta_rank24(5)
    z2 = orbifold_character(negation_isometry(leech), Fraction(5), theta5)
    zp = orbifold_character(sigmas[3].power(2), Fraction(5), theta5)
    assert z2 == zp
    assert z2.shift(-1) == moonshine_j(4)


def test_shipped_p_power_is_negation(leech, sigmas):
    for p, g in sigmas.items():
        assert g.power(p).matrix == negation_isometry(leech).matrix


def test_orbifold_not_separable_for_full_order(leech, sigmas, theta3):
    with pytest.raises(ValueError,
                       match=r"^sector 2 has integral-weight labels \[0, 3\] "
                             r"at conformal weight 4/3, within the cutoff$"):
        orbifold_character(sigmas[3], Fraction(2), theta3)


def test_orbifold_weight_hypothesis(theta3):
    # rank-2 lattice 2*I: the involution sector has weight 1/8, not in (1/2)Z
    small = Lattice(((2, 0), (0, 2)))
    neg = negation_isometry(small)
    with pytest.raises(ValueError,
                       match=r"^sector 1 has conformal weight 1/8, "):
        orbifold_character(neg, Fraction(2), FracSeries(
            2, enumerate_vectors_by_norm(small, 4), 4))


def test_sectors_of_one_cyclic_subgroup_compare_equal(leech, sigmas):
    # sigma^i and sigma^j with gcd(i, 26) = gcd(j, 26) generate one
    # subgroup, so their sectors agree in everything but the label
    g = sigmas[13]
    first, third, second = (sector_invariants(g, i) for i in (1, 3, 2))
    assert first == third and hash(first) == hash(third)
    assert first != second
    assert twisted_character(first, Fraction(2)) is \
        twisted_character(third, Fraction(2))
    assert twisted_character(first, Fraction(2)) == \
        twisted_character.__wrapped__(third, Fraction(2))


def test_axis_subgroup_resums_untwisted(leech, sigmas):
    """Summing eigencomponents over the {(0, j)} subgroup recovers the
    untwisted character."""
    theta2 = unimodular_theta_rank24(2)
    neg = negation_isometry(leech)
    groups = maximal_isotropic_subgroups(2)
    axis = next(g for g in groups if set(g.elements) == {(0, 0), (0, 1)})
    total = None
    for _, j in axis.elements:
        piece = eigencomponent_character(neg, j, Fraction(2), theta2)
        total = piece if total is None else total + piece
    untwisted = twined_untwisted_character(neg, 0, Fraction(2), theta2)
    assert total == untwisted


# ----- weight-one dimension of the order-2p extension ------------------------


@pytest.mark.parametrize("p", SUPPORTED_P)
def test_weight_one_dimension(leech, sigmas, theta3, p):
    assert weight_one_dimension_H2(sigmas[p], theta3) == 24


@pytest.mark.parametrize("p", SUPPORTED_P)
def test_weight_one_by_sector_reads_the_odd_sectors(sigmas, p):
    per = {}
    for i in range(1, 2 * p, 2):
        if i == p:
            continue
        ch = twisted_character(sector_invariants(sigmas[p], i), Fraction(1))
        per[i] = ch.extract_weight_class(0).coefficient_at(1)
    assert per == {i: 24 // (p - 1) for i in range(1, 2 * p, 2) if i != p}
    assert all(type(c) is int for c in per.values())


@pytest.mark.parametrize("p", SUPPORTED_P)
def test_moonshine_module_has_no_weight_one_vector(sigmas, p):
    # the Z_p orbifold by tau = sigma^2 is the Moonshine module
    theta = unimodular_theta_rank24(1)
    assert weight_one_dimension_H2(sigmas[p].power(2), theta) == 0


def test_mixed_label_sector_is_refused_from_its_weight_on(sigmas):
    # sigma_3 has order 6; its even sectors, of labels {0, 3}, start at
    # weight 4/3 and sector 3 at 3/2, so they add nothing below 4/3
    theta = unimodular_theta_rank24(2)
    with pytest.raises(ValueError,
                       match=r"^sector 2 has integral-weight labels \[0, 3\] "
                             r"at conformal weight 4/3"):
        orbifold_character(sigmas[3], Fraction(4, 3), theta)
    for c in (Fraction(5, 4), 1):
        ch = orbifold_character(sigmas[3], c, theta)
        assert ch.weight_cutoff == c
        assert ch.coefficient_at(1) == 24


def test_weight_one_certificate_failure():
    # order-6 rotation on A2 + A2: every twisted sector sits below weight
    # one, at a weight off the 1/6 grid, and sector 1 is read first
    gram = ((2, 1, 0, 0), (1, 2, 0, 0), (0, 0, 2, 1), (0, 0, 1, 2))
    rot = ((0, -1, 0, 0), (1, 1, 0, 0), (0, 0, 0, -1), (0, 0, 1, 1))
    small = Lattice(gram)
    g = Isometry(small, rot)
    with pytest.raises(ValueError,
                       match="sector 1 has conformal weight 5/36, "
                             "not a multiple of 1/6"):
        weight_one_dimension_H2(g, FracSeries(
            2, enumerate_vectors_by_norm(small, 2), 2))
