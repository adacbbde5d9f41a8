"""Quadratic-form combinatorics on Z_n x Z_n and orbifold characters.

Oracles: hand-enumerated subgroup lists for small n, the modular
J-function expansion from orbifoldry.modular (an independent route to
the same coefficients), brute-force maximality witnesses, and the
Fraction-valued isotropic search kept in reference_isotropic.
"""

import random
from fractions import Fraction

import pytest

from orbifoldry import fusion as fusion_module
from orbifoldry.datafiles import SUPPORTED_P, load_leech, load_sigma
from orbifoldry.fusion import (
    MAX_ISOTROPIC_MODULUS,
    FusionLabel,
    IsotropicSubgroup,
    MismatchedModulus,
    ModulusTooLarge,
    NotSeparable,
    QuadSpace,
    WeightHypothesisFailed,
    bilinear_form,
    fusion_product,
    integral_weight_labels,
    maximal_isotropic_subgroups,
    orbifold_character,
    q_delta,
    weight_one_dimension_H2,
)
from orbifoldry.isometry import negation_isometry, verify_isometry
from orbifoldry.lattice import Lattice
from orbifoldry.modular import moonshine_j, unimodular_theta_rank24
from orbifoldry.sectors import eigencomponent_character, twined_untwisted_character
from reference_isotropic import maximal_isotropic_element_sets

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


# ----- the quadratic space --------------------------------------------------


def test_q_delta_examples():
    assert q_delta(FusionLabel(2, 3, 6)) == 0
    assert q_delta(FusionLabel(1, 1, 6)) == Fraction(1, 6)
    assert q_delta(FusionLabel(1, 1, 2)) == Fraction(1, 2)


def test_q_delta_scales_quadratically():
    rng = random.Random(906)
    for _ in range(200):
        n = rng.randint(1, 30)
        a = FusionLabel(rng.randrange(n), rng.randrange(n), n)
        k = rng.randrange(2 * n)
        ka = a
        for _ in range(k - 1):
            ka = fusion_product(ka, a)
        if k == 0:
            ka = FusionLabel(0, 0, n)
        assert q_delta(ka) == (k * k * q_delta(a)) % 1


def test_fusion_product():
    assert fusion_product(FusionLabel(1, 0, 6), FusionLabel(1, 0, 6)) == \
        FusionLabel(2, 0, 6)
    a = FusionLabel(4, 5, 6)
    assert fusion_product(a, FusionLabel(0, 0, 6)) == a
    assert fusion_product(FusionLabel(3, 5, 6), FusionLabel(3, 1, 6)) == \
        FusionLabel(0, 0, 6)
    with pytest.raises(MismatchedModulus):
        fusion_product(FusionLabel(1, 0, 6), FusionLabel(1, 0, 10))


def test_label_reduction_and_validation():
    assert FusionLabel(7, -1, 6) == FusionLabel(1, 5, 6)
    with pytest.raises(ValueError):
        FusionLabel(0, 0, 0)
    with pytest.raises(ValueError):
        QuadSpace(0)


def test_bilinear_form_is_symmetric_and_bilinear():
    rng = random.Random(907)
    for _ in range(100):
        n = rng.randint(1, 30)
        a, b, c = (FusionLabel(rng.randrange(n), rng.randrange(n), n)
                   for _ in range(3))
        assert bilinear_form(a, b) == bilinear_form(b, a)
        assert bilinear_form(fusion_product(a, b), c) == \
            (bilinear_form(a, c) + bilinear_form(b, c)) % 1
        assert bilinear_form(a, b) == \
            (q_delta(fusion_product(a, b)) - q_delta(a) - q_delta(b)) % 1
    with pytest.raises(MismatchedModulus):
        bilinear_form(FusionLabel(1, 0, 6), FusionLabel(1, 0, 10))


# ----- isotropic subgroups --------------------------------------------------


def as_pair_set(subgroup):
    return {(a.i, a.j) for a in subgroup.elements}


@pytest.mark.parametrize("p", SUPPORTED_P)
def test_four_maximal_isotropics(p):
    n = 2 * p
    groups = maximal_isotropic_subgroups(QuadSpace(n))
    assert len(groups) == 4
    assert all(g.order == n for g in groups)
    expected = [
        {(0, j) for j in range(n)},
        {(i, 0) for i in range(n)},
        {(2 * k % n, p * k % n) for k in range(n)},
        {(p * k % n, 2 * k % n) for k in range(n)},
    ]
    found = [as_pair_set(g) for g in groups]
    for target in expected:
        assert target in found


def test_two_maximal_isotropics_mod_two():
    groups = maximal_isotropic_subgroups(QuadSpace(2))
    assert [as_pair_set(g) for g in groups] == [
        {(0, 0), (0, 1)}, {(0, 0), (1, 0)}]
    assert q_delta(FusionLabel(1, 1, 2)) == Fraction(1, 2)


def test_three_maximal_isotropics_mod_four():
    # axes plus the doubled diagonal 2Z_4 x 2Z_4, each of order 4
    groups = maximal_isotropic_subgroups(QuadSpace(4))
    assert len(groups) == 3
    assert {(0, 0), (0, 2), (2, 0), (2, 2)} in [as_pair_set(g) for g in groups]


def test_maximality_witnessed():
    for n in (2, 4, 6, 10):
        space = QuadSpace(n)
        null = [a for a in space.elements() if q_delta(a) == 0]
        for group in maximal_isotropic_subgroups(space):
            members = as_pair_set(group)
            for extra in null:
                if (extra.i, extra.j) in members:
                    continue
                # the enlarged span must contain a non-null element
                grown = set(members)
                frontier = list(grown)
                while frontier:
                    x, y = frontier.pop()
                    s = ((x + extra.i) % n, (y + extra.j) % n)
                    if s not in grown:
                        grown.add(s)
                        frontier.append(s)
                assert any(q_delta(FusionLabel(i, j, n)) for i, j in grown)


def test_integer_search_matches_fraction_reference():
    for n in range(1, MAX_ISOTROPIC_MODULUS + 1):
        found = [frozenset(as_pair_set(g))
                 for g in maximal_isotropic_subgroups(QuadSpace(n))]
        assert len(set(found)) == len(found)
        assert set(found) == maximal_isotropic_element_sets(n), n


def test_isotropic_search_skips_pairs_inside_found_spans(monkeypatch):
    # one breadth-first span per null pair with vanishing pairing made
    # 2,359 span searches at n = 26 for 4 maximal subgroups
    calls = []
    span = fusion_module._span

    def counted(gens, n):
        calls.append(gens)
        return span(gens, n)

    monkeypatch.setattr(fusion_module, "_span", counted)
    found = maximal_isotropic_subgroups(QuadSpace(26))
    assert {frozenset(as_pair_set(g)) for g in found} == \
        maximal_isotropic_element_sets(26)
    assert len(calls) <= 10


def test_enumeration_capped():
    with pytest.raises(ModulusTooLarge):
        maximal_isotropic_subgroups(QuadSpace(31))


def test_subgroup_validation():
    ok = IsotropicSubgroup(
        generators=(FusionLabel(0, 1, 2),),
        elements=(FusionLabel(0, 0, 2), FusionLabel(0, 1, 2)))
    assert ok.order == 2
    with pytest.raises(ValueError):
        IsotropicSubgroup(generators=(FusionLabel(1, 1, 2),),
                          elements=(FusionLabel(0, 0, 2), FusionLabel(1, 1, 2)))
    with pytest.raises(ValueError):  # not closed
        IsotropicSubgroup(generators=(FusionLabel(0, 1, 4),),
                          elements=(FusionLabel(0, 0, 4), FusionLabel(0, 1, 4)))
    with pytest.raises(ValueError):  # generators too small
        IsotropicSubgroup(generators=(FusionLabel(0, 2, 4),),
                          elements=(FusionLabel(0, 0, 4), FusionLabel(0, 1, 4),
                                    FusionLabel(0, 2, 4), FusionLabel(0, 3, 4)))


# ----- integral-weight labels -----------------------------------------------


@pytest.mark.parametrize("p", SUPPORTED_P)
def test_integral_weight_labels_three_cases(p):
    space = QuadSpace(2 * p)
    for i in range(1, 2 * p):
        labels = integral_weight_labels(space, i)
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
        units = [i for i in range(1, n) if __import__("math").gcd(i, n) == 1]
        i = rng.choice(units)
        assert integral_weight_labels(QuadSpace(n), i) == {0}


# ----- orbifold characters --------------------------------------------------


@pytest.mark.parametrize("p", SUPPORTED_P)
def test_orbifold_character_head(leech, sigmas, theta3, p):
    tau = sigmas[p].power(2)
    ch = orbifold_character(leech, tau, p, Fraction(3), theta=theta3)
    assert tuple(ch.coefficient_at(w) for w in range(4)) == MOONSHINE_HEAD[:4]
    for _, value in ch.terms():
        assert value.denominator == 1 and value >= 0


def test_orbifold_matches_modular_j(leech, sigmas):
    """Shifting by the central charge offset reproduces the J-expansion."""
    theta5 = unimodular_theta_rank24(5)
    tau = sigmas[3].power(2)
    ch = orbifold_character(leech, tau, 3, Fraction(5), theta=theta5)
    assert tuple(ch.coefficient_at(w) for w in range(5)) == MOONSHINE_HEAD
    assert ch.shift(-1) == moonshine_j(4)


def test_orbifold_character_at_a_half_integral_cutoff(leech, sigmas, theta3):
    for g, n in ((sigmas[3].power(2), 3), (negation_isometry(leech), 2)):
        ch = orbifold_character(leech, g, n, Fraction(5, 2), theta=theta3)
        assert ch.weight_cutoff == Fraction(5, 2)
        assert [ch.coefficient_at(Fraction(k, 2)) for k in range(6)] == \
            [1, 0, 0, 0, 196884, 0]


def test_z2_and_zp_constructions_agree(leech, sigmas):
    theta5 = unimodular_theta_rank24(5)
    z2 = orbifold_character(leech, negation_isometry(leech), 2, Fraction(5),
                            theta=theta5)
    zp = orbifold_character(leech, sigmas[3].power(2), 3, Fraction(5),
                            theta=theta5)
    assert z2 == zp
    assert z2.shift(-1) == moonshine_j(4)


def test_shipped_p_power_is_negation(leech, sigmas):
    for p, g in sigmas.items():
        assert g.power(p).matrix == negation_isometry(leech).matrix


def test_orbifold_not_separable_for_full_order(leech, sigmas):
    with pytest.raises(NotSeparable):
        orbifold_character(leech, sigmas[3], 6, Fraction(2))


def test_orbifold_modulus_must_match_order(leech, sigmas):
    with pytest.raises(MismatchedModulus):
        orbifold_character(leech, sigmas[3].power(2), 6, Fraction(2))


def test_orbifold_weight_hypothesis(theta3):
    # rank-2 lattice 2*I: the involution sector has weight 1/8, not in (1/2)Z
    small = Lattice(((2, 0), (0, 2)))
    neg = negation_isometry(small)
    with pytest.raises(WeightHypothesisFailed):
        orbifold_character(small, neg, 2, Fraction(2))


def test_axis_subgroup_resums_untwisted(leech, sigmas):
    """Summing eigencomponents over the {(0, j)} subgroup recovers the
    untwisted character."""
    theta2 = unimodular_theta_rank24(2)
    neg = negation_isometry(leech)
    groups = maximal_isotropic_subgroups(QuadSpace(2))
    axis = next(g for g in groups if as_pair_set(g) == {(0, 0), (0, 1)})
    total = None
    for a in axis.elements:
        piece = eigencomponent_character(leech, neg, 2, a.j, Fraction(2),
                                         theta=theta2)
        total = piece if total is None else total + piece
    untwisted = twined_untwisted_character(leech, neg, 0, Fraction(2),
                                           theta=theta2)
    assert total == untwisted


# ----- weight-one dimension of the order-2p extension ------------------------


@pytest.mark.parametrize("p", SUPPORTED_P)
def test_weight_one_dimension(leech, sigmas, p):
    from orbifoldry.sectors import sector_invariants, twisted_character
    assert weight_one_dimension_H2(leech, sigmas[p], p) == 24
    for i in range(1, 2 * p):
        if i % 2 == 0 or i == p:
            continue
        ch = twisted_character(sector_invariants(leech, sigmas[p], i),
                               Fraction(1))
        assert ch.extract_weight_class(0).coefficient_at(1) == 24 // (p - 1)


def test_weight_one_requires_matching_order(leech, sigmas):
    with pytest.raises(MismatchedModulus):
        weight_one_dimension_H2(leech, sigmas[3], 5)


def test_weight_one_certificate_failure():
    # order-6 rotation on A2 + A2: the even sectors sit below weight one
    gram = ((2, 1, 0, 0), (1, 2, 0, 0), (0, 0, 2, 1), (0, 0, 1, 2))
    rot = ((0, -1, 0, 0), (1, 1, 0, 0), (0, 0, 0, -1), (0, 0, 1, 1))
    small = Lattice(gram)
    g = verify_isometry(small, rot)
    with pytest.raises(WeightHypothesisFailed):
        weight_one_dimension_H2(small, g, 3)
