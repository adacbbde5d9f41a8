"""End-to-end acceptance gate: one test per headline claim, every
equality exact, one PASS/FAIL line printed per claim.

Each test recomputes its expected values from closed-form expressions or
independent oracles defined in this file, never from the code under
test.  Run with `pytest tests/test_acceptance.py -s` to see the lines.
"""

import functools
import itertools
import random
from fractions import Fraction
from math import gcd

import pytest

from orbifoldry.datafiles import SUPPORTED_P, load_leech, load_sigma
from orbifoldry.fusion import (
    integral_weight_labels,
    maximal_isotropic_subgroups,
    orbifold_character,
    weight_one_dimension_H2,
)
from orbifoldry.ising import ALLOWED_WEIGHTS, c12_character, extension_weight_one_check
from orbifoldry.isometry import cyclotomic_profile, negation_isometry
from orbifoldry.lattice import (
    Lattice,
    enumerate_vectors_by_norm,
    quotient_invariants,
    smith_normal_form,
)
from orbifoldry.modular import moonshine_j, unimodular_theta_rank24
from orbifoldry.qseries import FracSeries
from orbifoldry.sectors import (
    conformal_weight,
    defect_dimension,
    eigencomponent_character,
    sector_invariants,
    twined_untwisted_character,
    twisted_character,
)
from reference_enumeration import norm as reference_norm

# frozen independent facts
J_COEFFS = {-1: 1, 0: 0, 1: 196884, 2: 21493760, 3: 864299970,
            4: 20245856256, 5: 333202640600}
KISSING_NUMBER = 196560
WEIGHT2_SPLIT = (98580, 98304)
TWINED_TRACE_W2 = 276


def criterion(number, slug):
    """Emit one PASS/FAIL line per acceptance claim."""
    def wrap(fn):
        @functools.wraps(fn)
        def inner(*args, **kwargs):
            try:
                fn(*args, **kwargs)
            except BaseException:
                print(f"ACCEPTANCE {number:2d} {slug}: FAIL")
                raise
            print(f"ACCEPTANCE {number:2d} {slug}: PASS")
        return inner
    return wrap


@pytest.fixture(scope="module")
def leech():
    return load_leech()


@pytest.fixture(scope="module")
def sigmas(leech):
    return {p: load_sigma(p, lattice=leech) for p in SUPPORTED_P}


@pytest.fixture(scope="module")
def theta24():
    return unimodular_theta_rank24(6)


def closed_form_dims(p, i):
    m = 2 * p
    if i == p:
        return tuple(24 if j == p else 0 for j in range(m))
    target = 1 if i % 2 else 2
    return tuple(24 // (p - 1) if gcd(j, m) == target else 0
                 for j in range(m))


@criterion(1, "eigenspace-tables")
def test_eigenspace_tables(sigmas):
    for p in SUPPORTED_P:
        g = sigmas[p]
        for i in range(1, 2 * p):
            dims = cyclotomic_profile(g.power(i)).eigenspace_dims(2 * p)
            assert dims == closed_form_dims(p, i)


@criterion(2, "conformal-weights")
def test_conformal_weights(sigmas):
    for p in SUPPORTED_P:
        g, m = sigmas[p], 2 * p
        for i in range(1, m):
            rho = conformal_weight(cyclotomic_profile(g.power(i)).eigenspace_dims(m))
            if i == p:
                assert rho == Fraction(3, 2)
            elif i % 2:
                assert rho == Fraction(2 * p - 1, 2 * p)
            else:
                assert rho == Fraction(p + 1, p)


@criterion(3, "defect-dimensions")
def test_defect_dimensions(leech, sigmas):
    n = leech.rank
    for p in SUPPORTED_P:
        g = sigmas[p]
        for i in range(1, 2 * p):
            d = defect_dimension(g, i)
            if i == p:
                assert d == 2**12
            elif i % 2:
                assert d == 1
            else:
                assert d == p ** (12 // (p - 1))
        tau = g.power(2)
        one_minus = tuple(tuple((r == c) - tau.matrix[r][c]
                                for c in range(n)) for r in range(n))
        assert (quotient_invariants(leech, one_minus)
                == [p] * (24 // (p - 1)))
    doubling = tuple(tuple(2 * (r == c) for c in range(n)) for r in range(n))
    assert quotient_invariants(leech, doubling) == [2] * 24


@criterion(4, "maximal-isotropic-subgroups")
def test_maximal_isotropic_subgroups():
    for p in SUPPORTED_P:
        n = 2 * p
        groups = maximal_isotropic_subgroups(n)
        found = {frozenset(g.elements) for g in groups}
        expected = {
            frozenset((0, j) for j in range(n)),
            frozenset((i, 0) for i in range(n)),
            frozenset((2 * k % n, p * k % n) for k in range(n)),
            frozenset((p * k % n, 2 * k % n) for k in range(n)),
        }
        assert len(groups) == 4
        assert found == expected


@criterion(5, "integral-weight-labels")
def test_integral_weight_labels():
    for p in SUPPORTED_P:
        for i in range(1, 2 * p):
            labels = integral_weight_labels(2 * p, i)
            if i == p:
                assert labels == set(range(0, 2 * p, 2))
            elif i % 2 == 0:
                assert labels == {0, p}
            else:
                assert labels == {0}


@criterion(6, "weight-one-dimension")
def test_weight_one_dimension(leech, sigmas, theta24):
    for p in SUPPORTED_P:
        g = sigmas[p]
        assert weight_one_dimension_H2(g, theta24) == 24
        for i in range(1, 2 * p):
            if i % 2 == 0 or i == p:
                continue
            ch = twisted_character(sector_invariants(g, i), Fraction(1))
            assert ch.extract_weight_class(0).coefficient_at(1) \
                == 24 // (p - 1)


@criterion(7, "moonshine-character")
def test_moonshine_character(leech, sigmas, theta24):
    j_oracle = moonshine_j(5)
    for w, c in J_COEFFS.items():
        assert j_oracle.coefficient_at(w) == c
    neg = negation_isometry(leech)
    involution = orbifold_character(neg, 6, theta24)
    for p in SUPPORTED_P:
        ch = orbifold_character(sigmas[p].power(2), 6, theta24)
        assert [ch.coefficient_at(w) for w in (0, 1, 2)] == [1, 0, 196884]
        # extended depth: the suite default stops at cutoff 4
        assert ch.shift(-1).truncated(5).agrees_with(j_oracle.truncated(5))
        assert ch.truncated(5).agrees_with(involution.truncated(5))


@criterion(8, "involution-weight2-split")
def test_involution_weight2_split(leech, theta24):
    neg = negation_isometry(leech)
    fixed = eigencomponent_character(neg, 0, Fraction(2), theta24)
    twined = twined_untwisted_character(neg, 1, Fraction(2), theta24)
    sector = sector_invariants(neg, 1)
    twisted = twisted_character(sector, Fraction(2)).extract_weight_class(0)
    assert fixed.coefficient_at(2) == WEIGHT2_SPLIT[0]
    assert twisted.coefficient_at(2) == WEIGHT2_SPLIT[1]
    assert sum(WEIGHT2_SPLIT) == 196884
    assert twined.coefficient_at(2) == TWINED_TRACE_W2
    assert 2 * fixed.coefficient_at(2) \
        == (196884 - 24) + (TWINED_TRACE_W2 + 24)


@criterion(9, "lattice-ground-truth")
def test_lattice_ground_truth(leech):
    assert leech.rank == 24
    assert leech.determinant() == 1
    assert all(leech.gram[i][i] % 2 == 0 for i in range(24))
    counts = enumerate_vectors_by_norm(leech, 4)
    assert counts == {0: 1, 2: 0, 4: KISSING_NUMBER}
    theta_enum = FracSeries(1, {m // 2: c for m, c in counts.items()}, 2)
    untwisted = twined_untwisted_character(negation_isometry(leech), 0,
                                           Fraction(2), theta_enum)
    assert untwisted.coefficient_at(1) == 24
    assert untwisted.coefficient_at(2) == 196884
    assert 196884 == KISSING_NUMBER + 324


def fermion_parity_counts(max_units):
    # subsets of modes 1/2, 3/2, 5/2, ... tallied by (half-unit total, parity)
    counts = [[0, 0] for _ in range(max_units + 1)]
    counts[0][0] = 1
    mode = 1
    while mode <= max_units:
        for total in range(max_units, mode - 1, -1):
            for parity in (0, 1):
                counts[total][parity ^ 1] += counts[total - mode][parity]
        mode += 2
    return counts


@criterion(10, "ising-characters")
def test_ising_characters():
    chars = {h: c12_character(h, Fraction(10) + h) for h in ALLOWED_WEIGHTS}
    assert [chars[h].leading_term()[0] for h in ALLOWED_WEIGHTS] \
        == [Fraction(0), Fraction(1, 2), Fraction(1, 16)]
    assert extension_weight_one_check() == 1
    oracle = fermion_parity_counts(20)
    ch0 = chars[Fraction(0)]
    ch_half = chars[Fraction(1, 2)]
    for u in range(21):
        w = Fraction(u, 2)
        even, odd = oracle[u]
        assert ch0.coefficient_at(w) + ch_half.coefficient_at(w) == even + odd
        assert ch0.coefficient_at(w) - ch_half.coefficient_at(w) == even - odd


def random_series(rng, cutoff=4):
    return FracSeries(1, {k: rng.randint(-9, 9) for k in range(cutoff + 1)},
                      cutoff)


def leibniz_det(m):
    n = len(m)
    total = 0
    for perm in itertools.permutations(range(n)):
        sign = 1
        for a in range(n):
            for b in range(a + 1, n):
                if perm[a] > perm[b]:
                    sign = -sign
        product = sign
        for r in range(n):
            product *= m[r][perm[r]]
        total += product
    return total


def naive_box_counts(gram, max_norm):
    # exhaustive scan of a coordinate box certified by the dual form
    rank = len(gram)
    counts = {m: 0 for m in range(0, max_norm + 1, 2)}
    bound = max_norm * max(gram[i][i] for i in range(rank))
    radius = int(bound**0.5) + 2
    box = [range(-radius, radius + 1)] * rank
    def scan(prefix):
        if len(prefix) == rank:
            norm = reference_norm(gram, prefix)
            if norm <= max_norm:
                counts[norm] += 1
            return
        for x in box[len(prefix)]:
            scan(prefix + (x,))
    scan(())
    return counts


@criterion(11, "property-suites")
def test_property_suites(leech, sigmas, theta24):
    rng = random.Random(909)
    # q-series ring laws
    for _ in range(20):
        a, b, c = (random_series(rng) for _ in range(3))
        assert (a + b) + c == a + (b + c)
        assert a * b == b * a
        assert a * (b + c) == a * b + a * c
        one = FracSeries.one(4, 1)
        t = a.weight_cutoff
        assert (one * a).truncated(t).agrees_with(a.truncated(t))
    # Smith invariants: divisibility chain and determinant
    for _ in range(10):
        m = [[rng.randint(-6, 6) for _ in range(4)] for _ in range(4)]
        diag = smith_normal_form(m, [()] * 4, [()] * 4)
        chain = [d for d in diag if d]
        for u, v in zip(chain, chain[1:]):
            assert v % u == 0
        product = 1
        for d in diag:
            product *= d
        assert product == abs(leibniz_det(m))
    gram = [[2, 1], [1, 2]]
    assert quotient_invariants(Lattice(gram), gram) == [3]
    # enumeration against naive boxes at small rank
    for rank in (1, 2, 3):
        basis = [[rng.randint(-2, 2) for _ in range(rank)]
                 for _ in range(rank)]
        gram = [[2 * sum(basis[r][k] * basis[s][k] for k in range(rank))
                 + 2 * (r == s) for s in range(rank)] for r in range(rank)]
        counts = enumerate_vectors_by_norm(Lattice(gram), 8)
        assert counts == naive_box_counts(gram, 8)
    # eigencomponent DFT: completeness and nonnegativity
    g = sigmas[3].power(2)
    total = FracSeries.zero(2, 1)
    for j in range(3):
        comp = eigencomponent_character(g, j, Fraction(2), theta24)
        assert all(value >= 0 for _, value in comp.terms())
        total = total + comp
    full = twined_untwisted_character(g, 0, Fraction(2), theta24)
    assert total == full
