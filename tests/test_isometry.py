"""Isometry validation, cyclotomic spectra, eigenspace tables, word search."""

import random
from fractions import Fraction
from functools import reduce
from math import comb

import pytest

from faddeev_leverrier import charpoly as reference_charpoly
from orbifoldry import isometry
from orbifoldry.datafiles import load_generators, load_leech, load_sigma, sigma_profile
from orbifoldry.fusion import orbifold_character
from orbifoldry.isometry import (
    CHARPOLY_PRIME,
    CycloProfile,
    Isometry,
    NonCyclotomicFactor,
    NotFound,
    NotGramPreserving,
    OrderDoesNotDivide,
    _charpoly,
    _profile_of_matrix,
    cyclotomic_polynomial,
    cyclotomic_profile,
    eigenspace_dims,
    euler_phi,
    multiplicative_order,
    negation_isometry,
    power_profile,
    search_isometry,
    verify_isometry,
)
from orbifoldry.lattice import Lattice, SingularMatrix, _det_int, quotient_invariants
from orbifoldry.modular import unimodular_theta_rank24
from orbifoldry.sectors import sector_invariants


@pytest.fixture(scope="module")
def leech():
    return load_leech()


@pytest.fixture(scope="module")
def sigmas(leech):
    return {p: load_sigma(p, lattice=leech) for p in (3, 5, 7, 13)}


# ----- validation -----------------------------------------------------------


def identity_isometry(lattice):
    return verify_isometry(lattice, [[int(i == j) for j in range(lattice.rank)]
                                     for i in range(lattice.rank)])


def test_identity_and_negation_are_isometries(leech):
    assert identity_isometry(leech).is_identity()
    neg = negation_isometry(leech)
    assert multiplicative_order(neg) == 2


def test_scaling_is_not_gram_preserving(leech):
    two_i = [[2 * int(i == j) for j in range(24)] for i in range(24)]
    with pytest.raises(NotGramPreserving):
        verify_isometry(leech, two_i)


def test_shape_mismatch_rejected(leech):
    with pytest.raises(ValueError):
        verify_isometry(leech, [[1, 0], [0, 1]])


def test_rotation_on_small_lattice():
    lat = Lattice(gram=((2, 1), (1, 2)))
    rot = verify_isometry(lat, [[0, -1], [1, 1]])  # 60-degree rotation
    assert multiplicative_order(rot) == 6
    assert cyclotomic_profile(rot) == CycloProfile.of({6: 1})
    assert cyclotomic_profile(rot.power(2)) == CycloProfile.of({3: 1})


# ----- cyclotomic machinery --------------------------------------------------


def test_cyclotomic_polynomials():
    assert cyclotomic_polynomial(1) == [-1, 1]
    assert cyclotomic_polynomial(2) == [1, 1]
    assert cyclotomic_polynomial(6) == [1, -1, 1]
    assert cyclotomic_polynomial(12) == [1, 0, -1, 0, 1]
    # product over divisors of 12 reproduces x^12 - 1
    prod = [1]
    for d in (1, 2, 3, 4, 6, 12):
        cd = cyclotomic_polynomial(d)
        out = [0] * (len(prod) + len(cd) - 1)
        for i, a in enumerate(prod):
            for j, b in enumerate(cd):
                out[i + j] += a * b
        prod = out
    assert prod == [-1] + [0] * 11 + [1]


def test_euler_phi():
    assert [euler_phi(d) for d in (1, 2, 6, 10, 26, 90)] == [1, 1, 2, 4, 12, 24]


def test_cyclotomic_orders_sieve_matches_euler_phi():
    for rank in range(1, 31):
        assert isometry._cyclotomic_orders(rank) == tuple(
            d for d in range(1, 2 * rank * rank + 1) if euler_phi(d) <= rank)


def test_non_cyclotomic_factor_detected():
    # golden-ratio companion matrix has eigenvalues off the unit circle
    with pytest.raises(NonCyclotomicFactor):
        _profile_of_matrix([[0, 1], [1, 1]], 2)


def test_certificate_rejects_a_lift_that_only_looks_cyclotomic():
    # companion matrix of x^2 - 2x + 1 + P: Phi_1^2 mod P, infinite order
    companion = [[0, -(1 + CHARPOLY_PRIME)], [1, 2]]
    assert _charpoly(companion) == [1, -2, 1]
    with pytest.raises(NonCyclotomicFactor):
        _profile_of_matrix(companion, 2)


def test_charpoly_refuses_ranks_past_the_single_prime_bound():
    assert 2 * comb(63, 31) < CHARPOLY_PRIME <= 2 * comb(64, 32)
    with pytest.raises(ValueError):
        _charpoly([[int(i == j) for j in range(64)] for i in range(64)])


def test_charpoly_matches_reference_on_every_shipped_power(sigmas):
    for p, sigma in sigmas.items():
        for k in range(1, 2 * p):
            power = sigma.power(k)
            expected = reference_charpoly(power.matrix)
            assert _charpoly(power.matrix) == expected
            # a power's charpoly is the product over the root's profile
            assert power.charpoly == tuple(expected)


def test_charpoly_matches_reference_on_generator_words(leech):
    gens = load_generators(lattice=leech)
    rng = random.Random(4111)
    words = [(0,), (1,)] + [tuple(rng.randrange(2) for _ in range(rng.randint(2, 9)))
                            for _ in range(4)]
    for word in words:
        m = reduce(isometry._mat_mul, (gens[i].matrix for i in word))
        assert _charpoly(m) == reference_charpoly(m), word
    for g in (identity_isometry(leech), negation_isometry(leech)):
        assert g.charpoly == tuple(reference_charpoly(g.matrix))


def test_charpoly_matches_reference_on_random_integer_matrices():
    rng = random.Random(8802)
    for n in range(1, 8):
        for _ in range(6):
            m = [[rng.randint(-3, 3) for _ in range(n)] for _ in range(n)]
            assert _charpoly(m) == reference_charpoly(m), m


def test_each_spectral_fact_is_computed_once(leech, monkeypatch):
    calls = []
    kernel = isometry._charpoly
    monkeypatch.setattr(isometry, "_charpoly",
                        lambda matrix: calls.append(1) or kernel(matrix))
    sigma = load_sigma(13, lattice=leech)
    for i in range(1, 26):
        sector_invariants(sigma, i)
    orbifold_character(sigma.power(2), Fraction(2), unimodular_theta_rank24(2))
    # only the root's matrix is reduced; its powers read the root's profile
    assert len(calls) == 1
    assert sigma.power(7) is sigma.power(7)
    assert sigma.power(2).power(5) is sigma.power(10)
    assert sigma.power(-1) is sigma.power(25)


def one_minus(matrix):
    n = len(matrix)
    return [[int(r == c) - matrix[r][c] for c in range(n)] for r in range(n)]


def test_power_coinvariants_match_direct_smith_forms(sigmas):
    # a power reads the Smith form of the generator of its cyclic subgroup
    for p, sigma in sigmas.items():
        for i in range(1, 2 * p):
            power = sigma.power(i)
            direct = quotient_invariants(sigma.lattice, one_minus(power.matrix))
            assert power.coinvariant_divisors == tuple(direct), (p, i)


def random_signed_permutation(rng, n):
    perm = list(range(n))
    rng.shuffle(perm)
    signs = [rng.choice((1, -1)) for _ in range(n)]
    return [[signs[c] if perm[c] == r else 0 for c in range(n)] for r in range(n)]


def test_coinvariants_of_signed_permutations_match_direct_smith_forms():
    rng = random.Random(3011)
    orders = set()
    for n in range(1, 9):
        lattice = Lattice(tuple(tuple(2 * int(r == c) for c in range(n))
                                for r in range(n)))
        identity = [[int(r == c) for c in range(n)] for r in range(n)]
        for _ in range(12):
            m = random_signed_permutation(rng, n)
            g = Isometry(lattice, m)
            power, k = m, 1
            while True:
                try:
                    direct = tuple(quotient_invariants(lattice, one_minus(power)))
                except SingularMatrix:
                    with pytest.raises(SingularMatrix):
                        g.power(k).coinvariant_divisors
                else:
                    assert g.power(k).coinvariant_divisors == direct, (m, k)
                if power == identity:
                    break
                power = [[sum(a * b for a, b in zip(row, col)) for col in zip(*m)]
                         for row in power]
                k += 1
            assert multiplicative_order(g) == k
            orders.add(k)
    assert {6, 12, 30} <= orders


def test_gram_preservation_forces_unit_determinant(sigmas):
    # the constructor checks only M^T G M = G; det(M) = +-1 must follow
    for p, sigma in sigmas.items():
        for k in range(1, multiplicative_order(sigma) + 1):
            assert _det_int(sigma.power(k).matrix) in (1, -1), (p, k)
    rng = random.Random(1811)
    for n in range(1, 7):
        for _ in range(8):
            # a signed permutation of a diagonal basis, within blocks of
            # equal norm, seen in a random basis u: G = u^T D u, M = u^-1 P u
            scales = [rng.choice((1, 2, 3)) for _ in range(n)]
            perm = list(range(n))
            for scale in set(scales):
                block = [i for i in range(n) if scales[i] == scale]
                for i, j in zip(block, rng.sample(block, len(block))):
                    perm[i] = j
            signs = [rng.choice((1, -1)) for _ in range(n)]
            signed = [[signs[c] if perm[c] == r else 0 for c in range(n)]
                      for r in range(n)]
            u = [[int(r == c) for c in range(n)] for r in range(n)]
            u_inv = [row[:] for row in u]
            for _ in range(3 * n if n > 1 else 0):
                i, j = rng.sample(range(n), 2)
                k = rng.choice((-2, -1, 1, 2))
                u = [[x + k * y for x, y in zip(u[i], u[j])] if r == i else row
                     for r, row in enumerate(u)]
                for row in u_inv:
                    row[j] -= k * row[i]
            diag = [[2 * scales[r] * int(r == c) for c in range(n)]
                    for r in range(n)]
            gram = isometry._mat_mul(isometry._mat_mul(list(zip(*u)), diag), u)
            m = isometry._mat_mul(isometry._mat_mul(u_inv, signed), u)
            g = Isometry(Lattice(gram), m)
            assert _det_int(g.matrix) == _det_int(signed) in (1, -1), m


def test_profile_of_negation(leech):
    assert cyclotomic_profile(negation_isometry(leech)) == CycloProfile.of({2: 24})


def test_profile_degree_accounts_for_rank(leech, sigmas):
    for p, sigma in sigmas.items():
        prof = cyclotomic_profile(sigma)
        assert prof == sigma_profile(p)
        assert sum(e * euler_phi(d) for d, e in prof.factors) == 24


# ----- orders and eigenspaces ------------------------------------------------


def test_orders_of_shipped_isometries(sigmas):
    for p, sigma in sigmas.items():
        assert multiplicative_order(sigma) == 2 * p
        assert multiplicative_order(sigma.power(p)) == 2
        assert multiplicative_order(sigma.power(p + 1)) == p


def test_eigenspace_dims_examples(sigmas):
    sigma = sigmas[3]
    assert eigenspace_dims(sigma, 6) == (0, 12, 0, 0, 0, 12)
    assert eigenspace_dims(sigma.power(2), 6) == (0, 0, 12, 0, 12, 0)
    for p, s in sigmas.items():
        theta = s.power(p)
        dims = eigenspace_dims(theta, 2 * p)
        assert dims[p] == 24 and sum(dims) == 24


def test_eigenspace_dims_symmetry_and_total(sigmas):
    for p, sigma in sigmas.items():
        m = 2 * p
        for i in range(1, m):
            dims = eigenspace_dims(sigma.power(i), m)
            assert sum(dims) == 24
            assert all(dims[j] == dims[(m - j) % m] for j in range(m))


def test_eigenspace_dims_requires_divisible_order(sigmas):
    with pytest.raises(OrderDoesNotDivide):
        eigenspace_dims(sigmas[3], 5)


def test_fixed_point_free_powers(sigmas):
    for p, sigma in sigmas.items():
        for i in range(1, 2 * p):
            dims = eigenspace_dims(sigma.power(i), 2 * p)
            assert dims[0] == 0


def test_power_profile_matches_direct_computation(sigmas):
    for p, sigma in sigmas.items():
        prof = cyclotomic_profile(sigma)
        for k in (2, p, p + 1):
            direct = _profile_of_matrix(sigma.power(k).matrix, 24)
            assert power_profile(prof, k) == direct
            assert cyclotomic_profile(sigma.power(k)) == direct


def test_powers_remain_isometries(sigmas):
    # power() trusts its products; the constructor's checks confirm them here
    for p, sigma in sigmas.items():
        for k in range(1, 2 * p):
            verify_isometry(sigma.lattice, sigma.power(k).matrix)
        assert sigma.power(2 * p).is_identity()
    product = isometry._mat_mul(sigmas[5].matrix, sigmas[5].power(-1).matrix)
    assert verify_isometry(sigmas[5].lattice, product).is_identity()


def test_lazy_power_equals_the_isometry_of_its_matrix(leech):
    sigma = load_sigma(7, lattice=leech)
    # compared before anything reads its matrix, which equality builds
    power = sigma.power(3)
    built = verify_isometry(leech, isometry._mat_power(sigma.matrix, 3))
    assert power == built and hash(power) == hash(built)
    assert power != sigma.power(5) and power != sigma


def test_lattice_equality_ignores_the_coinvariant_cache(sigmas):
    fresh = load_leech()
    filled = sigmas[3].lattice
    assert sigmas[3].power(2).coinvariant_divisors
    assert filled._coinvariants and not fresh._coinvariants
    assert fresh == filled and hash(fresh) == hash(filled)
    assert Lattice(fresh.gram, label="other") != fresh


# ----- word search -----------------------------------------------------------


def test_search_singleton_negation(leech):
    neg = negation_isometry(leech)
    result = search_isometry([neg], CycloProfile.of({2: 24}), budget=10, seed=1)
    assert result.word == (0,)
    assert result.isometry.matrix == neg.matrix


def test_search_not_found(leech):
    ident = identity_isometry(leech)
    with pytest.raises(NotFound):
        search_isometry([ident], CycloProfile.of({6: 12}), budget=25, seed=1)


def test_search_finds_sigma_from_generator_pair(leech):
    a, b = load_generators(lattice=leech)
    result = search_isometry([a, b], sigma_profile(3), budget=300, seed=20260818)
    assert cyclotomic_profile(result.isometry) == sigma_profile(3)
    assert eigenspace_dims(result.isometry, 6) == (0, 12, 0, 0, 0, 12)


def test_random_powers_of_shipped_sigma_have_consistent_profiles(sigmas):
    rng = random.Random(905)
    for _ in range(10):
        p = rng.choice((3, 5, 7, 13))
        k = rng.randint(1, 4 * p)
        sigma = sigmas[p]
        assert cyclotomic_profile(sigma.power(k)) == \
            _profile_of_matrix(sigma.power(k).matrix, 24)
