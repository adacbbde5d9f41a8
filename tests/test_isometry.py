"""Isometry validation, cyclotomic spectra, eigenspace tables."""

import random
import re
from fractions import Fraction
from functools import reduce
from math import comb

import pytest

from faddeev_leverrier import charpoly as reference_charpoly
from integer_det import det_int
from orbifoldry import isometry
from orbifoldry.datafiles import load_leech, load_sigma, sigma_profile
from orbifoldry.fusion import orbifold_character
from orbifoldry.isometry import (
    CHARPOLY_PRIME,
    CycloProfile,
    Isometry,
    _charpoly,
    _lifted_profile,
    cyclotomic_polynomial,
    cyclotomic_profile,
    euler_phi,
    multiplicative_order,
    negation_isometry,
    power_profile,
)
from orbifoldry.lattice import Lattice, quotient_invariants
from orbifoldry.modular import unimodular_theta_rank24
from orbifoldry.sectors import sector_invariants
from tools_search import search


@pytest.fixture(scope="module")
def leech():
    return load_leech()


@pytest.fixture(scope="module")
def sigmas(leech):
    return {p: load_sigma(p, lattice=leech) for p in (3, 5, 7, 13)}


# ----- validation -----------------------------------------------------------


def identity(n):
    return tuple(tuple(int(i == j) for j in range(n)) for i in range(n))


def identity_isometry(lattice):
    return Isometry(lattice, identity(lattice.rank))


def test_identity_and_negation_are_isometries(leech):
    assert identity_isometry(leech).matrix == identity(24)
    neg = negation_isometry(leech)
    assert multiplicative_order(neg) == 2


def test_scaling_is_not_gram_preserving(leech):
    two_i = [[2 * int(i == j) for j in range(24)] for i in range(24)]
    with pytest.raises(ValueError, match=re.escape("matrix.T @ gram @ matrix != gram")):
        Isometry(leech, two_i)


def test_shape_mismatch_rejected(leech):
    with pytest.raises(ValueError):
        Isometry(leech, [[1, 0], [0, 1]])


def test_rotation_on_small_lattice():
    lat = Lattice(gram=((2, 1), (1, 2)))
    rot = Isometry(lat, [[0, -1], [1, 1]])  # 60-degree rotation
    assert multiplicative_order(rot) == 6
    assert cyclotomic_profile(rot) == CycloProfile.of({6: 1})
    assert cyclotomic_profile(rot.power(2)) == CycloProfile.of({3: 1})


# ----- cyclotomic machinery --------------------------------------------------


def test_cyclotomic_polynomials():
    assert cyclotomic_polynomial(1) == (-1, 1)
    assert cyclotomic_polynomial(2) == (1, 1)
    assert cyclotomic_polynomial(6) == (1, -1, 1)
    assert cyclotomic_polynomial(12) == (1, 0, -1, 0, 1)
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


def companion(poly):
    """The companion matrix of a monic integer polynomial (low-first):
    ones below the diagonal and minus the lower coefficients in the last
    column, so det(xI - C) is the polynomial."""
    n = len(poly) - 1
    return [[int(r == c + 1) - (c == n - 1) * poly[r] for c in range(n)]
            for r in range(n)]


def test_lifted_profile_finds_each_cyclotomic_factor():
    # every Phi_d a rank-24 charpoly can hold; Phi_2 alone (r = 1) sits on
    # the walk's bound d <= 2 r^2, the one d with phi(d) = sqrt(d/2)
    orders = [d for d in range(1, 91) if euler_phi(d) <= 24]
    assert len(orders) == 53
    for d in orders:
        charpoly = _charpoly(companion(cyclotomic_polynomial(d)))
        assert _lifted_profile(charpoly) == CycloProfile.of({d: 1}), d


def test_non_cyclotomic_factor_detected():
    # golden-ratio companion matrix has eigenvalues off the unit circle
    with pytest.raises(ArithmeticError,
                       match="characteristic polynomial has a non-cyclotomic factor"):
        _lifted_profile(_charpoly([[0, 1], [1, 1]]))


def test_certificate_rejects_a_lift_that_only_looks_cyclotomic():
    # companion matrix of x^2 - 2x + 1 + P: Phi_1^2 mod P, infinite order
    companion = [[0, -(1 + CHARPOLY_PRIME)], [1, 2]]
    assert _charpoly(companion) == [1, -2, 1]
    # the lift alone would say order 1, yet the matrix is not I; only the
    # Gram check lets a matrix reach the charpoly, and it refuses this one
    assert _lifted_profile(_charpoly(companion)) == CycloProfile.of({1: 2})
    with pytest.raises(ValueError, match=re.escape("matrix.T @ gram @ matrix != gram")):
        Isometry(Lattice(gram=((2, 1), (1, 2))), companion)


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
            assert cyclotomic_profile(power).charpoly() == tuple(expected)


def test_charpoly_matches_reference_on_generator_words(leech):
    gens = search.load_generators(leech)
    rng = random.Random(4111)
    words = [(0,), (1,)] + [tuple(rng.randrange(2) for _ in range(rng.randint(2, 9)))
                            for _ in range(4)]
    for word in words:
        m = reduce(isometry._mat_mul, (gens[i].matrix for i in word))
        assert _charpoly(m) == reference_charpoly(m), word
    for g in (identity_isometry(leech), negation_isometry(leech)):
        assert cyclotomic_profile(g).charpoly() == tuple(reference_charpoly(g.matrix))


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
    assert sigma.power(2).power(5) == sigma.power(10)
    assert sigma.power(-1) is sigma.power(25)


def mat_power(matrix, k):
    """matrix^k by k plain products from I: the slow reference for power()."""
    n = len(matrix)
    identity = [[int(i == j) for j in range(n)] for i in range(n)]
    return reduce(isometry._mat_mul, [matrix] * k, identity)


def assert_order_certified(g):
    """M^order = I for the order of the profile read off the lifted
    charpoly: the certificate the Gram check makes redundant at run time."""
    n = g.lattice.rank
    identity = [[int(i == j) for j in range(n)] for i in range(n)]
    assert mat_power(g.matrix, multiplicative_order(g)) == identity


def test_gram_verified_roots_have_the_order_of_their_profile(leech, sigmas):
    roots = [*sigmas.values(), *search.load_generators(leech),
             identity_isometry(leech)]
    # -I is built unchecked, with its profile Phi_2^24 preset
    for g in (*roots, negation_isometry(leech)):
        assert_order_certified(g)


def test_power_matrices_match_repeated_products(leech):
    # the profile shortcut to +-I at sigma^0, sigma^p and sigma^2p included
    for p in (3, 5, 7, 13):
        sigma = load_sigma(p, lattice=leech)
        product = mat_power(sigma.matrix, 0)
        for k in range(2 * p + 1):
            assert sigma.power(k).matrix == tuple(map(tuple, product)), (p, k)
            product = isometry._mat_mul(product, sigma.matrix)


def one_minus(matrix):
    n = len(matrix)
    return [[int(r == c) - matrix[r][c] for c in range(n)] for r in range(n)]


def test_power_coinvariants_match_direct_smith_forms(sigmas):
    # each power takes the Smith form of 1 - g^i from its own matrix
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
                except ArithmeticError as exc:
                    assert str(exc) == "matrix has determinant zero"
                    with pytest.raises(ArithmeticError,
                                       match="matrix has determinant zero"):
                        g.power(k).coinvariant_divisors
                else:
                    assert g.power(k).coinvariant_divisors == direct, (m, k)
                if power == identity:
                    break
                power = [[sum(a * b for a, b in zip(row, col)) for col in zip(*m)]
                         for row in power]
                k += 1
            assert multiplicative_order(g) == k
            assert_order_certified(g)
            orders.add(k)
    assert {6, 12, 30} <= orders


def test_no_proper_power_of_a_shipped_sigma_fixes_a_vector(sigmas):
    # the matrix-level form of what each certified profile says: for
    # 0 < i < order, 1 is no eigenvalue of sigma^i, so det(sigma^i - I) != 0
    for p, sigma in sigmas.items():
        for i in range(1, multiplicative_order(sigma)):
            shifted = [[x - (r == c) for c, x in enumerate(row)]
                       for r, row in enumerate(sigma.power(i).matrix)]
            assert det_int(shifted) != 0, (p, i)


def test_gram_preservation_forces_unit_determinant(sigmas):
    # the constructor checks only M^T G M = G; det(M) = +-1 must follow
    for p, sigma in sigmas.items():
        for k in range(1, multiplicative_order(sigma) + 1):
            assert det_int(sigma.power(k).matrix) in (1, -1), (p, k)
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
            assert det_int(g.matrix) == det_int(signed) in (1, -1), m
            assert_order_certified(g)


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
    assert cyclotomic_profile(sigma).eigenspace_dims(6) == (0, 12, 0, 0, 0, 12)
    assert cyclotomic_profile(sigma.power(2)).eigenspace_dims(6) == (0, 0, 12, 0, 12, 0)
    for p, s in sigmas.items():
        theta = s.power(p)
        dims = cyclotomic_profile(theta).eigenspace_dims(2 * p)
        assert dims[p] == 24 and sum(dims) == 24


def test_eigenspace_dims_symmetry_and_total(sigmas):
    for p, sigma in sigmas.items():
        m = 2 * p
        for i in range(1, m):
            dims = cyclotomic_profile(sigma.power(i)).eigenspace_dims(m)
            assert sum(dims) == 24
            assert all(dims[j] == dims[(m - j) % m] for j in range(m))


def test_eigenspace_dims_requires_divisible_order(sigmas):
    with pytest.raises(ValueError, match="isometry order 6 does not divide 5"):
        cyclotomic_profile(sigmas[3]).eigenspace_dims(5)


def test_fixed_point_free_powers(sigmas):
    for p, sigma in sigmas.items():
        for i in range(1, 2 * p):
            dims = cyclotomic_profile(sigma.power(i)).eigenspace_dims(2 * p)
            assert dims[0] == 0


def test_power_profile_matches_direct_computation(sigmas):
    for p, sigma in sigmas.items():
        prof = cyclotomic_profile(sigma)
        for k in (2, p, p + 1):
            direct = cyclotomic_profile(Isometry(sigma.lattice, sigma.power(k).matrix))
            assert power_profile(prof, k) == direct
            assert cyclotomic_profile(sigma.power(k)) == direct


def test_powers_remain_isometries(sigmas):
    # power() trusts its products; the constructor's checks confirm them here
    for p, sigma in sigmas.items():
        for k in range(1, 2 * p):
            Isometry(sigma.lattice, sigma.power(k).matrix)
        assert sigma.power(2 * p).matrix == identity(24)
    product = isometry._mat_mul(sigmas[5].matrix, sigmas[5].power(-1).matrix)
    assert Isometry(sigmas[5].lattice, product).matrix == identity(24)


def test_profile_says_identity_exactly_when_the_product_does(sigmas):
    # twined_untwisted_character takes g^j = I from Phi_1^24 in the
    # profile; the reference multiplies the power out from sigma
    for p, sigma in sigmas.items():
        for k in range(2 * p + 1):
            by_profile = cyclotomic_profile(sigma.power(k)).multiplicity(1) == 24
            by_product = mat_power(sigma.matrix, k) == [list(row) for row in identity(24)]
            assert by_profile == by_product, (p, k)
            assert by_profile == (k % (2 * p) == 0), (p, k)


def test_lazy_power_equals_the_isometry_of_its_matrix(leech):
    sigma = load_sigma(7, lattice=leech)
    # power() builds the matrix at once; equality compares it
    power = sigma.power(3)
    built = Isometry(leech, mat_power(sigma.matrix, 3))
    assert power == built and hash(power) == hash(built)
    assert power != sigma.power(5) and power != sigma


def test_lattice_equality_ignores_the_coinvariant_cache(sigmas):
    fresh = load_leech()
    filled = sigmas[3].lattice
    assert sigmas[3].power(2).coinvariant_divisors
    assert filled._coinvariants and not fresh._coinvariants
    assert fresh == filled and hash(fresh) == hash(filled)


def test_random_powers_of_shipped_sigma_have_consistent_profiles(sigmas):
    rng = random.Random(905)
    for _ in range(10):
        p = rng.choice((3, 5, 7, 13))
        k = rng.randint(1, 4 * p)
        power = sigmas[p].power(k)
        # the reference certifies the power's matrix as a root of its own
        assert cyclotomic_profile(power) == \
            cyclotomic_profile(Isometry(power.lattice, power.matrix))
