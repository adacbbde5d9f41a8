"""Modular form expansions against classical coefficient tables and the
lattice enumeration cross-check."""


from orbifoldry.datafiles import load_leech
from orbifoldry.lattice import enumerate_vectors_by_norm
from orbifoldry.modular import (
    discriminant_form,
    eisenstein_e4,
    moonshine_j,
    unimodular_theta_rank24,
)
from orbifoldry.qseries import FracSeries

# frozen classical expansions
E4_COEFFS = [1, 240, 2160, 6720, 17520, 30240, 60480, 82560, 140400]
TAU_COEFFS = [0, 1, -24, 252, -1472, 4830, -6048, -16744, 84480]
J_COEFFS = {-1: 1, 0: 0, 1: 196884, 2: 21493760, 3: 864299970,
            4: 20245856256, 5: 333202640600}
THETA24_COEFFS = [1, 0, 196560, 16773120, 398034000, 4629381120, 34417656000]


def divisor_cube_sum(n):
    return sum(d ** 3 for d in range(1, n + 1) if n % d == 0)


def test_e4_matches_divisor_sums_and_table():
    e4 = eisenstein_e4(8)
    for n, c in enumerate(E4_COEFFS):
        assert e4.coefficient_at(n) == c
        if n:
            assert c == 240 * divisor_cube_sum(n)


def test_discriminant_matches_tau():
    delta = discriminant_form(8)
    for n, c in enumerate(TAU_COEFFS):
        assert delta.coefficient_at(n) == c


def test_j_function_expansion():
    j = moonshine_j(5) + 744
    assert j.coefficient_at(-1) == 1
    assert j.coefficient_at(0) == 744
    for w in range(1, 6):
        assert j.coefficient_at(w) == J_COEFFS[w]


def test_moonshine_j_kills_constant():
    jj = moonshine_j(5)
    for w, c in J_COEFFS.items():
        assert jj.coefficient_at(w) == c


def test_theta24_expansion():
    theta = unimodular_theta_rank24(6)
    for n, c in enumerate(THETA24_COEFFS):
        assert theta.coefficient_at(n) == c


def test_theta24_moves_by_delta_with_the_roots():
    # N_2 = 720 (E8^3) leaves E4^3; N_2 = 72 gives the theta of A2^12
    e4 = eisenstein_e4(3)
    assert unimodular_theta_rank24(3, roots=720) == e4 * e4 * e4
    theta = unimodular_theta_rank24(3, roots=72)
    assert [theta.coefficient_at(w) for w in range(4)] == [
        1, 72, 194832, 16791264]


def enumerated_theta(lattice, weight):
    """The lattice's theta series through the given weight: at grain 2
    the term q^(norm/2) sits at key norm."""
    counts = enumerate_vectors_by_norm(lattice, 2 * weight)
    return FracSeries(2, counts, 2 * weight)


def test_theta24_agrees_with_enumeration_at_kissing_number():
    theta = unimodular_theta_rank24(2)
    enumerated = enumerated_theta(load_leech(), 2)
    assert theta.truncated(2).agrees_with(enumerated.truncated(2))


def test_theta24_agrees_with_enumeration_at_norm_six():
    theta = unimodular_theta_rank24(3)
    enumerated = enumerated_theta(load_leech(), 3)
    assert theta.truncated(3).agrees_with(enumerated.truncated(3))
