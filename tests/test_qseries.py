"""Series ring: oracle checks against brute-force counting, then ring laws."""
import inspect
import json
import random
from fractions import Fraction as F

import pytest

from direct_products import direct_grading_product, direct_product
from orbifoldry import modular
from orbifoldry.qseries import (
    BeyondCutoff,
    FracSeries,
    NonPositiveExponent,
    ZeroLeadingTerm,
    euler_product,
    grading_product,
)
from series_dict import series_from_dict


# ----- brute-force oracles ------------------------------------------------

def partition_count(n):
    """Number of partitions of n, by direct recursive enumeration."""
    def count(remaining, largest):
        if remaining == 0:
            return 1
        return sum(count(remaining - k, k) for k in range(1, min(remaining, largest) + 1))
    return count(n, n)


def multiset_mode_count(modes, weight, step=1):
    """Number of multisets of modes with total exponent == weight.

    modes: list of (exponent, multiplicity); each mode ladders upward in
    increments of `step`, and a multiset may repeat a slot of the same mode
    any number of times (bosonic counting).
    """
    slots = []
    for e, mult in modes:
        for k in range(200):
            if e + step * k > weight:
                break
            slots.extend([e + step * k] * mult)
    slots.sort()

    def count(i, remaining):
        if remaining == 0:
            return 1
        if i == len(slots) or slots[i] > remaining:
            return 0
        total = 0
        # choose how many copies of slot i (identical slots grouped)
        j = i
        while j < len(slots) and slots[j] == slots[i]:
            j += 1
        n_identical = j - i
        e = slots[i]
        copies = 0
        while e * copies <= remaining:
            ways = _multichoose(n_identical, copies)
            total += ways * count(j, remaining - e * copies)
            copies += 1
        return total

    return count(0, weight)


def _multichoose(n, k):
    from math import comb
    return comb(n + k - 1, k)


# ----- spec examples, expectations frozen from the oracles -----------------

def test_partition_generating_function():
    # inverse of prod (1 - q^n) over n = 1..6
    prod = FracSeries.one(6)
    for n in range(1, 7):
        prod = prod * FracSeries.from_terms({0: 1, n: -1}, cutoff=6)
    inv = prod.inverse()
    for n in range(0, 6):
        assert inv.coefficient_at(n) == partition_count(n)
    assert [inv.coefficient_at(n) for n in range(6)] == [1, 1, 2, 3, 5, 7]


def test_grading_product_integer_modes():
    s = grading_product([(1, 24)], cutoff=2)
    assert s.coefficient_at(0) == 1
    assert s.coefficient_at(1) == 24 == multiset_mode_count([(1, 24)], 1)
    assert s.coefficient_at(2) == 324 == multiset_mode_count([(1, 24)], 2)


def test_grading_product_half_integer_modes():
    s = grading_product([(F(1, 2), 24)], cutoff=1)
    assert s.coefficient_at(F(1, 2)) == 24
    assert s.coefficient_at(1) == 300
    # against the multiset oracle in doubled units (ladder steps by 2 there)
    assert s.coefficient_at(1) == multiset_mode_count([(1, 24)], 2, step=2)


def test_grading_product_oracle_sweep():
    rng = random.Random(7)
    for _ in range(10):
        modes = []
        for _ in range(rng.randint(1, 3)):
            den = rng.choice([1, 2, 3])
            num = rng.randint(1, 2 * den)
            modes.append((F(num, den), rng.randint(1, 5)))
        s = grading_product(modes, cutoff=3)
        for w in range(1, 4):
            scaled_modes = [(int(e * 6), m) for e, m in modes]
            assert s.coefficient_at(w) == multiset_mode_count(scaled_modes, 6 * w, step=6)


def test_grading_product_rejects_nonpositive_modes():
    with pytest.raises(NonPositiveExponent):
        grading_product([(0, 3)], cutoff=2)
    with pytest.raises(NonPositiveExponent):
        grading_product([(F(-1, 2), 3)], cutoff=2)


# ----- the Euler-product kernel against the direct product -----------------

@pytest.mark.parametrize("grain", [1, 2, 13, 26])
def test_euler_product_matches_direct_product(grain):
    rng = random.Random(1000 + grain)
    for _ in range(8):
        n = rng.randint(0, 4) * grain
        multiplicities = {}
        for _ in range(rng.randint(1, 6)):
            s = rng.randint(1, max(n, 1))
            multiplicities[s] = multiplicities.get(s, 0) + rng.choice([-3, -2, -1, 1, 2, 5])
        reference = direct_product(multiplicities, grain, n)
        got = euler_product(multiplicities, n)
        assert got == [reference.coefficient_at(F(k, grain)) for k in range(n + 1)]
        assert all(type(b) is int for b in got)


def test_grading_product_matches_direct_loop():
    rng = random.Random(13)
    for _ in range(10):
        grain = rng.choice([1, 2, 13, 26])
        modes = [(F(rng.randint(1, 2 * grain), grain), rng.randint(0, 4))
                 for _ in range(rng.randint(1, 4))]
        cutoff = F(rng.randint(0, 4 * grain), grain)
        assert grading_product(modes, cutoff, grain) == direct_grading_product(modes, cutoff, grain)


def test_euler_product_inexact_division_raises():
    # (1 - x)^(-1/2) has coefficient 1/2 at x^1: no integral expansion
    with pytest.raises(ArithmeticError):
        euler_product({1: F(1, 2)}, 3)
    with pytest.raises(NonPositiveExponent):
        euler_product({0: 1}, 3)


def test_modular_oracle_stays_disjoint_from_the_kernel():
    source = inspect.getsource(modular)
    assert "euler_product" not in source and "grading_product" not in source
    assert not hasattr(modular, "euler_product")


def test_geometric_inverse():
    one_minus_q = FracSeries.from_terms({0: 1, 1: -1}, cutoff=8)
    geo = one_minus_q.inverse()
    assert all(geo.coefficient_at(n) == 1 for n in range(9))


def test_equal_series_hash_equal_across_grains():
    a, b = FracSeries.one(2, grain=1), FracSeries.one(2, grain=2)
    assert a == b and hash(a) == hash(b)
    assert b in {a} and len({a, b}) == 1
    assert FracSeries.one(3, grain=1) not in {a}
    # equality reads the canonical grid, not the grain a series is stored on
    coarse = FracSeries.from_terms({0: 1, F(1, 3): -2, 2: F(5, 7)}, cutoff=2)
    fine = coarse.rescaled(12)
    assert fine.grain == 12 and fine == coarse and hash(fine) == hash(coarse)
    assert fine != coarse + FracSeries.from_terms({F(1, 3): 1}, cutoff=2)


def test_coefficient_off_grid_is_zero():
    s = FracSeries.from_terms({0: 1, 1: -1}, cutoff=4)
    assert s.coefficient_at(F(1, 2)) == 0


def test_beyond_cutoff_raises():
    s = FracSeries.from_terms({0: 1}, cutoff=3)
    with pytest.raises(BeyondCutoff):
        s.coefficient_at(4)
    with pytest.raises(BeyondCutoff):
        s.truncated(5)


def test_zero_leading_term_raises():
    with pytest.raises(ZeroLeadingTerm):
        FracSeries.zero(4).inverse()


def test_laurent_tail_inverse():
    # delta-like series q * (1 - q)^24 has inverse with a q^(-1) tail
    s = FracSeries.from_terms({0: 1, 1: -1}, cutoff=8) ** 24
    s = s.shift(1)
    inv = s.inverse()
    lead_e, lead_c = inv.leading_term()
    assert (lead_e, lead_c) == (F(-1), F(1))
    assert inv.coefficient_at(0) == 24
    assert (s * inv).coefficient_at(0) == 1


# ----- ring laws on random series ------------------------------------------

def random_series(rng, grain=None, cutoff_units=12):
    g = grain or rng.choice([1, 2, 3, 4, 6])
    coeffs = {}
    for _ in range(rng.randint(0, 6)):
        k = rng.randint(-3, cutoff_units)
        coeffs[k] = F(rng.randint(-9, 9), rng.randint(1, 4))
    return FracSeries(g, coeffs, cutoff_units)


def test_ring_laws_random_sweep():
    rng = random.Random(2026)
    for _ in range(60):
        a = random_series(rng)
        b = random_series(rng)
        c = random_series(rng)
        assert (a + b).agrees_with(b + a)
        assert (a * b).agrees_with(b * a)
        assert ((a + b) + c).agrees_with(a + (b + c))
        assert (a * (b + c)).agrees_with(a * b + a * c)
        assert not (a - a).coeffs
        one = FracSeries.one(F(a.cutoff, a.grain), a.grain)
        assert (a * one).agrees_with(a)


def test_mul_cutoff_worst_case_shift():
    # a exact to cutoff 3 with tail 1; b exact to cutoff 5 with tail 0:
    # product exact to min(3 + 0, 5 + 1) = 3
    a = FracSeries.from_terms({1: 1, 3: 4}, cutoff=3)
    b = FracSeries.from_terms({0: 2, 5: 1}, cutoff=5)
    assert (a * b).weight_cutoff == 3


def test_extract_weight_class_partitions_series():
    rng = random.Random(5)
    for _ in range(20):
        s = random_series(rng, grain=6)
        total = FracSeries.zero(s.weight_cutoff, s.grain)
        for r in range(6):
            total = total + s.extract_weight_class(F(r, 6))
        assert total.agrees_with(s)


def test_extract_weight_class_integral():
    s = FracSeries.from_terms({F(3, 2): 5, 2: 7, F(5, 2): 1, 3: 2}, cutoff=3)
    integral = s.extract_weight_class(0)
    assert integral.terms() == [(F(2), F(7)), (F(3), F(2))]
    half = s.extract_weight_class(F(1, 2))
    assert half.terms() == [(F(3, 2), F(5)), (F(5, 2), F(1))]


def test_power_matches_repeated_multiplication():
    rng = random.Random(11)
    for _ in range(10):
        s = random_series(rng)
        p = rng.randint(0, 4)
        direct = FracSeries.one(F(s.cutoff, s.grain), s.grain)
        for _ in range(p):
            direct = direct * s
        assert (s ** p).agrees_with(direct)


def test_json_round_trip():
    rng = random.Random(3)
    for _ in range(20):
        s = random_series(rng)
        t = series_from_dict(json.loads(json.dumps(s.to_dict())))
        assert t == s and t.grain == s.grain and t.cutoff == s.cutoff


def test_json_fraction_format():
    s = FracSeries.from_terms({F(1, 2): F(3, 4), 1: 2}, cutoff=2)
    text = json.dumps(s.to_dict())
    assert '"grain": 2' in text and '"3/4"' in text and '"2"' in text


def test_shift_round_trip():
    s = FracSeries.from_terms({0: 1, 2: 5}, cutoff=4)
    assert s.shift(F(3, 2)).shift(F(-3, 2)).agrees_with(s)
    assert s.shift(F(3, 2)).coefficient_at(F(7, 2)) == 5
