"""Series ring: oracle checks against brute-force counting, then ring laws."""
import inspect
import json
import random
from fractions import Fraction as F

import pytest

from direct_products import direct_grading_product, direct_product
from orbifoldry import modular
from orbifoldry.qseries import (
    FracSeries,
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
        prod = prod * FracSeries(1, {0: 1, n: -1}, 6)
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
    with pytest.raises(ValueError, match="mode exponent 0 must be positive"):
        grading_product([(0, 3)], cutoff=2)
    with pytest.raises(ValueError, match="mode exponent -1/2 must be positive"):
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
    with pytest.raises(ValueError, match="factor exponent 0 must be positive"):
        euler_product({0: 1}, 3)


def test_modular_oracle_stays_disjoint_from_the_kernel():
    source = inspect.getsource(modular)
    assert "euler_product" not in source and "grading_product" not in source
    assert not hasattr(modular, "euler_product")


def test_geometric_inverse():
    one_minus_q = FracSeries(1, {0: 1, 1: -1}, 8)
    geo = one_minus_q.inverse()
    assert all(geo.coefficient_at(n) == 1 for n in range(9))


def test_equal_series_hash_equal_across_grains():
    a, b = FracSeries.one(2, grain=1), FracSeries.one(2, grain=2)
    assert a == b and hash(a) == hash(b)
    assert b in {a} and len({a, b}) == 1
    assert FracSeries.one(3, grain=1) not in {a}
    # equality reads the canonical grid, not the grain a series is stored on
    coarse = FracSeries(3, {0: 1, 1: -2, 6: 5}, 6)
    fine = coarse.rescaled(12)
    assert fine.grain == 12 and fine == coarse and hash(fine) == hash(coarse)
    assert fine != coarse + FracSeries(3, {1: 1}, 6)


def test_coefficient_off_grid_is_zero():
    s = FracSeries(1, {0: 1, 1: -1}, 4)
    assert s.coefficient_at(F(1, 2)) == 0


def test_beyond_cutoff_raises():
    s = FracSeries(1, {0: 1}, 3)
    with pytest.raises(LookupError, match="coefficient at 4 requested, cutoff is 3"):
        s.coefficient_at(4)
    with pytest.raises(LookupError, match="cannot extend cutoff 3 to 5"):
        s.truncated(5)


def test_zero_leading_term_raises():
    with pytest.raises(ArithmeticError, match="cannot invert the zero series"):
        FracSeries.zero(4).inverse()


def test_laurent_tail_inverse():
    # delta-like series q * (1 - q)^24 has inverse with a q^(-1) tail
    one_minus_q = FracSeries(1, {0: 1, 1: -1}, 8)
    s = FracSeries.one(8)
    for _ in range(24):
        s = s * one_minus_q
    s = s.shift(1)
    inv = s.inverse()
    lead_e, lead_c = inv.leading_term()
    assert (lead_e, lead_c) == (F(-1), 1)
    assert inv.coefficient_at(0) == 24
    assert (s * inv).coefficient_at(0) == 1


def fraction_inverse(coeffs, n):
    """b_0..b_n with (sum a_k x^k)(sum b_k x^k) = 1 + O(x^(n+1)), a_0 != 0,
    in Fractions: the slow reference for the integer inverse."""
    b = [1 / F(coeffs[0])]
    for k in range(1, n + 1):
        b.append(-b[0] * sum(F(coeffs.get(j, 0)) * b[k - j] for j in range(1, k + 1)))
    return b


def test_inverse_of_a_non_unit_lead_raises():
    with pytest.raises(ArithmeticError,
                       match=r"leading coefficient 2 at q\^\(0\) is not \+-1"):
        FracSeries(1, {0: 2, 1: -3, 2: 5, 4: 1}, 8).inverse()
    with pytest.raises(ArithmeticError, match=r"coefficient -3 at q\^\(1/2\)"):
        FracSeries(2, {1: -3, 2: 1}, 6).inverse()
    # a lead of +-1 inverts in ints, as the Fraction reference does
    for lead in (1, -1):
        coeffs = {0: lead, 1: 4, 3: 7}
        unit = FracSeries(1, coeffs, 8).inverse()
        assert all(type(v) is int for v in unit.coeffs.values())
        assert [unit.coefficient_at(k) for k in range(9)] == fraction_inverse(coeffs, 8)


# ----- ring laws on random series ------------------------------------------

def random_series(rng, grain=None, cutoff_units=12):
    g = grain or rng.choice([1, 2, 3, 4, 6])
    coeffs = {}
    for _ in range(rng.randint(0, 6)):
        k = rng.randint(-3, cutoff_units)
        coeffs[k] = rng.randint(-9, 9)
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
    a = FracSeries(1, {1: 1, 3: 4}, 3)
    b = FracSeries(1, {0: 2, 5: 1}, 5)
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
    s = FracSeries(2, {3: 5, 4: 7, 5: 1, 6: 2}, 6)
    integral = s.extract_weight_class(0)
    assert integral.terms() == [(F(2), 7), (F(3), 2)]
    half = s.extract_weight_class(F(1, 2))
    assert half.terms() == [(F(3, 2), 5), (F(5, 2), 1)]


def test_extract_weight_class_off_grid_residue_is_zero():
    s = FracSeries(2, {0: 1, 1: 3, 2: -2}, 4)
    assert s.grain == 2
    assert s.extract_weight_class(F(1, 3)) == FracSeries.zero(2, grain=2)


def test_json_round_trip():
    rng = random.Random(3)
    for _ in range(20):
        s = random_series(rng)
        t = series_from_dict(json.loads(json.dumps(s.to_dict())))
        assert t == s and t.grain == s.grain and t.cutoff == s.cutoff


def test_json_fraction_format():
    s = FracSeries(2, {1: 3, 2: -2}, 4)
    assert json.dumps(s.to_dict()) == \
        '{"grain": 2, "terms": [[1, "3"], [2, "-2"]], "cutoff": 4}'


def test_json_with_a_fraction_coefficient_does_not_load():
    text = '{"grain": 2, "terms": [[1, "3/4"], [2, "2"]], "cutoff": 4}'
    with pytest.raises(ValueError, match="3/4"):
        series_from_dict(json.loads(text))


def test_shift_round_trip():
    s = FracSeries(1, {0: 1, 2: 5}, 4)
    assert s.shift(F(3, 2)).shift(F(-3, 2)).agrees_with(s)
    assert s.shift(F(3, 2)).coefficient_at(F(7, 2)) == 5


def test_exact_div_divides_every_coefficient():
    s = FracSeries(3, {-1: 6, 2: -12, 5: 3}, 7)
    q = s.exact_div(3)
    assert q.coeffs == {-1: 2, 2: -4, 5: 1} and (q.grain, q.cutoff) == (3, 7)
    assert all(type(v) is int for v in q.coeffs.values())
    assert q * 3 == s


def test_exact_div_remainder_raises_naming_the_exponent():
    s = FracSeries(3, {-1: 6, 2: 7, 5: 4}, 7)
    with pytest.raises(ArithmeticError,
                       match=r"coefficient 7 at q\^\(2/3\) is not divisible by 3"):
        s.exact_div(3)
