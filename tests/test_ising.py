"""Central charge 1/2 characters against a brute-force fermionic oracle.

The oracle counts subsets of half-odd-integer modes by total weight and
parity (a 0/1 knapsack), and partitions into distinct positive parts —
no series arithmetic involved.
"""

from fractions import Fraction

import pytest

from orbifoldry.ising import (
    c12_character,
    extension_weight_one_check,
)


def fermionic_counts(max_units):
    """counts[u][parity]: subsets of modes 1/2, 3/2, 5/2, ... with total
    weight u/2 and the given cardinality parity."""
    counts = [[0, 0] for _ in range(max_units + 1)]
    counts[0][0] = 1
    mode = 1
    while mode <= max_units:
        for total in range(max_units, mode - 1, -1):
            for parity in (0, 1):
                counts[total][parity ^ 1] += counts[total - mode][parity]
        mode += 2
    return counts


def distinct_partition_counts(max_n):
    counts = [0] * (max_n + 1)
    counts[0] = 1
    for part in range(1, max_n + 1):
        for total in range(max_n, part - 1, -1):
            counts[total] += counts[total - part]
    return counts


def test_neveu_schwarz_characters_match_oracle():
    cutoff = Fraction(10)
    ch0 = c12_character(0, cutoff)
    ch_half = c12_character(Fraction(1, 2), cutoff)
    counts = fermionic_counts(20)
    for u in range(21):
        w = Fraction(u, 2)
        assert ch0.coefficient_at(w) == counts[u][0]
        assert ch_half.coefficient_at(w) == counts[u][1]


def test_sixteenth_character_matches_distinct_partitions():
    h = Fraction(1, 16)
    ch = c12_character(h, 10 + h)
    distinct = distinct_partition_counts(10)
    for k in range(11):
        assert ch.coefficient_at(h + k) == distinct[k]


def test_leading_terms_and_heads():
    assert c12_character(0, 4).leading_term() == (Fraction(0), 1)
    assert c12_character(Fraction(1, 2), 4).leading_term() == \
        (Fraction(1, 2), 1)
    assert c12_character(Fraction(1, 16), 4).leading_term() == \
        (Fraction(1, 16), 1)
    ch0 = c12_character(0, 4)
    assert [ch0.coefficient_at(w) for w in range(4)] == [1, 0, 1, 1]
    ch16 = c12_character(Fraction(1, 16), 4)
    head = [ch16.coefficient_at(Fraction(1, 16) + k) for k in range(4)]
    assert head == [1, 1, 1, 2]


def test_sum_and_difference_product_identities():
    """ch0 +- ch_{1/2} are the two alternating products; checked against
    the parity oracle through weight 10."""
    cutoff = Fraction(10)
    ch0 = c12_character(0, cutoff)
    ch_half = c12_character(Fraction(1, 2), cutoff)
    counts = fermionic_counts(20)
    plus = ch0 + ch_half
    minus = ch0 - ch_half
    for u in range(21):
        w = Fraction(u, 2)
        assert plus.coefficient_at(w) == counts[u][0] + counts[u][1]
        assert minus.coefficient_at(w) == counts[u][0] - counts[u][1]


def test_unknown_highest_weight():
    with pytest.raises(ValueError, match="no simple module of weight 1/4"):
        c12_character(Fraction(1, 4), 4)
    with pytest.raises(ValueError):
        c12_character(Fraction(1, 2), Fraction(1, 4))


def test_extension_weight_one_check():
    assert extension_weight_one_check() == 1
    ch0 = c12_character(0, 2)
    ch_half = c12_character(Fraction(1, 2), 2)
    combined = ch0 * ch0 + ch_half * ch_half
    assert combined.coefficient_at(0) == 1
    assert combined.coefficient_at(Fraction(1, 2)) == 0
