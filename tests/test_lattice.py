"""Lattice machinery tests.

Independent oracles, written before the implementations they check:
  - Smith invariants via the gcd-of-k-minors characterization.
  - Vector counts via naive box enumeration with exact dual bounds, and
    via the one-candidate-at-a-time search in reference_enumeration.
"""

import gc
import random
import tracemalloc
from fractions import Fraction
from itertools import combinations, product
from math import gcd, isqrt

import pytest
from reference_enumeration import enumerate_vectors_by_norm as reference_counts

from orbifoldry import lattice as lattice_module
from orbifoldry.datafiles import load_leech
from orbifoldry.lattice import (
    MEMO_MINOR_LIMIT,
    BudgetExceeded,
    Lattice,
    NotEven,
    NotPositiveDefinite,
    ParseError,
    SingularMatrix,
    _bareiss,
    _det_int,
    _scaled_form,
    enumerate_vectors_by_norm,
    load_lattice,
    parse_matrix,
    quotient_invariants,
    smith_normal_form,
    theta_series,
)
from orbifoldry.modular import unimodular_theta_rank24


# ----- oracles -----------------------------------------------------------


def det_oracle(m) -> int:
    n = len(m)
    if n == 0:
        return 1
    if n == 1:
        return m[0][0]
    total = 0
    for j in range(n):
        if m[0][j]:
            sub = [row[:j] + row[j + 1:] for row in m[1:]]
            total += (-1) ** j * m[0][j] * det_oracle(sub)
    return total


def minor_gcd_invariants(m) -> list[int]:
    """d_k = (gcd of k x k minors) / (gcd of (k-1) x (k-1) minors)."""
    n = len(m)
    out = []
    prev = 1
    for k in range(1, n + 1):
        g = 0
        for rows in combinations(range(n), k):
            for cols in combinations(range(n), k):
                sub = [[m[r][c] for c in cols] for r in rows]
                g = gcd(g, det_oracle(sub))
        if g == 0:
            out.extend([0] * (n - k + 1))
            break
        out.append(g // prev)
        prev = g
    return out


def frac_inverse(m):
    n = len(m)
    aug = [[Fraction(m[i][j]) for j in range(n)] +
           [Fraction(int(i == j)) for j in range(n)] for i in range(n)]
    for c in range(n):
        piv = next(i for i in range(c, n) if aug[i][c])
        aug[c], aug[piv] = aug[piv], aug[c]
        pv = aug[c][c]
        aug[c] = [x / pv for x in aug[c]]
        for i in range(n):
            if i != c and aug[i][c]:
                f = aug[i][c]
                aug[i] = [x - f * y for x, y in zip(aug[i], aug[c])]
    return [row[n:] for row in aug]


def naive_box_counts(gram, max_norm) -> dict[int, int]:
    """Count vectors of each norm <= max_norm by scanning the dual-bound box."""
    n = len(gram)
    inv = frac_inverse(gram)
    bounds = [isqrt(int(max_norm * inv[i][i])) for i in range(n)]
    counts = {m: 0 for m in range(0, max_norm + 1, 2)}
    for x in product(*[range(-b, b + 1) for b in bounds]):
        norm = sum(x[i] * gram[i][j] * x[j] for i in range(n) for j in range(n))
        if norm <= max_norm:
            counts[norm] += 1
    return counts


def random_even_lattice(rng, rank, max_box=200_000):
    while True:
        b = [[rng.randint(-3, 3) for _ in range(rank)] for _ in range(rank)]
        if det_oracle(b) == 0:
            continue
        gram = [[2 * sum(b[i][k] * b[j][k] for k in range(rank))
                 for j in range(rank)] for i in range(rank)]
        inv = frac_inverse(gram)
        box = 1
        for i in range(rank):
            box *= 2 * isqrt(int(20 * inv[i][i])) + 1
        if box <= max_box:
            return Lattice(gram=tuple(tuple(r) for r in gram))


# ----- parsing and validation --------------------------------------------


def test_load_one_dimensional_even():
    lat = load_lattice("1\n2\n", label="a1")
    assert lat.rank == 1 and lat.determinant() == 2


def test_load_rejects_odd_diagonal():
    with pytest.raises(NotEven):
        load_lattice("1\n1\n")


def test_load_rejects_indefinite():
    with pytest.raises(NotPositiveDefinite):
        load_lattice("2\n2 3\n3 2\n")


def test_load_rejects_malformed():
    for text in ("", "x\n", "2\n2 0\n", "1\n2 0\n", "1\nzz\n", "1 1\n2\n"):
        with pytest.raises(ParseError):
            load_lattice(text)
    with pytest.raises(ParseError):
        load_lattice("2\n2 1\n0 2\n")  # asymmetric


def test_parse_matrix_comments_and_blanks():
    m = parse_matrix("# header\n\n2\n1 2  # trailing\n3 4\n")
    assert m == ((1, 2), (3, 4))


def test_norm_of_vector():
    lat = Lattice(gram=((2, 1), (1, 2)))
    assert lat.norm((1, 0)) == 2
    assert lat.norm((1, -1)) == 2
    assert lat.norm((1, 1)) == 6


# ----- Smith normal form ---------------------------------------------------


def test_bareiss_determinant_and_leading_minors_match_oracle():
    rng = random.Random(5150)
    cases = [[[0, 1], [1, 0]], [[0, 0, 1], [0, 1, 0], [1, 0, 0]],
             [[1, 2], [2, 4]], [[0, 3], [0, 5]]]
    for n in range(1, 6):
        for _ in range(8):
            m = [[rng.randint(-3, 3) for _ in range(n)] for _ in range(n)]
            if rng.random() < 0.3:
                m[0][0] = 0  # forces a row swap
            cases.append(m)
    for m in cases:
        assert _det_int(m) == det_oracle(m), m
        minors, sign, _ = _bareiss(m)
        assert sign == 1
        leading = [det_oracle([row[:k] for row in m[:k]]) for k in range(1, len(m) + 1)]
        stop = next((k for k, v in enumerate(leading) if v == 0), len(m) - 1)
        assert minors == leading[:stop + 1], m


def test_snf_examples():
    assert smith_normal_form([[2, 0], [0, 4]]).invariants == (2, 4)
    assert smith_normal_form([[1, 0, 0], [0, 1, 0], [0, 0, 1]]).invariants == (1, 1, 1)
    assert smith_normal_form([[2, 1], [0, 3]]).invariants == (1, 6)


def test_snf_transforms_are_unimodular_and_diagonalize():
    rng = random.Random(901)
    for _ in range(40):
        n = rng.randint(1, 4)
        a = [[rng.randint(-9, 9) for _ in range(n)] for _ in range(n)]
        form = smith_normal_form(a)
        assert abs(det_oracle(form.left)) == 1
        assert abs(det_oracle(form.right)) == 1
        la = [[sum(form.left[i][k] * a[k][j] for k in range(n))
               for j in range(n)] for i in range(n)]
        lar = [[sum(la[i][k] * form.right[k][j] for k in range(n))
                for j in range(n)] for i in range(n)]
        for i in range(n):
            for j in range(n):
                assert lar[i][j] == (form.invariants[i] if i == j else 0)
        for i in range(n - 1):
            d, e = form.invariants[i], form.invariants[i + 1]
            assert (d == 0 and e == 0) or e % d == 0


def test_snf_matches_minor_gcd_oracle():
    rng = random.Random(902)
    for _ in range(40):
        n = rng.randint(1, 4)
        a = [[rng.randint(-9, 9) for _ in range(n)] for _ in range(n)]
        assert list(smith_normal_form(a).invariants) == minor_gcd_invariants(a)


def test_quotient_invariants_examples():
    lat = Lattice(gram=((2, 0), (0, 2)))
    assert quotient_invariants(lat, [[1, 0], [0, 1]]) == []
    assert quotient_invariants(lat, [[2, 0], [0, 2]]) == [2, 2]
    with pytest.raises(SingularMatrix):
        quotient_invariants(lat, [[1, 1], [1, 1]])


def test_quotient_invariants_product_is_determinant():
    rng = random.Random(903)
    lat = random_even_lattice(rng, 4)
    done = 0
    while done < 20:
        m = [[rng.randint(-5, 5) for _ in range(4)] for _ in range(4)]
        d = det_oracle(m)
        if d == 0:
            continue
        prod = 1
        for e in quotient_invariants(lat, m):
            prod *= e
        assert prod == abs(d)
        done += 1


# ----- enumeration ---------------------------------------------------------


def test_enumerate_one_dimensional():
    lat = Lattice(gram=((2,),))
    assert enumerate_vectors_by_norm(lat, 8) == {0: 1, 2: 2, 4: 0, 6: 0, 8: 2}


def test_enumerate_matches_naive_boxes():
    rng = random.Random(904)
    for _ in range(12):
        rank = rng.randint(1, 4)
        lat = random_even_lattice(rng, rank)
        got = enumerate_vectors_by_norm(lat, 20)
        want = naive_box_counts(lat.gram, 20)
        assert got == want
        assert all(c % 2 == 0 for norm, c in got.items() if norm > 0)


def random_dense_lattice(rng, rank):
    """A random even Gram matrix with small entries: many short vectors,
    leading minors mostly below MEMO_MINOR_LIMIT."""
    while True:
        gram = [[0] * rank for _ in range(rank)]
        for i in range(rank):
            gram[i][i] = rng.choice((2, 4, 4, 6))
            for j in range(i):
                gram[i][j] = gram[j][i] = rng.choice((-2, -1, 0, 0, 1, 2))
        try:
            return Lattice(gram=gram)
        except NotPositiveDefinite:
            continue


def random_sparse_lattice(rng, rank):
    """2 B B^T for a random nonsingular B with entries in [-2, 2]: few
    short vectors, leading minors far above MEMO_MINOR_LIMIT from rank 5
    on."""
    while True:
        b = [[rng.randint(-2, 2) for _ in range(rank)] for _ in range(rank)]
        if det_oracle(b):
            return Lattice(gram=tuple(
                tuple(2 * sum(x * y for x, y in zip(bi, bj)) for bj in b)
                for bi in b))


def test_enumerate_matches_reference_kernel():
    rng = random.Random(20261018)
    unmemoised = 0
    for trial in range(64):
        build = random_dense_lattice if trial % 3 else random_sparse_lattice
        lat = build(rng, 1 + trial % 8)
        max_norm = rng.choice((4, 6, 8, 10))
        assert enumerate_vectors_by_norm(lat, max_norm) == \
            reference_counts(lat, max_norm), lat.gram
        minors = _bareiss(lat.gram)[0]
        unmemoised += any(m > MEMO_MINOR_LIMIT for m in minors)
    assert unmemoised >= 10


@pytest.mark.parametrize("limit", [0, 12])
def test_enumerate_with_fewer_memoised_levels(monkeypatch, limit):
    # limit 0 memoises nothing; 12 memoises only the lowest levels
    monkeypatch.setattr(lattice_module, "MEMO_MINOR_LIMIT", limit)
    rng = random.Random(77 + limit)
    for trial in range(16):
        lat = random_dense_lattice(rng, 1 + trial % 8)
        assert enumerate_vectors_by_norm(lat, 10) == reference_counts(lat, 10)


def test_coset_keys_match_the_dual_quotient():
    """Two prefixes x_{>k} get one key at level k exactly when
    G_k^{-1} (y - y') is integral, y = G[0..k][>k] x_{>k}: the same coset
    of L_k in its dual.  Keys are read as the kernel reads them, from the
    parent's centres plus one step in x_{k+1}."""
    rng = random.Random(5311)
    same = differ = 0
    for trial in range(30):
        build = random_dense_lattice if trial % 3 else random_sparse_lattice
        lat = build(rng, 1 + trial % 8)
        gram, n = lat.gram, lat.rank
        form = _scaled_form(gram)
        minors = _bareiss(gram)[0]
        for k, key_map in enumerate(form.keys):
            if k == n - 1 or minors[k] > MEMO_MINOR_LIMIT:
                assert key_map is None
                continue
            moduli = 1
            for _, _, m in key_map:
                assert m > 1
                moduli *= m
            assert moduli == minors[k]
            inverse = frac_inverse([row[:k + 1] for row in gram[:k + 1]])

            def key(prefix):
                x = [0] * (k + 1) + prefix
                parent = [sum(form.columns[j][i] * x[j] for j in range(k + 2, n))
                          for i in range(k + 2)]
                child = [c + w * x[k + 1]
                         for c, w in zip(parent, form.columns[k + 1])]
                digits = []
                for t, step, m in key_map:
                    base = sum(a * c for a, c in zip(t, parent)) // form.scale
                    digit = (base + step * x[k + 1]) % m
                    assert digit == sum(a * c for a, c in zip(t, child)) \
                        // form.scale % m
                    digits.append(digit)
                return tuple(digits), [sum(gram[i][j] * x[j]
                                           for j in range(k + 1, n))
                                       for i in range(k + 1)]

            keyed = [key([rng.randint(-2, 2) for _ in range(n - k - 1)])
                     for _ in range(10)]
            for (key_a, y_a), (key_b, y_b) in combinations(keyed, 2):
                integral = all(
                    sum(f * (a - b) for f, a, b in zip(row, y_a, y_b)).denominator == 1
                    for row in inverse)
                assert (key_a == key_b) == integral, (gram, k)
                same += integral
                differ += not integral
    assert same >= 100 and differ >= 100


def test_enumerate_budget_is_enforced():
    lat = Lattice(gram=((2,),))
    with pytest.raises(BudgetExceeded) as info:
        enumerate_vectors_by_norm(lat, 8, budget=1)
    # the top loop over x = 1, 2 is visited before the budget check
    assert info.value.nodes == 2
    assert "(2 visited" in str(info.value)
    assert enumerate_vectors_by_norm(lat, 8, budget=2)[8] == 2


def test_enumerate_rejects_bad_norm():
    lat = Lattice(gram=((2,),))
    with pytest.raises(ValueError):
        enumerate_vectors_by_norm(lat, -2)
    with pytest.raises(ValueError):
        enumerate_vectors_by_norm(lat, 3)


# ----- theta series ---------------------------------------------------------


def test_theta_one_dimensional():
    series = theta_series(Lattice(gram=((2,),)), 4)
    assert series.coefficient_at(0) == 1
    assert series.coefficient_at(1) == 2
    assert series.coefficient_at(2) == 0
    assert series.coefficient_at(4) == 2


def test_theta_keeps_a_fractional_cutoff():
    series = theta_series(Lattice(gram=((2,),)), Fraction(5, 2))
    assert series.weight_cutoff == Fraction(5, 2)
    assert series.coefficient_at(Fraction(5, 2)) == 0
    assert series.coefficient_at(Fraction(1, 2)) == 0
    assert series.coefficient_at(1) == 2


def test_theta_rank_zero_is_one():
    series = theta_series(Lattice(gram=()), 5)
    assert series.coefficient_at(0) == 1
    assert all(series.coefficient_at(k) == 0 for k in range(1, 6))


# ----- shipped lattice ground truth ----------------------------------------


@pytest.fixture(scope="module")
def leech():
    return load_leech()


def test_leech_invariants(leech):
    assert leech.rank == 24
    assert leech.determinant() == 1
    assert all(leech.gram[i][i] % 2 == 0 for i in range(24))


def test_leech_has_no_short_vectors(leech):
    assert enumerate_vectors_by_norm(leech, 2) == {0: 1, 2: 0}


def test_leech_kissing_number(leech):
    counts = enumerate_vectors_by_norm(leech, 4)
    assert counts == {0: 1, 2: 0, 4: 196560}


def test_leech_norm_six_count(leech):
    # counting by coset visits about 60k candidates; one by one, millions
    counts = enumerate_vectors_by_norm(leech, 6, budget=200_000)
    assert counts[4] == 196560
    assert counts[6] == 16773120



def test_enumeration_frees_its_memo_at_return(leech):
    # the memo tables and histograms (about 1.3 MB at norm 6) must not
    # outlive the call waiting for the cyclic collector
    # a first call fills interpreter free lists, which are not the memo
    enumerate_vectors_by_norm(leech, 6)
    enabled = gc.isenabled()
    gc.disable()
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        assert enumerate_vectors_by_norm(leech, 6)[6] == 16773120
        after = tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
        if enabled:
            gc.enable()
    assert after - before <= 64 * 1024

def test_leech_norm_six_budget_is_exact(leech):
    # every candidate counts and a memo hit visits none
    assert enumerate_vectors_by_norm(leech, 6, budget=60_560)[6] == 16773120
    with pytest.raises(BudgetExceeded):
        enumerate_vectors_by_norm(leech, 6, budget=60_559)


def test_leech_theta_through_norm_twenty(leech):
    counts = enumerate_vectors_by_norm(leech, 20)
    theta = unimodular_theta_rank24(10)
    assert counts == {2 * m: theta.coefficient_at(m) for m in range(11)}
