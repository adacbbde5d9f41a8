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
from itertools import chain, combinations, product
from math import gcd, isqrt
from operator import mul

import pytest
from basis_change import seeded_unimodular
from integer_det import det_int
from reference_enumeration import (
    enumerate_vectors_by_norm as reference_counts,
    norm as reference_norm,
)

from orbifoldry import enumeration, lattice as lattice_module
from orbifoldry.datafiles import load_leech
from orbifoldry.enumeration import MEMO_MINOR_LIMIT, _scaled_form, _state_width
from orbifoldry.lattice import (
    BudgetExceeded,
    Lattice,
    _bareiss,
    enumerate_vectors_by_norm,
    parse_matrix,
    quotient_invariants,
    smith_normal_form,
)
from orbifoldry.modular import unimodular_theta_rank24
from orbifoldry.qseries import FracSeries


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


def adjugate(m):
    """det m and its adjugate det m * m^-1, for m with nonzero leading
    minors: fraction-free Gauss-Jordan elimination of [m | I], which
    ends at [det m * I | adj m]."""
    n = len(m)
    aug = [list(m[i]) + [int(i == j) for j in range(n)] for i in range(n)]
    prev = 1
    for c in range(n):
        pivot = aug[c][c]
        for i in range(n):
            if i != c:
                f = aug[i][c]
                aug[i] = [(pivot * x - f * y) // prev
                          for x, y in zip(aug[i], aug[c])]
        prev = pivot
    return prev, [row[n:] for row in aug]


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
    lat = Lattice(parse_matrix("1\n2\n"))
    assert lat.rank == 1 and lat.determinant() == 2


def test_load_rejects_odd_diagonal():
    with pytest.raises(ValueError, match="diagonal entry 1 at index 0 is odd"):
        Lattice(parse_matrix("1\n1\n"))


def test_load_rejects_indefinite():
    with pytest.raises(ValueError,
                       match="a leading principal minor is not positive"):
        Lattice(parse_matrix("2\n2 3\n3 2\n"))


def test_load_rejects_malformed():
    for text, message in (
            ("", "empty matrix description"),
            ("x\n", "size is not an integer: 'x'"),
            ("2\n2 0\n", "expected 2 matrix rows, found 1"),
            ("1\n2 0\n", "row 0 has 2 entries, expected 1"),
            ("1\nzz\n", "row 0 contains a non-integer entry"),
            ("1 1\n2\n", "first data line must contain the size alone"),
            ("2\n2 1\n0 2\n", r"gram matrix is not symmetric at \(1,0\)")):
        with pytest.raises(ValueError, match=f"^{message}$"):
            Lattice(parse_matrix(text))


def test_parse_matrix_comments_and_blanks():
    m = parse_matrix("# header\n\n2\n1 2  # trailing\n3 4\n")
    assert m == ((1, 2), (3, 4))


def test_norm_of_vector():
    # the reference norm that the exhaustive box counts rest on
    gram = ((2, 1), (1, 2))
    assert reference_norm(gram, (1, 0)) == 2
    assert reference_norm(gram, (1, -1)) == 2
    assert reference_norm(gram, (1, 1)) == 6


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
        assert det_int(m) == det_oracle(m), m
        order, minors, _ = _bareiss(m)
        assert sorted(order) == list(range(len(m))), m
        # the leading minors of the matrix in the pivot order
        pivoted = [[m[i][j] for j in order] for i in order]
        leading = [det_oracle([row[:k] for row in pivoted[:k]])
                   for k in range(1, len(m) + 1)]
        stop = next((k for k, v in enumerate(leading) if v == 0), len(m) - 1)
        assert minors == leading[:stop + 1], m


def test_determinant_is_the_last_sylvester_minor(monkeypatch):
    rng = random.Random(7717)
    lattices = [load_leech(), Lattice(gram=())]
    for trial in range(40):
        build = random_dense_lattice if trial % 2 else random_sparse_lattice
        lattices.append(build(rng, 1 + trial % 8))
    want = [{0: 1, 2: 0, 4: 196560}] + [reference_counts(lat, 4)
                                        for lat in lattices[1:]]
    # no elimination runs after construction: the determinant and the
    # enumeration's square completion read the one construction ran
    monkeypatch.setattr(lattice_module, "_bareiss", None)
    got = [lat.determinant() for lat in lattices]
    counted = [enumerate_vectors_by_norm(lat, 4) for lat in lattices]
    monkeypatch.undo()
    assert got == [det_int(lat.gram) for lat in lattices]
    assert got[:2] == [1, 1]
    assert counted == want


def test_construction_accepts_exactly_the_positive_definite_grams():
    """Sylvester's criterion runs in the pivot order of the elimination,
    not in file order; it must accept a Gram exactly when every leading
    minor in file order is positive."""
    rng = random.Random(3301)
    accepted = indefinite = singular = 0
    for trial in range(360):
        n = 1 + trial % 6
        if trial % 3 == 0:
            # even symmetric with small entries: mostly indefinite
            g = [[0] * n for _ in range(n)]
            for i in range(n):
                g[i][i] = 2 * rng.randint(-1, 3)
                for j in range(i):
                    g[i][j] = g[j][i] = rng.randint(-2, 2)
        else:
            # 2 B B^T with the first n - 1 rows of B independent, then
            # either a last row dependent on them (singular semidefinite)
            # or the last diagonal entry lowered just past zero
            # determinant (indefinite, every smaller file-order minor
            # positive)
            while True:
                b = [[rng.randint(-1, 1) for _ in range(n)]
                     for _ in range(n - 1)]
                head = [[2 * sum(map(mul, x, y)) for y in b] for x in b]
                if det_oracle(head) > 0:
                    break
            b.append([sum(rng.randint(-1, 1) * x[c] for x in b)
                      for c in range(n)] if trial % 3 == 1 else
                     [rng.randint(-1, 1) for _ in range(n)])
            g = [[2 * sum(map(mul, x, y)) for y in b] for x in b]
            if trial % 3 == 2:
                # the determinant falls by 2 * det(head) per step of -2
                step = 2 * det_oracle(head)
                g[-1][-1] -= 2 * (det_oracle(g) // step + 1)
        leading = [det_oracle([row[:k] for row in g[:k]])
                   for k in range(1, n + 1)]
        if all(m > 0 for m in leading):
            accepted += 1
            assert Lattice(gram=g).determinant() == leading[-1], g
            continue
        if all(m > 0 for m in leading[:-1]):
            indefinite += leading[-1] < 0
            singular += leading[-1] == 0
        with pytest.raises(ValueError,
                           match="a leading principal minor is not positive"):
            Lattice(gram=g)
    assert accepted >= 40 and indefinite >= 40 and singular >= 40


def invariants(a):
    """The Smith invariants of a, carrying empty vectors."""
    return smith_normal_form(a, [()] * len(a), [()] * len(a))


def identity(n):
    return [[int(i == j) for j in range(n)] for i in range(n)]


def mat_mul(a, b):
    return [[sum(map(mul, row, col)) for col in zip(*b)] for row in a]


def test_snf_examples():
    assert invariants([[2, 0], [0, 4]]) == (2, 4)
    assert invariants([[1, 0, 0], [0, 1, 0], [0, 0, 1]]) == (1, 1, 1)
    assert invariants([[2, 1], [0, 3]]) == (1, 6)
    assert invariants([]) == ()
    assert all(type(d) is int for d in invariants([[2, 1], [0, 3]]))


def test_snf_transforms_are_unimodular_and_diagonalize():
    rng = random.Random(901)
    for _ in range(40):
        n = rng.randint(1, 4)
        a = [[rng.randint(-9, 9) for _ in range(n)] for _ in range(n)]
        # carrying the identity gives the rows of U and the columns of V
        left, cols = identity(n), identity(n)
        diag = smith_normal_form(a, left, cols)
        right = [list(row) for row in zip(*cols)]
        assert abs(det_oracle(left)) == 1
        assert abs(det_oracle(right)) == 1
        lar = mat_mul(mat_mul(left, a), right)
        for i in range(n):
            for j in range(n):
                assert lar[i][j] == (diag[i] if i == j else 0)
        for i in range(n - 1):
            d, e = diag[i], diag[i + 1]
            assert (d == 0 and e == 0) or e % d == 0


def test_snf_carries_rows_by_u_and_columns_by_v_transpose():
    rng = random.Random(903)
    for _ in range(200):
        n = rng.randint(1, 5)
        a = [[rng.randint(-9, 9) for _ in range(n)] for _ in range(n)]
        m, m_cols = rng.randint(0, 4), rng.randint(0, 4)
        rows = [[rng.randint(-5, 5) for _ in range(m)] for _ in range(n)]
        cols = [[rng.randint(-5, 5) for _ in range(m_cols)] for _ in range(n)]
        before = [row[:] for row in a]
        left, right_t = identity(n), identity(n)
        diag = smith_normal_form(a, left, right_t)
        carried_rows, carried_cols = [*rows], [*cols]
        assert smith_normal_form(a, carried_rows, carried_cols) == diag
        # U R and V^T C; with m = 0 both sides are n empty rows
        assert [list(r) for r in carried_rows] == mat_mul(left, rows)
        assert [list(c) for c in carried_cols] == mat_mul(right_t, cols)
        assert invariants(a) == diag
        assert a == before


def test_snf_returns_a_diagonal_chain_at_once(monkeypatch):
    # 2I is its own Smith form: no pivot search, and the carried identity
    # comes back as U = V = I
    def no_pivot_search(a, t):
        raise RuntimeError("pivot search")

    off_chain = {((2, 0), (0, 3)): (1, 6), ((-2, 0), (0, 4)): (2, 4),
                 ((4, 0), (0, -2)): (2, 4)}
    with monkeypatch.context() as patch:
        patch.setattr(lattice_module, "_smallest_entry", no_pivot_search)
        left, right_t = identity(24), identity(24)
        doubling = [[2 * x for x in row] for row in identity(24)]
        assert smith_normal_form(doubling, left, right_t) == (2,) * 24
        assert left == right_t == identity(24)
        assert invariants([[1, 0], [0, 6]]) == (1, 6)
        # a diagonal off the chain, or with a sign, needs the kernel
        for a in off_chain:
            with pytest.raises(RuntimeError, match="pivot search"):
                invariants(a)
    # the kernel and the shortcut give the oracle's invariants, positive
    # and in a chain, with transforms that diagonalise
    rng = random.Random(904)
    cases = [*off_chain] + [
        tuple(tuple(rng.randint(-6, 6) * (i == j) for j in range(n))
              for i in range(n)) for n in (1, 2, 3, 4) for _ in range(25)]
    for a in cases:
        n = len(a)
        left, right_t = identity(n), identity(n)
        diag = smith_normal_form(a, left, right_t)
        assert list(diag) == minor_gcd_invariants(a), a
        assert diag == off_chain.get(a, diag)
        assert abs(det_oracle(left)) == abs(det_oracle(right_t)) == 1
        lar = mat_mul(mat_mul(left, a), [list(c) for c in zip(*right_t)])
        assert lar == [[diag[i] * (i == j) for j in range(n)]
                       for i in range(n)]


def test_snf_rejects_a_carried_vector_count_off_the_shape():
    with pytest.raises(ValueError, match="matrix must be square"):
        smith_normal_form([[1, 2]], [()], [()])
    with pytest.raises(ValueError, match="one carried vector"):
        smith_normal_form([[2, 0], [0, 2]], [()], [(), ()])
    with pytest.raises(ValueError, match="one carried vector"):
        smith_normal_form([[2, 0], [0, 2]], [(), ()], [(), (), ()])


def test_snf_matches_minor_gcd_oracle():
    rng = random.Random(902)
    for _ in range(40):
        n = rng.randint(1, 4)
        a = [[rng.randint(-9, 9) for _ in range(n)] for _ in range(n)]
        assert list(invariants(a)) == minor_gcd_invariants(a)


def test_quotient_invariants_examples():
    lat = Lattice(gram=((2, 0), (0, 2)))
    assert quotient_invariants(lat, [[1, 0], [0, 1]]) == []
    assert quotient_invariants(lat, [[2, 0], [0, 2]]) == [2, 2]
    with pytest.raises(ArithmeticError, match="matrix has determinant zero"):
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
        except ValueError as exc:
            if str(exc) != "a leading principal minor is not positive":
                raise


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
        # the kernel memoises the levels below the top by their minors in
        # pivot order
        minors = pivoted_minors(lat)
        unmemoised += any(m > MEMO_MINOR_LIMIT for m in minors[:-1])
    assert unmemoised >= 10


def pivot_order(lat):
    """The basis order the kernel works in, chosen at construction."""
    return lat._elimination[0]


def pivoted_minors(lat):
    """The leading minors of the Gram matrix in the kernel's order,
    computed from scratch."""
    order = pivot_order(lat)
    gram = [[lat.gram[i][j] for j in order] for i in order]
    return [det_int([row[:k] for row in gram[:k]])
            for k in range(1, lat.rank + 1)]


def permuted(lat, rng):
    """The lattice with its basis vectors in a random order."""
    order = list(range(lat.rank))
    rng.shuffle(order)
    return Lattice(gram=[[lat.gram[i][j] for j in order] for i in order])


def test_counts_do_not_depend_on_the_basis_order():
    rng = random.Random(4242)
    for trial in range(24):
        build = random_dense_lattice if trial % 3 else random_sparse_lattice
        lat = build(rng, 1 + trial % 8)
        max_norm = rng.choice((4, 6, 8))
        want = reference_counts(lat, max_norm)
        assert enumerate_vectors_by_norm(lat, max_norm) == want, lat.gram
        shuffled = permuted(lat, rng)
        assert enumerate_vectors_by_norm(shuffled, max_norm) == want, \
            shuffled.gram


def test_pivot_order_takes_the_least_next_minor():
    rng = random.Random(8128)
    for trial in range(12):
        build = random_dense_lattice if trial % 3 else random_sparse_lattice
        lat = build(rng, 1 + trial % 7)
        gram, order = lat.gram, pivot_order(lat)
        assert sorted(order) == list(range(len(gram)))

        def minor(indices):
            return det_oracle([[gram[i][j] for j in indices] for i in indices])

        for k in range(len(gram)):
            least = min(minor(order[:k] + [j]) for j in order[k:])
            assert minor(order[:k + 1]) == least, (gram, k)
        # the construction keeps these minors
        assert lat._elimination[1] == [minor(order[:k + 1])
                                       for k in range(len(gram))]


def sheared(lat, rng, size):
    """The lattice in the basis b'_i = b_i + sum_{j<i} c_ij b_j, each c_ij
    of about `size`: the pivot order stays the identity and the
    Gram-Schmidt lengths those of lat's basis, while the short vectors
    take coordinates of about size^(rank-1)."""
    n = lat.rank
    c = [[int(i == j) if j >= i else
          rng.choice((-1, 1)) * rng.randint(size, 2 * size)
          for j in range(n)] for i in range(n)]
    return Lattice(gram=[[sum(c[i][a] * lat.gram[a][b] * c[j][b]
                              for a in range(n) for b in range(n))
                          for j in range(n)] for i in range(n)])


def test_state_width_is_read_from_the_gram(monkeypatch):
    # a basis change with entries about 10^12 puts the coordinates of the
    # short vectors, and the centres the search state holds, far beyond
    # 64 bits; the field width follows them
    rng = random.Random(1012)
    for rank in (4, 5, 6):
        lat = random_dense_lattice(rng, rank)
        far = sheared(lat, rng, 10**12)
        assert pivot_order(far) == list(range(rank))
        assert _state_width(_scaled_form(far), 6) > 64
        want = reference_counts(far, 6)
        assert enumerate_vectors_by_norm(far, 6) == want, far.gram
        assert enumerate_vectors_by_norm(lat, 6) == want
        # fields of a fixed 64 bits carry into each other here
        with monkeypatch.context() as patch:
            patch.setattr(enumeration, "_state_width", lambda form, norm: 64)
            assert enumerate_vectors_by_norm(far, 6) != want


@pytest.mark.parametrize("limit", [0, 12])
def test_enumerate_with_fewer_memoised_levels(monkeypatch, limit):
    # limit 0 memoises nothing; 12 memoises only the lowest levels
    monkeypatch.setattr(enumeration, "MEMO_MINOR_LIMIT", limit)
    rng = random.Random(77 + limit)
    for trial in range(16):
        lat = random_dense_lattice(rng, 1 + trial % 8)
        assert enumerate_vectors_by_norm(lat, 10) == reference_counts(lat, 10)


def test_coset_keys_match_the_dual_quotient(leech):
    """Two prefixes x_{>k} get one key at level k exactly when
    G_k^{-1} (y - y') is integral, y = G[0..k][>k] x_{>k}: the same coset
    of L_k in its dual.  They share a memo entry, which a miss stores
    under its key and its negated key, exactly when G_k^{-1} (y - y') or
    G_k^{-1} (y + y') is integral.  Keys are read as the kernel reads
    them, from the parent's coordinates x_{>k+1} plus one step in x_{k+1},
    and the negated key is the key of -x_{>k}.  G is the Gram matrix in the
    kernel's basis order, and the key moduli are the invariants > 1 of a
    Smith form of each leading block computed from scratch.  Prefixes
    that share an entry have the same scaled projected norm mod scale,
    so the key needs no radius.  Last comes Leech under a seeded change
    of basis, whose exact transforms reach 73 bits."""
    rng = random.Random(5311)
    u, _ = seeded_unimodular(random.Random(11), 24, 10)
    changed = Lattice(gram=mat_mul(mat_mul([*zip(*u)], leech.gram), u))
    same, opposite, differ = coset_key_tallies(
        rng, chain(random_lattices(rng, 30), [changed]))
    assert same >= 100 and opposite >= 50 and differ >= 100


def test_coset_keys_through_unmemoised_levels(monkeypatch, leech):
    # Leech's leading minors rise above 12 and fall below it again: the
    # Smith forms are bordered through the levels that key no coset, on
    # to the memoised levels above them
    monkeypatch.setattr(enumeration, "MEMO_MINOR_LIMIT", 12)
    keys = _scaled_form(leech).keys
    # minors 4, 12, 32, ..., 36, 12, 4, 1 in the pivot order
    assert [k for k, rows in enumerate(keys) if rows is not None] == \
        [0, 1, 21, 22]
    rng = random.Random(6029)
    same, opposite, differ = coset_key_tallies(
        rng, [leech, *random_lattices(rng, 30)])
    assert same >= 20 and differ >= 20


def random_lattices(rng, trials):
    for trial in range(trials):
        build = random_dense_lattice if trial % 3 else random_sparse_lattice
        yield build(rng, 1 + trial % 8)


def coset_key_tallies(rng, lattices):
    """Check the keys of random prefixes on each lattice; count the pairs
    in one coset, in opposite cosets, and in neither."""
    same = opposite = differ = 0
    for lat in lattices:
        n = lat.rank
        form = _scaled_form(lat)
        order = pivot_order(lat)
        gram = [[lat.gram[i][j] for j in order] for i in order]
        minors = pivoted_minors(lat)
        for k, key_map in enumerate(form.keys):
            if k == n - 1 or minors[k] > enumeration.MEMO_MINOR_LIMIT:
                assert key_map is None
                continue
            block = [row[:k + 1] for row in gram[:k + 1]]
            assert [m for _, _, m in key_map] == [
                d for d in invariants(block) if d > 1]
            det, adj = adjugate(block)
            assert det == minors[k]

            def key(prefix):
                """The digits, the negated digits, adj(G_k) y, and the
                scaled norm of the prefix's vector projected away from L_k:
                scale (|w|^2 - y^T G_k^-1 y), w = sum_{i>k} x_i b_i."""
                x = [0] * (k + 1) + prefix
                digits, negated = [], []
                for t, step, m in key_map:
                    assert len(t) == n - k - 2
                    base = sum(a * c for a, c in zip(t, prefix[1:]))
                    digits.append((base + step * prefix[0]) % m)
                    negated.append(-(base + step * prefix[0]) % m)
                y = [sum(gram[i][j] * x[j] for j in range(k + 1, n))
                     for i in range(k + 1)]
                norm = sum(x[i] * gram[i][j] * x[j]
                           for i in range(k + 1, n) for j in range(k + 1, n))
                solved = [sum(map(mul, row, y)) for row in adj]
                projected = form.scale * (det * norm - sum(map(mul, y, solved)))
                assert projected % det == 0
                return tuple(digits), tuple(negated), solved, projected // det

            def integral(solved_a, solved_b, sign):
                # G_k^-1 (y_a + sign y_b) = adj(G_k) (y_a + sign y_b) / det
                return all((a + sign * b) % det == 0
                           for a, b in zip(solved_a, solved_b))

            prefixes = [[rng.randint(-2, 2) for _ in range(n - k - 1)]
                        for _ in range(10)]
            keyed = [key(prefix) for prefix in prefixes]
            for prefix, (_, negated, _, _) in zip(prefixes, keyed):
                assert key([-x for x in prefix])[0] == negated
            for (key_a, neg_a, solved_a, norm_a), (key_b, _, solved_b, norm_b) \
                    in combinations(keyed, 2):
                coset = integral(solved_a, solved_b, -1)
                assert (key_a == key_b) == coset, (gram, k)
                shared = coset or integral(solved_a, solved_b, 1)
                assert (key_b in (key_a, neg_a)) == shared, (gram, k)
                # the kernel keys a table by the digits alone: prefixes
                # that share an entry leave the same radius mod scale
                if shared:
                    assert (norm_a - norm_b) % form.scale == 0, (gram, k)
                same += coset
                opposite += shared and not coset
                differ += not shared
    return same, opposite, differ


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


# ----- theta series from the counts -----------------------------------------


def test_theta_one_dimensional():
    # Z with norm 2: the vectors of norm 2n^2 are +-n, and at grain 2 the
    # counts keyed by norm are the theta series in q^(norm/2)
    counts = enumerate_vectors_by_norm(Lattice(gram=((2,),)), 8)
    series = FracSeries(2, counts, 8)
    assert [series.coefficient_at(w) for w in range(5)] == [1, 2, 0, 0, 2]
    assert series.weight_cutoff == 4


def test_theta_rank_zero_is_one():
    counts = enumerate_vectors_by_norm(Lattice(gram=()), 10)
    assert counts == {0: 1, 2: 0, 4: 0, 6: 0, 8: 0, 10: 0}
    assert FracSeries(2, counts, 10) == FracSeries.one(5)


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


def test_leech_keys_move_few_digits(leech):
    # a search reads a digit with step 0 once, not once per candidate
    keys = _scaled_form(leech).keys
    moving = [sum(1 for _, step, _ in rows if step) for rows in keys[:-1]]
    assert max(moving) == 2 and sum(moving) == 26


def test_leech_norm_six_budget_is_exact(leech):
    # every candidate counts and a memo hit visits none
    assert enumerate_vectors_by_norm(leech, 6, budget=26_312)[6] == 16773120
    with pytest.raises(BudgetExceeded):
        enumerate_vectors_by_norm(leech, 6, budget=26_311)


def test_leech_norm_two_costs_at_most_the_reference(leech):
    # a small radius: the memo searches each coset pair once at the full
    # radius, so it must not visit more candidates than the
    # one-candidate-at-a-time reference kernel
    reference = 15_124
    assert reference_counts(leech, 2, budget=reference) == {0: 1, 2: 0}
    with pytest.raises(BudgetExceeded):
        reference_counts(leech, 2, budget=reference - 1)
    # 13,848 candidates
    assert enumerate_vectors_by_norm(leech, 2, budget=reference) == {0: 1, 2: 0}


def test_leech_counts_do_not_depend_on_the_basis_order(leech):
    shuffled = permuted(leech, random.Random(24))
    assert shuffled.gram != leech.gram
    assert enumerate_vectors_by_norm(shuffled, 8) == \
        enumerate_vectors_by_norm(leech, 8)


def test_leech_theta_through_norm_twenty(leech):
    counts = enumerate_vectors_by_norm(leech, 20)
    theta = unimodular_theta_rank24(10)
    assert counts == {2 * m: theta.coefficient_at(m) for m in range(11)}
