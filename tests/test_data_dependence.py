"""The report is a function of the lattice and the class of sigma.

Invariance tests change what must not matter (the generator of <sigma>,
the basis of the lattice) and expect the shipped report byte for byte.
Falsifiability tests change what must matter (the lattice, the class of
sigma, one Gram entry) and expect named claims to fail.  Every data
directory is built in the test from the shipped files, from the E8
Cartan matrix or from A_{p-1} and a glue code; no data file is added.
"""

import random
import shutil
from functools import reduce
from math import gcd

import pytest

from orbifoldry.cli import CLAIM_REGISTRY, RunConfig, run_verification_suite
from orbifoldry.datafiles import SUPPORTED_P, load_leech, load_sigma, resolve_data_dir
from orbifoldry.isometry import _mat_mul
from orbifoldry.lattice import Lattice
from orbifoldry.report import Report, emit_report

# ----- data directories -------------------------------------------------------


def write_matrix(path, matrix):
    path.write_text(f"{len(matrix)}\n"
                    + "".join(" ".join(map(str, row)) + "\n" for row in matrix))


def shipped_copy(tmp_path_factory, name):
    dest = tmp_path_factory.mktemp(name) / "data"
    shutil.copytree(resolve_data_dir(), dest)
    return dest


def identity(n):
    return [[int(i == j) for j in range(n)] for i in range(n)]


def block_diagonal(block, copies):
    n = len(block)
    return [[block[r % n][c % n] if r // n == c // n else 0
             for c in range(n * copies)] for r in range(n * copies)]


# E8 in Bourbaki's labels: the chain 1-3-4-5-6-7-8 with 2 on node 4
E8_EDGES = ((0, 2), (2, 3), (3, 4), (4, 5), (5, 6), (6, 7), (1, 3))
E8_CARTAN = [[2 if i == j else -int((i, j) in E8_EDGES or (j, i) in E8_EDGES)
              for j in range(8)] for i in range(8)]


def e8_coxeter_element():
    """c = s_1 ... s_8, of order 30, where the simple reflection s_i sends
    e_j to e_j - G_ij e_i (column convention, so s_i^T G s_i = G)."""
    reflections = [[[int(r == j) - int(r == i) * E8_CARTAN[i][j]
                     for j in range(8)] for r in range(8)] for i in range(8)]
    return reduce(_mat_mul, reflections)


def e8_cubed(tmp_path_factory, p, k):
    """E8^3 with sigma = three copies of c^k, of profile Phi_2p^(24/(p-1))."""
    dest = tmp_path_factory.mktemp(f"e8cubed_p{p}")
    write_matrix(dest / "leech_gram.txt", block_diagonal(E8_CARTAN, 3))
    c_k = reduce(_mat_mul, [e8_coxeter_element()] * k)
    write_matrix(dest / f"sigma_p{p}.txt", block_diagonal(c_k, 3))
    return dest


def echelon_basis(rows):
    """A basis of the span of integer rows, in row echelon form: row k is
    zero left of its pivot, and the pivots move right."""
    rows = [list(row) for row in rows if any(row)]
    basis = []
    while rows:
        col = min(next(c for c, x in enumerate(row) if x) for row in rows)
        active = [row for row in rows if row[col]]
        rows = [row for row in rows if not row[col]]
        # Euclid on column col: reduce every row by the smallest entry
        while len(active) > 1:
            pivot = min(active, key=lambda row: abs(row[col]))
            rest = []
            for row in active:
                if row is not pivot:
                    q = row[col] // pivot[col]
                    row[:] = [x - q * y for x, y in zip(row, pivot)]
                    if row[col]:
                        rest.append(row)
                    elif any(row):
                        rows.append(row)
            active = [pivot, *rest]
        basis.append(active[0])
    return basis


def echelon_coordinates(basis, vector):
    """x with sum x_k basis[k] = vector, by substitution from the left
    pivot: only row k is nonzero at its pivot among rows k, k+1, ..."""
    coords = []
    for row in basis:
        col = next(c for c, x in enumerate(row) if x)
        q, r = divmod(vector[col], row[col])
        assert r == 0
        coords.append(q)
        vector = [x - q * y for x, y in zip(vector, row)]
    assert not any(vector)
    return coords


def niemeier(tmp_path_factory, p, glue):
    """N_p = A_{p-1}^k (k = 24/(p-1)) glued by the words in glue, the
    Niemeier lattice of Coxeter number p, with sigma = -(the cyclic shift
    of the p coordinates of each A_{p-1} in Z^p), of profile Phi_2p^k.

    Vectors are kept in p Z^(pk), p times their coordinates, so that the
    glue vector [i] of A_{p-1}, (i/p)^(p-i) ((i-p)/p)^i, is integral.  The
    shift is a Weyl group element, which fixes each glue class, and -1
    maps the glue code to itself, so sigma preserves N_p."""
    k = 24 // (p - 1)
    roots = [[p * (int(c == b * p + a) - int(c == b * p + a + 1))
              for c in range(p * k)] for b in range(k) for a in range(p - 1)]
    glue_vectors = [[x for i in word for x in [i] * (p - i) + [i - p] * i]
                    for word in glue]
    basis = echelon_basis(roots + glue_vectors)
    gram = [[sum(x * y for x, y in zip(u, v)) // (p * p) for v in basis]
            for u in basis]
    assert len(basis) == 24 and Lattice(gram).determinant() == 1

    def sigma(v):
        return [-v[b * p + (a - 1) % p] for b in range(k) for a in range(p)]

    images = [echelon_coordinates(basis, sigma(u)) for u in basis]
    dest = tmp_path_factory.mktemp(f"niemeier_p{p}")
    write_matrix(dest / "leech_gram.txt", gram)
    # column k of sigma's matrix holds the image of basis vector k
    write_matrix(dest / f"sigma_p{p}.txt", [list(col) for col in zip(*images)])
    return dest


def seeded_unimodular(rng, n, factors):
    """U and U^-1 for U a product of elementary matrices I +- E_ab."""
    u, u_inv = identity(n), identity(n)
    for _ in range(factors):
        a, b = rng.sample(range(n), 2)
        s = rng.choice((1, -1))
        # U <- U (I + s E_ab): column b += s column a; the inverse factor
        # I - s E_ab multiplies U^-1 from the left: row a -= s row b
        for row in u:
            row[b] += s * row[a]
        u_inv[a] = [x - s * y for x, y in zip(u_inv[a], u_inv[b])]
    return u, u_inv


def report_bytes(report):
    """The emitted JSON report with config.data_dir cleared."""
    return emit_report(Report({**report.config, "data_dir": None},
                              report.entries), "json")


@pytest.fixture(scope="module")
def basis_change():
    """A seeded U of 10 elementary factors, and U^-1."""
    u, u_inv = seeded_unimodular(random.Random(11), 24, 10)
    assert _mat_mul(u, u_inv) == identity(24)
    return u, u_inv


@pytest.fixture(scope="module")
def shipped_reports():
    return {p: report_bytes(run_verification_suite(RunConfig(p=p)))
            for p in SUPPORTED_P}


# ----- invariance -------------------------------------------------------------


@pytest.mark.parametrize("p", SUPPORTED_P)
def test_report_is_invariant_under_another_generator_of_sigmas_group(
        tmp_path_factory, shipped_reports, p):
    units = [k for k in range(2, 2 * p) if gcd(k, 2 * p) == 1]
    k = random.Random(2600 + p).choice(units)
    dest = shipped_copy(tmp_path_factory, f"sigma_power_p{p}")
    write_matrix(dest / f"sigma_p{p}.txt", load_sigma(p).power(k).matrix)
    report = run_verification_suite(RunConfig(p=p, data_dir=dest))
    assert report.config["data_dir"] == str(dest)
    assert report_bytes(report) == shipped_reports[p], k


@pytest.mark.parametrize("p", SUPPORTED_P)
def test_report_is_invariant_under_a_change_of_basis(
        tmp_path_factory, basis_change, shipped_reports, p):
    gram, sigma = load_leech().gram, load_sigma(p).matrix
    u, u_inv = basis_change
    dest = shipped_copy(tmp_path_factory, f"basis_p{p}")
    write_matrix(dest / "leech_gram.txt",
                 _mat_mul(_mat_mul(list(zip(*u)), gram), u))
    write_matrix(dest / f"sigma_p{p}.txt",
                 _mat_mul(_mat_mul(u_inv, sigma), u))
    report = run_verification_suite(RunConfig(p=p, data_dir=dest))
    assert report_bytes(report) == shipped_reports[p]


# ----- falsifiability ---------------------------------------------------------


def sigma_squared(tmp_path_factory):
    """Leech with sigma replaced by sigma^2, of order p."""
    dest = shipped_copy(tmp_path_factory, "sigma_squared")
    write_matrix(dest / "sigma_p5.txt", load_sigma(5).power(2).matrix)
    return dest


def gram_pair_changed(tmp_path_factory):
    """Leech with G_01 = G_10 raised by one."""
    dest = shipped_copy(tmp_path_factory, "gram_pair")
    gram = [list(row) for row in load_leech().gram]
    gram[0][1] += 1
    gram[1][0] += 1
    write_matrix(dest / "leech_gram.txt", gram)
    return dest


def cyclic_shifts(word, count):
    return [word[-k:] + word[:-k] for k in range(count)]


# the extended ternary Golay code: the cyclic code of length 11 generated
# by x^5 + x^4 - x^3 + x^2 - 1, each word extended by minus its sum, mod 3
TERNARY_GOLAY = [[x % 3 for x in word + [-sum(word)]] for word in
                 cyclic_shifts([-1, 0, 1, -1, 1, 1, 0, 0, 0, 0, 0], 6)]

# mutant name: (p, builder of its data directory)
MUTANTS = {
    "e8cubed-p3": (3, lambda factory: e8_cubed(factory, 3, 5)),
    "e8cubed-p5": (5, lambda factory: e8_cubed(factory, 5, 3)),
    # A2^12, A4^6, A6^4 and A12^2 (Conway and Sloane, SPLAG, Table 16.1)
    "niemeier-p3": (3, lambda factory: niemeier(factory, 3, TERNARY_GOLAY)),
    "niemeier-p5": (5, lambda factory: niemeier(
        factory, 5, [[1, *word] for word in cyclic_shifts([0, 1, 4, 4, 1], 5)])),
    "niemeier-p7": (7, lambda factory: niemeier(
        factory, 7, [(1, 2, 1, 6), (1, 6, 2, 1), (1, 1, 6, 2)])),
    "niemeier-p13": (13, lambda factory: niemeier(factory, 13, [(1, 5)])),
    "sigma-squared": (5, sigma_squared),
    "gram-pair": (5, gram_pair_changed),
}

# claims whose inputs are the lattice and sigma only through p
CANNOT_FAIL_ON_DATA = ("isotropic-subgroups", "integral-weight-labels",
                       "ising-characters")

READS_SIGMA = ("isometry-witness", "eigenspace-dims", "conformal-weights",
               "defect-dims", "weight-one-dim", "moonshine-character")

FALSIFIABILITY = [
    *(pytest.param(mutant, slug, id=f"{mutant}-{slug}")
      for mutant in ("e8cubed-p3", "e8cubed-p5", "niemeier-p3",
                     "niemeier-p5", "niemeier-p7", "niemeier-p13")
      for slug in ("weight-one-dim", "moonshine-character", "z2-split",
                   "lattice-ground-truth")),
    *(pytest.param("sigma-squared", slug, id=f"sigma-squared-{slug}")
      for slug in READS_SIGMA),
    pytest.param("gram-pair", "lattice-ground-truth",
                 id="gram-pair-lattice-ground-truth"),
]


@pytest.fixture(scope="module")
def mutant_reports(tmp_path_factory):
    """The suite's report on each mutant, run once.  A suite that raises
    fails the row that asked for it: a broken fixture shows nothing."""
    reports = {}

    def run(mutant):
        if mutant not in reports:
            p, build = MUTANTS[mutant]
            reports[mutant] = run_verification_suite(
                RunConfig(p=p, data_dir=build(tmp_path_factory)))
        return reports[mutant]

    return run


@pytest.mark.parametrize("mutant, slug", FALSIFIABILITY)
def test_changed_data_fails_the_claims_that_read_it(mutant_reports, mutant,
                                                     slug):
    report = mutant_reports(mutant)
    entry = next(e for e in report.entries if e.claim == slug)
    assert not entry.passed, entry.computed


def test_every_claim_is_falsifiable_or_listed_as_data_free():
    rows = {param.values[1] for param in FALSIFIABILITY}
    slugs = [spec.slug for spec in CLAIM_REGISTRY]
    assert sorted(rows | set(CANNOT_FAIL_ON_DATA)) == sorted(slugs)
    assert not rows & set(CANNOT_FAIL_ON_DATA)


# mutant: the counts of norms 0, 2, 4 and 6, and N_2 (the number of roots)
THETA_READERS = {
    "e8cubed-p3": ((1, 720, 179280, 16954560), 720),
    "e8cubed-p5": ((1, 720, 179280, 16954560), 720),
    "niemeier-p3": ((1, 72, 194832, 16791264), 72),
    "niemeier-p5": ((1, 120, 193680, 16803360), 120),
    "niemeier-p7": ((1, 168, 192528, 16815456), 168),
    "niemeier-p13": ((1, 312, 189072, 16851744), 312),
}


@pytest.mark.parametrize("mutant", THETA_READERS)
def test_the_lattice_theta_reaches_the_character(mutant_reports, mutant):
    counts, roots = THETA_READERS[mutant]
    p = MUTANTS[mutant][0]
    by_slug = {e.claim: e for e in mutant_reports(mutant).entries}
    assert by_slug["lattice-ground-truth"].computed["norm_counts"] == {
        str(2 * w): c for w, c in enumerate(counts)}
    # the character's weight-one coefficient is N_2 / p; the order-2p
    # extension adds N_2 / 2p untwisted vectors to its 24
    assert by_slug["moonshine-character"].computed["head"] == [
        1, roots // p, 196884]
    assert by_slug["weight-one-dim"].computed["total"] == 24 + roots // (2 * p)
    # the involution fixes e^a + e^-a for each of the N_2 / 2 root pairs
    split = by_slug["z2-split"].computed
    assert (split["even_weight1"], split["twisted_integral_weight1"]) \
        == (roots // 2, 0)
