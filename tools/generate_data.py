"""Regenerate the package data under src/orbifoldry/data (the Gram matrix
and the four sigmas) and the word-search data under tools/data (the
generator pair and the recorded words).

Pipeline, fully deterministic:
  1. Build the [24,12,8] binary code as the extended quadratic-residue
     code of length 24 (coordinate 0 = the point at infinity over GF(23),
     coordinate 1+r = residue r) and verify dimension, self-duality,
     double evenness, and minimum weight.
  2. Build the rank-24 even unimodular lattice from the code: integer
     coordinate vectors x with all x_i congruent mod 2, the set
     {i : x_i = m+2 (mod 4)} in the code, and sum(x) = 4m (mod 8), with
     inner product (x.y)/8.  Extract a basis by Hermite normal form of a
     standard spanning set and form the Gram matrix.
  3. LLL-reduce the Gram matrix exactly over Fractions (delta = 99/100),
     keeping the unimodular change of basis.
  4. Construct automorphisms in coordinate space (a cyclic permutation
     and an inversion from PSL(2,23), a sign change on an octad, and a
     blockwise I - J/2 map on a sextet of tetrads with one block negated),
     push them to basis coordinates, and take the products A = S*eps_oct
     and B = xi*T as the shipped generator pair.
  5. Transpose to the column-vector convention used by the library,
     verify everything, and search for the order-2p fixed-point-free
     isometries with recorded seeds; record the found words.

Run from the repository root:  python3 tools/generate_data.py
"""

from __future__ import annotations

import json
import sys
import time
from fractions import Fraction
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

from orbifoldry.datafiles import sigma_profile
from orbifoldry.isometry import (
    Isometry,
    _mat_mul as mat_mul,
    cyclotomic_profile,
    multiplicative_order,
)
from orbifoldry.lattice import Lattice
# tools/ is on the path as this script's own directory
from search import DATA_DIR as SEARCH_DIR, GENERATOR_FILES, search_isometry

OUT_DIR = ROOT / "src" / "orbifoldry" / "data"
PRIMES = (3, 5, 7, 13)
SEARCH_SEED_BASE = 20260815
SEARCH_BUDGET = 300

P23 = 23
N = 24


# ----- step 1: the binary code -----------------------------------------


def rref_gf2(rows: list[int]) -> list[int]:
    basis: list[int] = []
    for r in rows:
        cur = r
        for b in basis:
            if cur ^ b < cur:
                cur ^= b
        if cur:
            basis.append(cur)
            basis.sort(reverse=True)
    return basis


def in_span(basis: list[int], v: int) -> bool:
    cur = v
    for b in basis:
        if cur ^ b < cur:
            cur ^= b
    return cur == 0


def build_code() -> list[int]:
    qr = sorted({(x * x) % P23 for x in range(1, P23)})
    rows = []
    for s in range(P23):
        support = [1 + ((a + s) % P23) for a in qr]
        word = 0
        for i in support:
            word |= 1 << i
        if len(support) % 2:
            word |= 1  # parity bit at coordinate 0
        rows.append(word)
    return rref_gf2(rows)


def all_codewords(basis: list[int]) -> list[int]:
    words = [0]
    for b in basis:
        words += [w ^ b for w in words]
    return words


def check_code(basis: list[int]) -> None:
    words = all_codewords(basis)
    assert len(basis) == 12, "code dimension must be 12"
    assert all(bin(w).count("1") % 4 == 0 for w in words), "code must be doubly even"
    assert min(bin(w).count("1") for w in words if w) == 8, "minimum weight must be 8"
    assert all(bin(a & b).count("1") % 2 == 0 for a in basis for b in basis), \
        "code must be self-orthogonal"


# ----- step 2: the lattice ----------------------------------------------


def xgcd(a: int, b: int) -> tuple[int, int, int]:
    old_r, r = a, b
    old_s, s = 1, 0
    old_t, t = 0, 1
    while r:
        q = old_r // r
        old_r, r = r, old_r - q * r
        old_s, s = s, old_s - q * s
        old_t, t = t, old_t - q * t
    return old_r, old_s, old_t


def hnf_rows(rows: list[list[int]]) -> list[list[int]]:
    mat = [list(r) for r in rows]
    m, n = len(mat), len(mat[0])
    r = 0
    for c in range(n):
        piv = next((i for i in range(r, m) if mat[i][c]), None)
        if piv is None:
            continue
        mat[r], mat[piv] = mat[piv], mat[r]
        for i in range(r + 1, m):
            if mat[i][c] == 0:
                continue
            g, u, v = xgcd(mat[r][c], mat[i][c])
            a, b = mat[r][c] // g, mat[i][c] // g
            row_r, row_i = mat[r], mat[i]
            mat[r] = [u * x + v * y for x, y in zip(row_r, row_i)]
            mat[i] = [-b * x + a * y for x, y in zip(row_r, row_i)]
        if mat[r][c] < 0:
            mat[r] = [-x for x in mat[r]]
        for k in range(r):
            q = mat[k][c] // mat[r][c]
            if q:
                mat[k] = [x - q * y for x, y in zip(mat[k], mat[r])]
        r += 1
        if r == min(m, n):
            break
    return [row for row in mat if any(row)]


def codeword_bits(w: int) -> list[int]:
    return [(w >> i) & 1 for i in range(N)]


def in_lattice(code: list[int], x: list[int]) -> bool:
    m = x[0] % 2
    if any(xi % 2 != m for xi in x):
        return False
    support = 0
    for i, xi in enumerate(x):
        if (xi - m) % 4 == 2:
            support |= 1 << i
    return in_span(code, support) and sum(x) % 8 == (4 * m) % 8


def build_basis(code: list[int]) -> list[list[int]]:
    span = [[2 * bit for bit in codeword_bits(b)] for b in code]
    for i in range(1, N):
        v = [0] * N
        v[0], v[i] = 4, 4
        span.append(v)
    tail = [1] * N
    tail[0] = -3
    span.append(tail)
    for v in span:
        assert in_lattice(code, v), f"spanning vector outside the lattice: {v}"
    basis = hnf_rows(span)
    assert len(basis) == N, "basis must have full rank"
    return basis


def gram_of(basis: list[list[int]]) -> list[list[int]]:
    gram = [[sum(bi[k] * bj[k] for k in range(N)) for bj in basis] for bi in basis]
    assert all(x % 8 == 0 for row in gram for x in row), "inner products must be /8-integral"
    return [[x // 8 for x in row] for row in gram]


# ----- step 3: exact LLL on the Gram matrix -----------------------------


def lll_gram(gram: list[list[int]], delta: Fraction = Fraction(99, 100)):
    """Returns (reduced_gram, transform) with reduced = T @ gram @ T.T.

    Gram-Schmidt runs in full at the top of each pass, that is after a
    swap; a size reduction updates mu in place (Cohen, GTM 138, 2.6).
    """
    n = len(gram)
    g = [[Fraction(x) for x in row] for row in gram]
    u = [[int(i == j) for j in range(n)] for i in range(n)]

    def gso():
        mu = [[Fraction(0)] * n for _ in range(n)]
        norms = [Fraction(0)] * n
        r = [[Fraction(0)] * n for _ in range(n)]
        for i in range(n):
            for j in range(i + 1):
                s = g[i][j]
                for k in range(j):
                    s -= mu[j][k] * r[i][k]
                r[i][j] = s
                if j < i:
                    mu[i][j] = s / norms[j]
            norms[i] = r[i][i]
        return mu, norms

    while True:
        mu, norms = gso()
        changed = False
        for k in range(1, n):
            for j in range(k - 1, -1, -1):
                q = round(mu[k][j])
                if q:
                    changed = True
                    for t in range(n):
                        u[k][t] -= q * u[j][t]
                    g[k] = [g[k][t] - q * g[j][t] for t in range(n)]
                    for t in range(n):
                        if t != k:
                            g[t][k] -= q * g[t][j]
                    g[k][k] -= q * g[k][j]
                    # b_k -= q b_j moves only row k of mu, and no norm
                    for t in range(j):
                        mu[k][t] -= q * mu[j][t]
                    mu[k][j] -= q
        swapped = False
        for k in range(1, n):
            if norms[k] < (delta - mu[k][k - 1] ** 2) * norms[k - 1]:
                g[k], g[k - 1] = g[k - 1], g[k]
                for t in range(n):
                    g[t][k], g[t][k - 1] = g[t][k - 1], g[t][k]
                u[k], u[k - 1] = u[k - 1], u[k]
                swapped = True
                break
        if not swapped and not changed:
            return [[int(x) for x in row] for row in g], u


# ----- step 4: automorphisms in basis coordinates -----------------------


def mat_inv_frac(a):
    n = len(a)
    aug = [[Fraction(a[i][j]) for j in range(n)] +
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


def to_basis(basis, basis_inv, coord_map):
    """Coordinate map R (rows act on the right) -> basis map B R B^-1;
    must come out integral."""
    br = mat_mul([[Fraction(x) for x in row] for row in basis], coord_map)
    m = mat_mul(br, basis_inv)
    out = []
    for row in m:
        assert all(x.denominator == 1 for x in row), "map does not preserve the lattice"
        out.append([int(x) for x in row])
    return out


def coord_of(z):
    return 0 if z is None else 1 + z


def moebius_perm(fz):
    perm = [0] * N
    for i in range(N):
        z = None if i == 0 else i - 1
        perm[i] = coord_of(fz(z))
    return perm


def perm_matrix(perm):
    return [[Fraction(int(perm[i] == j)) for j in range(N)] for i in range(N)]


def sign_matrix(support):
    return [[Fraction((-1 if i in support else 1) * int(i == j)) for j in range(N)]
            for i in range(N)]


def sextet_from_tetrad(code, tetrad):
    """The five weight-8 words containing the tetrad partition the other
    20 coordinates into five more tetrads."""
    words = [w for w in all_codewords(code) if bin(w).count("1") == 8]
    tset = set(tetrad)
    parts = [sorted(tset)]
    for w in words:
        s = {i for i in range(N) if w >> i & 1}
        if tset <= s:
            parts.append(sorted(s - tset))
    flat = sorted(x for part in parts for x in part)
    assert flat == list(range(N)), "sextet must partition the coordinates"
    return parts


def xi_matrix(sextet, neg_index):
    """Blockwise eta = I - J/2 on each tetrad, negated on one block."""
    r = [[Fraction(0)] * N for _ in range(N)]
    for t_i, part in enumerate(sextet):
        sign = -1 if t_i == neg_index else 1
        for a in part:
            for b in part:
                r[a][b] = sign * (Fraction(1, 2) if a == b else Fraction(-1, 2))
    return r


# ----- output helpers ----------------------------------------------------


def write_matrix(path: Path, matrix, header: list[str]) -> None:
    lines = [f"# {h}" for h in header]
    lines.append(str(len(matrix)))
    for row in matrix:
        lines.append(" ".join(str(x) for x in row))
    path.write_text("\n".join(lines) + "\n")


def main() -> None:
    t0 = time.time()
    OUT_DIR.mkdir(parents=True, exist_ok=True)
    SEARCH_DIR.mkdir(parents=True, exist_ok=True)

    code = build_code()
    check_code(code)
    print(f"[1/5] code built and checked ({time.time() - t0:.1f}s)", flush=True)

    basis = build_basis(code)
    gram = gram_of(basis)
    lattice_raw = Lattice(gram=tuple(tuple(r) for r in gram))
    assert lattice_raw.determinant() == 1, "lattice must be unimodular"
    print(f"[2/5] basis and Gram matrix done ({time.time() - t0:.1f}s)", flush=True)

    gram_red, transform = lll_gram(gram)
    check = mat_mul(mat_mul(transform, gram), list(map(list, zip(*transform))))
    assert check == gram_red, "LLL transform mismatch"
    lattice = Lattice(gram=tuple(tuple(r) for r in gram_red))
    assert lattice.determinant() == 1
    print(f"[3/5] exact LLL reduction done ({time.time() - t0:.1f}s)", flush=True)

    basis_inv = mat_inv_frac(basis)
    perm_s = moebius_perm(lambda z: None if z is None else (z + 1) % P23)
    perm_t = moebius_perm(
        lambda z: 0 if z is None else (None if z == 0 else (-pow(z, P23 - 2, P23)) % P23))
    octad = next(w for w in all_codewords(code) if bin(w).count("1") == 8)
    octad_support = {i for i in range(N) if octad >> i & 1}
    sextet = sextet_from_tetrad(code, [0, 1, 2, 3])

    gen_s = to_basis(basis, basis_inv, perm_matrix(perm_s))
    gen_t = to_basis(basis, basis_inv, perm_matrix(perm_t))
    gen_e = to_basis(basis, basis_inv, sign_matrix(octad_support))
    gen_x = to_basis(basis, basis_inv, xi_matrix(sextet, 0))

    # change to the LLL basis, then transpose to the column-vector convention
    transform_inv = [[int(x) for x in row] for row in mat_inv_frac(transform)]

    def shipped(m_row):
        conj = mat_mul(mat_mul(transform, m_row), transform_inv)
        return [list(col) for col in zip(*conj)]

    gen_a = shipped(mat_mul(gen_s, gen_e))
    gen_b = shipped(mat_mul(gen_x, gen_t))
    iso_a = Isometry(lattice, gen_a)
    iso_b = Isometry(lattice, gen_b)
    print(f"[4/5] generator pair built and verified ({time.time() - t0:.1f}s)", flush=True)

    words: dict[str, dict] = {}
    sigmas = {}
    for p in PRIMES:
        seed = SEARCH_SEED_BASE + p
        result = search_isometry([iso_a, iso_b], sigma_profile(p),
                                 budget=SEARCH_BUDGET, seed=seed)
        g = result.isometry
        assert multiplicative_order(g) == 2 * p
        dims = cyclotomic_profile(g).eigenspace_dims(2 * p)
        assert sum(dims) == N and dims[0] == 0
        sigmas[p] = g
        words[str(p)] = {"word": list(result.word), "seed": seed,
                         "budget": SEARCH_BUDGET}
        print(f"      p={p}: sigma found, word length {len(result.word)}, "
              f"order {2 * p} ({time.time() - t0:.1f}s)", flush=True)

    write_matrix(OUT_DIR / "leech_gram.txt", gram_red, [
        "Gram matrix of the rank-24 even unimodular lattice with minimal norm 4.",
        "Built from the extended quadratic-residue [24,12,8] code and LLL-reduced",
        "with an exact unimodular transform.  Regenerate: tools/generate_data.py",
    ])
    for name, iso, desc in zip(GENERATOR_FILES, (iso_a, iso_b), (
        "cyclic coordinate shift composed with an octad sign flip",
        "sextet block map (I - J/2 per tetrad, one negated) composed with a coordinate inversion",
    )):
        write_matrix(SEARCH_DIR / name, iso.matrix, [
            "lattice: leech",
            f"Automorphism generator: {desc}.",
            "Column-vector convention: matrix.T @ gram @ matrix = gram.",
            "Regenerate: tools/generate_data.py",
        ])
    for p in PRIMES:
        order = 2 * p
        mult = 24 // (p - 1)
        write_matrix(OUT_DIR / f"sigma_p{p}.txt", sigmas[p].matrix, [
            "lattice: leech",
            f"Fixed-point-free isometry of order {order}: characteristic polynomial",
            f"is the {order}-th cyclotomic polynomial to the power {mult}.",
            "Column-vector convention: matrix.T @ gram @ matrix = gram.",
            "Regenerate: tools/generate_data.py",
        ])
    (SEARCH_DIR / "isometry_words.json").write_text(json.dumps({
        "generators": list(GENERATOR_FILES),
        "comment": "sigma_pP.txt equals the product of the generator matrices "
                   "at these indices, applied left to right; found by "
                   "search_isometry with the recorded seed and budget",
        "sigma": words,
    }, indent=2) + "\n")
    print(f"[5/5] wrote {1 + len(PRIMES)} data files to {OUT_DIR} and 3 to "
          f"{SEARCH_DIR} ({time.time() - t0:.1f}s)", flush=True)


if __name__ == "__main__":
    main()
