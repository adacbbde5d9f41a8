"""Integer isometries of a definite lattice.

Validation against the Gram matrix, exact cyclotomic factorization of
characteristic polynomials, and eigenspace dimensions of finite-order
isometries, read off the factorization (CycloProfile.eigenspace_dims).

Spectral facts are computed from a matrix only for an Isometry built
from outside.  The constructor's check M^T G M = G, with G positive
definite, puts M in the finite group Aut(L); so M has finite order, is
diagonalisable, and has roots of unity as eigenvalues.  Its
characteristic polynomial is then exactly the lift of a mod-prime
Hessenberg reduction, a product of cyclotomic polynomials, and
M^order = I for the order they give; no power of M is multiplied out
to confirm it.  What a power g^k has of its own is profile arithmetic:
its cyclotomic profile is power_profile(profile of g, k) and its
characteristic polynomial that profile's product (CycloProfile.charpoly),
so a sector or a twined trace reads g^k without building it.
g.power(k) is for the callers that need the matrix: k is taken mod the
order, the power is made once and cached on g, with its profile preset,
and its matrix is built at once from g^(k // 2), or as I (or -I) when
the profile is Phi_1^n (or Phi_2^n), since a diagonalisable matrix with
every eigenvalue 1 (or -1) is I (or -I).  Matrices from outside are
verified when an Isometry is constructed; powers are products of a
verified matrix and are trusted, and so is -I (negation_isometry), which
preserves every Gram matrix and is built with its profile Phi_2^n preset.
"""

from __future__ import annotations

from functools import cached_property, lru_cache
from math import comb, gcd, lcm
from operator import mul
from typing import NamedTuple, Sequence

from .lattice import Lattice, _freeze, quotient_invariants

# characteristic polynomials are computed modulo this prime and lifted;
# see _charpoly for why one prime is exact for finite-order matrices
CHARPOLY_PRIME = 2**61 - 1


# ----- integer matrix helpers ------------------------------------------


def _mat_mul(a: Sequence[Sequence[int]], b: Sequence[Sequence[int]]) -> list[list[int]]:
    bt = list(zip(*b))
    return [[sum(map(mul, row, col)) for col in bt] for row in a]


# ----- isometry type ----------------------------------------------------


class Isometry:
    """A Gram-preserving integer matrix acting on a lattice.

    The action convention is on column vectors: matrix.T @ gram @ matrix
    must equal gram, which is checked at construction.
    Isometries are equal when their lattices and matrices are.
    """

    # __dict__ holds the cached_property values
    __slots__ = ("lattice", "matrix", "_powers", "__dict__")

    def __init__(self, lattice: Lattice, matrix: Sequence[Sequence[int]]) -> None:
        self.lattice = lattice
        self.matrix = matrix
        # looked up on the class, so that a wrapper set there (the span
        # tracer in perfbench/spans.py, the tests' counters) sees each check
        self.__post_init__()

    def __post_init__(self) -> None:
        self.matrix = matrix = _freeze(self.matrix)
        n = self.lattice.rank
        if len(matrix) != n or any(len(row) != n for row in matrix):
            raise ValueError("matrix shape does not match lattice rank")
        gram = self.lattice.gram
        mt = list(zip(*matrix))
        mg = _mat_mul(mt, gram)
        if _freeze(_mat_mul(mg, matrix)) != gram:
            raise ValueError("matrix.T @ gram @ matrix != gram")
        # det(M)^2 det(G) = det(G) > 0 then forces det(M) = +-1
        self._powers = {}

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Isometry):
            return NotImplemented
        return self.lattice == other.lattice and self.matrix == other.matrix

    def __hash__(self) -> int:
        return hash((self.lattice, self.matrix))

    def __repr__(self) -> str:
        return f"Isometry(lattice={self.lattice!r}, matrix={self.matrix!r})"

    def power(self, k: int) -> Isometry:
        """g^k, k taken mod the order; built once and cached on g.

        A product of copies of a verified isometry preserves the Gram and
        has determinant +-1, so the power is not checked again."""
        profile = self._profile
        k %= profile.order
        if k == 1:
            return self
        power = self._powers.get(k)
        if power is None:
            profile = power_profile(profile, k)
            if len(profile.factors) <= 1 and profile.order <= 2:
                # Phi_1^n or Phi_2^n: every eigenvalue is 1, or every one -1
                n, sign = self.lattice.rank, 3 - 2 * profile.order
                matrix = [[sign * int(i == j) for j in range(n)] for i in range(n)]
            else:
                half = self.power(k // 2).matrix
                matrix = _mat_mul(half, half)
                if k & 1:
                    matrix = _mat_mul(matrix, self.matrix)
            power = self._powers[k] = _trusted(self.lattice, matrix, profile)
        return power

    @cached_property
    def _profile(self) -> CycloProfile:
        # the Gram check put g in the finite group Aut(L), so the lift is
        # exact (_charpoly) and g^order = I holds without a product;
        # power() presets the profile of every power it makes
        return _lifted_profile(_charpoly(self.matrix))

    @cached_property
    def coinvariant_divisors(self) -> tuple[int, ...]:
        """Elementary divisors > 1 of L/(1 - g)L; raises ArithmeticError
        when 1 - g is singular.  The result is kept per lattice by matrix,
        so the negation and a power equal to -1 share one Smith form."""
        known = self.lattice._coinvariants
        if self.matrix not in known:
            n = self.lattice.rank
            one_minus = [[int(r == c) - self.matrix[r][c] for c in range(n)]
                         for r in range(n)]
            known[self.matrix] = tuple(quotient_invariants(self.lattice, one_minus))
        return known[self.matrix]


def _trusted(lattice: Lattice, matrix: Sequence[Sequence[int]],
             profile: CycloProfile) -> Isometry:
    """An Isometry of a matrix known to preserve the Gram, with its known
    profile preset: no Gram check and no charpoly."""
    g = object.__new__(Isometry)
    g.lattice, g.matrix, g._powers = lattice, _freeze(matrix), {}
    g._profile = profile
    return g


def negation_isometry(lattice: Lattice) -> Isometry:
    """-I, which preserves every Gram matrix and has profile Phi_2^n, so
    it is built without a check."""
    n = lattice.rank
    return _trusted(lattice, [[-int(i == j) for j in range(n)] for i in range(n)],
                    CycloProfile.of({2: n}))


# ----- characteristic polynomial and cyclotomic factorization -----------


def _charpoly(matrix: Sequence[Sequence[int]]) -> list[int]:
    """Coefficients of det(xI - M) mod CHARPOLY_PRIME, highest power first,
    lifted to the symmetric range (-P/2, P/2).

    Hessenberg reduction by similarity over GF(P), then the recurrence on
    the leading blocks (Cohen, GTM 138, Alg. 2.2.9): O(n^3) operations.
    The lift is exact when M has finite order: then the true polynomial
    and the lift both have all roots on the unit circle, every coefficient
    is at most C(n, k) in absolute value, and two such polynomials that
    agree mod P are equal because 2 C(n, n/2) < P.  Only Isometry roots
    are reduced here, and their Gram check (M^T G M = G, G positive
    definite) puts them in the finite group Aut(L).
    """
    p = CHARPOLY_PRIME
    n = len(matrix)
    if 2 * comb(n, n // 2) >= p:
        raise ValueError(f"rank {n} is too large for a charpoly mod 2^61 - 1")
    h = [[x % p for x in row] for row in matrix]
    for j in range(n - 2):
        r = next((r for r in range(j + 1, n) if h[r][j]), None)
        if r is None:
            continue
        if r != j + 1:
            h[r], h[j + 1] = h[j + 1], h[r]
            for row in h:
                row[r], row[j + 1] = row[j + 1], row[r]
        pivot_row = h[j + 1]
        inv = pow(pivot_row[j], -1, p)
        for i in range(j + 2, n):
            u = h[i][j] * inv % p
            if u:
                # row_i -= u row_(j+1), then col_(j+1) += u col_i keeps
                # the matrix similar to the input
                h[i] = [(a - u * b) % p for a, b in zip(h[i], pivot_row)]
                for row in h:
                    row[j + 1] = (row[j + 1] + u * row[i]) % p
    # blocks[k] = charpoly of the leading k x k block, low-first
    blocks = [[1]]
    for k in range(n):
        poly = [0] + blocks[k]
        for t, c in enumerate(blocks[k]):
            poly[t] = (poly[t] - h[k][k] * c) % p
        sub = 1
        for i in range(k - 1, -1, -1):
            sub = sub * h[i + 1][i] % p
            if not sub:
                break
            coeff = h[i][k] * sub % p
            for t, c in enumerate(blocks[i]):
                poly[t] = (poly[t] - coeff * c) % p
        blocks.append(poly)
    return [c - p if 2 * c > p else c for c in reversed(blocks[n])]


def euler_phi(d: int) -> int:
    result = d
    x = d
    p = 2
    while p * p <= x:
        if x % p == 0:
            result -= result // p
            while x % p == 0:
                x //= p
        p += 1
    if x > 1:
        result -= result // x
    return result


def _poly_try_div(num: Sequence[int], den: Sequence[int]) -> list[int] | None:
    """Exact quotient of integer polynomials (low-first), or None."""
    if len(num) < len(den):
        return None
    rem = list(num)
    out = [0] * (len(num) - len(den) + 1)
    lead = den[-1]
    for i in range(len(out) - 1, -1, -1):
        top = rem[len(den) - 1 + i]
        if top % lead:
            return None
        q = top // lead
        out[i] = q
        for j, dj in enumerate(den):
            rem[i + j] -= q * dj
    if any(rem[: len(den) - 1]):
        return None
    return out


@lru_cache(maxsize=None)
def cyclotomic_polynomial(d: int) -> tuple[int, ...]:
    """Coefficients of the d-th cyclotomic polynomial, low-first."""
    poly = [0] * d + [1]
    poly[0] = -1
    for e in range(1, d):
        if d % e == 0:
            quotient = _poly_try_div(poly, cyclotomic_polynomial(e))
            if quotient is None:
                raise ArithmeticError("cyclotomic division failed")
            poly = quotient
    return tuple(poly)


class CycloProfile(NamedTuple):
    """Multiset of cyclotomic factors of a characteristic polynomial: sorted
    (d, multiplicity) pairs, all multiplicities >= 1, as `of` builds them."""

    factors: tuple[tuple[int, int], ...]

    @staticmethod
    def of(factors: dict[int, int]) -> CycloProfile:
        return CycloProfile(tuple(sorted((d, e) for d, e in factors.items() if e)))

    def as_dict(self) -> dict[int, int]:
        return dict(self.factors)

    def eigenspace_dims(self, modulus: int) -> tuple[int, ...]:
        """Complex eigenspace dimensions for eigenvalues ζ_m^{-j}, j = 0..m-1,
        the order dividing m: entry j is the multiplicity of Phi_{m/gcd(j,m)}."""
        if modulus < 1:
            raise ValueError("modulus must be positive")
        if modulus % self.order:
            raise ValueError(f"isometry order {self.order} does not divide {modulus}")
        table = self.as_dict()
        return tuple(table.get(modulus // gcd(j, modulus), 0) for j in range(modulus))

    def multiplicity(self, d: int) -> int:
        return dict(self.factors).get(d, 0)

    def charpoly(self) -> tuple[int, ...]:
        """Coefficients of det(xI - M), highest power first, for an M with
        this profile: the product of its cyclotomic factors."""
        poly = [1]
        for d, e in self.factors:
            factor = cyclotomic_polynomial(d)
            for _ in range(e):
                product = [0] * (len(poly) + len(factor) - 1)
                for i, a in enumerate(poly):
                    for j, b in enumerate(factor):
                        product[i + j] += a * b
                poly = product
        return tuple(reversed(poly))

    @property
    def order(self) -> int:
        """Order of a finite-order matrix with this profile: lcm of the d."""
        return lcm(*(d for d, _ in self.factors))


def cyclotomic_profile(g: Isometry) -> CycloProfile:
    """Exact cyclotomic factorization of det(xI - g): certified at a root,
    derived from the root's for a power (cached on g)."""
    return g._profile


def _lifted_profile(charpoly: Sequence[int]) -> CycloProfile:
    """Cyclotomic factorization of a lifted charpoly (highest power first);
    ArithmeticError if it does not factor completely, which a Gram-verified
    isometry, of finite order, cannot reach."""
    poly = list(reversed(charpoly))
    factors: dict[int, int] = {}
    d = 1
    # phi(d) >= sqrt(d/2), so a factor Phi_d of the degree r left has
    # d <= 2 r^2
    while (r := len(poly) - 1) and d <= 2 * r * r:
        if euler_phi(d) <= r:
            cd = cyclotomic_polynomial(d)
            while (quotient := _poly_try_div(poly, cd)) is not None:
                poly = quotient
                factors[d] = factors.get(d, 0) + 1
        d += 1
    if poly != [1]:
        raise ArithmeticError("characteristic polynomial has a non-cyclotomic factor")
    return CycloProfile.of(factors)


def multiplicative_order(g: Isometry) -> int:
    """Least n >= 1 with g^n = identity, from the cyclotomic profile."""
    return cyclotomic_profile(g).order


def power_profile(profile: CycloProfile, k: int) -> CycloProfile:
    """Cyclotomic profile of g^k given the profile of g: each block of
    primitive d-th roots powers onto primitive d/gcd(d,k)-th roots."""
    out: dict[int, int] = {}
    for d, e in profile.factors:
        d2 = d // gcd(d, k)
        out[d2] = out.get(d2, 0) + e * euler_phi(d) // euler_phi(d2)
    return CycloProfile.of(out)

