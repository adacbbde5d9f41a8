"""Integer isometries of a definite lattice.

Validation against the Gram matrix, exact cyclotomic factorization of
characteristic polynomials, eigenspace dimensions of finite-order
isometries, and a seeded random word search over a generator set.

Spectral facts are computed from a matrix only at a root: an Isometry
built from outside.  Its characteristic polynomial is lifted from a
mod-prime Hessenberg reduction and certified by complete cyclotomic
factoring and g^order = I.  Every power g^k is made once and cached on
g, so that a power of a power is the same object as the matching power
of g, and it reads its facts off the root: its cyclotomic profile is
power_profile(profile of g, k), its characteristic polynomial the
product of that profile's factors, and its Smith invariants of 1 - g^k
those of the generator g^gcd(k, order) of the same cyclic subgroup.  A
power's matrix is multiplied out only when something reads it.
Matrices from outside are verified when an Isometry is constructed;
powers are products of a verified matrix and are trusted.
"""

from __future__ import annotations

import random
from functools import cached_property, lru_cache
from math import comb, gcd, lcm
from operator import mul
from typing import Iterable, NamedTuple, Sequence

from .lattice import (
    IntMatrix,
    Lattice,
    _det_int,
    _freeze,
    _identity,
    quotient_invariants,
)

DEFAULT_SEARCH_BUDGET = 4000

# characteristic polynomials are computed modulo this prime and lifted;
# see _charpoly for why one prime is exact for finite-order matrices
CHARPOLY_PRIME = 2**61 - 1


class NotGramPreserving(ValueError):
    """The matrix does not preserve the lattice inner product."""


class NonCyclotomicFactor(ArithmeticError):
    """The matrix is not of finite order: its lifted characteristic
    polynomial has a non-cyclotomic factor, or M^order != I for the order
    the factorization predicts.  Unreachable for verified isometries."""


class OrderDoesNotDivide(ValueError):
    """A modulus m was supplied with g^m != identity."""


class NotFound(LookupError):
    """The word search exhausted its budget without hitting the target."""


# ----- integer matrix helpers ------------------------------------------


def _mat_mul(a: Sequence[Sequence[int]], b: Sequence[Sequence[int]]) -> list[list[int]]:
    bt = list(zip(*b))
    return [[sum(map(mul, row, col)) for col in bt] for row in a]


def _mat_power(matrix: Sequence[Sequence[int]], k: int) -> list[list[int]]:
    n = len(matrix)
    result = _identity(n)
    base = [list(row) for row in matrix]
    while k:
        if k & 1:
            result = _mat_mul(result, base)
        k >>= 1
        if k:
            base = _mat_mul(base, base)
    return result


# ----- isometry type ----------------------------------------------------


class Isometry:
    """A Gram-preserving integer matrix acting on a lattice.

    The action convention is on column vectors: matrix.T @ gram @ matrix
    must equal gram, which is checked at construction.
    Isometries are equal when their lattices and matrices are.

    Every constructed instance is the root of its own power cache.  The
    powers that power() makes skip construction: a product of copies of
    a verified isometry preserves the Gram and has determinant +-1, so
    they are not checked again.  They record the root and exponent they
    came from, delegate to the root's cache, and take their spectral
    facts from the root's certified profile.  A power holds no matrix
    until `.matrix` is first read; then it is built from the cached
    root^(e // 2) and kept.
    """

    # __dict__ holds the cached_property values
    __slots__ = ("lattice", "matrix", "_root", "_exponent", "_powers", "__dict__")

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
            raise NotGramPreserving("matrix.T @ gram @ matrix != gram")
        # det(M)^2 det(G) = det(G) > 0 then forces det(M) = +-1
        self._root = self
        self._exponent = 1
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
        """g^k, negative k taken mod the order; built once.

        The powers of every power of a root g live in g's cache, so
        g.power(i).power(j) is g.power(i * j).
        """
        if k < 0:
            k %= multiplicative_order(self)
        root, e = self._root, self._exponent * k
        if e == 1:
            return root
        cached = root._powers.get(e)
        if cached is None:
            cached = object.__new__(Isometry)
            cached.lattice, cached._root, cached._exponent = root.lattice, root, e
            root._powers[e] = cached
        return cached

    def __getattr__(self, name: str) -> IntMatrix:
        # power() makes a power without its matrix; the first read builds
        # it from the cached root^(e // 2) and keeps it
        if name != "matrix":
            raise AttributeError(name)
        root, e = self._root, self._exponent
        if e == 0:
            matrix = _identity(root.lattice.rank)
        else:
            half = root.power(e // 2).matrix
            matrix = _mat_mul(half, half)
            if e & 1:
                matrix = _mat_mul(matrix, root.matrix)
        self.matrix = frozen = _freeze(matrix)
        return frozen

    def is_identity(self) -> bool:
        return all(self.matrix[i][j] == int(i == j)
                   for i in range(self.lattice.rank)
                   for j in range(self.lattice.rank))

    @cached_property
    def _profile(self) -> CycloProfile:
        root = self._root
        if root is not self:
            # the eigenvalues of root^e are the e-th powers of the root's
            return power_profile(root._profile, self._exponent)
        # the lift is exact once g is shown to have finite order (_charpoly)
        profile = _lifted_profile(_charpoly(self.matrix))
        if not self.power(profile.order).is_identity():
            raise NonCyclotomicFactor(
                f"g^{profile.order} != I: the matrix is not of finite order")
        return profile

    @cached_property
    def charpoly(self) -> tuple[int, ...]:
        """Coefficients of det(xI - M), highest power first: the product
        of the certified cyclotomic factors."""
        poly = [1]
        for d, e in self._profile.factors:
            factor = cyclotomic_polynomial(d)
            for _ in range(e):
                product = [0] * (len(poly) + len(factor) - 1)
                for i, a in enumerate(poly):
                    for j, b in enumerate(factor):
                        product[i + j] += a * b
                poly = product
        return tuple(reversed(poly))

    @cached_property
    def coinvariant_divisors(self) -> tuple[int, ...]:
        """Elementary divisors > 1 of L/(1 - g)L; raises SingularMatrix
        when 1 - g is singular.

        One Smith form per cyclic subgroup: a power root^e delegates to
        h = root^gcd(e, N), N the root's order.  Then root^e = h^j with j
        prime to the order M of h, and (1 - h^j)L = (1 - h)L, since
        1 - h^j = (1 - h)(1 + h + ... + h^(j-1)) and 1 - h = (1 - h^j)(1 +
        h^j + ... + h^(j(k-1))) with jk = 1 mod M.  The result is kept per
        lattice by matrix, so the negation and a power equal to -1 share
        one Smith form.
        """
        root = self._root
        if root is not self:
            e = gcd(self._exponent, multiplicative_order(root))
            if e != self._exponent:
                return root.power(e).coinvariant_divisors
        known = self.lattice._coinvariants
        if self.matrix not in known:
            n = self.lattice.rank
            one_minus = [[int(r == c) - self.matrix[r][c] for c in range(n)]
                         for r in range(n)]
            known[self.matrix] = tuple(quotient_invariants(self.lattice, one_minus))
        return known[self.matrix]


def verify_isometry(lattice: Lattice, matrix: Sequence[Sequence[int]]) -> Isometry:
    """Check Gram preservation; return the wrapped isometry."""
    return Isometry(lattice=lattice, matrix=matrix)


def negation_isometry(lattice: Lattice) -> Isometry:
    n = lattice.rank
    return Isometry(lattice, [[-int(i == j) for j in range(n)] for i in range(n)])


# ----- characteristic polynomial and cyclotomic factorization -----------


def _charpoly(matrix: Sequence[Sequence[int]]) -> list[int]:
    """Coefficients of det(xI - M) mod CHARPOLY_PRIME, highest power first,
    lifted to the symmetric range (-P/2, P/2).

    Hessenberg reduction by similarity over GF(P), then the recurrence on
    the leading blocks (Cohen, GTM 138, Alg. 2.2.9): O(n^3) operations.
    The lift is only a candidate.  It is exact when the lift factors into
    cyclotomic polynomials and M^order = I for the order they give: then
    M has finite order, so the true polynomial and the lift both have all
    roots on the unit circle, every coefficient is at most C(n, k) in
    absolute value, and two such polynomials that agree mod P are equal
    because 2 C(n, n/2) < P.  Callers certify the lift that way.
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


def _poly_try_div(num: list[int], den: list[int]) -> list[int] | None:
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


def cyclotomic_polynomial(d: int, _cache: dict[int, list[int]] = {}) -> list[int]:
    """Coefficients of the d-th cyclotomic polynomial, low-first."""
    if d in _cache:
        return list(_cache[d])
    poly = [0] * d + [1]
    poly[0] = -1
    for e in range(1, d):
        if d % e == 0:
            quotient = _poly_try_div(poly, cyclotomic_polynomial(e))
            if quotient is None:
                raise ArithmeticError("cyclotomic division failed")
            poly = quotient
    _cache[d] = poly
    return list(poly)


@lru_cache(maxsize=None)
def _cyclotomic_orders(rank: int) -> tuple[int, ...]:
    """Every d with phi(d) <= rank, ascending: the orders of the cyclotomic
    factors a rank-n characteristic polynomial can have."""
    # phi(d) >= sqrt(d/2), so phi(d) <= rank forces d <= 2 rank^2; phi of
    # every d up to there by a sieve over the primes
    top = 2 * rank * rank
    phi = list(range(top + 1))
    for p in range(2, top + 1):
        if phi[p] == p:
            for d in range(p, top + 1, p):
                phi[d] -= phi[d] // p
    return tuple(d for d in range(1, top + 1) if phi[d] <= rank)


class CycloProfile:
    """Multiset of cyclotomic factors of a characteristic polynomial,
    stored as sorted (d, multiplicity) pairs with all multiplicities >= 1."""

    __slots__ = ("factors",)

    def __init__(self, factors: Iterable[tuple[int, int]]) -> None:
        self.factors = tuple(sorted((int(d), int(e)) for d, e in factors))
        if any(e < 1 for _, e in self.factors):
            raise ValueError("multiplicities must be positive")

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, CycloProfile):
            return NotImplemented
        return self.factors == other.factors

    def __hash__(self) -> int:
        return hash(self.factors)

    def __repr__(self) -> str:
        return f"CycloProfile(factors={self.factors!r})"

    @staticmethod
    def of(factors: dict[int, int]) -> CycloProfile:
        return CycloProfile(tuple((d, e) for d, e in factors.items() if e))

    def as_dict(self) -> dict[int, int]:
        return dict(self.factors)

    def eigenspace_dims(self, modulus: int) -> tuple[int, ...]:
        """Complex eigenspace dimensions for eigenvalues ζ_m^{-j}, j = 0..m-1,
        the order dividing m: entry j is the multiplicity of Phi_{m/gcd(j,m)}."""
        if modulus < 1:
            raise ValueError("modulus must be positive")
        if modulus % self.order:
            raise OrderDoesNotDivide(f"isometry order {self.order} does not divide {modulus}")
        table = self.as_dict()
        return tuple(table.get(modulus // gcd(j, modulus), 0) for j in range(modulus))

    def multiplicity(self, d: int) -> int:
        return dict(self.factors).get(d, 0)

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
    NonCyclotomicFactor if it does not factor completely."""
    poly = list(reversed(charpoly))
    factors: dict[int, int] = {}
    for d in _cyclotomic_orders(len(charpoly) - 1):
        cd = cyclotomic_polynomial(d)
        while len(poly) > 1:
            quotient = _poly_try_div(poly, cd)
            if quotient is None:
                break
            poly = quotient
            factors[d] = factors.get(d, 0) + 1
        if len(poly) == 1:
            break
    if poly != [1]:
        raise NonCyclotomicFactor("characteristic polynomial has a non-cyclotomic factor")
    return CycloProfile.of(factors)


def _profile_of_matrix(matrix: Sequence[Sequence[int]], rank: int) -> CycloProfile:
    """Certified cyclotomic profile of a bare integer matrix."""
    profile = _lifted_profile(_charpoly(matrix))
    if _mat_power(matrix, profile.order) != _identity(rank):
        raise NonCyclotomicFactor(
            f"M^{profile.order} != I: the matrix is not of finite order")
    return profile


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


def eigenspace_dims(g: Isometry, modulus: int) -> tuple[int, ...]:
    """Complex eigenspace dimensions of g for eigenvalues ζ_m^{-j}, j = 0..m-1
    (CycloProfile.eigenspace_dims); requires g^m = identity."""
    return cyclotomic_profile(g).eigenspace_dims(modulus)


# ----- randomized word search -------------------------------------------


class SearchResult(NamedTuple):
    """Found isometry with the generator word that produces it (indices
    into the generator list, applied left to right as a matrix product)."""

    isometry: Isometry
    word: tuple[int, ...]


def _word_matrix(generators: Sequence[Isometry], word: Sequence[int]) -> list[list[int]]:
    out = _identity(generators[0].lattice.rank)
    for idx in word:
        out = _mat_mul(out, generators[idx].matrix)
    return out


def search_isometry(generators: Sequence[Isometry], target: CycloProfile,
                    budget: int = DEFAULT_SEARCH_BUDGET, seed: int = 0) -> SearchResult:
    """Find a product of generators whose cyclotomic profile equals target.

    Tries each single generator first, then random words of bounded
    length, examining every power of each candidate through its profile.
    Deterministic for a given seed.  The returned word is re-verified:
    profile equality, and (when no power of the target contains the
    factor d=1) absence of fixed vectors in every proper power.
    """
    if not generators:
        raise ValueError("generators must be nonempty")
    lattice = generators[0].lattice
    for g in generators[1:]:
        if g.lattice != lattice:
            raise ValueError("generators act on different lattices")
    rank = lattice.rank
    rng = random.Random(seed)
    words = [(i,) for i in range(len(generators))]
    tried = 0
    while tried < budget:
        if words:
            word = words.pop(0)
        else:
            length = rng.randint(8, 30)
            word = tuple(rng.randrange(len(generators)) for _ in range(length))
        tried += 1
        matrix = _word_matrix(generators, word)
        profile = _profile_of_matrix(matrix, rank)
        for k in range(1, profile.order + 1):
            if power_profile(profile, k) == target:
                found_word = word * k
                result = verify_isometry(lattice, _mat_power(matrix, k))
                _check_found(result, target)
                return SearchResult(isometry=result, word=found_word)
    raise NotFound(f"no generator word matched the target profile in {budget} attempts")


def _check_found(result: Isometry, target: CycloProfile) -> None:
    profile = cyclotomic_profile(result)
    if profile != target:
        raise AssertionError("search result fails profile re-verification")
    order = profile.order
    fixed_free = all(power_profile(profile, i).multiplicity(1) == 0
                     for i in range(1, order))
    if fixed_free:
        # independent matrix-level confirmation: no proper power fixes a vector
        n = result.lattice.rank
        for i in range(1, order):
            mi = [list(row) for row in result.power(i).matrix]
            for r in range(n):
                mi[r][r] -= 1
            if _det_int(mi) == 0:
                raise AssertionError(f"power {i} unexpectedly has a fixed vector")
