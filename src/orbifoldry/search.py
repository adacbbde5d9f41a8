"""Seeded random word search for an isometry with a given spectrum.

Products of generator words are bare integer matrices, not isometries
built from a Gram check, so their cyclotomic profiles are certified
here by M^order = I before anything is trusted; the word found is then
wrapped as a verified Isometry, whose certified profile must equal the
target.  Only the data generator and the `isometry search` command run
this; loading data does not.
"""

from __future__ import annotations

import random
from typing import NamedTuple, Sequence

from .isometry import (
    CycloProfile,
    Isometry,
    NonCyclotomicFactor,
    _charpoly,
    _lifted_profile,
    _mat_mul,
    cyclotomic_profile,
    power_profile,
    verify_isometry,
)
from .lattice import _identity

DEFAULT_SEARCH_BUDGET = 4000


class NotFound(LookupError):
    """The word search exhausted its budget without hitting the target."""


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


def _profile_of_matrix(matrix: Sequence[Sequence[int]], rank: int) -> CycloProfile:
    """Certified cyclotomic profile of a bare integer matrix: the lift
    must factor into cyclotomic polynomials and M^order = I must hold."""
    profile = _lifted_profile(_charpoly(matrix))
    if _mat_power(matrix, profile.order) != _identity(rank):
        raise NonCyclotomicFactor(
            f"M^{profile.order} != I: the matrix is not of finite order")
    return profile


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
    Deterministic for a given seed.  The matrix found passes the Gram
    check of verify_isometry, and its certified profile must equal the
    target; that profile is exact, so it already says which powers fix
    a vector.
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
    if cyclotomic_profile(result) != target:
        raise AssertionError("search result fails profile re-verification")
