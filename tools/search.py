"""Seeded random word search for an isometry with a given spectrum, and
the generator pair it multiplies (tools/data/co0_gen_{a,b}.txt).

Every candidate is a product of Gram-verified generators, so it lies in
Aut(L) and passes the Gram check of the Isometry it is wrapped in; its
profile and powers are then the library's (cyclotomic_profile,
.power(k)), with no M^order = I product of its own.  The word found is
checked once more, as a fresh Isometry of its matrix whose certified
profile must equal the target.  Only tools/generate_data.py runs this;
the package ships its results and verifies them on load.
"""

from __future__ import annotations

import random
from functools import reduce
from pathlib import Path
from typing import NamedTuple, Sequence

from orbifoldry.isometry import (
    CycloProfile,
    Isometry,
    _mat_mul,
    cyclotomic_profile,
    power_profile,
)
from orbifoldry.lattice import Lattice, parse_matrix

DATA_DIR = Path(__file__).resolve().parent / "data"
GENERATOR_FILES = ("co0_gen_a.txt", "co0_gen_b.txt")


class SearchResult(NamedTuple):
    """Found isometry with the generator word that produces it (indices
    into the generator list, applied left to right as a matrix product)."""

    isometry: Isometry
    word: tuple[int, ...]


def load_generators(lattice: Lattice) -> tuple[Isometry, ...]:
    """The pair of automorphism-group generators the words multiply."""
    return tuple(Isometry(lattice, parse_matrix((DATA_DIR / name).read_text()))
                 for name in GENERATOR_FILES)


def search_isometry(generators: Sequence[Isometry], target: CycloProfile,
                    budget: int, seed: int) -> SearchResult:
    """Find a product of generators whose cyclotomic profile equals target.

    Tries each single generator first, then random words of bounded
    length, examining every power of each candidate through its profile.
    Deterministic for a given seed.  The profile is exact, so it already
    says which powers fix a vector.
    """
    if not generators:
        raise ValueError("generators must be nonempty")
    lattice = generators[0].lattice
    if any(g.lattice != lattice for g in generators[1:]):
        raise ValueError("generators act on different lattices")
    rng = random.Random(seed)
    words = [(i,) for i in range(len(generators))]
    for _ in range(budget):
        if words:
            word = words.pop(0)
        else:
            length = rng.randint(8, 30)
            word = tuple(rng.randrange(len(generators)) for _ in range(length))
        candidate = Isometry(lattice, reduce(
            _mat_mul, (generators[i].matrix for i in word)))
        profile = cyclotomic_profile(candidate)
        for k in range(1, profile.order + 1):
            if power_profile(profile, k) == target:
                found = Isometry(lattice, candidate.power(k).matrix)
                if cyclotomic_profile(found) != target:
                    raise AssertionError("search result fails profile re-verification")
                return SearchResult(isometry=found, word=word * k)
    raise LookupError(f"no generator word matched the target profile in {budget} attempts")
