"""The word search in tools/search.py that found the shipped sigmas, and
the recorded words that replay into them."""

import json
from functools import reduce

import pytest

from orbifoldry.datafiles import load_leech, load_sigma, sigma_profile
from orbifoldry.isometry import (
    CycloProfile,
    Isometry,
    _mat_mul,
    cyclotomic_profile,
    negation_isometry,
)
from tools_search import search


@pytest.fixture(scope="module")
def leech():
    return load_leech()


@pytest.fixture(scope="module")
def generators(leech):
    return search.load_generators(leech)


def test_search_singleton_negation(leech):
    neg = negation_isometry(leech)
    result = search.search_isometry([neg], CycloProfile.of({2: 24}),
                                    budget=10, seed=1)
    assert result.word == (0,)
    assert result.isometry.matrix == neg.matrix


def test_search_not_found(leech):
    ident = Isometry(leech, [[int(i == j) for j in range(24)]
                             for i in range(24)])
    with pytest.raises(LookupError,
                       match="no generator word matched the target profile in 25 attempts"):
        search.search_isometry([ident], CycloProfile.of({6: 12}),
                               budget=25, seed=1)


def test_search_finds_sigma_from_generator_pair(generators):
    result = search.search_isometry(generators, sigma_profile(3),
                                    budget=300, seed=20260818)
    assert cyclotomic_profile(result.isometry) == sigma_profile(3)
    dims = cyclotomic_profile(result.isometry).eigenspace_dims(6)
    assert dims == (0, 12, 0, 0, 0, 12)


def test_word_certificates_reproduce_shipped_sigmas(leech, generators):
    # the recorded search words, with the seeds and budgets that found them
    certs = json.loads((search.DATA_DIR / "isometry_words.json").read_text())
    assert certs["generators"] == list(search.GENERATOR_FILES)
    for p in (3, 5, 7, 13):
        entry = certs["sigma"][str(p)]
        sigma = load_sigma(p, lattice=leech)
        product = reduce(_mat_mul, (generators[i].matrix for i in entry["word"]))
        assert tuple(map(tuple, product)) == sigma.matrix, p
        # the search, rerun with them, finds the same word again
        result = search.search_isometry(generators, sigma_profile(p),
                                        budget=entry["budget"],
                                        seed=entry["seed"])
        assert result.word == tuple(entry["word"]), p
        assert result.isometry == sigma, p
