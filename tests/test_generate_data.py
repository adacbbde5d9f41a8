"""The exact LLL of tools/generate_data.py against the slow reference
that recomputes Gram-Schmidt after every size reduction."""

import importlib.util
import random
import sys
from pathlib import Path

import pytest

from integer_det import det_int
from reference_lll import lll_gram as reference_lll
from tools_search import search


@pytest.fixture(scope="module")
def generate_data():
    path = Path(__file__).resolve().parents[1] / "tools" / "generate_data.py"
    spec = importlib.util.spec_from_file_location("generate_data", path)
    module = importlib.util.module_from_spec(spec)
    with pytest.MonkeyPatch.context() as patch:
        # the script puts src/ on the path and imports its sibling search
        patch.setattr(sys, "path", list(sys.path))
        patch.setitem(sys.modules, "search", search)
        spec.loader.exec_module(module)
    return module


def random_gram(rng, n):
    """B @ B.T for a random nonsingular integer B of size n."""
    while True:
        b = [[rng.randint(-3, 3) for _ in range(n)] for _ in range(n)]
        if det_int(b):
            return [[sum(x * y for x, y in zip(r, s)) for s in b] for r in b]


def test_lll_matches_the_full_recompute_reference(generate_data):
    rng = random.Random(2603)
    for _ in range(40):
        gram = random_gram(rng, rng.randint(1, 10))
        reduced, transform = generate_data.lll_gram(gram)
        assert (reduced, transform) == reference_lll(gram)
        n = len(gram)
        assert reduced == [[sum(transform[i][a] * gram[a][b] * transform[j][b]
                                for a in range(n) for b in range(n))
                            for j in range(n)] for i in range(n)]
