"""The traced benchmark wraps orbifoldry functions by module and
attribute path (perfbench/spans.py, TARGETS).  Every such path must
resolve, so that a rename or deletion fails here rather than in a traced
benchmark run."""

import importlib
import runpy
from pathlib import Path

SPANS = Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"


def test_every_traced_target_resolves():
    targets = runpy.run_path(str(SPANS))["TARGETS"]
    assert targets
    for name, module, path, _ in targets:
        owner = importlib.import_module(f"orbifoldry.{module}")
        for attr in path.split("."):
            assert hasattr(owner, attr), f"{name}: orbifoldry.{module}.{path}"
            owner = getattr(owner, attr)
        assert callable(owner), f"{name}: orbifoldry.{module}.{path}"
