"""The traced benchmark wraps orbifoldry functions by module and
attribute path (perfbench/spans.py, TARGETS).  Every such path must
resolve, and every span a workload requires must record a call, so that
a rename, a deletion or a call no longer made fails here rather than in
a benchmark run."""

import importlib
import json
import runpy
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SPANS = ROOT / "perfbench" / "spans.py"


def test_every_traced_target_resolves():
    targets = runpy.run_path(str(SPANS))["TARGETS"]
    assert targets
    for name, module, path, _ in targets:
        owner = importlib.import_module(f"orbifoldry.{module}")
        for attr in path.split("."):
            assert hasattr(owner, attr), f"{name}: orbifoldry.{module}.{path}"
            owner = getattr(owner, attr)
        assert callable(owner), f"{name}: orbifoldry.{module}.{path}"


def test_traced_benchmark_runs_every_workload_correctly():
    # writes its records under perfbench/out/, which git ignores
    run = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "all", "--seed", "1",
         "--seconds", "1", "--trace", "1"],
        cwd=ROOT, capture_output=True, text=True, timeout=600)
    assert run.returncode == 0, run.stderr
    result = json.loads(run.stdout.splitlines()[-1])
    assert result["correct"] is True
    assert result["failed"] == 0
