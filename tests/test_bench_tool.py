"""tools/bench.py in its quick mode: one run of each start-up command and
of verify per row and bytecode state, no perfbench and no tier-1 suite,
so it runs in seconds."""

import json
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
STARTUP_KEYS = ["python -c pass", "python -S -c pass",
                "import orbifoldry.cli cold", "import orbifoldry.cli warm"]


def test_quick_bench_pairs_two_rows(tmp_path):
    out = tmp_path / "bench.json"
    # this checkout against itself: both rows, alternating
    run = subprocess.run(
        [sys.executable, "tools/bench.py", "--quick", "--against", str(ROOT),
         "--out", str(out)],
        cwd=ROOT, capture_output=True, text=True, timeout=300)
    assert run.returncode == 0, run.stderr
    record = json.loads(out.read_text())
    assert record["tool"] == "tools/bench.py --quick"
    assert record["nproc"] >= 1 and record["python"]
    assert record["verify_repeats"] == 1 and record["perfbench"] is None
    assert record["startup_repeats"] == 1
    assert set(record["known_broken"]) == {
        "trace.overhead_s", "lattice.enum_vectors_per_s", "cli.claim_overlap",
        "peak_rss_mb"}
    parent, change = record["rows"]
    assert (parent["name"], change["name"]) == ("parent", "change")
    for row in (parent, change):
        assert row["src_lines"]["lattice.py"] > 0
        assert row["src_lines_total"] == sum(row["src_lines"].values())
        assert row["golden_files"] == len(list((ROOT / "tests" / "golden").iterdir()))
        assert list(row["startup"]) == STARTUP_KEYS
        for case in row["startup"].values():
            assert case["runs"] == len(case["samples_s"]) == 1
            assert case["median_s"] > 0
        assert set(row["verify"]) == {"cold", "warm"}
        for timings in row["verify"].values():
            assert list(timings) == ["p3-c4"]
            case = timings["p3-c4"]
            assert case["runs"] == len(case["samples_s"]) == 1
            assert case["median_s"] > 0
            assert case["quartiles_s"] == [case["median_s"]] * 2
        assert not {"perfbench_trace0", "perfbench_trace1", "tier1"} & set(row)
    assert parent["commit"] == change["commit"]
    pairs = record["change_vs_parent"]["verify"]
    assert set(pairs) == {"cold p3-c4", "warm p3-c4"}
    assert all(pair["pairs"] == 1 for pair in pairs.values())
    startup = record["change_vs_parent"]["startup"]
    assert list(startup) == STARTUP_KEYS
    assert all(pair["pairs"] == 1 for pair in startup.values())
