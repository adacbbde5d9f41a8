"""tools/bench.py in its quick mode: one run of each start-up command and
of verify per row and bytecode state, the search structure and two work
counts of one small command per row, no perfbench and no tier-1 suite,
so it runs in seconds."""

import json
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
STARTUP_KEYS = ["python -c pass", "python -S -c pass",
                "import orbifoldry.cli cold", "import orbifoldry.cli warm"]
WORK_COMMAND = "fusion orbifold --p 3 --cutoff 7/2"
SEARCH_KEYS = ["memo_minor_sum", "key_rows", "key_rows_with_step",
               "norm6_candidates"]
WORK_CALLS = ["lattice._bareiss", "lattice.smith_normal_form",
              "lattice.quotient_invariants",
              "enumeration.count_by_norm.<locals>.expand",
              "isometry._charpoly", "isometry._mat_mul",
              "qseries.euler_product", "qseries.FracSeries.__mul__",
              "qseries.FracSeries.inverse"]


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
        # the shipped Gram's memo fills 11,017 entries, and a norm-6 count
        # visits 26,312 candidates (test_leech_norm_six_budget_is_exact)
        search = row["search"]
        assert list(search) == SEARCH_KEYS
        assert search["memo_minor_sum"] == 11_017
        assert search["norm6_candidates"] == 26_312
        assert 0 < search["key_rows_with_step"] <= search["key_rows"]
        assert list(row["work"]) == [WORK_COMMAND]
        work = row["work"][WORK_COMMAND]
        assert set(work) == {"total", "modules", "top_functions", "calls",
                             "totals"}
        # two counts in separate processes agree
        assert work["totals"] == [work["total"]] * 2
        assert work["total"] == sum(work["modules"].values()) > 0
        assert {"lattice", "isometry", "qseries"} <= set(work["modules"])
        top = list(work["top_functions"].values())
        assert len(top) == 10 and top == sorted(top, reverse=True)
        assert list(work["calls"]) == WORK_CALLS
        # the one Lattice() of the load runs one elimination; the command
        # counts no vectors, so its one Smith form is a full one
        calls = work["calls"]
        assert calls["lattice._bareiss"] == 1
        assert calls["lattice.smith_normal_form"] == 1
        assert calls["lattice.quotient_invariants"] == 1
        assert calls["enumeration.count_by_norm.<locals>.expand"] == 0
    assert parent["commit"] == change["commit"]
    pairs = record["change_vs_parent"]["verify"]
    assert set(pairs) == {"cold p3-c4", "warm p3-c4"}
    assert all(pair["pairs"] == 1 for pair in pairs.values())
    startup = record["change_vs_parent"]["startup"]
    assert list(startup) == STARTUP_KEYS
    assert all(pair["pairs"] == 1 for pair in startup.values())
    assert record["change_vs_parent"]["work"] == {WORK_COMMAND: 1.0}
    assert record["change_vs_parent"]["search"] == dict.fromkeys(SEARCH_KEYS, 1.0)
    assert record["work"]["repeats"] == 2
    assert record["work"]["calls"] == WORK_CALLS
