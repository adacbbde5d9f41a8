"""Paired benchmark of this checkout against another: a BENCH_*.json file.

    python3 tools/bench.py --against ../parent --out BENCH_35.json
    python3 tools/bench.py --quick --out bench.json

Each checkout is a row: "change" is this one, "parent" the one given
with --against.  A row records the commit, the lines of each
src/orbifoldry module and the number of files under tests/golden, and
times

  - the interpreter floor, `python -c pass` and `python -S -c pass`, and
    `python -c "import orbifoldry.cli"` with the bytecode cold and warm,
    in fresh interpreters that alternate between the rows;
  - `python -m orbifoldry verify --p P --cutoff C` for P in 3, 5, 7, 13
    and C in 4, 10, in child processes that alternate between the rows,
    with the package's bytecode cold (compiled from source, as in the
    benchmark's children) and warm (read from a bytecode cache);
  - the tier-1 suite, once per row;
  - perfbench/run.py, unchanged, at --trace 0 in alternating rounds and
    once at --trace 1, on a copy of the checkout with no bytecode cache.

--quick runs each start-up command and verify --p 3 at cutoff 4 once per
row and cache, and runs neither perfbench nor the tier-1 suite.  Metrics
that perfbench reports but that do not measure what their names say are
copied under "known_broken" with the reason.  Standard library only.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

ORDERS = (3, 5, 7, 13)
CUTOFFS = (4, 10)
REPEATS = 5
STARTUP_REPEATS = 11
# interpreter arguments of each start-up timing, and whether it reads the
# package with the bytecode cold or warm (None: the package is not read)
STARTUP = {
    "python -c pass": (["-c", "pass"], None),
    "python -S -c pass": (["-S", "-c", "pass"], None),
    "import orbifoldry.cli cold": (["-c", "import orbifoldry.cli"], "cold"),
    "import orbifoldry.cli warm": (["-c", "import orbifoldry.cli"], "warm"),
}
PERFBENCH_SECONDS = 5
PERFBENCH_ROUNDS = 3

KNOWN_BROKEN = {
    "trace.overhead_s": "traced in-process wall minus untraced subprocess "
                        "wall: the traced side leaves out interpreter start "
                        "and import, so it reads negative",
    "lattice.enum_vectors_per_s": "vectors counted over enumeration time: "
                                  "a memo hit adds a whole subtree's vectors "
                                  "at no cost, so it is no search speed",
    "cli.claim_overlap": "claim time over suite time: the claims run one "
                         "after another, so no two overlap",
    "peak_rss_mb": "ru_maxrss of a child started by vfork and exec keeps the "
                   "harness's own high-water mark, so it follows the "
                   "harness, not the child",
}


def _git(root: Path, *args: str) -> str | None:
    try:
        return subprocess.run(["git", *args], cwd=root, capture_output=True,
                              text=True, check=True).stdout.strip()
    except (OSError, subprocess.CalledProcessError):
        return None


def describe(root: Path) -> dict:
    """Commit, src/ lines per module and golden file count of a checkout."""
    commit = _git(root, "rev-parse", "HEAD") or "unknown: not a git checkout"
    if _git(root, "status", "--porcelain", "--", "src"):
        commit += " with uncommitted src/ changes"
    lines = {path.name: len(path.read_text().splitlines())
             for path in sorted((root / "src" / "orbifoldry").glob("*.py"))}
    golden = root / "tests" / "golden"
    return {"commit": commit, "src_lines": lines,
            "src_lines_total": sum(lines.values()),
            "golden_files": sum(path.is_file() for path in golden.iterdir())
            if golden.is_dir() else 0}


def _copy(root: Path, into: Path) -> Path:
    """What the benchmark reads of a checkout, without bytecode caches."""
    into.mkdir()
    skip = shutil.ignore_patterns("__pycache__", "out")
    for name in ("src", "perfbench"):
        shutil.copytree(root / name, into / name, ignore=skip)
    shutil.copy(root / "BENCHMARK.json", into / "BENCHMARK.json")
    return into


def _env(src: Path, cached: bool) -> dict:
    env = dict(os.environ, PYTHONPATH=str(src))
    if cached:
        env.pop("PYTHONDONTWRITEBYTECODE", None)
    else:
        env["PYTHONDONTWRITEBYTECODE"] = "1"
    return env


def _wall(copy: Path, args: list, cached: bool) -> float:
    """Wall seconds of one interpreter run in copy; a failure raises."""
    argv = [sys.executable, *args]
    start = time.perf_counter()
    done = subprocess.run(argv, cwd=copy, env=_env(copy / "src", cached),
                          stdout=subprocess.DEVNULL, stderr=subprocess.PIPE)
    wall = time.perf_counter() - start
    if done.returncode != 0:
        raise RuntimeError(f"{' '.join(args)} in {copy} exited "
                           f"{done.returncode}: {done.stderr.decode()[-300:]}")
    return wall


def run_verify(copy: Path, p: int, cutoff: int, cached: bool) -> float:
    return _wall(copy, ["-m", "orbifoldry", "verify", "--p", str(p),
                        "--cutoff", str(cutoff)], cached)


def time_startup(copies: dict, repeats: int) -> dict:
    """Wall seconds per row of each STARTUP command, the rows alternating
    and each repeat reversing their order.  The copies' warm bytecode
    caches are already written."""
    names = list(copies)
    samples = {name: {key: [] for key in STARTUP} for name in names}
    for repeat in range(repeats):
        for key, (args, cache) in STARTUP.items():
            for name in (names if repeat % 2 == 0 else names[::-1]):
                samples[name][key].append(_wall(
                    copies[name][cache or "cold"], args, cache == "warm"))
    return {name: {key: _summary(walls) for key, walls in by_key.items()}
            for name, by_key in samples.items()}


def time_verify(copies: dict, cases: list, repeats: int) -> dict:
    """Wall seconds per row, cache state and case; the rows alternate,
    and each repeat reverses their order."""
    names = list(copies)
    samples = {name: {cache: {f"p{p}-c{c}": [] for p, c in cases}
                      for cache in ("cold", "warm")} for name in names}
    for name in names:
        # one run writes the warm copy's bytecode cache
        run_verify(copies[name]["warm"], 3, 2, cached=True)
    for repeat in range(repeats):
        for p, c in cases:
            for cache in ("cold", "warm"):
                for name in (names if repeat % 2 == 0 else names[::-1]):
                    samples[name][cache][f"p{p}-c{c}"].append(run_verify(
                        copies[name][cache], p, c, cached=cache == "warm"))
    return {name: {cache: {case: _summary(walls)
                           for case, walls in by_case.items()}
                   for cache, by_case in by_cache.items()}
            for name, by_cache in samples.items()}


def _summary(walls: list) -> dict:
    quartiles = (statistics.quantiles(walls, n=4) if len(walls) > 1
                 else [walls[0]] * 3)
    return {"median_s": statistics.median(walls),
            "quartiles_s": [quartiles[0], quartiles[2]],
            "runs": len(walls), "samples_s": walls}


def run_perfbench(copy: Path, trace: int) -> dict:
    argv = [sys.executable, "perfbench/run.py", "--workload", "all",
            "--seed", "1", "--seconds", str(PERFBENCH_SECONDS),
            "--trace", str(trace)]
    done = subprocess.run(argv, cwd=copy, env=_env(copy / "src", False),
                          capture_output=True, text=True)
    if done.returncode != 0:
        raise RuntimeError(f"perfbench in {copy}: {done.stderr[-300:]}")
    result = json.loads(done.stdout.splitlines()[-1])
    return {"correct": result["correct"], "failed": result["failed"],
            "metrics": {name: metric["value"]
                        for name, metric in result["metrics"].items()}}


def run_tier1(root: Path) -> dict:
    argv = [sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider",
            "--continue-on-collection-errors"]
    start = time.perf_counter()
    done = subprocess.run(argv, cwd=root, env=_env(root / "src", False),
                          capture_output=True, text=True)
    wall = time.perf_counter() - start
    summary = next((line for line in reversed(done.stdout.splitlines())
                    if " passed" in line or " failed" in line), "")
    return {"wall_s": wall, "exit": done.returncode,
            "summary": summary.strip("= ")}


def _pairs(parent: list, change: list) -> dict:
    ratios = [c / p for p, c in zip(parent, change)]
    return {"change_lower": sum(r < 1 for r in ratios), "pairs": len(ratios),
            "median_ratio": statistics.median(ratios)}


def compare(parent: dict, change: dict) -> dict:
    """For each verify case, start-up command and end-to-end perfbench
    metric, the pairs in which the change reads lower and the median
    change/parent ratio; lower is better for all of them."""
    verify = {f"{cache} {case}": _pairs(timings["samples_s"],
                                        change["verify"][cache][case]["samples_s"])
              for cache, by_case in parent["verify"].items()
              for case, timings in by_case.items()}
    startup = {key: _pairs(timings["samples_s"], change["startup"][key]["samples_s"])
               for key, timings in parent["startup"].items()}
    rounds = {name: [r["metrics"] for r in row.get("perfbench_trace0", [])]
              for name, row in (("parent", parent), ("change", change))}
    metrics = {name for r in rounds["parent"][:1] for name in r}
    perfbench = {name: _pairs([r[name] for r in rounds["parent"]],
                              [r[name] for r in rounds["change"]])
                 for name in sorted(metrics)}
    return {"verify": verify, "startup": startup, "perfbench_trace0": perfbench}


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--against", type=Path,
                        help="the parent checkout, timed alternately")
    parser.add_argument("--quick", action="store_true",
                        help="verify --p 3 at cutoff 4 once per row only")
    parser.add_argument("--out", type=Path, required=True)
    args = parser.parse_args(argv)
    roots = {"change": ROOT}
    if args.against is not None:
        roots = {"parent": args.against.resolve(), "change": ROOT}
    cases = ([(3, 4)] if args.quick
             else [(p, c) for p in ORDERS for c in CUTOFFS])
    rows = {name: {"name": name, **describe(root)}
            for name, root in roots.items()}
    with tempfile.TemporaryDirectory() as scratch:
        copies = {name: {cache: _copy(root, Path(scratch) / f"{name}-{cache}")
                         for cache in ("cold", "warm")}
                  for name, root in roots.items()}
        for name, timings in time_verify(
                copies, cases, 1 if args.quick else REPEATS).items():
            rows[name]["verify"] = timings
        for name, timings in time_startup(
                copies, 1 if args.quick else STARTUP_REPEATS).items():
            rows[name]["startup"] = timings
        if not args.quick:
            for name in roots:
                rows[name]["perfbench_trace0"] = []
            for round_ in range(PERFBENCH_ROUNDS):
                for name in (list(roots) if round_ % 2 == 0
                             else list(roots)[::-1]):
                    rows[name]["perfbench_trace0"].append(
                        run_perfbench(copies[name]["cold"], 0))
            for name, root in roots.items():
                rows[name]["perfbench_trace1"] = run_perfbench(
                    copies[name]["cold"], 1)
                rows[name]["tier1"] = run_tier1(root)
    record = {
        "tool": "tools/bench.py" + (" --quick" if args.quick else ""),
        "python": platform.python_version(),
        "nproc": len(os.sched_getaffinity(0)),
        "bytecode": {"cold": "compiled from source in every child "
                             "(no __pycache__, PYTHONDONTWRITEBYTECODE=1), "
                             "as in perfbench and its children",
                     "warm": "read from a __pycache__ written by one "
                             "untimed run"},
        "verify_repeats": 1 if args.quick else REPEATS,
        "startup_repeats": 1 if args.quick else STARTUP_REPEATS,
        "perfbench": None if args.quick else {
            "seed": 1, "seconds": PERFBENCH_SECONDS,
            "trace0_rounds": PERFBENCH_ROUNDS},
        "known_broken": KNOWN_BROKEN,
        "rows": list(rows.values()),
    }
    if "parent" in rows:
        record["change_vs_parent"] = compare(rows["parent"], rows["change"])
    args.out.write_text(json.dumps(record, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
