"""Closed-loop benchmark of the orbifoldry command line.

    python3 perfbench/run.py --workload suite-p3 --seed 1 --seconds 30 --trace 0

Run it from the root of a checkout; it uses the sources under src/ and
builds nothing.  One client runs the workload's `python -m orbifoldry`
commands, one child process at a time, timing each from outside and
gating every result (workloads.py).  A run that fails the gate counts as
failed and is never timed as a success.

--trace 0 reports the end-to-end metrics: the mean wall time and child
CPU time of one workload iteration over the timed loop, the children's
peak RSS, and the median wall time of several set-up processes.
--trace 1 runs the workload once untraced, then once in-process through
orbifoldry.cli.main under the span tracer (spans.py), requires identical
output, and reports the per-layer metrics.  Metric names and units must
match BENCHMARK.json.  --workload all runs every workload in turn.
Per-run records and spans are written under perfbench/out/; the last
line of standard output is the result.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import platform
import random
import statistics
import subprocess
import sys
import tempfile
import time
from dataclasses import dataclass, field
from pathlib import Path

import spans
from workloads import CLAIM_SPANS, WORKLOADS, Command, GateFailure, Workload

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = Path(__file__).resolve().parent / "out"

# set-up is timed in processes of its own: interpreter start, import,
# and loading (with its checks) the lattice and the workload's sigma
SETUP_RUNS = 7
SETUP_CODE = ("import orbifoldry\n"
              "from orbifoldry.datafiles import load_leech, load_sigma\n"
              "load_sigma({p}, lattice=load_leech())\n")


@dataclass
class Child:
    wall: float
    cpu: float
    rss_mb: float
    returncode: int
    stdout: str
    stderr: str


@dataclass
class Iteration:
    wall: float
    cpu: float
    rss_mb: float
    error: str | None
    children: list[Child]


@dataclass
class Result:
    workload: str
    metrics: dict[str, tuple[float, str]]
    attempted: int
    failed: int
    errors: list[str] = field(default_factory=list)
    samples: dict[str, list[float]] = field(default_factory=dict)


def _child_env() -> dict[str, str]:
    env = {k: v for k, v in os.environ.items() if k != "ORBIFOLDRY_DATA"}
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [str(SRC), env.get("PYTHONPATH")]))
    return env


def run_child(args: list[str]) -> Child:
    """Run one Python child to its exit: wall time from launch until it
    is reaped, CPU time and peak RSS from its own rusage."""
    with tempfile.TemporaryFile(dir=OUT) as err:
        start = time.perf_counter()
        proc = subprocess.Popen([sys.executable, *args], cwd=ROOT,
                                env=_child_env(), stdout=subprocess.PIPE,
                                stderr=err)
        try:
            stdout = proc.stdout.read()
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        wall = time.perf_counter() - start
        proc.returncode = os.waitstatus_to_exitcode(status)
        proc.stdout.close()
        err.seek(0)
        stderr = err.read().decode(errors="replace")
    return Child(wall, usage.ru_utime + usage.ru_stime, usage.ru_maxrss / 1024,
                 proc.returncode, stdout.decode(), stderr)


def gate(command: Command, child: Child) -> str | None:
    """None when the child exited 0 with a verified result, else why not."""
    problems = []
    if child.returncode != 0:
        problems.append(f"exit {child.returncode} {child.stderr.strip()[-300:]}")
    try:
        command.check(child.stdout)
    except (GateFailure, ValueError, LookupError, TypeError) as exc:
        problems.append(f"{type(exc).__name__}: {exc}")
    return f"{' '.join(command.argv)}: {'; '.join(problems)}" if problems else None


def check_gate_rejects_corruption(commands: list[Command],
                                  children: list[Child]) -> None:
    for command, child in zip(commands, children):
        try:
            command.check(command.corrupt(child.stdout))
        except GateFailure:
            continue
        raise RuntimeError(f"the gate accepted a corrupted result of "
                           f"{' '.join(command.argv)}")


def run_iteration(commands: list[Command]) -> Iteration:
    children = [run_child(["-m", "orbifoldry", *c.argv]) for c in commands]
    errors = [e for c, ch in zip(commands, children) if (e := gate(c, ch))]
    if not errors:
        check_gate_rejects_corruption(commands, children)
    return Iteration(sum(c.wall for c in children),
                     sum(c.cpu for c in children),
                     max(c.rss_mb for c in children),
                     "; ".join(errors) or None, children)


def measure_setup(p: int) -> list[float]:
    code = SETUP_CODE.format(p=p)
    walls = []
    # the first process warms the file cache and the bytecode cache
    for _ in range(SETUP_RUNS + 1):
        child = run_child(["-c", code])
        if child.returncode != 0:
            raise RuntimeError(f"set-up failed: {child.stderr.strip()}")
        walls.append(child.wall)
    return walls[1:]


def timed_run(workload: Workload, commands: list[Command],
              seconds: int) -> Result:
    """Set-up samples, then a closed loop of whole workload iterations
    for about `seconds`: the next iteration starts only if it is
    expected to finish in time, and the first always runs."""
    setup = measure_setup(workload.p)
    iterations: list[Iteration] = []
    start = time.perf_counter()
    while True:
        iterations.append(run_iteration(commands))
        elapsed = time.perf_counter() - start
        if elapsed + statistics.median(i.wall for i in iterations) > seconds:
            break
    # per-iteration time is the loop's time over its iterations, the
    # closed loop's throughput; on a shared 2-core host it is steadier
    # than the median of the few iterations that fit in one run
    good = [i for i in iterations if i.error is None] or iterations
    metrics = {
        "wall_s": (statistics.fmean(i.wall for i in good), "s"),
        "cpu_s": (statistics.fmean(i.cpu for i in good), "s"),
        "setup_s": (statistics.median(setup), "s"),
        "peak_rss_mb": (max(i.rss_mb for i in good), "MB"),
    }
    errors = [i.error for i in iterations if i.error is not None]
    return Result(workload.name, metrics, len(iterations), len(errors), errors,
                  {"wall_s": [i.wall for i in iterations],
                   "cpu_s": [i.cpu for i in iterations],
                   "peak_rss_mb": [i.rss_mb for i in iterations],
                   "setup_s": setup})


class InProcess:
    """orbifoldry imported into this process with the tracer installed."""

    def __init__(self) -> None:
        sys.path.insert(0, str(SRC))
        self.tracer = spans.Tracer()
        self.twisted_cache = spans.install(self.tracer)
        from orbifoldry import cli
        self.main = self.tracer.wrap("cli.main", cli.main)

    def run(self, argv: list[str]) -> tuple[int, str, int, int]:
        """Exit code, standard output and twisted-character cache hits
        and misses of one command; the cache starts empty, as it does in
        a fresh process."""
        self.twisted_cache.cache_clear()
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            code = self.main(argv)
        info = self.twisted_cache.cache_info()
        return code, out.getvalue(), info.hits, info.misses


def layer_metrics(stats: dict[str, spans.LayerStats], hits: int, misses: int,
                  overhead: float, n_spans: int) -> dict[str, tuple[float, str]]:
    empty = spans.LayerStats()
    metrics: dict[str, tuple[float, str]] = {}
    for name in spans.LAYER_SPANS:
        layer = stats.get(name, empty)
        metrics[f"{name}_calls"] = (layer.calls, "count")
        metrics[f"{name}_s"] = (layer.wall, "s")
        metrics[f"{name}_busy_s"] = (layer.busy, "s")
        metrics[f"{name}_self_s"] = (layer.self_time, "s")
    for name in CLAIM_SPANS:
        metrics[f"{name}_s"] = (stats.get(name, empty).wall, "s")
    enum = stats.get("lattice.enum", empty)
    metrics["lattice.enum_vectors_per_s"] = (
        sum(enum.work) / enum.wall if enum.wall else 0.0, "1/s")
    mul = stats.get("qseries.mul", empty)
    metrics["qseries.mul_term_pairs"] = (sum(p for p, _ in mul.work), "count")
    metrics["qseries.max_terms"] = (max((t for _, t in mul.work), default=0),
                                    "count")
    metrics["sectors.twisted_cache_hit_ratio"] = (
        hits / (hits + misses) if hits + misses else 0.0, "ratio")
    suite = stats.get("cli.suite", empty).wall
    claims = sum(stats.get(name, empty).wall for name in CLAIM_SPANS)
    metrics["cli.claim_overlap"] = (claims / suite if suite else 0.0, "ratio")
    metrics["trace.overhead_s"] = (overhead, "s")
    metrics["trace.spans"] = (n_spans, "count")
    return metrics


def traced_run(workload: Workload, commands: list[Command],
               inproc: InProcess, seed: int) -> Result:
    untraced = run_iteration(commands)
    errors = [untraced.error] if untraced.error else []
    inproc.tracer.spans.clear()
    hits = misses = 0
    traced_wall = 0.0
    for command, child in zip(commands, untraced.children):
        start = time.perf_counter()
        code, stdout, h, m = inproc.run(list(command.argv))
        traced_wall += time.perf_counter() - start
        hits, misses = hits + h, misses + m
        if (code, stdout) != (child.returncode, child.stdout):
            errors.append(f"{' '.join(command.argv)}: traced output differs "
                          f"from the untraced run")
    stats = spans.summarize(inproc.tracer.spans)
    missing = [name for name in workload.expects
               if name not in stats or not stats[name].calls]
    if missing:
        raise RuntimeError(f"the traced run of {workload.name} recorded no "
                           f"calls to {missing}: a wrapper was missed")
    inproc.tracer.write(OUT / f"spans-{workload.name}-seed{seed}.json")
    metrics = layer_metrics(stats, hits, misses, traced_wall - untraced.wall,
                            len(inproc.tracer.spans))
    return Result(workload.name, metrics, 1, int(bool(errors)), errors,
                  {"untraced_wall_s": [untraced.wall],
                   "traced_wall_s": [traced_wall]})


def check_contract(result: Result, key: str) -> None:
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())[key]
    want = {m["name"]: m["unit"] for m in declared}
    got = {name: unit for name, (_, unit) in result.metrics.items()}
    if got != want:
        raise RuntimeError(
            f"{result.workload} metrics disagree with BENCHMARK.json {key}: "
            f"extra {sorted(got.keys() - want.keys())}, "
            f"missing {sorted(want.keys() - got.keys())}, units "
            f"{sorted(n for n in got.keys() & want.keys() if got[n] != want[n])}")


def environment() -> dict[str, object]:
    commit = "unknown: not a git checkout"
    if (ROOT / ".git").exists():
        try:
            commit = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                                    capture_output=True, text=True,
                                    check=True).stdout.strip()
        except (OSError, subprocess.CalledProcessError):
            pass
    return {"python": platform.python_version(),
            "nproc": len(os.sched_getaffinity(0)),
            "commit": commit,
            "src_lines": sum(len(path.read_text().splitlines())
                             for path in SRC.rglob("*.py"))}


def print_result(result: Result) -> None:
    share = result.failed / result.attempted
    print(f"{result.workload}: {result.attempted} runs, {result.failed} "
          f"failed, fail_share {share:.4f}")
    for name, (value, unit) in result.metrics.items():
        samples = result.samples.get(name)
        spread = (f"  ({len(samples)} samples, min {min(samples):.4f}, "
                  f"max {max(samples):.4f})" if samples else "")
        print(f"  {name:<44} {value:>14.6g} {unit}{spread}")
    for error in result.errors:
        print(f"  FAILED: {error}")


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds < 1:
        parser.error("--seconds must be at least 1")
    if not (SRC / "orbifoldry" / "cli.py").is_file():
        print(f"error: no orbifoldry sources under {SRC}", file=sys.stderr)
        return 2
    OUT.mkdir(exist_ok=True)
    env = environment()
    print("env " + json.dumps(env, sort_keys=True))
    inproc = InProcess() if args.trace else None
    results = []
    for name in (WORKLOADS if args.workload == "all" else [args.workload]):
        workload = WORKLOADS[name]
        commands = workload.build(random.Random(f"{name}:{args.seed}"))
        if inproc is not None:
            result = traced_run(workload, commands, inproc, args.seed)
        else:
            result = timed_run(workload, commands, args.seconds)
        check_contract(result, "per_layer" if args.trace else "end_to_end")
        print_result(result)
        record = OUT / f"result-{name}-seed{args.seed}-trace{args.trace}.json"
        record.write_text(json.dumps({
            "env": env, "workload": name, "seed": args.seed,
            "argv": [list(c.argv) for c in commands],
            "metrics": result.metrics, "attempted": result.attempted,
            "failed": result.failed, "errors": result.errors,
            "samples": result.samples}, indent=1))
        results.append(result)
    prefix = len(results) > 1
    print(json.dumps({
        "correct": all(r.failed == 0 for r in results),
        "attempted": sum(r.attempted for r in results),
        "failed": sum(r.failed for r in results),
        "metrics": {(f"{r.workload}.{n}" if prefix else n):
                    {"value": v, "unit": u}
                    for r in results for n, (v, u) in r.metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
