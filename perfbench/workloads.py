"""Benchmark workloads and the correctness gate applied to every run.

A workload is a fixed list of `python -m orbifoldry` commands.  The seed
only picks an equivalent spelling of each command line (option order,
how the cutoff is written, whether a default is spelled out), so every
seed does the same mathematical work and must produce the same result.

Results are checked by meaning, never by report bytes: a suite run must
list exactly the registry's claims, each passed; a character run must
match j - 744 coefficient by coefficient.  The j coefficients are frozen
here (OEIS A000521), not computed by orbifoldry.modular, so the gate
stays disjoint from the code it checks.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass
from fractions import Fraction
from functools import partial
from typing import Callable

from spans import LAYER_SPANS

REGISTRY_SLUGS = (
    "isometry-witness",
    "eigenspace-dims",
    "conformal-weights",
    "defect-dims",
    "isotropic-subgroups",
    "integral-weight-labels",
    "weight-one-dim",
    "moonshine-character",
    "z2-split",
    "lattice-ground-truth",
    "ising-characters",
)

# coefficients of j - 744 from q^-1 through q^13; the unshifted orbifold
# character carries the coefficient of q^(w-1) at weight w
J_MINUS_744 = (
    1,
    0,
    196884,
    21493760,
    864299970,
    20245856256,
    333202640600,
    4252023300096,
    44656994071935,
    401490886656000,
    3176440229784420,
    22567393309593600,
    146211911499519294,
    874313719685775360,
    4872010111798142520,
)


class GateFailure(Exception):
    """A command's output does not carry the verified result."""


def _expect(condition: bool, message: str) -> None:
    if not condition:
        raise GateFailure(message)


@dataclass(frozen=True)
class Command:
    """One orbifoldry invocation, the check of its output, and a
    corruption of a good output that the check must reject."""

    argv: tuple[str, ...]
    check: Callable[[str], None]
    corrupt: Callable[[str], str]


@dataclass(frozen=True)
class Workload:
    name: str
    p: int  # the order whose sigma the set-up processes load
    build: Callable[[random.Random], list[Command]]
    # span names the traced run must see called at least once
    expects: tuple[str, ...]


def _spell_cutoff(value: int, rng: random.Random) -> str:
    return rng.choice([str(value), f"{2 * value}/2", f"{value}/1"])


def _argv(head: tuple[str, ...], options: list[tuple[str, ...]],
          rng: random.Random) -> tuple[str, ...]:
    rng.shuffle(options)
    return head + tuple(part for option in options for part in option)


# ----- verify ---------------------------------------------------------------


def check_suite(p: int, cutoff: int, stdout: str) -> None:
    report = json.loads(stdout)
    config = report["config"]
    _expect(config["p"] == p and Fraction(str(config["cutoff"])) == cutoff,
            f"report config {config} is not p={p}, cutoff={cutoff}")
    slugs = [entry["claim"] for entry in report["claims"]]
    _expect(sorted(slugs) == sorted(REGISTRY_SLUGS),
            f"report lists claims {slugs}, not the registry")
    failed = [entry["claim"] for entry in report["claims"]
              if entry["passed"] is not True]
    _expect(not failed, f"claims not passed: {failed}")


def corrupt_suite(stdout: str) -> str:
    report = json.loads(stdout)
    report["claims"][-1]["passed"] = False
    return json.dumps(report)


def suite(p: int, cutoff: int, rng: random.Random,
          default_cutoff: bool = False) -> Command:
    options = [("--p", str(p))]
    if not (default_cutoff and rng.random() < 0.25):
        options.append(("--cutoff", _spell_cutoff(cutoff, rng)))
    return Command(_argv(("verify",), options, rng),
                   partial(check_suite, p, cutoff), corrupt_suite)


# ----- fusion orbifold ------------------------------------------------------


def check_character(p: int, construction: str, cutoff: int,
                    stdout: str) -> None:
    out = json.loads(stdout)
    header = {k: out[k] for k in ("p", "construction", "cutoff", "shifted")}
    _expect(header["p"] == p and header["construction"] == construction
            and Fraction(str(header["cutoff"])) == cutoff
            and header["shifted"] is False,
            f"output header {header} is not p={p}, {construction}, "
            f"cutoff={cutoff}, unshifted")
    series = out["series"]
    grain = series["grain"]
    _expect(Fraction(series["cutoff"], grain) >= cutoff,
            f"series stops at weight {Fraction(series['cutoff'], grain)}")
    got = {Fraction(k, grain): Fraction(v) for k, v in series["terms"]
           if Fraction(k, grain) <= cutoff}
    want = {Fraction(w): Fraction(c)
            for w, c in enumerate(J_MINUS_744[:cutoff + 1]) if c}
    wrong = sorted(w for w in got.keys() | want.keys()
                   if got.get(w) != want.get(w))
    _expect(not wrong, f"coefficients differ from j - 744 at weights "
            f"{[str(w) for w in wrong]}")


def corrupt_character(stdout: str) -> str:
    out = json.loads(stdout)
    series = out["series"]
    for term in series["terms"]:
        if term[0] == 2 * series["grain"]:
            term[1] = str(Fraction(term[1]) + 1)
    return json.dumps(out)


def character(p: int, construction: str, cutoff: int,
              rng: random.Random) -> Command:
    options = [("--p", str(p)), ("--cutoff", _spell_cutoff(cutoff, rng))]
    if construction != "zp" or rng.random() < 0.5:
        options.append(("--construction", construction))
    return Command(_argv(("fusion", "orbifold"), options, rng),
                   partial(check_character, p, construction, cutoff),
                   corrupt_character)


# ----- the workloads --------------------------------------------------------

CLAIM_SPANS = tuple(f"cli.claim.{slug}" for slug in REGISTRY_SLUGS)

# the suite reaches every traced layer; the character run never
# enumerates, emits a report or touches the claim machinery
SUITE_SPANS = LAYER_SPANS + CLAIM_SPANS

CHARACTER_SPANS = (
    "lattice.snf",
    "isometry.verify", "isometry.power", "isometry.profile", "isometry.order",
    "qseries.mul", "qseries.inverse", "qseries.grading_product",
    "sectors.invariants", "sectors.defect", "sectors.twisted",
    "sectors.twined", "sectors.eigencomponent",
    "fusion.orbifold", "modular.theta", "datafiles.load",
)

WORKLOADS = {
    w.name: w for w in (
        # the default user run; dominated by the norm-4 enumeration
        Workload("suite-p3", 3,
                 lambda rng: [suite(3, 4, rng, default_cutoff=True)],
                 SUITE_SPANS),
        # largest order at depth; heavy in the integer-matrix kernel
        Workload("suite-p13-deep", 13,
                 lambda rng: [suite(13, 10, rng)],
                 SUITE_SPANS),
        # no enumeration at all; dominated by q-series products: sparse
        # twisted sectors at 1/26 grain (zp), half-integer grain (z2)
        Workload("characters-p13", 13,
                 lambda rng: [character(13, "zp", 14, rng),
                              character(13, "z2", 14, rng)],
                 CHARACTER_SPANS),
    )
}
