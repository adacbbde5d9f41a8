"""Command-line front end: data checks, per-module passthroughs, and the
end-to-end verification suite.

The suite runs a fixed registry of claims, each comparing a computed
value against an expected value in exact arithmetic, and emits a
deterministic JSON or Markdown report.  Exit status is 0 only when every
claim passes.
"""

from __future__ import annotations

import argparse
import json
import sys
from dataclasses import dataclass
from fractions import Fraction
from math import ceil, gcd
from pathlib import Path
from typing import Any, Callable

from .datafiles import (
    SUPPORTED_P,
    DataMissing,
    load_generators,
    load_leech,
    load_sigma,
    sigma_profile,
)
from .fusion import (
    integral_weight_labels,
    maximal_isotropic_subgroups,
    orbifold_character,
    weight_one_by_sector,
    weight_one_dimension_H2,
)
from .ising import ALLOWED_WEIGHTS, c12_character, extension_weight_one_check
from .isometry import (
    DEFAULT_SEARCH_BUDGET,
    Isometry,
    cyclotomic_profile,
    multiplicative_order,
    negation_isometry,
    search_isometry,
    verify_isometry,
)
from .lattice import (
    DEFAULT_NODE_BUDGET,
    load_lattice,
    parse_matrix,
    theta_series,
)
from .modular import moonshine_j, unimodular_theta_rank24
from .qseries import FracSeries
from .report import ClaimEntry, Report, emit_report, plain
from .sectors import (
    SectorInvariants,
    eigencomponent_character,
    sector_invariants,
    twined_untwisted_character,
    twisted_character,
)

__all__ = ["RunConfig", "CLAIM_REGISTRY", "run_verification_suite", "main"]

# the acceptance depth: head coefficients to weight 2 plus cross-checks
# through weight 4 are already decisive, and norm-6 theta data suffices
DEFAULT_SUITE_CUTOFF = Fraction(4)

OUTPUT_FORMATS = ("json", "markdown")

# every key a config file may set; anything else is a mistyped key
CONFIG_KEYS = ("p", "cutoff", "budget", "seed", "format", "data_dir")


class RunConfig:
    """Settings for one verification run."""

    __slots__ = ("p", "cutoff", "enumeration_budget", "data_dir", "output")

    def __init__(self, p: int, cutoff: Fraction | int = DEFAULT_SUITE_CUTOFF,
                 enumeration_budget: int = DEFAULT_NODE_BUDGET,
                 data_dir: Path | None = None, output: str = "json") -> None:
        if p not in SUPPORTED_P:
            raise ValueError(f"p must be one of {SUPPORTED_P}, got {p}")
        self.p = p
        self.cutoff = Fraction(cutoff)
        if self.cutoff < 2:
            raise ValueError("cutoff must be at least 2")
        if enumeration_budget < 1:
            raise ValueError("enumeration budget must be positive")
        self.enumeration_budget = enumeration_budget
        if output not in OUTPUT_FORMATS:
            raise ValueError(f"output must be one of {OUTPUT_FORMATS}")
        self.output = output
        self.data_dir = Path(data_dir) if data_dir is not None else None


class _Context:
    """Lazy, cached access to the shipped data for one p; in the suite,
    loader errors surface inside whichever claim first touches the
    object."""

    def __init__(self, p: int, data_dir: Path | None) -> None:
        self.p = p
        self.data_dir = data_dir
        self._cache: dict[Any, Any] = {}

    def _get(self, key: Any, build: Callable[[], Any]) -> Any:
        if key not in self._cache:
            self._cache[key] = build()
        return self._cache[key]

    def lattice(self):
        return self._get("lattice", lambda: load_leech(self.data_dir))

    def sigma(self):
        return self._get("sigma", lambda: load_sigma(
            self.p, self.data_dir, lattice=self.lattice()))

    def tau(self):
        return self._get("tau", lambda: self.sigma().power(2))

    def negation(self):
        return self._get("negation", lambda: negation_isometry(self.lattice()))

    def theta(self, depth: int) -> FracSeries:
        return self._get(("theta", depth),
                         lambda: unimodular_theta_rank24(depth))

    def sectors(self) -> list[SectorInvariants]:
        """The invariants of the sigma^i-twisted sectors, i = 1..2p-1."""
        return self._get("sectors", lambda: [
            sector_invariants(self.sigma(), i) for i in range(1, 2 * self.p)])


# ----- claim bodies ---------------------------------------------------------


def _expected_dims(p: int, i: int) -> list[int]:
    m = 2 * p
    if i % m == p:
        return [24 if j == p else 0 for j in range(m)]
    if i % 2 == 1:
        return [24 // (p - 1) if gcd(j, m) == 1 else 0 for j in range(m)]
    return [24 // (p - 1) if gcd(j, m) == 2 else 0 for j in range(m)]


def _expected_rho(p: int, i: int) -> Fraction:
    if i % (2 * p) == p:
        return Fraction(3, 2)
    if i % 2 == 1:
        return Fraction(2 * p - 1, 2 * p)
    return Fraction(p + 1, p)


def _expected_defect(p: int, i: int) -> int:
    if i % (2 * p) == p:
        return 2**12
    if i % 2 == 1:
        return 1
    return p ** (12 // (p - 1))


def _witness_expected(cfg: RunConfig) -> Any:
    p = cfg.p
    return {"order": 2 * p, "profile": {str(2 * p): 24 // (p - 1)},
            "fixed_sublattice_rank": 0, "gram_preserving": True}


def _witness_computed(cfg: RunConfig, ctx: _Context) -> Any:
    # load_sigma verified the Gram preservation; a corrupt sigma raises there
    g = ctx.sigma()
    profile = cyclotomic_profile(g)
    return {"order": multiplicative_order(g), "profile": profile.as_dict(),
            "fixed_sublattice_rank": profile.multiplicity(1),
            "gram_preserving": True}


def _dims_expected(cfg: RunConfig) -> Any:
    return {str(i): _expected_dims(cfg.p, i) for i in range(1, 2 * cfg.p)}


def _dims_computed(cfg: RunConfig, ctx: _Context) -> Any:
    return {i: inv.eig_dims for i, inv in enumerate(ctx.sectors(), 1)}


def _weights_expected(cfg: RunConfig) -> Any:
    return {str(i): _expected_rho(cfg.p, i) for i in range(1, 2 * cfg.p)}


def _weights_computed(cfg: RunConfig, ctx: _Context) -> Any:
    return {i: inv.rho for i, inv in enumerate(ctx.sectors(), 1)}


def _defects_expected(cfg: RunConfig) -> Any:
    p = cfg.p
    out: dict[str, Any] = {str(i): _expected_defect(p, i)
                           for i in range(1, 2 * p)}
    out["quotient_one_minus_tau"] = [p] * (24 // (p - 1))
    out["quotient_doubling"] = [2] * 24
    return out


def _defects_computed(cfg: RunConfig, ctx: _Context) -> Any:
    out: dict[Any, Any] = {i: inv.defect_dim
                           for i, inv in enumerate(ctx.sectors(), 1)}
    # L/2L is the quotient by 1 - (-1) = 2
    out["quotient_one_minus_tau"] = list(ctx.tau().coinvariant_divisors)
    out["quotient_doubling"] = list(ctx.negation().coinvariant_divisors)
    return out


def _subgroup_table(p: int) -> list[list[list[int]]]:
    n = 2 * p
    raw = [
        {(0, j) for j in range(n)},
        {(i, 0) for i in range(n)},
        {(2 * k % n, p * k % n) for k in range(n)},
        {(p * k % n, 2 * k % n) for k in range(n)},
    ]
    return sorted(sorted([i, j] for i, j in group) for group in raw)


def _isotropic_expected(cfg: RunConfig) -> Any:
    return {"count": 4, "orders": [2 * cfg.p] * 4,
            "element_sets": _subgroup_table(cfg.p)}


def _isotropic_computed(cfg: RunConfig, ctx: _Context) -> Any:
    groups = maximal_isotropic_subgroups(2 * cfg.p)
    sets = sorted(g.elements for g in groups)
    return {"count": len(groups), "orders": sorted(g.order for g in groups),
            "element_sets": sets}


def _labels_expected(cfg: RunConfig) -> Any:
    p = cfg.p
    out = {}
    for i in range(1, 2 * p):
        if i == p:
            out[str(i)] = [j for j in range(2 * p) if j % 2 == 0]
        elif i % 2 == 0:
            out[str(i)] = [0, p]
        else:
            out[str(i)] = [0]
    return out


def _labels_computed(cfg: RunConfig, ctx: _Context) -> Any:
    return {str(i): sorted(integral_weight_labels(2 * cfg.p, i))
            for i in range(1, 2 * cfg.p)}


def _weight_one_expected(cfg: RunConfig) -> Any:
    p = cfg.p
    per = {str(i): 24 // (p - 1)
           for i in range(1, 2 * p) if i % 2 == 1 and i != p}
    return {"total": 24, "per_sector": per}


def _weight_one_table(g: Isometry) -> dict[str, Any]:
    """Weight-one dimension of the order-2p extension and the weight-one
    coefficient of each odd sector other than p."""
    return {"total": weight_one_dimension_H2(g),
            "per_sector": weight_one_by_sector(g)}


def _weight_one_computed(cfg: RunConfig, ctx: _Context) -> Any:
    return _weight_one_table(ctx.sigma())


def _moonshine_expected(cfg: RunConfig) -> Any:
    return {"head": [1, 0, 196884], "matches_j_expansion": True,
            "j_expansion_depth": int(cfg.cutoff) - 1,
            "matches_involution_construction": True,
            "involution_depth": cfg.cutoff}


def _moonshine_computed(cfg: RunConfig, ctx: _Context) -> Any:
    c = cfg.cutoff
    theta = ctx.theta(ceil(c))
    ch = orbifold_character(ctx.tau(), c, theta)
    head = [ch.coefficient_at(w) for w in (0, 1, 2)]
    # the orbifold grading sits one power above the modular expansion
    shifted = ch.shift(-1)
    j = moonshine_j(int(c) - 1)
    z2 = orbifold_character(ctx.negation(), c, theta)
    return {"head": head, "matches_j_expansion": shifted.agrees_with(j),
            "j_expansion_depth": min(shifted.weight_cutoff, j.weight_cutoff),
            "matches_involution_construction": z2.agrees_with(ch),
            "involution_depth": min(z2.weight_cutoff, ch.weight_cutoff)}


def _split_expected(cfg: RunConfig) -> Any:
    return {"even_weight2": 98580, "twisted_integral_weight2": 98304,
            "sum": 196884, "twined_trace_weight2": 276}


def _split_computed(cfg: RunConfig, ctx: _Context) -> Any:
    neg = ctx.negation()
    theta = ctx.theta(2)
    even = eigencomponent_character(neg, 2, 0, Fraction(2), theta)
    twined = twined_untwisted_character(neg, 1, Fraction(2), theta)
    sector = sector_invariants(neg, 1)
    tw = twisted_character(sector, Fraction(2)).extract_weight_class(0)
    even_w2 = even.coefficient_at(2)
    tw_w2 = tw.coefficient_at(2)
    return {"even_weight2": even_w2, "twisted_integral_weight2": tw_w2,
            "sum": even_w2 + tw_w2,
            "twined_trace_weight2": twined.coefficient_at(2)}


def _ground_truth_expected(cfg: RunConfig) -> Any:
    return {"rank": 24, "determinant": 1, "even": True,
            "norm_counts": {"0": 1, "2": 0, "4": 196560, "6": 16773120},
            "matches_modular_theta": True, "modular_theta_depth": 3,
            "weight1": 24, "weight2": 196884, "oscillator_weight2": 324}


def _ground_truth_computed(cfg: RunConfig, ctx: _Context) -> Any:
    lat = ctx.lattice()
    theta_enum = theta_series(lat, 3, budget=cfg.enumeration_budget)
    counts = [theta_enum.coefficient_at(w) for w in range(4)]
    modular = ctx.theta(3)
    untwisted = twined_untwisted_character(ctx.negation(), 0, Fraction(2),
                                           theta_enum)
    w2 = untwisted.coefficient_at(2)
    return {"rank": lat.rank, "determinant": lat.determinant(),
            "even": all(lat.gram[i][i] % 2 == 0 for i in range(lat.rank)),
            "norm_counts": {2 * w: c for w, c in enumerate(counts)},
            "matches_modular_theta": theta_enum.agrees_with(modular),
            "modular_theta_depth": min(theta_enum.weight_cutoff,
                                       modular.weight_cutoff),
            "weight1": untwisted.coefficient_at(1), "weight2": w2,
            "oscillator_weight2": w2 - counts[2]}


def _fermion_parity_counts(max_units: int) -> list[list[int]]:
    # subsets of modes 1/2, 3/2, ... by (total in half-units, parity)
    counts = [[0, 0] for _ in range(max_units + 1)]
    counts[0][0] = 1
    mode = 1
    while mode <= max_units:
        for total in range(max_units, mode - 1, -1):
            for parity in (0, 1):
                counts[total][parity ^ 1] += counts[total - mode][parity]
        mode += 2
    return counts


def _ising_expected(cfg: RunConfig) -> Any:
    return {"leading_exponents": list(ALLOWED_WEIGHTS),
            "extension_weight_one": 1,
            "ns_characters_match_fermion_oracle": True}


def _ising_computed(cfg: RunConfig, ctx: _Context) -> Any:
    depth = Fraction(10)
    chars = {h: c12_character(h, depth + h) for h in ALLOWED_WEIGHTS}
    leading = [chars[h].series.leading_term()[0] for h in ALLOWED_WEIGHTS]
    oracle = _fermion_parity_counts(20)
    ch0 = chars[Fraction(0)].series
    ch_half = chars[Fraction(1, 2)].series
    matches = all(
        ch0.coefficient_at(Fraction(u, 2)) == oracle[u][0]
        and ch_half.coefficient_at(Fraction(u, 2)) == oracle[u][1]
        for u in range(21))
    return {"leading_exponents": leading,
            "extension_weight_one": extension_weight_one_check(2),
            "ns_characters_match_fermion_oracle": matches}


@dataclass(frozen=True)
class ClaimSpec:
    slug: str
    description: str
    expected: Callable[[RunConfig], Any]
    computed: Callable[[RunConfig, _Context], Any]


CLAIM_REGISTRY: tuple[ClaimSpec, ...] = (
    ClaimSpec("isometry-witness",
              "Shipped order-2p isometry preserves the Gram matrix and has "
              "pure cyclotomic profile Phi_2p^(24/(p-1)).",
              _witness_expected, _witness_computed),
    ClaimSpec("eigenspace-dims",
              "Eigenspace dimensions of every nontrivial power follow the "
              "three-case formula in the power's residue class.",
              _dims_expected, _dims_computed),
    ClaimSpec("conformal-weights",
              "Twisted-sector conformal weights are (2p-1)/2p, (p+1)/p, 3/2 "
              "by residue class.",
              _weights_expected, _weights_computed),
    ClaimSpec("defect-dims",
              "Defect dimensions are 1, p^(12/(p-1)), 2^12 by residue class; "
              "Smith invariants of (1 - tau) and 2*I are p^(24/(p-1)) and "
              "2^24.",
              _defects_expected, _defects_computed),
    ClaimSpec("isotropic-subgroups",
              "Z_2p x Z_2p has exactly four maximal isotropic subgroups: "
              "both axes and the two twisted diagonals.",
              _isotropic_expected, _isotropic_computed),
    ClaimSpec("integral-weight-labels",
              "Integral-weight eigencomponent labels per sector: {0} for odd "
              "sectors, {0, p} for even sectors, the even labels for sector "
              "p.",
              _labels_expected, _labels_computed),
    ClaimSpec("weight-one-dim",
              "The order-2p extension has weight-one dimension 24, each odd "
              "sector contributing 24/(p-1).",
              _weight_one_expected, _weight_one_computed),
    ClaimSpec("moonshine-character",
              "The order-p orbifold character starts 1, 0, 196884, matches "
              "the modular J-expansion after the c/24 shift, and equals the "
              "involution orbifold character.",
              _moonshine_expected, _moonshine_computed),
    ClaimSpec("z2-split",
              "Weight-2 split under the involution: 98580 fixed + 98304 "
              "twisted-integral = 196884, with twined trace 276.",
              _split_expected, _split_computed),
    ClaimSpec("lattice-ground-truth",
              "The shipped lattice is even unimodular of rank 24 with "
              "norm-4 count 196560 and norm-6 count 16773120, so its "
              "enumerated theta series equals E4^3 - 720 Delta through "
              "weight 3; its untwisted character gives 24 and "
              "196884 = 196560 + 324.",
              _ground_truth_expected, _ground_truth_computed),
    ClaimSpec("ising-characters",
              "c = 1/2 characters lead with exponents 0, 1/2, 1/16; the "
              "two-module extension check is 1; NS characters match the "
              "fermionic oracle to weight 10.",
              _ising_expected, _ising_computed),
)


def _run_claim(spec: ClaimSpec, cfg: RunConfig, ctx: _Context) -> ClaimEntry:
    expected = plain(spec.expected(cfg))
    try:
        computed = plain(spec.computed(cfg, ctx))
    except DataMissing:
        raise
    except Exception as exc:  # captured as a failed entry, not a crash
        return ClaimEntry(spec.slug, spec.description, False,
                          {"error": f"{type(exc).__name__}: {exc}"}, expected)
    return ClaimEntry(spec.slug, spec.description, computed == expected,
                      computed, expected)


def run_verification_suite(cfg: RunConfig) -> Report:
    """Run every registered claim; entries appear in registry order."""
    ctx = _Context(cfg.p, cfg.data_dir)
    config = {"p": cfg.p, "cutoff": cfg.cutoff,
              "enumeration_budget": cfg.enumeration_budget,
              "data_dir": str(cfg.data_dir) if cfg.data_dir else None,
              "output": cfg.output}
    entries = [_run_claim(spec, cfg, ctx) for spec in CLAIM_REGISTRY]
    return Report(config=config, entries=entries)


# ----- configuration file ---------------------------------------------------


def load_config_file(path: Path) -> dict[str, str]:
    """Flat key=value lines; blank lines and '#' comments ignored."""
    values: dict[str, str] = {}
    for lineno, raw in enumerate(path.read_text().splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ValueError(f"{path}:{lineno}: expected key=value")
        key, _, value = line.partition("=")
        key = key.strip()
        if key not in CONFIG_KEYS:
            raise ValueError(f"{path}:{lineno}: unknown key {key!r}; "
                             f"expected one of {', '.join(CONFIG_KEYS)}")
        values[key] = value.strip()
    return values


def _resolve(args: argparse.Namespace, config: dict[str, str], key: str,
             default: Any, convert: Callable[[str], Any]) -> Any:
    flag = getattr(args, key, None)
    if flag is not None:
        return flag
    raw = config.get(key)
    if raw is None:
        return default
    return convert(raw)


# ----- subcommand handlers --------------------------------------------------


def _emit(payload: Any) -> None:
    sys.stdout.write(json.dumps(plain(payload), indent=2, sort_keys=True)
                     + "\n")


def _data_dir(args: argparse.Namespace, config: dict[str, str]) -> Path | None:
    return _resolve(args, config, "data_dir", None, Path)


def _cmd_verify(args: argparse.Namespace, config: dict[str, str]) -> int:
    p = _resolve(args, config, "p", None, int)
    if p is None:
        raise ValueError("p is required: pass --p or set p in the config file")
    cfg = RunConfig(
        p=p,
        cutoff=_resolve(args, config, "cutoff", DEFAULT_SUITE_CUTOFF, Fraction),
        enumeration_budget=_resolve(args, config, "budget",
                                    DEFAULT_NODE_BUDGET, _budget),
        data_dir=_data_dir(args, config),
        output=_resolve(args, config, "format", "json", str),
    )
    report = run_verification_suite(cfg)
    sys.stdout.write(emit_report(report, cfg.output))
    return 0 if report.all_passed else 1


def _cmd_lattice_check(args: argparse.Namespace, config: dict[str, str]) -> int:
    lat = load_lattice(Path(args.file).read_text(), label=args.file)
    _emit({"file": args.file, "rank": lat.rank,
           "determinant": lat.determinant(),
           "even": True, "unimodular": lat.determinant() in (1, -1)})
    return 0


def _cmd_lattice_theta(args: argparse.Namespace, config: dict[str, str]) -> int:
    lat = load_lattice(Path(args.file).read_text(), label=args.file)
    budget = _resolve(args, config, "budget", DEFAULT_NODE_BUDGET, _budget)
    if args.max_norm < 0:
        raise ValueError("max_norm must be nonnegative")
    if args.max_norm % 2:
        raise ValueError("max_norm must be even for an even lattice")
    theta = theta_series(lat, Fraction(args.max_norm, 2),
                         budget=budget).rescaled(2)
    counts = {str(m): theta.coefficient_at(Fraction(m, 2))
              for m in range(0, args.max_norm + 1, 2)}
    _emit({"file": args.file, "max_norm": args.max_norm, "counts": counts,
           "theta": theta.to_dict()})
    return 0


def _load_isometry_args(args: argparse.Namespace):
    lat = load_lattice(Path(args.lattice).read_text(), label=args.lattice)
    matrix = parse_matrix(Path(args.matrix).read_text())
    return lat, verify_isometry(lat, matrix)


def _cmd_isometry_verify(args: argparse.Namespace,
                         config: dict[str, str]) -> int:
    _, iso = _load_isometry_args(args)
    profile = cyclotomic_profile(iso)
    _emit({"gram_preserving": True, "order": multiplicative_order(iso),
           "profile": profile.as_dict()})
    return 0


def _cmd_isometry_profile(args: argparse.Namespace,
                          config: dict[str, str]) -> int:
    _, iso = _load_isometry_args(args)
    profile = cyclotomic_profile(iso)
    order = multiplicative_order(iso)
    _emit({"order": order, "profile": profile.as_dict(),
           "eigenspace_dims": profile.eigenspace_dims(order)})
    return 0


def _cmd_isometry_search(args: argparse.Namespace,
                         config: dict[str, str]) -> int:
    data_dir = _data_dir(args, config)
    lat = load_leech(data_dir)
    gen_a, gen_b = load_generators(data_dir, lattice=lat)
    budget = _resolve(args, config, "budget", DEFAULT_SEARCH_BUDGET, _budget)
    seed = _resolve(args, config, "seed", 0, int)
    result = search_isometry([gen_a, gen_b], sigma_profile(args.p),
                             budget=budget, seed=seed)
    profile = cyclotomic_profile(result.isometry)
    _emit({"p": args.p, "seed": seed, "budget": budget,
           "word": list(result.word),
           "order": multiplicative_order(result.isometry),
           "profile": profile.as_dict()})
    return 0


def _cmd_sectors_table(args: argparse.Namespace, config: dict[str, str]) -> int:
    ctx = _Context(args.p, _data_dir(args, config))
    rows = [{"i": i, "eigenspace_dims": inv.eig_dims,
             "conformal_weight": inv.rho, "defect_dim": inv.defect_dim}
            for i, inv in enumerate(ctx.sectors(), 1)]
    fmt = _resolve(args, config, "format", "json", str)
    if fmt == "json":
        _emit({"p": args.p, "sectors": rows})
    elif fmt == "markdown":
        lines = [f"# Twisted sectors, order {2 * args.p}", "",
                 "| i | eigenspace dims | conformal weight | defect dim |",
                 "| --- | --- | --- | --- |"]
        for row in rows:
            dims = " ".join(str(d) for d in row["eigenspace_dims"])
            lines.append(f"| {row['i']} | {dims} | {row['conformal_weight']} "
                         f"| {row['defect_dim']} |")
        sys.stdout.write("\n".join(lines) + "\n")
    else:
        raise ValueError(f"unknown format {fmt!r}")
    return 0


def _cmd_sectors_character(args: argparse.Namespace,
                           config: dict[str, str]) -> int:
    ctx = _Context(args.p, _data_dir(args, config))
    cutoff = _resolve(args, config, "cutoff", Fraction(6), Fraction)
    inv = sector_invariants(ctx.sigma(), args.i)
    series = twisted_character(inv, cutoff)
    _emit({"p": args.p, "i": args.i, "conformal_weight": inv.rho,
           "defect_dim": inv.defect_dim,
           "series": series.to_dict()})
    return 0


def _cmd_fusion_isotropic(args: argparse.Namespace,
                          config: dict[str, str]) -> int:
    groups = maximal_isotropic_subgroups(args.n)
    _emit({"n": args.n, "count": len(groups), "subgroups": [
        {"order": g.order, "generators": g.generators,
         "elements": g.elements} for g in groups]})
    return 0


def _cmd_fusion_orbifold(args: argparse.Namespace,
                         config: dict[str, str]) -> int:
    ctx = _Context(args.p, _data_dir(args, config))
    cutoff = _resolve(args, config, "cutoff", DEFAULT_SUITE_CUTOFF, Fraction)
    g = ctx.tau() if args.construction == "zp" else ctx.sigma().power(args.p)
    series = orbifold_character(g, cutoff, ctx.theta(ceil(cutoff)))
    if args.shift_c24:
        series = series.shift(-1)
    _emit({"p": args.p, "construction": args.construction,
           "cutoff": cutoff, "shifted": bool(args.shift_c24),
           "series": series.to_dict()})
    return 0


def _cmd_fusion_weight1(args: argparse.Namespace,
                        config: dict[str, str]) -> int:
    ctx = _Context(args.p, _data_dir(args, config))
    _emit({"p": args.p, **_weight_one_table(ctx.sigma())})
    return 0


def _cmd_ising_chars(args: argparse.Namespace, config: dict[str, str]) -> int:
    cutoff = _resolve(args, config, "cutoff", Fraction(6), Fraction)
    payload = {}
    for h in ALLOWED_WEIGHTS:
        ch = c12_character(h, cutoff)
        payload[str(h)] = ch.series.to_dict()
    _emit({"cutoff": cutoff, "characters": payload})
    return 0


def _cmd_ising_extension(args: argparse.Namespace,
                         config: dict[str, str]) -> int:
    value = extension_weight_one_check(2)
    _emit({"weight_one_coefficient": value, "passed": value == 1})
    return 0


# ----- parser ---------------------------------------------------------------


def _budget(text: str) -> int:
    """A budget flag or config value: a positive integer."""
    try:
        if int(text) > 0:
            return int(text)
    except ValueError:
        pass
    raise argparse.ArgumentTypeError(
        f"budget must be a positive integer, got {text!r}")


def _fraction(text: str) -> Fraction:
    """A rational flag value.  argparse turns only ValueError and TypeError
    into usage errors, so a zero denominator is made one here too."""
    try:
        return Fraction(text)
    except (ValueError, ZeroDivisionError):
        raise argparse.ArgumentTypeError(f"invalid fraction {text!r}") from None


def _add_data_dir(parser: argparse.ArgumentParser) -> None:
    # SUPPRESS keeps a subcommand-level absence from clobbering the
    # top-level --data-dir value already in the namespace
    parser.add_argument("--data-dir", dest="data_dir", type=Path,
                        default=argparse.SUPPRESS,
                        help="directory with the shipped data "
                        "(also via ORBIFOLDRY_DATA)")


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="orbifoldry",
        description="Exact-arithmetic checks for cyclic orbifold "
                    "constructions on the Leech lattice.")
    parser.add_argument("--config", type=Path, default=None,
                        help="flat key=value configuration file")
    parser.add_argument("--data-dir", dest="data_dir", type=Path,
                        default=None, help="directory with the shipped data "
                        "(also via ORBIFOLDRY_DATA)")
    sub = parser.add_subparsers(dest="command", required=True)

    verify = sub.add_parser("verify", help="run the verification suite")
    verify.add_argument("--p", type=int, default=None, choices=SUPPORTED_P)
    verify.add_argument("--cutoff", type=_fraction, default=None)
    verify.add_argument("--budget", type=_budget, default=None)
    verify.add_argument("--format", dest="format", default=None,
                        choices=OUTPUT_FORMATS)
    _add_data_dir(verify)
    verify.set_defaults(handler=_cmd_verify)

    lattice = sub.add_parser("lattice", help="lattice file utilities")
    lattice_sub = lattice.add_subparsers(dest="subcommand", required=True)
    check = lattice_sub.add_parser("check")
    check.add_argument("file")
    check.set_defaults(handler=_cmd_lattice_check)
    theta = lattice_sub.add_parser("theta")
    theta.add_argument("file")
    theta.add_argument("--max-norm", dest="max_norm", type=int, required=True)
    theta.add_argument("--budget", type=_budget, default=None)
    theta.set_defaults(handler=_cmd_lattice_theta)

    isometry = sub.add_parser("isometry", help="isometry utilities")
    isometry_sub = isometry.add_subparsers(dest="subcommand", required=True)
    iso_verify = isometry_sub.add_parser("verify")
    iso_verify.add_argument("lattice")
    iso_verify.add_argument("matrix")
    iso_verify.set_defaults(handler=_cmd_isometry_verify)
    iso_profile = isometry_sub.add_parser("profile")
    iso_profile.add_argument("lattice")
    iso_profile.add_argument("matrix")
    iso_profile.set_defaults(handler=_cmd_isometry_profile)
    iso_search = isometry_sub.add_parser("search")
    iso_search.add_argument("--p", type=int, required=True,
                            choices=SUPPORTED_P)
    iso_search.add_argument("--budget", type=_budget, default=None)
    iso_search.add_argument("--seed", type=int, default=None)
    _add_data_dir(iso_search)
    iso_search.set_defaults(handler=_cmd_isometry_search)

    sectors = sub.add_parser("sectors", help="twisted-sector tables")
    sectors_sub = sectors.add_subparsers(dest="subcommand", required=True)
    table = sectors_sub.add_parser("table")
    table.add_argument("--p", type=int, required=True, choices=SUPPORTED_P)
    table.add_argument("--format", dest="format", default=None,
                       choices=OUTPUT_FORMATS)
    _add_data_dir(table)
    table.set_defaults(handler=_cmd_sectors_table)
    character = sectors_sub.add_parser("character")
    character.add_argument("--p", type=int, required=True,
                           choices=SUPPORTED_P)
    character.add_argument("--i", type=int, required=True)
    character.add_argument("--cutoff", type=_fraction, default=None)
    _add_data_dir(character)
    character.set_defaults(handler=_cmd_sectors_character)

    fusion = sub.add_parser("fusion", help="fusion-group combinatorics")
    fusion_sub = fusion.add_subparsers(dest="subcommand", required=True)
    isotropic = fusion_sub.add_parser("isotropic")
    isotropic.add_argument("--n", type=int, required=True)
    isotropic.set_defaults(handler=_cmd_fusion_isotropic)
    orbifold = fusion_sub.add_parser("orbifold")
    orbifold.add_argument("--p", type=int, required=True, choices=SUPPORTED_P)
    orbifold.add_argument("--construction", choices=("zp", "z2"),
                          default="zp")
    orbifold.add_argument("--cutoff", type=_fraction, default=None)
    orbifold.add_argument("--shift-c24", dest="shift_c24",
                          action="store_true",
                          help="emit q^(-1) times the character, aligning "
                          "it with the modular J-expansion")
    _add_data_dir(orbifold)
    orbifold.set_defaults(handler=_cmd_fusion_orbifold)
    weight1 = fusion_sub.add_parser("weight1")
    weight1.add_argument("--p", type=int, required=True, choices=SUPPORTED_P)
    _add_data_dir(weight1)
    weight1.set_defaults(handler=_cmd_fusion_weight1)

    ising = sub.add_parser("ising", help="c = 1/2 character utilities")
    ising_sub = ising.add_subparsers(dest="subcommand", required=True)
    chars = ising_sub.add_parser("chars")
    chars.add_argument("--cutoff", type=_fraction, default=None)
    chars.set_defaults(handler=_cmd_ising_chars)
    extension = ising_sub.add_parser("extension-check")
    extension.set_defaults(handler=_cmd_ising_extension)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        config = load_config_file(args.config) if args.config else {}
        return args.handler(args, config)
    except DataMissing as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (ValueError, ArithmeticError, RuntimeError, LookupError,
            OSError, argparse.ArgumentTypeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
