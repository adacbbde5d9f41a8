"""The end-to-end verification suite, which `orbifoldry verify` runs.

The suite runs a fixed registry of claims, each comparing a computed
value against an expected value in exact arithmetic, into a report that
`report` emits as deterministic JSON or Markdown.  Exit status is 0 only
when every claim passes.

The command line is `commands`.  This module binds its `main` and
imports every traced layer, because perfbench/spans.py enters through
`orbifoldry.cli.main` and snapshots the loaded modules right after
importing it.  That reverses the intended names (front end `cli`, suite
`claims`) until the benchmark reads a trace instead of wrapping names.
"""

from __future__ import annotations

import sys
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from math import ceil, gcd
from pathlib import Path
from typing import Any, Callable, NamedTuple

from .commands import DEFAULT_SUITE_CUTOFF, OUTPUT_FORMATS, main
from .datafiles import (
    SUPPORTED_P,
    DataMissing,
    load_leech,
    load_sigma,
)
from .fusion import (
    integral_weight_labels,
    maximal_isotropic_subgroups,
    orbifold_character,
    weight_one_dimension_H2,
)
from .ising import ALLOWED_WEIGHTS, c12_character, extension_weight_one_check
from .isometry import (
    Isometry,
    cyclotomic_profile,
    multiplicative_order,
    negation_isometry,
)
from .lattice import (
    DEFAULT_NODE_BUDGET,
    BudgetExceeded,
    Lattice,
    enumerate_vectors_by_norm,
)
from .modular import moonshine_j, unimodular_theta_rank24
from .qseries import FracSeries
from .report import ClaimEntry, Report, plain
from .sectors import (
    SectorInvariants,
    eigencomponent_character,
    sector_invariants,
    twined_untwisted_character,
    twisted_character,
)

__all__ = ["RunConfig", "CLAIM_REGISTRY", "run_verification_suite"]


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
    """The suite's lazy, cached access to the shipped data of one run: a
    loader error surfaces inside whichever claim first touches the object,
    and each object is built once for all the claims that read it."""

    def __init__(self, cfg: RunConfig) -> None:
        self.cfg = cfg

    @cached_property
    def lattice(self) -> Lattice:
        return load_leech(self.cfg.data_dir)

    @cached_property
    def sigma(self) -> Isometry:
        return load_sigma(self.cfg.p, self.cfg.data_dir, lattice=self.lattice)

    @cached_property
    def tau(self) -> Isometry:
        return self.sigma.power(2)

    @cached_property
    def negation(self) -> Isometry:
        return negation_isometry(self.lattice)

    @cached_property
    def _enumeration(self) -> dict[int, int] | BudgetExceeded:
        # outside the try: a loader error is raised to each claim afresh
        lattice = self.lattice
        try:
            return enumerate_vectors_by_norm(
                lattice, 6, budget=self.cfg.enumeration_budget)
        except BudgetExceeded as exc:
            return exc

    def norm_counts(self) -> dict[int, int]:
        """The loaded lattice's vector counts by norm 0, 2, 4, 6, enumerated
        once per run; a budget failure is kept and raised to each reader."""
        if isinstance(self._enumeration, BudgetExceeded):
            raise self._enumeration
        return self._enumeration

    @cached_property
    def theta(self) -> FracSeries:
        """The loaded lattice's theta series, exact through weight
        ceil(cutoff), the deepest any claim reads; a product with a
        shallower series is cut off at that series' cutoff.

        load_leech accepts only even unimodular lattices of rank 24, whose
        theta series lie in M_12(SL_2(Z)) = <E4^3, Delta>; the constant
        term 1 and the norm-2 count N_2 fix it as E4^3 + (N_2 - 720) Delta.
        """
        return unimodular_theta_rank24(ceil(self.cfg.cutoff),
                                       roots=self.norm_counts()[2])

    @cached_property
    def sectors(self) -> list[SectorInvariants]:
        """The invariants of the sigma^i-twisted sectors, i = 1..2p-1."""
        return [sector_invariants(self.sigma, i) for i in range(1, 2 * self.cfg.p)]


# ----- claim bodies ---------------------------------------------------------


class _ExpectedSector(NamedTuple):
    eig_dims: list[int]
    rho: Fraction
    defect_dim: int
    labels: list[int]
    weight_one: int


def _expected_sector(p: int, i: int) -> _ExpectedSector:
    """The paper's sigma^i-twisted sector, 0 < i < 2p, by the residue
    class of i: i = p, i odd, i even.  Only the odd i other than p lie
    below weight one; each of those adds 24/(p-1) weight-one states."""
    m, d = 2 * p, 24 // (p - 1)
    if i == p:
        return _ExpectedSector([24 if j == p else 0 for j in range(m)],
                               Fraction(3, 2), 2**12, list(range(0, m, 2)), 0)
    if i % 2:
        return _ExpectedSector([d if gcd(j, m) == 1 else 0 for j in range(m)],
                               Fraction(m - 1, m), 1, [0], d)
    return _ExpectedSector([d if gcd(j, m) == 2 else 0 for j in range(m)],
                           Fraction(p + 1, p), p ** (12 // (p - 1)), [0, p], 0)


def _per_sector(cfg: RunConfig, field: str) -> dict[str, Any]:
    return {str(i): getattr(_expected_sector(cfg.p, i), field)
            for i in range(1, 2 * cfg.p)}


def _witness_expected(cfg: RunConfig) -> Any:
    p = cfg.p
    return {"order": 2 * p, "profile": {str(2 * p): 24 // (p - 1)},
            "fixed_sublattice_rank": 0, "gram_preserving": True}


def _witness_computed(cfg: RunConfig, ctx: _Context) -> Any:
    # load_sigma verified the Gram preservation; a corrupt sigma raises there
    g = ctx.sigma
    profile = cyclotomic_profile(g)
    return {"order": multiplicative_order(g), "profile": profile.as_dict(),
            "fixed_sublattice_rank": profile.multiplicity(1),
            "gram_preserving": True}


def _dims_expected(cfg: RunConfig) -> Any:
    return _per_sector(cfg, "eig_dims")


def _dims_computed(cfg: RunConfig, ctx: _Context) -> Any:
    return {i: inv.eig_dims for i, inv in enumerate(ctx.sectors, 1)}


def _weights_expected(cfg: RunConfig) -> Any:
    return _per_sector(cfg, "rho")


def _weights_computed(cfg: RunConfig, ctx: _Context) -> Any:
    return {i: inv.rho for i, inv in enumerate(ctx.sectors, 1)}


def _defects_expected(cfg: RunConfig) -> Any:
    out = _per_sector(cfg, "defect_dim")
    out["quotient_one_minus_tau"] = [cfg.p] * (24 // (cfg.p - 1))
    out["quotient_doubling"] = [2] * 24
    return out


def _defects_computed(cfg: RunConfig, ctx: _Context) -> Any:
    out: dict[Any, Any] = {i: inv.defect_dim
                           for i, inv in enumerate(ctx.sectors, 1)}
    # L/2L is the quotient by 1 - (-1) = 2
    out["quotient_one_minus_tau"] = list(ctx.tau.coinvariant_divisors)
    out["quotient_doubling"] = list(ctx.negation.coinvariant_divisors)
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
    return _per_sector(cfg, "labels")


def _labels_computed(cfg: RunConfig, ctx: _Context) -> Any:
    return {str(i): sorted(integral_weight_labels(2 * cfg.p, i))
            for i in range(1, 2 * cfg.p)}


def _weight_one_expected(cfg: RunConfig) -> Any:
    per = {i: n for i, n in _per_sector(cfg, "weight_one").items() if n}
    return {"total": 24, "per_sector": per}


def _weight_one_computed(cfg: RunConfig, ctx: _Context) -> Any:
    # a sector adds to weight one only if its conformal weight is at most 1
    per = {i: twisted_character(inv, 1).coefficient_at(1)
           for i, inv in enumerate(ctx.sectors, 1) if inv.rho <= 1}
    return {"total": weight_one_dimension_H2(ctx.sigma, ctx.theta),
            "per_sector": per}


def _moonshine_expected(cfg: RunConfig) -> Any:
    return {"head": [1, 0, 196884], "matches_j_expansion": True,
            "j_expansion_depth": int(cfg.cutoff) - 1,
            "matches_involution_construction": True,
            "involution_depth": cfg.cutoff}


def _moonshine_computed(cfg: RunConfig, ctx: _Context) -> Any:
    c, theta = cfg.cutoff, ctx.theta
    ch = orbifold_character(ctx.tau, c, theta)
    head = [ch.coefficient_at(w) for w in (0, 1, 2)]
    # the orbifold grading sits one power above the modular expansion
    shifted = ch.shift(-1)
    j = moonshine_j(int(c) - 1)
    z2 = orbifold_character(ctx.negation, c, theta)
    return {"head": head, "matches_j_expansion": shifted.agrees_with(j),
            "j_expansion_depth": min(shifted.weight_cutoff, j.weight_cutoff),
            "matches_involution_construction": z2.agrees_with(ch),
            "involution_depth": min(z2.weight_cutoff, ch.weight_cutoff)}


def _split_expected(cfg: RunConfig) -> Any:
    return {"even_weight1": 0, "twisted_integral_weight1": 0,
            "even_weight2": 98580, "twisted_integral_weight2": 98304,
            "sum": 196884, "twined_trace_weight2": 276}


def _split_computed(cfg: RunConfig, ctx: _Context) -> Any:
    neg, theta = ctx.negation, ctx.theta
    even = eigencomponent_character(neg, 0, Fraction(2), theta)
    twined = twined_untwisted_character(neg, 1, Fraction(2), theta)
    sector = sector_invariants(neg, 1)
    tw = twisted_character(sector, Fraction(2)).extract_weight_class(0)
    even_w2 = even.coefficient_at(2)
    tw_w2 = tw.coefficient_at(2)
    return {"even_weight1": even.coefficient_at(1),
            "twisted_integral_weight1": tw.coefficient_at(1),
            "even_weight2": even_w2, "twisted_integral_weight2": tw_w2,
            "sum": even_w2 + tw_w2,
            "twined_trace_weight2": twined.coefficient_at(2)}


def _ground_truth_expected(cfg: RunConfig) -> Any:
    return {"rank": 24, "determinant": 1, "even": True,
            "norm_counts": {"0": 1, "2": 0, "4": 196560, "6": 16773120},
            "matches_modular_theta": True, "modular_theta_depth": 3,
            "weight1": 24, "weight2": 196884, "oscillator_weight2": 324}


def _ground_truth_computed(cfg: RunConfig, ctx: _Context) -> Any:
    lat = ctx.lattice
    counts = ctx.norm_counts()
    # at grain 2 the term q^(norm/2) sits at key norm
    theta_enum = FracSeries(2, counts, 6)
    modular = unimodular_theta_rank24(3)
    untwisted = twined_untwisted_character(ctx.negation, 0, Fraction(2),
                                           theta_enum)
    w2 = untwisted.coefficient_at(2)
    return {"rank": lat.rank, "determinant": lat.determinant(),
            "even": all(lat.gram[i][i] % 2 == 0 for i in range(lat.rank)),
            "norm_counts": counts,
            "matches_modular_theta": theta_enum.agrees_with(modular),
            "modular_theta_depth": min(theta_enum.weight_cutoff,
                                       modular.weight_cutoff),
            "weight1": untwisted.coefficient_at(1), "weight2": w2,
            "oscillator_weight2": w2 - counts[4]}


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
    leading = [chars[h].leading_term()[0] for h in ALLOWED_WEIGHTS]
    oracle = _fermion_parity_counts(20)
    ch0 = chars[Fraction(0)]
    ch_half = chars[Fraction(1, 2)]
    matches = all(
        ch0.coefficient_at(Fraction(u, 2)) == oracle[u][0]
        and ch_half.coefficient_at(Fraction(u, 2)) == oracle[u][1]
        for u in range(21))
    return {"leading_exponents": leading,
            "extension_weight_one": extension_weight_one_check(),
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
              "The order-2p extension has weight-one dimension 24: the "
              "untwisted fixed part has no weight-one vector, and each odd "
              "sector other than p contributes 24/(p-1).",
              _weight_one_expected, _weight_one_computed),
    ClaimSpec("moonshine-character",
              "The order-p orbifold character starts 1, 0, 196884, matches "
              "the modular J-expansion after the c/24 shift, and equals the "
              "involution orbifold character.",
              _moonshine_expected, _moonshine_computed),
    ClaimSpec("z2-split",
              "Split under the involution: no weight-one vector in the fixed "
              "or the twisted-integral part; at weight 2, 98580 fixed + "
              "98304 twisted-integral = 196884, with twined trace 276.",
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
    ctx = _Context(cfg)
    config = {"p": cfg.p, "cutoff": cfg.cutoff,
              "enumeration_budget": cfg.enumeration_budget,
              "data_dir": str(cfg.data_dir) if cfg.data_dir else None,
              "output": cfg.output}
    entries = [_run_claim(spec, cfg, ctx) for spec in CLAIM_REGISTRY]
    return Report(config=config, entries=entries)


if __name__ == "__main__":
    sys.exit(main())
