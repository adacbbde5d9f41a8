"""Command-line front end, entered by `orbifoldry` and `python -m orbifoldry`.

Each handler imports the layers it reads when it runs, so only `verify`
loads the verification suite in `cli`.
"""

from __future__ import annotations

import argparse
import json
import sys
from fractions import Fraction
from math import ceil
from pathlib import Path
from typing import Any

from .datafiles import SUPPORTED_P
from .lattice import DEFAULT_NODE_BUDGET
from .report import plain

# the acceptance depth: head coefficients to weight 2 plus cross-checks
# through weight 4 are already decisive, and norm-6 theta data suffices
DEFAULT_SUITE_CUTOFF = Fraction(4)

OUTPUT_FORMATS = ("json", "markdown")


# ----- subcommand handlers --------------------------------------------------


def _emit(payload: Any) -> None:
    sys.stdout.write(json.dumps(plain(payload), indent=2, sort_keys=True)
                     + "\n")


def _cmd_verify(args: argparse.Namespace) -> int:
    from .cli import RunConfig, run_verification_suite
    from .report import emit_report
    cfg = RunConfig(p=args.p, cutoff=args.cutoff,
                    enumeration_budget=args.budget, data_dir=args.data_dir,
                    output=args.format)
    report = run_verification_suite(cfg)
    sys.stdout.write(emit_report(report, cfg.output))
    return 0 if report.all_passed else 1


def _cmd_lattice_check(args: argparse.Namespace) -> int:
    from .lattice import Lattice, parse_matrix
    lat = Lattice(parse_matrix(Path(args.file).read_text()), label=args.file)
    _emit({"file": args.file, "rank": lat.rank,
           "determinant": lat.determinant(),
           "even": True, "unimodular": lat.determinant() in (1, -1)})
    return 0


def _cmd_lattice_theta(args: argparse.Namespace) -> int:
    from .lattice import Lattice, parse_matrix, theta_series
    lat = Lattice(parse_matrix(Path(args.file).read_text()), label=args.file)
    if args.max_norm < 0:
        raise ValueError("max_norm must be nonnegative")
    if args.max_norm % 2:
        raise ValueError("max_norm must be even for an even lattice")
    theta = theta_series(lat, Fraction(args.max_norm, 2),
                         budget=args.budget).rescaled(2)
    counts = {str(m): theta.coefficient_at(Fraction(m, 2))
              for m in range(0, args.max_norm + 1, 2)}
    _emit({"file": args.file, "max_norm": args.max_norm, "counts": counts,
           "theta": theta.to_dict()})
    return 0


def _cmd_isometry_profile(args: argparse.Namespace) -> int:
    from .isometry import Isometry, cyclotomic_profile, multiplicative_order
    from .lattice import Lattice, parse_matrix
    lat = Lattice(parse_matrix(Path(args.lattice).read_text()), label=args.lattice)
    iso = Isometry(lat, parse_matrix(Path(args.matrix).read_text()))
    profile = cyclotomic_profile(iso)
    order = multiplicative_order(iso)
    _emit({"order": order, "profile": profile.as_dict(),
           "eigenspace_dims": profile.eigenspace_dims(order)})
    return 0


def _cmd_sectors_character(args: argparse.Namespace) -> int:
    from .datafiles import load_leech, load_sigma
    from .sectors import sector_invariants, twisted_character
    if args.i % (2 * args.p) == 0:
        raise ValueError(f"--i must not be a multiple of 2p = {2 * args.p}: "
                         f"sigma^{args.i} is the identity")
    sigma = load_sigma(args.p, args.data_dir, lattice=load_leech(args.data_dir))
    inv = sector_invariants(sigma, args.i)
    series = twisted_character(inv, args.cutoff)
    _emit({"p": args.p, "i": args.i, "conformal_weight": inv.rho,
           "defect_dim": inv.defect_dim,
           "series": series.to_dict()})
    return 0


def _cmd_fusion_isotropic(args: argparse.Namespace) -> int:
    from .fusion import maximal_isotropic_subgroups
    groups = maximal_isotropic_subgroups(args.n)
    _emit({"n": args.n, "count": len(groups), "subgroups": [
        {"order": g.order, "generators": g.generators,
         "elements": g.elements} for g in groups]})
    return 0


def _cmd_fusion_orbifold(args: argparse.Namespace) -> int:
    from .datafiles import load_leech, load_sigma
    from .fusion import orbifold_character
    from .isometry import negation_isometry
    from .modular import unimodular_theta_rank24
    lattice = load_leech(args.data_dir)
    # the lift of -1 is sigma^p, but building it reads no sigma
    g = (load_sigma(args.p, args.data_dir, lattice=lattice).power(2)
         if args.construction == "zp" else negation_isometry(lattice))
    series = orbifold_character(g, args.cutoff,
                                unimodular_theta_rank24(ceil(args.cutoff)))
    if args.shift_c24:
        series = series.shift(-1)
    _emit({"p": args.p, "construction": args.construction,
           "cutoff": args.cutoff, "shifted": bool(args.shift_c24),
           "series": series.to_dict()})
    return 0


def _cmd_ising_chars(args: argparse.Namespace) -> int:
    from .ising import ALLOWED_WEIGHTS, c12_character
    payload = {}
    for h in ALLOWED_WEIGHTS:
        payload[str(h)] = c12_character(h, args.cutoff).to_dict()
    _emit({"cutoff": args.cutoff, "characters": payload})
    return 0


# ----- parser ---------------------------------------------------------------


def _budget(text: str) -> int:
    """A budget flag: a positive integer."""
    try:
        if int(text) > 0:
            return int(text)
    except ValueError:
        pass
    raise argparse.ArgumentTypeError(
        f"budget must be a positive integer, got {text!r}")


def _fraction(text: str) -> Fraction:
    """A rational flag.  argparse turns only ValueError and TypeError into
    usage errors, so a zero denominator is made one here too."""
    try:
        return Fraction(text)
    except (ValueError, ZeroDivisionError):
        raise argparse.ArgumentTypeError(f"invalid fraction {text!r}") from None


def _add_p(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--p", type=int, required=True, choices=SUPPORTED_P)


def _add_data_dir(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--data-dir", dest="data_dir", type=Path, default=None,
                        help="directory with the shipped data "
                        "(also via ORBIFOLDRY_DATA)")


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="orbifoldry",
        description="Exact-arithmetic checks for cyclic orbifold "
                    "constructions on the Leech lattice.")
    sub = parser.add_subparsers(dest="command", required=True)

    verify = sub.add_parser("verify", help="run the verification suite")
    _add_p(verify)
    verify.add_argument("--cutoff", type=_fraction,
                        default=DEFAULT_SUITE_CUTOFF)
    verify.add_argument("--budget", type=_budget, default=DEFAULT_NODE_BUDGET)
    verify.add_argument("--format", dest="format", default="json",
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
    theta.add_argument("--budget", type=_budget, default=DEFAULT_NODE_BUDGET)
    theta.set_defaults(handler=_cmd_lattice_theta)

    isometry = sub.add_parser("isometry", help="isometry utilities")
    isometry_sub = isometry.add_subparsers(dest="subcommand", required=True)
    iso_profile = isometry_sub.add_parser("profile")
    iso_profile.add_argument("lattice")
    iso_profile.add_argument("matrix")
    iso_profile.set_defaults(handler=_cmd_isometry_profile)

    sectors = sub.add_parser("sectors", help="twisted-sector tables")
    sectors_sub = sectors.add_subparsers(dest="subcommand", required=True)
    character = sectors_sub.add_parser("character")
    _add_p(character)
    character.add_argument("--i", type=int, required=True)
    character.add_argument("--cutoff", type=_fraction, default=Fraction(6))
    _add_data_dir(character)
    character.set_defaults(handler=_cmd_sectors_character)

    fusion = sub.add_parser("fusion", help="fusion-group combinatorics")
    fusion_sub = fusion.add_subparsers(dest="subcommand", required=True)
    isotropic = fusion_sub.add_parser("isotropic")
    isotropic.add_argument("--n", type=int, required=True)
    isotropic.set_defaults(handler=_cmd_fusion_isotropic)
    orbifold = fusion_sub.add_parser(
        "orbifold", description="The untwisted part of the character uses "
        "the modular theta E4^3 - 720 Delta, not the enumerated theta of the "
        "loaded lattice: this command is a passthrough, not a claim.")
    _add_p(orbifold)
    orbifold.add_argument("--construction", choices=("zp", "z2"),
                          default="zp",
                          help="zp: the Z_p orbifold by tau = sigma^2 "
                          "(default); z2: the Z_2 orbifold by the lift of "
                          "-1, which reads no sigma")
    orbifold.add_argument("--cutoff", type=_fraction,
                          default=DEFAULT_SUITE_CUTOFF)
    orbifold.add_argument("--shift-c24", dest="shift_c24",
                          action="store_true",
                          help="emit q^(-1) times the character, aligning "
                          "it with the modular J-expansion")
    _add_data_dir(orbifold)
    orbifold.set_defaults(handler=_cmd_fusion_orbifold)

    ising = sub.add_parser("ising", help="c = 1/2 character utilities")
    ising_sub = ising.add_subparsers(dest="subcommand", required=True)
    chars = ising_sub.add_parser("chars")
    chars.add_argument("--cutoff", type=_fraction, default=Fraction(6))
    chars.set_defaults(handler=_cmd_ising_chars)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        return args.handler(args)
    except (ValueError, ArithmeticError, RuntimeError, LookupError,
            OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
