"""Command-line layer: suite registry, configuration resolution, report
determinism, error capture, and subcommand smoke tests."""

import json
import shutil
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

from orbifoldry import isometry, lattice
from orbifoldry.cli import (
    CLAIM_REGISTRY,
    DEFAULT_SUITE_CUTOFF,
    RunConfig,
    load_config_file,
    main,
    run_verification_suite,
)
from orbifoldry.datafiles import load_leech, resolve_data_dir
from orbifoldry.isometry import Isometry
from orbifoldry.qseries import FracSeries
from orbifoldry.report import emit_report

EXPECTED_SLUGS = (
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


@pytest.fixture(scope="module")
def quick_report():
    return run_verification_suite(RunConfig(p=3, cutoff=Fraction(2)))


def test_registry_covers_every_claim():
    assert tuple(spec.slug for spec in CLAIM_REGISTRY) == EXPECTED_SLUGS
    descriptions = [spec.description for spec in CLAIM_REGISTRY]
    assert all(descriptions)
    assert len(set(descriptions)) == len(descriptions)


def test_run_config_defaults_and_validation():
    cfg = RunConfig(p=5)
    assert cfg.cutoff == DEFAULT_SUITE_CUTOFF == Fraction(4)
    assert RunConfig(p=3, cutoff=2).cutoff == Fraction(2)
    with pytest.raises(ValueError):
        RunConfig(p=4)
    with pytest.raises(ValueError):
        RunConfig(p=3, cutoff=Fraction(3, 2))
    with pytest.raises(ValueError):
        RunConfig(p=3, output="yaml")
    with pytest.raises(ValueError):
        RunConfig(p=3, enumeration_budget=0)


def test_suite_passes_and_preserves_order(quick_report):
    assert quick_report.all_passed
    assert [e.claim for e in quick_report.entries] == list(EXPECTED_SLUGS)
    assert quick_report.config["p"] == 3
    assert quick_report.config["cutoff"] == Fraction(2)


def test_suite_emission_deterministic(quick_report):
    again = run_verification_suite(RunConfig(p=3, cutoff=Fraction(2)))
    assert emit_report(quick_report, "json") == emit_report(again, "json")
    assert (emit_report(quick_report, "markdown")
            == emit_report(again, "markdown"))


def test_markdown_report_one_table_per_claim(quick_report):
    out = emit_report(quick_report, "markdown")
    assert out.count("\n## ") == len(EXPECTED_SLUGS)
    assert out.count("| field | computed | expected |") == len(EXPECTED_SLUGS)
    assert f"Summary: {len(EXPECTED_SLUGS)}/{len(EXPECTED_SLUGS)} claims " \
           "passed." in out


@pytest.fixture()
def corrupted_data(tmp_path):
    src = resolve_data_dir()
    dest = tmp_path / "data"
    shutil.copytree(src, dest)
    sigma = dest / "sigma_p3.txt"
    lines = sigma.read_text().splitlines()
    parts = lines[-1].split()
    parts[0] = str(int(parts[0]) + 1)
    lines[-1] = " ".join(parts)
    sigma.write_text("\n".join(lines) + "\n")
    return dest


def test_corrupted_isometry_becomes_failed_entries(corrupted_data):
    report = run_verification_suite(
        RunConfig(p=3, cutoff=Fraction(2), data_dir=corrupted_data))
    assert not report.all_passed
    by_slug = {e.claim: e for e in report.entries}
    witness = by_slug["isometry-witness"]
    assert not witness.passed
    assert "NotGramPreserving" in witness.computed["error"]
    # claims that never touch the isometry still pass
    assert by_slug["isotropic-subgroups"].passed
    assert by_slug["ising-characters"].passed
    assert by_slug["lattice-ground-truth"].passed


def test_enumeration_budget_failure_says_how_far_it_got():
    report = run_verification_suite(
        RunConfig(p=3, cutoff=Fraction(2), enumeration_budget=5000))
    by_slug = {e.claim: e for e in report.entries}
    error = by_slug["lattice-ground-truth"].computed["error"]
    assert error.startswith(
        "BudgetExceeded: enumeration exceeded its budget of 5000 candidates (")
    assert int(error.split("(")[1].split()[0]) > 5000
    # every other claim takes theta from the modular form
    assert all(entry.passed for slug, entry in by_slug.items()
               if slug != "lattice-ground-truth")


@pytest.fixture(scope="module")
def counted_p13_report():
    """A p=13 suite run that records each Smith form's matrix and counts
    isometry checks and charpoly reductions."""
    calls = {"snf": [], "verify": 0, "charpoly": 0}
    kernel, check = lattice.smith_normal_form, Isometry.__post_init__
    lift = isometry._charpoly

    def counted_snf(matrix):
        calls["snf"].append(tuple(tuple(row) for row in matrix))
        return kernel(matrix)

    def counted_check(*args):
        calls["verify"] += 1
        return check(*args)

    def counted_charpoly(matrix):
        calls["charpoly"] += 1
        return lift(matrix)

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(lattice, "smith_normal_form", counted_snf)
        patch.setattr(Isometry, "__post_init__", counted_check)
        patch.setattr(isometry, "_charpoly", counted_charpoly)
        report = run_verification_suite(RunConfig(p=13, cutoff=Fraction(2)))
    return report, calls


def test_each_smith_form_is_computed_once(counted_p13_report):
    report, calls = counted_p13_report
    assert report.all_passed
    gram = load_leech().gram
    leading = {tuple(row[:k] for row in gram[:k]) for k in range(1, 25)}
    blocks = [m for m in calls["snf"] if m in leading]
    others = [m for m in calls["snf"] if m not in leading]
    # one 1 - h per cyclic subgroup <h> = <sigma^i>, i = 1..25: h = sigma,
    # tau = sigma^2 and sigma^13 = -1, whose 1 - (-1) = 2 the negation shares
    assert len(others) <= sum(1 for d in range(1, 26) if 26 % d == 0)
    # the enumeration's coset keys: one per memoised leading block
    assert 0 < len(blocks) <= len(gram)
    assert len(set(calls["snf"])) == len(calls["snf"])


def test_suite_reduces_only_the_loaded_matrices(counted_p13_report):
    report, calls = counted_p13_report
    assert report.all_passed
    # sigma and the negation; every power reads its profile off sigma's
    assert calls["charpoly"] <= 2


def test_suite_verifies_only_the_isometries_it_loads(counted_p13_report):
    report, calls = counted_p13_report
    assert report.all_passed
    # sigma on load and the negation; the powers of sigma are trusted
    assert calls["verify"] <= 2


def test_verify_exit_codes(corrupted_data, tmp_path, capsys):
    rc = main(["verify", "--p", "3", "--cutoff", "2",
               "--data-dir", str(corrupted_data)])
    assert rc == 1
    capsys.readouterr()
    rc = main(["verify", "--p", "3", "--data-dir", str(tmp_path / "nox")])
    captured = capsys.readouterr()
    assert rc == 2
    assert "missing" in captured.err


def test_config_file_parsing(tmp_path):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("p = 3\n\n# comment\ncutoff = 5/2  # inline\nformat=json\n")
    assert load_config_file(cfg) == {"p": "3", "cutoff": "5/2",
                                     "format": "json"}
    bad = tmp_path / "bad.cfg"
    bad.write_text("just-a-token\n")
    with pytest.raises(ValueError):
        load_config_file(bad)


def test_config_file_unknown_key_is_an_error(tmp_path, capsys):
    cfg = tmp_path / "typo.cfg"
    cfg.write_text("p = 3\ncutof = 3\n")
    with pytest.raises(ValueError, match="cutof"):
        load_config_file(cfg)
    assert main(["--config", str(cfg), "verify"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "unknown key 'cutof'" in captured.err


def test_flag_beats_config_beats_default(tmp_path, capsys):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("cutoff = 3\n")
    assert main(["ising", "chars"]) == 0
    assert json.loads(capsys.readouterr().out)["cutoff"] == 6
    assert main(["--config", str(cfg), "ising", "chars"]) == 0
    assert json.loads(capsys.readouterr().out)["cutoff"] == 3
    assert main(["--config", str(cfg), "ising", "chars", "--cutoff", "2"]) == 0
    assert json.loads(capsys.readouterr().out)["cutoff"] == 2


def test_lattice_check_subcommand(capsys):
    path = resolve_data_dir() / "leech_gram.txt"
    assert main(["lattice", "check", str(path)]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["rank"] == 24
    assert payload["determinant"] == 1
    assert payload["unimodular"] is True


def test_sectors_table_markdown(capsys):
    assert main(["sectors", "table", "--p", "3", "--format",
                 "markdown"]) == 0
    out = capsys.readouterr().out
    rows = [ln for ln in out.splitlines()
            if ln.startswith("| ") and not ln.startswith("| ---")]
    assert len(rows) == 1 + 5  # header + one row per nontrivial sector
    assert "| 3 | 0 0 0 24 0 0 | 3/2 | 4096 |" in out


def test_sectors_character_serializes_series(capsys):
    assert main(["sectors", "character", "--p", "3", "--i", "3",
                 "--cutoff", "2"]) == 0
    payload = json.loads(capsys.readouterr().out)
    series = FracSeries.from_json(json.dumps(payload["series"]))
    assert series.leading_term() == (Fraction(3, 2), 4096)


def test_isometry_profile_subcommand(capsys):
    data = resolve_data_dir()
    assert main(["isometry", "profile", str(data / "leech_gram.txt"),
                 str(data / "sigma_p5.txt")]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["order"] == 10
    assert payload["profile"] == {"10": 6}
    assert payload["eigenspace_dims"] == [0, 6, 0, 6, 0, 0, 0, 6, 0, 6]


def test_fusion_isotropic_modulus_guard(capsys):
    assert main(["fusion", "isotropic", "--n", "6"]) == 0
    assert json.loads(capsys.readouterr().out)["count"] == 4
    assert main(["fusion", "isotropic", "--n", "31"]) == 2
    assert "capped" in capsys.readouterr().err


def test_fusion_orbifold_z2_with_shift(capsys):
    assert main(["fusion", "orbifold", "--p", "3", "--construction", "z2",
                 "--cutoff", "2", "--shift-c24"]) == 0
    payload = json.loads(capsys.readouterr().out)
    series = FracSeries.from_json(json.dumps(payload["series"]))
    assert series.coefficient_at(-1) == 1
    assert series.coefficient_at(0) == 0
    assert series.coefficient_at(1) == 196884


def test_fusion_orbifold_has_no_budget_flag(capsys):
    # the character uses the modular theta, so no enumeration budget applies
    with pytest.raises(SystemExit) as exc:
        main(["fusion", "orbifold", "--p", "3", "--cutoff", "3",
              "--budget", "1"])
    assert exc.value.code == 2
    assert "--budget" in capsys.readouterr().err


def test_fusion_orbifold_half_integral_cutoff(capsys):
    assert main(["fusion", "orbifold", "--p", "3", "--cutoff", "5/2"]) == 0
    payload = json.loads(capsys.readouterr().out)
    series = FracSeries.from_json(json.dumps(payload["series"]))
    assert payload["cutoff"] == "5/2"
    assert series.weight_cutoff == Fraction(5, 2)
    assert [series.coefficient_at(w) for w in (0, 1, 2)] == [1, 0, 196884]


def test_fusion_weight1_table(capsys):
    assert main(["fusion", "weight1", "--p", "5"]) == 0
    assert json.loads(capsys.readouterr().out) == {
        "p": 5, "total": 24, "per_sector": {"1": 6, "3": 6, "7": 6, "9": 6}}


def test_module_entry_point_subprocess():
    result = subprocess.run(
        [sys.executable, "-m", "orbifoldry", "verify", "--p", "3",
         "--cutoff", "2"],
        capture_output=True, text=True,
        cwd=Path(__file__).resolve().parents[1])
    assert result.returncode == 0, result.stderr
    assert json.loads(result.stdout)["all_passed"] is True


@pytest.mark.skipif(shutil.which("orbifoldry") is None,
                    reason="console script not installed")
def test_console_script_smoke():
    result = subprocess.run(["orbifoldry", "ising", "extension-check"],
                            capture_output=True, text=True)
    assert result.returncode == 0
    assert json.loads(result.stdout)["passed"] is True
