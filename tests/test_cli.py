"""Command-line layer: suite registry, configuration resolution, report
determinism, error capture, and subcommand smoke tests."""

import json
import shutil
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

from orbifoldry import isometry, lattice, sectors
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
from orbifoldry.report import emit_report
from orbifoldry.sectors import twisted_character
from series_dict import series_from_dict

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
    # claims that never read sigma still pass
    for slug in ("isotropic-subgroups", "integral-weight-labels", "z2-split",
                 "ising-characters", "lattice-ground-truth"):
        assert by_slug[slug].passed, slug


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
    isometry checks, charpoly reductions, matrix products and twisted
    characters built."""
    calls = {"snf": [], "verify": 0, "charpoly": 0, "mat_mul": 0}
    kernel, check = lattice.smith_normal_form, Isometry.__post_init__
    lift, product = isometry._charpoly, isometry._mat_mul

    def counted_snf(matrix):
        calls["snf"].append(tuple(tuple(row) for row in matrix))
        return kernel(matrix)

    def counted_check(*args):
        calls["verify"] += 1
        return check(*args)

    def counted_charpoly(matrix):
        calls["charpoly"] += 1
        return lift(matrix)

    def counted_mat_mul(a, b):
        calls["mat_mul"] += 1
        return product(a, b)

    twisted_character.cache_clear()
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(lattice, "smith_normal_form", counted_snf)
        patch.setattr(Isometry, "__post_init__", counted_check)
        patch.setattr(isometry, "_charpoly", counted_charpoly)
        patch.setattr(isometry, "_mat_mul", counted_mat_mul)
        report = run_verification_suite(RunConfig(p=13, cutoff=Fraction(2)))
    calls["twisted_misses"] = twisted_character.cache_info().misses
    return report, calls


def test_each_smith_form_is_computed_once(counted_p13_report):
    report, calls = counted_p13_report
    assert report.all_passed
    gram = load_leech().gram
    order = list(range(len(gram)))
    lattice._bareiss(gram, order=order)
    ordered = [[gram[i][j] for j in order] for i in order]
    leading = {tuple(tuple(row[:k]) for row in g[:k])
               for g in (gram, ordered) for k in range(1, 25)}
    # the enumeration's coset keys border each leading block onto the
    # previous one's Smith form: no leading block, in either basis order,
    # is reduced from scratch, beyond G_1, which borders G_0 = (g_00)
    # with unit transforms
    assert all(len(m) <= 2 for m in calls["snf"] if m in leading)
    full = [m for m in calls["snf"] if len(m) == len(gram)]
    bordered = [m for m in calls["snf"] if len(m) < len(gram)]
    # one small form per level at most, over the rows with invariant > 1
    # plus the border
    keys = lattice._scaled_form(gram).keys
    key_rows = max(len(rows) for rows in keys if rows is not None)
    assert 0 < len(bordered) < len(gram)
    assert all(len(m) <= key_rows + 1 for m in bordered)
    # one 1 - h per cyclic subgroup <h> = <sigma^i>, i = 1..25: h = sigma,
    # tau = sigma^2 and sigma^13 = -1, whose 1 - (-1) = 2 the negation shares
    assert len(full) <= sum(1 for d in range(1, 26) if 26 % d == 0)
    assert len(set(full)) == len(full)


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


def test_suite_builds_one_twisted_character_per_cyclic_subgroup(
        counted_p13_report):
    report, calls = counted_p13_report
    assert report.all_passed
    # one per subgroup and cutoff: sigma's odd sectors at weight one (all
    # in <sigma>), tau's twelve sectors (all in <tau>) and the negation's
    # at the cutoff, and the negation's at weight 2 for the z2-split
    assert calls["twisted_misses"] <= 4


def test_suite_builds_only_the_power_matrices_it_reads(counted_p13_report):
    report, calls = counted_p13_report
    assert report.all_passed
    # two checks on load, the chain sigma^3, sigma^6, sigma^13, sigma^26
    # that certifies sigma's order, (-1)^2, and tau's matrix for its Smith
    # form; eigenspace dimensions read profiles, not matrices
    assert calls["mat_mul"] <= 12


def test_suite_builds_one_fock_product_per_cutoff(monkeypatch):
    cutoffs = []
    build = sectors.grading_product

    def counted(modes, *args, **kwargs):
        if list(modes) == [(1, 24)]:
            cutoffs.append(kwargs["cutoff"])
        return build(modes, *args, **kwargs)

    sectors._fock_product.cache_clear()
    monkeypatch.setattr(sectors, "grading_product", counted)
    report = run_verification_suite(RunConfig(p=13, cutoff=Fraction(10)))
    assert report.all_passed
    # the moonshine-character untwisted parts at the cutoff, and the
    # z2-split and lattice-ground-truth ones at weight 2
    assert len(cutoffs) <= 2


def test_fusion_orbifold_builds_one_twisted_character(capsys):
    # the twelve nonzero sectors of the order-13 tau share one subgroup
    twisted_character.cache_clear()
    assert main(["fusion", "orbifold", "--p", "13", "--cutoff", "14"]) == 0
    capsys.readouterr()
    assert twisted_character.cache_info().misses == 1


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


@pytest.mark.parametrize("argv", [
    ["verify", "--p", "3"],
    ["sectors", "character", "--p", "3", "--i", "1"],
    ["fusion", "orbifold", "--p", "3"],
    ["ising", "chars"],
], ids=["verify", "sectors-character", "fusion-orbifold", "ising-chars"])
def test_zero_denominator_cutoff_is_a_usage_error(argv):
    result = subprocess.run(
        [sys.executable, "-m", "orbifoldry", *argv, "--cutoff", "1/0"],
        capture_output=True, text=True,
        cwd=Path(__file__).resolve().parents[1])
    assert result.returncode == 2
    assert "invalid fraction '1/0'" in result.stderr
    assert "Traceback" not in result.stderr


@pytest.mark.parametrize("argv", [
    ["verify", "--p", "3"],
    ["lattice", "theta", str(resolve_data_dir() / "leech_gram.txt"),
     "--max-norm", "0"],
    ["isometry", "search", "--p", "3"],
], ids=["verify", "lattice-theta", "isometry-search"])
@pytest.mark.parametrize("budget", ["0", "-1", "many"])
def test_nonpositive_budget_is_a_usage_error(argv, budget):
    result = subprocess.run(
        [sys.executable, "-m", "orbifoldry", *argv, "--budget", budget],
        capture_output=True, text=True,
        cwd=Path(__file__).resolve().parents[1])
    assert result.returncode == 2
    assert f"budget must be a positive integer, got '{budget}'" in result.stderr
    assert "Traceback" not in result.stderr
    assert result.stdout == ""


@pytest.mark.parametrize("argv", [
    ["verify"],
    ["lattice", "theta", str(resolve_data_dir() / "leech_gram.txt"),
     "--max-norm", "0"],
    ["isometry", "search", "--p", "3"],
], ids=["verify", "lattice-theta", "isometry-search"])
def test_nonpositive_budget_in_config_file(tmp_path, capsys, argv):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("p = 3\nbudget = -1\n")
    assert main(["--config", str(cfg), *argv]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == \
        "error: budget must be a positive integer, got '-1'\n"


def test_zero_denominator_cutoff_in_config_file(tmp_path, capsys):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("p = 3\ncutoff = 1/0\n")
    assert main(["--config", str(cfg), "verify"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: ")


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


@pytest.mark.parametrize("max_norm, message", [
    ("3", "max_norm must be even for an even lattice"),
    ("-2", "max_norm must be nonnegative"),
], ids=["odd", "negative"])
def test_lattice_theta_rejects_bad_max_norm(max_norm, message):
    result = subprocess.run(
        [sys.executable, "-m", "orbifoldry", "lattice", "theta",
         str(resolve_data_dir() / "leech_gram.txt"), "--max-norm", max_norm],
        capture_output=True, text=True,
        cwd=Path(__file__).resolve().parents[1])
    assert result.returncode == 2
    assert result.stdout == ""
    assert result.stderr == f"error: {message}\n"


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
    series = series_from_dict(payload["series"])
    assert series.leading_term() == (Fraction(3, 2), 4096)


def test_sectors_character_rejects_negative_cutoff(capsys):
    assert main(["sectors", "character", "--p", "3", "--i", "1",
                 "--cutoff", "-1"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "cutoff must be nonnegative" in captured.err


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


@pytest.mark.parametrize("n", ["0", "-1"])
def test_fusion_isotropic_rejects_nonpositive_modulus(n):
    result = subprocess.run(
        [sys.executable, "-m", "orbifoldry", "fusion", "isotropic", "--n", n],
        capture_output=True, text=True,
        cwd=Path(__file__).resolve().parents[1])
    assert result.returncode == 2
    assert result.stdout == ""
    assert result.stderr == "error: modulus must be positive\n"


def test_fusion_orbifold_z2_with_shift(capsys):
    assert main(["fusion", "orbifold", "--p", "3", "--construction", "z2",
                 "--cutoff", "2", "--shift-c24"]) == 0
    payload = json.loads(capsys.readouterr().out)
    series = series_from_dict(payload["series"])
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
    series = series_from_dict(payload["series"])
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
