"""Command-line layer: suite registry, option inventory, report
determinism, error capture, and subcommand smoke tests."""

import argparse
import importlib
import json
import shutil
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

from orbifoldry import cli, enumeration, ising, isometry, lattice, modular, sectors
from orbifoldry.cli import CLAIM_REGISTRY, RunConfig, run_verification_suite
from orbifoldry.commands import DEFAULT_SUITE_CUTOFF, _build_parser, main
from orbifoldry.datafiles import load_leech, load_sigma, resolve_data_dir
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
    assert witness.computed["error"].endswith(": matrix.T @ gram @ matrix != gram")
    # claims that never read sigma still pass
    for slug in ("isotropic-subgroups", "integral-weight-labels", "z2-split",
                 "ising-characters", "lattice-ground-truth"):
        assert by_slug[slug].passed, slug


def _errors_of_failed_claims(report):
    return {e.claim: e.computed.get("error", "") for e in report.entries
            if not e.passed}


def test_a_non_integral_eigencomponent_fails_its_claims(monkeypatch):
    # one more on the identity's Ramanujan weight adds the full untwisted
    # character to every eigencomponent sum, so its constant term is m + 1
    # or 1, which the order m does not divide
    exact = sectors.ramanujan_sum
    monkeypatch.setattr(sectors, "ramanujan_sum",
                        lambda q, n: exact(q, n) + (1 if q == 1 else 0))
    failed = _errors_of_failed_claims(
        run_verification_suite(RunConfig(p=3, cutoff=Fraction(2))))
    assert set(failed) == {"weight-one-dim", "moonshine-character", "z2-split"}
    for error in failed.values():
        assert error.startswith("ArithmeticError: coefficient "), error
        assert "at q^(0) is not divisible by" in error


def test_an_odd_fermion_sum_fails_the_ising_claim(monkeypatch):
    # one more at q^0 in the odd-sign product makes plus + minus and
    # plus - minus odd there, which exact_div(2) refuses
    product = ising._fermion_product
    monkeypatch.setattr(ising, "_fermion_product",
                        lambda first, cutoff, sign, grain:
                        product(first, cutoff, sign, grain) + (1 if sign < 0 else 0))
    failed = _errors_of_failed_claims(
        run_verification_suite(RunConfig(p=3, cutoff=Fraction(2))))
    assert failed == {"ising-characters": "ArithmeticError: coefficient 3 at "
                                          "q^(0) is not divisible by 2"}


@pytest.mark.parametrize("budget", [5000, None])
def test_suite_enumerates_once(monkeypatch, budget):
    calls = []
    enumerate_vectors = cli.enumerate_vectors_by_norm
    monkeypatch.setattr(cli, "enumerate_vectors_by_norm",
                        lambda *args, **kwargs: calls.append(args[1])
                        or enumerate_vectors(*args, **kwargs))
    settings = {"enumeration_budget": budget} if budget else {}
    report = run_verification_suite(RunConfig(p=3, **settings))
    # through norm 6, kept with its failure: four claims read it
    assert calls == [6]
    assert report.all_passed == (budget is None)


def test_enumeration_budget_failure_says_how_far_it_got():
    report = run_verification_suite(
        RunConfig(p=3, cutoff=Fraction(2), enumeration_budget=5000))
    by_slug = {e.claim: e for e in report.entries}
    error = by_slug["lattice-ground-truth"].computed["error"]
    assert error.startswith(
        "BudgetExceeded: enumeration exceeded its budget of 5000 candidates (")
    assert int(error.split("(")[1].split()[0]) > 5000
    # the one enumeration's failure reaches every claim that reads theta
    reads_theta = ("weight-one-dim", "moonshine-character", "z2-split",
                   "lattice-ground-truth")
    assert all(by_slug[slug].computed == {"error": error}
               for slug in reads_theta)
    assert all(entry.passed for slug, entry in by_slug.items()
               if slug not in reads_theta)


def _counted(calls, key, function):
    def counted(*args, **kwargs):
        calls[key] += 1
        return function(*args, **kwargs)
    return counted


def _count_isometry_checks(patch, calls):
    patch.setattr(Isometry, "__post_init__",
                  _counted(calls, "verify", Isometry.__post_init__))
    patch.setattr(isometry, "_charpoly",
                  _counted(calls, "charpoly", isometry._charpoly))


@pytest.fixture(scope="module")
def counted_p13_report():
    """A p=13 suite run that records each Smith form's matrix and the
    lengths of the vectors it carries, and counts isometry checks,
    charpoly reductions, matrix products, modular forms and twisted
    characters built."""
    calls = {"snf": [], "carried": [], "verify": 0, "charpoly": 0,
             "mat_mul": 0, "discriminant": 0, "theta24": 0}
    kernel = lattice.smith_normal_form

    def counted_snf(matrix, rows, cols):
        calls["snf"].append(tuple(tuple(row) for row in matrix))
        calls["carried"].append(
            ({len(v) for v in rows}, {len(v) for v in cols}))
        return kernel(matrix, rows, cols)

    delta = _counted(calls, "discriminant", modular.discriminant_form)
    theta24 = _counted(calls, "theta24", modular.unimodular_theta_rank24)
    twisted_character.cache_clear()
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(lattice, "smith_normal_form", counted_snf)
        _count_isometry_checks(patch, calls)
        patch.setattr(isometry, "_mat_mul",
                      _counted(calls, "mat_mul", isometry._mat_mul))
        # modular's own callers read modular's names; a suite that binds
        # one itself is counted there too
        for module in (modular, cli):
            for name, counted in (("discriminant_form", delta),
                                  ("unimodular_theta_rank24", theta24)):
                if hasattr(module, name):
                    patch.setattr(module, name, counted)
        report = run_verification_suite(RunConfig(p=13, cutoff=Fraction(2)))
    info = twisted_character.cache_info()
    calls["twisted_hits"], calls["twisted_misses"] = info.hits, info.misses
    return report, calls


def test_each_smith_form_is_computed_once(counted_p13_report):
    report, calls = counted_p13_report
    assert report.all_passed
    leech = load_leech()
    gram, order = leech.gram, leech._elimination[0]
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
    keys = enumeration._scaled_form(leech).keys
    key_rows = max(len(rows) for rows in keys if rows is not None)
    assert 0 < len(bordered) < len(gram)
    assert all(len(m) <= key_rows + 1 for m in bordered)
    # one 1 - h per cyclic subgroup <h> = <sigma^i>, i = 1..25, whose
    # quotient is not trivial: h = tau = sigma^2, and h = sigma^13 = -1,
    # whose 1 - (-1) = 2I the negation shares; 1 - sigma is unimodular,
    # Phi_26(1) = 1, and takes no Smith form
    tau = load_sigma(13, lattice=leech).power(2).matrix
    n = len(gram)
    assert sorted(full) == sorted(
        tuple(tuple(int(i == j) - m[i][j] for j in range(n)) for i in range(n))
        for m in (tau, [[-int(i == j) for j in range(n)] for i in range(n)]))
    # the full forms read the invariants alone, so they carry empty
    # vectors; the form bordering level k carries the rows of U and the
    # columns of V it changes, k + 1 entries each.  Every leading minor
    # of Leech below the top exceeds 1, so each level from 1 on borders
    forms = list(zip(calls["snf"], calls["carried"]))
    assert [carried for m, carried in forms if len(m) == len(gram)] == [
        ({0}, {0})] * len(full)
    assert [carried for m, carried in forms if len(m) < len(gram)] == [
        ({k + 1}, {k + 1}) for k in range(1, len(bordered) + 1)]


def test_suite_reduces_only_the_loaded_matrices(counted_p13_report):
    report, calls = counted_p13_report
    assert report.all_passed
    # sigma alone: every power reads its profile off sigma's, and the
    # negation is built with its profile Phi_2^24 preset
    assert calls["charpoly"] <= 1


def test_suite_verifies_only_the_isometries_it_loads(counted_p13_report):
    report, calls = counted_p13_report
    assert report.all_passed
    # sigma on load; the powers of sigma and the negation are trusted
    assert calls["verify"] <= 1


def test_suite_builds_one_theta_per_run(counted_p13_report):
    report, calls = counted_p13_report
    assert report.all_passed
    # E4^3 + (N_2 - 720) Delta once for the run's theta and once, with
    # N_2 = 0, for the lattice-ground-truth oracle; Delta inside each and
    # once in the j-function
    assert calls["theta24"] <= 2
    assert calls["discriminant"] <= 3


def test_suite_builds_one_twisted_character_per_cyclic_subgroup(
        counted_p13_report):
    report, calls = counted_p13_report
    assert report.all_passed
    # one per subgroup and cutoff: sigma's odd sectors at weight one (all
    # in <sigma>), tau's twelve sectors (all in <tau>) and the negation's
    # at the cutoff, and the negation's at weight 2 for the z2-split
    assert calls["twisted_misses"] <= 4


def test_suite_reads_the_twisted_cache_as_often_as_before(counted_p13_report):
    report, calls = counted_p13_report
    assert report.all_passed
    # the sector records of one cyclic subgroup are equal, so every
    # sector after the first of its subgroup and cutoff is a hit; at
    # cutoff 2 the z2-split shares the negation's character at the cutoff
    assert (calls["twisted_hits"], calls["twisted_misses"]) == (35, 3)


def test_suite_builds_only_the_power_matrices_it_reads(counted_p13_report):
    report, calls = counted_p13_report
    assert report.all_passed
    # two products for the Gram check of sigma on load and one for tau's
    # matrix, which its Smith form reads; the Gram check certifies each
    # order, so no power chain is multiplied out, the negation and the
    # powers with profile Phi_1^24 or Phi_2^24 (sigma^13, sigma^26, (-1)^2)
    # are I or -I without a product, and eigenspace dimensions read
    # profiles, not matrices
    assert calls["mat_mul"] <= 3


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
    # the weight-one-dim untwisted part at weight 1, the moonshine-character
    # ones at the cutoff, and the z2-split and lattice-ground-truth ones at
    # weight 2, each built once
    assert sorted(cutoffs) == [1, 2, 10]


def test_z2_fusion_orbifold_checks_no_isometry(monkeypatch, capsys):
    calls = {"verify": 0, "charpoly": 0}
    _count_isometry_checks(monkeypatch, calls)
    assert main(["fusion", "orbifold", "--p", "13", "--cutoff", "14",
                 "--construction", "z2"]) == 0
    capsys.readouterr()
    # -I is built with its profile preset, and no sigma is loaded
    assert calls == {"verify": 0, "charpoly": 0}


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
], ids=["verify", "lattice-theta"])
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


@pytest.mark.parametrize("value", ["abc", "4"])
def test_bad_p_is_a_usage_error(capsys, value):
    with pytest.raises(SystemExit) as exc:
        main(["verify", "--p", value])
    assert exc.value.code == 2
    error = capsys.readouterr().err.splitlines()[-1]
    assert error.startswith("orbifoldry verify: error: argument --p: ")
    assert value in error


@pytest.mark.parametrize("argv, message", [
    (["--config", "run.cfg", "verify", "--p", "3"],
     "invalid choice: 'run.cfg'"),
    (["--data-dir", "D", "verify", "--p", "3"], "invalid choice: 'D'"),
    (["verify"], "the following arguments are required: --p"),
], ids=["config", "top-level-data-dir", "bare-verify"])
def test_settings_come_only_from_the_command_flags(argv, message):
    # the top level takes no option but -h, so the word after a stray
    # option is read as the command
    result = subprocess.run(
        [sys.executable, "-m", "orbifoldry", *argv],
        capture_output=True, text=True,
        cwd=Path(__file__).resolve().parents[1])
    assert result.returncode == 2
    assert result.stdout == ""
    assert "Traceback" not in result.stderr
    assert message in result.stderr


def test_ising_chars_cutoff_default_and_flag(capsys):
    assert main(["ising", "chars"]) == 0
    assert json.loads(capsys.readouterr().out)["cutoff"] == 6
    assert main(["ising", "chars", "--cutoff", "2"]) == 0
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


@pytest.mark.parametrize("i", [0, 6, -12])
def test_sectors_character_rejects_the_untwisted_power(capsys, i):
    # sigma has order 2p = 6, so these powers twist nothing
    assert main(["sectors", "character", "--p", "3", "--i", str(i)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == (f"error: --i must not be a multiple of 2p = 6: "
                            f"sigma^{i} is the identity\n")


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


def test_fusion_orbifold_z2_reads_no_sigma(tmp_path, capsys):
    shutil.copy(resolve_data_dir() / "leech_gram.txt", tmp_path)
    argv = ["fusion", "orbifold", "--p", "13", "--cutoff", "14",
            "--data-dir", str(tmp_path)]
    assert main(argv + ["--construction", "z2"]) == 0
    golden = Path(__file__).resolve().parent / "golden"
    assert capsys.readouterr().out == (
        golden / "fusion-orbifold-p13-z2.json").read_text()
    assert main(argv + ["--construction", "zp"]) == 2
    assert "sigma_p13.txt" in capsys.readouterr().err
    with pytest.raises(SystemExit):
        main(["fusion", "orbifold", "--help"])
    usage = " ".join(capsys.readouterr().out.split())
    assert "the lift of -1, which reads no sigma" in usage


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


@pytest.mark.parametrize("argv", [
    ["isometry", "search", "--p", "3"],
    ["isometry", "verify", "L", "M"],
    ["sectors", "table", "--p", "3"],
    ["fusion", "weight1", "--p", "3"],
    ["ising", "extension-check"],
], ids=["isometry-search", "isometry-verify", "sectors-table",
        "fusion-weight1", "ising-extension-check"])
def test_isometry_search_is_a_usage_error(argv):
    # the word search lives in tools/, and `isometry profile` and `verify`
    # print every value that the other four commands printed
    result = subprocess.run(
        [sys.executable, "-m", "orbifoldry", *argv],
        capture_output=True, text=True,
        cwd=Path(__file__).resolve().parents[1])
    assert result.returncode == 2
    assert f"invalid choice: '{argv[1]}'" in result.stderr
    assert "Traceback" not in result.stderr
    assert result.stdout == ""


def test_module_entry_point_subprocess():
    result = subprocess.run(
        [sys.executable, "-m", "orbifoldry", "verify", "--p", "3",
         "--cutoff", "2"],
        capture_output=True, text=True,
        cwd=Path(__file__).resolve().parents[1])
    assert result.returncode == 0, result.stderr
    assert json.loads(result.stdout)["all_passed"] is True


OPTIONS = {
    (): set(),
    ("verify",): {"--p", "--cutoff", "--budget", "--format", "--data-dir"},
    ("lattice",): set(),
    ("lattice", "check"): set(),
    ("lattice", "theta"): {"--max-norm", "--budget"},
    ("isometry",): set(),
    ("isometry", "profile"): set(),
    ("sectors",): set(),
    ("sectors", "character"): {"--p", "--i", "--cutoff", "--data-dir"},
    ("fusion",): set(),
    ("fusion", "isotropic"): {"--n"},
    ("fusion", "orbifold"): {"--p", "--construction", "--cutoff",
                             "--shift-c24", "--data-dir"},
    ("ising",): set(),
    ("ising", "chars"): {"--cutoff"},
}


def _options(parser: argparse.ArgumentParser,
             prefix: tuple[str, ...] = ()):
    """Each command path, the bare top level included, with its options
    other than -h/--help."""
    yield prefix, {option for action in parser._actions
                   for option in action.option_strings} - {"-h", "--help"}
    for action in parser._actions:
        if isinstance(action, argparse._SubParsersAction):
            for name, child in action.choices.items():
                yield from _options(child, prefix + (name,))


def test_every_command_has_exactly_its_options():
    # adding or dropping a knob edits this table
    assert dict(_options(_build_parser())) == OPTIONS


@pytest.mark.skipif(sys.version_info < (3, 11),
                    reason="tomllib needs Python 3.11")
def test_console_script_names_cli_main():
    import tomllib

    pyproject = Path(__file__).resolve().parents[1] / "pyproject.toml"
    scripts = tomllib.loads(pyproject.read_text())["project"]["scripts"]
    module, _, attr = scripts["orbifoldry"].partition(":")
    assert (module, attr) == ("orbifoldry.commands", "main")
    assert getattr(importlib.import_module(module), attr) is main
    # the span tracer enters through cli.main: the same function, not a copy
    assert cli.main is main


@pytest.mark.skipif(shutil.which("orbifoldry") is None,
                    reason="console script not installed")
def test_console_script_smoke():
    result = subprocess.run(["orbifoldry", "fusion", "isotropic", "--n", "6"],
                            capture_output=True, text=True)
    assert result.returncode == 0
    assert json.loads(result.stdout)["count"] == 4
