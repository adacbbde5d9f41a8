"""Data directory resolution and shipped-data regression checks."""

import json
import shutil

import pytest

from orbifoldry.datafiles import (
    DataMissing,
    load_generators,
    load_leech,
    load_sigma,
    resolve_data_dir,
    sigma_profile,
)


def test_packaged_data_resolves_by_default(monkeypatch):
    monkeypatch.delenv("ORBIFOLDRY_DATA", raising=False)
    assert (resolve_data_dir() / "leech_gram.txt").exists()


def test_env_var_overrides_default(tmp_path, monkeypatch):
    monkeypatch.setenv("ORBIFOLDRY_DATA", str(tmp_path))
    assert resolve_data_dir() == tmp_path
    with pytest.raises(DataMissing):
        load_leech()


def test_argument_overrides_env(tmp_path, monkeypatch):
    packaged = resolve_data_dir()
    copy = tmp_path / "copy"
    copy.mkdir()
    shutil.copy(packaged / "leech_gram.txt", copy / "leech_gram.txt")
    monkeypatch.setenv("ORBIFOLDRY_DATA", str(tmp_path / "empty"))
    assert load_leech(data_dir=copy).rank == 24


def test_unsupported_p_rejected():
    with pytest.raises(ValueError):
        load_sigma(11)
    with pytest.raises(ValueError):
        sigma_profile(2)


def test_word_certificates_reproduce_shipped_sigmas():
    lattice = load_leech()
    a, b = load_generators(lattice=lattice)
    gens = (a.matrix, b.matrix)
    # the recorded search words, with the seeds and budgets that found them
    certs = json.loads((resolve_data_dir() / "isometry_words.json").read_text())
    assert certs["generators"] == ["co0_gen_a.txt", "co0_gen_b.txt"]
    for p in (3, 5, 7, 13):
        entry = certs["sigma"][str(p)]
        product = tuple(tuple(int(i == j) for j in range(24)) for i in range(24))
        for idx in entry["word"]:
            g = gens[idx]
            product = tuple(
                tuple(sum(product[i][k] * g[k][j] for k in range(24))
                      for j in range(24))
                for i in range(24))
        assert product == load_sigma(p, lattice=lattice).matrix
