"""Data directory resolution and shipped-data regression checks."""

import shutil
from pathlib import Path

import pytest

from orbifoldry import datafiles
from orbifoldry.datafiles import (
    DataMissing,
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


def test_unsupported_p_rejected(tmp_path):
    with pytest.raises(ValueError):
        load_sigma(11)
    # the p check comes before any file is read: an empty directory
    # would raise DataMissing, which is no ValueError
    with pytest.raises(ValueError, match="p must be one of"):
        load_sigma(11, data_dir=tmp_path)
    with pytest.raises(ValueError):
        sigma_profile(2)


def test_package_data_holds_only_what_datafiles_loads():
    # the word search's generators and words live in tools/data
    packaged = Path(datafiles.__file__).parent / "data"
    assert {path.name for path in packaged.iterdir()} == {
        datafiles.LEECH_FILE, *(f"sigma_p{p}.txt" for p in datafiles.SUPPORTED_P)}
