"""Data directory resolution and shipped-data regression checks."""

import json
import shutil
from pathlib import Path

import pytest

from orbifoldry import datafiles
from orbifoldry.commands import main
from orbifoldry.datafiles import (
    DataMissing,
    load_leech,
    load_sigma,
    resolve_data_dir,
    sigma_profile,
)


def test_packaged_data_resolves_by_default():
    assert (resolve_data_dir() / "leech_gram.txt").exists()


def test_argument_alone_selects_the_data_dir(tmp_path):
    packaged = resolve_data_dir()
    assert resolve_data_dir(tmp_path) == tmp_path
    with pytest.raises(DataMissing):
        load_leech(data_dir=tmp_path)
    shutil.copy(packaged / "leech_gram.txt", tmp_path / "leech_gram.txt")
    assert load_leech(data_dir=tmp_path).rank == 24
    assert resolve_data_dir() == packaged


def test_environment_does_not_move_the_data_dir(tmp_path, monkeypatch, capsys):
    # the report records the data directory it read; a directory named
    # only by the environment would be read but reported as null
    monkeypatch.setenv("ORBIFOLDRY_DATA", str(tmp_path))
    assert main(["verify", "--p", "3"]) == 0
    report = json.loads(capsys.readouterr().out)
    assert report["all_passed"] and report["config"]["data_dir"] is None


def test_unsupported_p_rejected(tmp_path):
    leech = load_leech()
    with pytest.raises(ValueError):
        load_sigma(11, lattice=leech)
    # the p check comes before any file is read: an empty directory
    # would raise DataMissing, which is no ValueError
    with pytest.raises(ValueError, match="p must be one of"):
        load_sigma(11, data_dir=tmp_path, lattice=leech)
    with pytest.raises(ValueError):
        sigma_profile(2)


def test_package_data_holds_only_what_datafiles_loads():
    # the word search's generators and words live in tools/data
    packaged = Path(datafiles.__file__).parent / "data"
    assert {path.name for path in packaged.iterdir()} == {
        datafiles.LEECH_FILE, *(f"sigma_p{p}.txt" for p in datafiles.SUPPORTED_P)}
