"""Report bytes: the standard output of every subcommand, compared byte
for byte with the files under tests/golden/.

A change that means to alter a report regenerates the file it changes,
from the root of a checkout, for example

    PYTHONPATH=src python -m orbifoldry verify --p 3 > tests/golden/verify-p3.json

and says in its description which fields moved and why.  Commands that
echo a file path are given one relative to the root of the checkout.
"""

import argparse
from pathlib import Path

import pytest

from orbifoldry.commands import _build_parser, main

ROOT = Path(__file__).resolve().parents[1]
GOLDEN = ROOT / "tests" / "golden"
GRAM = "src/orbifoldry/data/leech_gram.txt"
SIGMA = "src/orbifoldry/data/sigma_p13.txt"

COMMANDS = {
    **{f"verify-p{p}.json": ["verify", "--p", str(p)] for p in (3, 5, 7, 13)},
    "verify-p13-c10.json": ["verify", "--p", "13", "--cutoff", "10"],
    "verify-p5.md": ["verify", "--p", "5", "--format", "markdown"],
    **{f"fusion-orbifold-p13-{c}.json": ["fusion", "orbifold", "--p", "13",
                                         "--cutoff", "14", "--construction", c]
       for c in ("zp", "z2")},
    "sectors-character-p13-i3-c4.json": ["sectors", "character", "--p", "13",
                                         "--i", "3", "--cutoff", "4"],
    "lattice-check.json": ["lattice", "check", GRAM],
    "lattice-theta-n4.json": ["lattice", "theta", GRAM, "--max-norm", "4"],
    "isometry-profile-p13.json": ["isometry", "profile", GRAM, SIGMA],
    "fusion-isotropic-n26.json": ["fusion", "isotropic", "--n", "26"],
    "ising-chars-c4.json": ["ising", "chars", "--cutoff", "4"],
}


def _subcommands(parser: argparse.ArgumentParser):
    """Name and parser of each subcommand, or nothing for a leaf."""
    for action in parser._actions:
        if isinstance(action, argparse._SubParsersAction):
            return action.choices.items()
    return ()


def _command_paths(parser: argparse.ArgumentParser,
                   prefix: tuple[str, ...] = ()):
    children = _subcommands(parser)
    if not children:
        yield prefix
    for name, child in children:
        yield from _command_paths(child, prefix + (name,))


@pytest.mark.parametrize("name", COMMANDS)
def test_stdout_matches_the_golden_report(name, capsys, monkeypatch):
    monkeypatch.chdir(ROOT)
    assert main(COMMANDS[name]) == 0
    assert capsys.readouterr().out == (GOLDEN / name).read_text()


def test_every_subcommand_has_a_golden_report():
    paths = set(_command_paths(_build_parser()))
    covered = {path for path in paths
               for argv in COMMANDS.values()
               if tuple(argv[:len(path)]) == path}
    # the walk reaches both bare commands and subcommands
    assert {("verify",), ("lattice", "check")} <= paths
    assert sorted(paths - covered) == []


def test_readme_command_line_names_every_subcommand():
    section = (ROOT / "README.md").read_text().split("\n## Command line\n")[1]
    section = section.split("\n## ")[0]
    argvs = [line.split()[1:] for line in section.splitlines()
             if line.startswith("orbifoldry ")]
    paths = set(_command_paths(_build_parser()))
    named = [path for argv in argvs for path in paths
             if tuple(argv[:len(path)]) == path]
    # each example line names one command, and each command has a line
    assert len(named) == len(argvs)
    assert set(named) == paths
