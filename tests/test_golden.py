"""Report bytes: the standard output of the main commands, compared byte
for byte with the files under tests/golden/.

A change that means to alter a report regenerates the file it changes,
from the root of a checkout, for example

    PYTHONPATH=src python -m orbifoldry verify --p 3 > tests/golden/verify-p3.json

and says in its description which fields moved and why.
"""

from pathlib import Path

import pytest

from orbifoldry.cli import main

GOLDEN = Path(__file__).resolve().parent / "golden"

COMMANDS = {
    **{f"verify-p{p}.json": ["verify", "--p", str(p)] for p in (3, 5, 7, 13)},
    **{f"fusion-orbifold-p13-{c}.json": ["fusion", "orbifold", "--p", "13",
                                         "--cutoff", "14", "--construction", c]
       for c in ("zp", "z2")},
    **{f"sectors-table-p{p}.json": ["sectors", "table", "--p", str(p)]
       for p in (3, 5, 7, 13)},
    "sectors-table-p5.md": ["sectors", "table", "--p", "5",
                            "--format", "markdown"],
    "sectors-character-p13-i3-c4.json": ["sectors", "character", "--p", "13",
                                         "--i", "3", "--cutoff", "4"],
    **{f"fusion-weight1-p{p}.json": ["fusion", "weight1", "--p", str(p)]
       for p in (3, 5, 7, 13)},
}


@pytest.mark.parametrize("name", COMMANDS)
def test_stdout_matches_the_golden_report(name, capsys, monkeypatch):
    monkeypatch.delenv("ORBIFOLDRY_DATA", raising=False)
    assert main(COMMANDS[name]) == 0
    assert capsys.readouterr().out == (GOLDEN / name).read_text()
