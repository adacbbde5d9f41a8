"""Pass/fail report assembly and deterministic emission.

Every verification claim produces one entry holding the computed and
expected values in plain JSON-able form; emission in JSON or Markdown is
byte-stable for a fixed configuration, so reports can be golden-filed.
"""

from __future__ import annotations

import json
from fractions import Fraction
from typing import Any, NamedTuple

__all__ = ["ClaimEntry", "Report", "emit_report", "plain"]


def plain(value: Any) -> Any:
    """Normalize to JSON-able primitives: Fractions become 'num/den'
    strings (integers stay integers), tuples become lists, mappings get
    string keys.  Computed and expected values both pass through here,
    so equality between them is well-defined."""
    if isinstance(value, Fraction):
        if value.denominator == 1:
            return int(value)
        return f"{value.numerator}/{value.denominator}"
    if isinstance(value, bool) or isinstance(value, int) or value is None:
        return value
    if isinstance(value, str):
        return value
    if isinstance(value, dict):
        return {str(k): plain(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [plain(v) for v in value]
    raise TypeError(f"cannot serialize {type(value).__name__} into a report")


class ClaimEntry(NamedTuple):
    claim: str
    description: str
    passed: bool
    computed: Any
    expected: Any


class Report(NamedTuple):
    config: dict[str, Any]
    entries: list[ClaimEntry]

    @property
    def all_passed(self) -> bool:
        return all(entry.passed for entry in self.entries)

    def to_dict(self) -> dict[str, Any]:
        return {
            "config": plain(self.config),
            "claims": [entry._asdict() for entry in self.entries],
            "all_passed": self.all_passed,
        }


def _cell(value: Any) -> str:
    text = json.dumps(value, sort_keys=True)
    return text.replace("|", "\\|")


def _markdown(report: Report) -> str:
    cfg = plain(report.config)
    lines = ["# Verification report", ""]
    lines.append("Configuration: " + json.dumps(cfg, sort_keys=True))
    lines.append("")
    for entry in report.entries:
        status = "PASS" if entry.passed else "FAIL"
        lines.append(f"## {entry.claim} — {status}")
        lines.append("")
        lines.append(entry.description)
        lines.append("")
        lines.append("| field | computed | expected |")
        lines.append("| --- | --- | --- |")
        if isinstance(entry.computed, dict) and isinstance(entry.expected, dict):
            for key in sorted(set(entry.computed) | set(entry.expected)):
                comp = _cell(entry.computed.get(key))
                expd = _cell(entry.expected.get(key))
                lines.append(f"| {key} | {comp} | {expd} |")
        else:
            lines.append(f"| value | {_cell(entry.computed)} | "
                         f"{_cell(entry.expected)} |")
        lines.append("")
    passed = sum(1 for e in report.entries if e.passed)
    lines.append(f"Summary: {passed}/{len(report.entries)} claims passed.")
    lines.append("")
    return "\n".join(lines)


def emit_report(report: Report, output_format: str = "json") -> str:
    """Render the report; 'json' or 'markdown', both deterministic."""
    if output_format == "json":
        return json.dumps(report.to_dict(), indent=2, sort_keys=True) + "\n"
    if output_format == "markdown":
        return _markdown(report)
    raise ValueError(f"unknown report format {output_format!r}")
