"""Plot-ready tabular artifacts with reproducible headers.

Every emitted file starts with comment lines carrying the tool version, a hash
of the full run configuration, and the configuration itself; identical configs
therefore produce byte-identical files.  Numbers are written with 10
significant digits, plain decimal point, no separators.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass
from pathlib import Path

from . import __version__ as VERSION

__all__ = ["Report", "config_hash", "format_number", "write_rows", "write_lines"]

TOOL = "cblab"


def config_hash(config: dict) -> str:
    """Stable short hash of a configuration mapping."""
    canon = json.dumps(config, sort_keys=True, separators=(",", ":"), default=str)
    return hashlib.sha256(canon.encode()).hexdigest()[:16]


def format_number(x) -> str:
    return f"{x:.10g}" if isinstance(x, float) else str(x)


def _header(config: dict, extra: list[str] | None = None) -> list[str]:
    lines = [
        f"# {TOOL} {VERSION}",
        f"# config_hash {config_hash(config)}",
        "# config " + json.dumps(config, sort_keys=True, separators=(",", ":"), default=str),
    ]
    if extra:
        lines += [f"# {e}" for e in extra]
    return lines


@dataclass(frozen=True)
class Report:
    """One run's artifact: echoed config, column names, data rows, and any
    summary lines that go into the file header."""

    config: dict
    columns: list[str]
    rows: list[tuple]
    summary: list[str]


def write_rows(report: Report, path: Path, fmt: str = "csv") -> None:
    """Write a report as CSV (default) or aligned structured text."""
    lines = _header(report.config, report.summary)
    if fmt == "csv":
        lines.append(",".join(report.columns))
        for row in report.rows:
            lines.append(",".join(format_number(x) for x in row))
    elif fmt == "report":
        widths = [
            max(len(c), max((len(format_number(r[i])) for r in report.rows), default=0))
            for i, c in enumerate(report.columns)
        ]
        lines.append("  ".join(c.rjust(w) for c, w in zip(report.columns, widths)))
        for row in report.rows:
            lines.append("  ".join(format_number(x).rjust(w) for x, w in zip(row, widths)))
    else:
        raise ValueError(f"unknown output format {fmt!r}")
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text("\n".join(lines) + "\n")


def write_lines(config: dict, body: list[str], path: Path) -> None:
    """Write a plain structured-text record under the standard header."""
    lines = _header(config) + body
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text("\n".join(lines) + "\n")
