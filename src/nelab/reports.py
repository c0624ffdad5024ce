"""Deterministic experiment reports.

The serialized bytes of a report depend only on the suite code, the
configuration, and the seed: floats are written with 17 significant
digits (round-trip exact for IEEE doubles), key order is the insertion
order fixed by the suite code, and wall-clock time — carried on the
report object for the human summary line — is excluded from the bytes.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field
from json.encoder import encode_basestring_ascii

import numpy as np


@dataclass(frozen=True)
class CaseRecord:
    """One checked configuration: inputs, measurements, bounds, verdict."""

    case_id: str
    params: dict
    measured: dict
    bounds: dict
    passed: bool


@dataclass
class Report:
    """A suite run over many cases; wall time never enters the bytes."""

    suite: str
    config: dict
    cases: list = field(default_factory=list)
    wall: float | None = None

    @property
    def total(self) -> int:
        return len(self.cases)

    @property
    def failures(self) -> list:
        return [c for c in self.cases if not c.passed]

    @property
    def passed(self) -> bool:
        return not self.failures

    def to_json_dict(self) -> dict:
        return {
            "suite": self.suite,
            "config": self.config,
            "cases": [
                {
                    "case_id": c.case_id,
                    "params": c.params,
                    "measured": c.measured,
                    "bounds": c.bounds,
                    "passed": c.passed,
                }
                for c in self.cases
            ],
            "total": self.total,
            "failed": len(self.failures),
            "passed": self.passed,
        }

    def summary_line(self) -> str:
        wall = f" wall={self.wall:.2f}s" if self.wall is not None else ""
        return (f"suite={self.suite} cases={self.total} "
                f"pass={self.total - len(self.failures)} "
                f"fail={len(self.failures)}{wall}")


def _fmt_float(x: float) -> str:
    if math.isnan(x):
        return '"nan"'
    if math.isinf(x):
        return '"inf"' if x > 0 else '"-inf"'
    return format(x, ".17g")


def _emit(obj) -> str:
    if obj is None:
        return "null"
    if isinstance(obj, (bool, np.bool_)):
        return "true" if obj else "false"
    if isinstance(obj, (int, np.integer)):
        return str(int(obj))
    if isinstance(obj, (float, np.floating)):
        return _fmt_float(float(obj))
    if isinstance(obj, str):
        return encode_basestring_ascii(obj)     # json.dumps of a str
    if isinstance(obj, (list, tuple)):
        return "[" + ", ".join(_emit(v) for v in obj) + "]"
    if isinstance(obj, dict):
        items = (f"{encode_basestring_ascii(str(k))}: {_emit(v)}"
                 for k, v in obj.items())
        return "{" + ", ".join(items) + "}"
    raise TypeError(f"cannot serialize {type(obj).__name__}")


def dumps_json(report: Report) -> str:
    return _emit(report.to_json_dict()) + "\n"


def csv_value(v) -> str:
    """One value as CSV text: floats with 17 significant digits, unquoted."""
    if isinstance(v, (float, np.floating)):
        s = _fmt_float(float(v))
        return s.strip('"')
    if isinstance(v, (bool, np.bool_)):
        return "true" if v else "false"
    if isinstance(v, (int, np.integer)):
        return str(int(v))
    if v is None:
        return ""
    if isinstance(v, (list, tuple)):
        return ";".join(csv_value(x) for x in v)
    return str(v)


def dumps_csv(report: Report) -> str:
    rows = []
    for c in report.cases:
        row = {"case_id": c.case_id, "passed": "true" if c.passed else "false"}
        for prefix, d in (("p", c.params), ("m", c.measured), ("b", c.bounds)):
            for k, v in d.items():
                row[f"{prefix}.{k}"] = csv_value(v)
        rows.append(row)
    cols = ["case_id", "passed"]
    extra = sorted({k for row in rows for k in row} - {"case_id", "passed"})
    cols += extra
    lines = [",".join(cols)]
    for row in rows:
        lines.append(",".join(_csv_cell(row.get(k, "")) for k in cols))
    return "\n".join(lines) + "\n"


def _csv_cell(s: str) -> str:
    if any(ch in s for ch in ',"\n'):
        return '"' + s.replace('"', '""') + '"'
    return s


def dumps(report: Report, fmt: str = "json") -> str:
    if fmt == "json":
        return dumps_json(report)
    if fmt == "csv":
        return dumps_csv(report)
    raise ValueError(f"unknown report format {fmt!r}")


def write_text(text: str, out: str | None) -> None:
    """Write text to the path `out`; out=None or '-' means stdout."""
    if out is None or out == "-":
        print(text, end="")
    else:
        with open(out, "w") as fh:
            fh.write(text)
