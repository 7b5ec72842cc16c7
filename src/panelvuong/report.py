"""Test reports and their machine-readable document form.

A :class:`TestReport` is what either test returns: the standardized statistic
with two- and one-sided decisions at the requested level (:func:`rejects`,
which the Monte Carlo records use too), upper-tail p-values
taken from ``math.erfc`` (no ``1 - cdf`` cancellation), the degeneracy flag,
and the components object whose mqlr and omega2 it was decided on.
:func:`to_document` flattens a report into the versioned JSON schema used by
the command line.  Rendering is deterministic (fixed key order), and every
real is written as the shortest decimal that parses back to the same double,
so identical inputs produce byte-identical output and no digit is lost.
:func:`render_csv` quotes a field that holds a comma, quote or line break.
Schema 2 dropped ``metadata.seed`` (always null: a test draws no random
numbers) and ``metadata.exact_floats``.
"""

from __future__ import annotations

import hashlib
import json
import math
from dataclasses import dataclass, fields
from typing import Any

from . import __version__
from .errors import NonFinite, OutOfRange
from .stats import critical_values

SCHEMA_VERSION = 2


@dataclass
class TestReport:
    test: str                       # "classic" or "twfe"
    level: float
    components: Any                 # ClassicComponents or TwfeTestComponents
    warnings: list[str]
    statistic: float | None = None  # mqlr / omega-hat; None when degenerate
    p_two_sided: float | None = None
    p_one_sided: float | None = None
    reject_two: bool | None = None
    reject_one: bool | None = None
    degenerate_reason: str | None = None

    @property
    def mqlr(self) -> float:
        return self.components.mqlr

    @property
    def omega2_hat(self) -> float:
        return self.components.omega2

    @property
    def degenerate(self) -> bool:
        return self.degenerate_reason is not None


DEGENERACY_REL = 1e-14


def rejects(statistic: float, level: float) -> tuple[bool, bool]:
    """Two- and one-sided decisions: the statistic against the normal critical values."""
    z_two, z_one = critical_values(level)
    return bool(abs(statistic) > z_two), bool(statistic > z_one)


def decide(test: str, components: Any, level: float, warnings: list[str]) -> TestReport:
    """Assemble decisions and p-values from the components' mqlr and omega2."""
    mqlr, omega2 = components.mqlr, components.omega2
    if not 0.0 < level < 1.0:
        raise OutOfRange(f"significance level must be in (0, 1), got {level}")
    if not (math.isfinite(mqlr) and math.isfinite(omega2)):
        raise NonFinite(f"{test} statistic is not finite: mqlr={mqlr}, omega2={omega2}")
    if omega2 < DEGENERACY_REL * max(1.0, mqlr * mqlr):
        return TestReport(test, level, components, warnings,
                          degenerate_reason="models indistinguishable")
    stat = mqlr / omega2 ** 0.5
    reject_two, reject_one = rejects(stat, level)
    # upper tails straight from erfc: 1 - cdf would cancel to 0 for large stat
    scaled = stat / math.sqrt(2.0)
    return TestReport(test, level, components, warnings, statistic=stat,
                      p_two_sided=math.erfc(abs(scaled)),
                      p_one_sided=0.5 * math.erfc(scaled),
                      reject_two=reject_two, reject_one=reject_one)


def to_document(report: TestReport, *, input_digest: str | None = None,
                label_maps: dict | None = None, timestamp: str | None = None) -> dict:
    """Flatten a report into the versioned document layout.  The components
    block is the components' fields declared int or float, by name and in order."""
    return {
        "metadata": {
            "schema_version": SCHEMA_VERSION,
            "tool": "panelvuong",
            "tool_version": __version__,
            "timestamp": timestamp,
            "input_digest": input_digest,
            "label_maps": label_maps,
        },
        "test": {
            "test": report.test,
            "level": report.level,
            "mqlr": report.mqlr,
            "omega2_hat": report.omega2_hat,
            "statistic": report.statistic,
            "p_two_sided": report.p_two_sided,
            "p_one_sided": report.p_one_sided,
            "reject_two_sided": report.reject_two,
            "reject_one_sided": report.reject_one,
            "degenerate": report.degenerate,
            "degenerate_reason": report.degenerate_reason,
        },
        "components": {f.name: getattr(report.components, f.name)
                       for f in fields(report.components) if f.type in ("int", "float")},
        "warnings": list(report.warnings),
    }


def render_json(doc: dict) -> str:
    return json.dumps(doc, indent=2, sort_keys=False, allow_nan=False) + "\n"


def _csv_field(value: Any) -> str:
    """One CSV field: true/false, empty for None, and quoted (quotes doubled)
    when it holds a comma, a quote or a line break."""
    if isinstance(value, bool):
        value = "true" if value else "false"
    text = "" if value is None else f"{value}"
    if any(c in text for c in ',"\r\n'):
        return '"' + text.replace('"', '""') + '"'
    return text


def render_csv(doc: dict) -> str:
    """Flatten the document to key,value rows (one scalar per line)."""
    rows: list[tuple[str, Any]] = []

    def walk(prefix: str, value: Any) -> None:
        if isinstance(value, dict):
            for k, v in value.items():
                walk(f"{prefix}.{k}" if prefix else str(k), v)
        elif isinstance(value, (list, tuple)):
            for i, v in enumerate(value):
                walk(f"{prefix}[{i}]", v)
        else:
            rows.append((prefix, value))

    walk("", doc)
    lines = ["key,value"]
    lines += [f"{_csv_field(key)},{_csv_field(value)}" for key, value in rows]
    return "\n".join(lines) + "\n"


def file_digest(path) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(65536), b""):
            h.update(chunk)
    return h.hexdigest()
