"""Test reports and their machine-readable document form.

A :class:`TestReport` is what either test returns: the standardized statistic
with two- and one-sided decisions at the requested level (:func:`rejects`,
which the Monte Carlo records use too), upper-tail p-values
taken from ``math.erfc`` (no ``1 - cdf`` cancellation), the degeneracy flag,
and every scalar component that went into the statistic.
:func:`to_document` flattens a report into the versioned JSON schema used by
the command line; rendering is deterministic (fixed key order, fixed float
formatting) so identical inputs produce byte-identical output.
"""

from __future__ import annotations

import hashlib
import json
import math
from dataclasses import dataclass, field
from typing import Any

from . import __version__
from .errors import NonFinite, OutOfRange
from .stats import critical_values

SCHEMA_VERSION = 1


@dataclass
class TestReport:
    test: str                       # "classic" or "twfe"
    level: float
    mqlr: float
    omega2_hat: float
    statistic: float | None         # MQLR / omega-hat; None when degenerate
    p_two_sided: float | None
    p_one_sided: float | None
    reject_two: bool | None
    reject_one: bool | None
    degenerate: bool
    degenerate_reason: str | None
    components: Any                 # ClassicComponents / TwfeTestComponents / dict
    warnings: list[str] = field(default_factory=list)


DEGENERACY_REL = 1e-14


def rejects(statistic: float, level: float) -> tuple[bool, bool]:
    """Two- and one-sided decisions: the statistic against the normal critical values."""
    z_two, z_one = critical_values(level)
    return bool(abs(statistic) > z_two), bool(statistic > z_one)


def decide(test: str, mqlr: float, omega2: float, level: float,
           components: Any, warnings: list[str]) -> TestReport:
    """Assemble decisions and p-values from a statistic and its variance."""
    if not 0.0 < level < 1.0:
        raise OutOfRange(f"significance level must be in (0, 1), got {level}")
    if not (math.isfinite(mqlr) and math.isfinite(omega2)):
        raise NonFinite(f"{test} statistic is not finite: mqlr={mqlr}, omega2={omega2}")
    if omega2 < DEGENERACY_REL * max(1.0, mqlr * mqlr):
        return TestReport(
            test=test, level=level, mqlr=mqlr, omega2_hat=omega2,
            statistic=None, p_two_sided=None, p_one_sided=None,
            reject_two=None, reject_one=None,
            degenerate=True, degenerate_reason="models indistinguishable",
            components=components, warnings=warnings)
    stat = mqlr / omega2 ** 0.5
    reject_two, reject_one = rejects(stat, level)
    # upper tails straight from erfc: 1 - cdf would cancel to 0 for large stat
    scaled = stat / math.sqrt(2.0)
    return TestReport(
        test=test, level=level, mqlr=mqlr, omega2_hat=omega2,
        statistic=stat,
        p_two_sided=math.erfc(abs(scaled)),
        p_one_sided=0.5 * math.erfc(scaled),
        reject_two=reject_two, reject_one=reject_one,
        degenerate=False, degenerate_reason=None,
        components=components, warnings=warnings)


def _format_value(v: Any, exact: bool) -> Any:
    if isinstance(v, bool) or v is None or isinstance(v, (int, str)):
        return v
    if isinstance(v, float):
        return format(v, ".17g") if exact else v
    if isinstance(v, dict):
        return {k: _format_value(x, exact) for k, x in v.items()}
    if isinstance(v, (list, tuple)):
        return [_format_value(x, exact) for x in v]
    return v


def to_document(report: TestReport, *, input_digest: str | None = None,
                label_maps: dict | None = None, timestamp: str | None = None,
                exact_floats: bool = False) -> dict:
    """Flatten a report into the versioned document layout."""
    test_block = {
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
    }
    comp = report.components
    if hasattr(comp, "scalars"):
        comp = comp.scalars()
    doc = {
        "metadata": {
            "schema_version": SCHEMA_VERSION,
            "tool": "panelvuong",
            "tool_version": __version__,
            "seed": None,   # a test on a CSV draws no random numbers
            "timestamp": timestamp,
            "input_digest": input_digest,
            "label_maps": label_maps,
            "exact_floats": exact_floats,
        },
        "test": _format_value(test_block, exact_floats),
        "components": _format_value(comp, exact_floats),
        "warnings": list(report.warnings),
    }
    return doc


def render_json(doc: dict) -> str:
    return json.dumps(doc, indent=2, sort_keys=False, allow_nan=False) + "\n"


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
    for key, value in rows:
        if isinstance(value, bool):
            value = "true" if value else "false"
        elif value is None:
            value = ""
        lines.append(f"{key},{value}")
    return "\n".join(lines) + "\n"


def file_digest(path) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(65536), b""):
            h.update(chunk)
    return h.hexdigest()
