"""Command-line interface: CSV ingestion, test execution, simulation runs.

Exit codes: 0 for a completed test (whatever the decision), 2 for a
degenerate comparison, 1 for any operational error.
"""

from __future__ import annotations

import argparse
import csv
import datetime
import json
import sys
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from . import __version__
from .errors import (ConfigError, GroupDrift, PanelVuongError, ParseError,
                     Unbalanced)
from .estimation import ModelSpec
from .families import gaussian_fixed_scale, gaussian_full_scale
from .montecarlo import (DgpConfig, replications_jsonl, run_replications,
                         size_power_csv, summarize)
from .panel import (GroupMap, PanelData, groups_from_labels, individual_groups,
                    make_panel)
from .report import file_digest, render_csv, render_json, to_document

FAMILIES = {
    "gaussian-fixed-scale": gaussian_fixed_scale,
    "gaussian-full-scale": gaussian_full_scale,
}


@dataclass
class CsvSchema:
    unit_col: str = "unit"
    time_col: str = "time"
    y_col: str = "y"
    x_cols: list[str] = field(default_factory=list)
    group_cols: list[str] = field(default_factory=list)


def _parse_float(text: str, row: int, col: str) -> float:
    try:
        return float(text)
    except ValueError:
        raise ParseError(f"cannot parse {text!r} as a number", row=row, col=col)


def load_csv(path, schema: CsvSchema) -> tuple[PanelData, dict[str, GroupMap], dict]:
    """Read a balanced panel from a comma-separated file.

    Unit and time labels may be arbitrary; units are numbered by first
    appearance, times sort numerically when every label parses as a number
    and lexicographically otherwise.  Group labels must be constant within a
    unit.  Returns the panel, one GroupMap per requested group column, and
    the label maps for the report metadata.
    """
    path = Path(path)
    with open(path, newline="", encoding="utf-8") as fh:
        reader = csv.reader(fh)
        try:
            header = next(reader)
        except StopIteration:
            raise ParseError("file is empty", row=1)
        header = [h.strip() for h in header]
        needed = [schema.unit_col, schema.time_col, schema.y_col,
                  *schema.x_cols, *schema.group_cols]
        for col in needed:
            if col not in header:
                raise ParseError(f"missing column {col!r}", row=1)
        idx = {col: header.index(col) for col in needed}

        rows = []
        for rownum, parts in enumerate(reader, start=2):
            if not parts or all(not p.strip() for p in parts):
                continue
            if len(parts) < len(header):
                raise ParseError(f"expected {len(header)} fields, got {len(parts)}",
                                 row=rownum)
            rows.append((rownum, parts))

    if not rows:
        raise ParseError("no data rows", row=2)

    units: dict[str, int] = {}
    time_labels: dict[str, None] = {}
    for rownum, parts in rows:
        unit = parts[idx[schema.unit_col]].strip()
        if unit not in units:
            units[unit] = len(units)
        time_labels.setdefault(parts[idx[schema.time_col]].strip(), None)

    try:
        times = sorted(time_labels, key=float)
    except ValueError:
        times = sorted(time_labels)
    time_index = {t: i for i, t in enumerate(times)}

    n, T, K = len(units), len(times), len(schema.x_cols)
    y = np.full((n, T), np.nan)
    x = np.full((n, T, K), np.nan)
    seen = np.zeros((n, T), dtype=bool)
    group_labels: dict[str, list] = {col: [None] * n for col in schema.group_cols}

    for rownum, parts in rows:
        i = units[parts[idx[schema.unit_col]].strip()]
        t = time_index[parts[idx[schema.time_col]].strip()]
        if seen[i, t]:
            raise Unbalanced(f"duplicate cell for unit "
                             f"{parts[idx[schema.unit_col]]!r} at time "
                             f"{parts[idx[schema.time_col]]!r} (row {rownum})")
        seen[i, t] = True
        y[i, t] = _parse_float(parts[idx[schema.y_col]], rownum, schema.y_col)
        for k, col in enumerate(schema.x_cols):
            x[i, t, k] = _parse_float(parts[idx[col]], rownum, col)
        for col in schema.group_cols:
            label = parts[idx[col]].strip()
            prev = group_labels[col][i]
            if prev is None:
                group_labels[col][i] = label
            elif prev != label:
                raise GroupDrift(
                    f"unit {parts[idx[schema.unit_col]]!r} has group {prev!r} and "
                    f"{label!r} in column {col!r} (row {rownum})")

    if not seen.all():
        i, t = np.argwhere(~seen)[0]
        unit_label = next(u for u, j in units.items() if j == i)
        raise Unbalanced(f"missing cell: unit {unit_label!r} at time {times[t]!r}")

    gmaps: dict[str, GroupMap] = {}
    label_maps: dict[str, dict] = {
        "units": {u: i + 1 for u, i in units.items()},
        "times": {t: i + 1 for i, t in enumerate(times)},
    }
    for col in schema.group_cols:
        gmaps[col], order = groups_from_labels(group_labels[col])
        label_maps[f"groups[{col}]"] = {lab: g + 1 for lab, g in order.items()}

    return make_panel(y, x if K else None), gmaps, label_maps


def _schema_from_args(args) -> CsvSchema:
    if args.schema:
        try:
            raw = json.loads(args.schema)
        except json.JSONDecodeError as exc:
            raise ConfigError(f"--schema is not valid JSON: {exc}")
        return CsvSchema(
            unit_col=raw.get("unit_col", "unit"),
            time_col=raw.get("time_col", "time"),
            y_col=raw.get("y_col", "y"),
            x_cols=list(raw.get("x_cols", [])),
            group_cols=list(raw.get("group_cols", [])),
        )
    x_cols = [c for c in (args.x_cols or "").split(",") if c]
    return CsvSchema(unit_col=args.unit_col, time_col=args.time_col,
                     y_col=args.y_col, x_cols=x_cols, group_cols=[])


def _write_report(report, args, *, seed=None, digest=None, label_maps=None) -> None:
    timestamp = None
    if args.timestamp:
        timestamp = datetime.datetime.now(datetime.timezone.utc).isoformat()
    doc = to_document(report, seed=seed, input_digest=digest,
                      label_maps=label_maps, timestamp=timestamp,
                      exact_floats=args.exact_floats)
    text = render_json(doc) if args.format == "json" else render_csv(doc)
    if args.out in (None, "-"):
        sys.stdout.write(text)
    else:
        Path(args.out).write_text(text, encoding="utf-8")


def cmd_test(args) -> int:
    schema = _schema_from_args(args)
    if args.subcommand == "twfe":
        schema.group_cols = [args.group_col]
    else:
        schema.group_cols = [args.model2_group_col]
        if args.model1_group_col and args.model1_group_col != args.unit_col:
            schema.group_cols.append(args.model1_group_col)

    panel, gmaps, label_maps = load_csv(args.input, schema)
    digest = file_digest(args.input)

    if args.subcommand == "twfe":
        from .twfe import run_twfe_test
        report = run_twfe_test(panel, gmaps[args.group_col], level=args.level)
    else:
        from .classic import run_classic_test
        k = panel.K
        if args.model1_group_col and args.model1_group_col != args.unit_col:
            gmap_1 = gmaps[args.model1_group_col]
        else:
            gmap_1 = individual_groups(panel.n)
        spec_1 = ModelSpec(FAMILIES[args.model1_family](k), gmap_1)
        spec_2 = ModelSpec(FAMILIES[args.model2_family](k), gmaps[args.model2_group_col])
        report = run_classic_test(panel, spec_1, spec_2, level=args.level)

    _write_report(report, args, digest=digest, label_maps=label_maps)
    return 2 if report.degenerate else 0


def cmd_simulate(args) -> int:
    levels = tuple(float(p) for p in args.levels.split(","))
    config = DgpConfig(kind=args.kind, n=args.n, T=args.T, G=args.G, K=args.K,
                       a_scale=args.a_scale, b_scale=args.b_scale,
                       noise=args.noise, kappa=args.kappa, c=args.c,
                       master_seed=args.seed)
    if args.reps < 1:
        raise ConfigError(f"reps must be >= 1, got {args.reps}")
    mc = run_replications(config, levels=levels, reps=args.reps, n_jobs=args.jobs)
    summary = summarize(mc)

    out_dir = Path(args.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    (out_dir / "size_power.csv").write_text(size_power_csv(summary), encoding="utf-8")
    (out_dir / "replications.jsonl").write_text(replications_jsonl(mc), encoding="utf-8")
    sys.stdout.write(
        f"wrote {out_dir / 'size_power.csv'} and {out_dir / 'replications.jsonl'} "
        f"({mc.reps} replications, {summary.degenerate_count} degenerate, "
        f"{summary.failure_count} failed)\n")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="panelvuong",
        description="Model-selection tests for grouped-effects panel models")
    parser.add_argument("--version", action="version", version=f"panelvuong {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    test = sub.add_parser("test", help="run a model-comparison test on a CSV panel")
    test_sub = test.add_subparsers(dest="subcommand", required=True)

    def add_common(p):
        p.add_argument("--input", required=True, help="panel CSV file")
        p.add_argument("--schema", help="JSON schema object "
                       '(e.g. \'{"unit_col":"id","x_cols":["x1"]}\')')
        p.add_argument("--unit-col", default="unit")
        p.add_argument("--time-col", default="time")
        p.add_argument("--y-col", default="y")
        p.add_argument("--x-cols", default="", help="comma-separated covariate columns")
        p.add_argument("--level", type=float, default=0.05)
        p.add_argument("--out", default="-", help="output path, '-' for stdout")
        p.add_argument("--format", choices=("json", "csv"), default="json")
        p.add_argument("--exact-floats", action="store_true",
                       help="emit reals as 17-significant-digit strings")
        p.add_argument("--timestamp", action="store_true",
                       help="include a wall-clock timestamp (breaks byte-identical reruns)")

    classic = test_sub.add_parser("classic",
                                  help="individual effects vs grouped effects")
    add_common(classic)
    classic.add_argument("--model1-family", choices=sorted(FAMILIES),
                         default="gaussian-fixed-scale")
    classic.add_argument("--model2-family", choices=sorted(FAMILIES),
                         default="gaussian-fixed-scale")
    classic.add_argument("--model1-group-col", default=None,
                         help="defaults to one group per unit")
    classic.add_argument("--model2-group-col", required=True)

    twfe = test_sub.add_parser("twfe", help="grouped time effects vs two-way effects")
    add_common(twfe)
    twfe.add_argument("--group-col", required=True)

    sim = sub.add_parser("simulate", help="run a seeded size/power campaign")
    sim.add_argument("--kind", required=True, choices=("A", "B", "C", "D", "E"))
    sim.add_argument("--n", type=int, required=True)
    sim.add_argument("--T", type=int, required=True)
    sim.add_argument("--G", type=int, required=True)
    sim.add_argument("--K", type=int, default=1)
    sim.add_argument("--a-scale", type=float, default=1.0)
    sim.add_argument("--b-scale", type=float, default=1.0)
    sim.add_argument("--noise", type=float, default=1.0)
    sim.add_argument("--kappa", type=float, default=0.0)
    sim.add_argument("--c", type=float, default=0.0)
    sim.add_argument("--reps", type=int, required=True)
    sim.add_argument("--seed", type=int, default=0)
    sim.add_argument("--levels", default="0.05", help="comma-separated levels")
    sim.add_argument("--jobs", type=int, default=1)
    sim.add_argument("--out-dir", required=True)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        if args.command == "test":
            return cmd_test(args)
        return cmd_simulate(args)
    except PanelVuongError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
