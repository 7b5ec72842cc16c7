"""Command-line interface: CSV ingestion, test execution, simulation runs.

Exit codes: 0 for a completed test (whatever the decision), 2 for a
degenerate comparison, 1 for any operational error.
"""

from __future__ import annotations

import argparse
import csv
import datetime
import io
import operator
import sys
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from . import __version__
from .errors import (ConfigError, GroupDrift, PanelVuongError, ParseError,
                     Unbalanced)
from .estimation import ModelSpec
from .families import gaussian_fixed_scale, gaussian_full_scale
from .montecarlo import (KINDS, DgpConfig, replications_jsonl, run_replications,
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


def _raise_first_bad_row(rows, idx: dict, schema: CsvSchema) -> None:
    """Raise the first row's error in file order: duplicate cell, y, x, groups."""
    seen: set = set()
    first_label: dict = {}
    for rownum, parts in rows:
        unit, time = parts[idx[schema.unit_col]], parts[idx[schema.time_col]]
        cell = (unit.strip(), time.strip())
        if cell in seen:
            raise Unbalanced(f"duplicate cell for unit {unit!r} at time {time!r} "
                             f"(row {rownum})")
        seen.add(cell)
        for col in (schema.y_col, *schema.x_cols):
            try:
                float(parts[idx[col]])
            except ValueError:
                raise ParseError(f"cannot parse {parts[idx[col]]!r} as a number",
                                 row=rownum, col=col)
        for col in schema.group_cols:
            label = parts[idx[col]].strip()
            prev = first_label.setdefault((col, cell[0]), label)
            if prev != label:
                raise GroupDrift(f"unit {unit!r} has group {prev!r} and {label!r} "
                                 f"in column {col!r} (row {rownum})")


def load_csv(path, schema: CsvSchema) -> tuple[PanelData, dict[str, GroupMap], dict]:
    """Read a balanced panel from a comma-separated UTF-8 file.

    Unit and time labels may be arbitrary; units are numbered by first
    appearance, times sort numerically when every label parses as a number
    and lexicographically otherwise.  Group labels must be constant within a
    unit.  Returns the panel, one GroupMap per requested group column, and
    the label maps for the report metadata.
    """
    raw = Path(path).read_bytes()
    try:   # decoding the whole file gives a bad byte's offset within it
        text = raw.decode("utf-8")
    except UnicodeDecodeError as exc:
        line = raw.count(b"\n", 0, exc.start) + 1
        raise ParseError(f"byte 0x{raw[exc.start]:02x} at offset {exc.start} "
                         f"(line {line}) is not UTF-8")
    # drop a leading byte-order mark, as Excel writes in "CSV UTF-8"
    reader = csv.reader(io.StringIO(text.removeprefix("\ufeff"), newline=""))
    try:   # csv.Error: e.g. a field longer than csv.field_size_limit()
        header = next(reader, None)
        if header is None:
            raise ParseError("file is empty", row=1)
        header = [h.strip() for h in header]
        needed = [schema.unit_col, schema.time_col, schema.y_col,
                  *schema.x_cols, *schema.group_cols]
        for col in needed:
            if col not in header:
                raise ParseError(f"missing column {col!r}", row=1)
        idx = {col: header.index(col) for col in needed}

        rownums, data = [], []
        for rownum, parts in enumerate(reader, start=2):
            if not "".join(parts).strip():
                continue
            if len(parts) < len(header):
                raise ParseError(f"expected {len(header)} fields, got {len(parts)}",
                                 row=rownum)
            rownums.append(rownum)
            data.append(parts)
    except csv.Error as exc:
        raise ParseError(str(exc), row=reader.line_num) from None
    if not data:
        raise ParseError("no data rows", row=2)
    n_rows = len(data)

    def column(col):
        return map(operator.itemgetter(idx[col]), data)

    unit_text = list(map(str.strip, column(schema.unit_col)))
    time_text = list(map(str.strip, column(schema.time_col)))
    units = {u: i for i, u in enumerate(dict.fromkeys(unit_text))}
    time_labels = dict.fromkeys(time_text)
    try:
        times = sorted(time_labels, key=float)
    except ValueError:
        times = sorted(time_labels)
    time_index = {t: i for i, t in enumerate(times)}
    n, T, K = len(units), len(times), len(schema.x_cols)
    cell = (np.fromiter(map(units.__getitem__, unit_text), np.intp, n_rows) * T
            + np.fromiter(map(time_index.__getitem__, time_text), np.intp, n_rows))

    group_text = {col: list(map(str.strip, column(col))) for col in schema.group_cols}
    counts = np.bincount(cell, minlength=n * T)
    ok = (counts.max() <= 1
          and all(len(set(zip(unit_text, labels))) == n for labels in group_text.values()))
    y, x = np.empty(n * T), np.empty((n * T, K))
    try:
        y[cell] = np.fromiter(map(float, column(schema.y_col)), float, n_rows)
        for k, col in enumerate(schema.x_cols):
            x[cell, k] = np.fromiter(map(float, column(col)), float, n_rows)
    except ValueError:
        ok = False
    if not ok:
        _raise_first_bad_row(zip(rownums, data), idx, schema)
    if n_rows < n * T:   # no cell is duplicated, so one is missing
        i, t = np.argwhere(counts.reshape(n, T) == 0)[0]
        raise Unbalanced(f"missing cell: unit {list(units)[i]!r} at time {times[t]!r}")

    gmaps: dict[str, GroupMap] = {}
    label_maps: dict[str, dict] = {
        "units": {u: i + 1 for u, i in units.items()},
        "times": {t: i + 1 for i, t in enumerate(times)},
    }
    for col, labels in group_text.items():
        # a unit's group is the label on its first row; all its rows agree
        gmaps[col], order = groups_from_labels(list(dict(zip(unit_text, labels)).values()))
        label_maps[f"groups[{col}]"] = {lab: g + 1 for lab, g in order.items()}

    return make_panel(y.reshape(n, T), x.reshape(n, T, K) if K else None), gmaps, label_maps


def _write_report(report, args, *, digest=None, label_maps=None) -> None:
    timestamp = None
    if args.timestamp:
        timestamp = datetime.datetime.now(datetime.timezone.utc).isoformat()
    doc = to_document(report, input_digest=digest, label_maps=label_maps,
                      timestamp=timestamp)
    text = render_json(doc) if args.format == "json" else render_csv(doc)
    if args.out in (None, "-"):
        sys.stdout.write(text)
    else:
        Path(args.out).write_text(text, encoding="utf-8")


def cmd_test(args) -> int:
    group_col = args.group_col if args.subcommand == "twfe" else args.model2_group_col
    schema = CsvSchema(unit_col=args.unit_col, time_col=args.time_col, y_col=args.y_col,
                       x_cols=[c for c in args.x_cols.split(",") if c],
                       group_cols=[group_col])

    panel, gmaps, label_maps = load_csv(args.input, schema)
    digest = file_digest(args.input)

    # A y of huge scale overflows to inf or NaN on its way to the statistic,
    # which decide refuses with NonFinite: one error line, not numpy's warnings.
    with np.errstate(over="ignore", invalid="ignore"):
        if args.subcommand == "twfe":
            from .twfe import run_twfe_test
            report = run_twfe_test(panel, gmaps[group_col], level=args.level)
        else:
            from .classic import run_classic_test
            # model 1 has one effect per unit, as the classic test requires
            spec_1 = ModelSpec(FAMILIES[args.model1_family](panel.K), individual_groups(panel.n))
            spec_2 = ModelSpec(FAMILIES[args.model2_family](panel.K), gmaps[group_col])
            report = run_classic_test(panel, spec_1, spec_2, level=args.level)

    _write_report(report, args, digest=digest, label_maps=label_maps)
    return 2 if report.degenerate else 0


def cmd_simulate(args) -> int:
    try:
        levels = tuple(float(p) for p in args.levels.split(","))
    except ValueError:
        raise ConfigError(f"--levels must be comma-separated numbers, got {args.levels!r}")
    config = DgpConfig(kind=args.kind, n=args.n, T=args.T, G=args.G, K=args.K,
                       noise=args.noise, kappa=args.kappa, c=args.c,
                       master_seed=args.seed)
    mc = run_replications(config, levels=levels, reps=args.reps)
    summary = summarize(mc)

    out_dir = Path(args.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    (out_dir / "size_power.csv").write_text(size_power_csv(summary), encoding="utf-8")
    (out_dir / "replications.jsonl").write_text(replications_jsonl(mc), encoding="utf-8")
    sys.stdout.write(
        f"wrote {out_dir / 'size_power.csv'} and {out_dir / 'replications.jsonl'} "
        f"({mc.reps} replications, {summary.degenerate_count} degenerate, "
        f"{mc.failure_count} failed)\n")
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
        p.add_argument("--unit-col", default=CsvSchema.unit_col)
        p.add_argument("--time-col", default=CsvSchema.time_col)
        p.add_argument("--y-col", default=CsvSchema.y_col)
        p.add_argument("--x-cols", default="", help="comma-separated covariate columns")
        p.add_argument("--level", type=float, default=0.05)
        p.add_argument("--out", default="-", help="output path, '-' for stdout")
        p.add_argument("--format", choices=("json", "csv"), default="json")
        p.add_argument("--timestamp", action="store_true",
                       help="include a wall-clock timestamp (breaks byte-identical reruns)")

    classic = test_sub.add_parser("classic",
                                  help="individual effects vs grouped effects")
    add_common(classic)
    classic.add_argument("--model1-family", choices=sorted(FAMILIES),
                         default="gaussian-fixed-scale")
    classic.add_argument("--model2-family", choices=sorted(FAMILIES),
                         default="gaussian-fixed-scale")
    classic.add_argument("--model2-group-col", required=True)

    twfe = test_sub.add_parser("twfe", help="grouped time effects vs two-way effects")
    add_common(twfe)
    twfe.add_argument("--group-col", required=True)

    sim = sub.add_parser("simulate", help="run a seeded size/power campaign")
    sim.add_argument("--kind", required=True, choices=KINDS)
    sim.add_argument("--n", type=int, required=True)
    sim.add_argument("--T", type=int, required=True)
    sim.add_argument("--G", type=int, required=True)
    sim.add_argument("--K", type=int, default=1)
    sim.add_argument("--noise", type=float, default=1.0)
    sim.add_argument("--kappa", type=float, default=0.0)
    sim.add_argument("--c", type=float, default=0.0)
    sim.add_argument("--reps", type=int, required=True)
    sim.add_argument("--seed", type=int, default=0)
    sim.add_argument("--levels", default="0.05", help="comma-separated levels")
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
