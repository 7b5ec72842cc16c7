"""Command-line behavior: ingestion, reports, exit codes, determinism."""

import argparse
import csv
import io
import json
import random
import re
from pathlib import Path

import numpy as np
import pytest

from oracles import load_csv_rows
from panelvuong import (DgpConfig, ModelSpec, generate, gaussian_fixed_scale,
                        individual_groups, make_panel, run_classic_test,
                        run_twfe_test, to_document)
from panelvuong.cli import CsvSchema, build_parser, load_csv, main
from panelvuong.errors import GroupDrift, PanelVuongError, ParseError, Unbalanced
from panelvuong.panel import GroupMap
from panelvuong.rng import GENERATOR_VERSION

GROUPS = ["g1", "g1", "g2", "g2"]


def write_panel_csv(path, y, x=None, groups=None, drop=None, mangle=None):
    """Small CSV writer for fixtures; optionally drops or rewrites one row."""
    n, T = y.shape
    lines = ["unit,time,y" + (",x1" if x is not None else "")
             + (",region" if groups is not None else "")]
    for i in range(n):
        for t in range(T):
            if drop == (i, t):
                continue
            parts = [f"u{i}", str(t + 2000), repr(float(y[i, t]))]
            if x is not None:
                parts.append(repr(float(x[i, t, 0])))
            if groups is not None:
                parts.append(groups[i] if mangle != (i, t) else "OTHER")
            lines.append(",".join(parts))
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")


@pytest.fixture
def panel_csv(tmp_path, rng):
    y = rng.normal(size=(4, 3))
    x = rng.normal(size=(4, 3, 1))
    path = tmp_path / "panel.csv"
    write_panel_csv(path, y, x, GROUPS)
    return path, y, x


class TestLoadCsv:
    def test_roundtrip_exact(self, panel_csv):
        path, y, x = panel_csv
        schema = CsvSchema(x_cols=["x1"], group_cols=["region"])
        panel, gmaps, label_maps = load_csv(path, schema)
        assert np.array_equal(panel.y, y)
        assert np.array_equal(panel.x, x)
        assert gmaps["region"].G == 2
        assert label_maps["groups[region]"] == {"g1": 1, "g2": 2}

    def test_group_inferred_from_labels(self, panel_csv):
        path, _, _ = panel_csv
        panel, gmaps, _ = load_csv(path, CsvSchema(group_cols=["region"]))
        assert gmaps["region"].codes.tolist() == [0, 0, 1, 1]

    def test_missing_cell_unbalanced(self, tmp_path, rng):
        path = tmp_path / "p.csv"
        write_panel_csv(path, rng.normal(size=(3, 3)), drop=(1, 1))
        with pytest.raises(Unbalanced):
            load_csv(path, CsvSchema())

    def test_duplicate_cell_unbalanced(self, tmp_path):
        path = tmp_path / "p.csv"
        path.write_text("unit,time,y\na,1,1.0\na,1,2.0\nb,1,3.0\nb,2,4.0\na,2,0.0\n",
                        encoding="utf-8")
        with pytest.raises(Unbalanced):
            load_csv(path, CsvSchema())

    def test_group_drift(self, tmp_path, rng):
        path = tmp_path / "p.csv"
        write_panel_csv(path, rng.normal(size=(4, 3)), groups=GROUPS, mangle=(2, 1))
        with pytest.raises(GroupDrift):
            load_csv(path, CsvSchema(group_cols=["region"]))

    def test_parse_error_reports_location(self, tmp_path):
        path = tmp_path / "p.csv"
        path.write_text("unit,time,y\na,1,1.0\na,2,oops\nb,1,2.0\nb,2,3.0\n",
                        encoding="utf-8")
        with pytest.raises(ParseError, match="row 3"):
            load_csv(path, CsvSchema())

    def test_missing_column(self, tmp_path):
        path = tmp_path / "p.csv"
        path.write_text("unit,time\n", encoding="utf-8")
        with pytest.raises(ParseError, match="missing column"):
            load_csv(path, CsvSchema())

    def test_byte_order_mark_accepted(self, panel_csv):
        path, y, x = panel_csv
        schema = CsvSchema(x_cols=["x1"], group_cols=["region"])
        plain = load_csv(path, schema)
        path.write_bytes(b"\xef\xbb\xbf" + path.read_bytes())
        panel, _, label_maps = load_csv(path, schema)
        assert np.array_equal(panel.y, y) and np.array_equal(panel.x, x)
        assert label_maps == plain[2]

    def test_non_utf8_byte_is_parse_error(self, tmp_path):
        path = tmp_path / "p.csv"
        path.write_bytes(b"unit,time,y\na,1,1.0\na,2,\xff\nb,1,2.0\nb,2,3.0\n")
        with pytest.raises(ParseError, match=r"byte 0xff at offset 24 \(line 3\)"):
            load_csv(path, CsvSchema())

    def test_time_labels_sorted_numerically(self, tmp_path):
        path = tmp_path / "p.csv"
        path.write_text("unit,time,y\na,10,1.0\na,9,2.0\nb,10,3.0\nb,9,4.0\n",
                        encoding="utf-8")
        panel, _, label_maps = load_csv(path, CsvSchema())
        assert label_maps["times"] == {"9": 1, "10": 2}
        assert panel.y[0].tolist() == [2.0, 1.0]


def _mutated_csv(rnd: random.Random) -> str:
    """A small panel CSV with a few random defects, or none.

    The defects are the ones a column pass must hand to the row scan or
    detect itself: duplicate, missing, unparseable, drifting, blank, short
    and long rows, plus labels that differ only by surrounding spaces.
    """
    n, T = rnd.randint(2, 4), rnd.randint(2, 4)
    numeric_times = rnd.random() < 0.7
    groups = [rnd.choice("ab") for _ in range(n)]
    header = ["unit", "time", "y", "x1", "region"]
    rows = [[f"u{i}", str(10 - t) if numeric_times else f"t{t}",
             repr(rnd.gauss(0, 1)), repr(rnd.gauss(0, 1)), groups[i]]
            for i in range(n) for t in range(T)]
    rnd.shuffle(rows)
    for _ in range(rnd.choice((0, 1, 1, 2, 3))):
        kind = rnd.choice(("duplicate", "missing", "unparseable", "drift", "blank",
                           "short", "long", "spaces"))
        r = rnd.randrange(len(rows))
        if len(rows[r]) < 5 and kind in ("unparseable", "drift", "spaces"):
            continue
        if kind == "duplicate":   # the copy may also carry a second defect
            copy = list(rows[r])
            if len(copy) == 5:
                copy[rnd.choice((2, 4))] = rnd.choice(("abc", "c", copy[2]))
            rows.insert(rnd.randrange(len(rows) + 1), copy)
        elif kind == "missing" and len(rows) > 1:
            del rows[r]
        elif kind == "unparseable":
            rows[r][rnd.choice((2, 3))] = rnd.choice(
                ("abc", "1_0", " nan ", "", " 2.5 ", "inf", "1e", "0x1"))
        elif kind == "drift":
            rows[r][4] = rnd.choice(("a", "b", "c", " a"))
        elif kind == "blank":
            rows.insert(r, rnd.choice(([], [" "], [""] * 5, [" ", "", " ", "\t", ""])))
        elif kind == "short":
            rows[r] = rows[r][:rnd.randint(0, 4)]
        elif kind == "long":
            rows[r] = rows[r] + ["extra"] * rnd.randint(1, 2)
        elif kind == "spaces":
            j = rnd.choice((0, 1))
            rows[r][j] = f" {rows[r][j]}"
    return "\n".join(",".join(row) for row in [header, *rows]) + "\n"


def _load_outcome(loader, path, schema):
    """What a loader returns, as comparable values, or its error."""
    try:
        panel, gmaps, label_maps = loader(path, schema)
    except PanelVuongError as exc:
        return type(exc), str(exc)
    return ("ok", panel.y.tobytes(), panel.x.tobytes(), panel.x.shape,
            {col: (g.codes.tolist(), g.G) for col, g in gmaps.items()},
            [(key, list(labels.items())) for key, labels in label_maps.items()])


SCHEMAS = [CsvSchema(x_cols=x_cols, group_cols=group_cols)
           for x_cols in ([], ["x1"]) for group_cols in ([], ["region"])]


class TestLoadCsvOracle:
    """``load_csv`` against the row-by-row loader it replaced."""

    def test_mutated_files_agree(self, tmp_path):
        rnd = random.Random(7)
        path = tmp_path / "p.csv"
        kinds = set()
        for _ in range(600):
            path.write_text(_mutated_csv(rnd), encoding="utf-8")
            schema = rnd.choice(SCHEMAS)
            expected = _load_outcome(load_csv_rows, path, schema)
            assert _load_outcome(load_csv, path, schema) == expected, path.read_text()
            kinds.add(expected[0])
        assert kinds >= {"ok", Unbalanced, ParseError, GroupDrift}

    def test_benchmark_shaped_file_agrees(self, tmp_path):
        rng = np.random.default_rng(81)
        region = np.repeat(np.arange(10), 10)
        x = rng.standard_normal((100, 100))
        y = (x + rng.standard_normal(10)[region][:, None]
             + rng.standard_normal(100)[None, :] + rng.standard_normal((100, 100)))
        lines = ["unit,time,y,x1,region"]
        for i, (y_i, x_i) in enumerate(zip(y.tolist(), x.tolist())):
            lines += [f"u{i + 1:03d},{t + 1},{y_i[t]!r},{x_i[t]!r},r{region[i] + 1:02d}"
                      for t in range(100)]
        path = tmp_path / "panel.csv"
        path.write_text("\n".join(lines) + "\n", encoding="utf-8")
        schema = CsvSchema(x_cols=["x1"], group_cols=["region"])
        outcome = _load_outcome(load_csv, path, schema)
        assert outcome[0] == "ok"
        assert outcome == _load_outcome(load_csv_rows, path, schema)


class TestCmdTest:
    def test_twfe_end_to_end(self, tmp_path, capsys):
        cfg = DgpConfig(kind="A", n=12, T=10, G=3, K=1, master_seed=11)
        panel, gmap = generate(cfg, 0)
        path = tmp_path / "panel.csv"
        groups = [f"g{c}" for c in gmap.codes]
        write_panel_csv(path, panel.y, panel.x, groups)
        code = main(["test", "twfe", "--input", str(path), "--x-cols", "x1",
                     "--group-col", "region"])
        assert code == 0
        doc = json.loads(capsys.readouterr().out)
        assert set(doc) == {"metadata", "test", "components", "warnings"}
        assert doc["test"]["test"] == "twfe"
        assert isinstance(doc["test"]["p_two_sided"], float)

    def test_classic_identical_models_exit_2(self, tmp_path, capsys, rng):
        y = rng.normal(size=(4, 3))
        path = tmp_path / "panel.csv"
        write_panel_csv(path, y, groups=["a", "b", "c", "d"])
        code = main(["test", "classic", "--input", str(path),
                     "--model2-group-col", "region"])
        assert code == 2
        doc = json.loads(capsys.readouterr().out)
        assert doc["test"]["degenerate"] is True

    def test_malformed_csv_exit_1(self, tmp_path, capsys):
        path = tmp_path / "panel.csv"
        path.write_text("unit,time,y\na,1,xx\na,2,1\nb,1,1\nb,2,1\n", encoding="utf-8")
        code = main(["test", "twfe", "--input", str(path), "--group-col", "region"])
        assert code == 1
        assert "error:" in capsys.readouterr().err

    @pytest.mark.parametrize("text, message", [
        ("", "error: file is empty (row 1)\n"),
        ("unit,time,y,region\n", "error: no data rows (row 2)\n"),
    ], ids=["empty", "header_only"])
    def test_no_data_exit_1(self, tmp_path, capsys, text, message):
        path = tmp_path / "panel.csv"
        path.write_text(text, encoding="utf-8")
        code = main(["test", "twfe", "--input", str(path), "--group-col", "region"])
        assert code == 1
        assert capsys.readouterr().err == message

    def test_report_deterministic(self, tmp_path, panel_csv):
        path, _, _ = panel_csv
        out1 = tmp_path / "r1.json"
        out2 = tmp_path / "r2.json"
        for out in (out1, out2):
            code = main(["test", "twfe", "--input", str(path), "--x-cols", "x1",
                         "--group-col", "region", "--out", str(out)])
            assert code == 0
        assert out1.read_bytes() == out2.read_bytes()

    def test_csv_format(self, tmp_path, panel_csv, capsys):
        path, _, _ = panel_csv
        code = main(["test", "twfe", "--input", str(path), "--x-cols", "x1",
                     "--group-col", "region", "--format", "csv"])
        assert code == 0
        out = capsys.readouterr().out
        assert out.startswith("key,value")
        assert "test.mqlr," in out

    @pytest.mark.parametrize("test, unit_0", [
        ("classic", "u0"), ("twfe", "a,1"), ("twfe", 'a"1'), ("twfe", "a\n1"),
        ("twfe", "a\r1")])
    def test_csv_rows_are_key_value_pairs(self, tmp_path, rng, capsys, test, unit_0):
        # the same-family classic report warns with a comma in NESTED_NOTE;
        # a label may hold a comma, a quote or a line break
        y = rng.normal(size=(4, 3))
        path = tmp_path / "panel.csv"
        with path.open("w", encoding="utf-8", newline="") as fh:
            # quote every field: Python 3.11's csv.writer leaves a bare CR unquoted
            writer = csv.writer(fh, lineterminator="\n", quoting=csv.QUOTE_ALL)
            writer.writerow(["unit", "time", "y", "region"])
            for i in range(4):
                for t in range(3):
                    writer.writerow([unit_0 if i == 0 else f"u{i}", t, repr(float(y[i, t])),
                                     GROUPS[i]])
        flag = "--group-col" if test == "twfe" else "--model2-group-col"
        argv = ["test", test, "--input", str(path), flag, "region"]
        docs = {}
        for fmt in ("json", "csv"):
            assert main([*argv, "--format", fmt]) == 0
            docs[fmt] = capsys.readouterr().out
        rows = list(csv.reader(io.StringIO(docs["csv"], newline="")))
        assert rows[0] == ["key", "value"]
        assert all(len(row) == 2 for row in rows)
        leaves = dict(_leaves("", json.loads(docs["json"])))
        assert [key for key, _ in rows[1:]] == list(leaves)
        assert all(text == _csv_text(leaves[key]) for key, text in rows[1:])
        assert f"metadata.label_maps.units.{unit_0}" in leaves

    @pytest.mark.parametrize("test", ["twfe", "classic"])
    def test_reals_round_trip(self, tmp_path, rng, capsys, test):
        # every real of the default JSON and CSV reports parses back to the
        # library's double bit for bit
        y = rng.normal(size=(6, 5)) * 1e3
        x = rng.normal(size=(6, 5, 1)) * 1e-3
        path = tmp_path / "panel.csv"
        groups = ["g1", "g1", "g1", "g2", "g2", "g2"]
        write_panel_csv(path, y, x, groups)
        flag = "--group-col" if test == "twfe" else "--model2-group-col"
        argv = ["test", test, "--input", str(path), "--x-cols", "x1", flag, "region"]
        assert main([*argv, "--format", "json"]) == 0
        from_json = dict(_leaves("", json.loads(capsys.readouterr().out)))
        assert main([*argv, "--format", "csv"]) == 0
        from_csv = dict(csv.reader(io.StringIO(capsys.readouterr().out, newline="")))

        panel = make_panel(y, x)
        gmap = GroupMap(codes=[0, 0, 0, 1, 1, 1], G=2)
        fixed = gaussian_fixed_scale(1)
        report = (run_twfe_test(panel, gmap) if test == "twfe" else run_classic_test(
            panel, ModelSpec(fixed, individual_groups(6)), ModelSpec(fixed, gmap)))
        reals = {key: value for key, value in _leaves("", to_document(report))
                 if isinstance(value, float)}
        assert len(reals) >= 10
        for key, value in reals.items():
            assert from_json[key].hex() == value.hex(), key
            assert float(from_csv[key]).hex() == value.hex(), key

    def test_byte_order_mark_end_to_end(self, panel_csv, capsys):
        path, _, _ = panel_csv
        path.write_bytes(b"\xef\xbb\xbf" + path.read_bytes())
        code = main(["test", "twfe", "--input", str(path), "--x-cols", "x1",
                     "--group-col", "region"])
        out = capsys.readouterr()
        assert code == 0, out.err
        assert json.loads(out.out)["metadata"]["label_maps"]["units"]["u0"] == 1

    def test_non_utf8_exit_1(self, tmp_path, capsys):
        path = tmp_path / "panel.csv"
        path.write_bytes(b"unit,time,y,region\na,1,1.0,\xff\n")
        code = main(["test", "twfe", "--input", str(path), "--group-col", "region"])
        assert code == 1
        assert capsys.readouterr().err.startswith("error: byte 0xff at offset")

    def test_overlong_field_exit_1(self, tmp_path, capsys):
        # longer than csv.field_size_limit(); the csv module raises csv.Error
        path = tmp_path / "panel.csv"
        path.write_text("unit,time,y,region\na,1," + "1" * 200000 + ",g\n", encoding="utf-8")
        code = main(["test", "twfe", "--input", str(path), "--group-col", "region"])
        assert code == 1
        err = capsys.readouterr().err
        assert err.startswith("error: field larger than field limit")
        assert err.endswith("(row 2)\n")

    @pytest.mark.parametrize("test", ["twfe", "classic"])
    @pytest.mark.filterwarnings("ignore:overflow:RuntimeWarning",
                                "ignore:invalid value:RuntimeWarning")
    def test_huge_outcome_exit_1(self, tmp_path, rng, capsys, test):
        # |mqlr| > 1e154: its square overflows to inf, which decide refuses,
        # instead of raising OverflowError out of the components
        y = rng.normal(size=(6, 5)) * 1e100
        path = tmp_path / "panel.csv"
        write_panel_csv(path, y, groups=["g1", "g1", "g1", "g2", "g2", "g2"])
        flag = "--group-col" if test == "twfe" else "--model2-group-col"
        code = main(["test", test, "--input", str(path), flag, "region"])
        err = capsys.readouterr().err
        assert code == 1
        assert err.startswith(f"error: {test} statistic is not finite: mqlr=")
        assert "Traceback" not in err

    def test_schema_json_flag(self, tmp_path, rng, capsys):
        # the column flags name the unit, time and outcome columns
        y = rng.normal(size=(4, 3))
        path = tmp_path / "p.csv"
        lines = ["id,yr,outcome,grp"]
        for i in range(4):
            for t in range(3):
                lines.append(f"i{i},{t},{float(y[i, t])!r},{GROUPS[i]}")
        path.write_text("\n".join(lines) + "\n", encoding="utf-8")
        code = main(["test", "twfe", "--input", str(path), "--unit-col", "id",
                     "--time-col", "yr", "--y-col", "outcome", "--group-col", "grp"])
        assert code == 0
        doc = json.loads(capsys.readouterr().out)
        assert list(doc["metadata"]["label_maps"]["units"]) == ["i0", "i1", "i2", "i3"]
        expected = run_twfe_test(make_panel(y), GroupMap(codes=[0, 0, 1, 1], G=2))
        assert doc["test"]["mqlr"] == expected.mqlr


def _leaves(prefix, value):
    """(dotted key, scalar) pairs of a report document, in document order."""
    if isinstance(value, dict):
        for k, v in value.items():
            yield from _leaves(f"{prefix}.{k}" if prefix else k, v)
    elif isinstance(value, list):
        for i, v in enumerate(value):
            yield from _leaves(f"{prefix}[{i}]", v)
    else:
        yield prefix, value


def _csv_text(value):
    """A JSON leaf as a CSV report writes it."""
    if isinstance(value, bool):
        return "true" if value else "false"
    return "" if value is None else repr(value) if isinstance(value, float) else str(value)


class TestCmdSimulate:
    def test_outputs_written_and_deterministic(self, tmp_path):
        args = ["simulate", "--kind", "A", "--n", "10", "--T", "8", "--G", "2",
                "--K", "0", "--reps", "12", "--seed", "7"]
        d1, d2 = tmp_path / "a", tmp_path / "b"
        assert main(args + ["--out-dir", str(d1)]) == 0
        assert main(args + ["--out-dir", str(d2)]) == 0
        assert (d1 / "size_power.csv").read_bytes() == (d2 / "size_power.csv").read_bytes()
        assert (d1 / "replications.jsonl").read_bytes() == \
               (d2 / "replications.jsonl").read_bytes()

    def test_zero_reps_exit_1(self, tmp_path, capsys):
        code = main(["simulate", "--kind", "A", "--n", "10", "--T", "8", "--G", "2",
                     "--reps", "0", "--out-dir", str(tmp_path / "x")])
        assert code == 1
        assert "error:" in capsys.readouterr().err

    def test_unparseable_levels_exit_1(self, tmp_path, capsys):
        code = main(["simulate", "--kind", "A", "--n", "10", "--T", "8", "--G", "2",
                     "--reps", "2", "--levels", "0.05,abc",
                     "--out-dir", str(tmp_path / "x")])
        assert code == 1
        assert capsys.readouterr().err.startswith("error: --levels")

    def test_size_power_columns(self, tmp_path):
        out = tmp_path / "out"
        main(["simulate", "--kind", "A", "--n", "10", "--T", "8", "--G", "2",
              "--K", "0", "--reps", "10", "--seed", "1", "--levels", "0.05,0.1",
              "--out-dir", str(out)])
        header, *rows = (out / "size_power.csv").read_text().splitlines()
        assert header == ("kind,n,T,G,kappa,c,level,side,rate,se,reps,degenerate_count,"
                          "generator_version")
        assert len(rows) == 4
        assert all(row.split(",")[-1] == str(GENERATOR_VERSION) for row in rows)

    @pytest.mark.parametrize("argv", [
        ["simulate", "--kind", "A", "--n", "10", "--T", "8", "--G", "2", "--reps", "2",
         "--out-dir", "x", "--a-scale", "2"],
        ["simulate", "--kind", "A", "--n", "10", "--T", "8", "--G", "2", "--reps", "2",
         "--out-dir", "x", "--b-scale", "2"],
        ["test", "classic", "--input", "p.csv", "--model2-group-col", "region",
         "--model1-group-col", "region"],
        ["simulate", "--kind", "A", "--n", "10", "--T", "8", "--G", "2", "--reps", "2",
         "--out-dir", "x", "--jobs", "2"],
        ["test", "twfe", "--input", "p.csv", "--group-col", "region",
         "--schema", '{"unit_col": "id"}'],
        ["test", "twfe", "--input", "p.csv", "--group-col", "region", "--exact-floats"]])
    def test_removed_flags_refused(self, argv):
        # the effect scales cannot move a statistic, model 1 always has one
        # group per unit, replications run in one serial loop, columns are
        # named only by the column flags, and every real is already written
        # as its shortest round-trip decimal, so these flags are gone
        with pytest.raises(SystemExit):
            build_parser().parse_args(argv)

    def test_negative_seed_exit_1(self, tmp_path, capsys):
        code = main(["simulate", "--kind", "A", "--n", "10", "--T", "8", "--G", "2",
                     "--reps", "2", "--seed", "-1", "--out-dir", str(tmp_path / "x")])
        assert code == 1
        assert capsys.readouterr().err.startswith("error: master_seed must be nonnegative")

    def test_negative_c_exit_1(self, tmp_path, capsys):
        code = main(["simulate", "--kind", "E", "--n", "10", "--T", "8", "--G", "2",
                     "--reps", "2", "--c", "-1", "--out-dir", str(tmp_path / "x")])
        assert code == 1
        assert capsys.readouterr().err.startswith("error: c must be nonnegative")

    def test_kappa_on_null_kind_exit_1(self, tmp_path, capsys):
        # kind A reads no kappa, so the campaign would have run the null
        code = main(["simulate", "--kind", "A", "--n", "10", "--T", "8", "--G", "2",
                     "--reps", "2", "--kappa", "0.5", "--out-dir", str(tmp_path / "x")])
        assert code == 1
        assert capsys.readouterr().err.startswith("error: kind A ignores kappa")

    def test_non_finite_kappa_exit_1(self, tmp_path, capsys):
        # nan > 0 is false, so a NaN signal used to run as the null
        code = main(["simulate", "--kind", "B", "--n", "10", "--T", "8", "--G", "2",
                     "--reps", "2", "--kappa", "nan", "--out-dir", str(tmp_path / "x")])
        assert code == 1
        assert capsys.readouterr().err.startswith("error: kappa must be finite")


def _parser_flags(parser: argparse.ArgumentParser) -> set[str]:
    """Every long option of a parser and of its subcommands."""
    flags = set()
    for action in parser._actions:
        flags.update(s for s in action.option_strings if s.startswith("--"))
        if isinstance(action, argparse._SubParsersAction):
            for sub in action.choices.values():
                flags |= _parser_flags(sub)
    return flags


def test_readme_flags_accepted():
    # a flag the README documents but the parser lacks is a stale mention
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    section = readme.split("\n## Command line\n", 1)[1].split("\n## ", 1)[0]
    documented = set(re.findall(r"(?<![\w-])--[A-Za-z][\w-]*", section))
    assert {"--input", "--x-cols", "--levels"} <= documented   # the section was found
    assert documented - _parser_flags(build_parser()) == set()
