"""The package's public namespace."""

import ast
import inspect
import json
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

import panelvuong
import panelvuong.cli  # noqa: F401  (the CLI's names are wrap points too)
from panelvuong import estimation

ROOT = Path(__file__).resolve().parents[1]
README = ROOT / "README.md"
WORKLOADS = [w["name"] for w in
             json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))["workloads"]]


def test_all_lists_public_names_only():
    exported = set(panelvuong.__all__)
    assert len(exported) == len(panelvuong.__all__)
    assert not [n for n in exported if inspect.ismodule(getattr(panelvuong, n))]
    public = {n for n in dir(panelvuong)
              if not n.startswith("_") and not inspect.ismodule(getattr(panelvuong, n))}
    assert exported == public


def test_every_exported_name_is_in_the_readme():
    readme = README.read_text(encoding="utf-8")
    missing = [n for n in panelvuong.__all__ if not re.search(rf"\b{n}\b", readme)]
    assert not missing


def test_readme_states_the_solver_budgets():
    readme = README.read_text(encoding="utf-8")
    for name in ("TOL", "MAX_ITER", "INNER_TOL", "MAX_HALVINGS"):
        stated = re.findall(rf"`{name} = ([^`]+)`", readme)
        assert stated, name
        assert [float(v) for v in stated] == [getattr(estimation, name)] * len(stated), name


def test_every_benchmark_wrap_point_resolves():
    # perfbench drops every metric of a layer whose wrapped names are all gone,
    # so a renamed or bypassed function would silently empty a traced run
    tree = ast.parse((ROOT / "perfbench" / "spans.py").read_text(encoding="utf-8"))
    listing, = [node.value for node in tree.body if isinstance(node, ast.Assign)
                and [getattr(t, "id", None) for t in node.targets] == ["WRAP_POINTS"]]
    points = [(point.elts[1].value, point.elts[2].value) for point in listing.elts]
    assert len(points) >= 20
    missing = [(module, attr) for module, attr in points
               if not callable(getattr(sys.modules.get(module), attr, None))]
    assert not missing


@pytest.mark.parametrize("workload", WORKLOADS)
def test_traced_benchmark_run_ends_with_a_result(workload):
    # a traced run must end with its details and result lines, every layer
    # present: a run that exits 0 with anything else last is a lost benchmark
    run = subprocess.run([sys.executable, "perfbench/run.py", "--workload", workload,
                          "--seed", "1", "--seconds", "0.3", "--trace", "1"],
                         cwd=ROOT, capture_output=True, text=True, timeout=300)
    assert run.returncode == 0, run.stdout + run.stderr
    *_, details, result = run.stdout.splitlines()
    result = json.loads(result)
    assert result["correct"] is True and result["failed"] == 0
    assert json.loads(details)["absent_layers"] == []


def test_runtime_imports_are_numpy_only():
    # the package and its command line need numpy alone: scipy and
    # hypothesis are test extras, and any other import slows every start
    probe = "import sys; print(*sorted({m.partition('.')[0] for m in sys.modules}))"
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")]))}

    def top_level_modules(imports: str) -> set:
        run = subprocess.run([sys.executable, "-c", imports + probe], cwd=ROOT, env=env,
                             capture_output=True, text=True, timeout=60)
        assert run.returncode == 0, run.stderr
        return set(run.stdout.split())

    added = top_level_modules("import panelvuong, panelvuong.cli; ") - top_level_modules("")
    assert added - set(sys.stdlib_module_names) <= {"numpy", "panelvuong"}
