"""The package's public namespace."""

import ast
import inspect
import re
import sys
from pathlib import Path

import panelvuong
import panelvuong.cli  # noqa: F401  (the CLI's names are wrap points too)
from panelvuong import estimation

ROOT = Path(__file__).resolve().parents[1]
README = ROOT / "README.md"


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
