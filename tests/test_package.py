"""The package's public namespace."""

import inspect
import re
from pathlib import Path

import panelvuong
from panelvuong import estimation

README = Path(__file__).resolve().parents[1] / "README.md"


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
