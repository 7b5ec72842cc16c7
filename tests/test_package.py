"""The package's public namespace."""

import inspect

import panelvuong


def test_all_lists_public_names_only():
    exported = set(panelvuong.__all__)
    assert len(exported) == len(panelvuong.__all__)
    assert not [n for n in exported if inspect.ismodule(getattr(panelvuong, n))]
    public = {n for n in dir(panelvuong)
              if not n.startswith("_") and not inspect.ismodule(getattr(panelvuong, n))}
    assert exported == public
