"""Tests for the package's public name lists.

Every module the package re-exports declares ``__all__``; the package's own
list is exactly their union, and each exported name has one home.  The
benchmark's trace mode wraps functions by attribute name, so every name it
patches must still exist.
"""

import importlib
import inspect
from pathlib import Path

import pytest

import relsys

MODULES = ("curves", "dists", "errors", "mcem", "sampler", "simlab", "streams", "sysmodel")


def exported(name):
    return importlib.import_module(f"relsys.{name}")


@pytest.mark.parametrize("name", MODULES + ("io", "cli"))
def test_every_listed_name_resolves(name):
    mod = exported(name)
    assert len(set(mod.__all__)) == len(mod.__all__)
    missing = [n for n in mod.__all__ if not hasattr(mod, n)]
    assert missing == []


def test_package_list_is_the_union_of_the_module_lists():
    union = set().union(*(exported(name).__all__ for name in MODULES))
    assert len(set(relsys.__all__)) == len(relsys.__all__)
    assert set(relsys.__all__) == union
    for n in relsys.__all__:
        assert hasattr(relsys, n), n


def test_no_name_is_exported_by_two_modules():
    homes = {}
    for name in MODULES:
        mod = exported(name)
        for n in mod.__all__:
            assert n not in homes, f"{n} is exported by {homes[n]} and {name}"
            homes[n] = name
            obj = getattr(mod, n)
            if inspect.isclass(obj) or inspect.isfunction(obj):
                # classes and functions are defined where they are exported
                assert obj.__module__ == mod.__name__, f"{name}.{n} is defined elsewhere"


def test_benchmark_tracer_finds_every_patch_target(monkeypatch):
    monkeypatch.syspath_prepend(str(Path(__file__).resolve().parents[1] / "perfbench"))
    tracing = importlib.import_module("tracing")
    from relsys import mcem

    original = mcem.make_log_kernel
    tracer = tracing.Tracer()
    try:
        tracer.install()
        assert tracer.missing == []
        assert mcem.make_log_kernel is not original
    finally:
        tracer.uninstall()
    assert mcem.make_log_kernel is original
