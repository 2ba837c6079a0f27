"""Tests for the package's public name lists and the README's library code.

Every module the package re-exports declares ``__all__``; the package's own
list is exactly their union, its names resolve on first use, each exported
name has one home, and each is used by the package itself, not only by
tests.  The benchmark's trace mode wraps functions by attribute name, so
every name it patches must still exist, and its kernel probes must run.
The README's library examples run as written.
"""

import ast
import importlib
import inspect
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

import relsys

MODULES = (
    "curves", "dists", "errors", "mcem", "sampler", "settings", "simlab", "streams", "sysmodel",
)
ROOT = Path(__file__).resolve().parents[1]


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


LAZY_NAMESPACE = f"""
import importlib, sys
import relsys
assert [m for m in sys.modules if m.startswith("relsys.") or m == "numpy"] == []
homes = {{}}
for name in {MODULES!r}:
    mod = importlib.import_module("relsys." + name)
    homes.update(dict.fromkeys(mod.__all__, mod))
assert sorted(relsys.__all__) == sorted(homes)
for n in relsys.__all__:
    assert getattr(relsys, n) is getattr(homes[n], n), n
assert set(relsys.__all__) <= set(dir(relsys))
for n in ("no_such_name", "_no_such_name", "__wrapped__"):
    try:
        getattr(relsys, n)
    except AttributeError as e:
        assert repr(n) in str(e), e
    else:
        raise AssertionError(n)
"""


def test_package_names_load_on_first_use():
    # a fresh interpreter: this one has imported every module already
    path = os.pathsep.join(filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-c", LAZY_NAMESPACE], env=dict(os.environ, PYTHONPATH=path),
        capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr


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


def test_every_exported_name_is_used_by_the_package():
    # a name only tests call is a second path beside the one the commands run
    loaded = set()
    for path in Path(relsys.__file__).parent.glob("*.py"):
        if path.name == "__init__.py":
            continue
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                loaded.add(node.id)
            elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
                loaded.add(node.attr)
    names = relsys.__all__ + exported("io").__all__
    assert [n for n in names if n not in loaded] == []


def unused_imports(source):
    """Names ``source`` imports but never uses: a name is used where it
    appears as a ``Name`` node or as a string in ``__all__``."""
    tree = ast.parse(source)
    imported, used = [], set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Import, ast.ImportFrom)) and not (
            isinstance(node, ast.ImportFrom) and node.module == "__future__"
        ):
            imported += [a.asname or a.name.split(".")[0] for a in node.names if a.name != "*"]
        elif isinstance(node, ast.Name):
            used.add(node.id)
        elif isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets
        ):
            used |= {c.value for c in ast.walk(node.value) if isinstance(c, ast.Constant)}
    return [n for n in imported if n not in used]


def test_unused_import_check_finds_an_unused_name():
    source = "from typing import Callable, Sequence\nimport os.path\nf: Callable = os.path.join\n"
    assert unused_imports(source) == ["Sequence"]
    assert unused_imports("from .a import b\n__all__ = ['b']\n") == []


@pytest.mark.parametrize("tree", ["src", "tests"])
def test_no_module_imports_a_name_it_never_uses(tree):
    unused = {
        str(path.relative_to(ROOT)): names
        for path in sorted((ROOT / tree).rglob("*.py"))
        if (names := unused_imports(path.read_text(encoding="utf-8")))
    }
    assert unused == {}


def test_readme_library_examples_run():
    readme = (ROOT / "README.md").read_text(encoding="utf-8")
    library = readme.split("\n## Library\n", 1)[1].split("\n## ", 1)[0]
    blocks = re.findall(r"^```python\n(.*?)^```", library, flags=re.M | re.S)
    assert len(blocks) >= 2
    namespace = {}
    for block in blocks:
        exec(compile(block, "README.md", "exec"), namespace)


def test_benchmark_tracer_finds_every_patch_target(monkeypatch):
    monkeypatch.syspath_prepend(str(ROOT / "perfbench"))
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


def test_benchmark_kernel_probes_run(monkeypatch):
    # the probes are the only benchmark code that calls make_log_kernel and
    # generate_censored_sample directly; one call each keeps them working
    monkeypatch.syspath_prepend(str(ROOT / "perfbench"))
    tracing = importlib.import_module("tracing")
    monkeypatch.setattr(tracing, "PROBE_CALLS", 1)
    monkeypatch.setattr(tracing, "PROBE_REPEATS", 1)
    monkeypatch.setattr(tracing, "PROBE_SIZES", (30,))
    probes = tracing.kernel_probes(0)
    assert sorted(probes) == ["sysmodel.probe_us.left.n30", "sysmodel.probe_us.right.n30"]
    for value, unit in probes.values():
        assert unit == "us" and value > 0.0
