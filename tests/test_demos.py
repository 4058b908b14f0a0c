"""Smoke test of the short demos: each runs to completion in a fresh
interpreter.  Demos 05 and 06 run studies of about ten seconds and are
left out of that; every demo's imports from the library are checked
without running it."""

import ast
import importlib
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
DEMOS = sorted((ROOT / "demos").glob("0[1-4]_*.py"))
ALL_DEMOS = sorted((ROOT / "demos").glob("*.py"))


def test_the_short_demos_are_found():
    assert [d.name[:2] for d in DEMOS] == ["01", "02", "03", "04"]


@pytest.mark.parametrize("demo", DEMOS, ids=lambda d: d.stem)
def test_demo_runs(demo):
    src = str(ROOT / "src")
    path = os.environ.get("PYTHONPATH")
    env = dict(os.environ, PYTHONPATH=src if not path else src + os.pathsep + path)
    proc = subprocess.run([sys.executable, str(demo)], env=env, cwd=ROOT,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout


@pytest.mark.parametrize("demo", ALL_DEMOS, ids=lambda d: d.stem)
def test_demo_imports_name_only_what_the_library_has(demo):
    # a deleted public name fails here even for the demos no test runs
    found = 0
    for node in ast.walk(ast.parse(demo.read_text())):
        if isinstance(node, ast.ImportFrom) and node.module.split(".")[0] == "dyntrust":
            module = importlib.import_module(node.module)
            for alias in node.names:
                assert hasattr(module, alias.name), f"{node.module}.{alias.name}"
                found += 1
    assert found
