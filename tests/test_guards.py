"""Invariant guards survive ``python -O``: no assert statements in the package."""

import ast
import os
import pathlib
import subprocess
import sys

import klext

PACKAGE = pathlib.Path(klext.__file__).resolve().parent


def test_no_assert_in_package():
    found = []
    for path in sorted(PACKAGE.rglob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        found += [f"{path.name}:{node.lineno}" for node in ast.walk(tree)
                  if isinstance(node, ast.Assert)]
    assert found == [], f"assert statements are stripped by python -O: {found}"


def test_optimized_run_prints_the_same():
    args = ["-m", "klext.cli", "--format", "json", "verify",
            "--type", "A", "--rank", "2", "--cutoff", "8"]
    env = dict(os.environ, PYTHONDONTWRITEBYTECODE="1")
    runs = [subprocess.run([sys.executable, *flags, *args], capture_output=True,
                           text=True, env=env)
            for flags in ([], ["-O"])]
    assert [r.returncode for r in runs] == [0, 0]
    assert runs[0].stdout == runs[1].stdout
