"""Guards: invariants survive ``python -O`` (no assert statements in the
package), the CLI import stays free of ``fractions``, of every SHA-256
module and of argparse, only ``klpoly`` reads a KL table's polynomial pool, and only a
complete table is saved."""

import ast
import os
import pathlib
import subprocess
import sys

import pytest

import klext
from klext.errors import InvariantViolation
from klext.klpoly import KLTable, save_table
from klext.rootsys import build_root_system
from klext.weylaffine import enumerate_slice

PACKAGE = pathlib.Path(klext.__file__).resolve().parent


def test_no_assert_in_package():
    found = []
    for path in sorted(PACKAGE.rglob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        found += [f"{path.name}:{node.lineno}" for node in ast.walk(tree)
                  if isinstance(node, ast.Assert)]
    assert found == [], f"assert statements are stripped by python -O: {found}"


def test_optimized_run_prints_the_same():
    env = dict(os.environ, PYTHONDONTWRITEBYTECODE="1")
    env.pop("KLEXT_CACHE_DIR", None)
    for command in (["verify", "--type", "A", "--rank", "2", "--cutoff", "8"],
                    ["kl", "A", "2", "--cutoff", "8", "--all"]):  # row walk, JSON renderer
        args = ["-m", "klext.cli", "--format", "json", *command]
        runs = [subprocess.run([sys.executable, *flags, *args], capture_output=True,
                               text=True, env=env)
                for flags in ([], ["-O"])]
        assert [r.returncode for r in runs] == [0, 0], command
        assert runs[0].stdout == runs[1].stdout, command


def test_cli_import_leaves_fractions_out():
    # root-system arithmetic is integer-only, so the CLI never loads fractions;
    # a SHA-256 module waits for a cache file, json for an output that needs
    # it, argparse (with gettext and locale) for a line that the plain parse
    # declines, and the modules are imported plainly.
    # Only what ``import klext.cli`` adds counts, not what site hooks load
    code = ("import sys; base = set(sys.modules); import klext.cli\n"
            "print(sorted(set(sys.modules) - base))")
    res = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True)
    assert res.returncode == 0, res.stderr
    added = set(ast.literal_eval(res.stdout))
    assert {"klext.characters", "klext.extbounds"} <= added
    unwanted = {"fractions", "hashlib", "_sha2", "_sha256", "dataclasses", "inspect",
                "importlib.util", "json", "argparse", "gettext", "locale"}
    assert added & unwanted == set()


def test_only_klpoly_reads_the_pool():
    # the pool stores P in q = t^2; every other module reads coefficients by
    # t-degree through klpoly's readers, so the storage convention stays there
    found = []
    for path in sorted(PACKAGE.rglob("*.py")):
        if path.name == "klpoly.py":
            continue
        tree = ast.parse(path.read_text(), filename=str(path))
        found += [f"{path.name}:{node.lineno}" for node in ast.walk(tree)
                  if isinstance(node, ast.Attribute) and node.attr == "pool"]
    assert found == [], f"the pool is read outside klpoly: {found}"


def test_only_a_complete_table_is_saved(tmp_path):
    # a table that was never filled never becomes a cache file: not bare,
    # not after reading one row, not even after reading every row
    sl = enumerate_slice(build_root_system("A", 2), 6)
    one, every = KLTable(sl), KLTable(sl)
    one.rows_for(sl.shell(6)[0])
    for y in range(len(sl)):
        every.rows_for(y)
    for table in (KLTable(sl), one, every):
        with pytest.raises(InvariantViolation, match="filled to length -1, not its cutoff 6"):
            save_table(table, tmp_path / "t.klt")
    assert not list(tmp_path.iterdir())
