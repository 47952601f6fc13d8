"""Rows on first read: a table that was never filled computes a KL row the
first time it is read, with the rows that row's computation reads and no
other, so ``mu`` and ``klsum`` compute only the rows they read and touch no
cache file, with or without a cache directory. Such rows are checked against
the full table as polynomial tuples and mu, never as pool ids, which follow
the order rows are computed in. Every reader of the whole slice answers on
such a table as on the filled one, only ``save_table`` refuses it, and the
CLI prints without a cache exactly what it prints with a cold one, for
``kl --x --y`` (which keeps the full table) too."""

import os
import random
import subprocess
import sys

import pytest

from klext import cli, klpoly
from klext.errors import InvariantViolation
from klext.extbounds import bound_constants, make_block_context, run_verification, sum_ext_n
from klext.klpoly import (
    KLTable,
    kl_coefficient_sum,
    kl_entries,
    kl_polynomial,
    max_mu_dominant,
    max_top_coefficient,
    mu,
    mu_row_sum,
    save_table,
)
from klext.rootsys import build_root_system
from klext.weylaffine import enumerate_slice


def full_table(lab, rank, cutoff):
    table = KLTable(enumerate_slice(build_root_system(lab, rank), cutoff))
    table.fill()
    return table


def polynomials(table, y):
    """Row y as x -> P(x, y), coefficient tuples."""
    return {x: kl_polynomial(table, x, y) for x in table.rows_for(y)}


def computed(table):
    return [y for y, row in enumerate(table.rows) if row is not None]


def read_rows(sl, wanted):
    """A never-filled table of ``sl`` after reading the rows ``wanted``."""
    table = KLTable(sl)
    for y in wanted:
        table.rows_for(y)
    return table


@pytest.mark.parametrize("lab, rank, cutoff", [
    ("A", 1, 20), ("A", 2, 12), ("B", 2, 10), ("G", 2, 14),
])
def test_demand_rows_match_the_full_table_on_every_pair(lab, rank, cutoff):
    full = full_table(lab, rank, cutoff)
    sl = full.slice
    for y in range(len(sl)):
        table = read_rows(sl, [y])
        assert table.filled == -1
        for z in computed(table):  # row y and every row its computation read
            assert polynomials(table, z) == polynomials(full, z), (y, z)
        for x in range(len(sl)):
            assert kl_polynomial(table, x, y) == kl_polynomial(full, x, y), (x, y)
            if sl.length[x] <= sl.length[y]:  # mu reads the longer index's row
                assert mu(table, x, y) == mu(full, x, y), (x, y)


@pytest.mark.parametrize("lab, rank, cutoff", [
    ("A", 2, 24), ("A", 3, 12), ("B", 3, 9), ("G", 2, 14),  # the kl-cold slices
])
def test_demand_rows_match_the_full_table_on_random_pairs(lab, rank, cutoff):
    full = full_table(lab, rank, cutoff)
    sl = full.slice
    rng = random.Random(f"{lab}{rank}@{cutoff}")
    for _ in range(200):
        x, y = rng.randrange(len(sl)), rng.randrange(len(sl))
        longer = x if sl.length[x] > sl.length[y] else y
        table = read_rows(sl, [y, longer])  # the rows kl_polynomial and mu read
        assert kl_polynomial(table, x, y) == kl_polynomial(full, x, y), (x, y)
        assert mu(table, x, y) == mu(full, x, y), (x, y)
        assert [kl_coefficient_sum(table, y, m) for m in range(3)] == [
            kl_coefficient_sum(full, y, m) for m in range(3)], y
        assert polynomials(table, longer) == polynomials(full, longer), longer


def test_demand_table_computes_a_small_part_of_the_slice():
    sl = enumerate_slice(build_root_system("A", 3), 12)
    y = sl.shell(11)[0]
    assert len(computed(read_rows(sl, [y]))) < len(sl) // 10


def frame_depth():
    frame, depth = sys._getframe(), 0
    while frame is not None:
        frame, depth = frame.f_back, depth + 1
    return depth


def test_demand_table_needs_no_recursion():
    # the row of the longest element of affine A1@120 reads a chain of 120
    # shorter rows, one per length; a recursive closure needs a frame or two
    # per row, the work stack none
    sl = enumerate_slice(build_root_system("A", 1), 120)
    y = sl.shell(120)[-1]
    limit = sys.getrecursionlimit()
    sys.setrecursionlimit(frame_depth() + 50)
    try:
        table = read_rows(sl, [y])
    finally:
        sys.setrecursionlimit(limit)
    assert len(computed(table)) > 120
    full = KLTable(sl)
    full.fill()
    assert polynomials(table, y) == polynomials(full, y)


def test_rows_outside_the_closure_are_computed_on_first_read():
    sl = enumerate_slice(build_root_system("A", 2), 12)
    full = full_table("A", 2, 12)
    y = sl.shell(12)[0]
    table = read_rows(sl, [y])
    outside = [z for z in range(len(sl)) if table.rows[z] is None]
    assert outside
    for z in outside:
        assert kl_polynomial(table, 0, z) == kl_polynomial(full, 0, z), z
        assert table.rows[z] is not None
        assert mu(table, 0, z) == mu(full, 0, z), z
        assert polynomials(table, z) == polynomials(full, z), z
    assert table.filled == -1


def test_whole_slice_readers_answer_on_a_never_filled_table(tmp_path):
    # each whole-slice reader on its own never-filled table, which computes
    # every row it reads, answers exactly as on the filled table
    rs = build_root_system("A", 2)
    sl = enumerate_slice(rs, 8)
    full = KLTable(sl)
    full.fill()
    x = sl.dominant_indices()[0]
    l = 5  # odd and above h = 3, so no LevelWarning
    readers = (
        lambda t: list(kl_entries(t, tuple)),
        lambda t: mu_row_sum(t, x),
        max_mu_dominant,
        lambda t: max_top_coefficient(t, 0),
        lambda t: t.axioms_witness(),
        lambda t: run_verification(rs, l, t),
        lambda t: [vars(r) for r in bound_constants(rs, 2, table=t)],
        lambda t: vars(sum_ext_n(make_block_context(rs, l, t), x, 1)),
    )
    for read in readers:
        table = KLTable(sl)
        assert read(table) == read(full)
        assert table.filled == -1 and computed(table)
        with pytest.raises(InvariantViolation, match="filled to length -1, not its cutoff 8"):
            save_table(table, tmp_path / "t.klt")
    assert not list(tmp_path.iterdir())


# -- the CLI ---------------------------------------------------------------------


def run_cli(*args, cwd, cache=None):
    """klext in a child process run in ``cwd``, with no cache unless one is given."""
    env = dict(os.environ)
    env.pop(cli.ENV_CACHE, None)
    src = os.path.dirname(os.path.dirname(cli.__file__))  # importable from any cwd
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    cmd = [sys.executable, "-m", "klext.cli", *(["--cache-dir", str(cache)] if cache else []),
           *args]
    return subprocess.run(cmd, capture_output=True, text=True, env=env, cwd=cwd)


# affine A2@10: element 3 has length 1, 40 length 5 and 100 length 8
QUERIES = [
    ("kl", "--x", "3", "--y", "100"),
    ("kl", "--x", "100", "--y", "40"),  # x longer: P = 0, mu reads row x
    ("mu", "--x", "100", "--y", "3"),
    ("mu", "--x", "40", "--y", "100"),
    ("klsum", "--y", "100", "--m", "1"),
]


@pytest.mark.parametrize("fmt", ["text", "json", "csv"])
def test_uncached_queries_print_what_a_cold_cache_prints(tmp_path, fmt):
    work = tmp_path / "work"
    work.mkdir()
    for i, query in enumerate(QUERIES):
        args = ("--format", fmt, query[0], "A", "2", "--cutoff", "10", *query[1:])
        cold = run_cli(*args, cwd=work, cache=tmp_path / f"cache{i}")
        free = run_cli(*args, cwd=work)
        assert cold.returncode == free.returncode == 0, (args, free.stderr)
        assert free.stdout == cold.stdout and free.stderr == cold.stderr == "", args
    assert not list(work.iterdir())  # the uncached runs wrote nothing


@pytest.mark.parametrize("fmt", ["text", "json", "csv"])
def test_point_queries_read_and_write_no_cache_file(tmp_path, fmt, monkeypatch, capsys):
    monkeypatch.delenv(cli.ENV_CACHE, raising=False)

    def run(argv):
        rc = cli.main(argv)
        return (rc, *capsys.readouterr())

    cache = tmp_path / "cache"
    queries = [["--format", fmt, q[0], "A", "2", "--cutoff", "10", *q[1:]]
               for q in QUERIES if q[0] != "kl"]
    free = [run(q) for q in queries]
    assert all(rc == 0 and err == "" for rc, _, err in free)
    # the same bytes as without a cache, and the directory is made and left empty
    assert [run(["--cache-dir", str(cache), *q]) for q in queries] == free
    assert cache.is_dir() and not list(cache.iterdir())
    # a corrupted table file of their slice, which kl --x --y refuses, goes unread
    kl = ["--cache-dir", str(cache), "kl", "A", "2", "--cutoff", "10", "--x", "3", "--y", "100"]
    assert run(kl)[0] == 0
    table_file = next(cache.glob("kl_*.klt"))
    blob = bytearray(table_file.read_bytes())
    blob[40] ^= 0xFF
    table_file.write_bytes(bytes(blob))
    assert run(kl)[0] == 1
    assert [run(["--cache-dir", str(cache), *q]) for q in queries] == free


def test_uncached_queries_check_indices_before_any_row(tmp_path, monkeypatch, capsys):
    monkeypatch.delenv(cli.ENV_CACHE, raising=False)

    def no_row(*_):
        raise AssertionError("a row was computed")

    monkeypatch.setattr(KLTable, "_compute_row", no_row)
    base = ("A", "2", "--cutoff", "4")  # 31 elements
    for bad in ("-1", "31"):
        for args in (("mu", *base, "--x", bad, "--y", "0"),
                     ("mu", *base, "--x", "0", "--y", bad),
                     ("klsum", *base, "--y", bad, "--m", "1")):
            assert cli.main(list(args)) == 2, args
            out, err = capsys.readouterr()
            assert out == "" and err == (
                f"error: element index {bad} out of range: the slice has indices 0..30\n")


def test_uncached_queries_keep_the_element_cap(tmp_path):
    work = tmp_path / "work"
    work.mkdir()
    for query in QUERIES:
        args = ("--max-elements", "30", query[0], "A", "2", "--cutoff", "10", *query[1:])
        cold = run_cli(*args, cwd=work, cache=tmp_path / "cache")
        free = run_cli(*args, cwd=work)
        assert cold.returncode == free.returncode == 3 and free.stdout == ""
        assert free.stderr == cold.stderr == (
            "resource cap: slice exceeded the configured cap of 30 elements at length 4\n")
    assert not list(work.iterdir())


def test_uncached_queries_write_nothing(monkeypatch, capsys):
    monkeypatch.delenv(cli.ENV_CACHE, raising=False)

    def no_write(*_):
        raise AssertionError("a file was written")

    monkeypatch.setattr(klpoly.binio, "write_frame", no_write)
    for query in QUERIES:
        assert cli.main([query[0], "A", "2", "--cutoff", "10", *query[1:]]) == 0, query
    assert capsys.readouterr().err == ""
