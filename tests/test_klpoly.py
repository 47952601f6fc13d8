"""KL tables: axioms, closed forms, sums, the polynomial pool, persistence."""

import hashlib
import os
import random
import struct
import sys

import pytest

from conftest import bruhat_leq, slice_symmetries
from klext import binio
from klext.errors import (
    CacheFormatError,
    InvalidSystemError,
    InvariantViolation,
)
from klext.characters import chi_kl, decomposition_matrix
from klext.extbounds import (
    extn_simple_costandard,
    extn_simple_simple,
    make_block_context,
    run_verification,
)
from klext.klpoly import (
    KLTable,
    _combine,
    kl_coefficient,
    kl_coefficient_sum,
    kl_entries,
    kl_polynomial,
    kl_recomputation,
    load_table,
    max_mu_dominant,
    max_top_coefficient,
    mu,
    mu_row_sum,
    mu_support_window,
    save_table,
)
from klext.rootsys import build_root_system
from klext.weylaffine import GroupSlice, enumerate_slice, slice_inversion

ONE = (1,)


def test_polynomial_arithmetic():
    # _combine(a, m, k, b) = a + m q^k b, shared by the fill and the oracle
    p, q = (1, 0, 3), (0, 2)
    assert _combine(p, 1, 0, q) == (1, 2, 3)
    assert _combine((), 1, 2, p) == (0, 0, 1, 0, 3)
    assert _combine(p, -3, 1, q) == (1, 0, -3)
    assert _combine(p, 1, 4, ()) == p
    # trailing zeros are trimmed, down to () for zero
    assert _combine(p, -3, 2, ONE) == ONE
    assert _combine(p, -1, 0, p) == ()


def test_diagonal_and_short_intervals(a2_table12):
    table = a2_table12
    sl = table.slice
    for y in range(len(sl)):
        assert kl_polynomial(table, y, y) == ONE
        for x in range(len(sl)):
            if bruhat_leq(sl, x, y) and sl.length[y] - sl.length[x] <= 2:
                assert kl_polynomial(table, x, y) == ONE, (x, y)


def test_affine_a1_closed_form(a1_table20):
    table = a1_table20
    sl = table.slice
    n = len(sl)
    for y in range(n):
        for x in range(n):
            pol = kl_polynomial(table, x, y)
            if bruhat_leq(sl, x, y):
                assert pol == ONE
            else:
                assert pol == ()
            comparable = bruhat_leq(sl, x, y) or bruhat_leq(sl, y, x)
            expected = 1 if comparable and abs(sl.length[x] - sl.length[y]) == 1 else 0
            assert mu(table, x, y) == expected


def test_mu_axioms_exhaustive(a2_table12, b2_table10, a3_finite_table):
    for table in (a2_table12, b2_table10, a3_finite_table):
        sl = table.slice
        n = len(sl)
        for y in range(n):
            for x in range(n):
                m = mu(table, x, y)
                assert m == mu(table, y, x)
                if x == y:
                    assert m == 0
                if (sl.length[x] - sl.length[y]) % 2 == 0:
                    assert m == 0
                if m and sl.length[x] < sl.length[y]:
                    assert bruhat_leq(sl, x, y)


def test_support_equals_bruhat(a2_table12, a3_finite_table, b2_table10, g2_table14):
    # the fill only visits the lifting-property candidates of each row, so
    # this is the check that no x <= y was missed
    for table in (a2_table12, a3_finite_table, b2_table10, g2_table14):
        sl = table.slice
        for y in range(len(sl)):
            row = table.rows_for(y)
            for x in range(len(sl)):
                assert (x in row) == bruhat_leq(sl, x, y)


def test_kl_coefficient_t_convention(a2_table12):
    table = a2_table12
    sl = table.slice
    rng = random.Random(0)
    for _ in range(300):
        x, y = rng.randrange(len(sl)), rng.randrange(len(sl))
        assert kl_coefficient(table, x, y, 1) == 0  # odd t-powers vanish
        if bruhat_leq(sl, x, y):
            assert kl_coefficient(table, x, y, 0) == 1
            gap = sl.length[y] - sl.length[x]
            if x != y:
                for m in range(gap, gap + 3):
                    assert kl_coefficient(table, x, y, m) == 0


def test_coeff_reads_a_t_degree(a2_table12):
    table = a2_table12
    pid, t = next((pid, t) for pid, t in enumerate(table.pool) if len(t) >= 2)
    assert [table.coeff(pid, 2 * e) for e in range(len(t))] == list(t)
    assert table.coeff(pid, 1) == table.coeff(pid, 3) == 0  # odd degrees
    assert table.coeff(pid, -1) == table.coeff(pid, -2) == 0  # negative degrees
    assert table.coeff(pid, 2 * len(t)) == table.coeff(pid, 2 * len(t) + 2) == 0  # too large


def _q_coeff(t, e):
    """The coefficient of t^e of a tuple of q-coefficients (q = t^2), with its
    own parity guard and halving: the oracle of the reader test below."""
    return t[e // 2] if 0 <= e < 2 * len(t) and e % 2 == 0 else 0


def test_t_degree_readers_match_the_tuple_formulas():
    for lab in ("A", "B"):
        rs = build_root_system(lab, 2)
        table = KLTable(enumerate_slice(rs, 8))
        table.fill()
        sl = table.slice
        length, doms = sl.length, sl.dominant_indices()
        ctx = make_block_context(rs, 5, table)
        top = max(length) + 2
        for y in range(len(sl)):
            for x in range(len(sl)):
                p = kl_polynomial(table, x, y)
                for m in range(-1, top):
                    assert kl_coefficient(table, x, y, m) == _q_coeff(p, m), (lab, x, y, m)
                lo, hi = sorted((x, y), key=length.__getitem__)
                gap = length[hi] - length[lo]
                want = 0 if x == y or gap % 2 == 0 else _q_coeff(
                    kl_polynomial(table, lo, hi), gap - 1)
                assert mu(table, x, y) == want, (lab, x, y)
            for m in range(-1, top):
                want = sum(_q_coeff(kl_polynomial(table, x, y), length[y] - length[x] - m)
                           for x in doms)
                assert kl_coefficient_sum(table, y, m) == want, (lab, y, m)
        for x in doms:
            for z in doms:
                p = kl_polynomial(table, z, x)
                for n in range(-1, top):
                    want = _q_coeff(p, length[x] - length[z] - n)
                    assert extn_simple_costandard(ctx, x, z, n) == want, (lab, x, z, n)
        for m in range(-1, top):
            want = max(_q_coeff(kl_polynomial(table, x, y), length[y] - length[x] - m)
                       for y in doms for x in doms)
            assert max_top_coefficient(table, m) == want, (lab, m)


def test_ext_convolution_matches_the_degree_loop():
    # the dim Ext^n sum over z and a + b = n, with one t-degree read per
    # factor of each z, on every dominant pair
    for lab in ("A", "B"):
        rs = build_root_system(lab, 2)
        table = KLTable(enumerate_slice(rs, 8))
        table.fill()
        sl = table.slice
        length, doms = sl.length, sl.dominant_indices()
        ctx = make_block_context(rs, 5, table)
        for x in doms:
            for y in doms:
                for n in range(5):
                    want = 0
                    for z in doms:
                        px, py = kl_polynomial(table, z, x), kl_polynomial(table, z, y)
                        if not (px and py):
                            continue
                        gx, gy = length[x] - length[z], length[y] - length[z]
                        want += sum(_q_coeff(px, gx - a) * _q_coeff(py, gy - n + a)
                                    for a in range(max(0, n - gy), min(n, gx) + 1))
                    assert table.dominant_convolution(x, y, n) == want, (lab, x, y, n)
                    assert extn_simple_simple(ctx, x, y, n) == want, (lab, x, y, n)


def test_dominant_convolution_bounds(b2_table10):
    # every dominant pair up to length 6, at n beyond both polynomials'
    # degrees and below 0, against the sum of t-degree reads over all a
    table = b2_table10
    sl = table.slice
    length = sl.length
    doms = [x for x in sl.dominant_indices() if length[x] <= 6]
    for x in doms:
        for y in doms:
            row_x, row_y = table.rows_for(x), table.rows_for(y)
            common = [z for z in doms if z in row_x and z in row_y]
            for n in range(-1, length[x] + length[y] + 2):
                want = sum(table.coeff(row_x[z], length[x] - length[z] - a)
                           * table.coeff(row_y[z], length[y] - length[z] - n + a)
                           for z in common for a in range(0, n + 1))
                assert table.dominant_convolution(x, y, n) == want, (x, y, n)


def test_descent_choice_independence(a2_table12):
    table = a2_table12
    sl = table.slice
    rng = random.Random(99)
    for _ in range(120):
        x, y = rng.randrange(len(sl)), rng.randrange(len(sl))
        assert kl_recomputation(table, rng)(x, y) == kl_polynomial(table, x, y)


def test_mu_row_sums_affine_a1(a1_table20):
    table = a1_table20
    sl = table.slice
    window = mu_support_window(sl.rs)
    assert window == 3
    doms = sl.dominant_indices()
    for x in doms:
        total, saturated = mu_row_sum(table, x)
        assert saturated == (sl.length[x] + window <= sl.cutoff)
        if saturated:
            # dominant elements form a chain, one per length >= 1: the
            # minimal one sees only its upward neighbor, the rest see both
            assert total == (1 if sl.length[x] == 1 else 2)


def test_max_over_slice_lower_bound(a2_table12):
    # max over a smaller slice never exceeds the bigger slice's max
    rs = build_root_system("A", 2)
    small = KLTable(enumerate_slice(rs, 8))
    small.fill()
    assert max_mu_dominant(small) <= max_mu_dominant(a2_table12)
    for m in (0, 1, 2):
        assert max_top_coefficient(small, m) <= max_top_coefficient(a2_table12, m)


def test_kl_coefficient_sum_m0(a2_table12):
    table = a2_table12
    for y in table.slice.dominant_indices():
        assert kl_coefficient_sum(table, y, 0) == 1


def test_fill_guard_and_coverage(tmp_path):
    rs = build_root_system("B", 2)
    sl = enumerate_slice(rs, 6)
    full = KLTable(sl)
    full.fill()
    table = KLTable(sl)
    # a row of a table that was never filled is computed on its first read,
    # never read as zero; this one meets its polynomials in another order
    # than the fill does
    y = 50  # of length 6
    assert {x: kl_polynomial(table, x, y) for x in table.rows_for(y)} == {
        x: kl_polynomial(full, x, y) for x in full.rows_for(y)}
    assert table.filled == -1 and table.pool != full.pool[:len(table.pool)]
    # a fill after such reads starts afresh: its pool ids, and so its file,
    # are those of a fresh fill
    table.fill()
    assert table.filled == sl.cutoff and table.pool == full.pool
    save_table(table, tmp_path / "read.klt")
    save_table(full, tmp_path / "fresh.klt")
    assert (tmp_path / "read.klt").read_bytes() == (tmp_path / "fresh.klt").read_bytes()


def test_fill_after_reads_drops_the_dominant_rows_read(a2_table12):
    # dominant rows hold pool ids, so the fill's fresh pool drops them too
    sl = a2_table12.slice
    table = KLTable(sl)
    table.rows_for(len(sl) - 1)  # meets its polynomials in another order than the fill
    doms = sl.dominant_indices()
    for d in doms:
        table.dominant_row(d)
    table.fill()
    assert all(table.dominant_row(d) == a2_table12.dominant_row(d) for d in doms)


# -- one row per symmetry orbit ----------------------------------------------------


def rowwise_table(sl):
    """The reference fill: every row read through ``rows_for`` in index
    order (so shell by shell) on a table with no orbit plan, so each row is
    computed, using no symmetry of the slice."""
    table = KLTable(sl)
    for y in range(len(sl)):
        table.rows_for(y)
    table.filled = sl.cutoff
    return table


def orbit_count(sl):
    """The number of orbits of the group that inversion and the graph
    automorphisms generate: the components of the graph joining each y to
    its inverse and to its image under every automorphism."""
    maps = [slice_inversion(sl)] + slice_symmetries(sl)
    seen, count = set(), 0
    for y in range(len(sl)):
        if y in seen:
            continue
        count += 1
        seen.add(y)
        stack = [y]
        while stack:
            u = stack.pop()
            for g in maps:
                if g[u] not in seen:
                    seen.add(g[u])
                    stack.append(g[u])
    return count


def record_spans(payload, n_elements):
    """The (start, end) payload offsets of a table file's records, read by
    the layout alone: the header, the pool, then per record its 4-byte
    length k, k element indices and k pool ids."""
    head = ">cHBIiII"  # type, rank, affine, cutoff, filled, pool size, records
    *_, n_pool, n_records = struct.unpack_from(head, payload)
    off = struct.calcsize(head)
    for _ in range(n_pool):
        (nterms,) = struct.unpack_from(">H", payload, off)
        off += 2
        for _ in range(nterms):
            off += 2 + struct.unpack_from(">H", payload, off)[0]
    xw = 2 if n_elements <= 1 << 16 else 4
    iw = 1 if n_pool <= 1 << 8 else 2 if n_pool <= 1 << 16 else 4
    spans = []
    while off < len(payload):
        (k,) = struct.unpack_from(">I", payload, off)
        spans.append((off, off + 4 + k * (xw + iw)))
        off = spans[-1][1]
    assert off == len(payload) and len(spans) == n_records
    return spans


@pytest.mark.parametrize("lab, rank, cutoff, affine", [
    ("A", 1, 20, True), ("A", 2, 12, True), ("A", 3, 8, True), ("B", 2, 16, True),
    ("C", 3, 9, True), ("D", 4, 6, True), ("F", 4, 5, True), ("G", 2, 14, True),
    # the whole finite D4 and F4, and finite E6 to length 5
    ("D", 4, 12, False), ("F", 4, 24, False), ("E", 6, 5, False),
])
def test_orbit_fill_matches_the_rowwise_fill(tmp_path, lab, rank, cutoff, affine):
    sl = enumerate_slice(build_root_system(lab, rank), cutoff, affine)
    table, oracle = KLTable(sl), rowwise_table(sl)
    table.fill()
    assert table.pool == oracle.pool and table.filled == oracle.filled
    for y in range(len(sl)):
        assert table.rows_for(y) == oracle.rows_for(y), y
    save_table(table, tmp_path / "orbit.klt")
    save_table(oracle, tmp_path / "rowwise.klt")
    assert (tmp_path / "orbit.klt").read_bytes() == (tmp_path / "rowwise.klt").read_bytes()
    # the file holds one record per orbit, and its load is the oracle's table
    payload = binio.read_frame(tmp_path / "orbit.klt", b"KLXTABLE", 3)
    assert len(record_spans(payload, len(sl))) == orbit_count(sl)
    loaded = load_table(tmp_path / "orbit.klt", sl)
    assert loaded.pool == oracle.pool and loaded.filled == oracle.filled
    for y in range(len(sl)):
        assert loaded.rows_for(y) == oracle.rows_for(y), y


def test_swapped_right_entries_raise_in_fill():
    # a right table with two entries swapped is refused before any row is
    # filled, also where the Coxeter graph has no automorphism (G2)
    rng = random.Random(3)
    for lab, cutoff in (("A", 8), ("G", 10)):
        sl = enumerate_slice(build_root_system(lab, 2), cutoff)
        cells = [(y, t) for y, row in enumerate(sl.right) for t in range(len(row))]
        for _ in range(20):
            (y1, t1), (y2, t2) = rng.sample(cells, 2)
            right = [list(row) for row in sl.right]
            if right[y1][t1] == right[y2][t2]:
                continue
            right[y1][t1], right[y2][t2] = right[y2][t2], right[y1][t1]
            table = KLTable(GroupSlice(sl.rs, sl.cutoff, sl.affine, sl.elements, right,
                                       sl.dominant))
            with pytest.raises(InvariantViolation):
                table.fill()
            assert all(row is None for row in table.rows)


def test_element_indices_validated(a2_table12):
    n = len(a2_table12.slice)
    dom = a2_table12.slice.dominant_indices()[0]
    for bad in (-1, n):
        for call in (
            lambda: kl_polynomial(a2_table12, bad, 2),
            lambda: kl_polynomial(a2_table12, 0, bad),
            lambda: kl_coefficient(a2_table12, bad, 2, 0),
            lambda: kl_coefficient(a2_table12, bad, 2, 1),
            lambda: kl_coefficient(a2_table12, 0, bad, 1),
            lambda: kl_coefficient(a2_table12, bad, 2, -2),
            lambda: kl_coefficient(a2_table12, 0, bad, -2),
            lambda: mu(a2_table12, 0, bad),
            lambda: mu(a2_table12, bad, 0),
            lambda: mu_row_sum(a2_table12, bad),
            lambda: kl_coefficient_sum(a2_table12, bad, 0),
        ):
            with pytest.raises(InvalidSystemError, match=f"0..{n - 1}"):
                call()
    assert mu_row_sum(a2_table12, dom)[0] >= 0


def test_pool_ids_valid_and_distinct(a2_table12):
    table = a2_table12
    sl = table.slice
    pids = {pid for y in range(len(sl)) for pid in table.rows_for(y).values()}
    assert pids == set(range(len(table.pool)))
    assert len(set(table.pool)) == len(table.pool)
    resolved = {
        kl_polynomial(table, x, y) for y in range(len(sl)) for x in table.rows_for(y)
    }
    assert len(resolved) == len(table.pool)
    # a second fill of the same slice gives the same ids
    again = KLTable(sl)
    again.fill()
    assert again.pool == table.pool
    assert all(again.rows_for(y) == table.rows_for(y) for y in range(len(sl)))


def test_save_load_roundtrip(tmp_path, a2_table12):
    path = tmp_path / "table.klt"
    save_table(a2_table12, path)
    digest1 = hashlib.sha256(path.read_bytes()).hexdigest()
    loaded = load_table(path, a2_table12.slice)
    assert loaded.filled == a2_table12.filled
    assert all(
        loaded.rows_for(y) == a2_table12.rows_for(y) for y in range(len(a2_table12.slice))
    )
    save_table(loaded, path)
    assert hashlib.sha256(path.read_bytes()).hexdigest() == digest1


def test_v1_table_rejected(tmp_path, a1_table20):
    path = tmp_path / "table.klt"
    save_table(a1_table20, path)
    payload = binio.read_frame(path, b"KLXTABLE", 3)
    binio.write_frame(path, b"KLXTABLE", 1, payload)
    with pytest.raises(CacheFormatError, match="version 1, expected 3.*delete"):
        load_table(path, a1_table20.slice)
    # and a version-2 file, which held every row, is never read either
    binio.write_frame(path, b"KLXTABLE", 2, payload)
    with pytest.raises(CacheFormatError, match="version 2, expected 3.*delete"):
        load_table(path, a1_table20.slice)


def test_interrupted_write_keeps_old_file(tmp_path, a1_table20, a2_table12, monkeypatch):
    path = tmp_path / "table.klt"
    save_table(a1_table20, path)
    before = path.read_bytes()

    def failing_fsync(fd):
        raise OSError("disk full")

    # the new frame is written, then the write fails before the rename
    monkeypatch.setattr(binio.os, "fsync", failing_fsync)
    with pytest.raises(OSError, match="disk full"):
        save_table(a2_table12, path)
    monkeypatch.undo()
    assert path.read_bytes() == before
    assert load_table(path, a1_table20.slice).filled == a1_table20.filled
    assert os.listdir(tmp_path) == ["table.klt"]


def test_frames_without_cpythons_sha_module(tmp_path, a2_table12, monkeypatch):
    # a build without CPython's own SHA-256 module (_sha2 on 3.12+, _sha256
    # before) digests with hashlib: the same frame bytes, read back the same
    own, fallback = tmp_path / "own.klt", tmp_path / "fallback.klt"
    save_table(a2_table12, own)
    monkeypatch.setitem(sys.modules, "_sha2", None)
    monkeypatch.setitem(sys.modules, "_sha256", None)
    assert binio._sha256() is hashlib.sha256
    save_table(a2_table12, fallback)
    blob = fallback.read_bytes()
    assert blob == own.read_bytes()
    assert blob[-32:] == hashlib.sha256(blob[:-32]).digest()
    for path in (own, fallback):
        table = load_table(path, a2_table12.slice)
        assert table.pool == a2_table12.pool
        assert all(table.rows_for(y) == a2_table12.rows_for(y) for y in range(len(table.slice)))


def test_corrupted_table_detected(tmp_path, a1_table20):
    path = tmp_path / "table.klt"
    save_table(a1_table20, path)
    blob = bytearray(path.read_bytes())
    blob[len(blob) // 2] ^= 0xFF
    path.write_bytes(bytes(blob))
    with pytest.raises(CacheFormatError):
        load_table(path, a1_table20.slice)
    # truncation is also rejected
    save_table(a1_table20, path)
    path.write_bytes(path.read_bytes()[:-5])
    with pytest.raises(CacheFormatError):
        load_table(path, a1_table20.slice)


def test_longer_table_serves_shorter_queries(tmp_path):
    rs = build_root_system("A", 1)
    big = KLTable(enumerate_slice(rs, 12))
    big.fill()
    path = tmp_path / "big.klt"
    save_table(big, path)
    loaded = load_table(path, big.slice)
    small = KLTable(enumerate_slice(rs, 6))
    small.fill()
    sl_small = small.slice
    for y in range(len(sl_small)):
        for x in range(len(sl_small)):
            # indices agree because enumeration order is deterministic by shells
            assert kl_polynomial(loaded, x, y) == kl_polynomial(small, x, y)


def test_max_mu_dominant_matches_brute_force(a2_table12, b2_table10):
    for table in (a2_table12, b2_table10):
        sl = table.slice
        dom = [i for i in sl.dominant_indices() if sl.length[i] <= table.filled]
        assert max_mu_dominant(table) == max(mu(table, x, y) for x in dom for y in dom)


# -- rows decoded on first read --------------------------------------------------


def _reframed(tmp_path, table, edit):
    """Save ``table``, apply ``edit`` to its payload and frame it again, so the
    checksum is valid and only the structure checks can catch the change."""
    path = tmp_path / "table.klt"
    save_table(table, path)
    payload = bytearray(binio.read_frame(path, b"KLXTABLE", 3))
    edit(payload)
    binio.write_frame(path, b"KLXTABLE", 3, bytes(payload))
    return path


def test_loaded_rows_read_in_any_order(tmp_path, a2_table12):
    a3 = KLTable(enumerate_slice(build_root_system("A", 3), 6))
    a3.fill()
    rng = random.Random(8)
    for table in (a2_table12, a3):
        path = tmp_path / "table.klt"
        save_table(table, path)
        oracle = rowwise_table(table.slice)
        backwards = list(range(len(table.slice)))[::-1]
        # descending order reads the last member of an orbit first, so its
        # representative's row is read only to relabel it
        filled = KLTable(table.slice)
        filled.fill()
        for y in backwards:
            assert filled.rows_for(y) == oracle.rows_for(y)
        for order in (backwards, rng.sample(backwards, len(backwards))):
            loaded = load_table(path, table.slice)
            assert loaded.pool == oracle.pool and loaded.filled == oracle.filled
            for y in order:
                assert loaded.rows_for(y) == oracle.rows_for(y)
            # every row read is held as its dict alone, the arrays dropped
            assert all(type(row) is dict for row in loaded.rows)


def test_readers_do_not_depend_on_row_order(tmp_path, a2_table12):
    # a row is an unordered map: every reader that needs x order sorts, so a
    # table whose row dicts are all rebuilt in reversed order answers alike
    sl, rs = a2_table12.slice, a2_table12.slice.rs
    reordered = KLTable(sl)
    reordered.fill()
    rows = [reordered.rows_for(y) for y in range(len(sl))]
    reordered.rows = [dict(reversed(row.items())) for row in rows]
    reordered._mu_rows.clear()  # the fill's mu rows were read off the old dicts
    assert [list(row) for row in reordered.rows] != [sorted(row) for row in rows]
    assert list(kl_entries(reordered, tuple)) == list(kl_entries(a2_table12, tuple))
    save_table(a2_table12, tmp_path / "sorted.klt")
    save_table(reordered, tmp_path / "reversed.klt")
    assert (tmp_path / "reversed.klt").read_bytes() == (tmp_path / "sorted.klt").read_bytes()
    assert all(reordered.mu_row(y) == a2_table12.mu_row(y) for y in range(len(sl)))
    dm, again = (decomposition_matrix(rs, (0, 0), 5, bound=(8, 8), table=t)
                 for t in (a2_table12, reordered))
    assert (again.weights, again.a_matrix, again.d_matrix) == (dm.weights, dm.a_matrix,
                                                                dm.d_matrix)
    assert len(dm.weights) > 1
    for lam in dm.weights:
        assert chi_kl(rs, lam, 5, reordered).terms == chi_kl(rs, lam, 5, a2_table12).terms
    assert run_verification(rs, 5, reordered) == run_verification(rs, 5, a2_table12)


def test_axioms_witness_names_the_smallest_x_of_a_relabelled_row():
    # a relabelled row is unordered. In the first such row where several x
    # share a pool id and the smallest of them does not come first, their
    # entries point at a corrupted copy of that pool entry; the rows before
    # it still pass, and the witness names the smallest of those x
    table = KLTable(enumerate_slice(build_root_system("A", 2), 8))
    table.fill()
    _, sources = table.orbit_plan()

    def unsorted_shares(y):
        row, xs_of = table.rows_for(y), {}
        for x, pid in row.items():
            if x != y:  # P(y,y) = 1 has a check of its own
                xs_of.setdefault(pid, []).append(x)
        return [xs for xs in xs_of.values() if xs[0] != min(xs)]

    y = next(y for y, source in enumerate(sources) if source and unsorted_shares(y))
    xs = unsorted_shares(y)[0]
    row = table.rows_for(y)
    table.pool.append((1, -1))
    for x in xs:
        row[x] = len(table.pool) - 1
    assert table.axioms_witness() == f"coefficient axiom broken at ({min(xs)},{y})"


def test_representatives_of_a_shorter_slice_are_a_prefix():
    # the slice of A2 to length 12 is the start of the one to length 24: its
    # representatives, their rows and its pool are prefixes of the longer
    # table's, though the two files differ in their headers
    rs = build_root_system("A", 2)
    small, big = KLTable(enumerate_slice(rs, 12)), KLTable(enumerate_slice(rs, 24))
    small.fill()
    big.fill()
    reps, big_reps = small.orbit_plan()[0], big.orbit_plan()[0]
    assert reps == big_reps[:len(reps)] and len(reps) < len(big_reps)
    assert small.pool == big.pool[:len(small.pool)]
    assert all(small.rows_for(y) == big.rows_for(y) for y in reps)


def test_records_too_few_or_too_many_rejected(tmp_path, a2_table12):
    sl = a2_table12.slice
    path = tmp_path / "table.klt"
    save_table(a2_table12, path)
    spans = record_spans(binio.read_frame(path, b"KLXTABLE", 3), len(sl))
    n = len(spans)
    reps = a2_table12.orbit_plan()[0]
    assert n == len(reps) == orbit_count(sl) < len(sl)

    def records(count, drop=None, repeat=None, forge=None):
        """Drop or repeat one record, or forge its length field to 2^32 - 1,
        and write ``count`` records in the header."""
        def edit(payload):
            if drop is not None:
                del payload[slice(*spans[drop])]
            if repeat is not None:
                start, end = spans[repeat]
                payload[end:end] = payload[start:end]
            if forge is not None:
                start = spans[forge][0]
                payload[start : start + 4] = b"\xff" * 4
            payload[16:20] = count.to_bytes(4, "big")  # the header's record count
        return edit

    for edit, message in (
        (records(n, drop=n // 2), "runs past the end of the file"),
        (records(n, drop=n - 1), "runs past the end of the file"),
        (records(n - 1, drop=n // 2), "row count does not match"),
        (records(n, repeat=n - 1), "trailing bytes after the last row"),
        (records(n + 1, repeat=n - 1), "row count does not match"),
        # a record of 2^32 - 1 entries is refused by its size, before any is read
        (records(n, forge=n // 2), f"row {reps[n // 2]} runs past the end of the file"),
    ):
        with pytest.raises(CacheFormatError, match=message):
            load_table(_reframed(tmp_path, a2_table12, edit), sl)
    assert load_table(_reframed(tmp_path, a2_table12, records(n)), sl).pool == a2_table12.pool


def test_malformed_header_or_pool_rejected(tmp_path, a2_table12):
    # a payload cut inside the 20-byte header or inside the pool, framed
    # with a valid checksum, is a CacheFormatError, not a struct.error, and
    # so is a type byte that is no ASCII letter, not a UnicodeDecodeError
    sl = a2_table12.slice
    for at, message in ((19, "header runs past"), (21, "pool runs past"), (40, "pool runs past")):
        def cut(payload):
            del payload[at:]
        with pytest.raises(CacheFormatError, match=message):
            load_table(_reframed(tmp_path, a2_table12, cut), sl)

    def type_byte(payload):
        payload[0] = 0xFF

    with pytest.raises(CacheFormatError, match="does not match the provided slice"):
        load_table(_reframed(tmp_path, a2_table12, type_byte), sl)


def test_pool_entry_that_is_no_kl_polynomial_rejected(tmp_path):
    # a pool entry cut to 0 terms would read as the zero polynomial wherever
    # it is used; every entry must have the shape the fill stores: constant
    # term 1, no negative coefficient and no trailing zero
    table = KLTable(enumerate_slice(build_root_system("A", 2), 8))
    table.fill()
    sl, pid = table.slice, table.pool.index((1, 1))
    assert kl_polynomial(table, 0, 19) == (1, 1)

    def replaced_by(coeffs):
        """Pool entry ``pid`` replaced by ``coeffs``, the rest kept."""
        def edit(payload):
            start = 20  # the pool follows the 20-byte header
            for i in range(pid + 1):
                (nterms,) = struct.unpack_from(">H", payload, start)
                end = start + 2
                for _ in range(nterms):
                    _, end = binio.unpack_bigint(payload, end)
                if i < pid:
                    start = end
            payload[start:end] = struct.pack(">H", len(coeffs)) + b"".join(
                binio.pack_bigint(v) for v in coeffs)
        return edit

    for coeffs in ((), (1, 0), (0, 1), (2, 1), (1, -1)):
        with pytest.raises(CacheFormatError, match=f"pool entry {pid} is not a KL polynomial"):
            load_table(_reframed(tmp_path, table, replaced_by(coeffs)), sl)
    loaded = load_table(_reframed(tmp_path, table, replaced_by((1, 1))), sl)
    assert kl_polynomial(loaded, 0, 19) == (1, 1)


def frame_depth():
    frame, depth = sys._getframe(), 0
    while frame is not None:
        frame, depth = frame.f_back, depth + 1
    return depth


def call_headroom():
    """How many nested Python calls below the caller still fit under the
    recursion limit: the limit also counts calls that are no Python frame,
    so frame_depth alone does not tell."""
    def nest(n):  # n calls below the caller
        try:
            return nest(n + 1)
        except RecursionError:
            return n
    return nest(2)


def test_relabel_chains_need_no_recursion(tmp_path):
    # affine D4 has the graph automorphisms of its four outer nodes, S4, and
    # with inversion orbits of up to 48 rows; every other row of an orbit is
    # relabelled from its representative in one step. Reading them in
    # descending index reads each orbit's last member first. The reads run
    # with room for 6 nested calls: the one hop takes 3
    sl = enumerate_slice(build_root_system("D", 4), 6)
    table = KLTable(sl)
    table.fill()
    reps, sources = table.orbit_plan()
    sizes = dict.fromkeys(reps, 1)
    for y, source in enumerate(sources):
        if source is not None:
            u, g = source
            assert sources[u] is None and g[u] == y
            sizes[u] += 1
    assert max(sizes.values()) == 48
    path = tmp_path / "d4.klt"
    save_table(table, path)
    oracle = rowwise_table(sl)
    loaded = load_table(path, sl)
    limit = sys.getrecursionlimit()
    sys.setrecursionlimit(frame_depth() + 50)
    try:
        sys.setrecursionlimit(sys.getrecursionlimit() - call_headroom() + 6)
        rows = [loaded.rows_for(y) for y in reversed(range(len(sl)))]
    finally:
        sys.setrecursionlimit(limit)
    assert rows[::-1] == [oracle.rows_for(y) for y in range(len(sl))]


def test_partly_read_table_resaves_identically(tmp_path, a2_table12):
    path, again = tmp_path / "table.klt", tmp_path / "again.klt"
    save_table(a2_table12, path)
    loaded = load_table(path, a2_table12.slice)
    for y in range(0, len(loaded.slice), 3):
        loaded.rows_for(y)
    assert mu(loaded, 0, len(loaded.slice) - 1) == mu(a2_table12, 0, len(loaded.slice) - 1)
    save_table(loaded, again)
    assert again.read_bytes() == path.read_bytes()


def test_last_row_out_of_range_rejected_at_load(tmp_path, a2_table12):
    sl = a2_table12.slice
    n_pool = len(a2_table12.pool)
    last = a2_table12.orbit_plan()[0][-1]  # the last representative
    k = len(a2_table12.rows_for(last))
    # the payload ends with the last stored row's k element indices, 2 bytes
    # each, then its k pool ids, 1 byte each
    assert len(sl) <= 1 << 16 and n_pool < 1 << 8
    last_x, last_id = -3 * k + 2 * (k - 1), -1

    def setting(at, value, width):
        def edit(payload):
            payload[len(payload) + at : len(payload) + at + width] = value.to_bytes(width, "big")
        return edit

    for edit in (setting(last_x, len(sl), 2), setting(last_id, n_pool, 1)):
        with pytest.raises(CacheFormatError, match="out of range"):
            load_table(_reframed(tmp_path, a2_table12, edit), sl)
    # the unaltered re-framing loads
    loaded = load_table(_reframed(tmp_path, a2_table12, lambda payload: None), sl)
    assert loaded.rows_for(last) == a2_table12.rows_for(last)


def test_middle_row_pool_id_out_of_range_rejected_at_load(tmp_path, a2_table12):
    # a bad pool id in a middle row, with 1-byte ids and, in a pool padded
    # past 2^8 entries, with 2-byte ids
    sl = a2_table12.slice
    wide = KLTable(sl)
    wide.rows = [a2_table12.rows_for(y) for y in range(len(sl))]
    wide.pool = a2_table12.pool + [(1, 1000 + i) for i in range(1 << 8)]  # never in this table
    wide.filled = a2_table12.filled
    reps = a2_table12.orbit_plan()[0]
    y = reps[len(reps) // 2]  # a representative in the middle of the file
    k = len(a2_table12.rows_for(y))
    for table, width in ((a2_table12, 1), (wide, 2)):
        n_pool = len(table.pool)
        assert len(sl) <= 1 << 16 and (n_pool <= 1 << 8) == (width == 1)
        # the stored rows from y on, each its 4-byte length, then 2-byte
        # element indices and pool ids of ``width`` bytes
        tail = sum(4 + len(table.rows_for(v)) * (2 + width) for v in reps if v >= y)

        def edit(payload):
            at = len(payload) - tail + 4 + 2 * k + width * (k // 2)  # row y's middle id
            payload[at : at + width] = n_pool.to_bytes(width, "big")

        with pytest.raises(CacheFormatError, match="entry index out of range"):
            load_table(_reframed(tmp_path, table, edit), sl)
        loaded = load_table(_reframed(tmp_path, table, lambda payload: None), sl)
        assert loaded.rows_for(y) == table.rows_for(y)


def test_repeated_row_index_rejected(tmp_path):
    table = KLTable(enumerate_slice(build_root_system("A", 1), 4))
    table.fill()
    # the two elements of length 4 are one orbit: row y is stored last, and
    # row y + 1, the last of the slice, is relabelled from it
    y = table.orbit_plan()[0][-1]
    assert y == len(table.slice) - 2
    k = len(table.rows_for(y))
    assert list(table.rows_for(y))[:2] == [0, 1]

    def edit(payload):
        at = len(payload) - 3 * k  # the last stored row's element indices
        payload[at : at + 2] = (1).to_bytes(2, "big")  # x = 1 twice, x = 0 never

    # every stored row is decoded at load, so the file is refused whole
    with pytest.raises(CacheFormatError, match=f"row {y} repeats an element index"):
        load_table(_reframed(tmp_path, table, edit), table.slice)


def test_header_not_filled_to_cutoff_rejected(tmp_path, a2_table12):
    # the header is type, rank, affine, cutoff, then the signed 4-byte
    # filled length at offset 8; a file that claims any other length than
    # its cutoff, more or fewer rows, never loads
    sl = a2_table12.slice

    def filled_to(n):
        def edit(payload):
            payload[8:12] = n.to_bytes(4, "big", signed=True)
        return edit

    for n in (-1, 6, sl.cutoff + 1, 99):
        with pytest.raises(CacheFormatError, match=f"filled to length {n}, not its cutoff 12"):
            load_table(_reframed(tmp_path, a2_table12, filled_to(n)), sl)


def test_wide_pool_ids_roundtrip(tmp_path, a2_table12):
    # a pool padded past 2^8 and 2^16 entries stores its ids in 2 and 4 bytes
    path = tmp_path / "wide.klt"
    sl = a2_table12.slice
    for extra in (1 << 8, 1 << 16):
        wide = KLTable(sl)
        wide.rows = [a2_table12.rows_for(y) for y in range(len(sl))]
        wide.pool = a2_table12.pool + [(1, 1000 + i) for i in range(extra)]  # never in this table
        wide.filled = a2_table12.filled
        save_table(wide, path)
        loaded = load_table(path, sl)
        assert loaded.pool == wide.pool
        assert all(loaded.rows_for(y) == wide.rows[y] for y in range(len(sl)))
