"""The spherical table: P(x, y) for dominant x and y only, computed by the
full table's recursion restricted to dominant x, from the first right
descent s of y with ys dominant. Its rows are checked against the full
table's dominant entries as polynomials (pool ids follow their own order)
and, on the elements maximal in their W_f double cosets, against the
Kostka-Foulkes polynomials of Lusztig and Kato, every reader of
dominant pairs answers on it as on the full table, it never computes or
serves a non-dominant row and is never saved, and the CLI commands that read
dominant pairs only (``ext1``, ``chikl``, ``pim``, ``mu-sum``, ``extn``,
``extsum``, ``bounds --empirical``) run on it without touching a cache file
and print what they print on the complete table."""

import functools
import itertools
import json
import random

import pytest

from groupmul import slice_elements
from klext import cli, klpoly
from klext.characters import weyl_character
from klext.errors import InvalidSystemError, InvariantViolation
from klext.extbounds import bound_constants, extn_simple_simple, make_block_context, sum_ext_n
from klext.klpoly import KLTable, kl_polynomial, mu_row_sum, save_table, spherical_table
from klext.rootsys import build_root_system, classify_weight
from klext.weylaffine import GroupSlice, enumerate_slice, factorize_weight, slice_inversion


def tables(lab, rank, cutoff, affine=True):
    """The full table and the spherical table of one slice."""
    sl = enumerate_slice(build_root_system(lab, rank), cutoff, affine=affine)
    full = KLTable(sl)
    full.fill()
    return full, spherical_table(sl)


def dominant_polynomials(table, y):
    """Row y's dominant entries as x -> P(x, y), coefficient tuples."""
    return {x: kl_polynomial(table, x, y) for x in table.rows_for(y)
            if table.slice.dominant[x]}


@pytest.mark.parametrize("lab, rank, cutoff, affine", [
    ("A", 1, 20, True), ("A", 2, 12, True), ("A", 2, 24, True), ("B", 2, 16, True),
    ("B", 2, 24, True), ("G", 2, 14, True), ("G", 2, 24, True), ("A", 3, 12, True),
    ("B", 3, 9, True), ("C", 3, 10, True), ("D", 4, 10, True),  # D4@10: no dominant element
    ("B", 3, 9, False),  # finite: w0 alone is dominant
])
def test_spherical_rows_are_the_dominant_entries_of_the_full_table(lab, rank, cutoff, affine):
    full, sph = tables(lab, rank, cutoff, affine)
    sl = full.slice
    for y in sl.dominant_indices():
        assert dominant_polynomials(sph, y) == dominant_polynomials(full, y), y
        assert all(sl.dominant[x] for x in sph.rows_for(y)), y
    # no non-dominant row was computed, and the table is never complete
    assert all((row is not None) == sl.dominant[y] for y, row in enumerate(sph.rows))
    assert sph.filled == -1


@pytest.mark.parametrize("lab, rank, cutoff", [("A", 2, 12), ("B", 2, 12), ("G", 2, 14)])
def test_dominant_row_is_the_dominant_part_of_the_row(lab, rank, cutoff):
    # on the full table, row y filtered by dominance and kept; on the
    # spherical table, row y itself, which holds the dominant x only
    full, sph = tables(lab, rank, cutoff)
    sl = full.slice
    for y in sl.dominant_indices():
        want = {x: pid for x, pid in full.rows_for(y).items() if sl.dominant[x]}
        assert full.dominant_row(y) == want, y
        assert full.dominant_row(y) is full.dominant_row(y), y
        assert sph.dominant_row(y) is sph.rows_for(y), y


@pytest.mark.parametrize("lab, rank, cutoff, l", [("A", 2, 12, 5), ("B", 2, 12, 5),
                                                  ("G", 2, 14, 7)])
def test_extn_simple_simple_matches_the_coefficient_reference(lab, rank, cutoff, l):
    # dim Ext^n for every dominant pair and n = 0..3, on both tables, against
    # the sum over dominant z <= x, y and a + b = n of KLTable.coeff reads
    for table in tables(lab, rank, cutoff):
        sl = table.slice
        length, doms = sl.length, sl.dominant_indices()
        ctx = make_block_context(sl.rs, l, table)
        for x in doms:
            row_x = table.rows_for(x)
            for y in doms:
                row_y = table.rows_for(y)
                common = [z for z in row_x if z in row_y and sl.dominant[z]]
                for n in range(4):
                    want = sum(table.coeff(row_x[z], length[x] - length[z] - a)
                               * table.coeff(row_y[z], length[y] - length[z] - n + a)
                               for z in common for a in range(n + 1))
                    assert extn_simple_simple(ctx, x, y, n) == want, (x, y, n)


def test_non_dominant_row_is_refused_and_never_computed():
    sl = enumerate_slice(build_root_system("A", 2), 8)
    sph = spherical_table(sl)
    y = next(i for i in range(len(sl)) if not sl.dominant[i] and sl.length[i] == 6)
    with pytest.raises(InvalidSystemError, match=f"^row {y} is not dominant"):
        sph.rows_for(y)
    assert not any(sph.rows)  # the refusal computed no row, dominant or not
    x = sl.dominant_indices()[-1]
    assert sph.rows_for(x)
    for bad in (0, y):
        with pytest.raises(InvalidSystemError, match=f"^row {bad} is not dominant"):
            kl_polynomial(sph, 0, bad)
    assert sph.rows[0] is None and sph.rows[y] is None


def test_spherical_table_is_never_saved(tmp_path):
    sl = enumerate_slice(build_root_system("A", 2), 8)
    sph = spherical_table(sl)
    for _ in range(2):  # before and after its rows are computed
        with pytest.raises(InvariantViolation, match="spherical table .* never saved"):
            save_table(sph, tmp_path / "t.klt")
        mu_row_sum(sph, sl.dominant_indices()[0])
    assert not list(tmp_path.iterdir())


@pytest.mark.parametrize("corrupt", [
    lambda t: tuple(-v for v in t),  # the pool shape: constant term 1, no negative
    lambda t: t + (0,) * 9 + (1,) if t else t,  # the degree bound
])
def test_corrupted_entries_raise(monkeypatch, corrupt):
    combine = klpoly._combine
    monkeypatch.setattr(klpoly, "_combine", lambda *args: corrupt(combine(*args)))
    sl = enumerate_slice(build_root_system("A", 2), 10)
    with pytest.raises(InvariantViolation, match="KL axioms broken"):
        spherical_table(sl).rows_for(sl.dominant_indices()[-1])


def test_dominant_element_without_dominant_descent_raises():
    # the identity marked dominant becomes the shortest dominant element, so
    # w0 finds no dominant element one step below it
    sl = enumerate_slice(build_root_system("A", 2), 8)
    w0 = sl.dominant_indices()[0]
    bad = GroupSlice(sl.rs, sl.cutoff, sl.affine, sl.parts, sl.part, sl.mu, sl.length,
                     sl.right, [True] + sl.dominant[1:])
    with pytest.raises(InvariantViolation, match=f"dominant element {w0} has no dominant"):
        spherical_table(bad).rows_for(w0)


# -- the Lusztig-Kato oracle ----------------------------------------------------------


def q_kostant(rs):
    """v (root coordinates) -> sum_n p_n(v) q^n as a coefficient tuple, p_n(v)
    the number of ways to write v as a sum of n positive roots; memoised on
    (v, the first root still allowed)."""
    roots = rs.positive_roots

    @functools.cache
    def count(v, i):
        if min(v) < 0:
            return ()
        if not any(v):
            return (1,)
        if i == len(roots):
            return ()
        skip = count(v, i + 1)
        take = count(tuple(a - b for a, b in zip(v, roots[i])), i)
        out = list(skip) + [0] * (len(take) + 1 - len(skip))
        for e, c in enumerate(take, 1):
            out[e] += c
        return tuple(out)

    return lambda v: count(v, 0)


def kostka_foulkes(rs, weyl_group):
    """(lam, mu) -> K_{lam,mu}(q) as a coefficient list: the alternating sum
    over w in W_f of (-1)^l(w) times the q-Kostant function of w(lam + rho) -
    (mu + rho), lam and mu dominant weights of the root lattice."""
    kostant = q_kostant(rs)

    def k(lam, mu):
        out = []
        for w in weyl_group:
            image = [sum(a * (c + 1) for a, c in zip(row, lam)) for row in w.wmat]
            v = rs.wt_to_rt_int(tuple(a - c - 1 for a, c in zip(image, mu)))
            sign = -1 if w.length % 2 else 1
            terms = kostant(v)
            out.extend([0] * (len(terms) - len(out)))
            for e, c in enumerate(terms):
                out[e] += sign * c
        while out and out[-1] == 0:
            out.pop()
        return out

    return k


def double_coset_maxima(sl, weyl_group):
    """x -> lam_x for the elements x of ``sl`` maximal in their W_f double
    cosets (every finite generator a right descent of x and of x^-1), lam_x
    the dominant conjugate of x's translation; each such x is dominant and
    the weights are distinct."""
    rs = sl.rs
    inv = slice_inversion(sl)
    finite = range(rs.rank)
    maxima = [x for x in range(len(sl))
              if all(t in sl.right_descents(x) and t in sl.right_descents(inv[x])
                     for t in finite)]
    assert all(sl.dominant[x] for x in maxima)

    def dominant_conjugate(wt):
        return next(img for w in weyl_group
                    if min(img := tuple(sum(a * c for a, c in zip(row, wt))
                                        for row in w.wmat)) >= 0)

    lam = {x: dominant_conjugate(rs.rt_to_wt(sl.mu[x])) for x in maxima}
    assert len(set(lam.values())) == len(maxima)
    return lam


@pytest.mark.parametrize("lab, rank, cutoff, full", [
    ("A", 2, 24, True), ("B", 2, 24, True), ("G", 2, 36, True), ("A", 2, 48, False),
])
def test_double_coset_maxima_give_kostka_foulkes_polynomials(lab, rank, cutoff, full):
    """Lusztig (Asterisque 101-102, 1983) and Kato (Invent. Math. 66, 1982):
    for x and y maximal in their W_f double cosets, with lam_x the dominant
    conjugate of x's translation, P(x, y) = q^ht(lam_y - lam_x) K(q^-1) for
    the Kostka-Foulkes polynomial K = K_{lam_y, lam_x}, and 0 unless
    lam_x <= lam_y. It derives every P from root data alone, a second path
    next to the full table's rows."""
    rs = build_root_system(lab, rank)
    sl = enumerate_slice(rs, cutoff)
    weyl_group = slice_elements(enumerate_slice(rs, rs.num_positive, affine=False))
    lam = double_coset_maxima(sl, weyl_group)
    maxima = list(lam)
    assert len(maxima) >= 8
    k = kostka_foulkes(rs, weyl_group)
    expected = {}
    for x in maxima:
        for y in maxima:
            gap = rs.wt_to_rt_int(tuple(a - b for a, b in zip(lam[y], lam[x])))
            kf = k(lam[y], lam[x]) if min(gap) >= 0 else []
            # P[i] = K[ht - i]: K has degree ht at most, and no constant term
            # unless lam_x = lam_y
            p = [0] * (sum(gap) + 1 - len(kf)) + kf[::-1]
            while p and p[-1] == 0:
                p.pop()
            expected[x, y] = tuple(p)
    assert sum(map(bool, expected.values())) > len(maxima)  # pairs x < y too
    tables = [spherical_table(sl)]
    if full:
        tables.append(KLTable(sl))
        tables[-1].fill()
    for table in tables:
        got = {(x, y): kl_polynomial(table, x, y) for x in maxima for y in maxima}
        assert got == expected


@pytest.mark.parametrize("lab, rank, cutoff", [
    ("A", 2, 24), ("B", 2, 24), ("G", 2, 36), ("A", 3, 16),
])
def test_double_coset_maxima_at_q_1_give_weight_multiplicities(lab, rank, cutoff):
    """At q = 1 the Lusztig-Kato formula reads P(x, y)(1) = K_{lam_y, lam_x}(1)
    = dim V(lam_y)_{lam_x}: the KL table against Freudenthal's multiplicities
    (``weyl_character``), where the Kostka-Foulkes test above reaches the
    same values through Kostant's formula."""
    rs = build_root_system(lab, rank)
    sl = enumerate_slice(rs, cutoff)
    lam = double_coset_maxima(sl, slice_elements(enumerate_slice(rs, rs.num_positive,
                                                                 affine=False)))
    table = spherical_table(sl)
    nonzero = 0
    for x, lam_x in lam.items():
        for y, lam_y in lam.items():
            value = sum(kl_polynomial(table, x, y))
            assert value == weyl_character(rs, lam_y).multiplicity(lam_x), (x, y)
            nonzero += value != 0
    assert nonzero > len(lam)  # pairs x < y too


# -- the readers of dominant pairs -------------------------------------------------

# (type, rank, cutoff, l): l odd, above h and, on G2, prime to 3
READER_SLICES = [("A", 2, 12, 5), ("B", 2, 10, 5), ("G", 2, 14, 7), ("A", 3, 12, 5)]


@pytest.mark.parametrize("lab, rank, cutoff, l", READER_SLICES)
def test_readers_answer_on_the_spherical_table_as_on_the_full_one(lab, rank, cutoff, l):
    full, sph = tables(lab, rank, cutoff)
    rs, doms = full.slice.rs, full.slice.dominant_indices()
    ctx_full, ctx_sph = make_block_context(rs, l, full), make_block_context(rs, l, sph)
    assert ctx_sph.regular
    for x in doms:
        assert mu_row_sum(sph, x) == mu_row_sum(full, x), x
        for n in (1, 2):
            assert vars(sum_ext_n(ctx_sph, x, n)) == vars(sum_ext_n(ctx_full, x, n)), (x, n)
        for y in doms:
            for n in (0, 1, 2):
                assert (extn_simple_simple(ctx_sph, x, y, n)
                        == extn_simple_simple(ctx_full, x, y, n)), (x, y, n)
    for p in (2, 5):
        assert ([vars(r) for r in bound_constants(rs, p, ns=(1, 2), table=sph)]
                == [vars(r) for r in bound_constants(rs, p, ns=(1, 2), table=full)])


# -- the CLI -------------------------------------------------------------------------


def routed(x, y):
    """One run of each command on the spherical table, on affine A2@10."""
    base = ("A", "2", "--cutoff", "10")
    return [
        ["mu-sum", *base, "--x", str(x)],
        ["extn", *base, "--x", str(x), "--y", str(y), "--n", "1"],
        ["extsum", *base, "--x", str(x), "--n", "2"],
        ["bounds", "A", "2", "--p", "3", "--empirical", "--cutoff", "10"],
    ]


def run(argv, capsys):
    rc = cli.main(argv)
    out, err = capsys.readouterr()
    return rc, out, err


@pytest.fixture
def a2_10():
    return enumerate_slice(build_root_system("A", 2), 10)


@pytest.fixture
def no_cache_files(monkeypatch):
    """Fail any read or write of a cache file."""
    monkeypatch.delenv(cli.ENV_CACHE, raising=False)

    def refuse(*_):
        raise AssertionError("a cache file was opened")

    for name in ("read_frame", "write_frame"):
        monkeypatch.setattr(klpoly.binio, name, refuse)


def test_routed_commands_touch_no_cache_file(tmp_path, a2_10, capsys, no_cache_files):
    doms = a2_10.dominant_indices()
    cache = tmp_path / "new" / "cache"
    for argv in routed(doms[3], doms[5]):
        for fmt in ("text", "json", "csv"):
            free = run(["--format", fmt, *argv], capsys)
            cached = run(["--cache-dir", str(cache), "--format", fmt, *argv], capsys)
            assert free == cached and free[0] == 0 and free[2] == "", argv
    # the cache directory is created, as for every table command, and left empty
    assert cache.is_dir() and not list(cache.iterdir())


def test_one_extn_computes_only_the_dominant_rows_it_reads(monkeypatch, capsys,
                                                          no_cache_files):
    # a dominant row is computed on its first read, with the dominant rows
    # its computation reads: never a row longer than the longer index
    made = []

    def recording(sl):
        made.append(spherical_table(sl))
        return made[-1]

    monkeypatch.setattr(klpoly, "spherical_table", recording)
    sl = enumerate_slice(build_root_system("A", 2), 24)
    doms = sl.dominant_indices()
    x, y = doms[len(doms) // 4], doms[len(doms) // 2]
    argv = ["extn", "A", "2", "--cutoff", "24", "--x", str(x), "--y", str(y), "--n", "1"]
    rc, out, err = run(argv, capsys)
    assert rc == 0 and err == "" and len(made) == 1
    computed = [z for z, row in enumerate(made[0].rows) if row is not None]
    longest = max(sl.length[x], sl.length[y])
    assert x in computed and y in computed
    assert all(sl.dominant[z] and sl.length[z] <= longest for z in computed)
    assert any(sl.length[z] > longest for z in doms)


def test_routed_commands_ignore_a_corrupted_cache(tmp_path, a2_10, capsys, monkeypatch):
    monkeypatch.delenv(cli.ENV_CACHE, raising=False)
    doms = a2_10.dominant_indices()
    kl = ["kl", "A", "2", "--cutoff", "10", "--x", "0", "--y", "100"]
    assert run(["--cache-dir", str(tmp_path), *kl], capsys)[0] == 0
    for path in tmp_path.iterdir():  # the table file and its slice file
        blob = bytearray(path.read_bytes())
        blob[40] ^= 0xFF
        path.write_bytes(bytes(blob))
    assert run(["--cache-dir", str(tmp_path), *kl], capsys)[0] == 1
    for argv in routed(doms[2], doms[7]):
        free = run(argv, capsys)
        assert run(["--cache-dir", str(tmp_path), *argv], capsys) == free, argv
        assert free[0] == 0, argv


def test_routed_commands_refuse_a_cache_dir_that_is_a_file(tmp_path, a2_10, capsys,
                                                           no_cache_files):
    blocker = tmp_path / "file"
    blocker.write_text("not a directory")
    x = a2_10.dominant_indices()[0]
    for cache in (blocker, blocker / "sub"):
        for argv in routed(x, x):
            rc, out, err = run(["--cache-dir", str(cache), *argv], capsys)
            assert rc == 2 and out == "", argv
            assert err.startswith("error: ") and err.count("\n") == 1, argv


def test_routed_commands_keep_the_element_cap(tmp_path, a2_10, capsys, no_cache_files):
    x = a2_10.dominant_indices()[0]
    for argv in routed(x, x):
        for cache in ([], ["--cache-dir", str(tmp_path)]):
            rc, out, err = run([*cache, "--max-elements", "30", *argv], capsys)
            assert (rc, out) == (3, ""), argv
            assert err == (
                "resource cap: slice exceeded the configured cap of 30 elements at length 4\n")
    assert not list(tmp_path.iterdir())


def test_routed_commands_check_indices_before_any_row(a2_10, capsys, monkeypatch,
                                                      no_cache_files):
    def no_row(*_):
        raise AssertionError("a row was computed")

    monkeypatch.setattr(KLTable, "_compute_row", no_row)
    n = len(a2_10)
    x = a2_10.dominant_indices()[0]
    non_dominant = next(i for i in range(n) if not a2_10.dominant[i])
    for bad in (-1, n):
        message = f"error: element index {bad} out of range: the slice has indices 0..{n - 1}\n"
        for argv in routed(bad, x)[:3] + routed(x, bad)[1:2]:
            assert run(argv, capsys) == (2, "", message), argv
    message = f"error: element {non_dominant} is not dominant\n"
    for argv in routed(non_dominant, x)[:3] + routed(x, non_dominant)[1:2]:
        assert run(argv, capsys) == (2, "", message), argv


# (type, rank, cutoff, l): each slice has weights above its cutoff among the
# candidates of ``weight_commands``
WEIGHT_SLICES = [("A", 1, 4, 3), ("A", 2, 16, 5), ("B", 2, 16, 5), ("G", 2, 24, 7)]


def weight_commands(seed):
    """A seeded corpus of ``ext1``, ``chikl`` and ``pim`` runs on WEIGHT_SLICES:
    ext1 at regular weights linked to a shorter element at an odd length gap
    (where mu can be nonzero), at singular weights, and at a weight above the
    cutoff; chikl at regular, singular and above-cutoff weights; pim at
    restricted weights. Candidates have every coordinate below 5l."""
    rng = random.Random(seed)
    out = []
    for lab, rank, cutoff, l in WEIGHT_SLICES:
        rs = build_root_system(lab, rank)
        base = [lab, str(rank), "--cutoff", str(cutoff), "--l", str(l)]
        kinds, place = {}, {}  # (regular, inside the slice) -> weights; weight -> (lm, length)
        for wt in itertools.product(range(5 * l), repeat=rank):
            word, lm = factorize_weight(rs, wt, l)
            place[wt] = lm, len(word)
            key = classify_weight(rs, wt, l)["regular_l"], len(word) <= cutoff
            kinds.setdefault(key, []).append(wt)

        def text(wt):
            return ",".join(map(str, wt))

        def below(wt):
            lm, n = place[wt]
            return rng.choice([v for v in kinds[True, True] if place[v][0] == lm
                               and (n - place[v][1]) % 2 == 1] or [wt])

        for regular, inside, k in ((True, True, 5), (False, True, 3), (True, False, 1)):
            for lam in rng.sample(kinds[regular, inside], k):
                nu = below(lam) if regular else rng.choice(kinds[True, True])
                out.append(["ext1", *base, "--lam", text(lam), "--nu", text(nu)])
        for regular, inside, k in ((True, True, 3), (False, True, 1), (True, False, 1)):
            for wt in rng.sample(kinds[regular, inside], k):
                out.append(["chikl", *base, "--weight", text(wt)])
        for wt in rng.sample(list(itertools.product(range(l), repeat=rank)), 3):
            out.append(["pim", *base, "--lambda0", text(wt)])
    return out


def test_weight_commands_print_what_the_complete_table_prints(tmp_path, capsys, monkeypatch):
    # ext1, chikl and pim read dominant pairs only: on the spherical table
    # they print the bytes and exit codes they print on the complete table,
    # leave a primed cache directory as it was and an empty one empty
    monkeypatch.delenv(cli.ENV_CACHE, raising=False)
    corpus = weight_commands(1)
    primed, empty = tmp_path / "primed", tmp_path / "empty"
    for lab, rank, cutoff, _ in WEIGHT_SLICES:
        kl = ["kl", lab, str(rank), "--cutoff", str(cutoff), "--x", "0", "--y", "0"]
        assert run(["--cache-dir", str(primed), *kl], capsys)[0] == 0
    listing = {p.name: (p.stat().st_mtime_ns, p.stat().st_size) for p in primed.iterdir()}
    assert len(listing) == 2 * len(WEIGHT_SLICES)
    for name in ("read_frame", "write_frame"):
        monkeypatch.setattr(klpoly.binio, name, lambda *_: pytest.fail("a cache file was opened"))

    spherical = {}
    for argv in corpus:
        for fmt in ("text", "json", "csv"):
            spherical[fmt, *argv] = got = run(["--format", fmt, *argv], capsys)
            if fmt == "json":
                for cache in (primed, empty):
                    assert run(["--cache-dir", str(cache), "--format", fmt, *argv],
                               capsys) == got, (cache.name, argv)
    assert {p.name: (p.stat().st_mtime_ns, p.stat().st_size)
            for p in primed.iterdir()} == listing
    assert empty.is_dir() and not list(empty.iterdir())

    complete = {}

    def complete_table(sl):
        key = sl.rs.type_label, sl.rs.rank, sl.cutoff
        if key not in complete:
            complete[key] = KLTable(sl)
            complete[key].fill()
        return complete[key]

    monkeypatch.setattr(klpoly, "spherical_table", complete_table)
    for (fmt, *argv), got in spherical.items():
        assert run(["--format", fmt, *argv], capsys) == got, (fmt, argv)
    assert len(complete) == len(WEIGHT_SLICES)

    # the corpus reaches every outcome it was drawn for
    payloads = [(argv[0], json.loads(out) if rc == 0 else rc)
                for (fmt, *argv), (rc, out, _) in spherical.items() if fmt == "json"]
    assert {(cmd, 0 if type(p) is dict else p) for cmd, p in payloads} >= {
        ("ext1", 0), ("ext1", 1), ("chikl", 0), ("chikl", 1), ("chikl", 2), ("pim", 0)}
    assert any(cmd == "ext1" and type(p) is dict and p.get("value") for cmd, p in payloads)
    assert any(cmd == "ext1" and type(p) is dict and p.get("mu_sum") for cmd, p in payloads)
