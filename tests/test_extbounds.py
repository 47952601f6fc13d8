"""Ext dimension calculus, projective-cover lengths, effective constants."""

import warnings

import pytest

from conftest import _table, bruhat_leq
from klext.characters import chi_kl
from klext.errors import InvalidSystemError, SliceCoverageError
from klext.extbounds import (
    BoundReport,
    bound_constants,
    ext1_bound,
    ext1_deltared_costandard,
    ext1_simple_simple,
    ext1_weights,
    extn_simple_costandard,
    extn_simple_simple,
    fixed_prime_ext1_bound,
    make_block_context,
    mu_bound,
    pim_length,
    run_verification,
    singular_ext1_report,
    sum_ext_n,
)
from klext.klpoly import KLTable, mu, mu_row_sum, spherical_table
from klext.rootsys import build_root_system
from klext.weylaffine import enumerate_slice

warnings.filterwarnings("ignore", message="l=.*root-of-unity")


def ctx_for(table, l):
    return make_block_context(table.slice.rs, l, table)


# -- Ext between simples ---------------------------------------------------------


def test_ext1_examples(a1_table20):
    ctx = ctx_for(a1_table20, 3)
    doms = ctx.slice.dominant_indices()
    for x in doms[:6]:
        assert ext1_simple_simple(ctx, x, x) == 0
    # adjacent dominant pair in the chain
    assert ext1_simple_simple(ctx, doms[0], doms[1]) == 1
    for x in doms[:6]:
        for y in doms[:6]:
            assert ext1_simple_simple(ctx, x, y) == ext1_simple_simple(ctx, y, x)


def test_element_indices_validated(a1_table20):
    ctx = ctx_for(a1_table20, 3)
    n = len(ctx.slice)
    x = ctx.slice.dominant_indices()[0]
    for bad in (-1, n):
        for call in (
            lambda: ext1_simple_simple(ctx, x, bad),
            lambda: extn_simple_costandard(ctx, bad, x, 1),
            lambda: extn_simple_simple(ctx, x, bad, 1),
            lambda: sum_ext_n(ctx, bad, 1),
        ):
            with pytest.raises(InvalidSystemError, match=f"0..{n - 1}"):
                call()


def test_block_context_rejects_a_level_below_1(a1_table20):
    for l in (0, -2):
        with pytest.raises(InvalidSystemError, match="^l must be a positive integer$"):
            ctx_for(a1_table20, l)


@pytest.mark.parametrize("call", [
    lambda rs, table: make_block_context(rs, 5, table),
    lambda rs, table: bound_constants(rs, 3, table=table),
    lambda rs, table: bound_constants(rs, 3, table=spherical_table(table.slice)),
    lambda rs, table: run_verification(rs, 5, table),
], ids=["block_context", "bound_constants", "bound_constants_spherical", "run_verification"])
def test_table_of_another_system_is_rejected(call, g2_table14):
    with pytest.raises(InvalidSystemError, match="^the KL table is of G2, not of A2$"):
        call(build_root_system("A", 2), g2_table14)


def test_extn_costandard_base_cases(a2_table12):
    ctx = ctx_for(a2_table12, 5)
    sl = ctx.slice
    doms = sl.dominant_indices()
    for x in doms:
        assert extn_simple_costandard(ctx, x, x, 0) == 1
        for z in doms:
            if z != x and bruhat_leq(sl, z, x):
                assert extn_simple_costandard(ctx, x, z, 0) == 0
            # vanishing outside the degree/parity window
            gap = sl.length[x] - sl.length[z]
            for n in range(max(gap, 0) + 1, max(gap, 0) + 3):
                assert extn_simple_costandard(ctx, x, z, n) == 0
            if 0 <= gap:
                for n in range(0, gap + 1):
                    if (gap - n) % 2:
                        assert extn_simple_costandard(ctx, x, z, n) == 0
            assert extn_simple_costandard(ctx, x, z, 1) == (
                mu(ctx.table, z, x) if bruhat_leq(sl, z, x) else 0
            )


def test_extn_simple_simple_consistency(a1_table20, a2_table12):
    for table, l in ((a1_table20, 3), (a2_table12, 5)):
        ctx = ctx_for(table, l)
        doms = [i for i in ctx.slice.dominant_indices()]
        for x in doms:
            for y in doms:
                assert extn_simple_simple(ctx, x, y, 0) == (1 if x == y else 0)
                v1 = extn_simple_simple(ctx, x, y, 1)
                assert v1 == ext1_simple_simple(ctx, x, y)
                assert extn_simple_simple(ctx, x, y, 2) == extn_simple_simple(
                    ctx, y, x, 2
                )


# -- weight-level routing -----------------------------------------------------------


def test_deltared_costandard_routing(a1_table20):
    ctx = ctx_for(a1_table20, 3)
    # unlinked weights vanish structurally
    assert ext1_deltared_costandard(ctx, (0,), (1,)) == 0
    # linked adjacent pair: mu = 1 (y <= w)
    assert ext1_deltared_costandard(ctx, (4,), (0,)) == 1
    # reversed order: y > w vanishes for Delta-red against nabla
    assert ext1_deltared_costandard(ctx, (0,), (4,)) == 0
    # but the simple-simple value is symmetric and equals mu
    assert ext1_weights(ctx, (0,), (4,)) == 1
    with pytest.raises(InvalidSystemError):
        ext1_deltared_costandard(ctx, (2,), (0,))  # singular input rejected


def test_element_above_cutoff():
    # (40) at l = 3 has an element of length 14, over the cutoff 4
    rs = build_root_system("A", 1)
    table = KLTable(enumerate_slice(rs, 4))
    table.fill()
    ctx = ctx_for(table, 3)
    message = "element of length 14 outside slice; enlarge cutoff to at least 14"
    for call in (lambda: ext1_deltared_costandard(ctx, (40,), (0,)),
                 lambda: ext1_weights(ctx, (40,), (0,)),
                 lambda: chi_kl(rs, (40,), 3, table)):
        with pytest.raises(SliceCoverageError, match=message):
            call()
    # unlinked: 0 before any slice lookup
    assert ext1_deltared_costandard(ctx, (40,), (1,)) == 0
    assert ext1_weights(ctx, (40,), (1,)) == 0


def test_singular_report(a1_table20):
    ctx = ctx_for(a1_table20, 3)
    rep = singular_ext1_report(ctx, (2,), (0,))
    assert rep.stabilizer_order == 2
    assert rep.kept_parities == 1
    assert rep.mu_sum <= rep.bound == (2 // 2) * mu_bound(ctx.rs)
    with pytest.raises(InvalidSystemError):
        singular_ext1_report(ctx, (0,), (4,))  # regular input rejected


# -- projective covers -----------------------------------------------------------------


def test_pim_uniform_across_levels(a1_table20):
    a1 = build_root_system("A", 1)
    lengths = {}
    for l in (3, 5, 7):
        ctx = ctx_for(a1_table20, l)
        for lam0 in range(l - 1):
            rep = pim_length(ctx, (lam0,))
            assert rep.highest_weight == (2 * (l - 1) - lam0,)
            assert rep.highest_weight_check
            lengths.setdefault(l, set()).add(rep.total_length)
    assert lengths[3] == lengths[5] == lengths[7] == {3}


def test_pim_steinberg_singleton(a1_table20):
    for l in (3, 5, 7):
        ctx = ctx_for(a1_table20, l)
        rep = pim_length(ctx, (l - 1,))
        assert rep.total_length == 1
        assert rep.delta_multiplicities == {(l - 1,): 1}


def test_pim_errors(a1_table20):
    ctx = ctx_for(a1_table20, 3)
    with pytest.raises(InvalidSystemError):
        pim_length(ctx, (5,))  # not restricted at l=3
    with pytest.raises(InvalidSystemError, match="not dominant"):
        pim_length(ctx, (-2,))
    with pytest.raises(SliceCoverageError):
        pim_length(ctx, (1,), bound=(1,))  # ideal misses the highest weight


def test_pim_a2(a2_table12):
    ctx = ctx_for(a2_table12, 5)
    rep = pim_length(ctx, (1, 1))
    assert rep.highest_weight == (2 * 4 - 1, 2 * 4 - 1)
    assert rep.highest_weight_check
    assert rep.total_length >= 1
    # w0 swaps the fundamental weights of A2: 2(l-1)rho + w0(0, 1) = (7, 8)
    rep = pim_length(ctx, (0, 1))
    assert rep.highest_weight == (7, 8) and rep.highest_weight_check
    with pytest.raises(InvalidSystemError, match="not dominant"):
        pim_length(ctx, (2, -1))


# -- sums --------------------------------------------------------------------------------


def test_sum_ext_n(a1_table20):
    ctx = ctx_for(a1_table20, 3)
    doms = ctx.slice.dominant_indices()
    for x in doms[:8]:
        rep0 = sum_ext_n(ctx, x, 0)
        assert rep0.value == 1 and rep0.saturated
        rep1 = sum_ext_n(ctx, x, 1)
        total, sat = mu_row_sum(ctx.table, x)
        assert rep1.value == total and rep1.saturated == sat


def test_ext_degree_far_above_the_slice_or_negative(a1_table20):
    # degree 10**12 exceeds every length sum in the slice: 0 without a loop up to n
    ctx = ctx_for(a1_table20, 3)
    doms = ctx.slice.dominant_indices()
    x = doms[3]
    assert [extn_simple_simple(ctx, x, y, 10**12) for y in doms] == [0] * len(doms)
    assert sum_ext_n(ctx, x, 10**12).value == 0
    for call in (lambda: extn_simple_simple(ctx, x, x, -1), lambda: sum_ext_n(ctx, x, -1)):
        with pytest.raises(InvalidSystemError, match="n must be nonnegative"):
            call()


def test_sum_ext2_stable_under_window_growth():
    a1 = build_root_system("A", 1)
    values = {}
    for cutoff in (12, 20):
        table = KLTable(enumerate_slice(a1, cutoff))
        table.fill()
        ctx = ctx_for(table, 3)
        doms = [i for i in ctx.slice.dominant_indices() if ctx.slice.length[i] <= 6]
        values[cutoff] = [sum_ext_n(ctx, x, 2).value for x in doms]
    assert values[12] == values[20]


# -- effective constants -----------------------------------------------------------------


def test_constant_formulas():
    a1 = build_root_system("A", 1)
    assert mu_bound(a1) == 4
    assert ext1_bound(a1) == 4
    assert fixed_prime_ext1_bound(a1, 2) == 4
    a2 = build_root_system("A", 2)
    # h=3, |Phi|=6, P(4 rho) = P(4a1+4a2) = 5
    assert mu_bound(a2) == 3**6 * 5


def test_bound_reports(a1_table20, a2_table12, b2_table10):
    for table, p in ((a1_table20, 2), (a2_table12, 3), (b2_table10, 3)):
        rs = table.slice.rs
        reports = bound_constants(rs, p, ns=(1, 2), table=table)
        by_name = {}
        for r in reports:
            by_name.setdefault(r.constant_name, []).append(r)
        assert by_name["mu_bound"][0].formula_value == mu_bound(rs)
        emp = by_name["mu_bound"][0].empirical_value
        assert emp is not None and emp <= mu_bound(rs)
        assert len(by_name["frobenius_shift"]) == 2
        # the one-pass row-sum maximum against mu_row_sum of each dominant x:
        # the first x with the largest sum gives the flag, (0, False) if none
        best = (0, False)
        for x in table.slice.dominant_indices():
            got = mu_row_sum(table, x)
            if got[0] > best[0]:
                best = got
        (row_sum,) = by_name["mu_row_sum_max"]
        assert (row_sum.empirical_value, row_sum.saturated) == best
        for r in reports:
            r.check()


def test_bound_report_violation_detected():
    rep = BoundReport("mu_bound", 3, 4, False, "synthetic")
    from klext.errors import InvariantViolation

    with pytest.raises(InvariantViolation):
        rep.check()


def test_empirical_values_monotone_in_cutoff():
    """Empirical report values never decrease as the slice grows.

    The report list order is deterministic, so matched rows can be zipped.
    """
    a2 = build_root_system("A", 2)

    def reports(cutoff):
        table = KLTable(enumerate_slice(a2, cutoff))
        table.fill()
        return bound_constants(a2, 5, ns=(1,), table=table)

    for small, large in zip(reports(8), reports(12)):
        assert small.constant_name == large.constant_name
        if small.empirical_value is not None:
            assert small.empirical_value <= large.empirical_value


# -- verification battery ------------------------------------------------------------------


def test_run_verification_passes(a2_table12):
    results = run_verification(build_root_system("A", 2), 5, table=a2_table12)
    assert results and all(ok for _, ok, _ in results)


@pytest.mark.parametrize("lab, rank, cutoff, l", [("B", 2, 10, 5), ("G", 2, 14, 7),
                                                  ("A", 3, 8, 5)])
def test_run_verification_passes_beyond_a2(lab, rank, cutoff, l):
    # every check, the Ext checks of the regular block included, on the
    # other rank-2 types and on rank 3
    results = run_verification(build_root_system(lab, rank), l, table=_table(lab, rank, cutoff))
    assert [name for name, ok, _ in results if not ok] == []
    assert {"ext_n0_kronecker", "ext_n1_equals_mu", "coefficient_sum_dual_path"} <= {
        name for name, _, _ in results}


def test_run_verification_names_witness(monkeypatch):
    # each check that fails names its first failing pair; passing checks
    # keep the detail they always had
    import random

    from klext import extbounds

    rs = build_root_system("A", 2)
    table = KLTable(enumerate_slice(rs, 8))
    table.fill()
    sl = table.slice
    named = ("mu_parity", "descent_independence", "ext_n0_kronecker",
             "ext_n1_equals_mu", "coefficient_sum_dual_path")
    clean = {name: (ok, detail) for name, ok, detail in run_verification(rs, 5, table=table)}
    assert all(ok for ok, _ in clean.values())
    assert all(clean[name] == (True, "") for name in named)

    y_even = sl.shell(2)[0]
    mu_row = table.mu_row
    monkeypatch.setattr(table, "mu_row",
                        lambda y: mu_row(y) + (((0, 1),) if y == y_even else ()))
    monkeypatch.setattr(extbounds, "kl_recomputation",
                        lambda table, rng: lambda x, y: (7,))
    doms = sl.dominant_indices()
    bad_xy, bad_ym = (doms[1], doms[0]), (doms[2], 1)
    extn = extbounds.extn_simple_simple
    monkeypatch.setattr(extbounds, "extn_simple_simple",
                        lambda ctx, x, y, n: extn(ctx, x, y, n) + ((x, y) == bad_xy))
    ksum = extbounds.kl_coefficient_sum
    monkeypatch.setattr(extbounds, "kl_coefficient_sum",
                        lambda table, y, m: ksum(table, y, m) + ((y, m) == bad_ym))

    rng = random.Random(12345)
    first_pair = (rng.randrange(len(sl)), rng.randrange(len(sl)))
    got = {name: (ok, detail) for name, ok, detail in run_verification(rs, 5, table=table)}
    assert got["mu_parity"] == (False, f"nonzero mu(x,y) for an even length gap at {(0, y_even)}")
    assert got["descent_independence"] == (False, f"recomputed P(x,y) differs at {first_pair}")
    assert got["ext_n0_kronecker"] == (False, f"Ext^0(x,y) is not the Kronecker delta at {bad_xy}")
    assert got["ext_n1_equals_mu"] == (False, f"Ext^1(x,y) differs from mu(y,x) at {bad_xy}")
    assert got["coefficient_sum_dual_path"] == (
        False, f"KL and Ext coefficient sums differ for (y,m) at {bad_ym}")
    assert got["kl_axioms"] == (True, "")


def test_run_verification_recomputes_without_the_tables_pool():
    # the recomputation interns its own polynomials, so one altered pool
    # coefficient makes the stored polynomials differ from it
    rs = build_root_system("A", 2)
    table = KLTable(enumerate_slice(rs, 8))
    table.fill()
    table.pool[table.pool.index((1,))] = (2,)
    got = {name: ok for name, ok, _ in run_verification(rs, 5, table=table)}
    assert got["descent_independence"] is False


def test_run_verification_names_support_witness():
    # kl_axioms derives each row's support from the row below it, so a
    # dropped and an added entry are both named by their own pair
    rs = build_root_system("A", 2)
    sl = enumerate_slice(rs, 8)

    def kl_axioms(edit):
        table = KLTable(sl)
        table.fill()
        edit(table.rows[y])
        return next(r for r in run_verification(rs, 5, table=table) if r[0] == "kl_axioms")

    y = sl.shell(5)[0]
    clean = KLTable(sl)
    clean.fill()
    row = clean.rows_for(y)
    below = next(x for x in sorted(row) if 0 < sl.length[x] < 5)
    outside = next(x for x in range(len(sl)) if sl.length[x] < 5 and x not in row)

    assert kl_axioms(lambda row: None) == ("kl_axioms", True, "")
    assert kl_axioms(lambda row: row.pop(below)) == (
        "kl_axioms", False, f"support/Bruhat mismatch at ({below},{y})")
    # the added entry is P = 1, which no coefficient or degree check rejects
    assert kl_axioms(lambda row: row.update({outside: row[y]})) == (
        "kl_axioms", False, f"support/Bruhat mismatch at ({outside},{y})")
