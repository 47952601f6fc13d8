"""Acceptance suite: one test per criterion, each printing a PASS line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
report. Every check is exact (zero tolerance); the two timed criteria
assert their wall-clock budgets.
"""

import hashlib
import random
import subprocess
import sys
import time
import warnings

from itertools import product as iproduct

from conftest import bruhat_leq
from klext.characters import (
    decomposition_matrix,
    dominant_weights_below,
    tensor_decompose,
    weyl_character,
    weyl_dimension,
)
from klext.extbounds import (
    ext1_bound,
    ext1_simple_simple,
    extn_simple_costandard,
    extn_simple_simple,
    fixed_prime_ext1_bound,
    make_block_context,
    mu_bound,
    pim_length,
)
from klext.klpoly import (
    KLTable,
    kl_coefficient_sum,
    kl_polynomial,
    kl_recomputation,
    max_mu_dominant,
    mu,
)
from klext.rootsys import build_root_system, generic_shift
from klext.weylaffine import enumerate_slice
from test_characters import alternating_sum_check, kostant_multiplicity, resubstitution_check

warnings.filterwarnings("ignore", message="l=.*root-of-unity")


def report(num, name, started):
    print(f"[criterion {num:02d}] {name}: PASS ({time.time() - started:.1f}s)")


# -- 1: KL axioms ----------------------------------------------------------------


def test_criterion_01_kl_axioms(a1_table20, a2_table12, a3_finite_table,
                                b2_finite_table):
    t0 = time.time()
    tables = (a2_table12, a1_table20, a3_finite_table, b2_finite_table)
    for table in tables:
        sl = table.slice
        for y in range(len(sl)):
            row = {x: table.pool[pid] for x, pid in table.rows_for(y).items()}
            assert row[y] == (1,), "P(y,y) must be 1"
            ly = sl.length[y]
            for x in range(len(sl)):
                pol = row.get(x)
                if sl.length[x] <= ly:
                    assert (pol is not None) == bruhat_leq(sl, x, y)
                if pol is None:
                    continue
                assert pol[0] == 1
                assert min(pol) >= 0 and pol[-1] > 0
                if x != y:
                    assert 2 * (len(pol) - 1) <= ly - sl.length[x] - 1
    # descent-choice independence: 500 randomized recomputations
    rng = random.Random(2024)
    for _ in range(500):
        table = rng.choice(tables)
        sl = table.slice
        x, y = rng.randrange(len(sl)), rng.randrange(len(sl))
        assert kl_recomputation(table, rng)(x, y) == kl_polynomial(table, x, y)
    elapsed = time.time() - t0
    assert elapsed < 180, f"criterion 1 exceeded its runtime budget: {elapsed:.1f}s"
    report(1, "KL axioms (affine A2@12, A1@20; finite A3, B2)", t0)


# -- 2: affine A1 closed form --------------------------------------------------------


def test_criterion_02_affine_a1_closed_form(a1_table20):
    t0 = time.time()
    sl = a1_table20.slice
    for y in range(len(sl)):
        for x in range(len(sl)):
            if bruhat_leq(sl, x, y):
                assert kl_polynomial(a1_table20, x, y) == (1,)
            comparable = bruhat_leq(sl, x, y) or bruhat_leq(sl, y, x)
            expect = 1 if comparable and abs(sl.length[x] - sl.length[y]) == 1 else 0
            assert mu(a1_table20, x, y) == expect
    report(2, "affine A1 closed form (P = 1, mu = adjacency)", t0)


# -- 3: parity vanishing ---------------------------------------------------------------


def test_criterion_03_parity_vanishing(a1_table20, a2_table12, a3_finite_table,
                                       b2_finite_table):
    t0 = time.time()
    for table in (a1_table20, a2_table12, a3_finite_table, b2_finite_table):
        sl = table.slice
        for y in range(len(sl)):
            for x in range(len(sl)):
                if (sl.length[x] - sl.length[y]) % 2 == 0:
                    assert mu(table, x, y) == 0
    report(3, "mu parity vanishing (exhaustive over computed pairs)", t0)


# -- 4: ext1 = mu, ext0 = delta ----------------------------------------------------------


def test_criterion_04_ext_consistency(a1_table20, a2_table12):
    t0 = time.time()
    for table, l in ((a1_table20, 3), (a2_table12, 5)):
        ctx = make_block_context(table.slice.rs, l, table)
        doms = ctx.slice.dominant_indices()
        for x in doms:
            for y in doms:
                assert extn_simple_simple(ctx, x, y, 1) == ext1_simple_simple(ctx, x, y)
                assert extn_simple_simple(ctx, x, y, 0) == (1 if x == y else 0)
    report(4, "Ext^1 = mu and Ext^0 = delta on regular blocks", t0)


# -- 5: coefficient-sum dual path ----------------------------------------------------------


def test_criterion_05_coefficient_sum_dual_path(a2_table12):
    t0 = time.time()
    ctx = make_block_context(build_root_system("A", 2), 5, a2_table12)
    sl = ctx.slice
    doms = sl.dominant_indices()
    for y in doms:
        for m in (0, 1, 2):
            lhs = kl_coefficient_sum(a2_table12, y, m)
            rhs = sum(extn_simple_costandard(ctx, y, x, m) for x in doms)
            assert lhs == rhs, (y, m, lhs, rhs)
    report(5, "coefficient sums agree along both computation paths", t0)


# -- 6: decomposition inversion --------------------------------------------------------------


def test_criterion_06_decomposition_inversion(a1_table20, a2_table12, b2_table10):
    t0 = time.time()
    a1 = build_root_system("A", 1)
    a2 = build_root_system("A", 2)
    b2 = build_root_system("B", 2)
    blocks = [
        decomposition_matrix(a1, (0,), 3, bound=(10,), table=a1_table20),
        decomposition_matrix(a1, (1,), 5, bound=(13,), table=a1_table20),
        decomposition_matrix(a2, (0, 0), 5, bound=(8, 8), table=a2_table12),
        decomposition_matrix(b2, (0, 0), 5, bound=(4, 4), table=b2_table10),
    ]
    for dm in blocks:
        n = len(dm.weights)
        for i in range(n):
            for j in range(n):
                s = sum(dm.a_matrix[i][k] * dm.d_matrix[k][j] for k in range(n))
                assert s == int(i == j), "A*D must be the identity exactly"
                assert dm.d_matrix[i][j] >= 0
        assert resubstitution_check(dm), "chi(nu) must re-expand through simples"
    report(6, "block inversion: A*D = I, D >= 0, re-substitution", t0)


# -- 7: projective-cover lengths ----------------------------------------------------------------


def test_criterion_07_pim_lengths(a1_table20):
    t0 = time.time()
    per_level = {}
    for l in (3, 5, 7):
        ctx = make_block_context(build_root_system("A", 1), l, a1_table20)
        lengths = []
        for lam0 in range(l - 1):  # all regular restricted weights
            rep = pim_length(ctx, (lam0,))
            assert rep.highest_weight == (2 * (l - 1) - lam0,)
            assert rep.highest_weight_check
            lengths.append(rep.total_length)
        per_level[l] = sorted(set(lengths))
    assert per_level[3] == per_level[5] == per_level[7]
    elapsed = time.time() - t0
    assert elapsed < 60, f"criterion 7 exceeded its runtime budget: {elapsed:.1f}s"
    report(7, "projective covers: highest weight exact, lengths level-independent", t0)


# -- 8: effective constants -----------------------------------------------------------------------


def _oracle_roots(cartan):
    """Reflection-orbit root generation, independent of the package path."""
    rank = len(cartan)
    simple = [tuple(int(i == j) for j in range(rank)) for i in range(rank)]
    seen = set(simple)
    stack = list(simple)
    while stack:
        rt = stack.pop()
        for i in range(rank):
            pair = sum(rt[j] * cartan[j][i] for j in range(rank))
            img = list(rt)
            img[i] -= pair
            img = tuple(img)
            if img not in seen:
                seen.add(img)
                stack.append(img)
    return seen


def _oracle_partition(pos_roots, target):
    def count(i, rest):
        if all(c == 0 for c in rest):
            return 1
        if i == len(pos_roots):
            return 0
        total = 0
        cur = rest
        while all(c >= 0 for c in cur):
            total += count(i + 1, cur)
            cur = tuple(a - b for a, b in zip(cur, pos_roots[i]))
        return total

    return count(0, tuple(target))


def test_criterion_08_effective_constants(a1_table20, a2_table12, b2_table10):
    t0 = time.time()
    a1 = build_root_system("A", 1)
    a2 = build_root_system("A", 2)

    # hand evaluation for rank 1: the root system is {+-alpha}
    roots = _oracle_roots(((2,),))
    assert len(roots) == 2
    pos = [r for r in roots if r[0] > 0]
    h_oracle = 1 + 1  # (rho, alpha^vee) = 1 for the single simple root
    p_2rho = _oracle_partition(pos, (1,))  # (2h-2) rho = 2 rho = alpha
    e_oracle = h_oracle ** len(roots) * p_2rho
    assert e_oracle == 4 == mu_bound(a1)
    w_order = 2  # closure of the single reflection
    assert w_order * e_oracle // 2 == 4 == ext1_bound(a1)
    # fixed prime p=2: p^|Phi| * P(2(p-1) rho) = 4 * P(alpha) = 4
    assert 2 ** len(roots) * _oracle_partition(pos, (1,)) == 4
    assert fixed_prime_ext1_bound(a1, 2) == 4

    # shift constants by direct formula evaluation
    assert generic_shift(a1, 2, 1) == (1 * 2 * 1 - 1) // (2 - 1) + 1 == 2
    assert generic_shift(a2, 3, 2) == (1 * 3 * 2 - 1) // (3 - 1) + 1 == 3

    # empirical mu never exceeds the ceiling on any tested slice
    for table in (a1_table20, a2_table12, b2_table10):
        rs = table.slice.rs
        assert max_mu_dominant(table) <= mu_bound(rs)
    report(8, "effective constants match independent hand evaluation", t0)


# -- 9: tensor product bounds ------------------------------------------------------------------------


def test_criterion_09_tensor_bounds():
    t0 = time.time()
    a1 = build_root_system("A", 1)
    assert tensor_decompose(a1, (1,), (1,)) == {(0,): 1, (2,): 1}
    for lab, rank in (("A", 2), ("B", 2)):
        rs = build_root_system(lab, rank)
        # the coordinate box 0..14 covers every weight of dimension <= 100:
        # dimensions grow monotonically in each coordinate
        assert weyl_dimension(rs, (15, 0)) > 100 and weyl_dimension(rs, (0, 15)) > 100
        smalls = [
            wt
            for wt in iproduct(range(15), repeat=2)
            if weyl_dimension(rs, wt) <= 100
        ]
        for i, lam in enumerate(smalls):
            dim_lam = weyl_dimension(rs, lam)
            for nu in smalls[i:]:
                dim_nu = weyl_dimension(rs, nu)
                comps = tensor_decompose(rs, lam, nu)
                assert sum(comps.values()) <= min(dim_lam, dim_nu)
                for tau, m in comps.items():
                    assert m <= weyl_dimension(rs, tau)
    elapsed = time.time() - t0
    assert elapsed < 60, f"criterion 9 exceeded its runtime budget: {elapsed:.1f}s"
    report(9, "tensor multiplicity and length bounds (exhaustive, dims <= 100)", t0)


# -- 10: character dual path --------------------------------------------------------------------------


def test_criterion_10_character_dual_path():
    t0 = time.time()
    rng = random.Random(77)
    cases = []
    a1 = build_root_system("A", 1)
    cases.append((a1, [(n,) for n in range(1000)]))
    for lab in ("A", "B"):
        rs = build_root_system(lab, 2)
        assert weyl_dimension(rs, (45, 0)) > 1000 and weyl_dimension(rs, (0, 45)) > 1000
        lams = [
            wt for wt in iproduct(range(45), repeat=2)
            if weyl_dimension(rs, wt) <= 1000
        ]
        cases.append((rs, lams))
    for rs, lams in cases:
        for lam in lams:
            char = weyl_character(rs, lam)
            assert char.dimension() == weyl_dimension(rs, lam)
            assert alternating_sum_check(rs, lam), (rs, lam)
        # per-weight alternating (Kostant) multiplicities on a seeded sample
        for lam in rng.sample(lams, min(12, len(lams))):
            char = weyl_character(rs, lam)
            for mu_wt in dominant_weights_below(rs, lam):
                assert char.dom.get(mu_wt, 0) == kostant_multiplicity(rs, lam, mu_wt)
    report(10, "Freudenthal equals the alternating-sum character", t0)


# -- 11: determinism and cache integrity ----------------------------------------------------------------


def _run_cli(*args, cache=None):
    cmd = [sys.executable, "-m", "klext.cli"]
    if cache is not None:
        cmd += ["--cache-dir", str(cache)]
    cmd += list(args)
    return subprocess.run(cmd, capture_output=True, text=True)


def test_criterion_11_determinism_and_cache(tmp_path):
    t0 = time.time()
    args = ("--format", "json", "kl", "A", "2", "--cutoff", "8", "--all")
    cold = _run_cli(*args, cache=tmp_path)
    warm = _run_cli(*args, cache=tmp_path)
    free = _run_cli(*args)
    assert cold.returncode == warm.returncode == free.returncode == 0
    assert cold.stdout == warm.stdout == free.stdout
    digest = hashlib.sha256(cold.stdout.encode()).hexdigest()
    assert digest == hashlib.sha256(warm.stdout.encode()).hexdigest()
    # corrupt the cache: the run must fail loudly, never silently recompute
    table_file = next(tmp_path.glob("kl_*.klt"))
    blob = bytearray(table_file.read_bytes())
    blob[len(blob) // 3] ^= 0xFF
    table_file.write_bytes(bytes(blob))
    bad = _run_cli(*args, cache=tmp_path)
    assert bad.returncode == 1
    assert "corrupt" in bad.stderr or "checksum" in bad.stderr
    report(11, "cold/warm byte-identical output; corrupted cache detected", t0)


# -- 12: performance envelope -------------------------------------------------------------------------


def test_criterion_12_performance_envelope(tmp_path):
    t0 = time.time()
    rs = build_root_system("A", 2)
    sl = enumerate_slice(rs, 12)
    start = time.time()
    seq = KLTable(sl)
    seq.fill()
    fill_time = time.time() - start
    assert fill_time < 60, f"single-worker fill took {fill_time:.1f}s"
    # --workers is accepted and leaves every byte of output unchanged
    args = ("--format", "json", "kl", "A", "2", "--cutoff", "8", "--all")
    one = _run_cli("--workers", "1", *args, cache=tmp_path / "one")
    four = _run_cli("--workers", "4", *args, cache=tmp_path / "four")
    assert one.returncode == four.returncode == 0
    assert one.stdout == four.stdout
    report(12, f"affine A2 table@12 fill {fill_time:.2f}s; --workers output identical", t0)
