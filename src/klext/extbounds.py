"""Dimension bookkeeping for Ext groups between simple / (co)standard modules
of a quantum enveloping algebra at an l-th root of unity, at the level of
Kazhdan-Lusztig combinatorics, plus the effective constants bounding them.

Inside one regular linkage block, indexed by dominant group elements:

* ext1 between simples is the mu-function;
* ext^n from a simple to a costandard is a single KL coefficient,
  dim Ext^n(L(x.l-), nabla(z.l-)) = coeff of t^(len(x)-len(z)-n) in P_{z,x};
* ext^n between simples is the convolution of the two costandard tables.

Everything routed through weights enforces block vanishing structurally:
weights factorize through the fundamental alcove and unequal alcove points
short-circuit to zero.

Sums over the infinite dominant set carry explicit saturation flags backed
by the mu support window (see klpoly.mu_support_window); a sum is reported
exact only when the window proves no term was truncated away.
"""

from __future__ import annotations

import warnings

from .characters import decomposition_matrix, dominant_representative, linkage_block
from .errors import InvalidSystemError, InvariantViolation, LevelWarning, SliceCoverageError
from .klpoly import (
    KLTable,
    kl_coefficient_sum,
    kl_polynomial,
    kl_recomputation,
    max_mu_dominant,
    max_top_coefficient,
    mu,
    mu_support_window,
)
from .rootsys import (
    RootSystemData,
    Weight,
    classify_weight,
    dominance_leq,
    generic_shift,
    is_dominant,
    kostant_partition,
)
from .weylaffine import GroupSlice, facet_generators, factorize_weight, is_interior_fundamental


class BlockContext:
    """One linkage block: level, alcove point, slice, and its KL table."""

    def __init__(self, rs: RootSystemData, l: int, slice: GroupSlice, table: KLTable,
                 regular: bool):
        self.rs = rs
        self.l = l
        self.slice = slice
        self.table = table
        self.regular = regular

    def require_regular(self):
        if not self.regular:
            raise InvalidSystemError(
                "operation requires a regular block (lam_minus interior); "
                "singular data goes through singular_ext1_report"
            )

    def require_dominant(self, *indices):
        self.slice.check_index(*indices)
        for i in indices:
            if not self.slice.dominant[i]:
                raise InvalidSystemError(f"element {i} is not dominant")


def _check_table_system(rs: RootSystemData, table: KLTable) -> None:
    """InvalidSystemError unless ``table`` is a table of a slice of ``rs``."""
    other = table.slice.rs
    if other != rs:
        raise InvalidSystemError(
            f"the KL table is of {other.type_label}{other.rank}, "
            f"not of {rs.type_label}{rs.rank}"
        )


def make_block_context(rs: RootSystemData, l: int, table: KLTable) -> BlockContext:
    """The block seeded at -2rho, interior of the fundamental alcove exactly
    when l >= h. The table must be of ``rs`` (InvalidSystemError)."""
    _check_table_system(rs, table)
    if l < 1:
        raise InvalidSystemError("l must be a positive integer")
    regular = is_interior_fundamental(rs, (-2,) * rs.rank, l)
    # quantum-parameter hygiene: the combinatorics is defined regardless,
    # so these are warnings rather than hard errors
    if l % 2 == 0 or (rs.type_label == "G" and l % 3 == 0):
        warnings.warn(
            f"l={l} violates the usual root-of-unity restrictions "
            "(odd, prime to 3 for G2); combinatorial results only",
            LevelWarning,
            stacklevel=2,
        )
    if l <= rs.coxeter_number:
        warnings.warn(
            f"l={l} is not above the Coxeter number {rs.coxeter_number}; "
            "character-level readings assume l > h",
            LevelWarning,
            stacklevel=2,
        )
    return BlockContext(rs, l, table.slice, table, regular)


# -- Ext dimensions inside a regular block -----------------------------------


def ext1_simple_simple(ctx: BlockContext, x: int, y: int) -> int:
    """dim Ext^1 between the simples indexed by dominant x, y: mu(y, x)."""
    ctx.require_regular()
    ctx.require_dominant(x, y)
    return mu(ctx.table, y, x)


def extn_simple_costandard(ctx: BlockContext, x: int, z: int, n: int) -> int:
    """dim Ext^n(L(x . lam-), nabla(z . lam-)): one KL t-coefficient, the
    coefficient of t^(l(x)-l(z)-n), pinned by the n=1 <-> mu cross-checks."""
    ctx.require_regular()
    ctx.require_dominant(x, z)
    length, table = ctx.slice.length, ctx.table
    pid = table.dominant_row(x).get(z)
    return 0 if pid is None else table.coeff(pid, length[x] - length[z] - n)


def extn_simple_simple(ctx: BlockContext, x: int, y: int, n: int) -> int:
    """dim Ext^n between simples: sum over z and a+b=n of costandard tables."""
    if n < 0:
        raise InvalidSystemError("n must be nonnegative")
    ctx.require_regular()
    ctx.require_dominant(x, y)
    return ctx.table.dominant_convolution(x, y, n)


# -- weight-level routing -----------------------------------------------------


def ext1_deltared_costandard(ctx: BlockContext, lam: Weight, nu: Weight) -> int:
    """Character-level dim Ext^1(Delta-red(lam), nabla(nu)) for regular weights.

    Unlinked weights (different alcove points) give 0 structurally; linked
    weights give mu of the factorized pair when nu's element is Bruhat-below
    lam's, and 0 otherwise.
    """
    rs = ctx.rs
    for wt in (lam, nu):
        if not is_dominant(wt):
            raise InvalidSystemError(f"weight {wt} is not dominant")
        if not classify_weight(rs, wt, ctx.l)["regular_l"]:
            raise InvalidSystemError(
                f"weight {wt} is l-singular; use singular_ext1_report"
            )
    w_word, lm_lam = factorize_weight(rs, lam, ctx.l)
    y_word, lm_nu = factorize_weight(rs, nu, ctx.l)
    if lm_lam != lm_nu:
        return 0
    w = ctx.slice.follow(w_word)
    y = ctx.slice.follow(y_word)
    if y not in ctx.table.rows_for(w):  # support = Bruhat ideal of w
        return 0
    return mu(ctx.table, y, w)


def ext1_weights(ctx: BlockContext, lam: Weight, nu: Weight) -> int:
    """dim Ext^1(L(lam), L(nu)) for regular dominant weights, 0 across blocks."""
    rs = ctx.rs
    w_word, lm_lam = factorize_weight(rs, lam, ctx.l)
    y_word, lm_nu = factorize_weight(rs, nu, ctx.l)
    if lm_lam != lm_nu:
        return 0
    if not (is_interior_fundamental(rs, lm_lam, ctx.l)):
        raise InvalidSystemError("weights are l-singular; use singular_ext1_report")
    return mu(ctx.table, ctx.slice.follow(w_word), ctx.slice.follow(y_word))


class SingularReport:
    """Translation bookkeeping for an Ext^1 bound at a singular weight."""

    def __init__(self, lam: Weight, nu: Weight, stabilizer_order: int, kept_parities: int,
                 mu_sum: int, bound: int, terms: list[tuple[int, int]] | None = None):
        self.lam = lam
        self.nu = nu
        self.stabilizer_order = stabilizer_order
        self.kept_parities = kept_parities
        self.mu_sum = mu_sum
        self.bound = bound  # (|stab|/2) * mu ceiling
        self.terms = [] if terms is None else terms  # (element, mu)


def singular_ext1_report(ctx: BlockContext, lam: Weight, nu: Weight) -> SingularReport:
    """Regular-block translation of a singular Ext^1 query.

    lam must be l-singular. Its factorization picks the maximal-length coset
    representative w of the facet stabilizer W_J; the standard sections of
    the translated module are indexed by the coset w*W_J acting on the
    regular seed. Representatives with the same length parity as nu's
    element contribute vanishing Ext^1 and are dropped; the rest contribute
    mu against nu's element. The reported bound is (|W_J|/2) * mu_bound.
    """
    rs = ctx.rs
    ctx.require_regular()
    if classify_weight(rs, lam, ctx.l)["regular_l"]:
        raise InvalidSystemError(
            f"{lam} is l-regular; use the regular-block operations directly"
        )
    if not is_dominant(lam) or not is_dominant(nu):
        raise InvalidSystemError("weights must be dominant")
    g_word, lam_minus = factorize_weight(rs, lam, ctx.l)
    fixing = facet_generators(rs, lam_minus, ctx.l)
    sl = ctx.slice
    y_word, _ = factorize_weight(rs, nu, ctx.l)
    y = sl.follow(y_word)
    y_par = sl.length[y] % 2

    # the coset g W_J, closed under the facet's generators from g: g is its
    # longest element, so every member lies in the slice when g does
    stack = [sl.follow(g_word)]
    coset = set(stack)
    while stack:
        i = stack.pop()
        for t in fixing:
            j = sl.right[i][t]
            if j == -1:
                raise InvariantViolation(f"coset member {i} times generator {t} left the slice")
            if j not in coset:
                coset.add(j)
                stack.append(j)
    stab_order = len(coset)

    terms = []
    total = 0
    for vi in sorted(coset):
        if sl.length[vi] % 2 == y_par:
            continue  # same parity as nu: these sections contribute nothing
        val = mu(ctx.table, vi, y)
        terms.append((vi, val))
        total += val

    kept = len(terms)
    bound = (stab_order // 2) * mu_bound(rs)
    return SingularReport(tuple(lam), tuple(nu), stab_order, kept, total, bound, terms)


# -- projective covers ---------------------------------------------------------


class PimReport:
    """Standard-filtration data of the projective cover of a simple."""

    def __init__(self, lam0: Weight, l: int, highest_weight: Weight,
                 delta_multiplicities: dict[Weight, int], total_length: int,
                 highest_weight_check: bool):
        self.lam0 = lam0
        self.l = l
        self.highest_weight = highest_weight
        self.delta_multiplicities = delta_multiplicities
        self.total_length = total_length
        self.highest_weight_check = highest_weight_check


def pim_length(ctx: BlockContext, lam0: Weight, bound: Weight | None = None) -> PimReport:
    """Composition length of the projective cover of L(lam0), lam0 dominant
    and restricted.

    Multiplicities come from reciprocity: [Q(lam0) : Delta(nu)] equals the
    decomposition number [Delta(nu) : L(lam0)], summed against the standard
    lengths from the same block matrix. The block is truncated by the ideal
    below the predicted highest weight 2(l-1)rho + w0(lam0), whose presence
    is itself checked.
    """
    rs = ctx.rs
    l = ctx.l
    lam0 = tuple(lam0)
    flags = classify_weight(rs, lam0, l)
    if not is_dominant(lam0):
        raise InvalidSystemError(f"{lam0} is not dominant")
    if not flags["restricted_1l"]:
        raise InvalidSystemError(f"{lam0} is not l-restricted at l={l}")
    # w0(lam0) = -dominant(-lam0) for dominant lam0
    hw = tuple(2 * (l - 1) - c for c in dominant_representative(rs, tuple(-c for c in lam0)))
    if not is_dominant(hw):
        raise InvariantViolation(f"2(l-1)rho + w0({lam0}) = {hw} is not dominant")
    if bound is None:
        bound = hw
    if not dominance_leq(rs, hw, bound):
        raise SliceCoverageError(
            f"cutoff ideal {bound} does not contain the highest weight {hw}"
        )

    if not flags["regular_l"]:
        # singular weights are in scope only when the truncated block is the
        # singleton {lam0}: then Q = Delta = nabla = L and the length is 1
        _, members = linkage_block(rs, lam0, l, bound, ctx.table)
        if [m for m, _ in members] != [lam0]:
            raise InvalidSystemError(
                f"{lam0} is l-singular with a non-singleton block; singular "
                "projective covers are out of scope"
            )
        return PimReport(lam0, l, hw, {lam0: 1}, 1, hw == lam0)

    dm = decomposition_matrix(rs, lam0, l, bound=bound, table=ctx.table)
    delta_mults = {}
    total = 0
    for nu in dm.weights:
        m = dm.decomposition_number(nu, lam0)
        if m:
            delta_mults[nu] = m
            total += m * dm.standard_length(nu)
    top = max(delta_mults, key=lambda wt: (sum(rs.wt_to_rt_scaled(wt)), wt))
    return PimReport(lam0, l, hw, delta_mults, total, top == hw and hw in delta_mults)


# -- sums with saturation -------------------------------------------------------


class SumReport:
    def __init__(self, value: int, saturated: bool, window: int, cutoff: int):
        self.value = value
        self.saturated = saturated
        self.window = window
        self.cutoff = cutoff


def sum_ext_n(ctx: BlockContext, x: int, n: int) -> SumReport:
    """Sum over dominant y in the slice of dim Ext^n of the (x, y) simples.

    n = 0 is the Kronecker delta, so the sum is 1 exactly. For n >= 1 the
    saturation flag holds when the mu support window (scaled by n) fits
    inside the slice cutoff, certifying no nonzero term was cut off.
    """
    if n < 0:
        raise InvalidSystemError("n must be nonnegative")
    ctx.require_regular()
    ctx.require_dominant(x)
    sl = ctx.slice
    if n == 0:
        return SumReport(1, True, 0, sl.cutoff)
    total = 0
    for y in sl.dominant_indices():
        total += extn_simple_simple(ctx, x, y, n)
    window = n * mu_support_window(ctx.rs)
    saturated = sl.length[x] + window <= sl.cutoff
    return SumReport(total, saturated, window, sl.cutoff)


# -- effective constants ----------------------------------------------------------


def mu_bound(rs: RootSystemData) -> int:
    """Ceiling for all mu values on dominant pairs: h^|Phi| * P((2h-2) rho).

    The partition-function argument is the lattice element (2h-2) rho, the
    integral reading of the formula; the interpretation travels with every
    report that uses this constant.
    """
    h = rs.coxeter_number
    arg = tuple(2 * h - 2 for _ in range(rs.rank))
    return h**rs.num_roots * kostant_partition(rs, arg, basis="weight")


MU_BOUND_READING = "P argument read as the lattice element (2h-2)*rho"


def ext1_bound(rs: RootSystemData) -> int:
    """Uniform Ext^1 ceiling across all characteristic: |W| * mu_bound / 2."""
    val = rs.weyl_order * mu_bound(rs)
    if val % 2:
        raise InvariantViolation(f"|W| * mu_bound = {val} is odd")
    return val // 2


def fixed_prime_ext1_bound(rs: RootSystemData, p: int) -> int:
    """Ext^1 ceiling at a fixed prime: p^|Phi| * P(2(p-1) rho)."""
    if p < 2:
        raise InvalidSystemError("p must be at least 2")
    arg = tuple(2 * (p - 1) for _ in range(rs.rank))
    return p**rs.num_roots * kostant_partition(rs, arg, basis="weight")


class BoundReport:
    def __init__(self, constant_name: str, formula_value: int | None,
                 empirical_value: int | None, saturated: bool, provenance: str):
        self.constant_name = constant_name
        self.formula_value = formula_value
        self.empirical_value = empirical_value
        self.saturated = saturated
        self.provenance = provenance

    def check(self):
        if (
            self.formula_value is not None
            and self.empirical_value is not None
            and self.empirical_value > self.formula_value
        ):
            raise InvariantViolation(
                f"{self.constant_name}: empirical value {self.empirical_value} "
                f"exceeds the formula value {self.formula_value}"
            )


def bound_constants(rs: RootSystemData, p: int, ns=(1,),
                    table: KLTable | None = None) -> list[BoundReport]:
    """Every closed-formula constant, plus empirical maxima when a table is given.

    Empirical rows are slice-dependent lower bounds / witnesses; the
    invariant empirical <= formula is enforced loudly wherever both sides
    exist. A table must be of ``rs`` (InvalidSystemError).
    """
    if table is not None:
        _check_table_system(rs, table)
    reports = []
    e_val = mu_bound(rs)
    prov = f"{rs.type_label}{rs.rank}; {MU_BOUND_READING}"
    emp_mu = None
    prov_t = prov
    if table is not None:
        emp_mu = max_mu_dominant(table)
        prov_t = f"{prov}; slice cutoff {table.slice.cutoff}"
    reports.append(BoundReport("mu_bound", e_val, emp_mu, False, prov_t))
    reports.append(BoundReport("ext1_bound", ext1_bound(rs), None, False, prov))
    reports.append(
        BoundReport(
            "fixed_prime_ext1_bound", fixed_prime_ext1_bound(rs, p), None, False,
            f"{prov}; p={p}",
        )
    )
    for n in ns:
        reports.append(
            BoundReport(
                "frobenius_shift", generic_shift(rs, p, n), None, True,
                f"{prov}; p={p}, n={n}",
            )
        )
    if table is not None:
        sl = table.slice
        window = mu_support_window(rs)
        # mu_row_sum of every dominant x in one pass over the dominant mu
        # rows: mu(z, y) goes to the sums of both z and y; the first x with
        # the largest nonzero sum supplies the saturation flag
        dominant = sl.dominant
        sums = dict.fromkeys(sl.dominant_indices(), 0)
        for y in sums:
            for z, m in table.mu_row(y):
                if dominant[z]:
                    sums[z] += m
                    sums[y] += m
        best_sum, best_sat = 0, False
        for x, s in sums.items():
            if s > best_sum:
                best_sum, best_sat = s, sl.length[x] + window <= sl.cutoff
        reports.append(
            BoundReport(
                "mu_row_sum_max", None, best_sum, best_sat,
                f"{prov_t}; support window {window}",
            )
        )
        for m in (0, 1, 2):
            reports.append(
                BoundReport(
                    "top_coeff_max_empirical", None,
                    max_top_coefficient(table, m), False, f"{prov_t}; m={m}",
                )
            )
            best = 0
            for y in sl.dominant_indices():
                best = max(best, kl_coefficient_sum(table, y, m))
            reports.append(
                BoundReport(
                    "costandard_sum_max_empirical", None, best, True,
                    f"{prov_t}; m={m}; finite sums, exact per y",
                )
            )
    for r in reports:
        r.check()
    return reports


# -- verification battery ----------------------------------------------------------


def run_verification(rs: RootSystemData, l: int, table: KLTable):
    """Invariant battery over one slice; returns [(name, ok, detail)].

    Used by the CLI ``verify`` subcommand; any False entry is an invariant
    violation and should map to a nonzero exit status.
    """
    import random

    _check_table_system(rs, table)
    results = []

    def record(name, ok, detail=""):
        results.append((name, bool(ok), detail))

    def witness(name, bad, what):
        """Record a check that passes when no witness ``bad`` was found."""
        record(name, bad is None, "" if bad is None else f"{what} at {bad}")

    sl = table.slice

    detail = table.axioms_witness()
    record("kl_axioms", not detail, detail)

    # parity vanishing and symmetry of mu
    bad = next(
        ((z, y) for y in range(len(sl))
         for z, m in table.mu_row(y) if m and (sl.length[y] - sl.length[z]) % 2 == 0),
        None,
    )
    witness("mu_parity", bad, "nonzero mu(x,y) for an even length gap")

    # descent-choice independence, randomized, one recomputation memo
    rng = random.Random(12345)
    recomputed = kl_recomputation(table, rng)
    bad = None
    n = len(sl)
    for _ in range(100):
        x, y = rng.randrange(n), rng.randrange(n)
        if recomputed(x, y) != kl_polynomial(table, x, y):
            bad = (x, y)
            break
    witness("descent_independence", bad, "recomputed P(x,y) differs")

    # empirical mu window (backstop for the saturation certificates)
    window = mu_support_window(rs)
    worst = 0
    for y in sl.dominant_indices():
        for z, m in table.mu_row(y):
            if sl.dominant[z] and m:
                worst = max(worst, sl.length[y] - sl.length[z])
    record("mu_support_window", worst <= window, f"max dominant mu gap {worst} <= window {window}")

    # mu ceiling
    emp = max_mu_dominant(table)
    ceiling = mu_bound(rs)
    record("mu_ceiling", emp <= ceiling, f"max mu {emp} <= {ceiling}")

    # Ext consistency on the default regular block
    ctx = make_block_context(rs, l, table)
    if ctx.regular:
        doms = sl.dominant_indices()
        bad = next(
            ((x, y) for x in doms[:20] for y in doms[:20]
             if extn_simple_simple(ctx, x, y, 0) != (1 if x == y else 0)),
            None,
        )
        witness("ext_n0_kronecker", bad, "Ext^0(x,y) is not the Kronecker delta")
        bad = next(
            ((x, y) for x in doms for y in doms
             if extn_simple_simple(ctx, x, y, 1) != ext1_simple_simple(ctx, x, y)),
            None,
        )
        witness("ext_n1_equals_mu", bad, "Ext^1(x,y) differs from mu(y,x)")
        # dual-path coefficient sums
        bad = next(
            ((y, m) for y in doms for m in (0, 1, 2)
             if kl_coefficient_sum(table, y, m)
             != sum(extn_simple_costandard(ctx, y, x, m) for x in doms)),
            None,
        )
        witness("coefficient_sum_dual_path", bad, "KL and Ext coefficient sums differ for (y,m)")
    else:
        record("ext_block", True, f"l={l} < h: no regular block to test")

    return results
