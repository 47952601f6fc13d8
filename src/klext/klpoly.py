"""Kazhdan-Lusztig polynomial tables over a GroupSlice, with persistence.

Polynomials are in the variable q = t^2 (only even t-powers occur). A
table holds each distinct polynomial once, as a tuple of arbitrary-precision
integer coefficients in a per-table pool (a few dozen polynomials serve
hundreds of thousands of entries), and each row maps x to a pool id;
``kl_polynomial`` returns those coefficient tuples, () for zero. Every other
reader takes a t-degree: ``KLTable.coeff(pid, d)`` is the coefficient of
t^d, 0 for odd, negative or too large d, so no caller turns a t-degree into
a pool index, and no other module reads the pool. ``coeff_convolution``
sums products of two entries' t-coefficients (the Ext^n sum over a + b = n)
over even degrees only, and ``kl_entries`` walks every nonzero entry with
its mu, converting each distinct polynomial once. The table for a
slice is filled row by row in ascending index of the upper index y; slice
indices ascend by length, so every row depends only on rows filled before.

The recursion used is the standard descent recursion: for a right descent
s of y and y' = ys,

    P(x,y) = q^(1-c) P(xs,y') + q^c P(x,y') - sum_z mu(z,y') q^((L(y)-L(z))/2) P(x,z)

with c = 1 when xs < x, the sum over z with zs < z. A row visits only the
candidates keys(row of y') and their s-images: by the lifting property
x <= y implies x <= y' or xs <= y', so every x outside that set has
P(x,y) = 0. By KL positivity the support of row y is exactly the Bruhat
ideal of y, so ``verify`` checks it row by row by the same property:
ideal(y) = ideal(ys) + ideal(ys)s for a right descent s of y (the tests
cross-check it against a subword oracle of the Bruhat order). Both combine
steps, P(lower, y') + q P(upper, y') for the pair {x, xs} and
acc - m q^k P(x,z), are memoised on ids.

Two symmetries (Kazhdan-Lusztig, Invent. Math. 53 (1979)) spare most of
that work: P(x^-1, y^-1) = P(x,y), and P(sigma x, sigma y) = P(x,y) for every
automorphism sigma of the Coxeter graph. The orbits of the group G they
generate are the unit of storage (``KLTable.orbit_plan``): the
representative u of an orbit is its lowest index, and every other row y of
it is row u relabelled once, row(y) = {g(x): pid}, by the element g of G
with g(u) = y. The index maps of inversion and of every graph automorphism
come from the slice's right table alone (``weylaffine.slice_inversion`` and
``slice_symmetry_group``, checked against the whole table). ``fill``
computes the representatives' rows only, a table file holds only theirs,
and every other row is relabelled on its first read (``KLTable.rows_for``).
A row is an unordered map: every reader that needs x order sorts. Pool ids
and rows are those of a row-by-row fill, whose table saves to the same
bytes; ``kl_recomputation`` uses no symmetry.

Any row of any table may be read. ``fill`` computes every representative
up to the slice cutoff and a table file holds every representative. A load
decodes and checks every stored row, so a file with one bad record is
refused whole; a warm query relabels only the rows it reads. A table that
was never filled computes and keeps each row on its first read, with the
rows that row's computation reads and no other, so a single-pair query
without a cache computes only the rows it reads; its ``filled`` stays -1,
and only ``save_table`` refuses it.

The one exception is ``spherical_table``: it holds the rows of the dominant
y only, each with its dominant x only, and refuses every other row. They
are computed by the same recursion restricted to dominant x, with s the
first right descent of y whose ys is dominant (``KLTable._descent``). Ext^1,
Ext^n and the bound constants between simples read no other entry.
"""

from __future__ import annotations

import struct

from . import binio
from .errors import CacheFormatError, InvalidSystemError, InvariantViolation
from .weylaffine import GroupSlice, slice_inversion, slice_symmetry_group


def _combine(a: tuple, m: int, k: int, b: tuple) -> tuple:
    """a + m*q^k*b on coefficient tuples (index = exponent, no trailing zeros)."""
    out = list(a)
    out.extend([0] * (len(b) + k - len(out)))
    for e, v in enumerate(b, k):
        out[e] += m * v
    while out and out[-1] == 0:
        out.pop()
    return tuple(out)


class _FillMemo:
    """Fill-only state. Intermediate polynomials get work ids (0 is the zero
    polynomial) and stay out of the pool; both combine steps are memoised:
    ``pairs`` on (pool id, pool id), ``steps`` on (work id, m, k, pool id)."""

    def __init__(self):
        self.work: list[tuple[int, ...]] = [()]
        self.ids: dict[tuple[int, ...], int] = {(): 0}
        self.to_pool = [-1]  # work id -> pool id, -1 until stored in a row
        self.pairs: dict[tuple[int, int], int] = {}
        self.steps: dict[tuple[int, int, int, int], int] = {}

    def intern(self, t: tuple[int, ...]) -> int:
        w = self.ids.get(t)
        if w is None:
            w = self.ids[t] = len(self.work)
            self.work.append(t)
            self.to_pool.append(-1)
        return w


class KLTable:
    """Memoized map (x, y) -> P_{x,y} for one enumerated slice.

    Polynomials live once each in ``pool``, as coefficient tuples (index =
    exponent of q, no trailing zeros); rows_for(y) maps x to the pool id of
    the nonzero P_{x,y}, in no particular x order, and absence means the
    polynomial is zero (equivalently x is not Bruhat-below y). Pool ids are
    given in first appearance over (y, ascending x) order, so a filled and a
    loaded table agree id for id.
    ``filled`` is -1 before ``fill``, the slice cutoff after ``fill`` or
    ``load_table``; a row that is not there yet, relabelled or computed, is
    made on its first read (``rows_for``), whatever ``filled`` says.

    On a table built as ``KLTable(sl)`` and never filled, each missing row
    is computed on its first read without symmetry, so a caller about to
    read every row calls ``fill()`` first: reading all 901 rows of such an
    A2@24 table took 0.24-0.34 s, against 0.08 s for ``fill`` and the same
    reads.
    """

    # the x that a computed row keeps: None for all, or a flag per element
    _kept: list[bool] | None = None

    def __init__(self, sl: GroupSlice):
        self.slice = sl
        # a row that is None is relabelled or computed on its first read
        self.rows: list[dict[int, int] | None] = [None] * len(sl)
        self.pool: list[tuple[int, ...]] = []
        self._pool_ids: dict[tuple[int, ...], int] = {}
        self.filled = -1
        self._mu_rows: dict[int, tuple[tuple[int, int], ...]] = {}
        self._plan: tuple[list[int], list] | None = None  # see orbit_plan

    def orbit_plan(self) -> tuple[list[int], list]:
        """The orbits of G on the slice (see the module docstring): the
        representatives in ascending index, and for each row y the source
        (u, g) it is relabelled from, None for a representative. Row u is
        the representative of y's orbit and g the index map of the element
        of G with g[u] = y: a graph automorphism, or one composed with
        inversion. Built on the first call: by ``fill``, ``load_table``, or
        ``save_table`` of a table built another way."""
        if self._plan is not None:
            return self._plan
        sl = self.slice
        inv = slice_inversion(sl)
        autos = slice_symmetry_group(sl)[1:]
        group = [inv, *autos, *(list(map(inv.__getitem__, g)) for g in autos)]
        reps: list[int] = []
        sources: list[tuple[int, list[int]] | None] = [None] * len(sl)
        reached = bytearray(len(sl))
        for u in range(len(sl)):
            if reached[u]:
                continue
            reached[u] = 1
            reps.append(u)
            for g in group:
                y = g[u]
                if not reached[y]:
                    reached[y] = 1
                    sources[y] = (u, g)
        self._plan = reps, sources
        return self._plan

    def coeff(self, pid: int, d: int) -> int:
        """Coefficient of t^d of the pool entry ``pid`` under q = t^2: 0 when
        d is odd, negative or above the degree."""
        t = self.pool[pid]
        return t[d // 2] if d % 2 == 0 and 0 <= d < 2 * len(t) else 0

    def coeff_convolution(self, p: int, dp: int, r: int, dr: int, n: int) -> int:
        """The sum over a + b = n, a and b >= 0, of coeff(p, dp - a) *
        coeff(r, dr - b). Both t-degrees must be even, so it is 0 when
        dp + dr - n is odd; otherwise it convolves the two q-coefficient tuples
        at q-degree h = (dp + dr - n) / 2, a = dp - 2i stepping by 2."""
        if (dp + dr - n) % 2:
            return 0
        h = (dp + dr - n) // 2
        tp, tr = self.pool[p], self.pool[r]
        # i and h - i index tp and tr, and 0 <= a = dp - 2i <= n
        lo = max(0, h - len(tr) + 1, (dp - n + 1) // 2)
        hi = min(len(tp) - 1, h, dp // 2)
        return sum(tp[i] * tr[h - i] for i in range(lo, hi + 1))

    def _store(self, t: tuple[int, ...], x: int, y: int) -> int:
        """Pool id of the final value P(x,y), checking its shape once per
        pool entry: constant term 1 and nonnegative coefficients (KL axioms)."""
        pid = self._pool_ids.get(t)
        if pid is None:
            if t[0] != 1 or min(t) < 0:
                raise InvariantViolation(f"KL axioms broken at ({x},{y}): coefficients {t}")
            pid = self._pool_ids[t] = len(self.pool)
            self.pool.append(t)
        return pid

    # -- fill ---------------------------------------------------------------

    def fill(self) -> None:
        """Fill the table up to the slice cutoff: compute the row of each
        orbit representative of G (see the module docstring), in ascending
        index, and no other; every other row is relabelled from its
        representative on its first read. A row that ``_compute_row`` reads
        is shorter than the row computed, so its representative is computed
        already. Rows and pool ids are those of a row-by-row fill, and so are
        the saved bytes, also after rows were read from the table unfilled:
        those rows and their pool go first."""
        reps, _ = self.orbit_plan()
        self.rows = [None] * len(self.slice)
        self.pool, self._pool_ids = [], {}
        memo = _FillMemo()
        for y in reps:  # indices ascend by length
            self.rows[y] = self._compute_row(y, memo)
        self.filled = self.slice.cutoff

    def _descent(self, y: int) -> int | None:
        """The right descent s of y that row y is computed from, by way of
        row ys: the first right descent, on a spherical table the first with
        ys dominant. None for the shortest row, the identity or the first
        dominant element, whose row is {y: 1}."""
        sl, kept = self.slice, self._kept
        right = sl.right[y]
        for s in sl.right_descents(y):
            if kept is None or kept[right[s]]:
                return s
        if sl.length[y] == 0 or kept is not None and y == kept.index(True):
            return None
        raise InvariantViolation(f"dominant element {y} has no dominant right descent")

    def _missing_inputs(self, y: int) -> list[int]:
        """The rows that ``_compute_row(y)`` reads and that are not there yet:
        row y' = ys, and once it is there, the rows z with mu(z, y') != 0 and
        zs < z, for s = ``_descent(y)``. Each is shorter than y."""
        s = self._descent(y)
        if s is None:
            return []
        sl = self.slice
        length, right, rows = sl.length, sl.right, self.rows
        yp = right[y][s]
        if rows[yp] is None:
            return [yp]
        return [z for z, _ in self.mu_row(yp)
                if rows[z] is None and length[right[z][s]] < length[z]]

    def _compute_row(self, y: int, memo: _FillMemo) -> dict[int, int]:
        s = self._descent(y)
        if s is None:
            return {y: self._store((1,), y, y)}
        sl, kept = self.slice, self._kept
        length, right = sl.length, sl.right
        pool, pairs = self.pool, memo.pairs
        work, steps, to_pool = memo.work, memo.steps, memo.to_pool
        yp = right[y][s]
        row_yp = self.rows_for(yp)
        # Candidates: x <= y implies x <= y' or xs <= y' (lifting property),
        # so every nonzero P(x,y) has x in keys(row_yp) or in their s-images.
        # The first step q^(1-c) P(xs,y') + q^c P(x,y') is the same for x and
        # xs: P(lower, y') + q*P(upper, y') of the pair {x, xs}.
        acc: dict[int, int] = {}
        for x, p in row_yp.items():
            if x in acc:
                continue
            xs = right[x][s]
            if xs == -1:
                raise InvariantViolation(f"descent neighbor of {x} left the slice")
            if kept is None or kept[xs]:
                lo, hi = (xs, x) if length[xs] < length[x] else (x, xs)
                key = (row_yp.get(lo, -1), row_yp.get(hi, -1))
            elif length[xs] < length[x]:
                # on a spherical table: xs = tx < x for a finite simple t, a
                # left descent of y', so P(xs, y') = P(x, y') and x is alone
                key, xs = (p, p), x
            else:
                raise InvariantViolation(f"dominant {x} goes up by {s} to non-dominant {xs}")
            w = pairs.get(key)
            if w is None:
                a = pool[key[0]] if key[0] >= 0 else ()
                b = pool[key[1]] if key[1] >= 0 else ()
                w = pairs[key] = memo.intern(_combine(a, 1, 1, b))
            acc[x] = acc[xs] = w
        ly = length[y]
        acc.pop(y, None)  # the pair {y', y}: P(y,y) = 1 is set below
        for z, m in self.mu_row(yp):
            if length[right[z][s]] >= length[z]:
                continue
            k = (ly - length[z]) // 2
            for x, p in self.rows_for(z).items():
                w0 = acc.get(x, 0)
                key = (w0, m, k, p)
                w = steps.get(key)
                if w is None:
                    w = steps[key] = memo.intern(_combine(work[w0], -m, k, pool[p]))
                acc[x] = w
        row: dict[int, int] = {}
        for x in sorted(acc):
            w = acc[x]
            if w == 0:
                continue
            pid = to_pool[w]
            if pid < 0:
                pid = to_pool[w] = self._store(work[w], x, y)
            # KL axioms double as integrity checks of the recursion: the
            # shape is checked once per pool entry, the degree bound here
            if 2 * len(pool[pid]) > ly - length[x] + 1:
                raise InvariantViolation(
                    f"KL axioms broken at ({x},{y}): coefficients {pool[pid]}"
                )
            row[x] = pid
        row[y] = self._store((1,), y, y)
        return row

    def axioms_witness(self) -> str:
        """The first KL axiom that a row breaks, in ascending y, as a detail
        naming the smallest x that breaks it (rows are unordered), or "".

        P(y,y) = 1. The support of row y is the Bruhat ideal of y, checked by
        the lifting property for the last right descent s of y (the fill uses
        the first): ideal(y) = ideal(ys) + ideal(ys)s, and ideal(e) = {e}.
        Every stored entry has constant term 1, no negative coefficient and
        degree below (l(y) - l(x))/2.
        """
        sl = self.slice
        length, right, pool = sl.length, sl.right, self.pool
        broken_ids = {pid for pid, c in enumerate(pool) if c[:1] != (1,) or min(c) < 0}
        for y in range(len(sl)):
            row = self.rows_for(y)
            if row.get(y) is None or pool[row[y]] != (1,):
                return f"P(y,y) != 1 at {y}"
            if length[y] == 0:
                ideal = {y}
            else:
                s = sl.right_descents(y)[-1]
                below = self.rows_for(right[y][s])
                ideal = set(below)
                ideal.update(right[x][s] for x in below)
            diff = ideal.symmetric_difference(row)
            if diff:
                return f"support/Bruhat mismatch at ({min(diff)},{y})"
            ly = length[y]
            bad = min((x for x, pid in row.items() if pid in broken_ids
                       or x != y and 2 * len(pool[pid]) > ly - length[x] + 1), default=None)
            if bad is not None:
                what = "coefficient axiom" if row[bad] in broken_ids else "degree bound"
                return f"{what} broken at ({bad},{y})"
        return ""

    def rows_for(self, y: int) -> dict[int, int]:
        """Row y as a dict x -> pool id, kept once read. A missing row with a
        source in the orbit plan is relabelled from its representative, and
        any other missing row is computed (``_compute_missing``)."""
        row = self.rows[y]
        if row is not None:
            return row
        source = self._plan[1][y] if self._plan else None
        if source is None:
            self._compute_missing(y)
            return self.rows[y]
        # P(g(x), y) = P(x, u), so row y maps g(x) to row u's id of x
        u, g = source
        row = self.rows_for(u)
        self.rows[y] = row = dict(zip(map(g.__getitem__, row), row.values()))
        return row

    def _compute_missing(self, y: int) -> None:
        """Compute row y and every missing row its computation reads, and no
        other, by an explicit work stack, no recursion. The rows that row y
        reads are known only once row y' = ys is there (they are the rows z
        with mu(z, y') != 0 and zs < z), so a row stays on the stack until
        every row it reads is there; each of those is shorter than y. Rows
        equal those of ``fill`` as polynomials; pool ids follow the order in
        which rows are computed, so on a table that was never filled they may
        differ from a full table's."""
        rows, memo, stack = self.rows, _FillMemo(), [y]
        while stack:
            y = stack[-1]
            if rows[y] is not None:
                stack.pop()
                continue
            missing = self._missing_inputs(y)
            if missing:
                stack.extend(missing)
            else:
                rows[y] = self._compute_row(y, memo)
                stack.pop()

    def mu_row(self, y: int) -> tuple[tuple[int, int], ...]:
        """All (z, mu(z, y)) with nonzero mu and z < y."""
        cached = self._mu_rows.get(y)
        if cached is None:
            length, coeff = self.slice.length, self.coeff
            ly = length[y]
            cached = self._mu_rows[y] = tuple(sorted(
                (z, top) for z, pid in self.rows_for(y).items()
                if (top := coeff(pid, ly - length[z] - 1))
            ))
        return cached


class _SphericalTable(KLTable):
    """The table that ``spherical_table`` returns: ``_compute_row`` keeps
    the dominant x only (``_kept``), every dominant row is computed together
    on the first read of any of them, and no other row ever is. It has no
    orbit plan, so ``rows_for`` passes every missing row to
    ``_compute_missing``."""

    def __init__(self, sl: GroupSlice):
        super().__init__(sl)
        self._kept = sl.dominant

    def _compute_missing(self, y: int) -> None:
        if not self.slice.dominant[y]:
            raise InvalidSystemError(
                f"row {y} is not dominant: a spherical table holds the dominant rows only"
            )
        self._fill_dominant()

    def _fill_dominant(self) -> None:
        """Every dominant row in ascending index. A row reads row y' = ys and
        the rows z of mu(z, y'), all of them dominant and shorter, so
        computed already."""
        memo = _FillMemo()
        for y in self.slice.dominant_indices():
            self.rows[y] = self._compute_row(y, memo)


def spherical_table(sl: GroupSlice) -> KLTable:
    """The KL table of ``sl`` restricted to dominant pairs: row y for each
    dominant y, holding P(x, y) for dominant x only, with the pool, row
    format and readers of ``KLTable``. Dominant elements are the longest of
    their W_f-cosets, and these polynomials span the spherical module, the
    one induced from the trivial representation of the finite Hecke algebra
    (Soergel, Represent. Theory 1 (1997), section 3; Deodhar, J. Algebra 111
    (1987)). So mu, mu_row_sum, kl_coefficient_sum, max_mu_dominant,
    max_top_coefficient and the Ext sums of ``extbounds`` answer on it as on
    the full table, from far fewer rows.

    Its rows are computed by the full table's recursion (``_compute_row``)
    restricted to dominant x. The row of the shortest dominant element y is
    {y: 1}. Any other dominant y has a right descent s with y' = ys
    dominant, and the first one is taken; for each x in row y', with p =
    P(x, y'): if xs is dominant, the pair {x, xs} gets its first step as on
    the full table; if xs is not dominant it is shorter, and (1 + q) p goes
    to P(x, y). Then mu(z, y') q^((l(y)-l(z))/2) P(x, z) is subtracted for
    every dominant z with zs < z. No non-dominant z contributes: every finite
    simple t is a left descent of y', so mu(z, y') != 0 with tz > z forces
    z = ty' (Kazhdan-Lusztig 1979), and then zs > z.

    The rows are computed together on the first read of a dominant row, so
    a query that rejects its arguments first computes none. Reading a
    non-dominant row raises InvalidSystemError and computes nothing; the
    KL-axiom checks of ``_compute_row`` hold, and a dominant y with no
    dominant right descent raises InvariantViolation. ``save_table``
    refuses the table."""
    return _SphericalTable(sl)


# -- queries -------------------------------------------------------------------


def kl_polynomial(table: KLTable, x: int, y: int) -> tuple[int, ...]:
    """P_{x,y} as its pool tuple of q-coefficients; () unless x <= y in
    Bruhat order."""
    table.slice.check_index(x, y)
    pid = table.rows_for(y).get(x)
    return () if pid is None else table.pool[pid]


def mu(table: KLTable, x: int, y: int) -> int:
    """Top KL coefficient, of t^(l(y)-l(x)-1) in P_{x,y}; symmetrized,
    mu(x,y) = mu(y,x), and 0 on the diagonal."""
    sl = table.slice
    sl.check_index(x, y)
    if sl.length[x] > sl.length[y]:
        x, y = y, x
    pid = table.rows_for(y).get(x)
    return 0 if pid is None else table.coeff(pid, sl.length[y] - sl.length[x] - 1)


def kl_coefficient(table: KLTable, x: int, y: int, m: int) -> int:
    """Coefficient of t^m of P_{x,y} under q = t^2 (odd m give 0)."""
    table.slice.check_index(x, y)
    pid = table.rows_for(y).get(x)
    return 0 if pid is None else table.coeff(pid, m)


def kl_entries(table: KLTable, per_polynomial):
    """Every nonzero P_{x,y} of the table as (x, y, per_polynomial(P), mu(x, y)),
    in (y, sorted x) order, P being its q-coefficient tuple. ``per_polynomial``
    runs once per distinct polynomial, so entries with equal P share its
    value; mu is the coefficient of t^(l(y)-l(x)-1), 0 on the diagonal.
    This reads every row: call ``table.fill()`` first on a table that was
    never filled (see ``KLTable``)."""
    length, coeff = table.slice.length, table.coeff
    made = {}  # pool id -> per_polynomial of it; the pool may grow as rows are read
    for y in range(len(length)):
        ly = length[y]
        row = table.rows_for(y)
        for x in sorted(row):
            pid = row[x]
            value = made.get(pid)
            if value is None:
                value = made[pid] = per_polynomial(table.pool[pid])
            yield x, y, value, coeff(pid, ly - length[x] - 1)


def mu_support_window(rs) -> int:
    """Effective length window B with mu(x,y) = 0 for dominant pairs whose
    length gap exceeds B.

    Derived from the projective-cover weight window: an extension between
    simples in a regular block forces the two weights within 2(l-1)rho of
    each other both ways, which crossing-count converts to a level-free
    bound of floor(2 * sum_i rho_i |(alpha_i, alpha^vee)|) + 1 separating
    hyperplanes per positive root. Verified empirically on every slice by
    the verification suite.
    """
    rho_rt = rs.wt_to_rt_scaled(rs.rho)  # det(C) * rho in root coordinates
    total = 0
    for a in range(rs.num_positive):
        s = sum(rho_rt[j] * abs(rs.avee_rt[a][j]) for j in range(rs.rank))
        total += 2 * s // rs.cartan_det + 1
    return total


def mu_row_sum(table: KLTable, x: int) -> tuple[int, bool]:
    """Sum of mu(x, y) over dominant y in the slice, with a saturation flag.

    The flag is True only when the support window proves every dominant y
    with mu(x,y) != 0 lies inside the slice, i.e. the sum is exact rather
    than a truncated lower bound.
    """
    sl = table.slice
    sl.check_index(x)
    if not sl.dominant[x]:
        raise InvalidSystemError(f"element {x} is not dominant")
    total = 0
    for y in sl.dominant_indices():
        total += mu(table, x, y)
    window = mu_support_window(sl.rs)
    saturated = sl.length[x] + window <= sl.cutoff
    return total, saturated


def _dominant_column(table: KLTable, y: int, m: int):
    """The t-coefficients c[len(y)-len(x)-m] of P_{x,y} over dominant x <= y."""
    sl = table.slice
    ly = sl.length[y]
    return (table.coeff(pid, ly - sl.length[x] - m)
            for x, pid in table.rows_for(y).items() if sl.dominant[x])


def kl_coefficient_sum(table: KLTable, y: int, m: int) -> int:
    """Sum over dominant x <= y of the t-coefficient c[len(y)-len(x)-m].

    The index set is finite and contained in any slice containing y, so
    the value is always exact.
    """
    table.slice.check_index(y)
    return sum(_dominant_column(table, y, m))


def max_mu_dominant(table: KLTable) -> int:
    """Largest mu over dominant pairs of the slice."""
    sl = table.slice
    best = 0
    for y in sl.dominant_indices():
        for z, m in table.mu_row(y):
            if sl.dominant[z]:
                best = max(best, m)
    return best


def max_top_coefficient(table: KLTable, m: int) -> int:
    """Largest coefficient c[len(y)-len(x)-m] over dominant pairs x <= y."""
    return max((c for y in table.slice.dominant_indices()
                for c in _dominant_column(table, y, m)), default=0)


def kl_recomputation(table: KLTable, rng):
    """A function (x, y) -> P_{x,y} that recomputes from scratch, with one
    randomized descent choice per row.

    It keeps its own memo of rows (never the table's or its pool), shared
    by all of its calls, so each row is derived once; a row sweeps every
    shorter x, not the lifting candidates. As in the fill, its rows hold ids
    of polynomials it interns itself (0 is the zero polynomial), and both
    combine steps are memoised on those ids. The result is an independent
    derivation, which the descent-choice independence of the recursion
    makes equal to the stored polynomial.
    """
    sl = table.slice
    length, right = sl.length, sl.right
    polys: list[tuple[int, ...]] = [(), (1,)]
    ids: dict[tuple[int, ...], int] = {(): 0, (1,): 1}
    pairs: dict[tuple[int, int], int] = {}
    steps: dict[tuple[int, int, int, int], int] = {}
    memo: dict[int, dict[int, int]] = {}

    def intern(t: tuple[int, ...]) -> int:
        i = ids.get(t)
        if i is None:
            i = ids[t] = len(polys)
            polys.append(t)
        return i

    def row_of(yy: int) -> dict[int, int]:
        got = memo.get(yy)
        if got is not None:
            return got
        if length[yy] == 0:
            memo[yy] = {yy: 1}
            return memo[yy]
        s = rng.choice(sl.right_descents(yy))
        yp = right[yy][s]
        row_yp = row_of(yp)
        lyp, lyy = length[yp], length[yy]
        # the mu(z, y') q^k P(x, z) terms: z below y' at odd gap with zs < z
        corrections = []
        for z, i in row_yp.items():
            gap = lyp - length[z]
            pol = polys[i]
            if gap > 0 and gap % 2 and length[right[z][s]] < length[z]:
                top = pol[(gap - 1) // 2] if gap < 2 * len(pol) else 0
                if top:
                    corrections.append((row_of(z), -top, (lyy - length[z]) // 2))
        row: dict[int, int] = {yy: 1}
        for xx in range(len(sl)):
            if length[xx] >= lyy:
                continue
            xs = right[xx][s]
            key = (row_yp.get(xs, 0), row_yp.get(xx, 0))
            if length[xs] >= length[xx]:
                key = key[::-1]
            acc = pairs.get(key)
            if acc is None:
                acc = pairs[key] = intern(_combine(polys[key[0]], 1, 1, polys[key[1]]))
            for row_z, m, k in corrections:
                p_xz = row_z.get(xx)
                if p_xz is not None:
                    step = (acc, m, k, p_xz)
                    w = steps.get(step)
                    if w is None:
                        w = steps[step] = intern(_combine(polys[acc], m, k, polys[p_xz]))
                    acc = w
            if acc:
                row[xx] = acc
        memo[yy] = row
        return row

    def polynomial(x: int, y: int) -> tuple[int, ...]:
        return polys[row_of(y).get(x, 0)]

    return polynomial


# -- persistence ----------------------------------------------------------------

_TABLE_MAGIC = b"KLXTABLE"
_TABLE_VERSION = 3
_TABLE_HEAD = ">cHBIiII"  # type, rank, affine, cutoff, filled, pool size, records


def _row_format(n_elements: int, n_pool: int, k: int) -> str:
    """One record, as ``save_table`` packs it and ``load_table`` unpacks it:
    the row length k, then k element indices, then k pool ids, each in the
    narrowest unsigned width that holds every value."""
    xc = "H" if n_elements <= 1 << 16 else "I"
    ic = "B" if n_pool <= 1 << 8 else "H" if n_pool <= 1 << 16 else "I"
    return f">I{k}{xc}{k}{ic}"


def save_table(table: KLTable, path) -> None:
    """Write the pool once, then one record per orbit representative, in
    ascending index: the row's x in ascending order and their pool ids. The
    header's ``filled`` field always equals its cutoff: a table that was
    never filled, whose pool ids follow the order its rows were read in,
    raises InvariantViolation, and so does a spherical table."""
    sl = table.slice
    if isinstance(table, _SphericalTable):
        raise InvariantViolation("a spherical table holds the dominant rows only and is never saved")
    if table.filled != sl.cutoff:
        raise InvariantViolation(
            f"only a complete table is saved; this one is filled to length "
            f"{table.filled}, not its cutoff {sl.cutoff}"
        )
    reps, _ = table.orbit_plan()
    rs = sl.rs
    parts = [
        struct.pack(
            _TABLE_HEAD,
            rs.type_label.encode(),
            rs.rank,
            1 if sl.affine else 0,
            sl.cutoff,
            sl.cutoff,
            len(table.pool),
            len(reps),
        )
    ]
    for t in table.pool:
        parts.append(struct.pack(">H", len(t)))
        parts.extend(binio.pack_bigint(v) for v in t)
    for y in reps:
        row = table.rows_for(y)
        xs = sorted(row)
        parts.append(struct.pack(
            _row_format(len(sl), len(table.pool), len(xs)),
            len(xs), *xs, *(row[x] for x in xs),
        ))
    binio.write_frame(path, _TABLE_MAGIC, _TABLE_VERSION, b"".join(parts))


def load_table(path, sl: GroupSlice) -> KLTable:
    """The complete table of ``sl`` stored at ``path``; a file of another
    slice, or one whose header does not claim every row, is rejected. The
    orbit plan is built from ``sl`` and the file read as one record per
    representative, each decoded into its row and checked here, so a file
    with one bad record never loads; every other row is relabelled on its
    first read."""
    buf = binio.read_frame(path, _TABLE_MAGIC, _TABLE_VERSION)
    off = struct.calcsize(_TABLE_HEAD)
    if len(buf) < off:
        raise CacheFormatError(f"{path}: the table header runs past the end of the file")
    lab, rank, aff, cutoff, filled, n_pool, n_records = struct.unpack_from(_TABLE_HEAD, buf, 0)
    if (sl.rs.type_label.encode(), sl.rs.rank, sl.affine, sl.cutoff) != (
        lab,
        rank,
        bool(aff),
        cutoff,
    ):
        raise CacheFormatError(f"{path}: table does not match the provided slice")
    if filled != cutoff:
        raise CacheFormatError(
            f"{path}: table header says filled to length {filled}, not its cutoff {cutoff}"
        )
    table = KLTable(sl)
    try:
        for _ in range(n_pool):
            (nterms,) = struct.unpack_from(">H", buf, off)
            off += 2
            coeffs = []
            for _ in range(nterms):
                v, off = binio.unpack_bigint(buf, off)
                coeffs.append(v)
            table.pool.append(tuple(coeffs))
    except struct.error:
        raise CacheFormatError(f"{path}: the pool runs past the end of the file") from None
    for pid, t in enumerate(table.pool):  # the shape _store guarantees
        if not t or t[0] != 1 or t[-1] == 0 or min(t) < 0:
            raise CacheFormatError(f"{path}: pool entry {pid} is not a KL polynomial")
    table._pool_ids = {t: pid for pid, t in enumerate(table.pool)}
    reps, _ = table.orbit_plan()
    if len(table._pool_ids) != n_pool or n_records != len(reps):
        raise CacheFormatError(f"{path}: pool or row count does not match the slice")
    for y in reps:
        # unpack_from checks the record's size against the buffer before it
        # builds anything, so a forged length allocates nothing
        try:
            (k,) = struct.unpack_from(">I", buf, off)
            fmt = struct.Struct(_row_format(len(sl), n_pool, k))
            record = fmt.unpack_from(buf, off)
        except struct.error:
            raise CacheFormatError(f"{path}: row {y} runs past the end of the file") from None
        xs, ids = record[1 : k + 1], record[k + 1 :]
        if k and (max(xs) >= len(sl) or max(ids) >= n_pool):
            raise CacheFormatError(f"{path}: entry index out of range")
        table.rows[y] = row = dict(zip(xs, ids))
        if len(row) != k:
            raise CacheFormatError(f"{path}: row {y} repeats an element index")
        off += fmt.size
    if off != len(buf):
        raise CacheFormatError(f"{path}: trailing bytes after the last row")
    table.filled = cutoff
    return table
