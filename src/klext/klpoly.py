"""Kazhdan-Lusztig polynomial tables over a GroupSlice, with persistence.

Polynomials are stored in the variable q = t^2 (only even t-powers occur),
as sparse maps exponent -> arbitrary-precision integer. The table for a
slice is filled shell by shell in the length of the upper index y; within a
shell every entry depends only on completed shells, so the fill order
inside a shell is irrelevant and a parallel fill is bit-identical to the
sequential one.

The recursion used is the standard descent recursion: for a right descent
s of y and y' = ys,

    P(x,y) = q^(1-c) P(xs,y') + q^c P(x,y') - sum_z mu(z,y') q^((L(y)-L(z))/2) P(x,z)

with c = 1 when xs < x, the sum over z with zs < z. The identity holds for
every x of length <= L(y), producing exact zeros outside the Bruhat
interval, which the tests cross-check against the order itself.
"""

from __future__ import annotations

import struct
from multiprocessing import get_context

from . import binio
from .errors import CacheFormatError, InvalidSystemError, InvariantViolation, SliceCoverageError
from .rootsys import build_root_system
from .weylaffine import GroupSlice, enumerate_slice


class IntPolynomial:
    """Sparse polynomial with integer coefficients and exponents >= 0."""

    __slots__ = ("c",)

    def __init__(self, coeffs=None):
        self.c = {e: v for e, v in (coeffs or {}).items() if v != 0}

    @classmethod
    def zero(cls):
        return cls()

    @classmethod
    def one(cls):
        return cls({0: 1})

    def is_zero(self):
        return not self.c

    def degree(self):
        return max(self.c) if self.c else -1

    def coeff(self, e):
        return self.c.get(e, 0)

    def add(self, other):
        out = dict(self.c)
        for e, v in other.c.items():
            out[e] = out.get(e, 0) + v
        return IntPolynomial(out)

    def sub_scaled_shifted(self, other, scale, shift):
        """self - scale * q^shift * other, the recursion's correction step."""
        out = dict(self.c)
        for e, v in other.c.items():
            out[e + shift] = out.get(e + shift, 0) - scale * v
        return IntPolynomial(out)

    def shifted(self, k):
        return IntPolynomial({e + k: v for e, v in self.c.items()})

    def eval_one(self):
        return sum(self.c.values())

    def items_sorted(self):
        return sorted(self.c.items())

    def __eq__(self, other):
        return isinstance(other, IntPolynomial) and self.c == other.c

    def __hash__(self):
        return hash(tuple(sorted(self.c.items())))

    def __repr__(self):
        if not self.c:
            return "0"
        return " + ".join(
            (f"{v}" if e == 0 else f"{v}*q^{e}" if v != 1 else f"q^{e}")
            for e, v in self.items_sorted()
        )


_ZERO = IntPolynomial.zero()
_ONE = IntPolynomial.one()


class KLTable:
    """Memoized map (x, y) -> P_{x,y} for one enumerated slice.

    rows[y] holds the nonzero polynomials {x: P_{x,y}}; absence means the
    polynomial is zero (equivalently x is not Bruhat-below y). ``filled``
    marks the largest completed length shell, and every query checks it so
    a truncated table can never silently return a wrong value.
    """

    def __init__(self, sl: GroupSlice):
        self.slice = sl
        self.rows: list[dict[int, IntPolynomial] | None] = [None] * len(sl)
        self.filled = -1
        self._mu_rows: dict[int, tuple[tuple[int, int], ...]] = {}

    # -- fill ---------------------------------------------------------------

    def fill(self, upto: int | None = None, workers: int = 1) -> None:
        top = self.slice.cutoff if upto is None else upto
        if top > self.slice.cutoff:
            raise SliceCoverageError(
                f"table fill to length {top} needs a slice cutoff >= {top}; "
                f"enlarge cutoff (current {self.slice.cutoff})"
            )
        ctx = get_context("fork") if workers > 1 else None
        for level in range(self.filled + 1, top + 1):
            shell = self.slice.shell(level)
            if workers > 1 and len(shell) > 1:
                chunks = [shell[i::workers] for i in range(workers)]
                chunks = [c for c in chunks if c]
                global _FILL_STATE
                _FILL_STATE = self
                with ctx.Pool(len(chunks)) as pool:
                    results = pool.map(_fill_chunk, chunks)
                _FILL_STATE = None
                merged = {}
                for part in results:
                    merged.update(part)
                for y in shell:
                    self.rows[y] = {
                        x: IntPolynomial(dict(items)) for x, items in merged[y]
                    }
            else:
                for y in shell:
                    self.rows[y] = self._compute_row(y)
            self.filled = level

    def _compute_row(self, y: int, descent_choice=None) -> dict[int, IntPolynomial]:
        sl = self.slice
        ly = sl.length[y]
        if ly == 0:
            return {y: _ONE}
        descents = sl.right_descents(y)
        s = descents[0] if descent_choice is None else descent_choice(y, descents)
        yp = sl.right[y][s]
        row_yp = self.rows_for(yp)
        corrections = [
            (self.rows_for(z), m, (ly - sl.length[z]) // 2)
            for z, m in self.mu_row(yp)
            if sl.length[sl.right[z][s]] < sl.length[z]
        ]
        row: dict[int, IntPolynomial] = {y: _ONE}
        for x in range(len(sl)):
            lx = sl.length[x]
            if lx >= ly:
                continue  # P is delta_{x,y} on and above the diagonal shell
            xs = sl.right[x][s]
            if xs == -1:
                raise InvariantViolation(f"descent neighbor of {x} left the slice")
            p_xs = row_yp.get(xs, _ZERO)
            p_x = row_yp.get(x, _ZERO)
            if sl.length[xs] < lx:
                acc = p_xs.add(p_x.shifted(1))
            else:
                acc = p_xs.shifted(1).add(p_x)
            for row_z, m, shift in corrections:
                p_xz = row_z.get(x)
                if p_xz is not None:
                    acc = acc.sub_scaled_shifted(p_xz, m, shift)
            if acc.is_zero():
                continue
            # KL axioms double as integrity checks of the recursion: constant
            # term 1, positive coefficients, degree bound
            if (acc.coeff(0) != 1 or min(acc.c.values()) <= 0
                    or 2 * acc.degree() > ly - lx - 1):
                raise InvariantViolation(f"KL axioms broken at ({x},{y}): P = {acc}")
            row[x] = acc
        return row

    def rows_for(self, y: int) -> dict[int, IntPolynomial]:
        row = self.rows[y]
        if row is None:
            raise SliceCoverageError(
                f"row {y} (length {self.slice.length[y]}) not filled; "
                f"fill the table to length {self.slice.length[y]} first"
            )
        return row

    def mu_row(self, y: int) -> tuple[tuple[int, int], ...]:
        """All (z, mu(z, y)) with nonzero mu and z < y."""
        cached = self._mu_rows.get(y)
        if cached is not None:
            return cached
        sl = self.slice
        ly = sl.length[y]
        out = []
        for z, pol in self.rows_for(y).items():
            gap = ly - sl.length[z]
            if gap <= 0 or gap % 2 == 0:
                continue
            top = pol.coeff((gap - 1) // 2)
            if top:
                out.append((z, top))
        out.sort()
        res = tuple(out)
        self._mu_rows[y] = res
        return res


_FILL_STATE: KLTable | None = None


def _fill_chunk(ys):
    table = _FILL_STATE
    out = {}
    for y in ys:
        row = table._compute_row(y)
        out[y] = sorted((x, tuple(sorted(p.c.items()))) for x, p in row.items())
    return out


# -- queries -------------------------------------------------------------------


def kl_polynomial(table: KLTable, x: int, y: int) -> IntPolynomial:
    """P_{x,y} in q; the zero polynomial unless x <= y in Bruhat order."""
    table.slice.check_index(x, y)
    return table.rows_for(y).get(x, _ZERO)


def mu(table: KLTable, x: int, y: int) -> int:
    """Top KL coefficient, symmetrized: mu(x,y) = mu(y,x), 0 on the diagonal."""
    sl = table.slice
    sl.check_index(x, y)
    if sl.length[x] > sl.length[y]:
        x, y = y, x
    gap = sl.length[y] - sl.length[x]
    if x == y or gap % 2 == 0:
        return 0
    return table.rows_for(y).get(x, _ZERO).coeff((gap - 1) // 2)


def kl_coefficient(table: KLTable, x: int, y: int, m: int) -> int:
    """Coefficient of t^m of P_{x,y} under q = t^2 (odd m give 0)."""
    if m < 0 or m % 2:
        return 0
    return kl_polynomial(table, x, y).coeff(m // 2)


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
    saturated = sl.length[x] + window <= min(table.filled, sl.cutoff)
    return total, saturated


def kl_coefficient_sum(table: KLTable, y: int, m: int) -> int:
    """Sum over dominant x <= y of the t-coefficient c[len(y)-len(x)-m].

    The index set is finite and contained in any slice containing y, so
    the value is always exact.
    """
    sl = table.slice
    sl.check_index(y)
    ly = sl.length[y]
    total = 0
    for x, pol in table.rows_for(y).items():
        if not sl.dominant[x]:
            continue
        e = ly - sl.length[x] - m
        if e < 0 or e % 2:
            continue
        total += pol.coeff(e // 2)
    return total


def max_mu_dominant(table: KLTable) -> int:
    """Largest mu over dominant pairs in the filled part of the table."""
    sl = table.slice
    best = 0
    for y in range(len(sl)):
        if sl.length[y] > table.filled:
            continue
        for z, m in table.mu_row(y):
            if sl.dominant[y] and sl.dominant[z]:
                best = max(best, m)
    return best


def max_top_coefficient(table: KLTable, m: int, dominant_only: bool = True) -> int:
    """Largest coefficient c[len(y)-len(x)-m] over (dominant) pairs x <= y."""
    sl = table.slice
    best = 0
    for y in range(len(sl)):
        if sl.length[y] > table.filled:
            continue
        if dominant_only and not sl.dominant[y]:
            continue
        ly = sl.length[y]
        for x, pol in table.rows_for(y).items():
            if dominant_only and not sl.dominant[x]:
                continue
            e = ly - sl.length[x] - m
            if e < 0 or e % 2:
                continue
            best = max(best, pol.coeff(e // 2))
    return best


def kl_polynomial_recomputed(table: KLTable, x: int, y: int, rng) -> IntPolynomial:
    """Recompute P_{x,y} from scratch with randomized descent choices.

    Uses its own memo (never the table's rows), so the result is an
    independent derivation; the descent-choice independence of the
    recursion makes it equal to the stored polynomial.
    """
    sl = table.slice
    memo: dict[int, dict[int, IntPolynomial]] = {}

    def row_of(yy: int) -> dict[int, IntPolynomial]:
        got = memo.get(yy)
        if got is not None:
            return got
        if sl.length[yy] == 0:
            memo[yy] = {yy: _ONE}
            return memo[yy]
        descents = sl.right_descents(yy)
        s = rng.choice(descents)
        yp = sl.right[yy][s]
        row_yp = row_of(yp)
        lyp = sl.length[yp]
        murow = []
        for z, pol in row_yp.items():
            gap = lyp - sl.length[z]
            if gap > 0 and gap % 2:
                top = pol.coeff((gap - 1) // 2)
                if top:
                    murow.append((z, top))
        lyy = sl.length[yy]
        row: dict[int, IntPolynomial] = {yy: _ONE}
        for xx in range(len(sl)):
            if sl.length[xx] >= lyy:
                continue
            xs = sl.right[xx][s]
            p_xs = row_yp.get(xs, _ZERO)
            p_x = row_yp.get(xx, _ZERO)
            if sl.length[xs] < sl.length[xx]:
                acc = p_xs.add(p_x.shifted(1))
            else:
                acc = p_xs.shifted(1).add(p_x)
            for z, m in murow:
                if sl.length[sl.right[z][s]] >= sl.length[z]:
                    continue
                p_xz = row_of(z).get(xx, _ZERO)
                if not p_xz.is_zero():
                    acc = acc.sub_scaled_shifted(p_xz, m, (lyy - sl.length[z]) // 2)
            if not acc.is_zero():
                row[xx] = acc
        memo[yy] = row
        return row

    return row_of(y).get(x, _ZERO)


# -- persistence ----------------------------------------------------------------

_TABLE_MAGIC = b"KLXTABLE"
_TABLE_VERSION = 1


def save_table(table: KLTable, path) -> None:
    sl = table.slice
    rs = sl.rs
    entries = []
    for y in range(len(sl)):
        if sl.length[y] > table.filled or table.rows[y] is None:
            continue
        for x in sorted(table.rows[y]):
            entries.append((y, x, table.rows[y][x]))
    entries.sort()
    parts = [
        struct.pack(
            ">cHBIiQ",
            rs.type_label.encode(),
            rs.rank,
            1 if sl.affine else 0,
            sl.cutoff,
            table.filled,
            len(entries),
        )
    ]
    for y, x, pol in entries:
        items = pol.items_sorted()
        parts.append(struct.pack(">IIH", y, x, len(items)))
        for e, v in items:
            parts.append(struct.pack(">H", e))
            parts.append(binio.pack_bigint(v))
    binio.write_frame(path, _TABLE_MAGIC, _TABLE_VERSION, b"".join(parts))


def load_table(path, sl: GroupSlice | None = None) -> KLTable:
    buf = binio.read_frame(path, _TABLE_MAGIC, _TABLE_VERSION)
    off = 0
    lab, rank, aff, cutoff, filled, n_entries = struct.unpack_from(">cHBIiQ", buf, off)
    off += struct.calcsize(">cHBIiQ")
    if sl is None:
        rs = build_root_system(lab.decode(), rank)
        sl = enumerate_slice(rs, cutoff, affine=bool(aff))
    else:
        if (sl.rs.type_label, sl.rs.rank, sl.affine, sl.cutoff) != (
            lab.decode(),
            rank,
            bool(aff),
            cutoff,
        ):
            raise CacheFormatError(f"{path}: table does not match the provided slice")
    table = KLTable(sl)
    for y in range(len(sl)):
        if sl.length[y] <= filled:
            table.rows[y] = {}
    for _ in range(n_entries):
        y, x, nterms = struct.unpack_from(">IIH", buf, off)
        off += struct.calcsize(">IIH")
        coeffs = {}
        for _ in range(nterms):
            (e,) = struct.unpack_from(">H", buf, off)
            off += 2
            v, off = binio.unpack_bigint(buf, off)
            coeffs[e] = v
        if y >= len(sl.elements):
            raise CacheFormatError(f"{path}: entry index out of range")
        table.rows[y][x] = IntPolynomial(coeffs)
    table.filled = filled
    return table
