"""Exact root-system and weight-lattice arithmetic for the finite types A-G.

Two coordinate systems are used throughout the package:

* weights are integer tuples in the fundamental-weight basis, so entry i
  of a weight ``wt`` is the pairing ``(wt, alpha_i^vee)`` with the i-th
  simple coroot;
* roots (and root-lattice translations) are integer tuples in the
  simple-root basis.

The Cartan matrix convention is ``cartan[i][j] = (alpha_i, alpha_j^vee)``,
so row i of the Cartan matrix is the fundamental-coordinate vector of the
simple root alpha_i. All arithmetic is in integers: the one rational basis
change, from weight to root coordinates, is kept as the integer adjugate
adj(C) = det(C) C^-1.

Positive roots are generated by closure under addition from the simple
roots using only Cartan integers (root strings); no tables beyond the
Cartan matrices are hard-coded. Scalar invariants (Coxeter number, Weyl
group order, torsion exponent of the weight/root lattice quotient) are
recomputed from that data and cross-validated at construction time; the
adjugate is checked by C adj(C) = det(C) I.
"""

from __future__ import annotations

from itertools import accumulate as _accumulate
from math import factorial, gcd as _gcd, prod
from operator import add as _add, mul as _mul

from .errors import InvalidSystemError, InvariantViolation, ResourceCapError

Weight = tuple[int, ...]
RootVec = tuple[int, ...]

_VALID_RANKS = {
    "A": (1, None, "type A requires rank >= 1"),
    "B": (2, None, "type B requires rank >= 2"),
    "C": (2, None, "type C requires rank >= 2"),
    "D": (3, None, "type D requires rank >= 3"),
    "E": (6, 8, "type E requires rank in {6, 7, 8}"),
    "F": (4, 4, "type F requires rank 4"),
    "G": (2, 2, "type G requires rank 2"),
}


def _cartan_matrix(type_label: str, rank: int) -> list[list[int]]:
    m = [[2 if i == j else 0 for j in range(rank)] for i in range(rank)]

    def bond(i, j, cij=-1, cji=-1):
        m[i][j] = cij
        m[j][i] = cji

    if type_label == "A":
        for i in range(rank - 1):
            bond(i, i + 1)
    elif type_label == "B":
        for i in range(rank - 2):
            bond(i, i + 1)
        bond(rank - 2, rank - 1, -2, -1)  # last simple root is short
    elif type_label == "C":
        for i in range(rank - 2):
            bond(i, i + 1)
        bond(rank - 2, rank - 1, -1, -2)  # last simple root is long
    elif type_label == "D":
        for i in range(rank - 2):
            bond(i, i + 1)
        bond(rank - 3, rank - 1)
    elif type_label == "E":
        chain = [0, 2, 3, 4, 5, 6, 7][: rank - 1]
        for a, b in zip(chain, chain[1:]):
            bond(a, b)
        bond(1, 3)
    elif type_label == "F":
        bond(0, 1)
        bond(1, 2, -2, -1)  # alpha_1, alpha_2 long; alpha_3, alpha_4 short
        bond(2, 3)
    elif type_label == "G":
        bond(0, 1, -1, -3)  # alpha_1 short, alpha_2 long
    return m


def _symmetrizers(cartan) -> tuple[int, ...]:
    """Integers d_i = (alpha_i, alpha_i)/2, normalized so short roots get 1."""
    rank = len(cartan)
    d = [0] * rank
    # a start divisible by every off-diagonal entry keeps each quotient integral
    d[0] = prod(-c for row in cartan for c in row if c < 0)
    todo = [0]
    while todo:
        i = todo.pop()
        for j in range(rank):
            if j != i and cartan[i][j] != 0 and not d[j]:
                # symmetry of the form: d_j * c[i][j] == d_i * c[j][i]
                d[j], rem = divmod(d[i] * cartan[j][i], cartan[i][j])
                if rem:
                    raise InvalidSystemError("non-integral symmetrizers; bad Cartan data")
                todo.append(j)
    if not all(d):
        raise InvalidSystemError("Dynkin diagram is not connected")
    g = _gcd(*d)
    out = tuple(x // g for x in d)
    if min(out) != 1:
        raise InvalidSystemError("non-integral symmetrizers; bad Cartan data")
    return out


def _generate_positive_roots(cartan) -> list[RootVec]:
    """Closure under addition from the simple roots (root-string criterion)."""
    rank = len(cartan)
    simple = [tuple(int(i == j) for j in range(rank)) for i in range(rank)]
    known = set(simple)
    shell = list(simple)
    ordered = list(simple)
    while shell:
        nxt = []
        for beta in shell:
            for i in range(rank):
                pairing = sum(beta[j] * cartan[j][i] for j in range(rank))
                down = list(beta)
                p = 0
                while True:
                    down[i] -= 1
                    if tuple(down) not in known:
                        break
                    p += 1
                if p - pairing > 0:
                    up = list(beta)
                    up[i] += 1
                    cand = tuple(up)
                    if cand not in known:
                        known.add(cand)
                        nxt.append(cand)
                        ordered.append(cand)
        shell = nxt
    return ordered


def _int_det(matrix) -> int:
    """Determinant over Z via fraction-free Bareiss elimination; 1 at size 0."""
    n = len(matrix)
    m = [list(row) for row in matrix]
    sign = 1
    prev = 1
    for k in range(n - 1):
        if m[k][k] == 0:
            for r in range(k + 1, n):
                if m[r][k] != 0:
                    m[k], m[r] = m[r], m[k]
                    sign = -sign
                    break
            else:
                return 0
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                m[i][j] = (m[i][j] * m[k][k] - m[i][k] * m[k][j]) // prev
        prev = m[k][k]
    return sign * m[n - 1][n - 1] if n else 1


def _adjugate(matrix) -> list[list[int]]:
    """adj(M) over Z by cofactors, so that M adj(M) = det(M) I; [[1]] at rank 1."""
    n = len(matrix)
    # entry (i, j) is the signed minor without row j and column i
    return [
        [(-1) ** (i + j) * _int_det([r[:i] + r[i + 1:] for k, r in enumerate(matrix) if k != j])
         for j in range(n)]
        for i in range(n)
    ]


class RootSystemData:
    """Immutable root/weight-lattice datum for one irreducible type.

    Instances are built by :func:`build_root_system`; all fields and the
    precomputed pairing tables are then frozen by convention. Operations
    are pure functions of the stored data, so a single instance is safe
    for unrestricted concurrent use.
    """

    def __init__(self, type_label: str, rank: int):
        lo, hi, msg = _VALID_RANKS.get(type_label, (None, None, None))
        if lo is None:
            raise InvalidSystemError(
                f"unknown type {type_label!r}: expected one of A, B, C, D, E, F, G"
            )
        if rank < lo or (hi is not None and rank > hi):
            raise InvalidSystemError(f"invalid rank {rank} for type {type_label}: {msg}")

        self.type_label = type_label
        self.rank = rank
        self.cartan: tuple[tuple[int, ...], ...] = tuple(
            tuple(row) for row in _cartan_matrix(type_label, rank)
        )
        self._cartan_cols = tuple(zip(*self.cartan))
        self.symmetrizers = _symmetrizers(self.cartan)
        self.positive_roots: tuple[RootVec, ...] = tuple(_generate_positive_roots(self.cartan))
        self.num_positive = len(self.positive_roots)
        self.num_roots = 2 * self.num_positive
        self.rho: Weight = (1,) * rank

        # weight -> root basis change: the root coordinates of wt are the row
        # vector wt . C^-1, kept as wt . adj(C) = det(C) wt . C^-1 in Z
        det = self.cartan_det = _int_det(self.cartan)
        if det <= 0:
            raise InvalidSystemError(f"Cartan matrix has determinant {det}, not positive")
        adj = _adjugate(self.cartan)
        self._scaled_cols = tuple(zip(*adj))
        if any(
            sum(map(_mul, row, col)) != det * (i == j)
            for i, row in enumerate(self.cartan)
            for j, col in enumerate(self._scaled_cols)
        ):
            raise InvariantViolation("C adj(C) differs from det(C) I")
        # exponent of P/Q: the least t with t C^-1 = t adj(C) / det(C) integral
        self.torsion_exponent = det // _gcd(det, *(x for row in adj for x in row))

        # (alpha, alpha)/2 per positive root, in the short-root-is-1 scale
        self._half_norms = tuple(self._half_norm(rt) for rt in self.positive_roots)
        d_min = min(self._half_norms)

        # pairing tables per positive root:
        #   avee_wt[a][k]: (wt, alpha_a^vee) = sum_k avee_wt[a][k] * wt[k]
        #   avee_rt[a][j]: (root c, alpha_a^vee) = sum_j avee_rt[a][j] * c[j]
        avee_wt = []
        avee_rt = []
        for a, rt in enumerate(self.positive_roots):
            da = self._half_norms[a]
            wt_row = []
            for k in range(rank):
                num = rt[k] * self.symmetrizers[k]
                if num % da:
                    raise InvalidSystemError("coroot expansion is not integral")
                wt_row.append(num // da)
            rt_row = []
            for j in range(rank):
                num = sum(rt[k] * self.symmetrizers[k] * self.cartan[j][k] for k in range(rank))
                if num % da:
                    raise InvalidSystemError("root pairing is not integral")
                rt_row.append(num // da)
            avee_wt.append(tuple(wt_row))
            avee_rt.append(tuple(rt_row))
        self.avee_wt = tuple(avee_wt)
        self.avee_rt = tuple(avee_rt)

        # weight-basis coordinates of each positive root (row i of cartan is
        # alpha_i), plus a lookup of +-root by weight coordinates
        self.pos_roots_wt = tuple(self.rt_to_wt(rt) for rt in self.positive_roots)
        self._root_lookup: dict[Weight, tuple[int, int]] = {}
        for a, wt in enumerate(self.pos_roots_wt):
            self._root_lookup[wt] = (a, +1)
            self._root_lookup[tuple(-x for x in wt)] = (a, -1)

        # highest root: the unique positive root of maximal height
        heights = [sum(rt) for rt in self.positive_roots]
        hmax = max(heights)
        tops = [rt for rt, ht in zip(self.positive_roots, heights) if ht == hmax]
        if len(tops) != 1:
            raise InvalidSystemError("highest root is not unique; bad Cartan data")
        self.max_root: RootVec = tops[0]

        # highest short root: the unique dominant root of minimal length
        shorts = [
            rt
            for rt, hn in zip(self.positive_roots, self._half_norms)
            if hn == d_min and all(x >= 0 for x in self.rt_to_wt(rt))
        ]
        if len(shorts) != 1:
            raise InvalidSystemError("maximal short root is not unique; bad Cartan data")
        self.max_short_root: RootVec = shorts[0]
        self._max_short_index = self.positive_roots.index(self.max_short_root)

        self.coxeter_number = 1 + sum(self.avee_wt[self._max_short_index])
        # cross-validate: h = height of the highest root + 1, and |Phi| = rank*h
        if self.coxeter_number != sum(self.max_root) + 1:
            raise InvalidSystemError("Coxeter number cross-check failed")
        if self.num_roots != rank * self.coxeter_number:
            raise InvalidSystemError("root count cross-check |Phi| = rank*h failed")

        self.weyl_order = det * factorial(rank) * prod(self.max_root)

        self._kostant_cache: dict[RootVec, int] = {}

    # -- basis conversions -------------------------------------------------

    def rt_to_wt(self, rt) -> Weight:
        """Fundamental-weight coordinates of a root-basis vector."""
        return tuple([sum([rt[i] * c for i, c in enumerate(col)]) for col in self._cartan_cols])

    def wt_to_rt_scaled(self, wt) -> tuple[int, ...]:
        """det(C) times the simple-root coordinates of a weight, as integers.

        det(C) > 0, so sums and sign tests read the same as on the rational
        coordinates wt . C^-1.
        """
        return tuple(sum(a * b for a, b in zip(wt, col)) for col in self._scaled_cols)

    def wt_to_rt_int(self, wt) -> tuple[int, ...] | None:
        """Integer simple-root coordinates of a root-lattice weight, else None."""
        d = self.cartan_det
        scaled = self.wt_to_rt_scaled(wt)
        if any(c % d for c in scaled):
            return None
        return tuple(c // d for c in scaled)

    def _half_norm(self, rt) -> int:
        two_norm = sum(
            rt[i] * rt[j] * self.symmetrizers[j] * self.cartan[i][j]
            for i in range(self.rank)
            for j in range(self.rank)
        )
        if two_norm <= 0 or two_norm % 2:
            raise InvalidSystemError("root norm must be a positive even integer")
        return two_norm // 2

    def root_index(self, rt) -> tuple[int, int]:
        """(positive-root index, sign) of a +-root given in root coordinates."""
        wt = self.rt_to_wt(rt)
        try:
            return self._root_lookup[wt]
        except KeyError:
            raise InvalidSystemError(f"{rt} is not a root of {self.type_label}{self.rank}")

    def __repr__(self):
        return f"RootSystemData({self.type_label}{self.rank})"

    def __eq__(self, other):
        return (
            isinstance(other, RootSystemData)
            and other.type_label == self.type_label
            and other.rank == self.rank
        )

    def __hash__(self):
        return hash((self.type_label, self.rank))


_SYSTEM_CACHE: dict[tuple[str, int], RootSystemData] = {}


def build_root_system(type_label: str, rank: int) -> RootSystemData:
    """Construct (and cache) the root system of the given irreducible type."""
    key = (str(type_label).upper(), int(rank))
    if key not in _SYSTEM_CACHE:
        _SYSTEM_CACHE[key] = RootSystemData(*key)
    return _SYSTEM_CACHE[key]


# -- pairings and order relations -----------------------------------------


def pairing(rs: RootSystemData, wt, rt) -> int:
    """Exact integer (wt, alpha^vee) for a root alpha given in root coordinates."""
    if len(wt) != rs.rank or len(rt) != rs.rank:
        raise InvalidSystemError("dimension mismatch in pairing")
    idx, sign = rs.root_index(rt)
    return sign * sum(c * x for c, x in zip(rs.avee_wt[idx], wt))


def is_dominant(wt) -> bool:
    return all(x >= 0 for x in wt)


def dominance_leq(rs: RootSystemData, lam, nu, variant: str = "integral") -> bool:
    """nu - lam is a nonnegative integral (or rational) combination of simple roots."""
    if variant not in ("integral", "rational"):
        raise InvalidSystemError(f"unknown dominance variant {variant!r}")
    diff = tuple(b - a for a, b in zip(lam, nu))
    if variant == "integral":
        coords = rs.wt_to_rt_int(diff)
        return coords is not None and all(c >= 0 for c in coords)
    return all(c >= 0 for c in rs.wt_to_rt_scaled(diff))


# -- Kostant partition function -------------------------------------------


# largest coordinate box the Kostant dynamic program may hold in memory: lets
# through P((2h-2) rho) for D4 (1.5e6 points), rejects F4 (6.6e9) and type E
KOSTANT_BOX_CAP = 2_000_000


def check_vector(rs: RootSystemData, vec, what: str = "weight") -> tuple[int, ...]:
    """``vec`` as a tuple of ints, one per simple root of ``rs``.

    Raises InvalidSystemError on a wrong length or a non-integral coordinate.
    """
    out = tuple(vec)
    if len(out) != rs.rank:
        raise InvalidSystemError(
            f"{what} {out} has {len(out)} coordinates, "
            f"{rs.type_label}{rs.rank} needs {rs.rank}"
        )
    try:
        ints = tuple(int(c) for c in out)
    except (TypeError, ValueError, OverflowError):
        ints = None
    if ints != out:
        raise InvalidSystemError(f"{what} {out} has a non-integral coordinate")
    return ints


def kostant_partition(rs: RootSystemData, vec, basis: str = "root") -> int:
    """Number of ways to write ``vec`` as an N-combination of positive roots.

    ``vec`` is interpreted in the given basis ("root" or "weight"); a
    weight-basis input must lie in the root lattice. Returns 0 whenever the
    vector is not a nonnegative combination.
    """
    if basis == "weight":
        target = rs.wt_to_rt_int(check_vector(rs, vec))
        if target is None:
            raise InvalidSystemError("weight does not lie in the root lattice")
    elif basis == "root":
        target = check_vector(rs, vec, "root vector")
    else:
        raise InvalidSystemError(f"unknown basis {basis!r}")

    if any(c < 0 for c in target):
        return 0
    if all(c == 0 for c in target):
        return 1
    if target in rs._kostant_cache:
        return rs._kostant_cache[target]

    # bounded coin-change over the coordinate box below the target, stored
    # flat in mixed radix with the last coordinate fastest, so that one row
    # holds the points that differ only in their last coordinate
    size = prod(t + 1 for t in target)
    if size > KOSTANT_BOX_CAP:
        raise ResourceCapError(
            f"Kostant partition of {target} needs a box of {size} points, "
            f"above the cap of {KOSTANT_BOX_CAP}"
        )
    *lead, last = target
    width = last + 1
    strides = [width * prod(t + 1 for t in lead[i + 1:]) for i in range(len(lead))]
    ways = [0] * size
    ways[0] = 1
    for beta in rs.positive_roots:
        *blead, b = beta
        if not any(blead):
            # the last simple root: a running sum along every row
            for s in range(0, size, width):
                ways[s:s + width] = _accumulate(ways[s:s + width])
            continue
        n = width - b
        if n <= 0:
            continue
        # every row at or above blead takes the row off(beta) below it,
        # shifted by b; rows ascend, so the source row already counts beta
        off = sum(c * st for c, st in zip(blead, strides))
        starts = [b]
        for lo, t, st in zip(blead, lead, strides):
            starts = [s + v * st for s in starts for v in range(lo, t + 1)]
        for d in starts:
            src = d - b - off
            ways[d:d + n] = map(_add, ways[d:d + n], ways[src:src + n])
    result = ways[-1]
    rs._kostant_cache[target] = result
    return result


# -- weight classification --------------------------------------------------


def classify_weight(rs: RootSystemData, lam, l: int, e: int = 1) -> dict:
    """Restriction / regularity / alcove-region flags of a dominant weight.

    restricted_1l:      all coordinates < l
    restricted_el:      all coordinates < l**e
    regular_l:          (lam+rho, alpha^vee) not divisible by l for any root
    in_jantzen_region:  (lam+rho, alpha_0^vee) <= l*(l - h + 2)
    """
    if l < 1:
        raise InvalidSystemError("l must be a positive integer")
    shifted = tuple(x + 1 for x in lam)
    regular = True
    for row in rs.avee_wt:
        val = sum(c * x for c, x in zip(row, shifted))
        if val % l == 0:
            regular = False
            break
    short_pairing = sum(
        c * x for c, x in zip(rs.avee_wt[rs._max_short_index], shifted)
    )
    return {
        "restricted_1l": all(x < l for x in lam),
        "restricted_el": all(x < l**e for x in lam),
        "regular_l": regular,
        "in_jantzen_region": short_pairing <= l * (l - rs.coxeter_number + 2),
    }


# -- weight-level special isogeny C_r -> B_r --------------------------------


def special_isogeny_image(rs_c: RootSystemData, lam) -> Weight:
    """Image of a dominant type-C_r weight under the weight map to type B_r.

    Splits lam into its first r-1 coordinates and its last one, halves the
    first block once (dropping the low binary digit) and doubles back
    through the graded lattice identification phi(w'_i) = 2 w_i (i < r),
    phi(w'_r) = w_r; the last coordinate passes through unchanged.
    """
    if rs_c.type_label != "C":
        raise InvalidSystemError("special isogeny image is defined for type C input")
    if len(lam) != rs_c.rank:
        raise InvalidSystemError("dimension mismatch")
    if not is_dominant(lam):
        raise InvalidSystemError("special isogeny image requires a dominant weight")
    r = rs_c.rank
    return tuple(a // 2 for a in lam[: r - 1]) + (lam[r - 1],)


# -- Frobenius-twist stabilization shift ------------------------------------


def generic_shift(rs: RootSystemData, p: int, n: int) -> int:
    """Twist count after which degree-n cohomology of twisted modules stabilizes.

    Computed as e(c*t*n) + 1 with c the largest coefficient of the highest
    root, t the torsion exponent of the weight/root quotient, and
    e(m) = floor((m-1)/(p-1)) for m >= 1 (0 for m <= 0, so n = 0 gives 1).
    """
    if n < 0:
        raise InvalidSystemError("n must be nonnegative")
    if p < 2:
        raise InvalidSystemError("p must be at least 2")
    c = max(rs.max_root)
    m = c * rs.torsion_exponent * n
    e = (m - 1) // (p - 1) if m >= 1 else 0
    return e + 1


# -- serialization -----------------------------------------------------------


def system_summary(rs: RootSystemData) -> dict:
    """JSON-ready descriptor used by the CLI ``info`` command."""
    return {
        "type": rs.type_label,
        "rank": rs.rank,
        "cartan": [list(row) for row in rs.cartan],
        "positive_roots": [list(rt) for rt in rs.positive_roots],
        "rho": list(rs.rho),
        "h": rs.coxeter_number,
        "num_roots": rs.num_roots,
        "weyl_order": rs.weyl_order,
        "torsion_exponent": rs.torsion_exponent,
        "max_short_root": list(rs.max_short_root),
        "max_root": list(rs.max_root),
    }
