"""Weyl characters, signed KL character combinations, decomposition matrices,
and complex tensor-product decomposition.

Characters are stored on dominant orbit representatives only;
multiplicities are plain integers, negative values allowed for virtual
characters.

Dominant multiplicities are computed by the Freudenthal recursion, which
at the level of the formula

    ((lam+rho,lam+rho) - (mu+rho,mu+rho)) m_mu = 2 sum_{a>0} sum_{k>=1} m_{mu+ka} (mu+ka, a)

is all-integer: the left factor equals (lam+mu+2rho, lam-mu) with lam-mu
in the root lattice, and (wt, root) pairings are integral. The inner sums
are the string sums S(mu, a) = sum_{k>=1} m_{mu+ka} (mu+ka, a), taken by
the recursion S(mu, a) = S(mu+a, a) + m_{mu+a} (mu+a, a) of Moody and
Patera: the string is climbed only up to the next dominant weight, whose
S was stored when its own multiplicity was computed. The tests keep the
classical alternating-sum definition (Weyl's quotient) as an independent
oracle: cross-multiplied, chi(lam) * A(rho) = A(lam+rho), plus the
per-weight alternating Kostant count.

Tensor products are decomposed by the Brauer-Klimyk rule, which needs the
weights of one factor only: L(lam) (x) L(nu) = sum over the weights mu of
L(lam) of m_mu * sign(w) * L(w(mu+nu+rho) - rho), terms on a wall dropped.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import product as _iproduct
from math import prod
from operator import mul as _mul

from .errors import InvalidSystemError, InvariantViolation
from .klpoly import KLTable
from .rootsys import (
    RootSystemData,
    RootVec,
    Weight,
    check_vector,
    classify_weight,
    dominance_leq,
    is_dominant,
)
from .weylaffine import dot_action, factorize_weight


@dataclass
class Character:
    """W-invariant (virtual) character, stored on dominant representatives."""

    rs: RootSystemData
    dom: dict[Weight, int]

    def dimension(self) -> int:
        return sum(m * len(weyl_orbit(self.rs, wt)) for wt, m in self.dom.items())

    def multiplicity(self, wt) -> int:
        return self.dom.get(dominant_representative(self.rs, tuple(wt)), 0)


# -- orbits -------------------------------------------------------------------


_domrep_cache: dict[RootSystemData, dict[Weight, Weight]] = {}


def dominant_representative(rs: RootSystemData, wt: Weight) -> Weight:
    """The dominant weight in the W-orbit, by sorting with simple reflections."""
    cache = _domrep_cache.setdefault(rs, {})
    got = cache.get(wt)
    if got is not None:
        return got
    v = list(wt)
    _reflect_to_dominant(rs, v)
    out = cache[wt] = tuple(v)
    return out


def _reflect_to_dominant(rs: RootSystemData, v: list[int]) -> int:
    """Move v into the dominant chamber in place by simple reflections.

    Returns the number of reflections, the length of the Weyl group element.
    """
    steps = 0
    while True:
        for i in range(rs.rank):
            if v[i] < 0:
                coeff = v[i]
                for j in range(rs.rank):
                    v[j] -= coeff * rs.cartan[i][j]
                steps += 1
                break
        else:
            return steps


def weyl_orbit(rs: RootSystemData, wt: Weight) -> frozenset:
    cache = _orbit_cache.setdefault(rs, {})
    wt = dominant_representative(rs, tuple(wt))
    got = cache.get(wt)
    if got is not None:
        return got
    seen = {wt}
    stack = [wt]
    while stack:
        v = stack.pop()
        for i in range(rs.rank):
            if v[i] != 0:
                img = tuple(
                    v[j] - v[i] * rs.cartan[i][j] for j in range(rs.rank)
                )
                if img not in seen:
                    seen.add(img)
                    stack.append(img)
    out = frozenset(seen)
    cache[wt] = out
    return out


_orbit_cache: dict[RootSystemData, dict] = {}


# -- dominant weights below a bound ---------------------------------------------


def _dominant_below(rs: RootSystemData, bound: Weight) -> list[tuple[RootVec, Weight]]:
    """(bound - mu in root coordinates, mu) for every dominant mu <= bound,
    in the lexicographic order of the root coordinates.

    The walk runs over all but the last root coordinate; along the last one,
    mu = base - k alpha_last moves every coordinate linearly in k, so its
    dominant stretch is one range of k, read off the signs of alpha_last.
    """
    det = rs.cartan_det
    caps = []
    for c in rs.wt_to_rt_scaled(bound):
        if c < 0:
            return []
        caps.append(c // det)
    last = rs.cartan[-1]  # alpha_last in weight coordinates
    out = []
    for head in _iproduct(*(range(cap + 1) for cap in caps[:-1])):
        base = tuple(b - r for b, r in zip(bound, rs.rt_to_wt(head + (0,))))
        lo, hi = 0, caps[-1]
        for b, a in zip(base, last):
            if a > 0:
                hi = min(hi, b // a)
            elif a < 0:
                lo = max(lo, -(b // -a))
            elif b < 0:
                hi = -1
        for k in range(lo, hi + 1):
            out.append((head + (k,), tuple(b - k * a for b, a in zip(base, last))))
    return out


def dominant_weights_below(rs: RootSystemData, bound: Weight) -> list[Weight]:
    """All dominant mu <= bound (integral dominance order)."""
    if not is_dominant(bound):
        raise InvalidSystemError("bound weight must be dominant")
    return sorted(wt for _, wt in _dominant_below(rs, bound))


# -- Weyl characters -------------------------------------------------------------


def _pair_wt_rt(rs: RootSystemData, wt, rt) -> int:
    """Integral bilinear form value (wt, sum_j rt_j alpha_j)."""
    return sum(rt[j] * rs.symmetrizers[j] * wt[j] for j in range(rs.rank))


_char_cache: dict[tuple, Character] = {}


def weyl_character(rs: RootSystemData, lam: Weight) -> Character:
    """Character of the complex irreducible with highest weight lam."""
    lam = check_vector(rs, lam)
    if not is_dominant(lam):
        raise InvalidSystemError(f"highest weight must be dominant, got {lam}")
    key = (rs.type_label, rs.rank, lam)
    got = _char_cache.get(key)
    if got is not None:
        return got

    # order by distance below lam, the height of lam - mu
    candidates = _dominant_below(rs, lam)
    candidates.sort(key=lambda c: (sum(c[0]), c[1]))
    mults: dict[Weight, int] = {lam: 1}
    # per positive root alpha: its weight coordinates, the coefficients of
    # (wt, alpha) in wt, the step (alpha, alpha) of the arithmetic progression
    # (mu + k*alpha, alpha), and sums[mu] = S(mu, alpha) of each dominant mu done
    root_steps = [
        (rs.pos_roots_wt[a], tuple(map(_mul, rt, rs.symmetrizers)),
         2 * rs._half_norms[a], {lam: 0})
        for a, rt in enumerate(rs.positive_roots)
    ]
    domrep = dominant_representative
    for diff_rt, mu in candidates:
        if mu == lam:
            continue
        denom = _pair_wt_rt(rs, tuple(a + b + 2 for a, b in zip(lam, mu)), diff_rt)
        acc = 0
        for root_wt, form, step, sums in root_steps:
            # S(mu, a) = S(mu + a, a) + m(mu + a) (mu + a, a): climb the string
            # to the first dominant weight, whose S is known, or to its end
            val = sum(map(_mul, form, mu))
            cur = mu
            s = 0
            while True:
                cur = tuple(c + r for c, r in zip(cur, root_wt))
                val += step
                m = mults.get(cur)
                if m is not None:
                    s += m * val + sums[cur]
                    break
                if all(c >= 0 for c in cur):
                    break  # dominant and not below lam: past the end
                m = mults.get(domrep(rs, cur))
                if m is None:
                    break
                s += m * val
            sums[mu] = s
            acc += s
        m_mu, rem = divmod(2 * acc, denom)
        if rem or m_mu <= 0:
            raise InvariantViolation(
                f"Freudenthal step for {mu} below {lam}: 2*{acc}/{denom} "
                "is not a positive integer"
            )
        mults[mu] = m_mu
    char = Character(rs, mults)
    _char_cache[key] = char
    return char


def weyl_dimension(rs: RootSystemData, lam: Weight) -> int:
    """dim of the irreducible with highest weight lam (Weyl's product formula)."""
    lam_rho = tuple(x + 1 for x in lam)
    num = prod(_pair_wt_rt(rs, lam_rho, rt) for rt in rs.positive_roots)
    den = prod(_pair_wt_rt(rs, rs.rho, rt) for rt in rs.positive_roots)
    dim, rem = divmod(num, den)
    if rem:
        raise InvariantViolation(f"Weyl dimension of {lam} is not an integer: {num}/{den}")
    return dim


# -- signed KL character combinations ----------------------------------------------


@dataclass
class KLCharacter:
    """chi-combination sum_y (-1)^(l(w)-l(y)) P_{y,w}(1) chi(y . lam_minus)."""

    rs: RootSystemData
    l: int
    lam: Weight
    lam_minus: Weight
    w_index: int
    terms: list[tuple[Weight, int]]  # (dominant weight, signed coefficient)

    def expand(self) -> Character:
        return _weyl_combination(self.rs, self.terms)


def _weyl_combination(rs: RootSystemData, terms) -> Character:
    """The virtual character sum of coeff * chi(wt) over (wt, coeff) terms."""
    dom: dict[Weight, int] = {}
    for wt, coeff in terms:
        if coeff == 0:
            continue
        for v, m in weyl_character(rs, wt).dom.items():
            s = dom.get(v, 0) + coeff * m
            if s:
                dom[v] = s
            elif v in dom:
                del dom[v]
    return Character(rs, dom)


def chi_kl(rs: RootSystemData, lam: Weight, l: int, table: KLTable) -> KLCharacter:
    """Signed Weyl-character combination attached to a regular dominant weight."""
    lam = tuple(lam)
    if not is_dominant(lam):
        raise InvalidSystemError("chi_kl requires a dominant weight")
    if not classify_weight(rs, lam, l)["regular_l"]:
        raise InvalidSystemError(
            f"{lam} is l-singular at l={l}; singular data is reached via "
            "translation (see extbounds.singular_ext1_report)"
        )
    word, lam_minus = factorize_weight(rs, lam, l)
    sl = table.slice
    w = sl.follow(word)
    lw = sl.length[w]
    terms = []
    for y, pid in sorted(table.rows_for(w).items()):
        if not sl.dominant[y]:
            continue
        sign = 1 if (lw - sl.length[y]) % 2 == 0 else -1
        wt = dot_action(rs, sl.elements[y], lam_minus, l)
        if not is_dominant(wt):
            raise InvariantViolation(f"dominant element {y} gave non-dominant weight {wt}")
        terms.append((wt, sign * sum(table.pool[pid])))
    terms.sort()
    return KLCharacter(rs, l, lam, lam_minus, w, terms)


# -- decomposition matrices ----------------------------------------------------------


@dataclass
class DecompositionMatrix:
    """Signed-KL change of basis on one linkage block and its exact inverse.

    ``weights`` is ordered by element length then normal form. Column j of
    A expands the simple of highest weight weights[j] in Weyl characters:
    A[i][j] = (-1)^(l_j - l_i) P_{i,j}(1). D = A^(-1) is integral,
    unitriangular and entrywise nonnegative; [Delta(nu) : L(mu)] is
    D[row index of mu][column index of nu].
    """

    rs: RootSystemData
    l: int
    lam_minus: Weight
    weights: list[Weight]
    element_indices: list[int]
    a_matrix: tuple[tuple[int, ...], ...]
    d_matrix: tuple[tuple[int, ...], ...]

    def index_of(self, wt) -> int:
        return self.weights.index(tuple(wt))

    def decomposition_number(self, nu, mu) -> int:
        """[Delta(nu) : L(mu)] for block members nu, mu."""
        return self.d_matrix[self.index_of(mu)][self.index_of(nu)]

    def standard_length(self, nu) -> int:
        """Number of simple composition factors of Delta(nu), with multiplicity."""
        j = self.index_of(nu)
        return sum(row[j] for row in self.d_matrix)

    def simple_character(self, mu) -> Character:
        """ch L(mu) expanded from column index_of(mu) of A."""
        j = self.index_of(mu)
        column = (row[j] for row in self.a_matrix)
        return _weyl_combination(self.rs, zip(self.weights, column))


def linkage_block(rs: RootSystemData, seed: Weight, l: int, bound: Weight,
                  table: KLTable):
    """Dominant weights linked to seed inside the ideal {nu <= bound}, with
    their element indices, in index order: by (length, normal form)."""
    _, lam_minus = factorize_weight(rs, seed, l)
    members = []
    for mu in dominant_weights_below(rs, bound):
        word, lm = factorize_weight(rs, mu, l)
        if lm != lam_minus:
            continue
        members.append((table.slice.follow(word), mu))
    members.sort()
    return lam_minus, [(mu, idx) for idx, mu in members]


def decomposition_matrix(rs: RootSystemData, seed: Weight, l: int,
                         bound: Weight | None = None, *,
                         table: KLTable) -> DecompositionMatrix:
    """Exact unitriangular inversion of the signed P(1) matrix on a block."""
    seed = tuple(seed)
    if bound is None:
        bound = seed
    bound = tuple(bound)
    if not dominance_leq(rs, seed, bound):
        raise InvalidSystemError("bound must dominate the seed weight (ideal cutoff)")
    if not classify_weight(rs, seed, l)["regular_l"]:
        raise InvalidSystemError(f"decomposition matrix needs a regular seed, got {seed}")
    lam_minus, members = linkage_block(rs, seed, l, bound, table)
    sl = table.slice
    n = len(members)
    weights = [mu for mu, _ in members]
    indices = [idx for _, idx in members]
    a = [[0] * n for _ in range(n)]
    for j in range(n):
        row_j = table.rows_for(indices[j])
        lj = sl.length[indices[j]]
        for i in range(n):
            pid = row_j.get(indices[i])
            if pid is None:
                continue
            sign = 1 if (lj - sl.length[indices[i]]) % 2 == 0 else -1
            a[i][j] = sign * sum(table.pool[pid])
    # back-substitution inverse of a unitriangular integer matrix
    d = [[int(i == j) for j in range(n)] for i in range(n)]
    for j in range(n):
        for i in range(j - 1, -1, -1):
            s = sum(a[i][k] * d[k][j] for k in range(i + 1, j + 1))
            d[i][j] = -s
    # exactness and positivity are hard guarantees; fail loudly
    for i in range(n):
        for j in range(n):
            chk = sum(a[i][k] * d[k][j] for k in range(n))
            if chk != int(i == j):
                raise InvariantViolation("A*D != I in decomposition matrix")
            if d[i][j] < 0:
                raise InvariantViolation(
                    f"negative decomposition number D[{i}][{j}] = {d[i][j]}"
                )
    return DecompositionMatrix(
        rs, l, lam_minus, weights, indices,
        tuple(tuple(r) for r in a), tuple(tuple(r) for r in d),
    )


# -- tensor products ------------------------------------------------------------------


def tensor_decompose(rs: RootSystemData, lam: Weight, nu: Weight) -> dict[Weight, int]:
    """Multiplicities of each simple in L(lam) (x) L(nu), by Brauer-Klimyk.

    Each weight mu of the smaller factor, with multiplicity m, contributes
    sign(w) * m to L(w(mu + nu + rho) - rho), where w moves mu + nu + rho
    into the dominant chamber; a term whose shifted weight lies on a wall
    is dropped, since it cancels.
    """
    lam = check_vector(rs, lam)
    nu = check_vector(rs, nu)
    if not (is_dominant(lam) and is_dominant(nu)):
        raise InvalidSystemError(f"highest weights must be dominant, got {lam}, {nu}")
    if weyl_dimension(rs, lam) > weyl_dimension(rs, nu):
        lam, nu = nu, lam
    out: dict[Weight, int] = {}
    for wt, m in weyl_character(rs, lam).dom.items():
        for mu in weyl_orbit(rs, wt):
            x = [a + b + 1 for a, b in zip(mu, nu)]
            length = _reflect_to_dominant(rs, x)
            if 0 in x:
                continue
            tau = tuple(c - 1 for c in x)
            out[tau] = out.get(tau, 0) + (-m if length % 2 else m)
    if any(v < 0 for v in out.values()):
        raise InvariantViolation(f"negative tensor multiplicity in {lam} (x) {nu}")
    return dict(sorted((tau, v) for tau, v in out.items() if v))
