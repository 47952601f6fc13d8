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
S was stored when its own multiplicity was computed. Each climb step adds
the root to the whole weight tuple and moves (mu+ka, a) by the constant
(a, a); the per-root constants and Weyl's denominator are built once per
root system, and the walk that lists the dominant weights below lam steps
its weights by subtracting simple roots. The tests keep the
classical alternating-sum definition (Weyl's quotient) as an independent
oracle: cross-multiplied, chi(lam) * A(rho) = A(lam+rho), plus the
per-weight alternating Kostant count.

Tensor products are decomposed by the Brauer-Klimyk rule, which needs the
weights of one factor only: L(lam) (x) L(nu) = sum over the weights mu of
L(lam) of m_mu * sign(w) * L(w(mu+nu+rho) - rho), terms on a wall dropped.
Each term reflects the tuple mu+nu+rho into the dominant chamber and is
summed under that shifted weight; rho is subtracted once per component.
"""

from __future__ import annotations

from math import prod
from operator import add as _add, mul as _mul, sub as _sub

from .errors import InvalidSystemError, InvariantViolation, ResourceCapError
from .klpoly import KLTable, kl_polynomial
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


class Character:
    """W-invariant (virtual) character, stored on dominant representatives."""

    def __init__(self, rs: RootSystemData, dom: dict[Weight, int]):
        self.rs = rs
        self.dom = dom

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
    out = cache[wt] = _reflect_to_dominant(rs, check_vector(rs, wt))[0]
    return out


def _reflect_to_dominant(rs: RootSystemData, v: Weight) -> tuple[Weight, int]:
    """Move v into the dominant chamber by simple reflections, each at the
    first negative coordinate: the dominant weight and the number of
    reflections, the length of the Weyl group element."""
    cartan = rs.cartan
    steps = 0
    while min(v) < 0:
        for i, c in enumerate(v):
            if c < 0:
                break
        v = tuple([a - c * b for a, b in zip(v, cartan[i])])
        steps += 1
    return v, steps


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
        for c, alpha in zip(v, rs.cartan):
            if c != 0:
                img = tuple([a - c * b for a, b in zip(v, alpha)])
                if img not in seen:
                    seen.add(img)
                    stack.append(img)
    out = frozenset(seen)
    cache[wt] = out
    return out


_orbit_cache: dict[RootSystemData, dict] = {}


# -- dominant weights below a bound ---------------------------------------------


# largest root-coordinate box below a weight that _dominant_below may walk: a
# box point costs about 0.4 KB, so this holds the walk to about 400 MB
DOMINANT_BOX_CAP = 1_000_000


def _dominant_below(rs: RootSystemData, bound: Weight) -> list[tuple[int, Weight, RootVec]]:
    """(height, mu, bound - mu in root coordinates) for every dominant
    mu <= bound, the height being the sum of the root coordinates, in the
    lexicographic order of the root coordinates.

    The walk runs over all but the last root coordinate, stepping the weight
    by subtracting alpha_i; along the last one, mu = base - k alpha_last
    moves every coordinate linearly in k, so its dominant stretch is one
    range of k, read off the signs of alpha_last, and is walked by
    subtracting alpha_last once per step.
    """
    det = rs.cartan_det
    caps = []
    for c in rs.wt_to_rt_scaled(bound):
        if c < 0:
            return []
        caps.append(c // det)
    size = prod(cap + 1 for cap in caps)
    if size > DOMINANT_BOX_CAP:
        raise ResourceCapError(
            f"dominant weights below {tuple(bound)} need a box of {size} points, "
            f"above the cap of {DOMINANT_BOX_CAP}"
        )
    # (root coordinates but the last, bound minus their weight)
    heads = [((), tuple(bound))]
    for cap, alpha in zip(caps[:-1], rs.cartan):  # row i of cartan is alpha_i
        walked = []
        for head, base in heads:
            for c in range(cap + 1):
                walked.append((head + (c,), base))
                base = tuple(map(_sub, base, alpha))
        heads = walked
    last = rs.cartan[-1]
    out = []
    for head, base in heads:
        lo, hi = 0, caps[-1]
        for b, a in zip(base, last):
            if a > 0:
                hi = min(hi, b // a)
            elif a < 0:
                lo = max(lo, -(b // -a))
            elif b < 0:
                hi = -1
        if lo > hi:
            continue
        height = sum(head)
        mu = tuple([b - lo * a for b, a in zip(base, last)])
        for k in range(lo, hi + 1):
            out.append((height + k, mu, head + (k,)))
            mu = tuple(map(_sub, mu, last))
    return out


def dominant_weights_below(rs: RootSystemData, bound: Weight) -> list[Weight]:
    """All dominant mu <= bound (integral dominance order)."""
    bound = check_vector(rs, bound)
    if not is_dominant(bound):
        raise InvalidSystemError("bound weight must be dominant")
    return sorted(wt for _, wt, _ in _dominant_below(rs, bound))


# -- Weyl characters -------------------------------------------------------------


_root_data_cache: dict[RootSystemData, tuple] = {}


def _root_data(rs: RootSystemData) -> tuple:
    """Per positive root alpha: its weight coordinates, the coefficients of
    (wt, alpha) in wt, and the step (alpha, alpha) of the arithmetic
    progression (mu + k*alpha, alpha); then the product of the (rho, alpha),
    Weyl's denominator. Built on first use, once per root system."""
    got = _root_data_cache.get(rs)
    if got is None:
        roots = tuple(
            (rs.pos_roots_wt[a], tuple(map(_mul, rt, rs.symmetrizers)), 2 * rs._half_norms[a])
            for a, rt in enumerate(rs.positive_roots)
        )
        got = _root_data_cache[rs] = (roots, prod(sum(form) for _, form, _ in roots))
    return got


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

    # order by (height of lam - mu, mu): lam comes first
    candidates = _dominant_below(rs, lam)
    candidates.sort()
    mults: dict[Weight, int] = {lam: 1}
    # per positive root, sums[mu] = S(mu, alpha) of each dominant mu done
    roots, _ = _root_data(rs)
    root_steps = [(root_wt, form, step, {lam: 0}) for root_wt, form, step in roots]
    sym = rs.symmetrizers
    lam2 = tuple([x + 2 for x in lam])  # lam + 2 rho
    domreps = _domrep_cache.setdefault(rs, {})
    for _, mu, diff_rt in candidates[1:]:
        # (lam + mu + 2 rho, lam - mu) with lam - mu = diff_rt in root coordinates
        denom = sum(map(_mul, diff_rt, map(_mul, sym, map(_add, lam2, mu))))
        acc = 0
        for root_wt, form, step, sums in root_steps:
            # S(mu, a) = S(mu + a, a) + m(mu + a) (mu + a, a): climb the string
            # to the first dominant weight, whose S is known, or to its end
            val = sum(map(_mul, form, mu))
            cur = mu
            s = 0
            while True:
                cur = tuple(map(_add, cur, root_wt))
                val += step
                m = mults.get(cur)
                if m is not None:
                    s += m * val + sums[cur]
                    break
                if min(cur) >= 0:
                    break  # dominant and not below lam: past the end
                m = mults.get(domreps.get(cur) or dominant_representative(rs, cur))
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
    roots, den = _root_data(rs)
    lam_rho = tuple([c + 1 for c in check_vector(rs, lam)])
    num = prod(sum(map(_mul, form, lam_rho)) for _, form, _ in roots)
    dim, rem = divmod(num, den)
    if rem:
        raise InvariantViolation(f"Weyl dimension of {lam} is not an integer: {num}/{den}")
    return dim


# -- signed KL character combinations ----------------------------------------------


class KLCharacter:
    """chi-combination sum_y (-1)^(l(w)-l(y)) P_{y,w}(1) chi(y . lam_minus)."""

    def __init__(self, rs: RootSystemData, l: int, lam: Weight, lam_minus: Weight,
                 w_index: int, terms: list[tuple[Weight, int]]):
        self.rs = rs
        self.l = l
        self.lam = lam
        self.lam_minus = lam_minus
        self.w_index = w_index
        self.terms = terms  # (dominant weight, signed coefficient)

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
    for y in sorted(table.dominant_row(w)):
        sign = 1 if (lw - sl.length[y]) % 2 == 0 else -1
        wt = dot_action(rs, sl.elements[y], lam_minus, l)
        if not is_dominant(wt):
            raise InvariantViolation(f"dominant element {y} gave non-dominant weight {wt}")
        terms.append((wt, sign * sum(kl_polynomial(table, y, w))))
    terms.sort()
    return KLCharacter(rs, l, lam, lam_minus, w, terms)


# -- decomposition matrices ----------------------------------------------------------


class DecompositionMatrix:
    """Signed-KL change of basis on one linkage block and its exact inverse.

    ``weights`` is ordered by element length then normal form. Column j of
    A expands the simple of highest weight weights[j] in Weyl characters:
    A[i][j] = (-1)^(l_j - l_i) P_{i,j}(1). D = A^(-1) is integral,
    unitriangular and entrywise nonnegative; [Delta(nu) : L(mu)] is
    D[row index of mu][column index of nu].
    """

    def __init__(self, rs: RootSystemData, l: int, lam_minus: Weight,
                 weights: list[Weight], element_indices: list[int],
                 a_matrix: tuple[tuple[int, ...], ...], d_matrix: tuple[tuple[int, ...], ...]):
        self.rs = rs
        self.l = l
        self.lam_minus = lam_minus
        self.weights = weights
        self.element_indices = element_indices
        self.a_matrix = a_matrix
        self.d_matrix = d_matrix

    def index_of(self, wt) -> int:
        return self.weights.index(tuple(wt))

    def decomposition_number(self, nu, mu) -> int:
        """[Delta(nu) : L(mu)] for block members nu, mu."""
        return self.d_matrix[self.index_of(mu)][self.index_of(nu)]

    def standard_length(self, nu) -> int:
        """Number of simple composition factors of Delta(nu), with multiplicity."""
        j = self.index_of(nu)
        return sum(row[j] for row in self.d_matrix)


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
        lj = sl.length[indices[j]]
        for i in range(n):
            sign = 1 if (lj - sl.length[indices[i]]) % 2 == 0 else -1
            a[i][j] = sign * sum(kl_polynomial(table, indices[i], indices[j]))
    # back-substitution inverse of a unitriangular integer matrix
    d = [[int(i == j) for j in range(n)] for i in range(n)]
    for j in range(n):
        for i in range(j - 1, -1, -1):
            s = sum(a[i][k] * d[k][j] for k in range(i + 1, j + 1))
            d[i][j] = -s
    # exactness and positivity are hard guarantees; fail loudly. D is upper
    # unitriangular by construction, so once A is too, (A*D)[i][j] is 0 for
    # i > j and sums over k in [i, j] only
    if any(a[i][i] != 1 or any(a[i][:i]) for i in range(n)):
        raise InvariantViolation("A*D != I in decomposition matrix")
    for i in range(n):
        for j in range(i, n):
            chk = sum(a[i][k] * d[k][j] for k in range(i, j + 1))
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
    nu_rho = tuple([x + 1 for x in nu])
    # keyed by tau + rho, the dominant w(mu + nu + rho), until the end
    out: dict[Weight, int] = {}
    for wt, m in weyl_character(rs, lam).dom.items():
        for mu in weyl_orbit(rs, wt):
            x, length = _reflect_to_dominant(rs, tuple(map(_add, mu, nu_rho)))
            if 0 in x:
                continue
            out[x] = out.get(x, 0) + (-m if length % 2 else m)
    if any(v < 0 for v in out.values()):
        raise InvariantViolation(f"negative tensor multiplicity in {lam} (x) {nu}")
    rho = rs.rho
    return dict(sorted((tuple(map(_sub, x, rho)), v) for x, v in out.items() if v))
