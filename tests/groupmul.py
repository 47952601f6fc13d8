"""Group multiplication on normal forms: the tests' oracle for the slice walk.

klext multiplies no group elements after the enumeration: weights factorize
to reduced words and the slice's right table resolves them. This module
recomputes the same elements the long way, by integer matrix products with
each length counted by separating hyperplanes, so that the tests can check
the enumeration, the right table and the factorization against it. Its
elements are this module's own ``AffineElement`` records: klext keeps a
slice as columns, and ``slice_elements`` reads them into records.

Composition is (g*h)(u) = g(h(u)), giving the semidirect-product law
(w1, m1)(w2, m2) = (w1 w2, m1 + w1(m2)); the finite part acts on the
simple-root coordinates of the translation through ``root_action``.
"""

from klext.errors import InvariantViolation
from klext.weylaffine import GroupSlice, _matvec, facet_generators


class AffineElement:
    """Normal form (finite part, root-lattice translation) with its length."""

    __slots__ = ("wmat", "mu", "length")

    def __init__(self, wmat, mu, length):
        self.wmat = wmat
        self.mu = mu
        self.length = length

    def key(self):
        """Canonical sort/identity key: the normal form itself."""
        return (self.wmat, self.mu)

    def __repr__(self):
        return f"AffineElement(mu={self.mu}, len={self.length})"


def identity(rs):
    r = rs.rank
    return AffineElement(tuple(tuple(int(i == j) for j in range(r)) for i in range(r)),
                         (0,) * r, 0)


def slice_elements(sl):
    """The elements of a slice, read off its columns."""
    return [AffineElement(sl.parts[f], mu, ln) for f, mu, ln in zip(sl.part, sl.mu, sl.length)]


def slice_of(rs, cutoff, affine, elements, right, dominant):
    """The ``GroupSlice`` whose columns hold ``elements``, finite parts
    numbered in order of first use as ``enumerate_slice`` numbers them."""
    first = {}
    part = [first.setdefault(g.wmat, len(first)) for g in elements]
    return GroupSlice(rs, cutoff, affine, list(first), part, [g.mu for g in elements],
                      [g.length for g in elements], right, dominant)


def _matmul(a, b):
    n = len(a)
    bt = tuple(zip(*b))
    return tuple(
        tuple(sum(arow[k] * bcol[k] for k in range(n)) for bcol in bt) for arow in a
    )


_root_action_cache = {}


def root_action(rs, wmat):
    """The finite part on simple-root coordinates: column j of R holds the
    root coordinates of W alpha_j; memoised per finite part."""
    cache = _root_action_cache.setdefault(rs, {})
    got = cache.get(wmat)
    if got is None:
        # row j of cartan is alpha_j in weight coordinates
        cols = [rs.wt_to_rt_int(_matvec(wmat, alpha)) for alpha in rs.cartan]
        if None in cols:
            raise InvariantViolation("a finite part moved a root off the root lattice")
        got = cache[wmat] = tuple(zip(*cols))
    return got


def element_length(rs, wmat, mu):
    """Separating-hyperplane count between the fundamental alcove (bounded by
    the walls (u, alpha_i^vee) = 0 and (u, alpha_0^vee) = -1, with interior
    point -rho/h) and its image."""
    h = rs.coxeter_number
    wrho = tuple(sum(row) for row in wmat)  # w(rho): rho is the all-ones vector
    total = 0
    for a in range(rs.num_positive):
        num = h * sum(c * m for c, m in zip(rs.avee_rt[a], mu)) - sum(
            c * w for c, w in zip(rs.avee_wt[a], wrho))
        # the image of the interior point -rho/h never sits on a wall
        if num % h == 0:
            raise InvariantViolation("alcove interior point landed on a hyperplane")
        total += abs(num // h + 1)
    return total


def make_element(rs, wmat, mu):
    mu = tuple(mu)
    return AffineElement(wmat, mu, element_length(rs, wmat, mu))


def reflection(rs, rt, n=0):
    """The affine reflection in the hyperplane (u, alpha^vee) = n."""
    idx, sign = rs.root_index(rt)
    root_wt = rs.pos_roots_wt[idx]
    avee_w = rs.avee_wt[idx]
    r = rs.rank
    wmat = tuple(
        tuple(int(j == k) - root_wt[j] * avee_w[k] for k in range(r)) for j in range(r)
    )
    return make_element(rs, wmat, tuple(n * sign * c for c in rs.positive_roots[idx]))


def generators(rs, affine=True):
    """Simple reflections, plus s_{alpha_0,-1} when affine: generator t of
    ``GroupSlice``."""
    simple = [tuple(int(i == j) for j in range(rs.rank)) for i in range(rs.rank)]
    gens = [reflection(rs, rt, 0) for rt in simple]
    if affine:
        gens.append(reflection(rs, rs.max_short_root, -1))
    return gens


def multiply(rs, g, h):
    mu = tuple(a + b for a, b in zip(g.mu, _matvec(root_action(rs, g.wmat), h.mu)))
    return make_element(rs, _matmul(g.wmat, h.wmat), mu)


def longest_finite_element(rs):
    """w_0, built by sorting rho into the antidominant chamber."""
    gens = generators(rs, affine=False)
    v = list(rs.rho)
    out = identity(rs)
    while True:
        for i in range(rs.rank):
            if v[i] > 0:
                v = list(_matvec(gens[i].wmat, v))
                out = multiply(rs, out, gens[i])
                break
        else:
            return out


def factorize_by_multiply(rs, lam, l):
    """(g, lam_minus) as ``klext.weylaffine.factorize_weight`` defines them,
    with g built by multiplication: the greedy alcove reduction, then g
    pushed down to the minimal element of its coset g W_J and multiplied by
    the longest element of W_J, each found by comparing lengths."""
    gens = generators(rs, affine=True)
    a0 = rs._max_short_index
    v = [c + 1 for c in lam]
    g = identity(rs)
    while True:
        i = next((i for i in range(rs.rank) if v[i] > 0), None)
        if i is not None:
            v = list(_matvec(gens[i].wmat, v))
            g = multiply(rs, g, gens[i])
            continue
        pair0 = sum(rs.avee_wt[a0][k] * v[k] for k in range(rs.rank))
        if pair0 >= -l:
            break
        # the level-scaled affine generator s_{alpha_0,-l}
        v = [v[k] - (pair0 + l) * rs.pos_roots_wt[a0][k] for k in range(rs.rank)]
        g = multiply(rs, g, gens[rs.rank])
    lam_minus = tuple(c - 1 for c in v)
    sub = [gens[t] for t in facet_generators(rs, lam_minus, l)]
    if sub:
        g = _extreme(rs, g, sub, shorter=True)
        g = multiply(rs, g, _extreme(rs, identity(rs), sub, shorter=False))
    return g, lam_minus


def _extreme(rs, g, sub, shorter):
    """Multiply g on the right by generators of ``sub`` while the length
    falls (``shorter``) or rises, until no generator does."""
    changed = True
    while changed:
        changed = False
        for s in sub:
            cand = multiply(rs, g, s)
            if (cand.length < g.length if shorter else cand.length > g.length):
                g = cand
                changed = True
    return g


def coset(rs, g, gen_ids):
    """The elements g w for w in the subgroup generated by ``gen_ids``."""
    gens = generators(rs, affine=True)
    e = identity(rs)
    group = {e.key(): e}
    stack = [e]
    while stack:
        a = stack.pop()
        for t in gen_ids:
            p = multiply(rs, a, gens[t])
            if p.key() not in group:
                group[p.key()] = p
                stack.append(p)
    return [multiply(rs, g, w) for w in group.values()]
