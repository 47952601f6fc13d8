"""Finite and affine Weyl groups in normal form, with alcove geometry.

Group elements are pairs (w, mu) in W x Q acting on the Euclidean space by
u |-> w(u) + mu in the rho-shifted coordinates (so the "dot" action
w.x = w(x+rho) - rho becomes linear). The finite part w is stored as its
integer matrix on fundamental-weight coordinates.

Bounded-length slices are enumerated shell by shell by descent signs
(``_SignWalk``): one wall value per element and generator decides whether
the product goes up or down, and only the upward products are computed. They
give both the next shell and the right-multiplication table. ``GroupSlice``
is the plain record of that walk; the slice file (format version 2) stores
it whole, table included. The file is a function of the request, so loading
checks it by regenerating it: the slice is enumerated again and the file must
equal its payload byte for byte.

A weight factorizes through the closed fundamental alcove as a reduced word
in the generators (``factorize_weight``), by weight arithmetic alone;
``GroupSlice.follow`` resolves the word to an element index through the
right table, one lookup per letter. After the enumeration, the right table
is the only group arithmetic.

Level-l data never enters the group structure: scaling s_{alpha,n} to
s_{alpha,nl} is the isomorphism applied pointwise in ``dot_action``, so a
GroupSlice is reusable for every l.
"""

from __future__ import annotations

import struct
from operator import mul, sub

from . import binio
from .errors import (
    CacheFormatError,
    InvalidSystemError,
    InvariantViolation,
    ResourceCapError,
    SliceCoverageError,
)
from .rootsys import RootSystemData

IntMatrix = tuple[tuple[int, ...], ...]


def _identity_matrix(n: int) -> IntMatrix:
    return tuple(tuple(int(i == j) for j in range(n)) for i in range(n))


def _matvec(m: IntMatrix, v) -> tuple[int, ...]:
    return tuple([sum(map(mul, row, v)) for row in m])


class AffineElement:
    """Normal form (finite part, root-lattice translation) with cached length."""

    __slots__ = ("wmat", "mu", "length")

    def __init__(self, wmat: IntMatrix, mu: tuple[int, ...], length: int):
        self.wmat = wmat
        self.mu = mu
        self.length = length

    def key(self):
        """Canonical sort/identity key: the normal form itself."""
        return (self.wmat, self.mu)

    def __repr__(self):
        return f"AffineElement(mu={self.mu}, len={self.length})"


def identity(rs: RootSystemData) -> AffineElement:
    return AffineElement(_identity_matrix(rs.rank), (0,) * rs.rank, 0)


def dot_action(rs: RootSystemData, g: AffineElement, x, l: int = 1) -> tuple[int, ...]:
    """g . x at level l: scale s_{alpha,n} to s_{alpha,nl}, then w(x+rho)-rho."""
    if l < 1:
        raise InvalidSystemError("level l must be a positive integer")
    shifted = tuple(xi + 1 for xi in x)
    img = _matvec(g.wmat, shifted)
    mu_wt = rs.rt_to_wt(g.mu)
    return tuple(img[i] + l * mu_wt[i] - 1 for i in range(rs.rank))


# -- bounded-length enumeration ---------------------------------------------


class GroupSlice:
    """All elements of length <= cutoff, indexed deterministically.

    Index order is by length shell, then by the lexicographic normal form
    (finite-part matrix, translation); index 0 is the identity. The
    right-multiplication table ``right`` maps (element, generator) -> index,
    with -1 for products that leave the slice; generator t < rank is the
    simple reflection s_t and, in an affine slice, generator rank is
    s_{alpha_0,-1}. ``dominant[i]`` says whether element i
    maps the fundamental alcove into the dominant cone (g . C^- + rho
    dominant, at every level). A slice is a plain record: it is built by
    ``enumerate_slice``, which supplies the table and the dominance flags,
    and it does no group multiplication of its own. ``load_slice`` checks a
    slice file by regenerating it and comparing bytes.
    """

    def __init__(self, rs: RootSystemData, cutoff: int, affine: bool,
                 elements: list[AffineElement], right: list[list[int]],
                 dominant: list[bool]):
        self.rs = rs
        self.cutoff = cutoff
        self.affine = affine
        self.elements = elements
        self.length = [g.length for g in elements]
        self.right = right
        self.dominant = dominant

    def __len__(self):
        return len(self.elements)

    def check_index(self, *indices) -> None:
        """Reject caller-given element indices outside 0..N-1 (no wrapping)."""
        n = len(self.elements)
        for i in indices:
            if not (isinstance(i, int) and 0 <= i < n):
                raise InvalidSystemError(
                    f"element index {i} out of range: the slice has indices 0..{n - 1}"
                )

    def follow(self, word) -> int:
        """The index of the product of a reduced word's generators, one
        right-table lookup per letter from the identity."""
        i = 0
        for t in word:
            row = self.right[i]
            i = row[t] if t < len(row) else -1
            if i == -1:
                raise SliceCoverageError(
                    f"element of length {len(word)} outside slice; "
                    f"enlarge cutoff to at least {len(word)}"
                )
        return i

    def shell(self, n: int) -> list[int]:
        return [i for i, ln in enumerate(self.length) if ln == n]

    def right_descents(self, i: int) -> list[int]:
        out = []
        for t, j in enumerate(self.right[i]):
            if j != -1 and self.length[j] < self.length[i]:
                out.append(t)
        return out

    def dominant_indices(self) -> list[int]:
        return [i for i, f in enumerate(self.dominant) if f]


# -- descent signs ------------------------------------------------------------


class _SignWalk:
    """The generators of one group as walls, for the walk by descent signs.

    For each element w, let q(w) = h w^-1(p) for the alcove interior point
    p = -rho/h, so q(e) = (-1, ..., -1) and q(ws) = s(q(w)). Generator t acts
    on h-scaled points as s_t(u) = u - ((u, c) + e) r with (c, e, r) =
    (-alpha_t^vee, 0, -alpha_t) for a simple reflection and (theta^vee, h,
    theta) for s_{theta,-1}, c read as a pairing on weight coordinates; its
    finite part is I - r c^T. The wall value (q, c) + e is positive on the
    fundamental alcove's side, and l(ws) = l(w) + 1 exactly when it is
    positive at q(w): then w^-1(p) and p lie on one side of the wall of s
    (Humphreys, Reflection Groups and Coxeter Groups, 1990, 4.5).

    Wall values move linearly: with v_j the value of generator j at q(w),
    the value of j at q(ws_t) is v_j - v_t (r_t, c_j). So the walk carries
    the values alone, starting from ``start`` (every value is 1 at e), and
    steps them by the pairings ``pairings[t][j]`` = (r_t, c_j); q(w) is minus
    the simple values.

    It also carries the point h w(p) = h mu - W rho (weight coordinates):
    (-1, ..., -1) at e, and h ws(p) = h w(p) - W r for either kind of
    generator. w maps the alcove into the dominant cone exactly when every
    coordinate of h w(p) is positive.
    """

    def __init__(self, rs: RootSystemData, affine: bool):
        r = rs.rank
        self.rs = rs
        self.coroots = [tuple(-int(j == t) for j in range(r)) for t in range(r)]
        self.roots = [tuple(-x for x in rs.cartan[t]) for t in range(r)]
        offsets = [0] * r
        if affine:
            a0 = rs._max_short_index
            self.coroots.append(rs.avee_wt[a0])
            self.roots.append(rs.pos_roots_wt[a0])
            offsets.append(rs.coxeter_number)
        self.pairings = [tuple(sum(map(mul, rt, c)) for c in self.coroots) for rt in self.roots]
        self.start = tuple(e - sum(c) for c, e in zip(self.coroots, offsets))
        # finite parts, interned: id -> matrix, the identity first
        self.mats: list[IntMatrix] = [_identity_matrix(r)]
        self._mat_ids: dict[IntMatrix, int] = {self.mats[0]: 0}

    def up(self, f: int, t: int) -> tuple[int, tuple[int, ...] | None, tuple[int, ...]]:
        """For a generator t that goes up from an element g with finite part
        id f: the id of the finite part of g s_t, W - (W r) c^T; the step
        that g s_t's translation is g.mu minus, w(theta) in root coordinates
        (w(theta) = W r is a root), for the affine generator and None for a
        simple reflection; and W r, the step that its point h g s_t(p) is
        h g(p) minus. All three depend on W alone."""
        w = self.mats[f]
        wr = _matvec(w, self.roots[t])
        if t < self.rs.rank:  # c = -e_t: only column t changes, by + W r
            wmat = tuple([(*row[:t], row[t] + y, *row[t + 1:]) for row, y in zip(w, wr)])
        else:
            c = self.coroots[t]
            wmat = tuple([tuple([x - y * ci for x, ci in zip(row, c)])
                          for row, y in zip(w, wr)])
        g = self._mat_ids.get(wmat)
        if g is None:
            g = self._mat_ids[wmat] = len(self.mats)
            self.mats.append(wmat)
        shift = self.rs.wt_to_rt_int(wr) if t == self.rs.rank else None
        return g, shift, wr


def _wall_bound(rs: RootSystemData, cutoff: int) -> int:
    """A bound on |wall value| (see ``_SignWalk``) at every element of length
    at most ``cutoff``: h (cutoff + 1) - 1.

    Proof. The value of generator t at q(w) is h a(x) for x = w^-1(p) and
    the affine function a = -(., alpha_t^vee) of a simple wall, or
    a = (., theta^vee) + 1 of the affine one. x lies inside the alcove
    w^-1 A, and p inside A, where -1 < (u, beta^vee) < 0 for every positive
    root beta. Let n - 1 < (x, beta^vee) < n. The hyperplanes
    (u, beta^vee) = k with k from 0 to n - 1 (if n > 0) or from n to -1 (if
    n < 0) separate the two alcoves, and at most l(w^-1) = l(w) hyperplanes
    do (Humphreys, 4.5), so -l(w) - 1 < (x, beta^vee) < l(w). Both kinds of
    value then lie strictly between -h l(w) and h (l(w) + 1). In the finite
    walk |(x, alpha^vee)| <= (rho, theta^vee) / h < 1, which the same bound
    covers."""
    return rs.coxeter_number * (cutoff + 1) - 1


def enumerate_slice(rs: RootSystemData, cutoff: int, affine: bool = True,
                    max_elements: int | None = None) -> GroupSlice:
    """Shell-by-shell enumeration up to the length cutoff, by descent signs.

    For each element w of shell n and each generator s, the wall value of s
    at w decides the direction of ws. A downward product is the element
    below that went up by s to w, already recorded in the table. An upward
    one is new or met before under its wall values: the distinct ones,
    sorted by normal form, make shell n+1, each built once after the walk of
    shell n from its first product, by ``_SignWalk.up`` on the interned
    finite part of the element below; upward products of the top shell are
    -1. Raises ResourceCapError (never truncates silently) if the configured
    element cap is exceeded.

    Each element's wall values are one int, generator t's value v_t in the
    ``width`` bits from t * width as v_t + bias, and the point h w(p) is
    packed the same way, so a product is one multiply-subtract and the
    values are the key of ``grown``. A slot holds exactly what it encodes
    while |value| < bias. Every value read is checked against B =
    ``_wall_bound``, and InvariantViolation is raised past it, before any
    product of that element is recorded. With every |v_j| <= B at w, each
    slot of ws_t is within B (1 + M) of the bias, M the largest |pairing|.
    Each point coordinate moves by an entry of a root W r per step, so it
    stays within 1 + R cutoff, R the largest |entry| of a root. ``width``
    leaves room for both."""
    if cutoff < 0:
        raise InvalidSystemError("length cutoff must be nonnegative")
    if max_elements is not None and max_elements < 0:
        raise InvalidSystemError("element cap must be nonnegative")
    walk = _SignWalk(rs, affine)
    k = len(walk.roots)
    bound = _wall_bound(rs, cutoff)
    reach = max(bound * (1 + max(abs(a) for row in walk.pairings for a in row)),
                1 + cutoff * max(abs(x) for root in rs.pos_roots_wt for x in root))
    width = reach.bit_length() + 1
    bias, mask = 1 << (width - 1), (1 << width) - 1

    def pack(vec, offset=0):
        return sum((x + offset) << (j * width) for j, x in enumerate(vec))

    gens = [(t, t * width, pack(a)) for t, a in enumerate(walk.pairings)]
    steps: list[dict[int, tuple]] = [{} for _ in gens]  # per generator: walk.up, packed
    elements = [identity(rs)]
    fids = [0]  # finite part ids of the walk's interning
    vals = [pack(walk.start, bias)]
    pts = [pack((-1,) * rs.rank, bias)]  # h w(p): p = -rho/h, so (-1, ..., -1) at e
    right: list[list] = [[None] * k]
    rank: list[int] = []  # of each interned finite part, in matrix order
    shell = [0]
    level = 0
    while shell:
        if max_elements is not None and len(elements) > max_elements:
            raise ResourceCapError(
                f"slice exceeded the configured cap of {max_elements} elements "
                f"at length {level}")
        grown: dict[int, list[tuple[int, int]]] = {}  # wall values -> their (w, s)
        for i in shell:
            vw, row = vals[i], right[i]
            for t, at, jump in gens:
                v = ((vw >> at) & mask) - bias
                if 0 < v <= bound:
                    if level == cutoff:
                        row[t] = -1
                        continue
                    key = vw - v * jump
                    below = grown.get(key)
                    if below is None:
                        grown[key] = [(i, t)]
                    else:
                        below.append((i, t))
                elif -bound <= v < 0:
                    if row[t] is None:
                        raise InvariantViolation(
                            f"descent {t} of element {i} has no recorded product")
                elif v:
                    raise InvariantViolation(
                        f"wall value {v} of element {i} is past the bound {bound}")
                else:
                    raise InvariantViolation("alcove interior point landed on a hyperplane")
        shell = []
        if level < cutoff:
            level += 1
            born = []  # (finite part id, translation, values, point, below) per new element
            for key, below in grown.items():
                i, t = below[0]
                f = fids[i]
                got = steps[t].get(f)
                if got is None:
                    g, shift, wr = walk.up(f, t)
                    got = steps[t][f] = (g, shift, pack(wr))
                g, shift, step = got
                mu = elements[i].mu
                if shift is not None:
                    mu = tuple(map(sub, mu, shift))
                born.append((g, mu, key, pts[i] - step, below))
            if len(rank) < len(walk.mats):
                rank = [0] * len(walk.mats)
                for n, f in enumerate(sorted(range(len(rank)), key=walk.mats.__getitem__)):
                    rank[f] = n
            born.sort(key=lambda b: (rank[b[0]], b[1]))  # the normal form, AffineElement.key
            for f, mu, vw, pt, below in born:
                j = len(elements)
                row = [None] * k
                for i, t in below:
                    right[i][t] = j
                    row[t] = i
                elements.append(AffineElement(walk.mats[f], mu, level))
                fids.append(f)
                vals.append(vw)
                pts.append(pt)
                right.append(row)
                shell.append(j)
    dominant = _dominant(pts, pack((0,) * rs.rank, bias), pack((1,) * rs.rank))
    return GroupSlice(rs, cutoff, affine, elements, right, dominant)


def _dominant(pts: list[int], top: int, ones: int) -> list[bool]:
    """Whether each element maps the alcove into the dominant cone, from its
    packed point h w(p) (``enumerate_slice``): every coordinate positive.
    ``top`` holds the bias, the top bit, in every slot and ``ones`` a 1. A
    coordinate is 0 exactly when its slot equals the bias, that is when
    that slot of z = pt ^ top is 0; some slot of z is 0 exactly when
    (z - ones) & ~z & top is not 0 (the lowest zero slot borrows, and no
    slot below it does). Otherwise a coordinate is positive exactly when
    its slot has the top bit."""
    for pt in pts:
        z = pt ^ top
        if (z - ones) & ~z & top:
            raise InvariantViolation("alcove interior point on a chamber wall")
    return [pt & top == top for pt in pts]


# -- symmetries ----------------------------------------------------------------


def _graph_automorphisms(rs: RootSystemData, affine: bool) -> list[tuple[int, ...]]:
    """Every permutation of the generators that keeps the Coxeter matrix,
    identity first. The walls of ``_SignWalk`` give n_ij = (r_i, c_j)(r_j, c_i),
    which is 0, 1, 2, 3 for m_ij = 2, 3, 4, 6 and 4 for m_ij infinite (and 4 on
    the diagonal), so a permutation keeps m exactly when it keeps n."""
    a = _SignWalk(rs, affine).pairings
    k = len(a)
    n = [[a[i][j] * a[j][i] for j in range(k)] for i in range(k)]
    found = []

    def extend(perm):
        i = len(perm)
        if i == k:
            found.append(tuple(perm))
            return
        for p in range(k):
            if p not in perm and all(n[i][j] == n[p][q] for j, q in enumerate(perm)):
                extend(perm + [p])

    extend([])
    return found


def _relabelling(right: list[list[int]], perm: tuple[int, ...]) -> list[int]:
    """The index map sigma of the slice automorphism taking generator t to
    perm[t]: sigma(e) = e and sigma(ys) = right[sigma(y)][perm[s]]. One pass
    over the table in index order (an upward neighbour has the larger index)
    builds it and checks that every entry maps to the entry of the image:
    right[sigma(y)][perm[t]] = sigma(right[y][t]), -1 to -1, and that sigma is
    a permutation. Raises InvariantViolation otherwise."""
    n = len(right)
    sigma = [-1] * n
    sigma[0] = 0
    for y, row in enumerate(right):
        img = right[sigma[y]]
        for t, j in enumerate(row):
            u = img[perm[t]]
            if j == -1 or u == -1:
                if j != u:
                    break
            elif j > y and sigma[j] == -1:
                sigma[j] = u
            elif sigma[j] != u:
                break
        else:
            continue
        raise InvariantViolation(
            f"generator permutation {perm} does not relabel the right table at "
            f"element {y}, generator {t}")
    if sorted(sigma) != list(range(n)):
        raise InvariantViolation(f"generator permutation {perm} does not permute the slice")
    return sigma


def slice_symmetry_group(sl: GroupSlice) -> list[list[int]]:
    """The index maps of the slice automorphisms induced by every Coxeter-graph
    automorphism, identity first: each is a group automorphism that keeps the
    generating set, so it keeps length and maps the slice onto itself. A
    graph automorphism that the checked ones do not generate is checked
    against the whole right table (``_relabelling``); every other map is
    composed from checked maps, the map of g q being g after q, and needs
    no check."""
    perms = _graph_automorphisms(sl.rs, sl.affine)
    maps = {perms[0]: list(range(len(sl)))}
    checked: list[tuple[tuple[int, ...], list[int]]] = []
    for p in perms[1:]:
        if p in maps:
            continue
        checked.append((p, _relabelling(sl.right, p)))
        frontier = list(maps)
        for q in frontier:  # grows while iterated: the group the checked maps generate
            for g, gmap in checked:
                gq = tuple(g[i] for i in q)
                if gq not in maps:
                    maps[gq] = list(map(gmap.__getitem__, maps[q]))
                    frontier.append(gq)
    return [maps[p] for p in perms]


def slice_inversion(sl: GroupSlice) -> list[int]:
    """The index map y -> y^-1, from the right table alone. Each y != e is
    x t for its first right descent t; its first letter s is that of x (t when
    x = e) and its tail s y is tail(x) t, so y^-1 = tail(y)^-1 s. Raises
    InvariantViolation unless every generator acts on the table as an
    involution and the map is a length-keeping involution."""
    right, length = sl.right, sl.length
    n = len(right)
    if any(j != -1 and right[j][t] != y for y, row in enumerate(right) for t, j in enumerate(row)):
        raise InvariantViolation("a generator does not act on the right table as an involution")
    first, tail, inv = [-1] * n, [0] * n, [0] * n
    for y in range(1, n):
        row = right[y]
        t = next((t for t, j in enumerate(row) if 0 <= j < y), None)
        if t is None:
            raise InvariantViolation(f"element {y} has no right descent")
        x = row[t]
        if x:
            first[y], tail[y] = first[x], right[tail[x]][t]
        else:
            first[y] = t
        inv[y] = right[inv[tail[y]]][first[y]]
    if any(i < 0 or inv[i] != y or length[i] != length[y] for y, i in enumerate(inv)):
        raise InvariantViolation("the inversion map of the slice is not a length-keeping involution")
    return inv


def facet_generators(rs: RootSystemData, lam_minus, l: int) -> list[int]:
    """Indices of the fundamental-alcove generators fixing lam_minus (dot, level l)."""
    v = tuple(c + 1 for c in lam_minus)
    out = [i for i in range(rs.rank) if v[i] == 0]
    a0 = rs._max_short_index
    if sum(rs.avee_wt[a0][k] * v[k] for k in range(rs.rank)) == -l:
        out.append(rs.rank)
    return out


def is_interior_fundamental(rs: RootSystemData, lam, l: int) -> bool:
    v = tuple(c + 1 for c in lam)
    if any(c >= 0 for c in v):
        return False
    a0 = rs._max_short_index
    return sum(rs.avee_wt[a0][k] * v[k] for k in range(rs.rank)) > -l


def factorize_weight(rs: RootSystemData, lam, l: int):
    """(word, lam_minus): a reduced word, in the generator ids of
    ``GroupSlice``, of the unique g with g ._l lam_minus = lam, lam_minus in
    the closed fundamental alcove and g of maximal length in
    g * Stab(lam_minus).

    The word first reflects lam + rho across a wall of the fundamental
    alcove that strictly separates it from the alcove, the first simple wall
    and otherwise the level-l wall of alpha_0, until none does. Each step
    removes one separating hyperplane, so the word is reduced and spells the
    minimal element g^J of the coset (Humphreys, Reflection Groups and
    Coxeter Groups, 4.5). Then follows a reduced word of the longest element
    w_J of the facet's parabolic subgroup, read off the descent signs; the
    longest element of the coset is g^J w_J, and the lengths add (Bjorner-
    Brenti, Combinatorics of Coxeter Groups, 2.4). The maximal-length
    convention makes g the dominant-coset representative whenever lam is
    dominant, so factorization is compatible with indexing regular dominant
    weights by dominant group elements.
    """
    if l < 1:
        raise InvalidSystemError("level l must be a positive integer")
    a0 = rs._max_short_index
    coroot0, root0 = rs.avee_wt[a0], rs.pos_roots_wt[a0]
    v = [c + 1 for c in lam]
    word = []
    for _ in range(99999):
        i = next((i for i, c in enumerate(v) if c > 0), None)
        if i is not None:
            # s_i: v - v_i alpha_i, with alpha_i = row i of the Cartan matrix
            vi = v[i]
            v = [x - vi * a for x, a in zip(v, rs.cartan[i])]
        else:
            # the level-scaled affine generator s_{alpha_0,-l}
            shift = sum(map(mul, coroot0, v)) + l
            if shift >= 0:
                break
            v = [x - shift * a for x, a in zip(v, root0)]
            i = rs.rank
        word.append(i)
    else:
        raise InvariantViolation("alcove reduction failed to terminate")
    lam_minus = tuple(c - 1 for c in v)

    fixing = facet_generators(rs, lam_minus, l)
    if fixing:
        walk = _SignWalk(rs, True)
        vals = walk.start
        while True:
            t = next((t for t in fixing if vals[t] > 0), None)
            if t is None:
                break
            v = vals[t]
            vals = [a - v * b for a, b in zip(vals, walk.pairings[t])]
            if 0 in vals:
                raise InvariantViolation("alcove interior point landed on a hyperplane")
            word.append(t)
    return word, lam_minus


# -- slice persistence --------------------------------------------------------

_SLICE_MAGIC = b"KLXSLICE"
_SLICE_VERSION = 2
_SLICE_HEAD = ">cHBIII"  # type, rank, affine, cutoff, finite parts, elements


def _right_format(n_elements: int, n_gens: int) -> str:
    """The right table, row by row, in the narrowest signed width (-1 kept)."""
    return f">{n_elements * n_gens}{'h' if n_elements <= 1 << 15 else 'i'}"


def _slice_payload(sl: GroupSlice) -> bytes:
    """The header, then as 4-byte signed ints the distinct finite parts and
    every element's (finite part id, translation, length), then the
    right-multiplication table."""
    rs = sl.rs
    windex: dict[IntMatrix, int] = {}
    for g in sl.elements:
        windex.setdefault(g.wmat, len(windex))
    ints = [c for m in windex for row in m for c in row]
    for g in sl.elements:
        ints += (windex[g.wmat], *g.mu, g.length)
    head = struct.pack(_SLICE_HEAD, rs.type_label.encode(), rs.rank,
                       1 if sl.affine else 0, sl.cutoff, len(windex), len(sl))
    body = struct.pack(f">{len(ints)}i", *ints)
    table = struct.pack(_right_format(len(sl), rs.rank + sl.affine),
                        *(j for row in sl.right for j in row))
    return head + body + table


def save_slice(sl: GroupSlice, path) -> None:
    binio.write_frame(path, _SLICE_MAGIC, _SLICE_VERSION, _slice_payload(sl))


def load_slice(path, rs: RootSystemData, cutoff: int, affine: bool = True,
               max_elements: int | None = None) -> GroupSlice:
    """The requested slice, checked against the file at ``path``.

    A slice file is a function of the request, so the check regenerates it:
    the slice is enumerated (under ``max_elements``, as a cold run would) and
    the file is accepted only if its payload equals, byte for byte, what
    ``save_slice`` writes for that slice. The file's header is never trusted.
    """
    buf = binio.read_frame(path, _SLICE_MAGIC, _SLICE_VERSION)
    sl = enumerate_slice(rs, cutoff, affine, max_elements)
    if buf != _slice_payload(sl):
        raise CacheFormatError(
            f"{path}: slice file does not match the enumeration of the request")
    return sl


def slice_to_json(sl: GroupSlice) -> dict:
    """Debug-friendly JSON export of a slice."""
    return {
        "type": sl.rs.type_label,
        "rank": sl.rs.rank,
        "affine": sl.affine,
        "cutoff": sl.cutoff,
        "element_count": len(sl.elements),
        "elements": [
            {
                "index": i,
                "wmat": [list(r) for r in g.wmat],
                "mu": list(g.mu),
                "length": g.length,
                "dominant": sl.dominant[i],
            }
            for i, g in enumerate(sl.elements)
        ],
    }
