"""Finite and affine Weyl groups in normal form, with alcove geometry.

Group elements are pairs (w, mu) in W x Q acting on the Euclidean space by
u |-> w(u) + mu in the rho-shifted coordinates (so the "dot" action
w.x = w(x+rho) - rho becomes linear). The finite part w is stored as its
integer matrix on fundamental-weight coordinates.

Bounded-length slices are enumerated shell by shell by descent signs
(``_SignWalk``): one pairing per element and generator decides whether the
product goes up or down, and only the upward products are computed. They
give both the next shell and the right-multiplication table. ``GroupSlice``
is the plain record of that walk; the slice file (format version 2) stores
it whole, table included, and loading checks it by the same walk.

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
from .rootsys import RootSystemData, build_root_system

IntMatrix = tuple[tuple[int, ...], ...]


def _identity_matrix(n: int) -> IntMatrix:
    return tuple(tuple(int(i == j) for j in range(n)) for i in range(n))


def _matvec(m: IntMatrix, v) -> tuple[int, ...]:
    return tuple(sum(row[k] * v[k] for k in range(len(v))) for row in m)


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
    ``enumerate_slice`` or ``load_slice``, which supply the table and the
    dominance flags, and it does no group multiplication of its own.
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


_CAP_MESSAGE = "slice exceeded the configured cap of {} elements at length {}"


# -- descent signs ------------------------------------------------------------


class _SignWalk:
    """The generators of one group as walls, for the walk by descent signs.

    The walk carries, for each element w, the integer vector q(w) = h w^-1(p)
    for the alcove interior point p = -rho/h, so q(e) = (-1, ..., -1) and
    q(ws) = s(q(w)). Generator t acts on h-scaled points as
    s_t(u) = u - ((u, c) + e) r with (c, e, r) = (-alpha_t^vee, 0, -alpha_t)
    for a simple reflection and (theta^vee, h, theta) for s_{theta,-1}, c
    read as a pairing on weight coordinates; its finite part is I - r c^T.
    The wall value (q, c) + e is positive on the fundamental alcove's side,
    and l(ws) = l(w) + 1 exactly when it is positive at q(w): then w^-1(p)
    and p lie on one side of the wall of s (Humphreys, Reflection Groups and
    Coxeter Groups, 1990, 4.5).

    It also carries the point h w(p) = h mu - W rho (weight coordinates):
    (-1, ..., -1) at e, and h ws(p) = h w(p) - W r for either kind of
    generator. w maps the alcove into the dominant cone exactly when every
    coordinate of h w(p) is positive (``_dominant``).
    """

    def __init__(self, rs: RootSystemData, affine: bool):
        r = rs.rank
        self.rs = rs
        self.coroots = [tuple(-int(j == t) for j in range(r)) for t in range(r)]
        self.roots = [tuple(-x for x in rs.cartan[t]) for t in range(r)]
        if affine:
            a0 = rs._max_short_index
            self.coroots.append(rs.avee_wt[a0])
            self.roots.append(rs.pos_roots_wt[a0])
        self.affine = affine
        self.origin = (-1,) * r
        # per generator: finite part -> (finite part times s, translation step)
        self._steps: list[dict] = [{} for _ in self.roots]

    def values(self, q) -> list[int]:
        """The wall value of every generator at q, positive where it goes up."""
        vals = [-x for x in q]
        if self.affine:
            vals.append(sum(map(mul, self.coroots[-1], q)) + self.rs.coxeter_number)
        if 0 in vals:
            raise InvariantViolation("alcove interior point landed on a hyperplane")
        return vals

    def reflect(self, q, v: int, t: int) -> tuple[int, ...]:
        """s_t(q), given the wall value v of t at q."""
        return tuple([a - v * b for a, b in zip(q, self.roots[t])])

    def up(self, g: AffineElement, pt, t: int) -> tuple[AffineElement, tuple[int, ...]]:
        """g s_t and its point h g s_t(p), given pt = h g(p), for a generator
        that goes up from g: finite part W - (W r) c^T, translation g.mu minus
        w(theta) in root coordinates for the affine generator (w(theta) = W r
        is a root), length g.length + 1, point pt - W r. All three steps
        depend on W alone and are memoised on it."""
        steps = self._steps[t]
        got = steps.get(g.wmat)
        if got is None:
            wr = _matvec(g.wmat, self.roots[t])
            wmat = tuple(tuple(x - y * c for x, c in zip(row, self.coroots[t]))
                         for row, y in zip(g.wmat, wr))
            shift = self.rs.wt_to_rt_int(wr) if t == self.rs.rank else None
            got = steps[g.wmat] = (wmat, shift, wr)
        wmat, shift, wr = got
        mu = g.mu if shift is None else tuple(map(sub, g.mu, shift))
        return AffineElement(wmat, mu, g.length + 1), tuple(map(sub, pt, wr))


def _dominant(pt) -> bool:
    """Whether the element w with point pt = h w(p) (see ``_SignWalk``) maps
    the alcove into the dominant cone."""
    if 0 in pt:
        raise InvariantViolation("alcove interior point on a chamber wall")
    return min(pt) > 0


def enumerate_slice(rs: RootSystemData, cutoff: int, affine: bool = True,
                    max_elements: int | None = None) -> GroupSlice:
    """Shell-by-shell enumeration up to the length cutoff, by descent signs.

    For each element w of shell n and each generator s, the wall value at
    q(w) decides the direction of ws. A downward product is the element
    below that went up by s to w, already recorded in the table. An upward
    one is new or met before under its q: the distinct ones, sorted by
    normal form, make shell n+1, each normal form computed once by
    ``_SignWalk.up``; upward products of the top shell are -1.
    Raises ResourceCapError (never truncates silently) if the configured
    element cap is exceeded.
    """
    if cutoff < 0:
        raise InvalidSystemError("length cutoff must be nonnegative")
    walk = _SignWalk(rs, affine)
    k = len(walk.roots)
    elements = [identity(rs)]
    qs = [walk.origin]
    pts = [walk.origin]  # h w(p): p = -rho/h, so also (-1, ..., -1) at e
    right: list[list] = [[None] * k]
    shell = [0]
    level = 0
    while shell:
        grown: dict[tuple[int, ...], tuple[AffineElement, tuple[int, ...], list]] = {}
        for i in shell:
            q, row = qs[i], right[i]
            for t, v in enumerate(walk.values(q)):
                if v < 0:
                    if row[t] is None:
                        raise InvariantViolation(
                            f"descent {t} of element {i} has no recorded product")
                elif level == cutoff:
                    row[t] = -1
                else:
                    q_up = walk.reflect(q, v, t)
                    up = grown.get(q_up)
                    if up is None:
                        up = grown[q_up] = (*walk.up(elements[i], pts[i], t), [])
                    up[2].append((i, t))
        shell = []
        if level < cutoff:
            level += 1
            for q_up, (g, pt, below) in sorted(grown.items(), key=lambda kv: kv[1][0].key()):
                j = len(elements)
                row = [None] * k
                for i, t in below:
                    right[i][t] = j
                    row[t] = i
                elements.append(g)
                qs.append(q_up)
                pts.append(pt)
                right.append(row)
                shell.append(j)
            if max_elements is not None and len(elements) > max_elements:
                raise ResourceCapError(_CAP_MESSAGE.format(max_elements, level))
    return GroupSlice(rs, cutoff, affine, elements, right, [_dominant(pt) for pt in pts])


def check_cap(sl: GroupSlice, max_elements: int | None) -> None:
    """Fail as ``enumerate_slice`` would under ``max_elements``: at the shell
    of the element at index max(cap, 1), the first to pass the cap."""
    first_over = None if max_elements is None else max(max_elements, 1)
    if first_over is not None and first_over < len(sl):
        raise ResourceCapError(_CAP_MESSAGE.format(max_elements, sl.length[first_over]))


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
        q = walk.origin
        while True:
            vals = walk.values(q)
            t = next((t for t in fixing if vals[t] > 0), None)
            if t is None:
                break
            q = walk.reflect(q, vals[t], t)
            word.append(t)
    return word, lam_minus


# -- slice persistence --------------------------------------------------------

_SLICE_MAGIC = b"KLXSLICE"
_SLICE_VERSION = 2
_SLICE_HEAD = ">cHBIII"  # type, rank, affine, cutoff, finite parts, elements


def _right_format(n_elements: int, n_gens: int) -> str:
    """The right table, row by row, in the narrowest signed width (-1 kept)."""
    return f">{n_elements * n_gens}{'h' if n_elements <= 1 << 15 else 'i'}"


def save_slice(sl: GroupSlice, path) -> None:
    """Write the header, then as 4-byte signed ints the distinct finite parts
    and every element's (finite part id, translation, length), then the
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
    binio.write_frame(path, _SLICE_MAGIC, _SLICE_VERSION, head + body + table)


def load_slice(path) -> GroupSlice:
    """Read a slice and check it by the enumeration's own walk.

    The elements must come in index order, by length and then normal form,
    and index 0 must be the identity with length 0. The check then visits the
    elements in index order, each reached from an earlier one, with its q.
    Per table entry (i, t), the descent sign of t at q(i) decides: an upward
    entry is -1 exactly on the top shell, and otherwise leads to an element
    one length step up, which the first such entry proves to be element i
    times generator t (normal form, length within the cutoff) and every
    later one proves to have q = s_t(q(i)); a downward entry leads to an
    element one length step down. Every entry other than -1 is taken back by
    the same generator. So the stored normal forms, lengths and table agree
    with the group. A file whose size does not match its header is rejected.
    The first visits also step each element's point h w(p), which gives
    ``dominant`` as in the enumeration.
    """
    buf = binio.read_frame(path, _SLICE_MAGIC, _SLICE_VERSION)
    lab, rank, aff, cutoff, n_w, n_el = struct.unpack_from(_SLICE_HEAD, buf, 0)
    rs = build_root_system(lab.decode(), rank)
    k, wsize, esize = rank + aff, rank * rank, rank + 2
    ints_fmt, right_fmt = f">{n_w * wsize + n_el * esize}i", _right_format(n_el, k)
    off = struct.calcsize(_SLICE_HEAD)
    if off + struct.calcsize(ints_fmt) + struct.calcsize(right_fmt) != len(buf):
        raise CacheFormatError(f"{path}: file size does not match its header")
    ints = struct.unpack_from(ints_fmt, buf, off)
    flat = struct.unpack_from(right_fmt, buf, off + struct.calcsize(ints_fmt))
    wmats = [tuple(ints[o + r : o + r + rank] for r in range(0, wsize, rank))
             for o in range(0, n_w * wsize, wsize)]
    elements = []
    for o in range(n_w * wsize, len(ints), esize):
        wi, mu, ln = ints[o], ints[o + 1 : o + esize - 1], ints[o + esize - 1]
        if not 0 <= wi < n_w:
            raise CacheFormatError(f"{path}: finite part id {wi} out of range")
        g = AffineElement(wmats[wi], mu, ln)
        if elements and (elements[-1].length, elements[-1].key()) >= (ln, g.key()):
            raise CacheFormatError(
                f"{path}: element {len(elements)} is out of (length, normal form) order")
        elements.append(g)
    right = [list(flat[i : i + k]) for i in range(0, len(flat), k)]
    walk = _SignWalk(rs, bool(aff))
    ident = identity(rs)
    if not elements or (elements[0].key(), elements[0].length) != (ident.key(), 0):
        raise CacheFormatError(f"{path}: index 0 is not the identity")
    qs = [walk.origin] + [None] * (n_el - 1)
    pts = qs[:]
    for i, row in enumerate(right):
        q, ln = qs[i], elements[i].length
        if q is None:
            raise CacheFormatError(f"{path}: element {i} is not reached from an earlier one")
        for t, (j, v) in enumerate(zip(row, walk.values(q))):
            if j == -1:
                ok = v > 0 and ln == cutoff
            elif not (0 <= j < n_el and right[j][t] == i):
                ok = False
            elif v < 0:
                ok = elements[j].length == ln - 1
            elif qs[j] is None:
                g, pts[j] = walk.up(elements[i], pts[i], t)
                ok = g.length <= cutoff and (g.key(), g.length) == (
                    elements[j].key(), elements[j].length)
                qs[j] = walk.reflect(q, v, t)
            else:
                ok = elements[j].length == ln + 1 and qs[j] == walk.reflect(q, v, t)
            if not ok:
                raise CacheFormatError(f"{path}: inconsistent right table entry ({i}, {t})")
    return GroupSlice(rs, cutoff, bool(aff), elements, right, [_dominant(pt) for pt in pts])


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
