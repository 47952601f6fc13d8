"""Affine Weyl group: normal forms, lengths, Bruhat order, alcove geometry."""

import hashlib
import itertools
import random
from fractions import Fraction

import pytest

from conftest import bruhat_leq, slice_symmetries
from groupmul import (
    AffineElement,
    coset,
    element_length,
    factorize_by_multiply,
    generators,
    identity,
    longest_finite_element,
    make_element,
    multiply,
    reflection,
    root_action,
    slice_elements,
    slice_of,
)
from klext import binio, weylaffine
from klext.errors import (
    CacheFormatError,
    InvalidSystemError,
    InvariantViolation,
    ResourceCapError,
    SliceCoverageError,
)
from klext.extbounds import make_block_context, singular_ext1_report
from klext.klpoly import KLTable, mu
from klext.rootsys import _adjugate, _int_det, build_root_system, classify_weight
from klext.weylaffine import (
    GroupSlice,
    _matvec,
    _relabelling,
    dot_action,
    factorize_weight,
    facet_generators,
    is_interior_fundamental,
    save_slice,
    slice_inversion,
    slice_symmetry_group,
)
from klext.weylaffine import enumerate_slice as _enumerate_slice
from klext.weylaffine import load_slice as _load_slice


def is_dominant_element(rs, g):
    """Whether g . C^- + rho lies in the dominant cone (independent of level):
    the oracle for ``GroupSlice.dominant``, from the normal form alone."""
    h = rs.coxeter_number
    wrho = tuple(sum(row) for row in g.wmat)
    mu_wt = rs.rt_to_wt(g.mu)
    vals = [h * mu_wt[i] - wrho[i] for i in range(rs.rank)]
    assert 0 not in vals, "alcove interior point on a chamber wall"
    return min(vals) > 0


def _dominance_checked(sl):
    assert sl.dominant == [is_dominant_element(sl.rs, g) for g in slice_elements(sl)]
    return sl


# every slice this file enumerates or loads has its dominance flags checked
def enumerate_slice(*args, **kwargs):
    return _dominance_checked(_enumerate_slice(*args, **kwargs))


def load_slice(path, rs, cutoff, affine=True):
    return _dominance_checked(_load_slice(path, rs, cutoff, affine))


# -- symbolic affine-map oracle -------------------------------------------------


class AffineMap:
    """u -> M u + b with exact rational entries; composition oracle."""

    def __init__(self, mat, vec):
        self.mat = [[Fraction(x) for x in row] for row in mat]
        self.vec = [Fraction(x) for x in vec]

    @classmethod
    def from_element(cls, rs, g, l=1):
        mu_wt = rs.rt_to_wt(g.mu)
        return cls(g.wmat, [l * x for x in mu_wt])

    def compose(self, other):
        n = len(self.vec)
        mat = [
            [sum(self.mat[i][k] * other.mat[k][j] for k in range(n)) for j in range(n)]
            for i in range(n)
        ]
        vec = [
            sum(self.mat[i][k] * other.vec[k] for k in range(n)) + self.vec[i]
            for i in range(n)
        ]
        return AffineMap(mat, vec)

    def apply(self, u):
        n = len(self.vec)
        return tuple(
            sum(self.mat[i][k] * Fraction(u[k]) for k in range(n)) + self.vec[i]
            for i in range(n)
        )

    def __eq__(self, other):
        return self.mat == other.mat and self.vec == other.vec


def test_multiply_matches_symbolic_composition():
    rng = random.Random(7)
    for lab, rank in [("A", 1), ("A", 2), ("B", 2)]:
        rs = build_root_system(lab, rank)
        elements = slice_elements(enumerate_slice(rs, 6))
        for _ in range(100):
            g, h = rng.choice(elements), rng.choice(elements)
            prod = multiply(rs, g, h)
            assert AffineMap.from_element(rs, prod) == AffineMap.from_element(
                rs, g
            ).compose(AffineMap.from_element(rs, h))


def test_basic_translation():
    a1 = build_root_system("A", 1)
    s0 = reflection(a1, (1,), 0)
    s1 = reflection(a1, (1,), 1)
    t = multiply(a1, s1, s0)  # (s_{a,1} s_{a,0})(u) = u + alpha
    assert t.mu == (1,) and t.length == 2
    eye = identity(a1)
    assert t.wmat == eye.wmat
    # the symbolic composition confirms the translation vector
    m = AffineMap.from_element(a1, s1).compose(AffineMap.from_element(a1, s0))
    assert m.apply((0,)) == (Fraction(2),)  # alpha has weight coordinates (2)


def inverse(rs, g):
    """g^-1 = (w^-1, -w^-1(mu)); det(w) = +-1, so w^-1 = det(w) adj(w)."""
    sign = _int_det(g.wmat)
    assert sign in (1, -1)
    winv = tuple(tuple(sign * x for x in row) for row in _adjugate(g.wmat))
    mu = tuple(-x for x in _matvec(root_action(rs, winv), g.mu))
    return make_element(rs, winv, mu)


def test_inverse_and_associativity_random():
    a2 = build_root_system("A", 2)
    elements = slice_elements(enumerate_slice(a2, 12))
    rng = random.Random(1)
    e = identity(a2)
    for _ in range(10000):
        x, y, z = (rng.choice(elements) for _ in range(3))
        assert (multiply(a2, multiply(a2, x, y), z).key()
                == multiply(a2, x, multiply(a2, y, z)).key())
    for _ in range(200):
        x = rng.choice(elements)
        assert multiply(a2, x, inverse(a2, x)).key() == e.key()


def test_root_action_intertwines_weight_action():
    """W C^T = C^T R for every finite part met in the slices: R is the same
    linear map as W, read in simple-root coordinates."""
    for lab, rank, cutoff in [("A", 2, 8), ("B", 2, 8), ("G", 2, 8), ("A", 3, 6)]:
        rs = build_root_system(lab, rank)
        b = [[rs.cartan[j][i] for j in range(rank)] for i in range(rank)]  # C^T

        def mul(x, y):
            return [[sum(x[i][k] * y[k][j] for k in range(rank)) for j in range(rank)]
                    for i in range(rank)]

        for wmat in enumerate_slice(rs, cutoff).parts:
            assert mul(wmat, b) == mul(b, root_action(rs, wmat)), (lab, wmat)


def test_slice_save_load_roundtrip(tmp_path):
    for lab, rank, cutoff in [("A", 2, 8), ("G", 2, 8), ("A", 3, 6)]:
        rs = build_root_system(lab, rank)
        sl = enumerate_slice(rs, cutoff)
        path = tmp_path / f"{lab}{rank}.slc"
        save_slice(sl, path)
        loaded = load_slice(path, rs, cutoff)
        fresh = enumerate_slice(rs, cutoff)
        assert len(loaded) == len(fresh)
        assert (loaded.parts, loaded.part, loaded.mu, loaded.length) == (
            fresh.parts, fresh.part, fresh.mu, fresh.length)
        assert loaded.right == fresh.right and loaded.dominant == fresh.dominant


def test_right_table_matches_multiply():
    # the enumeration records each product once; recomputing every one of
    # them through the index is the oracle
    cases = [("A", 2, 12, True), ("B", 2, 10, True), ("G", 2, 10, True),
             ("A", 3, 6, True), ("B", 3, None, False), ("C", 3, None, False)]
    for lab, rank, cutoff, affine in cases:
        rs = build_root_system(lab, rank)
        sl = enumerate_slice(rs, rs.num_positive if cutoff is None else cutoff, affine)
        gens = generators(rs, affine)
        elements = slice_elements(sl)
        index = {g.key(): i for i, g in enumerate(elements)}
        assert len(sl.right) == len(sl)
        for i, g in enumerate(elements):
            assert sl.right[i] == [index.get(multiply(rs, g, s).key(), -1) for s in gens]


def test_slice_file_resaves_identically(tmp_path):
    # A1 at cutoff 16384 has 32769 elements: the right table's wide format
    for lab, rank, cutoff, affine in [("A", 2, 8, True), ("B", 3, 9, False),
                                      ("A", 1, 16384, True)]:
        rs = build_root_system(lab, rank)
        first, second = tmp_path / "first.slc", tmp_path / "second.slc"
        save_slice(enumerate_slice(rs, cutoff, affine), first)
        save_slice(load_slice(first, rs, cutoff, affine), second)
        assert first.read_bytes() == second.read_bytes()


def _reframed(tmp_path, sl, edit):
    """Save ``sl``, apply ``edit`` to its payload and frame it again, so the
    checksum is valid and only the load check can catch the change."""
    path = tmp_path / "slice.slc"
    save_slice(sl, path)
    payload = bytearray(binio.read_frame(path, b"KLXSLICE", 2))
    edit(payload)
    binio.write_frame(path, b"KLXSLICE", 2, bytes(payload))
    return path


def test_altered_right_table_rejected(tmp_path):
    rs = build_root_system("A", 2)
    sl = enumerate_slice(rs, 6)
    n, k = len(sl), 3

    def setting(*entries):
        """An edit writing each (i, t, value) into the table, the payload's
        tail of two bytes an entry."""
        def edit(payload):
            for i, t, value in entries:
                at = len(payload) - 2 * n * k + 2 * (i * k + t)
                payload[at : at + 2] = value.to_bytes(2, "big", signed=True)
        return edit

    # two generator-t pairs {a, a.t} and {b, b.t} between shells 1 and 2
    t = 0
    a, b = [i for i in sl.shell(1) if sl.length[sl.right[i][t]] == 2][:2]
    at, bt = sl.right[a][t], sl.right[b][t]
    for edit in (
        setting((a, t, bt)),  # one length step away, not taken back
        setting((a, t, b), (b, t, a), (at, t, bt), (bt, t, at)),  # no length step
        setting((a, t, -1), (at, t, -1)),  # -1 below the top shell
        setting((0, t, n)),  # out of range
        setting((0, t, -2)),
        lambda payload: payload.extend(b"\0\0"),  # trailing bytes
    ):
        path = _reframed(tmp_path, sl, edit)
        with pytest.raises(CacheFormatError):
            load_slice(path, rs, 6)
    # the unaltered re-framing loads
    assert load_slice(_reframed(tmp_path, sl, lambda payload: None), rs, 6).right == sl.right


def enumerate_by_multiply(rs, cutoff, affine=True):
    """The slice by group multiplication: each element of shell n times each
    generator, with every product's length from ``element_length``. The
    enumeration by descent signs must reproduce it exactly."""
    gens = generators(rs, affine)
    ident = identity(rs)
    elements = [ident]
    index = {ident.key(): 0}
    right = []
    shell = [ident]
    level = 0
    while shell:
        prods = [[multiply(rs, g, s) for s in gens] for g in shell]
        shell = []
        if level < cutoff:
            level += 1
            grown = {p.key(): p for row in prods for p in row if p.length == level}
            shell = [grown[k] for k in sorted(grown)]
            for g in shell:
                index[g.key()] = len(elements)
                elements.append(g)
        right.extend([index.get(p.key(), -1) for p in row] for row in prods)
    return slice_of(rs, cutoff, affine, elements, right,
                    [is_dominant_element(rs, g) for g in elements])


SIGN_WALK_CASES = [("A", 2, 12, True), ("A", 3, 8, True), ("B", 3, 6, True),
                   ("C", 3, 8, True), ("G", 2, 14, True), ("D", 4, 6, True),
                   ("A", 1, 400, True), ("A", 3, None, False), ("B", 3, None, False),
                   ("C", 3, None, False), ("D", 4, None, False), ("G", 2, None, False),
                   ("F", 4, None, False)]


def test_sign_walk_matches_multiplication():
    for lab, rank, cutoff, affine in SIGN_WALK_CASES:
        rs = build_root_system(lab, rank)
        cutoff = rs.num_positive if cutoff is None else cutoff
        sl = enumerate_slice(rs, cutoff, affine)
        oracle = enumerate_by_multiply(rs, cutoff, affine)
        assert [(g.key(), g.length) for g in slice_elements(sl)] == [
            (g.key(), g.length) for g in slice_elements(oracle)], (lab, rank, affine)
        assert sl.length == oracle.length
        assert sl.right == oracle.right and sl.dominant == oracle.dominant
        # the walk never calls element_length: it stays the length oracle
        assert all(g.length == element_length(rs, g.wmat, g.mu) for g in slice_elements(sl))
        if not affine:
            assert len(sl) == rs.weyl_order


# the benchmark's slices: size, dominant count and the SHA-256 of the slice
# file payload, which the walk must reproduce byte for byte
BENCH_SLICES = {
    ("A", 2, 24): (901, 132, "516a4bc73921a77d6674e0166bbc423d9ab1fa74808e956e34a2e5fdab3defcb"),
    ("A", 3, 12): (1325, 23, "7ab76f71623d0642b387a6e79258a97a744e25922d3b5cf58a8329a64a7a9dd5"),
    ("B", 3, 9): (479, 1, "6c419d728f19c79be0eb9929470aa141dd13032ea307cbd53e9db945f2a2a45b"),
    ("G", 2, 14): (253, 13, "a344db0d3a64676ff99bdc8eccb49b89105e1d1e5934da2ca3e69509f11edb4b"),
}


def test_bench_slices_keep_their_bytes():
    for (lab, rank, cutoff), (n, dominant, digest) in BENCH_SLICES.items():
        sl = enumerate_slice(build_root_system(lab, rank), cutoff)  # dominance checked
        assert (len(sl), sum(sl.dominant)) == (n, dominant)
        assert hashlib.sha256(weylaffine._slice_payload(sl)).hexdigest() == digest


def test_too_narrow_slots_raise_never_another_slice(monkeypatch):
    # the slot width follows _wall_bound; under any smaller bound the walk
    # either meets no wall value past it and gives the same slice, or raises
    for lab, rank, cutoff, affine in [("A", 2, 10, True), ("G", 2, 8, True),
                                      ("A", 1, 16, True), ("B", 3, 4, True),
                                      ("C", 3, 9, False)]:
        rs = build_root_system(lab, rank)
        want = _enumerate_slice(rs, cutoff, affine)
        payload = weylaffine._slice_payload(want)
        bound = weylaffine._wall_bound(rs, cutoff)
        raised = 0
        for b in range(bound):
            monkeypatch.setattr(weylaffine, "_wall_bound", lambda rs, cutoff, b=b: b)
            try:
                sl = _enumerate_slice(rs, cutoff, affine)
            except InvariantViolation as ex:
                assert f"is past the bound {b}" in str(ex)
                raised += 1
            else:
                assert weylaffine._slice_payload(sl) == payload and sl.dominant == want.dominant
            monkeypatch.undo()
        assert raised, (lab, rank, cutoff)


def test_wall_bound_holds_on_the_slices():
    # _wall_bound's proof, checked: the largest |wall value| over each slice,
    # recomputed from q(w) = h w^-1(p), stays within it
    for lab, rank, cutoff, affine in SIGN_WALK_CASES[:7]:
        rs = build_root_system(lab, rank)
        sl = enumerate_slice(rs, cutoff, affine)
        h = rs.coxeter_number
        inv = slice_inversion(sl)
        top = 0
        for i in range(len(sl)):
            j = inv[i]  # q(g) = h g^-1(p), g^-1 applied to -rho in h-scale
            q = [h * m - x for m, x in zip(rs.rt_to_wt(sl.mu[j]),
                                           (sum(row) for row in sl.parts[sl.part[j]]))]
            vals = [-x for x in q[:rank]]
            if affine:
                vals.append(sum(map(int.__mul__, rs.avee_wt[rs._max_short_index], q)) + h)
            assert 0 not in vals
            top = max(top, *map(abs, vals))
        assert top <= weylaffine._wall_bound(rs, cutoff), (lab, rank, cutoff)


def test_altered_elements_rejected(tmp_path):
    rs = build_root_system("A", 2)
    sl = enumerate_slice(rs, 6)
    rank, n = rs.rank, len(sl)
    finite_parts = sl.parts
    record = rank + 2  # finite part id, translation, length

    def at(i, field):
        """Byte offset of one field of element i's record in the payload."""
        return 16 + 4 * (len(finite_parts) * rank * rank + i * record + field)

    def changing(i, field, change):
        def edit(payload):
            old = int.from_bytes(payload[at(i, field) : at(i, field) + 4], "big", signed=True)
            payload[at(i, field) : at(i, field) + 4] = change(old).to_bytes(4, "big", signed=True)
        return edit

    def swapping(i, j):
        def edit(payload):
            a, b = payload[at(i, 0) : at(i, record)], payload[at(j, 0) : at(j, record)]
            payload[at(i, 0) : at(i, record)], payload[at(j, 0) : at(j, record)] = b, a
        return edit

    # the same generator's pairs {a, a.t} and {b, b.t} between shells 1 and 2,
    # re-paired crosswise: lengths and involutions still agree
    t = 0
    a, b = [i for i in sl.shell(1) if sl.length[sl.right[i][t]] == 2][:2]
    at_, bt = sl.right[a][t], sl.right[b][t]

    def setting(*entries):
        def edit(payload):
            for i, u, value in entries:
                spot = len(payload) - 2 * n * 3 + 2 * (i * 3 + u)
                payload[spot : spot + 2] = value.to_bytes(2, "big", signed=True)
        return edit

    # two upward entries by one generator that are not the first to reach
    # their targets, re-paired crosswise: lengths, involutions and the
    # first product into each element still agree
    def first_visit(j):
        return min((i, u) for u, i in enumerate(sl.right[j])
                   if i != -1 and sl.length[i] < sl.length[j])

    late = [(i, u, j) for i in range(n) for u, j in enumerate(sl.right[i])
            if j != -1 and sl.length[j] > sl.length[i] and first_visit(j) != (i, u)]
    (c, u, cu), (d, _, du) = next(
        (x, y) for x in late for y in late
        if x[1] == y[1] and x[0] != y[0] and sl.length[x[0]] == sl.length[y[0]])

    # two entries of the finite-part table swapped and every element's id
    # renumbered to match: the same elements and table, re-encoded in a way
    # that save_slice never writes
    def renumbering(payload):
        for i in range(n):
            wi = int.from_bytes(payload[at(i, 0) : at(i, 1)], "big", signed=True)
            payload[at(i, 0) : at(i, 1)] = {1: 2, 2: 1}.get(wi, wi).to_bytes(4, "big")
        one, two = (slice(16 + 4 * rank * rank * w, 16 + 4 * rank * rank * (w + 1))
                    for w in (1, 2))
        payload[one], payload[two] = payload[two], payload[one]

    middle = sl.shell(3)[1]
    for edit in (
        changing(middle, 1, lambda x: x + 1),  # translation
        changing(middle, 0, lambda x: (x + 1) % len(finite_parts)),  # finite part id
        changing(middle, record - 1, lambda x: x + 2),  # stored length
        changing(0, record - 1, lambda x: x + 1),  # the identity's length
        swapping(0, 1),  # the identity moved off index 0
        setting((a, t, bt), (bt, t, a), (b, t, at_), (at_, t, b)),
        setting((at_, t, b)),  # a downward entry that is not taken back
        setting((c, u, du), (du, u, c), (d, u, cu), (cu, u, d)),
        renumbering,
    ):
        with pytest.raises(CacheFormatError):
            load_slice(_reframed(tmp_path, sl, edit), rs, 6)
    loaded = load_slice(_reframed(tmp_path, sl, lambda payload: None), rs, 6)
    assert (loaded.parts, loaded.part, loaded.mu) == (sl.parts, sl.part, sl.mu)


def test_forged_slices_rejected(tmp_path):
    """Slices whose table is a consistent walk but not the slice's own."""
    rs = build_root_system("A", 2)
    sl = enumerate_slice(rs, 6)
    n = len(sl)
    s0 = generators(rs, affine=False)[0]
    # every element moved to s0 g, lengths and table kept: consistent
    # products, but index 0 is no longer the identity
    elements = slice_elements(sl)
    moved = [AffineElement(*multiply(rs, s0, g).key(), g.length) for g in elements]
    # index 1 and the last index swapped: a top-shell element comes before
    # every element below it
    perm = [0, n - 1, *range(2, n - 1), 1]
    # two elements of one length shell swapped: a consistent walk, but the
    # indices no longer follow (length, normal form)
    a, b = sl.shell(3)[:2]
    swap = [b if i == a else a if i == b else i for i in range(n)]

    def relabelled(perm):
        back = {old: new for new, old in enumerate(perm)}
        return [[back.get(j, -1) for j in sl.right[old]] for old in perm]

    # the whole finite group under a cutoff below its longest element
    b2 = build_root_system("B", 2)
    full = enumerate_slice(b2, b2.num_positive, affine=False)
    for forged in (
        slice_of(rs, 6, True, moved, sl.right, sl.dominant),
        *(slice_of(rs, 6, True, [elements[old] for old in p], relabelled(p),
                   [sl.dominant[old] for old in p]) for p in (perm, swap)),
        GroupSlice(b2, b2.num_positive - 1, False, full.parts, full.part, full.mu, full.length,
                   full.right, full.dominant),
    ):
        path = tmp_path / "forged.slc"
        save_slice(forged, path)
        with pytest.raises(CacheFormatError):
            load_slice(path, forged.rs, forged.cutoff, forged.affine)


# -- dot action ------------------------------------------------------------------


def test_dot_action_examples():
    a2 = build_root_system("A", 2)
    e = identity(a2)
    assert dot_action(a2, e.key(), (3, 5), 1) == (3, 5)
    gens = generators(a2, affine=False)
    # s_alpha . 0 = -alpha for a simple root
    assert dot_action(a2, gens[0].key(), (0, 0), 1) == (-2, 1)  # -alpha_1 in weight coords


def test_dot_action_homomorphism_and_scaling():
    rng = random.Random(3)
    for lab, rank in [("A", 1), ("B", 2)]:
        rs = build_root_system(lab, rank)
        elements = slice_elements(enumerate_slice(rs, 6))
        for _ in range(200):
            g, h = rng.choice(elements), rng.choice(elements)
            x = tuple(rng.randrange(-5, 6) for _ in range(rank))
            l = rng.choice([1, 2, 3, 5])
            assert dot_action(rs, multiply(rs, g, h).key(), x, l) == dot_action(
                rs, g.key(), dot_action(rs, h.key(), x, l), l
            )
            # scaling identity: g .l (l x + (l-1) rho) = l (g . x) + (l-1) rho
            lhs = dot_action(rs, g.key(), tuple(l * c + (l - 1) for c in x), l)
            rhs = tuple(l * c + (l - 1) for c in dot_action(rs, g.key(), x, 1))
            assert lhs == rhs


# -- Bruhat order ------------------------------------------------------------------


def reduced_word(sl, i):
    """A reduced word of element i, read off the right descents."""
    word = []
    while sl.length[i] > 0:
        s = sl.right_descents(i)[0]
        word.append(s)
        i = sl.right[i][s]
    word.reverse()
    return word


def subword_leq(sl, i, j):
    word = reduced_word(sl, j)
    target = (sl.parts[sl.part[i]], sl.mu[i])
    rs = sl.rs
    gens = generators(rs, sl.affine)
    n = len(word)
    for mask in range(1 << n):
        g = identity(rs)
        for b in range(n):
            if (mask >> b) & 1:
                g = multiply(rs, g, gens[word[b]])
        if g.key() == target:
            return True
    return False


def test_bruhat_matches_subword_oracle():
    # both the descent recursion of the tests and the support of the filled
    # KL rows (P_{x,y} != 0 exactly when x <= y) against the subword oracle
    for sl in (enumerate_slice(build_root_system("A", 1), 8),
               enumerate_slice(build_root_system("B", 2), 4, affine=False)):
        table = KLTable(sl)
        table.fill()
        for i in range(len(sl)):
            for j in range(len(sl)):
                leq = subword_leq(sl, i, j)
                assert bruhat_leq(sl, i, j) == leq
                assert (i in table.rows_for(j)) == leq


def test_bruhat_partial_order_axioms():
    a2 = build_root_system("A", 2)
    sl = enumerate_slice(a2, 5)
    n = len(sl)
    for i in range(n):
        assert bruhat_leq(sl, i, i)
        assert bruhat_leq(sl, 0, i)  # identity is the minimum
    for i in range(n):
        for j in range(n):
            if i != j and bruhat_leq(sl, i, j):
                assert not bruhat_leq(sl, j, i)
    leq = [[bruhat_leq(sl, i, j) for j in range(n)] for i in range(n)]
    for i in range(n):
        for j in range(n):
            if not leq[i][j]:
                continue
            for k in range(n):
                if leq[j][k]:
                    assert leq[i][k]


def test_bruhat_outside_slice_rejected():
    a1 = build_root_system("A", 1)
    sl = enumerate_slice(a1, 4)
    big = enumerate_slice(a1, 6)
    word = reduced_word(big, len(big) - 1)
    with pytest.raises(SliceCoverageError, match="length 6 outside slice; .* at least 6"):
        sl.follow(word)
    assert big.follow(word) == len(big) - 1


# -- dominance of elements -----------------------------------------------------------


def test_dominant_examples():
    for lab, rank in [("A", 1), ("A", 2), ("B", 2)]:
        rs = build_root_system(lab, rank)
        assert not is_dominant_element(rs, identity(rs))
        assert is_dominant_element(rs, longest_finite_element(rs))


def test_finite_part_invariants():
    """Finite parts preserve the invariant form; finite lengths count inversions."""
    rng = random.Random(11)
    for lab, rank in [("A", 2), ("B", 2), ("G", 2)]:
        rs = build_root_system(lab, rank)
        # det(C) times the invariant form on weight coordinates:
        # (u, v) = sum_j (root coordinate j of u) * d_j * v_j
        def pair(u, v):
            scaled = rs.wt_to_rt_scaled(u)
            return sum(scaled[j] * rs.symmetrizers[j] * v[j] for j in range(rank))

        sl = enumerate_slice(rs, 5)
        for g in rng.sample(slice_elements(sl), 12):
            for _ in range(5):
                u = tuple(rng.randrange(-4, 5) for _ in range(rank))
                v = tuple(rng.randrange(-4, 5) for _ in range(rank))
                wu = tuple(sum(g.wmat[i][k] * u[k] for k in range(rank)) for i in range(rank))
                wv = tuple(sum(g.wmat[i][k] * v[k] for k in range(rank)) for i in range(rank))
                assert pair(wu, wv) == pair(u, v)
        # finite elements: length = number of positive roots sent negative
        finite = enumerate_slice(rs, rs.num_positive, affine=False)
        pos = set(rs.pos_roots_wt)
        for g in slice_elements(finite):
            inversions = 0
            for rt_wt in rs.pos_roots_wt:
                img = tuple(
                    sum(g.wmat[i][k] * rt_wt[k] for k in range(rank)) for i in range(rank)
                )
                if img not in pos:
                    inversions += 1
            assert inversions == g.length


def test_dominant_elements_are_maximal_coset_representatives():
    """In each coset Wx fully inside the slice the unique maximal-length
    element is exactly the dominant one."""
    for lab, rank in [("A", 1), ("A", 2)]:
        rs = build_root_system(lab, rank)
        w_order = rs.weyl_order
        finite = slice_elements(enumerate_slice(rs, rs.num_positive, affine=False))
        elements = slice_elements(enumerate_slice(rs, 9))
        cosets = {}
        for g in elements:
            members = [multiply(rs, w, g) for w in finite]
            key = min(m.key() for m in members)
            cosets.setdefault(key, set()).add(g.key())
        index = {g.key(): g for g in elements}
        for key, present in cosets.items():
            if len(present) < w_order:
                continue  # coset truncated by the cutoff
            members = [index[k] for k in present]
            maxlen = max(m.length for m in members)
            top = [m for m in members if m.length == maxlen]
            assert len(top) == 1
            for m in members:
                assert is_dominant_element(rs, m) == (m is top[0])


# -- stabilizers ------------------------------------------------------------------------


def brute_stabilizer_order(rs, x, l):
    """Order of the group generated by all affine reflections fixing x (dot).

    An affine transformation fixing x is determined by its linear part, so
    closing the linear parts of the fixing reflections under products gives
    the stabilizer order.
    """
    v = tuple(Fraction(c) + 1 for c in x)
    mats = []
    for a, rt in enumerate(rs.positive_roots):
        val = sum(Fraction(rs.avee_wt[a][k]) * v[k] for k in range(rs.rank))
        if val.denominator == 1 and int(val) % l == 0:
            mats.append(reflection(rs, rt, 0).wmat)
    if not mats:
        return 1
    eye = tuple(tuple(int(i == j) for j in range(rs.rank)) for i in range(rs.rank))
    seen = {eye}
    stack = [eye]
    while stack:
        m = stack.pop()
        for g in mats:
            prod = tuple(
                tuple(sum(m[i][k] * g[k][j] for k in range(rs.rank)) for j in range(rs.rank))
                for i in range(rs.rank)
            )
            if prod not in seen:
                seen.add(prod)
                stack.append(prod)
    return len(seen)


@pytest.mark.filterwarnings("ignore::klext.errors.LevelWarning")
def test_stabilizer_orders(a1_table20, a2_table12):
    """The singular report's stabilizer order against the brute-force
    stabilizer, and its terms against the coset built by multiplication."""
    b2_table11 = KLTable(enumerate_slice(build_root_system("B", 2), 11))
    b2_table11.fill()  # (4, 4) at l = 5 has an element of length 11
    for table, l, lam, nu, order in [(a1_table20, 3, (2,), (0,), 2),
                                     (a2_table12, 3, (2, 2), (0, 0), 6),
                                     (b2_table11, 5, (4, 4), (0, 0), 8)]:
        rs, sl = table.slice.rs, table.slice
        ctx = make_block_context(rs, l, table)
        rep = singular_ext1_report(ctx, lam, nu)
        g, lam_minus = factorize_by_multiply(rs, lam, l)
        assert rep.stabilizer_order == brute_stabilizer_order(rs, lam_minus, l) == order
        index = {h.key(): i for i, h in enumerate(slice_elements(sl))}
        y = index[factorize_by_multiply(rs, nu, l)[0].key()]
        members = [index[v.key()] for v in coset(rs, g, facet_generators(rs, lam_minus, l))]
        assert len(members) == order
        assert rep.terms == sorted((v, mu(table, v, y)) for v in members
                                   if (sl.length[v] - sl.length[y]) % 2)
        assert rep.kept_parities == len(rep.terms) and rep.mu_sum == sum(m for _, m in rep.terms)


# -- factorization -----------------------------------------------------------------------


def in_closure_fundamental(rs, lam, l):
    """Whether lam lies in the closure of the fundamental (antidominant) alcove."""
    v = tuple(c + 1 for c in lam)
    if any(c > 0 for c in v):
        return False
    a0 = rs._max_short_index
    return sum(rs.avee_wt[a0][k] * v[k] for k in range(rs.rank)) >= -l


FACTORIZE_GRID = [("A", 1, 3, 9), ("A", 2, 5, 15), ("B", 2, 7, 21), ("G", 2, 7, 14),
                  ("A", 3, 5, 5)]


def test_factorize_roundtrip_and_conventions():
    """Every weight of a box factorizes to a reduced word whose slice index
    is the element the multiplication oracle builds."""
    from itertools import product

    for lab, rank, l, box in FACTORIZE_GRID:
        rs = build_root_system(lab, rank)
        words = {lam: factorize_weight(rs, lam, l) for lam in product(range(box), repeat=rank)}
        sl = enumerate_slice(rs, max(len(word) for word, _ in words.values()))
        elements = slice_elements(sl)
        for lam, (word, lam_minus) in words.items():
            i = sl.follow(word)
            g = elements[i]
            assert sl.length[i] == len(word)  # the word is reduced
            assert in_closure_fundamental(rs, lam_minus, l)
            assert dot_action(rs, g.key(), lam_minus, l) == tuple(lam)
            regular = classify_weight(rs, lam, l)["regular_l"]
            assert regular == is_interior_fundamental(rs, lam_minus, l)
            # maximal length in its stabilizer coset: every fixing generator
            # is a right descent
            assert set(facet_generators(rs, lam_minus, l)) <= set(sl.right_descents(i))
            if regular:
                assert sl.dominant[i]
            oracle, oracle_minus = factorize_by_multiply(rs, lam, l)
            assert (g.key(), lam_minus) == (oracle.key(), oracle_minus), (lab, lam, l)


def test_word_length_is_counted_before_the_walk(monkeypatch):
    # the walls count the letters of every word, singular weights and
    # weights outside the dominant cone included
    rng = random.Random(17)
    singular = 0
    for lab, rank in [("A", 1), ("A", 2), ("B", 2), ("G", 2), ("A", 3), ("B", 3), ("C", 3),
                      ("D", 4), ("F", 4)]:
        rs = build_root_system(lab, rank)
        for _ in range(60):
            lam = tuple(rng.randrange(-40, 60) for _ in range(rank))
            l = rng.choice([1, 2, 3, 5, 7, 12])
            word, lam_minus = factorize_weight(rs, lam, l)
            assert weylaffine._word_length(rs, [c + 1 for c in lam], l) == len(word), (lam, l)
            singular += bool(facet_generators(rs, lam_minus, l))
    assert singular > 100
    a2 = build_root_system("A", 2)
    assert len(factorize_weight(a2, (100, 100), 5)[0]) == 83
    # a word above the letter cap is refused before any step
    monkeypatch.setattr(weylaffine, "WORD_CAP", 82)
    with pytest.raises(ResourceCapError, match="needs a word of 83 letters, above the cap of 82"):
        factorize_weight(a2, (100, 100), 5)
    monkeypatch.undo()
    # a walk that disagrees with the count is a bug, caught on either side
    count = weylaffine._word_length
    for off, message in ((-1, "passed the 82 walls it counted"),
                         (1, "took 83 letters, not the 84 it counted")):
        monkeypatch.setattr(weylaffine, "_word_length", lambda *a, off=off: count(*a) + off)
        with pytest.raises(InvariantViolation, match=message):
            factorize_weight(a2, (100, 100), 5)


def test_a_word_longer_than_the_cutoff_is_refused_before_the_walk(monkeypatch):
    # given a slice's cutoff, a longer word is refused with the error that
    # GroupSlice.follow raises at its end, after the letter cap and before
    # any step of the walk
    a2 = build_root_system("A", 2)
    sl = _enumerate_slice(a2, 6)
    for lam in itertools.product(range(12), repeat=2):
        word, lam_minus = factorize_weight(a2, lam, 3)
        if len(word) <= sl.cutoff:
            assert factorize_weight(a2, lam, 3, sl.cutoff) == (word, lam_minus)
            continue
        with pytest.raises(SliceCoverageError) as walked:
            sl.follow(word)
        with pytest.raises(SliceCoverageError) as counted:
            factorize_weight(a2, lam, 3, sl.cutoff)
        assert str(counted.value) == str(walked.value) == (
            f"element of length {len(word)} outside slice; "
            f"enlarge cutoff to at least {len(word)}")
    monkeypatch.setattr(weylaffine, "WORD_CAP", 82)
    with pytest.raises(ResourceCapError, match="needs a word of 83 letters"):
        factorize_weight(a2, (100, 100), 5, 10)
    monkeypatch.undo()
    # a walk would find a count one too high; the refusal comes first
    count = weylaffine._word_length
    monkeypatch.setattr(weylaffine, "_word_length", lambda *a: count(*a) + 1)
    with pytest.raises(SliceCoverageError, match="element of length 84 outside slice"):
        factorize_weight(a2, (100, 100), 5, 83)


# -- enumeration ---------------------------------------------------------------------------


def test_enumeration_counts():
    a1 = build_root_system("A", 1)
    assert len(enumerate_slice(a1, 5)) == 11
    assert len(enumerate_slice(a1, 0)) == 1
    a2 = build_root_system("A", 2)
    sl = enumerate_slice(a2, 6)
    # affine A2 growth: exactly 3n elements of each length n >= 1
    from collections import Counter

    counts = Counter(sl.length)
    assert counts[0] == 1
    for n in range(1, 7):
        assert counts[n] == 3 * n
    assert len(sl) == 1 + sum(3 * n for n in range(1, 7))


def test_enumeration_determinism_and_cap():
    a2 = build_root_system("A", 2)
    s1 = enumerate_slice(a2, 6)
    s2 = enumerate_slice(a2, 6)
    assert (s1.parts, s1.part, s1.mu) == (s2.parts, s2.part, s2.mu)
    assert s1.length[0] == 0
    assert all(
        s1.length[i] <= s1.length[i + 1] for i in range(len(s1) - 1)
    )
    with pytest.raises(ResourceCapError):
        enumerate_slice(a2, 10, max_elements=20)
    # the identity shell counts against the cap too; a negative cap is invalid
    with pytest.raises(ResourceCapError, match="cap of 0 elements at length 0"):
        enumerate_slice(a2, 0, max_elements=0)
    assert len(enumerate_slice(a2, 0, max_elements=1)) == 1
    with pytest.raises(InvalidSystemError, match="nonnegative"):
        enumerate_slice(a2, 0, max_elements=-1)


def test_length_is_word_metric():
    for lab, rank in [("A", 1), ("A", 2), ("B", 2), ("G", 2)]:
        rs = build_root_system(lab, rank)
        sl = enumerate_slice(rs, 6)
        for i in range(len(sl)):
            for t, j in enumerate(sl.right[i]):
                if j != -1:
                    assert abs(sl.length[j] - sl.length[i]) == 1


# -- alcove-walk oracle for dominant counts ----------------------------------------------


def alcove_walk_counts(rs, cutoff):
    """BFS over alcoves by reflecting an interior point across facet walls.

    Completely independent of the group arithmetic: alcoves are keyed by the
    floor vector of an interior point against every positive coroot, the
    distance of an alcove is its separating-hyperplane count from the start,
    and a candidate wall is a facet exactly when its mirror image is
    separated by that single hyperplane.
    """
    h = rs.coxeter_number
    start = tuple(Fraction(-1, h) for _ in range(rs.rank))

    def pairings(u):
        return [
            sum(Fraction(rs.avee_wt[a][k]) * u[k] for k in range(rs.rank))
            for a in range(rs.num_positive)
        ]

    base_vals = pairings(start)

    def key(u):
        vals = pairings(u)
        assert all(v.denominator != 1 for v in vals)
        return tuple(v.__floor__() for v in vals)

    def separation(u):
        # integers strictly between the start pairings and u's pairings
        return sum(
            abs(v.__floor__() - b.__floor__())
            for v, b in zip(pairings(u), base_vals)
        )

    def reflect(u, a, n):
        val = sum(Fraction(rs.avee_wt[a][k]) * u[k] for k in range(rs.rank))
        root_wt = rs.pos_roots_wt[a]
        return tuple(u[k] - (val - n) * root_wt[k] for k in range(rs.rank))

    start_key = key(start)
    seen = {start_key: (start, 0)}
    frontier = [start]
    while frontier:
        nxt = []
        for u in frontier:
            vals = pairings(u)
            d_u = separation(u)
            for a in range(rs.num_positive):
                for n in (vals[a].__floor__(), vals[a].__floor__() + 1):
                    v = reflect(u, a, n)
                    # facet wall: mirror image differs by exactly one floor
                    if sum(
                        abs(x.__floor__() - y.__floor__())
                        for x, y in zip(pairings(v), vals)
                    ) != 1:
                        continue
                    k = key(v)
                    d_v = separation(v)
                    if k not in seen and d_v <= cutoff:
                        seen[k] = (v, d_v)
                        nxt.append(v)
        frontier = nxt
    total_by_dist = {}
    dominant_by_dist = {}
    for u, d in seen.values():
        total_by_dist[d] = total_by_dist.get(d, 0) + 1
        if all(x > 0 for x in u):  # image alcove inside the dominant cone
            dominant_by_dist[d] = dominant_by_dist.get(d, 0) + 1
    return total_by_dist, dominant_by_dist


def test_dominant_counts_match_alcove_walk():
    for lab, rank, cutoff in [("A", 1, 8), ("A", 2, 6), ("B", 2, 6)]:
        rs = build_root_system(lab, rank)
        sl = enumerate_slice(rs, cutoff)
        total, dom = alcove_walk_counts(rs, cutoff)
        from collections import Counter

        counts = Counter(sl.length)
        dcounts = Counter(ln for i, ln in enumerate(sl.length) if sl.dominant[i])
        for d in range(cutoff + 1):
            assert counts.get(d, 0) == total.get(d, 0), (lab, d)
            assert dcounts.get(d, 0) == dom.get(d, 0), (lab, d)


# -- symmetries ------------------------------------------------------------------------


def brute_symmetries(sl):
    """Every labelled automorphism of the right table: for each permutation
    of the generators, the map sending each element's reduced word through
    it, kept when it permutes the slice and sends every table entry to the
    entry of the images."""
    words = [reduced_word(sl, i) for i in range(len(sl))]
    found = set()
    for perm in itertools.permutations(range(len(sl.right[0]))):
        try:
            sigma = [sl.follow([perm[t] for t in word]) for word in words]
        except SliceCoverageError:
            continue
        if sorted(sigma) == list(range(len(sl))) and all(
            sl.right[sigma[y]][perm[t]] == (-1 if j == -1 else sigma[j])
            for y, row in enumerate(sl.right) for t, j in enumerate(row)
        ):
            found.add(tuple(sigma))
    return found


# (type, rank, cutoff, affine, order of the Coxeter-graph automorphism group);
# at cutoff >= 6 the right table sees every relation (st)^m with m <= 6
SYMMETRIC_SLICES = [
    ("A", 1, 8, True, 2), ("A", 2, 6, True, 6), ("A", 3, 6, True, 8),
    ("A", 4, 6, True, 10), ("B", 2, 8, True, 2), ("B", 3, 6, True, 2),
    ("C", 3, 6, True, 2), ("D", 4, 6, True, 24), ("G", 2, 8, True, 1),
    ("A", 3, 6, False, 2), ("G", 2, 6, False, 2), ("D", 4, 12, False, 6),
    ("F", 4, 24, False, 2),
]


@pytest.mark.parametrize("lab, rank, cutoff, affine, order", SYMMETRIC_SLICES)
def test_slice_symmetries_match_brute_force(lab, rank, cutoff, affine, order):
    sl = _enumerate_slice(build_root_system(lab, rank), cutoff, affine)
    maps = slice_symmetries(sl)
    assert maps[0] == list(range(len(sl))) and len(maps) == order
    assert set(map(tuple, maps)) == brute_symmetries(sl)


@pytest.mark.parametrize("lab, rank, cutoff, affine, order", SYMMETRIC_SLICES)
def test_symmetry_generators_generate_every_symmetry(monkeypatch, lab, rank, cutoff, affine,
                                                     order):
    # slice_symmetry_group checks the maps of a generating set only and
    # composes the rest, yet lists every symmetry, in the oracle's order
    sl = _enumerate_slice(build_root_system(lab, rank), cutoff, affine)
    oracle = slice_symmetries(sl)
    checked = []

    def counted(right, perm):
        checked.append(perm)
        return _relabelling(right, perm)

    monkeypatch.setattr(weylaffine, "_relabelling", counted)
    group = slice_symmetry_group(sl)
    assert len(checked) <= 3  # of up to order - 1 = 23 maps (D4 affine: three transpositions)
    assert group == oracle and len(group) == order
    assert set(map(tuple, group)) == brute_symmetries(sl)


def test_slice_inversion_is_the_group_inverse():
    for lab, rank, cutoff, affine in (("A", 2, 8, True), ("B", 2, 8, True),
                                      ("G", 2, 8, True), ("B", 3, 9, False)):
        rs = build_root_system(lab, rank)
        sl = _enumerate_slice(rs, cutoff, affine)
        elements = slice_elements(sl)
        index = {g.key(): i for i, g in enumerate(elements)}
        assert slice_inversion(sl) == [index[inverse(rs, g).key()] for g in elements]


def test_inconsistent_right_table_rejected():
    sl = _enumerate_slice(build_root_system("A", 2), 6)
    y = sl.shell(3)[0]
    bad = [list(row) for row in sl.right]
    bad[y][0], bad[y][1] = bad[y][1], bad[y][0]
    broken = GroupSlice(sl.rs, sl.cutoff, sl.affine, sl.parts, sl.part, sl.mu, sl.length, bad,
                        sl.dominant)
    with pytest.raises(InvariantViolation, match="involution"):
        slice_inversion(broken)
    with pytest.raises(InvariantViolation, match="does not relabel"):
        slice_symmetries(broken)
    with pytest.raises(InvariantViolation, match="does not relabel"):
        slice_symmetry_group(broken)
