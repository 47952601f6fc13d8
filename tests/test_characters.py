"""Characters: Freudenthal vs alternating sums, chi_KL, blocks, tensors."""

import functools
import random
from fractions import Fraction
from itertools import product

import pytest

from groupmul import _matmul, generators, identity
from klext import characters
from klext.characters import (
    chi_kl,
    decomposition_matrix,
    dominant_weights_below,
    tensor_decompose,
    weyl_character,
    weyl_dimension,
    weyl_orbit,
)
from klext.errors import (
    InvalidSystemError,
    InvariantViolation,
    ResourceCapError,
    SliceCoverageError,
)
from klext.rootsys import (
    build_root_system,
    classify_weight,
    dominance_leq,
    is_dominant,
    kostant_partition,
)
from klext.weylaffine import _matvec, enumerate_slice


def full_expansion(char):
    """The W-symmetric expansion of a character: every weight with its
    multiplicity, not just the dominant representatives."""
    out = {}
    for wt, m in char.dom.items():
        for v in weyl_orbit(char.rs, wt):
            out[v] = out.get(v, 0) + m
    return out


def test_trivial_and_fundamental_characters():
    a2 = build_root_system("A", 2)
    triv = weyl_character(a2, (0, 0))
    assert triv.dom == {(0, 0): 1} and triv.dimension() == 1
    c = weyl_character(a2, (1, 0))
    assert c.dimension() == 3
    assert full_expansion(c) == {(1, 0): 1, (-1, 1): 1, (0, -1): 1}
    assert c.multiplicity((-1, 1)) == 1 and c.multiplicity((5, 5)) == 0


def test_a1_dimensions():
    a1 = build_root_system("A", 1)
    for n in range(30):
        assert weyl_character(a1, (n,)).dimension() == n + 1
        assert weyl_dimension(a1, (n,)) == n + 1


def test_highest_weight_multiplicity_one_and_positivity():
    rng = random.Random(4)
    for lab, rank in [("A", 2), ("B", 2), ("G", 2)]:
        rs = build_root_system(lab, rank)
        for _ in range(10):
            lam = tuple(rng.randrange(0, 4) for _ in range(rank))
            c = weyl_character(rs, lam)
            assert c.dom[lam] == 1
            assert all(m > 0 for m in c.dom.values())
            assert c.dimension() == weyl_dimension(rs, lam)


# -- orbit sizes ------------------------------------------------------------------


def orbit_dimension(char):
    """dim by the definition: the size of each stored weight's W-orbit,
    enumerated by ``weyl_orbit``, times its multiplicity."""
    return sum(m * len(weyl_orbit(char.rs, wt)) for wt, m in char.dom.items())


@pytest.mark.parametrize("lab,rank", [
    ("A", 1), ("A", 2), ("A", 3), ("A", 4), ("B", 2), ("B", 3), ("B", 4), ("C", 3),
    ("C", 4), ("D", 4), ("D", 5), ("F", 4), ("G", 2), ("E", 6),
])
def test_orbit_size_product_equals_the_enumerated_orbit(lab, rank):
    # Macdonald's product on each zero pattern against the orbit itself;
    # each orbit leaves weyl_orbit's cache once counted (E6's regular orbit
    # has 51840 weights)
    rs = build_root_system(lab, rank)
    orbits = characters._orbit_cache.setdefault(rs, {})
    for pattern in product((0, 1), repeat=rank):
        size = len(weyl_orbit(rs, pattern))
        orbits.pop(pattern)
        assert characters._orbit_size(rs, pattern) == size, pattern
        assert characters._orbit_sizes[rs][tuple(map(bool, pattern))] == size


def test_orbit_size_product_over_every_root_is_the_weyl_group_order():
    for lab, ranks in [("A", range(1, 9)), ("B", range(2, 9)), ("C", range(3, 9)),
                       ("D", range(4, 9)), ("E", range(6, 9)), ("F", [4]), ("G", [2])]:
        for rank in ranks:
            rs = build_root_system(lab, rank)
            assert characters._orbit_size(rs, (1,) * rank) == rs.weyl_order, (lab, rank)
    assert characters._orbit_size(build_root_system("E", 8), (1,) * 8) == 696729600


def test_dimension_equals_the_orbit_definition_on_virtual_and_non_dominant_keys(
        a1_table20, a2_table12):
    a2 = build_root_system("A", 2)
    # hand-built characters keyed off the dominant chamber, one of them with
    # a negative multiplicity: (-1, 1) and (1, -1) lie in the orbits of
    # (0, 1) and (1, 0), and (2, -3) in that of (1, 1)
    for dom, dim in [({(-1, 1): 1}, 3), ({(1, -1): 2, (0, 0): -1, (2, -3): 1}, 11)]:
        char = characters.Character(a2, dom)
        assert char.dimension() == orbit_dimension(char) == dim
    # virtual characters: chi_KL expanded, a signed sum of Weyl characters
    for rank, lams, table in [(1, [(3,), (9,), (13,)], a1_table20),
                              (2, [(1, 1), (4, 1), (4, 4), (7, 4)], a2_table12)]:
        rs = build_root_system("A", rank)
        for lam in lams:
            ck = chi_kl(rs, lam, 3, table)
            assert len(ck.terms) > 1 and min(c for _, c in ck.terms) < 0, lam
            virtual = ck.expand()
            assert virtual.dimension() == orbit_dimension(virtual), lam


# -- alternating-sum oracle -------------------------------------------------------


@functools.cache
def weyl_group_elements(rs):
    """All of W as weight-coordinate matrices with lengths, off the finite slice."""
    sl = enumerate_slice(rs, rs.num_positive, affine=False)
    return [(sl.parts[f], ln) for f, ln in zip(sl.part, sl.length)]


def kostant_multiplicity(rs, lam, mu):
    """Alternating-sum weight multiplicity: sum_w (-1)^l(w) P(w(lam+rho)-(mu+rho))."""
    total = 0
    lam_rho = tuple(x + 1 for x in lam)
    mu_rho = tuple(x + 1 for x in mu)
    for wmat, ln in weyl_group_elements(rs):
        arg = tuple(a - b for a, b in zip(_matvec(wmat, lam_rho), mu_rho))
        coords = rs.wt_to_rt_int(arg)
        if coords is None or any(c < 0 for c in coords):
            continue
        val = kostant_partition(rs, coords)
        total += val if ln % 2 == 0 else -val
    return total


def skew_orbit_sum(rs, wt):
    """The signed orbit sum A(wt) = sum_w (-1)^l(w) e(w(wt))."""
    out = {}
    for wmat, ln in weyl_group_elements(rs):
        img = _matvec(wmat, wt)
        out[img] = out.get(img, 0) + (1 if ln % 2 == 0 else -1)
    return {k: v for k, v in out.items() if v}


def convolve(a, b):
    out = {}
    for u, mu_ in a.items():
        for v, mv in b.items():
            key = tuple(x + y for x, y in zip(u, v))
            s = out.get(key, 0) + mu_ * mv
            if s:
                out[key] = s
            elif key in out:
                del out[key]
    return out


def alternating_sum_check(rs, lam):
    """chi(lam) * A(rho) == A(lam+rho), elementwise in the group algebra."""
    char = full_expansion(weyl_character(rs, lam))
    lhs = convolve(char, skew_orbit_sum(rs, rs.rho))
    rhs = skew_orbit_sum(rs, tuple(x + 1 for x in lam))
    return lhs == rhs


def simple_character(dm, mu):
    """ch L(mu) expanded from column index_of(mu) of the signed-KL matrix A."""
    j = dm.index_of(mu)
    column = (row[j] for row in dm.a_matrix)
    return characters._weyl_combination(dm.rs, zip(dm.weights, column))


def resubstitution_check(dm):
    """chi(nu) == sum_mu [Delta(nu):L(mu)] ch L(mu), fully expanded."""
    for j, nu in enumerate(dm.weights):
        acc = {}
        for i, mu in enumerate(dm.weights):
            coeff = dm.d_matrix[i][j]
            if coeff == 0:
                continue
            for v, m in simple_character(dm, mu).dom.items():
                s = acc.get(v, 0) + coeff * m
                if s:
                    acc[v] = s
                elif v in acc:
                    del acc[v]
        if acc != weyl_character(dm.rs, nu).dom:
            return False
    return True


def bfs_weyl_group(rs):
    """W by breadth-first search on weight-coordinate matrices alone, with
    the first depth at which each matrix appears as its length: the oracle
    for ``weyl_group_elements``, which reads the finite slice."""
    gens = [g.wmat for g in generators(rs, affine=False)]
    eye = identity(rs).wmat
    seen = {eye: 0}
    shell = [eye]
    ln = 0
    while shell:
        ln += 1
        nxt = []
        for m in shell:
            for g in gens:
                prod = _matmul(m, g)
                if prod not in seen:
                    seen[prod] = ln
                    nxt.append(prod)
        shell = nxt
    return sorted(seen.items(), key=lambda kv: (kv[1], kv[0]))


def test_weyl_group_elements_equal_bfs_oracle():
    for lab, rank in [("A", 1), ("A", 2), ("A", 3), ("A", 4), ("B", 2), ("B", 3),
                      ("C", 3), ("D", 4), ("G", 2)]:
        rs = build_root_system(lab, rank)
        assert weyl_group_elements(rs) == bfs_weyl_group(rs)


def test_freudenthal_equals_kostant_oracle():
    for lab, rank, lams in [
        ("A", 2, [(2, 1), (3, 0), (2, 2)]),
        ("B", 2, [(1, 1), (2, 1)]),
        ("G", 2, [(1, 0), (1, 1)]),
    ]:
        rs = build_root_system(lab, rank)
        for lam in lams:
            c = weyl_character(rs, lam)
            for mu in dominant_weights_below(rs, lam):
                assert c.dom.get(mu, 0) == kostant_multiplicity(rs, lam, mu)


def test_freudenthal_g2_against_both_oracles():
    # G2 has the longest root strings, with up to four weights each
    g2 = build_root_system("G", 2)
    lams = [wt for wt in product(range(8), repeat=2) if weyl_dimension(g2, wt) <= 300]
    assert len(lams) >= 10 and max(weyl_dimension(g2, wt) for wt in lams) > 250
    for lam in lams:
        c = weyl_character(g2, lam)
        assert c.dimension() == weyl_dimension(g2, lam)
        assert alternating_sum_check(g2, lam), lam
        for mu in dominant_weights_below(g2, lam):
            assert c.dom.get(mu, 0) == kostant_multiplicity(g2, lam, mu), (lam, mu)


def test_freudenthal_at_benchmark_sizes():
    # the largest characters of the weights benchmark: A1 up to 961, A2 at
    # (37, 0) and (12, 6), B2 at (0, 10) and the largest G2 weight of
    # dimension <= 1000 in the 45-box; each against Weyl's product and
    # quotient, and its dominant weights in (height of lam - mu, mu) order
    # from a scan of every point of the root-coordinate box below lam
    g2 = build_root_system("G", 2)
    g2_top = max((wt for wt in product(range(45), repeat=2) if weyl_dimension(g2, wt) <= 1000),
                 key=lambda wt: (weyl_dimension(g2, wt), wt))
    assert (g2_top, weyl_dimension(g2, g2_top)) == ((4, 1), 924)
    for lab, rank, lam, dim in [("A", 1, (961,), 962), ("A", 2, (37, 0), 741),
                                ("A", 2, (12, 6), 910), ("B", 2, (0, 10), 286),
                                ("G", 2, g2_top, 924)]:
        rs = build_root_system(lab, rank)
        c = weyl_character(rs, lam)
        assert weyl_dimension(rs, lam) == c.dimension() == dim
        assert alternating_sum_check(rs, lam), (lab, lam)
        caps = [x // rs.cartan_det for x in rs.wt_to_rt_scaled(lam)]
        below = []
        for rt in product(*(range(cap + 1) for cap in caps)):
            mu = tuple(a - b for a, b in zip(lam, rs.rt_to_wt(rt)))
            if is_dominant(mu):
                below.append((sum(rt), mu))
        assert list(c.dom) == [mu for _, mu in sorted(below)], (lab, lam)
        assert list(c.dom)[0] == lam and min(c.dom.values()) > 0


def test_alternating_sum_identity_small():
    for lab, rank in [("A", 1), ("A", 2), ("B", 2)]:
        rs = build_root_system(lab, rank)
        for lam in dominant_weights_below(rs, (3,) * rank):
            assert alternating_sum_check(rs, lam)


def test_weyl_character_rejects_non_dominant():
    a2 = build_root_system("A", 2)
    with pytest.raises(InvalidSystemError):
        weyl_character(a2, (-1, 0))


def test_malformed_weights_rejected():
    a2 = build_root_system("A", 2)
    for bad in [(1,), (1, 0, 0)]:
        with pytest.raises(InvalidSystemError, match="coordinates"):
            weyl_character(a2, bad)
    with pytest.raises(InvalidSystemError, match="non-integral"):
        weyl_character(a2, (Fraction(1, 2), 0))
    for lam, nu in [((1,), (1, 0)), ((1, 0), (1, 0, 0))]:
        with pytest.raises(InvalidSystemError, match="coordinates"):
            tensor_decompose(a2, lam, nu)
    with pytest.raises(InvalidSystemError, match="non-integral"):
        tensor_decompose(a2, (1, 0), (0.5, 1))
    with pytest.raises(InvalidSystemError, match="dominant"):
        tensor_decompose(a2, (1, 0), (-1, 1))
    c = weyl_character(a2, (1, 0))
    for bad in [(-1,), (1, 0, -1)]:
        for call in (lambda: c.multiplicity(bad), lambda: weyl_orbit(a2, bad)):
            with pytest.raises(InvalidSystemError, match="coordinates"):
                call()


A2 = build_root_system("A", 2)


@pytest.mark.parametrize("call", [
    lambda: weyl_dimension(A2, (1, 1, 5)),  # the extra coordinate was ignored
    lambda: weyl_dimension(A2, (1,)),  # an IndexError
    lambda: dominant_weights_below(A2, (3,)),  # rank-1 weights
    lambda: dominant_weights_below(A2, (3, 0, 4)),
    lambda: classify_weight(A2, (1,), 5),
    lambda: dominance_leq(A2, (0, 0), (1, 1, 1)),
    lambda: dominance_leq(A2, (1,), (1, 1), "rational"),
], ids=["dim-long", "dim-short", "below-short", "below-long", "classify-short",
        "leq-long", "leq-short-rational"])
def test_weight_readers_refuse_a_wrong_length(call):
    with pytest.raises(InvalidSystemError, match="coordinates, A2 needs 2"):
        call()


# -- chi_KL ----------------------------------------------------------------------


def test_chi_kl_affine_a1(a1_table20):
    a1 = build_root_system("A", 1)
    # second dominant alcove at l=3: exactly two terms with signs -1, +1
    ck = chi_kl(a1, (3,), 3, a1_table20)
    assert len(ck.terms) == 2
    assert sorted(c for _, c in ck.terms) == [-1, 1]
    assert ck.expand().dimension() == 2
    # minimal weight in its block: a single term, chi itself
    ck0 = chi_kl(a1, (0,), 3, a1_table20)
    assert ck0.terms == [((0,), 1)]
    # sign alternation with the length gap
    sl = a1_table20.slice
    ck2 = chi_kl(a1, (9,), 3, a1_table20)
    w = ck2.w_index
    for wt, coeff in ck2.terms:
        assert abs(coeff) >= 1
    assert sum(1 for _, c in ck2.terms if c > 0) >= 1


def test_chi_kl_rejects_singular(a1_table20):
    a1 = build_root_system("A", 1)
    with pytest.raises(InvalidSystemError):
        chi_kl(a1, (2,), 3, a1_table20)  # (2+1) = 3 is singular at l = 3


def test_chi_kl_coverage_error():
    rs = build_root_system("A", 1)
    from klext.klpoly import KLTable
    from klext.weylaffine import enumerate_slice

    small = KLTable(enumerate_slice(rs, 2))
    small.fill()
    with pytest.raises(SliceCoverageError):
        chi_kl(rs, (15,), 3, small)


# -- decomposition matrices ----------------------------------------------------------


def test_decomposition_chain_a1_l3(a1_table20):
    a1 = build_root_system("A", 1)
    dm = decomposition_matrix(a1, (0,), 3, bound=(10,), table=a1_table20)
    assert dm.weights == [(0,), (4,), (6,), (10,)]
    for j, nu in enumerate(dm.weights):
        assert dm.d_matrix[j][j] == 1
        assert dm.standard_length(nu) == (1 if j == 0 else 2)
    assert resubstitution_check(dm)


def test_decomposition_blocks_various(a1_table20, a2_table12, b2_table10):
    a1 = build_root_system("A", 1)
    a2 = build_root_system("A", 2)
    b2 = build_root_system("B", 2)
    blocks = [
        decomposition_matrix(a1, (0,), 5, bound=(14,), table=a1_table20),
        decomposition_matrix(a2, (0, 0), 5, bound=(8, 8), table=a2_table12),
        decomposition_matrix(b2, (0, 0), 5, bound=(4, 4), table=b2_table10),
    ]
    for dm in blocks:
        n = len(dm.weights)
        assert n >= 2
        for i in range(n):
            assert dm.a_matrix[i][i] == 1 and dm.d_matrix[i][i] == 1
            for j in range(n):
                # A*D == I is enforced at construction; spot-check anyway
                s = sum(dm.a_matrix[i][k] * dm.d_matrix[k][j] for k in range(n))
                assert s == int(i == j)
                assert dm.d_matrix[i][j] >= 0
                if dm.a_matrix[i][j] != 0 and i != j:
                    assert dominance_leq(dm.rs, dm.weights[i], dm.weights[j])
        assert resubstitution_check(dm)


@pytest.mark.parametrize("broken", ["below_diagonal", "diagonal"])
def test_decomposition_rejects_a_signed_kl_matrix_that_is_not_unitriangular(
        broken, a2_table12, monkeypatch):
    # the check of A*D = I sums over the upper triangle only, so A's lower
    # triangle and diagonal are checked on their own
    a2 = build_root_system("A", 2)
    real = characters.kl_polynomial

    def kl_polynomial(table, x, y):
        if broken == "below_diagonal" and x > y:
            return (1,)
        if broken == "diagonal" and x == y:
            return (2,)
        return real(table, x, y)

    monkeypatch.setattr(characters, "kl_polynomial", kl_polynomial)
    with pytest.raises(InvariantViolation, match=r"^A\*D != I in decomposition matrix$"):
        decomposition_matrix(a2, (0, 0), 5, bound=(8, 8), table=a2_table12)


def test_decomposition_requires_regular_seed(a1_table20):
    a1 = build_root_system("A", 1)
    with pytest.raises(InvalidSystemError):
        decomposition_matrix(a1, (2,), 3, table=a1_table20)


# -- tensor products --------------------------------------------------------------------


def test_tensor_identity_and_clebsch_gordan():
    a1 = build_root_system("A", 1)
    a2 = build_root_system("A", 2)
    assert tensor_decompose(a2, (0, 0), (2, 1)) == {(2, 1): 1}
    assert tensor_decompose(a1, (1,), (1,)) == {(0,): 1, (2,): 1}
    # brute-force Clebsch-Gordan ladder
    for a in range(5):
        for b in range(a, 5):
            got = tensor_decompose(a1, (a,), (b,))
            expected = {(b - a + 2 * k,): 1 for k in range(a + 1)}
            assert got == expected


def test_tensor_dimension_homomorphism():
    rng = random.Random(8)
    for lab, rank in [("A", 2), ("B", 2)]:
        rs = build_root_system(lab, rank)
        for _ in range(8):
            lam = tuple(rng.randrange(0, 3) for _ in range(rank))
            nu = tuple(rng.randrange(0, 3) for _ in range(rank))
            comps = tensor_decompose(rs, lam, nu)
            assert sum(
                m * weyl_dimension(rs, wt) for wt, m in comps.items()
            ) == weyl_dimension(rs, lam) * weyl_dimension(rs, nu)
            assert tensor_decompose(rs, nu, lam) == comps


def convolution_tensor(rs, lam, nu):
    """Reference decomposition: multiply the two full characters, then peel
    off the simple of each maximal remaining weight."""
    work = convolve(full_expansion(weyl_character(rs, lam)),
                    full_expansion(weyl_character(rs, nu)))
    out = {}
    while work:
        tau = max(work, key=lambda wt: (sum(rs.wt_to_rt_scaled(wt)), wt))
        m = work[tau]
        assert is_dominant(tau) and m > 0
        out[tau] = m
        for v, mult in full_expansion(weyl_character(rs, tau)).items():
            s = work.get(v, 0) - m * mult
            if s:
                work[v] = s
            else:
                work.pop(v, None)
    return dict(sorted(out.items()))


def test_tensor_equals_convolution_oracle():
    rng = random.Random(12)
    for lab in ("A", "B"):
        rs = build_root_system(lab, 2)
        smalls = [wt for wt in product(range(15), repeat=2) if weyl_dimension(rs, wt) <= 100]
        for _ in range(40):
            lam, nu = rng.choice(smalls), rng.choice(smalls)
            got = tensor_decompose(rs, lam, nu)
            assert list(got) == sorted(got)
            assert got == convolution_tensor(rs, lam, nu), (lab, lam, nu)


def test_dominant_box_cap(monkeypatch):
    # the root-coordinate box below A1's lam has lam // 2 + 1 points; a box
    # above the cap is refused before it is walked, by every caller
    rs = build_root_system("A", 1)
    huge = (2 * characters.DOMINANT_BOX_CAP,)
    for call in (lambda: weyl_character(rs, huge),
                 lambda: dominant_weights_below(rs, huge),
                 lambda: tensor_decompose(rs, huge, huge)):
        with pytest.raises(ResourceCapError,
                           match="box of 1000001 points, above the cap of 1000000"):
            call()
    monkeypatch.setattr(characters, "DOMINANT_BOX_CAP", 10)
    assert weyl_character(rs, (18,)).dimension() == 19
    assert len(dominant_weights_below(rs, (19,))) == 10
    with pytest.raises(ResourceCapError, match="box of 11 points"):
        dominant_weights_below(rs, (20,))
    # A2 at (3, 3): root coordinates (3, 3), a box of 16 points
    a2 = build_root_system("A", 2)
    with pytest.raises(ResourceCapError, match="box of 16 points"):
        dominant_weights_below(a2, (3, 3))
