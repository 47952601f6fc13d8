"""Root-system data: generation, pairings, orders, digit expansions."""

import math
import random
from fractions import Fraction
from itertools import accumulate, combinations, product
from operator import add

import pytest

from klext.errors import InvalidSystemError, InvariantViolation, ResourceCapError
from klext.rootsys import (
    KOSTANT_BOX_CAP,
    RootSystemData,
    _int_det,
    build_root_system,
    classify_weight,
    dominance_leq,
    generic_shift,
    is_dominant,
    kostant_partition,
    pairing,
    special_isogeny_image,
    system_summary,
)

ALL_SMALL = [("A", 1), ("A", 2), ("A", 3), ("B", 2), ("B", 3), ("C", 3),
             ("D", 4), ("G", 2), ("F", 4)]
# every irreducible type of rank <= 8
TO_RANK_8 = ([("A", r) for r in range(1, 9)] + [("B", r) for r in range(2, 9)]
             + [("C", r) for r in range(2, 9)] + [("D", r) for r in range(3, 9)]
             + [("E", 6), ("E", 7), ("E", 8), ("F", 4), ("G", 2)])


# -- independent oracles ------------------------------------------------------


def reflection_orbit_roots(cartan):
    """All roots as the orbit of the simple roots under simple reflections.

    Independent of the root-string generation used by the package.
    """
    rank = len(cartan)
    simple = [tuple(int(i == j) for j in range(rank)) for i in range(rank)]

    def reflect(rt, i):
        pair = sum(rt[j] * cartan[j][i] for j in range(rank))
        out = list(rt)
        out[i] -= pair
        return tuple(out)

    seen = set(simple)
    stack = list(simple)
    while stack:
        rt = stack.pop()
        for i in range(rank):
            img = reflect(rt, i)
            if img not in seen:
                seen.add(img)
                stack.append(img)
    return seen


def brute_force_weyl_order(rs):
    """|W| by closing the set of reflection matrices under multiplication."""
    rank = rs.rank
    gens = []
    for i in range(rank):
        gens.append(
            tuple(
                tuple(int(j == k) - rs.cartan[i][j] * int(k == i) for k in range(rank))
                for j in range(rank)
            )
        )
    eye = tuple(tuple(int(i == j) for j in range(rank)) for i in range(rank))
    seen = {eye}
    stack = [eye]
    while stack:
        m = stack.pop()
        for g in gens:
            prod = tuple(
                tuple(sum(m[i][k] * g[k][j] for k in range(rank)) for j in range(rank))
                for i in range(rank)
            )
            if prod not in seen:
                seen.add(prod)
                stack.append(prod)
    return len(seen)


def smith_diagonal(matrix):
    """Elementary divisors d_1 | d_2 | ... of a nonsingular integer matrix.

    Uses the minor-gcd characterization d_k = D_k / D_{k-1}, where D_k is
    the gcd of all k x k minors; independent of the adjugate behind
    ``torsion_exponent``.
    """
    n = len(matrix)
    divisors = []
    prev = 1
    for k in range(1, n + 1):
        g = 0
        for rows in combinations(range(n), k):
            for cols in combinations(range(n), k):
                g = math.gcd(g, _int_det([[matrix[i][j] for j in cols] for i in rows]))
            if g == prev:  # D_{k-1} divides D_k, so no smaller gcd is left
                break
        divisors.append(g // prev)
        prev = g
    return divisors


def naive_kostant(rs, target):
    """Exhaustive multiset enumeration, exponential; only for small heights."""
    roots = rs.positive_roots

    def count(i, rest):
        if all(c == 0 for c in rest):
            return 1
        if i == len(roots):
            return 0
        total = 0
        cur = rest
        while True:
            total += count(i + 1, cur)
            cur = tuple(a - b for a, b in zip(cur, roots[i]))
            if any(c < 0 for c in cur):
                break
        return total

    return count(0, tuple(target))


def box_kostant(rs, target):
    """P(target) by a bounded coin change over every positive root.

    The box below the target is stored flat in mixed radix with the last
    coordinate fastest, so one row holds the points that differ only in
    their last coordinate; independent of the packed rows of
    ``kostant_partition`` and of its dropping of the simple roots.
    """
    *lead, last = target
    width = last + 1
    size = math.prod(t + 1 for t in target)
    strides = [width * math.prod(t + 1 for t in lead[i + 1:]) for i in range(len(lead))]
    ways = [0] * size
    ways[0] = 1
    for beta in rs.positive_roots:
        *blead, b = beta
        if not any(blead):
            # the last simple root: a running sum along every row
            for s in range(0, size, width):
                ways[s:s + width] = accumulate(ways[s:s + width])
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
            ways[d:d + n] = map(add, ways[d:d + n], ways[src:src + n])
    return ways[-1]


# -- construction -------------------------------------------------------------


def test_small_systems_against_brute_force():
    # every type at rank <= 4: closure generation and the |W| product formula
    # agree with reflection-orbit roots and explicit group enumeration
    for lab, rank in [("A", 1), ("A", 2), ("A", 3), ("A", 4), ("B", 2), ("B", 3),
                      ("B", 4), ("C", 2), ("C", 3), ("C", 4), ("D", 3), ("D", 4),
                      ("F", 4), ("G", 2)]:
        rs = build_root_system(lab, rank)
        orbit = reflection_orbit_roots(rs.cartan)
        assert len(orbit) == rs.num_roots
        assert set(rs.positive_roots) == {r for r in orbit if all(c >= 0 for c in r)}
        assert brute_force_weyl_order(rs) == rs.weyl_order


def test_a1_a2_examples():
    a1 = build_root_system("A", 1)
    assert (a1.coxeter_number, a1.num_roots, a1.weyl_order) == (2, 2, 2)
    a2 = build_root_system("A", 2)
    assert (a2.coxeter_number, a2.num_roots, a2.weyl_order) == (3, 6, 6)


def test_g2_short_root_distinct_from_highest():
    g2 = build_root_system("G", 2)
    assert g2.max_short_root != g2.max_root
    assert g2.max_root == (3, 2)
    assert g2.max_short_root == (2, 1)


def test_invalid_pairs_rejected():
    for lab, rank in [("D", 2), ("E", 5), ("E", 9), ("F", 3), ("G", 3), ("A", 0),
                      ("H", 3), ("B", 1)]:
        with pytest.raises(InvalidSystemError) as exc:
            build_root_system(lab, rank)
        assert "type" in str(exc.value) or "rank" in str(exc.value)


def test_rank_cap_refuses_before_building(monkeypatch):
    # the build grows about as rank^5: a rank above RANK_CAP is refused
    # before any of it, an invalid rank is still invalid, and the cap is
    # checked by RootSystemData itself, so no other path builds past it
    from klext import rootsys

    cap = rootsys.RANK_CAP
    assert cap >= 8  # every rank that the tests and the README use
    built = build_root_system("D", cap)
    assert built.rank == cap and built.num_positive == cap * (cap - 1)
    monkeypatch.setattr(rootsys, "_cartan_matrix", None)  # building anything fails
    for lab in "ABCD":
        for rank in (cap + 1, 99999):
            with pytest.raises(ResourceCapError, match=f"rank {rank} is above the cap of {cap}"):
                rootsys.RootSystemData(lab, rank)
    with pytest.raises(InvalidSystemError):
        build_root_system("E", 9)


def test_cartan_matrix_shape():
    for lab, rank in ALL_SMALL:
        rs = build_root_system(lab, rank)
        for i in range(rank):
            assert rs.cartan[i][i] == 2
            for j in range(rank):
                if i != j:
                    assert rs.cartan[i][j] <= 0


def test_reflection_closure_up_to_sign():
    for lab, rank in ALL_SMALL:
        rs = build_root_system(lab, rank)
        pos = set(rs.positive_roots)
        for i in range(rs.rank):
            for rt in rs.positive_roots:
                pair = sum(rt[j] * rs.cartan[j][i] for j in range(rs.rank))
                img = list(rt)
                img[i] -= pair
                img = tuple(img)
                neg = tuple(-c for c in img)
                assert img in pos or neg in pos


def test_torsion_exponents():
    expected = {("A", 1): 2, ("A", 2): 3, ("A", 5): 6, ("B", 4): 2, ("C", 3): 2,
                ("D", 4): 2, ("D", 5): 4, ("E", 6): 3, ("E", 7): 2, ("E", 8): 1,
                ("F", 4): 1, ("G", 2): 1}
    for lab, rank in TO_RANK_8:
        rs = build_root_system(lab, rank)
        snf = smith_diagonal(rs.cartan)
        # |P/Q| is det(cartan), and the exponent of P/Q is its last divisor
        assert math.prod(snf) == rs.cartan_det, (lab, rank)
        assert rs.torsion_exponent == snf[-1], (lab, rank)
    assert {key: build_root_system(*key).torsion_exponent for key in expected} == expected


def test_weight_coordinate_roundtrip():
    rng = random.Random(0)
    for lab, rank in ALL_SMALL + [("E", 6), ("E", 7), ("E", 8)]:
        rs = build_root_system(lab, rank)
        det = rs.cartan_det
        # C adj(C) = det(C) I for the integer basis change
        for i in range(rank):
            for j in range(rank):
                entry = sum(rs.cartan[i][k] * rs._scaled_cols[j][k] for k in range(rank))
                assert entry == det * int(i == j), (lab, rank, i, j)
        for _ in range(50):
            wt = tuple(rng.randrange(-6, 7) for _ in range(rank))
            scaled = rs.wt_to_rt_scaled(wt)
            # the root coordinates scaled / det(C) map back to wt through C
            back = tuple(
                sum(scaled[i] * rs.cartan[i][j] for i in range(rank)) for j in range(rank)
            )
            assert back == tuple(det * x for x in wt)
            on_lattice = all(c % det == 0 for c in scaled)
            assert rs.wt_to_rt_int(wt) == (
                tuple(c // det for c in scaled) if on_lattice else None
            )
            rt = tuple(rng.randrange(-6, 7) for _ in range(rank))
            assert rs.wt_to_rt_int(rs.rt_to_wt(rt)) == rt


# -- pairing -------------------------------------------------------------------


def test_pairing_examples():
    a2 = build_root_system("A", 2)
    assert pairing(a2, a2.rho, a2.max_short_root) == a2.coxeter_number - 1 == 2
    for lab, rank in ALL_SMALL:
        rs = build_root_system(lab, rank)
        zero = (0,) * rank
        for rt in rs.positive_roots:
            assert pairing(rs, zero, rt) == 0
        # fundamental weights against simple coroots: delta
        for i in range(rank):
            wt = tuple(int(k == i) for k in range(rank))
            for j in range(rank):
                simple = tuple(int(k == j) for k in range(rank))
                assert pairing(rs, wt, simple) == int(i == j)


def test_pairing_dimension_mismatch():
    a2 = build_root_system("A", 2)
    with pytest.raises(InvalidSystemError):
        pairing(a2, (1,), (1, 0))
    with pytest.raises(InvalidSystemError):
        pairing(a2, (1, 0), (5, 5))  # not a root


# -- dominance ------------------------------------------------------------------


def test_dominance_examples():
    a2 = build_root_system("A", 2)
    lam = (2, 3)
    assert dominance_leq(a2, lam, lam, "integral")
    assert dominance_leq(a2, (0, 0), (1, 1), "integral")  # alpha1+alpha2 = (1,1)
    # 0 <= w1 fails integrally, holds rationally: w1 = (2a1+a2)/3
    assert not dominance_leq(a2, (0, 0), (1, 0), "integral")
    assert dominance_leq(a2, (0, 0), (1, 0), "rational")
    with pytest.raises(InvalidSystemError):
        dominance_leq(a2, (0, 0), (1, 0), "strange")


# -- Kostant partition function ---------------------------------------------------


def test_kostant_examples():
    a2 = build_root_system("A", 2)
    assert kostant_partition(a2, (0, 0)) == 1
    assert kostant_partition(a2, (1, 1)) == 2  # {theta} and {a1, a2}
    assert kostant_partition(a2, (-1, 0)) == 0
    a1 = build_root_system("A", 1)
    assert kostant_partition(a1, (3,)) == 1


def test_kostant_weight_basis():
    a2 = build_root_system("A", 2)
    assert kostant_partition(a2, (0, 0), basis="weight") == 1
    # rho has root coordinates (1,1): {theta} or {a1,a2}
    assert kostant_partition(a2, (1, 1), basis="weight") == 2
    with pytest.raises(InvalidSystemError):
        kostant_partition(a2, (1, 0), basis="weight")  # w1 not in root lattice


def test_kostant_box_cap():
    # P((2h-2) rho) is the largest Kostant call of `bounds`: D4 fits the cap,
    # F4 and type E are refused before anything is allocated
    def box(lab, rank):
        rs = build_root_system(lab, rank)
        h = rs.coxeter_number
        size = 1
        for c in rs.wt_to_rt_int(tuple(2 * h - 2 for _ in range(rank))):
            size *= c + 1
        return rs, size

    assert box("D", 4)[1] <= KOSTANT_BOX_CAP
    for lab, rank in [("F", 4), ("E", 6), ("E", 7), ("E", 8)]:
        rs, size = box(lab, rank)
        assert size > KOSTANT_BOX_CAP
        with pytest.raises(ResourceCapError):
            kostant_partition(rs, tuple(2 * rs.coxeter_number - 2 for _ in range(rank)),
                              basis="weight")


def test_kostant_dp_equals_naive_enumeration():
    for lab, rank, height in [("A", 2, 8), ("B", 2, 8), ("G", 2, 8),
                              ("A", 3, 8), ("B", 3, 7), ("C", 3, 7)]:
        rs = build_root_system(lab, rank)
        for target in product(range(height + 1), repeat=rank):
            if sum(target) > height:
                continue
            assert kostant_partition(rs, target) == naive_kostant(rs, target), (
                lab, target)


def test_kostant_packed_rows_equal_the_box_dp():
    rng = random.Random(20091)
    for lab, rank in [("A", 1), ("A", 2), ("A", 3), ("A", 4), ("B", 2), ("B", 3),
                      ("B", 4), ("C", 3), ("C", 4), ("D", 4), ("F", 4), ("G", 2)]:
        rs = build_root_system(lab, rank)
        hi = 2 * round(20_000 ** (1 / rank))
        checked = 0
        while checked < 10:
            target = tuple(rng.randint(0, hi) for _ in range(rank))
            if math.prod(t + 1 for t in target) > 20_000:
                continue
            assert kostant_partition(rs, target) == box_kostant(rs, target), (lab, target)
            checked += 1


def test_kostant_non_simple_root_without_leading_coordinate():
    # a non-simple root supported on the last coordinate alone cannot occur in
    # a root system; a corrupted one is refused, not miscounted
    rs = RootSystemData("A", 2)
    rs.positive_roots = ((1, 0), (0, 1), (0, 2))
    with pytest.raises(InvariantViolation, match="no leading coordinate"):
        kostant_partition(rs, (1, 3))


def test_kostant_large_values():
    # P(k rho) in the weight basis, the argument shape of mu_bound
    for lab, rank, k, value in [("B", 3, 8, 783_435), ("B", 3, 10, 2_616_770),
                                ("C", 3, 8, 795_591), ("C", 3, 10, 2_657_886),
                                ("D", 4, 10, 421_414_254), ("A", 4, 8, 672_363),
                                ("G", 2, 10, 16_287)]:
        rs = build_root_system(lab, rank)
        assert kostant_partition(rs, (k,) * rank, basis="weight") == value, (lab, k)


def test_kostant_rejects_malformed_vectors():
    a2 = build_root_system("A", 2)
    for bad in [(Fraction(1, 2), 1), (1.7, 1), ("1", 1), (float("inf"), 0)]:
        with pytest.raises(InvalidSystemError, match="non-integral"):
            kostant_partition(a2, bad)
    for bad in [(1, 1, 1), (1,), ()]:
        with pytest.raises(InvalidSystemError, match="coordinates"):
            kostant_partition(a2, bad)
        with pytest.raises(InvalidSystemError, match="coordinates"):
            kostant_partition(a2, bad, basis="weight")
    with pytest.raises(InvalidSystemError, match="non-integral"):
        kostant_partition(a2, (Fraction(3, 2), 0), basis="weight")
    # integral values of another numeric type are the same vector
    assert kostant_partition(a2, (Fraction(1), 1.0)) == kostant_partition(a2, (1, 1)) == 2


# -- p-adic expansion --------------------------------------------------------------


def p_adic_expansion(rs, lam, p):
    """Digits (lam_0, lam_1, ...) with lam = sum p^i lam_i, all digits p-restricted.

    The zero weight expands to the single digit (0, ..., 0).
    """
    if p < 2:
        raise InvalidSystemError("p must be at least 2")
    if not is_dominant(lam):
        raise InvalidSystemError(f"p-adic expansion requires a dominant weight, got {lam}")
    rest = list(lam)
    digits = []
    while any(rest):
        digits.append(tuple(x % p for x in rest))
        rest = [x // p for x in rest]
    if not digits:
        digits = [(0,) * rs.rank]
    return digits


def p_adic_exponent(rs, lam, p):
    """Index of the last nonzero p-adic digit (0 for the zero weight)."""
    return len(p_adic_expansion(rs, lam, p)) - 1


def weight_dagger(rs, lam, p):
    """The shifted weight (lam - lam_0)/p from the p-adic splitting."""
    digits = p_adic_expansion(rs, lam, p)
    return tuple((x - d) // p for x, d in zip(lam, digits[0]))


def test_padic_examples():
    a1 = build_root_system("A", 1)
    assert p_adic_expansion(a1, (0,), 2) == [(0,)]
    assert p_adic_exponent(a1, (0,), 2) == 0
    assert p_adic_expansion(a1, (7,), 2) == [(1,), (1,), (1,)]
    assert p_adic_exponent(a1, (7,), 2) == 2
    assert weight_dagger(a1, (7,), 2) == (3,)
    with pytest.raises(InvalidSystemError):
        p_adic_expansion(a1, (-1,), 2)


def test_padic_roundtrip_random():
    rng = random.Random(42)
    for lab, rank in [("A", 1), ("A", 2), ("B", 2), ("D", 4)]:
        rs = build_root_system(lab, rank)
        for _ in range(250):
            lam = tuple(rng.randrange(0, 501) for _ in range(rank))
            p = rng.choice([2, 3, 5, 7])
            digits = p_adic_expansion(rs, lam, p)
            assert all(all(0 <= c < p for c in d) for d in digits)
            total = [0] * rank
            for i, d in enumerate(digits):
                for k in range(rank):
                    total[k] += p**i * d[k]
            assert tuple(total) == lam


# -- classification -----------------------------------------------------------------


def test_classify_examples():
    for lab, rank in [("A", 2), ("B", 2), ("G", 2)]:
        rs = build_root_system(lab, rank)
        h = rs.coxeter_number
        zero = (0,) * rank
        assert classify_weight(rs, zero, h)["regular_l"]
        # below the Coxeter number no dominant weight is regular
        for l in range(1, h):
            for lam in product(range(3), repeat=rank):
                assert not classify_weight(rs, lam, l)["regular_l"], (lab, l, lam)
        lam = tuple(h - 1 for _ in range(rank))
        assert classify_weight(rs, lam, h)["restricted_1l"]
    a1 = build_root_system("A", 1)
    flags = classify_weight(a1, (6,), 2, e=3)
    assert not flags["restricted_1l"] and flags["restricted_el"]


def test_jantzen_region():
    a1 = build_root_system("A", 1)
    # (lam+rho, avee) = lam+1 <= p(p-h+2) = p*p at h=2
    assert classify_weight(a1, (8,), 3)["in_jantzen_region"]
    assert not classify_weight(a1, (9,), 3)["in_jantzen_region"]


# -- special isogeny -----------------------------------------------------------------


def test_isogeny_examples():
    c3 = build_root_system("C", 3)
    assert special_isogeny_image(c3, (0, 0, 0)) == (0, 0, 0)
    assert special_isogeny_image(c3, (0, 0, 1)) == (0, 0, 1)  # w_r passes through
    assert special_isogeny_image(c3, (2, 0, 0)) == (1, 0, 0)
    c2 = build_root_system("C", 2)
    assert special_isogeny_image(c2, (5, 3)) == (2, 3)
    with pytest.raises(InvalidSystemError):
        special_isogeny_image(build_root_system("B", 3), (0, 0, 0))
    with pytest.raises(InvalidSystemError):
        special_isogeny_image(c3, (-1, 0, 0))


def test_isogeny_injective_on_even_sigma_block():
    for r in (2, 3):
        rs = build_root_system("C", r)
        seen = {}
        for mu in product(range(0, 11), repeat=r):
            for a in range(0, 11):
                lam = tuple(2 * m for m in mu[: r - 1]) + (2 * mu[r - 1] + a,)
                img = special_isogeny_image(rs, lam)
                if lam in seen:
                    continue
                seen[lam] = img
        # injectivity of lam -> image on weights with even leading block
        images = {}
        for lam, img in seen.items():
            assert images.setdefault(img, lam) == lam, (lam, img)


# -- generic shift ---------------------------------------------------------------------


def test_generic_shift_values():
    a1 = build_root_system("A", 1)
    assert generic_shift(a1, 2, 1) == 2  # c=1, t=2, e(2)=1
    assert generic_shift(a1, 2, 0) == 1  # n=0 edge: e(0)=0
    a2 = build_root_system("A", 2)
    assert generic_shift(a2, 3, 2) == 3  # c=1, t=3, e(6)=2
    g2 = build_root_system("G", 2)
    # c=3, t=1: e(3n) at p
    assert generic_shift(g2, 5, 1) == (3 - 1) // 4 + 1 == 1


def test_summary_serialization():
    rs = build_root_system("A", 2)
    s = system_summary(rs)
    assert s["h"] == 3 and s["weyl_order"] == 6 and len(s["positive_roots"]) == 3
    assert s["torsion_exponent"] == 3
