import functools

import pytest

from klext.klpoly import KLTable
from klext.rootsys import build_root_system
from klext.weylaffine import _graph_automorphisms, _relabelling, enumerate_slice


@functools.lru_cache(maxsize=None)
def bruhat_leq(sl, i, j):
    """Bruhat-Chevalley order on a slice by the descent recursion, the
    tests' reference independent of the KL table: for the first right
    descent s of j, i <= j iff min(i, is) <= js."""
    if i == j:
        return True
    if sl.length[i] >= sl.length[j]:
        return False
    s = sl.right_descents(j)[0]
    is_ = sl.right[i][s]
    assert is_ != -1, f"descent step from element {i} left the slice"
    return bruhat_leq(sl, min(i, is_, key=sl.length.__getitem__), sl.right[j][s])


def slice_symmetries(sl):
    """The index maps of the slice automorphisms induced by the Coxeter-graph
    automorphisms (identity first), every one checked against the whole right
    table: the tests' oracle of ``weylaffine.slice_symmetry_group``, which
    checks a generating set only and composes the rest."""
    perms = _graph_automorphisms(sl.rs, sl.affine)
    return [list(range(len(sl)))] + [_relabelling(sl.right, p) for p in perms[1:]]


def _table(lab, rank, cutoff, affine=True):
    rs = build_root_system(lab, rank)
    sl = enumerate_slice(rs, cutoff, affine=affine)
    table = KLTable(sl)
    table.fill()
    return table


@pytest.fixture(scope="session")
def a1_table20():
    return _table("A", 1, 20)


@pytest.fixture(scope="session")
def a2_table12():
    return _table("A", 2, 12)


@pytest.fixture(scope="session")
def b2_table10():
    return _table("B", 2, 10)


@pytest.fixture(scope="session")
def g2_table14():
    return _table("G", 2, 14)


@pytest.fixture(scope="session")
def a3_finite_table():
    rs = build_root_system("A", 3)
    return _table("A", 3, rs.num_positive, affine=False)


@pytest.fixture(scope="session")
def b2_finite_table():
    rs = build_root_system("B", 2)
    return _table("B", 2, rs.num_positive, affine=False)
