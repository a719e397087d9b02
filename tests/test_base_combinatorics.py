from operator import add, neg, sub

import pytest

from modpcheck.base_combinatorics import (
    SubsetJ,
    all_subsets,
    right_boundary,
    vmap,
)
from modpcheck.weights import RhoParams


# helpers only these tests use


def vec_shift(i: tuple) -> tuple:
    """delta(i)_j = i_{j+1} (left rotation); delta^f = identity."""
    f = len(i)
    return tuple(i[(j + 1) % f] for j in range(f))


def leq(u: tuple, v: tuple) -> bool:
    """Componentwise <=."""
    return all(a <= b for a, b in zip(u, v, strict=True))


def cyclic_run_count(J: SubsetJ) -> int:
    """Number of maximal cyclic runs of J (the full set counts as one run)."""
    f, bits = J.f, J.bits
    if bits == 0 or bits == (1 << f) - 1:
        return 0 if bits == 0 else 1
    runs = 0
    for j in range(f):
        if bits >> j & 1 and not bits >> ((j + 1) % f) & 1:
            runs += 1
    return runs


def test_shift_examples():
    J = SubsetJ.of(3, [0, 2])
    assert J.shift(1).members() == (0, 1)
    assert J.shift(-1).members() == (1, 2)
    assert J.shift(3) == J
    # f=1: J-1 = J with no special case
    J1 = SubsetJ.of(1, [0])
    assert J1.shift(-1) == J1
    assert J1.shift(5) == J1


def test_shift_roundtrip():
    for f in (1, 2, 3, 4):
        for J in all_subsets(f):
            for k in range(-2 * f, 2 * f + 1):
                assert J.shift(k).shift(-k) == J


def _params(f, jrho):
    """A valid pack at f <= 4 whose Jrho has the members `jrho`."""
    return RhoParams.make(23, f, (9,) * f, jrho)


def test_sh_part():
    J = SubsetJ.of(3, [0, 2])
    assert _params(3, [0, 1]).sh(J).members() == ()
    # consecutive pair inside Jrho does shear
    assert _params(3, [1, 2]).sh(SubsetJ.of(3, [1, 2])).members() == (1,)


def test_parts_partition():
    for f in (1, 2, 3):
        for Jrho in all_subsets(f):
            params = _params(f, Jrho.members())
            for J in all_subsets(f):
                assert params.sh(J) <= J & Jrho


def test_right_boundary():
    assert right_boundary(SubsetJ.of(3, [0, 2])).members() == (0,)
    assert right_boundary(SubsetJ.full(3)).members() == ()
    assert right_boundary(SubsetJ.of(3, [])).members() == ()
    # f=1 full singleton: successor of 0 is 0 itself
    assert right_boundary(SubsetJ.of(1, [0])).members() == ()


def test_f4_non_interval_subset():
    # {0, 2} is an interval at f=3 (2, 0 are cyclic neighbours) but not at
    # f=4: two runs, two boundary points, and no member whose successor lies
    # in J, so J^sh is empty for every Jrho although |J| = 2
    J = SubsetJ.of(4, [0, 2])
    assert len(J) == 2
    assert right_boundary(J).members() == (0, 2)
    assert cyclic_run_count(J) == 2
    for Jrho in all_subsets(4):
        assert not _params(4, Jrho.members()).sh(J)
    assert _params(3, [0, 1, 2]).sh(SubsetJ.of(3, [0, 2])).members() == (2,)


def test_boundary_counts_runs():
    for f in (1, 2, 3, 4, 5):
        for J in all_subsets(f):
            if J.is_full():
                continue
            assert len(right_boundary(J)) == cyclic_run_count(J)


def test_symmetric_difference():
    A = SubsetJ.of(3, [0, 1])
    B = SubsetJ.of(3, [1, 2])
    assert (A ^ B).members() == (0, 2)


def test_vec_ops():
    v = (3, -1, 2)
    assert sum(v) == 4
    assert vec_shift(v) == (-1, 2, 3)
    w = v
    for _ in range(3):
        w = vec_shift(w)
    assert w == v
    assert vmap(add, v, (1, 1, 1)) == (4, 0, 3)
    assert vmap(sub, v, (1, 1, 1)) == (2, -2, 1)
    assert vmap(neg, v) == (-3, 1, -2)
    assert vmap(lambda a: 2 * a, v) == (6, -2, 4)
    assert leq(v, (3, 0, 2))
    assert not leq(v, (2, 0, 2))


def test_subset_order_and_algebra():
    A = SubsetJ.of(4, [0, 1])
    B = SubsetJ.of(4, [0, 1, 3])
    assert A <= B and A < B and not B <= A
    assert (B - A).members() == (3,)
    assert A.complement().members() == (2, 3)
    assert len(list(all_subsets(4))) == 16


@pytest.mark.parametrize("f", [1, 2, 3, 4])
def test_all_subsets_is_one_tuple_per_f_in_mask_order(f):
    subs = all_subsets(f)
    assert isinstance(subs, tuple)
    assert subs == tuple(SubsetJ(f, bits) for bits in range(1 << f))
    assert [J.bits for J in subs] == list(range(1 << f))
    assert all_subsets(f) is subs
    # RhoParams.subsets() hands out the same tuple, so it iterates twice
    params = RhoParams.make(23, f, (9, 10, 9, 10)[:f])
    assert params.subsets() is subs
    assert list(params.subsets()) == list(params.subsets()) == list(subs)


@pytest.mark.parametrize("f", [1, 2, 3, 4])
def test_set_algebra_returns_the_values_of_all_subsets(f):
    # every result is the all_subsets(f) object of its mask, equal and
    # hashed like a fresh SubsetJ; operands of another f still raise
    subs = all_subsets(f)

    def interned(J):
        fresh = SubsetJ(f, J.bits)
        return J is subs[J.bits] and J == fresh and hash(J) == hash(fresh)

    assert SubsetJ.full(f) is subs[-1]
    for A in subs:
        assert interned(SubsetJ.of(f, A.members()))
        assert interned(SubsetJ.of(f, [j + f for j in A.members()]))
        assert interned(A.complement())
        assert all(interned(A.shift(k)) for k in range(-2 * f, 2 * f + 1))
        for B in subs:
            assert all(interned(C) for C in (A & B, A | B, A - B, A ^ B))
    other = all_subsets(f + 1)[1]
    for op in (lambda: subs[1] & other, lambda: subs[1] | other, lambda: subs[1] - other,
               lambda: subs[1] ^ other):
        with pytest.raises(ValueError, match="different f"):
            op()
    params = RhoParams.make(23, f, (9, 10, 9, 10)[:f], [0])
    for J in subs:
        assert params.sh(J) == J & J.shift(-1) & params.Jrho
    assert params.sh(subs[3 % len(subs)]) is params.sh(subs[3 % len(subs)])
    with pytest.raises(ValueError, match="different f"):
        params.sh(other)


def test_operands_of_different_f_are_rejected():
    short, long = (1, 2), (1, 2, 3)
    unequal = r"^zip\(\) argument 2 is (shorter|longer) than argument 1$"
    for op in (lambda: vmap(add, short, long), lambda: vmap(sub, long, short)):
        with pytest.raises(ValueError, match=unequal):
            op()
    A, B = SubsetJ(3, 7), SubsetJ(2, 3)
    for op in (lambda: A & B, lambda: A | B, lambda: A - B, lambda: A ^ B,
               lambda: A <= B, lambda: B < A):
        with pytest.raises(ValueError, match="different f"):
            op()
