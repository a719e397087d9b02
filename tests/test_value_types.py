"""The __slots__ value types against the frozen dataclasses they replaced.

``OldSubsetJ`` and ``OldWeightB`` below are the dataclass bodies as they
stood before the value types became plain classes, and ``old_plain`` is the
matching report serialiser.  Under Hypothesis at f = 1..3 the new types
must agree with them on equality, hash, order, repr, report output,
frozenset membership and iteration order, and on the type and message of
every exception for bad input.  ``modpcheck`` holds an integer vector as a
plain int tuple, so ``OldWeightB`` holds b as the same tuple.  The hoisted
``MuAlgebra.defined``/``mu`` is compared with the definedness formula it
replaced, on every pair and every Jrho.
"""

from dataclasses import dataclass

import pytest
from hypothesis import given
from hypothesis import strategies as st

from modpcheck.base_combinatorics import MAX_F, SubsetJ, all_subsets
from modpcheck.constants import mu_gamma
from modpcheck.errors import PairNotDefined, RangeViolation
from modpcheck.reporting import _plain
from modpcheck.weights import RhoParams, WeightB

# ---------------------------------------------------------------------------
# reference bodies


@dataclass(frozen=True)
class OldSubsetJ:
    f: int
    bits: int

    def __post_init__(self):
        if not 1 <= self.f <= MAX_F:
            raise ValueError(f"f={self.f} outside [1, {MAX_F}]")
        if not 0 <= self.bits < (1 << self.f):
            raise ValueError("bits out of range for f")

    def members(self):
        return tuple(j for j in range(self.f) if self.bits >> j & 1)

    def __and__(self, other):
        return OldSubsetJ(self.f, self.bits & other.bits)

    def __or__(self, other):
        return OldSubsetJ(self.f, self.bits | other.bits)

    def __sub__(self, other):
        return OldSubsetJ(self.f, self.bits & ~other.bits)

    def __xor__(self, other):
        return OldSubsetJ(self.f, self.bits ^ other.bits)

    def __le__(self, other):
        return self.bits & ~other.bits == 0

    def __lt__(self, other):
        return self <= other and self.bits != other.bits

    def shift(self, k):
        f = self.f
        k %= f
        if k == 0:
            return self
        m = (1 << f) - 1
        return OldSubsetJ(f, ((self.bits << k) | (self.bits >> (f - k))) & m)

    def __repr__(self):
        return "{" + ",".join(str(j) for j in self.members()) + "}"


@dataclass(frozen=True)
class OldWeightB:
    params: RhoParams
    b: object

    def __post_init__(self):
        p = self.params.p
        for j, (rj, bj) in enumerate(zip(self.params.r, self.b)):
            if not -rj <= bj <= p - 2 - rj:
                raise RangeViolation(f"b_{j}={bj} outside [-r_j, p-2-r_j]")


def old_plain(v):
    if isinstance(v, OldSubsetJ):
        return sorted(v.members())
    return v


def outcome(make, *args):
    """("ok", value) or ("raise", exception type, message)."""
    try:
        return ("ok", make(*args))
    except Exception as e:  # noqa: BLE001 - the type is what is compared
        return ("raise", type(e), str(e))


def same_outcome(old, new, *args):
    a, b = outcome(old, *args), outcome(new, *args)
    assert a[0] == b[0], (args, a, b)
    if a[0] == "raise":
        assert a[1:] == b[1:]
        return None
    return a[1], b[1]


def same_value(old, new):
    """Same fields, hash, repr and report output."""
    assert tuple(getattr(old, k) for k in old.__dataclass_fields__) == tuple(
        getattr(new, k) for k in new.__slots__
    )
    assert hash(old) == hash(new)
    assert repr(old) == repr(new)
    assert old_plain(old) == _plain(new)


def same_set_behaviour(olds, news, key):
    """Frozensets built in the same order hold the same members and iterate
    in the same order: any witness read from one is read from the other."""
    fo, fn = frozenset(olds), frozenset(news)
    assert [key(x) for x in fo] == [key(x) for x in fn]
    for o, n in zip(olds, news):
        assert o in fo and n in fn


# ---------------------------------------------------------------------------
# SubsetJ

fs = st.integers(1, 3)


@given(f=st.sampled_from([-1, 0, 1, 2, 3, MAX_F + 1]), bits=st.integers(-2, 9))
def test_subset_construction_matches(f, bits):
    got = same_outcome(OldSubsetJ, SubsetJ, f, bits)
    if got is not None:
        same_value(*got)


@st.composite
def subset_lists(draw):
    f = draw(fs)
    return f, draw(st.lists(st.integers(0, (1 << f) - 1), min_size=1, max_size=12))


@given(data=subset_lists())
def test_subset_values_match(data):
    f, masks = data
    olds = [OldSubsetJ(f, m) for m in masks]
    news = [SubsetJ(f, m) for m in masks]
    same_set_behaviour(olds, news, lambda J: J.bits)
    for o1, n1 in zip(olds, news):
        same_value(o1, n1)
        same_value(o1.shift(-1), n1.shift(-1))
        for o2, n2 in zip(olds, news):
            assert (o1 == o2) == (n1 == n2)
            assert (o1 != o2) == (n1 != n2)
            assert (o1 <= o2) == (n1 <= n2)
            assert (o1 < o2) == (n1 < n2)
            for op in ("__and__", "__or__", "__sub__", "__xor__"):
                same_value(getattr(o1, op)(o2), getattr(n1, op)(n2))


def test_subset_equality_across_f_and_class():
    assert SubsetJ(3, 1) != SubsetJ(2, 1)
    assert OldSubsetJ(3, 1) != OldSubsetJ(2, 1)
    assert SubsetJ(2, 1) != OldSubsetJ(2, 1)
    assert SubsetJ.__eq__(SubsetJ(2, 1), (2, 1)) is NotImplemented


# ---------------------------------------------------------------------------
# WeightB

PRESETS = ((11, 1, (4,)), (13, 2, (5, 6)), (17, 3, (7, 8, 7)))
PARAMS = [
    RhoParams.make(p, f, r, Jrho.members())
    for p, f, r in PRESETS
    for Jrho in all_subsets(f)
]


@st.composite
def weight_lists(draw):
    params = draw(st.sampled_from(PARAMS))
    vec = st.lists(st.integers(-12, 12), min_size=params.f, max_size=params.f)
    return params, draw(st.lists(vec.map(tuple), min_size=1, max_size=8))


@given(data=weight_lists())
def test_weight_values_match(data):
    params, rows = data
    olds, news = [], []
    for ent in rows:
        # out-of-window positions raise the same type with the same message
        got = same_outcome(
            lambda e: OldWeightB(params, e),
            lambda e: WeightB(params, e),
            ent,
        )
        if got is None:
            continue
        old, new = got
        assert old.params is new.params and old.b == new.b
        assert hash(old) == hash(new)
        assert repr(old) == "Old" + repr(new)
        olds.append(old)
        news.append(new)
    # both hash (params, b) with b the same tuple, so the set order is the same
    same_set_behaviour(olds, news, lambda w: w.b)
    for o1, n1 in zip(olds, news):
        for o2, n2 in zip(olds, news):
            assert (o1 == o2) == (n1 == n2)


def test_weight_equality_across_params():
    b = (0, 0, 0)
    w1 = WeightB(RhoParams.make(17, 3, (7, 8, 7), (0,)), b)
    w2 = WeightB(RhoParams.make(17, 3, (7, 8, 7), (0,)), b)
    w3 = WeightB(RhoParams.make(17, 3, (7, 8, 7), (1,)), b)
    assert w1 == w2 and hash(w1) == hash(w2)
    assert w1 != w3
    assert WeightB.__eq__(w1, (w1.params, b)) is NotImplemented


# ---------------------------------------------------------------------------
# MuAlgebra definedness


@pytest.mark.parametrize("p,f,r", PRESETS, ids=["f1", "f2", "f3"])
def test_mu_definedness_matches_old_formula(p, f, r):
    for Jrho in all_subsets(f):
        params = RhoParams.make(p, f, r, Jrho.members())
        mu = mu_gamma(params)
        old_rho = OldSubsetJ(f, Jrho.bits)
        for J in params.subsets():
            for Jp in params.subsets():
                oJ, oJp = OldSubsetJ(f, J.bits), OldSubsetJ(f, Jp.bits)
                want = (oJ.shift(-1) & old_rho) == (oJp & old_rho)
                assert mu.defined(J, Jp) == want
                if want:
                    assert mu.mu(J, Jp) == mu.field.mul(mu.rho_factor[J], mu.sigma_factor[Jp])
                    continue
                with pytest.raises(PairNotDefined) as e:
                    mu.mu(J, Jp)
                assert e.value.args == (f"mu undefined for pair ({oJ!r}, {oJp!r})",)
