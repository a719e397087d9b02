"""The plain value types against the dataclasses they replaced.

``OldSubsetJ`` and ``OldWeightB`` below are the dataclass bodies as they
stood before the value types became plain classes, and ``old_plain`` is the
matching report serialiser.  Under Hypothesis at f = 1..3 the new types
must agree with them on equality, hash, order, repr, report output,
frozenset membership and iteration order, and on the type and message of
every exception for bad input.  ``modpcheck`` holds an integer vector as a
plain int tuple, so ``OldWeightB`` holds b as the same tuple.  The hoisted
``MuAlgebra.defined``/``mu`` is compared with the definedness formula it
replaced, on every pair and every Jrho.

The last section holds the bodies of the ten dataclasses the package kept
until its import stopped loading ``dataclasses`` (``OldMuAlgebra`` to
``OldHCharacter``).  Each new class takes the same arguments with the same
defaults, stores the same field values after the same normalisation, and
raises the same exception type and message for bad input, except
``OldCheckResult``: the report row it stood for is now the ``Sweep`` that
counted it, which passes when it has no counterexample, so its rows are
compared as ``Sweep`` rows on their fields and report dicts.  ``==``, hash,
repr and frozenset order are compared where the package or its tests read
them: ``Mutation`` and ``RhoParams`` (all four) and ``HCharacter`` (``==``).
The other seven, and the hash of ``HCharacter``, were read by nothing, so
the plain classes compare by identity and keep the default repr.
"""

import dataclasses
import inspect
from dataclasses import dataclass

import pytest
from hypothesis import given
from hypothesis import strategies as st

from modpcheck.arith import Fq
from modpcheck.base_combinatorics import MAX_F, SubsetJ, all_subsets
from modpcheck.constants import MUTABLE, MuAlgebra, Mutation, epsilonJ, mu_gamma
from modpcheck.errors import ConfigInvalid, HypothesisViolation, PairNotDefined, RangeViolation
from modpcheck.harness import _TABLE_ALIASES, SCHEMA, SUITES, Report, RunConfig
from modpcheck.iwasawa import INF, AElement, UnitData, is_torus_fixed
from modpcheck.phigamma import PhiGammaMatrix, ThetaProblem, _twist
from modpcheck.reporting import Sweep, _plain
from modpcheck.weights import HCharacter, RhoParams, WeightB, validate_params

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


# ---------------------------------------------------------------------------
# the ten former dataclasses: reference bodies


@dataclass(frozen=True)
class OldMuAlgebra:
    params: object
    field: Fq
    rho_factor: dict
    sigma_factor: dict
    row_class: tuple = dataclasses.field(init=False, repr=False, compare=False)
    col_class: tuple = dataclasses.field(init=False, repr=False, compare=False)
    col_sign: tuple = dataclasses.field(init=False, repr=False, compare=False)

    def __post_init__(self):
        subs = self.params.subsets()
        Jrho = self.params.Jrho
        rows = tuple((J.shift(-1) & Jrho).bits for J in subs)
        cols = tuple((Jp & Jrho).bits for Jp in subs)
        lead = (-1) ** (self.params.f - 1)
        signs = tuple(lead * epsilonJ(self.params, Jp) for Jp in subs)
        object.__setattr__(self, "row_class", rows)
        object.__setattr__(self, "col_class", cols)
        object.__setattr__(self, "col_sign", signs)


@dataclass(frozen=True)
class OldMutation:
    table: str
    jmask: int
    j: int
    jpmask: int = 0
    delta: int = 1

    def __post_init__(self):
        if self.table not in MUTABLE:
            raise ConfigInvalid(f"unknown table {self.table!r}; pick one of {MUTABLE}")


@dataclass(frozen=True)
class OldRunConfig:
    p: int
    f: int
    r: tuple
    jrho: object = "all"
    cutoff: int | None = None
    seed: int = 0
    suites: tuple = SUITES
    mutate: str | None = None
    units: int = 20
    thetas: int = 50

    # the validation and the report dict read fields only, so they are shared
    _admit = RunConfig._admit
    param_sets = RunConfig.param_sets
    cutoff_value = RunConfig.cutoff_value
    as_dict = RunConfig.as_dict

    def __post_init__(self):
        object.__setattr__(self, "r", tuple(self.r))
        object.__setattr__(self, "suites", tuple(self.suites))
        self._admit()
        if self.jrho != "all":
            object.__setattr__(self, "jrho", tuple(sorted(set(self.jrho))))
            for j in self.jrho:
                if not 0 <= j < self.f:
                    raise ConfigInvalid(f"jrho index {j} outside [0, {self.f})")
        if not self.suites:
            raise ConfigInvalid("no suites selected")
        for s in self.suites:
            if s not in SUITES:
                raise ConfigInvalid(f"unknown suite {s!r}")
        if self.mutate is not None and self.mutate != "eps":
            if _TABLE_ALIASES.get(self.mutate, self.mutate) not in MUTABLE:
                raise ConfigInvalid(f"unknown mutation target {self.mutate!r}")
        self.param_sets()


@dataclass
class OldReport:
    config: dict
    fingerprint: dict
    suites: list
    timings: dict

    @property
    def passed(self):
        return all(row["status"] == "pass" for row in self.suites)

    def payload(self):
        return {
            "schema": SCHEMA,
            "config": self.config,
            "fingerprint": self.fingerprint,
            "suites": self.suites,
        }


@dataclass(frozen=True)
class OldUnitData:
    a0: int
    dmat: tuple


@dataclass
class OldPhiGammaMatrix:
    params: object
    field: object
    entries: dict


@dataclass
class OldThetaProblem:
    p: int
    J: SubsetJ
    Jp: SubsetJ
    lam: tuple
    h: tuple
    b: tuple

    def __post_init__(self):
        f = self.J.f
        if self.Jp.f != f or len(self.lam) != f or len(self.b) != f or len(self.h) != f:
            raise HypothesisViolation("component counts must all equal f")
        for j in range(f):
            if not 1 <= self.h[j] <= self.p - 2:
                raise HypothesisViolation(f"h_{j}={self.h[j]} outside [1, p-2]")
        if not all(self.lam):
            raise HypothesisViolation("twist scalars must be nonzero")
        for x in self.b:
            if not is_torus_fixed(x, self.p):
                raise HypothesisViolation("right-hand side must be torus-fixed")
        self.field = self.b[0].field
        self.twist_monomials = tuple(
            AElement.monomial(self.field, f, _twist(self.p, [
                v * (((j - i) % f in self.J) - ((j - i) % f in self.Jp))
                for j, v in enumerate(self.h)
            ]), self.lam[i])
            for i in range(f)
        )


@dataclass
class OldCheckResult:
    name: str
    passed: bool
    checked: int = 0
    counterexample: dict | None = None
    info: dict | None = None

    def as_dict(self):
        d = {
            "name": self.name,
            "status": "pass" if self.passed else "fail",
            "checked": self.checked,
        }
        if self.counterexample is not None:
            d["counterexample"] = self.counterexample
        if self.info:
            d.update(self.info)
        return d


@dataclass(frozen=True)
class OldRhoParams:
    p: int
    f: int
    r: tuple
    Jrho: SubsetJ

    def __post_init__(self):
        validate_params(self.p, self.f, self.r, self.Jrho)


@dataclass(frozen=True)
class OldHCharacter:
    qm1: int
    exp1: int
    exp2: int

    def __post_init__(self):
        object.__setattr__(self, "exp1", self.exp1 % self.qm1)
        object.__setattr__(self, "exp2", self.exp2 % self.qm1)

    def __mul__(self, other):
        return OldHCharacter(self.qm1, self.exp1 + other.exp1, self.exp2 + other.exp2)


PAIRS = [
    (OldMuAlgebra, MuAlgebra), (OldMutation, Mutation), (OldRunConfig, RunConfig),
    (OldReport, Report), (OldUnitData, UnitData), (OldPhiGammaMatrix, PhiGammaMatrix),
    (OldThetaProblem, ThetaProblem), (OldRhoParams, RhoParams), (OldHCharacter, HCharacter),
]


def same_fields(old, new, extra=()):
    """The new value holds every field of the old one, with the same value;
    extra names attributes that __post_init__ set outside the fields."""
    names = [f.name for f in dataclasses.fields(old)] + list(extra)
    assert [getattr(old, k) for k in names] == [getattr(new, k) for k in names]


def same_hashable_value(old, new):
    """Same fields, hash and repr, for the types whose hash and repr are read."""
    same_fields(old, new)
    assert hash(old) == hash(new)
    assert repr(old) == "Old" + repr(new)


def parameters(cls):
    return [(p.name, p.kind, p.default) for p in inspect.signature(cls).parameters.values()]


@pytest.mark.parametrize("old,new", PAIRS, ids=[new.__name__ for _, new in PAIRS])
def test_constructor_signature_matches(old, new):
    # same names, positional-or-keyword kinds and defaults, in the same order
    assert parameters(new) == parameters(old)


# ---------------------------------------------------------------------------
# the hashable former dataclasses: Mutation, RhoParams, HCharacter

TABLE_NAMES = st.sampled_from(MUTABLE + ("sigma", "aJ", ""))


@st.composite
def mutation_args(draw):
    small = st.integers(-2, 9)
    args = [draw(TABLE_NAMES), draw(small), draw(small)]
    kwargs = draw(st.fixed_dictionaries({}, optional={"jpmask": small, "delta": small}))
    return args, kwargs


@given(data=st.lists(mutation_args(), min_size=1, max_size=8))
def test_mutation_values_match(data):
    olds, news = [], []
    for args, kwargs in data:
        got = same_outcome(lambda *a: OldMutation(*a, **kwargs),
                           lambda *a: Mutation(*a, **kwargs), *args)
        if got is None:
            continue
        same_hashable_value(*got)
        olds.append(got[0])
        news.append(got[1])
    same_set_behaviour(olds, news, lambda m: (m.table, m.jmask, m.j, m.jpmask, m.delta))
    for o1, n1 in zip(olds, news):
        for o2, n2 in zip(olds, news):
            assert (o1 == o2) == (n1 == n2)
    assert Mutation.__eq__(Mutation("s", 0, 0), ("s", 0, 0, 0, 1)) is NotImplemented


@st.composite
def rho_args(draw):
    # mostly generic packs; some not prime, of another length, or another f
    f = draw(fs)
    p = draw(st.sampled_from([17, 19, 23, 13, 12, 7]))
    length = draw(st.sampled_from([f, f, f, f - 1, f + 1]))
    r = tuple(draw(st.lists(st.integers(3, 11), min_size=length, max_size=length)))
    Jrho = SubsetJ.of(draw(st.sampled_from([f, f, f, 1, 2])), draw(st.lists(st.integers(0, 2))))
    return p, f, r, Jrho


@given(data=st.lists(rho_args(), min_size=1, max_size=8))
def test_rho_params_values_match(data):
    olds, news = [], []
    for args in data:
        # not prime, r of another length, Jrho of another f, not generic
        got = same_outcome(OldRhoParams, RhoParams, *args)
        if got is None:
            continue
        same_hashable_value(*got)
        olds.append(got[0])
        news.append(got[1])
    same_set_behaviour(olds, news, lambda P: (P.p, P.r, P.Jrho.bits))
    for o1, n1 in zip(olds, news):
        for o2, n2 in zip(olds, news):
            assert (o1 == o2) == (n1 == n2)


@given(rows=st.lists(st.tuples(st.integers(0, 30), st.integers(-99, 99), st.integers(-99, 99)),
                     min_size=1, max_size=8))
def test_hcharacter_values_match(rows):
    olds, news = [], []
    for args in rows:
        # qm1 = 0 raises ZeroDivisionError in both
        got = same_outcome(OldHCharacter, HCharacter, *args)
        if got is None:
            continue
        same_fields(*got)
        olds.append(got[0])
        news.append(got[1])
    for o1, n1 in zip(olds, news):
        for o2, n2 in zip(olds, news):
            assert (o1 == o2) == (n1 == n2)
            if o1.qm1 == o2.qm1:
                same_fields(o1 * o2, n1 * n2)


# ---------------------------------------------------------------------------
# RunConfig, Report and the Sweep row: fields, validation, report dicts


@st.composite
def run_config_args(draw):
    # mostly the presets with admissible options; every limit is also drawn
    args = draw(st.sampled_from([
        (11, 1, [4]), (13, 2, [5, 6]), (13, 2, (6, 5)), (17, 3, [7, 8, 7]),
        (17, 3, [7, 8]), (12, 2, [5, 6]), (-17, 1, [4]), (13, 0, []), (13, 2, [9, 9]),
        (23, 4, [9, 10, 9, 10]), (2, 20, [3] * 20),
    ]))
    indices = st.lists(st.integers(-1, 3), max_size=4)
    optional = {
        "jrho": st.one_of(st.just("all"), indices, indices.map(tuple)),
        "cutoff": st.sampled_from([None, None, 1, 2, 12, 30, 170, 300]),
        "seed": st.integers(0, 3),
        "suites": st.lists(st.sampled_from(SUITES + ("bogus",)), max_size=3, unique=True),
        "mutate": st.sampled_from([None, "eps", "rJ", "s", "aJn", "sigma"]),
        "units": st.sampled_from([1, 20, 20, 0, 1001]),
        "thetas": st.sampled_from([1, 50, 50, 0, 1001]),
    }
    return args, draw(st.fixed_dictionaries({}, optional=optional))


@given(data=run_config_args())
def test_run_config_matches(data):
    # keyword construction with any subset of the defaults left out; every
    # admission limit and validation message is compared
    args, kwargs = data
    got = same_outcome(lambda *a: OldRunConfig(*a, **kwargs),
                       lambda *a: RunConfig(*a, **kwargs), *args)
    if got is not None:
        old, new = got
        same_fields(old, new)
        assert old.as_dict() == new.as_dict()
        assert old.param_sets() == new.param_sets()


def test_run_config_defaults_and_normalisation():
    old = OldRunConfig(13, 2, [5, 6], jrho=[1, 0, 1], suites=["weights"])
    new = RunConfig(13, 2, [5, 6], jrho=[1, 0, 1], suites=["weights"])
    same_fields(old, new)
    assert (new.r, new.jrho, new.suites) == ((5, 6), (0, 1), ("weights",))
    old, new = OldRunConfig(p=11, f=1, r=(4,)), RunConfig(p=11, f=1, r=(4,))
    same_fields(old, new)
    assert new.as_dict() == old.as_dict() == {
        "p": 11, "f": 1, "r": [4], "jrho": "all", "cutoff": 40, "seed": 0,
        "suites": list(SUITES), "mutate": None, "units": 20, "thetas": 50}


def sweep_row(name, passed, checked=0, counterexample=None, info=None):
    """The Sweep row that stands for CheckResult(name, passed, ...): its
    verdict follows from its counterexample."""
    row = Sweep(name)
    row.add(checked, counterexample)
    assert row.passed == passed
    return row.result(info)


def test_report_and_check_result_match():
    # a Sweep that failed always holds its witness, so the old rows that
    # failed without one have no Sweep counterpart
    rows = [
        ("a", True), ("c", False, 0, {"J": SubsetJ(2, 1)}),
        ("d", True, 7, None, {"entries": (1, 2)}), ("e", True, 1, None, {}),
    ]
    olds = [OldCheckResult(*row) for row in rows]
    news = [sweep_row(*row) for row in rows]
    for old, new in zip(olds, news):
        same_fields(old, new)
        assert _plain(old.as_dict()) == _plain(new.as_dict())
    cfg = RunConfig(p=11, f=1, r=(4,)).as_dict()
    for suites in ([_plain(r.as_dict()) for r in news], []):
        old = OldReport(cfg, {"seed": 0}, suites, {"x": 0.5})
        new = Report(cfg, {"seed": 0}, suites, timings={"x": 0.5})
        same_fields(old, new)
        assert old.payload() == new.payload()
        assert old.passed == new.passed


# ---------------------------------------------------------------------------
# MuAlgebra, UnitData, PhiGammaMatrix, ThetaProblem


def test_mu_algebra_matches():
    for params in PARAMS:
        mu = mu_gamma(params, seed=3)
        old = OldMuAlgebra(params, mu.field, mu.rho_factor, mu.sigma_factor)
        same_fields(old, mu)
    assert same_outcome(OldMuAlgebra, MuAlgebra, None, None, {}, {}) is None


def test_unit_data_and_matrix_match():
    for args in ((3, None), (5, ((1, 0), (0, 1))), (0, ())):
        same_fields(OldUnitData(*args), UnitData(*args))
    fld = Fq(13, 2)
    P = PARAMS[4]
    ident = PhiGammaMatrix.identity(P, fld)
    same_fields(OldPhiGammaMatrix(P, fld, ident.entries), ident)
    same_fields(OldPhiGammaMatrix(P, fld, {}), PhiGammaMatrix(params=P, field=fld, entries={}))


def test_theta_problem_matches():
    fld = Fq(13, 2)
    zero = AElement(fld, 2, INF, {})
    const = AElement.const(fld, 2, 5)
    moving = AElement.monomial(fld, 2, (1, 0))
    J, Jp = SubsetJ(2, 1), SubsetJ(2, 2)
    cases = [
        (13, J, Jp, (1, 1), (2, 3), (zero, zero)),
        (13, J, J, (3, 7), (11, 1), (const, zero)),
        (13, J, Jp, (1, 1), (0, 2), (zero, zero)),  # h outside [1, p-2]
        (13, J, Jp, (1, 1), (2, 12), (zero, zero)),
        (13, J, Jp, (0, 1), (2, 2), (zero, zero)),  # a zero twist scalar
        (13, J, Jp, (1, 1), (2, 2), (moving, zero)),  # not torus-fixed
        (13, J, SubsetJ(1, 0), (1, 1), (2, 2), (zero, zero)),  # component counts
        (13, J, Jp, (1,), (2, 2), (zero, zero)),
        (13, J, Jp, (1, 1), (2, 2), ()),
    ]
    for args in cases:
        got = same_outcome(OldThetaProblem, ThetaProblem, *args)
        if got is not None:
            same_fields(*got, extra=("field", "twist_monomials"))
            assert got[1].f == 2
