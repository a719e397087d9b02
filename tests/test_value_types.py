"""The plain value types against explicit values: constructor signatures,
the exception type and message of each bad input (RAISES), and value
semantics.  Mutation, RhoParams, SubsetJ and WeightB compare by their
fields and hash as their field tuple, so a frozenset of them iterates in a
fixed order; HCharacter compares its exponents mod q-1; MuAlgebra,
RunConfig, Report, PhiGammaMatrix, ThetaProblem and Sweep compare by
identity.  The expected values are constants or definitions (Python sets
for SubsetJ, (J-1) & Jrho = J' & Jrho for mu)."""

import itertools
from functools import partial

import pytest

from modpcheck.arith import Fq
from modpcheck.base_combinatorics import SubsetJ, all_subsets
from modpcheck.constants import MuAlgebra, Mutation, mu_gamma
from modpcheck.errors import ConfigInvalid as CI
from modpcheck.errors import GenericityViolation as GV
from modpcheck.errors import HypothesisViolation as HV
from modpcheck.errors import PairNotDefined, RangeViolation
from modpcheck.harness import SUITES, Report, RunConfig
from modpcheck.iwasawa import INF, AElement
from modpcheck.phigamma import PhiGammaMatrix, ThetaProblem
from modpcheck.reporting import Sweep, _plain
from modpcheck.weights import HCharacter, RhoParams, WeightB

PRESETS = ((11, 1, (4,)), (13, 2, (5, 6)), (17, 3, (7, 8, 7)))
PARAMS = [RhoParams.make(p, f, r, J.members()) for p, f, r in PRESETS for J in all_subsets(f)]
P2, P3 = (RhoParams.make(*preset) for preset in PRESETS[1:])
S1, S2, S3 = (SubsetJ.of(f) for f in (1, 2, 3))
FLD = Fq(13, 2)
ZERO = AElement(FLD, 2, INF, {})
CONST = AElement.const(FLD, 2, 5)
J0, J1 = SubsetJ(2, 1), SubsetJ(2, 2)
TABLES = "('s', 't', 'a', 'r', 'c', 'cprime', 'tJJp', 'aJn')"
WINDOW = "genericity violated (component {}): requires 2f+1 <= r_j <= p-3-2f = [{}, {}]".format
SMALL_P = "genericity violated (global): requires p >= 4f+4 = {}".format
Q3, Q4 = (7, 8, 7), [9, 10, 9, 10]


def theta(lam=(1, 1), h=(2, 2), b=(ZERO, ZERO), Jp=J1):
    return partial(ThetaProblem, 13, J0, Jp, lam, h, b)


# (constructor call, exception type, message): each distinct outcome the
# randomized comparisons reached; test_weight_values_match has every window
RAISES = [
    (partial(SubsetJ, -1, 0), ValueError, "f=-1 outside [1, 16]"),
    (partial(SubsetJ, 0, 0), ValueError, "f=0 outside [1, 16]"),
    (partial(SubsetJ, 17, 0), ValueError, "f=17 outside [1, 16]"),
    (partial(SubsetJ, 2, 4), ValueError, "bits out of range for f"),
    (partial(SubsetJ, 2, -1), ValueError, "bits out of range for f"),
    (partial(WeightB, P2, (-5, -7)), RangeViolation, "b_1=-7 outside [-r_j, p-2-r_j]"),
    (partial(WeightB, P3, (0, 0)), RangeViolation, "b indexed by f=2, weight by f=3"),
    (partial(Mutation, "sigma", 0, 0), CI, f"unknown table 'sigma'; pick one of {TABLES}"),
    (partial(Mutation, "aJ", 0, 0), CI, f"unknown table 'aJ'; pick one of {TABLES}"),
    (partial(Mutation, "", 5, 9, delta=2), CI, f"unknown table ''; pick one of {TABLES}"),
    (partial(RhoParams, 12, 3, (3, 3, 3), S3), CI, "p=12 is not prime"),
    (partial(RhoParams, 17, 3, (3, 3, 3, 3), S3), CI, "r must have f components"),
    (partial(RhoParams, 7, 3, (4, 9, 5), SubsetJ.full(2)), CI, "Jrho indexed by a different f"),
    (partial(RhoParams, 7, 1, (7,), SubsetJ.full(1)), GV, SMALL_P(8)),
    (partial(RhoParams, 7, 2, (7, 8), SubsetJ.full(2)), GV, SMALL_P(12)),
    (partial(RhoParams, 13, 3, (9, 4, 11), SubsetJ.of(3, (0, 1))), GV, SMALL_P(16)),
    (partial(RhoParams, 13, 1, (11,), SubsetJ.full(1)), GV, WINDOW(0, 3, 8)),
    (partial(RhoParams, 17, 1, (3,), S1), GV,
     "genericity violated (component 0): requires r_0 >= 4 when f = 1"),
    (partial(RhoParams, 13, 2, (9, 7), SubsetJ.of(2, (1,))), GV, WINDOW(0, 5, 6)),
    (partial(RhoParams, 17, 2, (3, 3), S2), GV, WINDOW(0, 5, 10)),
    (partial(RhoParams, 19, 2, (10, 4), SubsetJ.full(2)), GV, WINDOW(1, 5, 12)),
    (partial(RhoParams, 23, 2, (3, 11), SubsetJ.full(2)), GV, WINDOW(0, 5, 16)),
    (partial(RhoParams, 17, 3, (3, 3, 3), S3), GV, WINDOW(0, 7, 8)),
    (partial(RhoParams, 17, 3, (8, 6, 8), SubsetJ.full(3)), GV, WINDOW(1, 7, 8)),
    (partial(RhoParams, 19, 3, (3, 3, 3), S3), GV, WINDOW(0, 7, 10)),
    (partial(RhoParams, 19, 3, (10, 10, 3), SubsetJ.full(3)), GV, WINDOW(2, 7, 10)),
    (partial(HCharacter, 0, 0, 0), ZeroDivisionError, "integer modulo by zero"),
    (partial(RunConfig, 12, 2, [5, 6]), CI, "p=12 is not prime"),
    (partial(RunConfig, -17, 1, [4]), CI, "p=-17 is not prime"),
    (partial(RunConfig, 13, 0, []), CI, "f=0 must be positive"),
    (partial(RunConfig, 2, 20, [3] * 20), CI, "q=2^20 exceeds 524288"),
    (partial(RunConfig, 13, 2, [9, 9]), GV, WINDOW(0, 5, 6)),
    (partial(RunConfig, 23, 4, Q4), CI, "q=23^4 exceeds 8192 for the chart suites"),
    (partial(RunConfig, 13, 2, (6, 5), cutoff=1), CI, "cutoff=1 too small: chart depth 1 < 2"),
    (partial(RunConfig, 17, 3, Q3, cutoff=12), CI, "cutoff=12 too small: chart depth -4 < 2"),
    (partial(RunConfig, 17, 3, Q3, units=0), CI, "units=0 outside [1, 1000]"),
    (partial(RunConfig, 17, 3, Q3, units=1001), CI, "units=1001 outside [1, 1000]"),
    (partial(RunConfig, 13, 2, (6, 5), thetas=0), CI, "thetas=0 outside [1, 1000]"),
    (partial(RunConfig, 17, 3, Q3, jrho=[2, -1]), CI, "jrho index -1 outside [0, 3)"),
    (partial(RunConfig, 13, 2, (6, 5), jrho=(2,)), CI, "jrho index 2 outside [0, 2)"),
    (partial(RunConfig, 23, 4, Q4, suites=[]), CI, "no suites selected"),
    (partial(RunConfig, 23, 4, Q4, suites=["weights", "bogus"]), CI, "unknown suite 'bogus'"),
    (partial(RunConfig, 17, 3, Q3, mutate="sigma"), CI, "unknown mutation target 'sigma'"),
    (partial(MuAlgebra, None, None, {}, {}), AttributeError,
     "'NoneType' object has no attribute 'subsets'"),
    (theta(Jp=SubsetJ(1, 0)), HV, "component counts must all equal f"),
    (theta(lam=(1,)), HV, "component counts must all equal f"),
    (theta(b=()), HV, "component counts must all equal f"),
    (theta(h=(0, 2)), HV, "h_0=0 outside [1, p-2]"),
    (theta(h=(2, 12)), HV, "h_1=12 outside [1, p-2]"),
    (theta(lam=(0, 1)), HV, "twist scalars must be nonzero"),
    (theta(b=(AElement.monomial(FLD, 2, (1, 0)), ZERO)), HV, "right-hand side must be torus-fixed"),
]


def raises_as_pinned(cls):
    """Each row of RAISES for cls raises exactly its type, with its message."""
    rows = [row for row in RAISES if row[0].func is cls]
    assert rows
    for make, exc, message in rows:
        with pytest.raises(exc) as e:
            make()
        assert (type(e.value), str(e.value)) == (exc, message), make


def by_fields(make, fields, others):
    """make(*fields) equals a second make(*fields) and hashes as the field
    tuple; each one-field change from `others` (position, value) makes an
    unequal value; __eq__ against the bare tuple is NotImplemented."""
    v = make(*fields)
    assert v == make(*fields) and hash(v) == hash(fields)
    assert type(v).__eq__(v, fields) is NotImplemented
    for i, x in others:
        assert v != make(*fields[:i], x, *fields[i + 1:]), (i, x)
    return v


def by_identity(make):
    a, b = make(), make()
    assert a == a and a != b


SIGNATURES = [
    (MuAlgebra, ("params", "field", "rho_factor", "sigma_factor"), ()),
    (Mutation, ("table", "jmask", "j", "jpmask", "delta"), (0, 1)),
    (RunConfig, ("p", "f", "r", "jrho", "cutoff", "seed", "suites", "mutate", "units", "thetas"),
     ("all", None, 0, ("identities", "weights", "iwasawa", "phigamma"), None, 20, 50)),
    (Report, ("config", "fingerprint", "suites", "timings"), ()),
    (PhiGammaMatrix, ("params", "field", "entries"), ()),
    (ThetaProblem, ("p", "J", "Jp", "lam", "h", "b"), ()),
    (RhoParams, ("p", "f", "r", "Jrho"), ()),
    (HCharacter, ("qm1", "exp1", "exp2"), ()),
]


@pytest.mark.parametrize("cls,names,defaults", SIGNATURES, ids=[s[0].__name__ for s in SIGNATURES])
def test_constructor_signature_matches(cls, names, defaults):
    # positional-or-keyword parameters only (flags 0x0C are *args and **kwargs),
    # in this order, with these defaults
    code = cls.__init__.__code__
    assert code.co_varnames[1:code.co_argcount] == names
    assert (code.co_posonlyargcount, code.co_kwonlyargcount, code.co_flags & 0x0C) == (0, 0, 0)
    assert (cls.__init__.__defaults__ or ()) == defaults


# ---------------------------------------------------------------------------
# the four field-valued types: SubsetJ, WeightB, Mutation, RhoParams


def test_subset_construction_matches():
    raises_as_pinned(SubsetJ)
    assert (SubsetJ(2, 3).f, SubsetJ(2, 3).bits) == (2, 3)
    assert (SubsetJ(16, 0).f, SubsetJ(1, 1).bits) == (16, 1)


def test_subset_values_match():
    # the set algebra, order, shift, repr and report form of every subset at
    # f = 1..3, against Python sets of members
    for f in (1, 2, 3):
        for J, K in itertools.product(all_subsets(f), repeat=2):
            S, T = set(J.members()), set(K.members())
            assert J.bits == sum(1 << j for j in S) and J.members() == tuple(sorted(S))
            for got, want in ((J & K, S & T), (J | K, S | T), (J - K, S - T), (J ^ K, S ^ T),
                              (J.shift(-1), {(j - 1) % f for j in S})):
                assert got == SubsetJ(f, sum(1 << j for j in want))
            assert (J == K, J != K, J <= K, J < K) == (S == T, S != T, S <= T, S < T)
            assert _plain(J) == sorted(S)
            assert repr(J) == "{" + ",".join(map(str, sorted(S))) + "}"
    assert [repr(SubsetJ(3, bits)) for bits in (5, 0, 7)] == ["{0,2}", "{}", "{0,1,2}"]


def test_subset_equality_across_f_and_class():
    by_fields(SubsetJ, (3, 1), [(0, 2), (1, 2)])


def test_weight_values_match():
    raises_as_pinned(WeightB)
    # -r <= b <= p-2-r: the corners are positions, and one step past a
    # corner at slot j is named as slot j
    for params in PARAMS:
        lo, hi = tuple(-r for r in params.r), tuple(params.p - 2 - r for r in params.r)
        assert WeightB(params, lo).b == lo and WeightB(params, hi).b == hi
        for corner, step in ((lo, -1), (hi, 1)):
            for j in range(params.f):
                b = corner[:j] + (corner[j] + step,) + corner[j + 1:]
                message = rf"^b_{j}={b[j]} outside \[-r_j, p-2-r_j\]$"
                with pytest.raises(RangeViolation, match=message):
                    WeightB(params, b)


def test_weight_equality_across_params():
    w = by_fields(WeightB, (P2, (0, 1)), [(0, RhoParams.make(13, 2, (5, 6), (1,))), (1, (1, 0))])
    assert repr(w) == "WeightB(params=RhoParams(p=13, f=2, r=(5, 6), Jrho={}), b=(0, 1))"


def test_mutation_values_match():
    raises_as_pinned(Mutation)
    m = by_fields(Mutation, ("s", 1, 0, 2, 1), [(0, "t"), (1, 2), (2, 1), (3, 0), (4, -1)])
    assert repr(m) == "Mutation(table='s', jmask=1, j=0, jpmask=2, delta=1)"
    assert Mutation("aJn", 3, 2) == Mutation("aJn", 3, 2, 0, 1)


def test_rho_params_values_match():
    raises_as_pinned(RhoParams)
    P = by_fields(RhoParams, (13, 2, (5, 6), S2), [(0, 17), (2, (6, 6)), (3, J0)])
    assert repr(P) == "RhoParams(p=13, f=2, r=(5, 6), Jrho={})"
    assert (P.q, P.b_window) == (169, ((-5, -6), (6, 5)))


def test_hcharacter_values_match():
    raises_as_pinned(HCharacter)
    chi = HCharacter(10, 13, -2)
    assert (chi.qm1, chi.exp1, chi.exp2) == (10, 3, 8)
    assert chi == HCharacter(10, 3, 8) == HCharacter(10, -7, 28)
    assert all(chi != HCharacter(*args) for args in ((5, 3, 8), (10, 4, 8), (10, 3, 9)))
    prod = chi * HCharacter(10, 1, 5)
    assert (prod.qm1, prod.exp1, prod.exp2) == (10, 4, 3)


# ---------------------------------------------------------------------------
# mu definedness, and the types compared by identity


@pytest.mark.parametrize("p,f,r", PRESETS, ids=["f1", "f2", "f3"])
def test_mu_definedness_matches_old_formula(p, f, r):
    # mu(J, J') is defined exactly when (J-1) & Jrho == J' & Jrho
    for Jrho in all_subsets(f):
        mu = mu_gamma(RhoParams.make(p, f, r, Jrho.members()))
        for J, Jp in itertools.product(all_subsets(f), repeat=2):
            want = (J.shift(-1) & Jrho) == (Jp & Jrho)
            assert mu.defined(J, Jp) == want
            if want:
                assert mu.mu(J, Jp) == mu.field.mul(mu.rho_factor[J], mu.sigma_factor[Jp])
                continue
            with pytest.raises(PairNotDefined) as e:
                mu.mu(J, Jp)
            assert e.value.args == (f"mu undefined for pair ({J!r}, {Jp!r})",)


# the signs (-1)^(f-1) * epsilon(J') in mask order, per (f, Jrho mask)
COL_SIGNS = {(1, 0): "++", (1, 1): "++", (2, 0): "---+", (2, 1): "---+", (2, 2): "---+",
             (2, 3): "----", (3, 0): "+++-+--+", (3, 1): "+++++--+", (3, 2): "+++-+-++",
             (3, 3): "+++++-+-", (3, 4): "+++-++-+", (3, 5): "++++++--", (3, 6): "+++-+++-",
             (3, 7): "++++++++"}


def test_mu_algebra_matches():
    raises_as_pinned(MuAlgebra)
    for params in PARAMS:
        mu = mu_gamma(params, seed=3)
        subs = all_subsets(params.f)
        assert mu.row_class == tuple((J.shift(-1) & params.Jrho).bits for J in subs)
        assert mu.col_class == tuple((J & params.Jrho).bits for J in subs)
        signs = COL_SIGNS[params.f, params.Jrho.bits]
        assert mu.col_sign == tuple(1 if c == "+" else -1 for c in signs)
        by_identity(lambda: MuAlgebra(params, mu.field, mu.rho_factor, mu.sigma_factor))


def test_run_config_matches():
    raises_as_pinned(RunConfig)
    cfg = RunConfig(17, 3, (7, 8, 7), jrho=[2, 0, 2], cutoff=30, seed=3, suites=["phigamma"],
                    mutate="rJ", units=1, thetas=1000)
    assert cfg.as_dict() == {
        "p": 17, "f": 3, "r": [7, 8, 7], "jrho": [0, 2], "cutoff": 30, "seed": 3,
        "suites": ["phigamma"], "mutate": "rJ", "units": 1, "thetas": 1000}
    assert cfg.param_sets() == [RhoParams.make(17, 3, (7, 8, 7), (0, 2))]
    assert RunConfig(13, 2, (6, 5)).param_sets() == [
        RhoParams.make(13, 2, (6, 5), J.members()) for J in all_subsets(2)]
    by_identity(lambda: RunConfig(11, 1, (4,)))


def test_run_config_defaults_and_normalisation():
    new = RunConfig(13, 2, [5, 6], jrho=[1, 0, 1], suites=["weights"])
    assert (new.r, new.jrho, new.suites) == ((5, 6), (0, 1), ("weights",))
    assert RunConfig(p=11, f=1, r=(4,)).as_dict() == {
        "p": 11, "f": 1, "r": [4], "jrho": "all", "cutoff": 40, "seed": 0,
        "suites": list(SUITES), "mutate": None, "units": 20, "thetas": 50}


def test_report_and_check_result_match():
    # a Sweep row passes when it has no counterexample; its extras join its dict
    a, c, d, e = (Sweep(name) for name in "acde")
    c.add(0, {"J": SubsetJ(2, 1)})
    d.add(7)
    e.check(True, J=SubsetJ(2, 1))
    rows = [a.result(), c, d.result({"entries": (1, 2)}), e.result({})]
    dicts = [_plain(row.as_dict()) for row in rows]
    assert dicts == [
        {"name": "a", "status": "pass", "checked": 0},
        {"name": "c", "status": "fail", "checked": 0, "counterexample": {"J": [0]}},
        {"name": "d", "status": "pass", "checked": 7, "entries": [1, 2]},
        {"name": "e", "status": "pass", "checked": 1},
    ]
    assert [row.passed for row in rows] == [True, False, True, True]
    cfg = RunConfig(p=11, f=1, r=(4,)).as_dict()
    for suites, passed in ((dicts, False), ([], True)):
        report = Report(cfg, {"seed": 0}, suites, timings={"x": 0.5})
        assert (report.config, report.suites, report.timings) == (cfg, suites, {"x": 0.5})
        assert report.payload() == {"schema": 1, "config": cfg, "fingerprint": {"seed": 0},
                                    "suites": suites}
        assert report.passed == passed
    by_identity(lambda: Report(cfg, {}, [], {}))
    by_identity(lambda: Sweep("a"))


def test_phigamma_matrix_matches():
    ident = PhiGammaMatrix.identity(P2, FLD)
    assert (ident.params, ident.field) == (P2, FLD)
    assert ident.entries == {(J, J): AElement.const(FLD, 2, 1) for J in all_subsets(2)}
    empty = PhiGammaMatrix(params=P2, field=FLD, entries={})
    assert (empty.params, empty.field, empty.entries) == (P2, FLD, {})
    by_identity(lambda: PhiGammaMatrix(P2, FLD, {}))


def test_theta_problem_matches():
    raises_as_pinned(ThetaProblem)
    # W_i has exponent _twist(p, h weighted by (j-i in J) - (j-i in J'))
    for make, twists in ((theta(h=(2, 3)), [{(41, -29): 1}, {(-41, 29): 1}]),
                         (partial(ThetaProblem, 13, J0, J0, (3, 7), (11, 1), (CONST, ZERO)),
                          [{(0, 0): 3}, {(0, 0): 7}])):
        got = make()
        assert (got.p, got.J, got.Jp, got.lam, got.h, got.b) == make.args
        assert got.field is FLD and got.f == 2
        assert got.twist_monomials == tuple(AElement(FLD, 2, INF, t) for t in twists)
        by_identity(make)
