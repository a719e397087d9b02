"""Constant tables: frozen values, windows, identity sweeps, mutation kills."""

import gc
import hashlib
import itertools
import json
import weakref
from operator import add, sub

import pytest

from modpcheck import constants
from modpcheck.arith import RunScope
from modpcheck.base_combinatorics import SubsetJ, all_subsets, vmap
from modpcheck.constants import (
    AJnFrame,
    ConstantTables,
    MuAlgebra,
    Mutation,
    _frame_key,
    _m_frame,
    _check_shift_overlap_reindex,
    _m_vec,
    _tjx_odd_offset,
    all_mutations,
    cJ,
    cPrimeJ,
    check_domination_claims,
    epsilonJ,
    hj,
    identity_sweeps,
    mu_gamma,
    rJ,
)
from modpcheck.errors import (
    ConfigInvalid,
    GenericityViolation,
    HypothesisViolation,
    PairNotDefined,
    RangeViolation,
)
from modpcheck.harness import run_identities
from modpcheck.weights import RhoParams, aJ, sJ_tJ
from test_base_combinatorics import vec_shift

P1 = RhoParams.make(11, 1, (4,))
P1R = RhoParams.make(11, 1, (4,), jrho_members=(0,))
P2 = RhoParams.make(13, 2, (5, 6))
P2A = RhoParams.make(13, 2, (5, 6), jrho_members=(0,))
P2F = RhoParams.make(13, 2, (5, 6), jrho_members=(0, 1))
P3 = RhoParams.make(17, 3, (7, 8, 7), jrho_members=(1,))

ALL_PARAMS = (P1, P1R, P2, P2A, P2F, P3)


def _label(params):
    return f"p={params.p} f={params.f} r={params.r} jrho={params.Jrho.members()}"


def tJx(params, J, j, x):
    """One-variable shift exponent: write x = 2n + d with d in {0, 1}."""
    n, d = divmod(x, 2)
    return n * params.p + (_tjx_odd_offset(params.p, params.r, J, j) if d else 0)


def aJn(params, J, n, j0):
    """Exponent table for the n-indexed family anchored at j0."""
    return AJnFrame(*_frame_key(params, J, j0)).image(n)


def _require_small_box(params, J, i):
    f = params.f
    Jsh = params.sh(J)
    for j in range(f):
        hi = f - (1 if j in Jsh else 0)
        if not 0 <= i[j] <= hi:
            raise RangeViolation(f"i_{j}={i[j]} outside [0, {hi}]")


def mVec(params, i, J, Jp):
    """Signed exponent vector of the i-indexed element in a J-block, for the
    comparison subset Jp.  i must lie in the small box [0, f - e^{Jsh}]."""
    _require_small_box(params, J, i)
    return _m_vec(_m_frame(J.shift(-1) & params.Jrho, J, Jp), i)


def J(params, *members):
    return SubsetJ.of(params.f, members)


def decompose_index(params, J, i):
    """Unique (i2, ell) with i = p*shift(i2) + cJ(J) - ell, 0 <= ell <= p-1.

    shift acts by shift(v)_j = v_{j+1}.  If max(i) > f the maximum strictly
    drops, which is what makes repeated decomposition terminate.
    """
    p, f = params.p, params.f
    c = cJ(params, J)
    i2 = [0] * f
    ell = [0] * f
    for j in range(f):
        d = i[j] - c[j]
        up = -((-d) // p)  # ceil(d / p)
        i2[(j + 1) % f] = up
        ell[j] = p * up - d
    return tuple(i2), tuple(ell)


def run_all_checks(params, mutation=None):
    return run_identities(params, mutation=mutation)


# ---------------------------------------------------------------------------
# frozen single values


def test_rj_frozen():
    assert rJ(P2, J(P2)) == (0, 0)
    assert rJ(P2, SubsetJ.full(2)) == P2.r
    assert rJ(P2, J(P2, 0)) == (-1, 7)
    assert rJ(P2, J(P2, 1)) == (6, -1)
    # additivity on a disjoint pair
    assert vmap(add, rJ(P2, J(P2, 0)), rJ(P2, J(P2, 1))) == P2.r


def test_cj_frozen():
    assert cJ(P1, J(P1)) == (10,)
    assert cJ(P1, J(P1, 0)) == (0,)
    assert cJ(P2, J(P2)) == (12, 12)
    assert cJ(P2, SubsetJ.full(2)) == (0, 0)


def test_cprime_frozen_and_difference():
    assert cPrimeJ(P1, J(P1)) == (10 - 1,)
    assert cPrimeJ(P1, J(P1, 0)) == (10,)
    for params in ALL_PARAMS:
        f, p = params.f, params.p
        for Jset in params.subsets():
            c, cp = cJ(params, Jset), cPrimeJ(params, Jset)
            overlap = Jset & Jset.shift(1)
            for j in range(f):
                carry = 1 if (j + 1) in overlap else 0
                assert p * carry + c[j] - cp[j] == f


def test_epsilon_frozen():
    assert epsilonJ(P1, J(P1)) == 1
    assert epsilonJ(P2, SubsetJ.full(2)) == -1  # exceptional corner, f even
    assert epsilonJ(P2, J(P2, 0)) == 1
    assert epsilonJ(P2, J(P2)) == 1
    assert epsilonJ(P2F, SubsetJ.full(2)) == 1  # not exceptional: Jrho nonempty


def test_tjjp_frozen():
    tables = ConstantTables(P2F, scope=RunScope())
    assert tables.tJJp[J(P2F), J(P2F)] == (7, 6)
    assert tables.tJJp[J(P2F), SubsetJ.full(2)] == (8, 7)


def test_tjx_frozen():
    empty, full = J(P1), SubsetJ.full(1)
    assert tJx(P1, empty, 0, 0) == 0
    assert tJx(P1, empty, 0, 1) == 5  # r+1 when successor outside J
    assert tJx(P1, empty, 0, 2) == 11
    assert tJx(P1, full, 0, 3) == 11 + (11 - 1 - 4)
    assert tJx(P1, empty, 0, -1) == -11 + 5


def test_mvec_frozen_and_guard():
    assert mVec(P1, (0,), J(P1), J(P1)) == (0,)
    with pytest.raises(RangeViolation):
        mVec(P1, (2,), J(P1), J(P1))
    # closed form on the canonical pair input
    Jset, Jp = SubsetJ.full(2), J(P2, 0)
    i = (1, 0)  # e^{(J cap Jp)^nss}
    m = mVec(P2, i, Jset, (Jset ^ Jp).shift(-1))
    assert m == (1, 0)


def test_ajn_frozen_and_guards():
    assert aJn(P1, J(P1), (0,), 0) == (0,)
    assert aJn(P2, J(P2), (2, 0), 0) == (-2, 13)
    # anchored zero clause when j0 sits in the special overlap
    assert aJn(P2F, SubsetJ.full(2), (1, 0), 0) == (0, 6)
    with pytest.raises(HypothesisViolation):
        aJn(P2, J(P2), (2, 1), 0)  # slot j0+1 not zero
    with pytest.raises(HypothesisViolation):
        aJn(P2, J(P2), (5, 0), 0)  # n_0 above 2f


def test_hj_frozen_and_telescoping():
    h2 = (6, 7)  # r + 1
    assert hj(P2, h2, 0) == 97
    assert hj(P2, h2, 1) == 85
    assert 13 * hj(P2, h2, 1) - hj(P2, h2, 0) == (13**2 - 1) * 6
    for params in (P1, P2, P3):
        h = (3, -2, 5)[: params.f]
        q = params.q
        for j in range(params.f):
            lhs = params.p * hj(params, h, j + 1) - hj(params, h, j)
            assert lhs == (q - 1) * h[j]


def test_decompose_frozen():
    assert decompose_index(P1, J(P1), (25,)) == ((2,), (7,))


def test_decompose_sweep():
    for params in (P1, P2):
        f, p = params.f, params.p
        box = range(-3 * f, 3 * f + 1)
        for Jset in params.subsets():
            c = cJ(params, Jset)
            for i in itertools.product(box, repeat=f):
                i2, ell = decompose_index(params, Jset, i)
                assert i == vmap(lambda s, cj, lj: p * s + cj - lj, vec_shift(i2), c, ell)
                assert all(0 <= lj <= p - 1 for lj in ell)
                if max(i) > f:
                    assert max(i2) < max(i)


def test_decompose_terminates():
    i = (25,)
    seen = 0
    while max(i) > 1:
        i, _ = decompose_index(P1, J(P1), i)
        seen += 1
        assert seen < 10


# ---------------------------------------------------------------------------
# identity and bound sweeps on clean tables


@pytest.mark.parametrize("params", ALL_PARAMS, ids=_label)
def test_all_checks_pass(params):
    for res in run_all_checks(params):
        assert res.passed, (res.name, res.counterexample)


def test_no_vacuous_sweeps_at_generic_params():
    # at f=2 with one special embedding every hypothesis family is inhabited
    for res in run_all_checks(P2A):
        assert res.checked > 0, res.name


# ---------------------------------------------------------------------------
# pairing scalars


def test_mu_gamma_deterministic():
    a = mu_gamma(P2A, seed=5)
    b = mu_gamma(P2A, seed=5)
    Jset, Jp = J(P2A, 1), J(P2A, 0)  # (J-1)^ss == Jp^ss == {0}
    assert a.mu(Jset, Jp) == b.mu(Jset, Jp)
    c = mu_gamma(P2A, seed=6)
    vals = {s: c.mu(J(P2A, 1), s) for s in P2A.subsets() if c.defined(J(P2A, 1), s)}
    assert vals  # at least one defined pair, all nonzero
    assert all(v != 0 for v in vals.values())


def test_mu_undefined_pair_raises():
    # (J-1)^ss = {0} but Jp^ss empty
    with pytest.raises(PairNotDefined):
        mu_gamma(P2A).mu(J(P2A, 1), J(P2A))


def test_gamma_sign():
    alg = mu_gamma(P2, seed=1)
    full = SubsetJ.full(2)
    # f even: gamma = -eps(Jp) * mu; eps(full) = -1 at empty Jrho
    assert alg.gamma(J(P2), full) == alg.mu(J(P2), full)
    assert alg.gamma(J(P2), J(P2)) == alg.field.neg(alg.mu(J(P2), J(P2)))


@pytest.mark.parametrize("p,r", [(11, (4,)), (13, (5, 6)), (17, (7, 8, 7))])
def test_gamma_sign_table_matches_epsilon(p, r):
    # the precomputed sign of gamma is (-1)^(f-1) * epsilon(Jp), every Jrho
    f = len(r)
    for Jrho in all_subsets(f):
        params = RhoParams.make(p, f, r, jrho_members=tuple(Jrho.members()))
        alg = mu_gamma(params, seed=1)
        for Jp in all_subsets(f):
            want = (-1) ** (f - 1) * epsilonJ(params, Jp)
            assert alg.col_sign[Jp.bits] == want
            sigma = alg.sigma_factor[Jp]
            assert alg.gamma_star(Jp) == (sigma if want == 1 else alg.field.neg(sigma))


def _scalar_ratio_row(p, r, jrho, method, perturb):
    # the scalar-ratio-classes row of (p, r, jrho) at seed 0, with
    # MuAlgebra.<method> replaced by perturb(field, value, *its subsets)
    params = RhoParams.make(p, len(r), r, jrho_members=jrho)
    original = getattr(MuAlgebra, method)

    def perturbed(self, *subsets):
        return perturb(self.field, original(self, *subsets), *subsets)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(MuAlgebra, method, perturbed)
        (res,) = dict(identity_sweeps(params, scope=RunScope()))[("scalar-ratio-classes",)]()
    return res.as_dict()


_R_BY_P = {13: (5, 6), 17: (7, 8, 7)}


# the row with MuAlgebra.<method> plus 1 at the subset {0} or at the full set
# (its last argument: Jp for mu, gamma and gamma_star, J for mu_star); every
# row fails, with the checked count of the pristine row
@pytest.mark.parametrize("method,p,jrho,at_full,checked,witness", [
    ("mu", 13, (), False, 400, {"cls": [], "J1": [], "J2": [0], "J3": [], "J4": [0]}),
    ("mu", 13, (0,), False, 72,
     {"cls": [0], "J1": [1], "J2": [0, 1], "J3": [0], "J4": [0, 1]}),
    ("mu", 17, (), False, 5184, {"cls": [], "J1": [], "J2": [0], "J3": [], "J4": [0]}),
    ("mu", 17, (0,), False, 800,
     {"cls": [0], "J1": [1], "J2": [0, 1], "J3": [0], "J4": [0, 1]}),
    ("mu_star", 13, (), False, 400,
     {"cls": [], "J1": [], "J2": [0], "K": [], "part": "mu-star"}),
    ("mu_star", 13, (0,), False, 72,
     {"cls": [], "J1": [], "J2": [0], "K": [], "part": "mu-star"}),
    ("mu_star", 17, (), False, 5184,
     {"cls": [], "J1": [], "J2": [0], "K": [], "part": "mu-star"}),
    ("mu_star", 17, (0,), False, 800,
     {"cls": [], "J1": [], "J2": [0], "K": [], "part": "mu-star"}),
    ("gamma_star", 13, (), False, 400,
     {"cls": [], "J": [], "J3": [], "J4": [0], "part": "gamma-star"}),
    ("gamma_star", 13, (0,), False, 72,
     {"cls": [0], "J": [1], "J3": [0], "J4": [0, 1], "part": "gamma-star"}),
    ("gamma_star", 17, (), False, 5184,
     {"cls": [], "J": [], "J3": [], "J4": [0], "part": "gamma-star"}),
    ("gamma_star", 17, (0,), False, 800,
     {"cls": [0], "J": [1], "J3": [0], "J4": [0, 1], "part": "gamma-star"}),
    ("gamma", 13, (), False, 400,
     {"cls": [], "J": [], "J3": [], "J4": [0], "part": "gamma-star"}),
    ("gamma", 17, (0,), False, 800,
     {"cls": [0], "J": [1], "J3": [0], "J4": [0, 1], "part": "gamma-star"}),
    ("mu", 13, (), True, 400, {"cls": [], "J1": [], "J2": [0], "J3": [], "J4": [0, 1]}),
    ("mu", 17, (0,), True, 800,
     {"cls": [0], "J1": [1], "J2": [0, 1], "J3": [0], "J4": [0, 1, 2]}),
    ("mu_star", 13, (0,), True, 72,
     {"cls": [0], "J1": [1], "J2": [0, 1], "K": [0], "part": "mu-star"}),
    ("mu_star", 17, (), True, 5184,
     {"cls": [], "J1": [], "J2": [0, 1, 2], "K": [], "part": "mu-star"}),
    ("gamma_star", 13, (), True, 400,
     {"cls": [], "J": [], "J3": [], "J4": [0, 1], "part": "gamma-star"}),
    ("gamma_star", 17, (0,), True, 800,
     {"cls": [0], "J": [1], "J3": [0], "J4": [0, 1, 2], "part": "gamma-star"}),
])
def test_scalar_ratio_row_pins_a_perturbed_scalar(method, p, jrho, at_full, checked, witness):
    r = _R_BY_P[p]
    at = SubsetJ.full(len(r)) if at_full else SubsetJ.of(len(r), (0,))

    def plus_one(field, value, *subsets):
        return field.add(value, 1) if subsets[-1] == at else value

    row = _scalar_ratio_row(p, r, jrho, method, plus_one)
    assert row == {"name": "scalar-ratio-classes", "status": "fail",
                   "checked": checked, "counterexample": witness}


# gamma negated along the row J = {0} or J = full: every ratio within a row
# still holds, so only the gamma-sign part fails
@pytest.mark.parametrize("p,jrho,at_full,checked,witness", [
    (13, (), False, 400, {"J": [0], "Jp": [], "part": "gamma-sign"}),
    (13, (0,), False, 72, {"J": [0], "Jp": [], "part": "gamma-sign"}),
    (17, (), False, 5184, {"J": [0], "Jp": [], "part": "gamma-sign"}),
    (17, (0,), False, 800, {"J": [0], "Jp": [], "part": "gamma-sign"}),
    (13, (0,), True, 72, {"J": [0, 1], "Jp": [0], "part": "gamma-sign"}),
    (17, (), True, 5184, {"J": [0, 1, 2], "Jp": [], "part": "gamma-sign"}),
])
def test_scalar_ratio_row_pins_a_gamma_sign_flip(p, jrho, at_full, checked, witness):
    r = _R_BY_P[p]
    at = SubsetJ.full(len(r)) if at_full else SubsetJ.of(len(r), (0,))

    def negate(field, value, J, Jp):
        return field.neg(value) if J == at else value

    row = _scalar_ratio_row(p, r, jrho, "gamma", negate)
    assert row == {"name": "scalar-ratio-classes", "status": "fail",
                   "checked": checked, "counterexample": witness}


# ---------------------------------------------------------------------------
# mutation kill coverage (smoke; the exhaustive sweep runs in acceptance)


def test_mutation_catalog_size():
    muts = all_mutations(P2A)
    assert len(muts) == 88
    assert len(set(muts)) == 88


@pytest.mark.parametrize(
    "table,jmask,j",
    [
        ("s", 0b01, 0),
        ("t", 0b10, 1),
        ("a", 0b11, 0),
        ("r", 0b01, 0),
        ("c", 0b00, 1),
        ("cprime", 0b10, 0),
        ("aJn", 0b00, 0),
        ("aJn", 0b11, 1),
    ],
)
def test_single_cell_mutations_caught(table, jmask, j):
    mutation = Mutation(table, jmask, j)
    failed = [r for r in run_all_checks(P2A, mutation) if not r.passed]
    assert failed, f"mutation of {table} went undetected"
    assert failed[0].counterexample is not None


def test_tjjp_mutation_caught():
    mutation = Mutation("tJJp", 0b01, 0, jpmask=0b10)
    failed = [r for r in run_all_checks(P2A, mutation) if not r.passed]
    assert failed


def test_every_single_cell_mutant_dies_at_every_jrho_but_two():
    # every all_mutations cell through run_identities at every Jrho dies,
    # that is fails a row, at p=11 f=1 (36 of 36) and p=13 f=2 (350 of 352),
    # except the aJn cells of the full J at the full Jrho: there
    # check_shifted_table_additivity compares aJn(J) only with Jp = J, where
    # a uniform bump cancels (open under ROADMAP item 7).  A new survivor
    # fails this test.
    runs, survivors = {}, []
    for p, f, r in ((11, 1, (4,)), (13, 2, (5, 6))):
        for size in range(f + 1):
            for jrho in itertools.combinations(range(f), size):
                params = RhoParams.make(p, f, r, jrho)
                for m in all_mutations(params):
                    runs[f] = runs.get(f, 0) + 1
                    if all(row.passed for row in run_identities(params, 0, m)):
                        survivors.append((p, f, jrho, m))
    assert runs == {1: 36, 2: 352}
    assert survivors == [(13, 2, (0, 1), Mutation("aJn", 3, 0)),
                         (13, 2, (0, 1), Mutation("aJn", 3, 1))]


def test_f1_ajn_mutation_caught_by_envelope():
    mutation = Mutation("aJn", 0b0, 0)
    failed = [r for r in run_all_checks(P1, mutation) if not r.passed]
    assert any(r.name == "vanishing-region-envelope" for r in failed)


def test_tables_are_freed_without_a_collection():
    # a mutated aJn image holds no reference back to its tables, so a run's
    # tables and frames go as soon as the run drops them
    tables = ConstantTables(P2A, Mutation("aJn", 0b01, 0), scope=RunScope())
    assert tables.aJn[J(P2A, 0), 0] is tables.aJn[J(P2A, 0), 0]
    ref = weakref.ref(tables)
    gc.disable()
    try:
        del tables
        assert ref() is None
    finally:
        gc.enable()


def test_mutation_rejects_unknown_table():
    with pytest.raises(ConfigInvalid):
        Mutation("sigma", 0, 0)


@pytest.mark.parametrize("mutation", [
    Mutation("s", 0b100, 0),
    Mutation("tJJp", 0b01, 0, jpmask=0b1000),
    Mutation("r", 0b01, 2),
    Mutation("aJn", 0b01, -1),
], ids=repr)
def test_mutation_naming_no_cell_is_rejected(mutation):
    # J, J' (tJJp only) and the slot j must exist at f=2
    with pytest.raises(ConfigInvalid, match="names no cell"):
        run_identities(RhoParams.make(13, 2, (5, 6), (0,)), 0, mutation)


def test_jpmask_is_ignored_outside_tjjp():
    tables = ConstantTables(P2A, Mutation("s", 0b01, 0, jpmask=0b1000), scope=RunScope())
    assert tables.s[J(P2A, 0)] == tuple(map(add, sJ_tJ(P2A, J(P2A, 0))[0], (1, 0)))


TABLE_PARAMS = (P1, P2A, P3)


def _table_cells(params, tables):
    # every cell of every table, aJn read on its hypothesis domain
    cells = {}
    for name in constants.MUTABLE:
        for key, value in getattr(tables, name).items():
            if name == "aJn":
                for n in constants._a_domain(*key):
                    cells[name, key, n] = value(n)
            else:
                cells[name, key] = value
    return cells


@pytest.mark.parametrize("params", TABLE_PARAMS, ids=_label)
def test_pristine_tables_match_the_formulas(params):
    tables = ConstantTables(params, scope=RunScope())
    subs = list(params.subsets())
    for name in ("s", "t", "a", "r", "c", "cprime"):
        assert list(getattr(tables, name)) == subs
    assert list(tables.tJJp) == [(K, Kp) for K in subs for Kp in subs]
    assert list(tables.aJn) == [(K, j0) for K in subs for j0 in range(params.f)]
    for K in subs:
        assert (tables.s[K], tables.t[K]) == sJ_tJ(params, K)
        assert tables.a[K] == aJ(params, K)
        assert tables.r[K] == rJ(params, K)
        assert tables.c[K] == cJ(params, K)
        assert tables.cprime[K] == cPrimeJ(params, K)
        for Kp in subs:
            # p-1-s_j plus 1 where j-1 lies in Kp
            want = tuple(params.p - 1 - sj + (j - 1 in Kp)
                         for j, sj in enumerate(tables.s[K]))
            assert tables.tJJp[K, Kp] == want
        for j0 in range(params.f):
            frame = AJnFrame(*_frame_key(params, K, j0))
            for n in constants._a_domain(K, j0):
                assert tables.aJn[K, j0](n) == frame.image(n)


@pytest.mark.parametrize("params", TABLE_PARAMS, ids=_label)
def test_each_mutation_moves_one_cell_by_delta(params):
    # one cell at slot j; for aJn every output of the f frames of J
    subs = list(params.subsets())
    pristine = _table_cells(params, ConstantTables(params, scope=RunScope()))
    for m in all_mutations(params):
        K = subs[m.jmask]
        got = _table_cells(params, ConstantTables(params, m, scope=RunScope()))
        assert got.keys() == pristine.keys()
        moved = {cell for cell in got if got[cell] != pristine[cell]}
        if m.table == "aJn":
            want = {cell for cell in got if cell[0] == "aJn" and cell[1][0] == K}
        elif m.table == "tJJp":
            want = {("tJJp", (K, subs[m.jpmask]))}
        else:
            want = {(m.table, K)}
        assert moved == want, m
        for cell in moved:
            assert tuple(map(sub, got[cell], pristine[cell])) == tuple(
                m.delta if j == m.j else 0 for j in range(params.f)
            ), (m, cell)


# ---------------------------------------------------------------------------
# the envelope really needs the genericity floor on p


def force_params(p, f, r, jrho=()):
    obj = object.__new__(RhoParams)
    object.__setattr__(obj, "p", p)
    object.__setattr__(obj, "f", f)
    object.__setattr__(obj, "r", tuple(r))
    object.__setattr__(obj, "Jrho", SubsetJ.of(f, jrho))
    object.__setattr__(obj, "_sh", tuple(J & J.shift(-1) & obj.Jrho for J in all_subsets(f)))
    object.__setattr__(obj, "b_window", (tuple(-x for x in r), tuple(p - 2 - x for x in r)))
    return obj


def test_domination_fails_below_genericity_floor():
    with pytest.raises(GenericityViolation):
        RhoParams.make(7, 2, (5, 5))
    bad = force_params(7, 2, (5, 5))
    env = check_domination_claims(bad, ConstantTables(bad, scope=RunScope()))[0]
    assert not env.passed
    assert env.counterexample is not None


# ---------------------------------------------------------------------------
# the overlap sweep, its rows pinned under every mutant


def _overlap_rows(params, mutations):
    """The shift-overlap-reindex rows of the healthy tables and of each
    mutation; their sha256 and the parts that fail."""
    subs = list(params.subsets())
    rows = []
    for m in [None, *mutations]:
        scope = RunScope()
        tables = ConstantTables(params, m, scope=scope)
        rows.append(_check_shift_overlap_reindex(params, tables, subs, scope).as_dict())
    text = json.dumps(rows, sort_keys=True, separators=(",", ":"))
    parts = {row["counterexample"]["part"] for row in rows if row["status"] == "fail"}
    return hashlib.sha256(text.encode()).hexdigest(), parts


OVERLAP_GOLDEN = {
    (): "526630fa671e70b6d881ba268c5181e7ea74957d474cbd3ae94806f561ed579e",
    (0,): "744486074c9a58e5170b282a8a7bbc5fab5334ea0db28c41e2777b3a0dbe9a65",
    (1,): "60822d3b5c95e0bbbd9f7c3d7f1900405f0a87e34551d776ce41740a241da604",
    (0, 1): "11607be8f63854197031fe85e4d6df022ffd3bcd08ff7e4af4e8f71053056601",
}


@pytest.mark.parametrize("jrho", [(), (0,), (1,), (0, 1)], ids=lambda j: f"jrho{j}")
def test_overlap_sweep_matches_pinned_rows_under_every_mutant(jrho):
    # every +1 mutant, plus s lowered by p, which moves both carry vectors
    # alike at some slots and so reaches the positivity part
    params = RhoParams.make(13, 2, (5, 6), jrho)
    muts = all_mutations(params)
    muts += [Mutation("s", m.jmask, m.j, delta=-13) for m in muts if m.table == "s"]
    assert len(muts) == 96
    digest, parts = _overlap_rows(params, muts)
    # the sweep is vacuous when J-1 has no non-special slot for any J
    assert parts == (set() if jrho == (0, 1) else
                     {"shift", "carry"} | ({"positivity"} if jrho else set()))
    assert digest == OVERLAP_GOLDEN[jrho]


def test_overlap_sweep_matches_pinned_rows_at_f3():
    params = RhoParams.make(17, 3, (7, 8, 7), (0,))
    muts = [m for m in all_mutations(params) if m.table in ("s", "tJJp")]
    assert len(muts) == 216
    digest, parts = _overlap_rows(params, muts)
    assert parts == {"shift", "carry"}
    assert digest == "80fd2f6dc3e8a9d858e84787a274b7d344c130a1f6eeb828d72fba8319a965ad"


def test_overlap_sweep_names_the_m_part(monkeypatch):
    # equal m-vectors that miss 0 at the anchor fail the first tuple at "m"
    params = RhoParams.make(13, 2, (5, 6), (0,))
    subs = list(params.subsets())
    scope = RunScope()
    tables = ConstantTables(params, scope=scope)
    healthy = _check_shift_overlap_reindex(params, tables, subs, scope)
    monkeypatch.setattr(constants, "_m_vec", lambda frame, i: (1,) * len(i))
    scope = RunScope()
    res = _check_shift_overlap_reindex(params, ConstantTables(params, scope=scope), subs, scope)
    assert res.checked == healthy.checked
    assert res.counterexample == {"J": [0], "j0": 0, "i": [0, 0], "Jp": [], "part": "m"}
