"""Tests for the matrix layer: substitution matrices in both bases, the
triangular right inverse, the twisted fixed-point solver, and the
unit-action matrices with their structure and commutation sweeps."""

import hashlib
import json

import pytest

from conftest import chart
from modpcheck import phigamma as pg
from modpcheck.arith import Fq
from modpcheck.base_combinatorics import SubsetJ, all_subsets
from modpcheck.constants import mu_gamma
from modpcheck.errors import HypothesisViolation, NonConvergence, NotInvertible
from modpcheck.iwasawa import (
    INF,
    AElement,
    fdeg,
    principal_units,
)
from modpcheck.weights import RhoParams

P1 = RhoParams.make(11, 1, (4,))
P1S = RhoParams.make(11, 1, (5,), (0,))
P2 = RhoParams.make(13, 2, (5, 6), (0,))
P2G = RhoParams.make(13, 2, (5, 6))
P2S = RhoParams.make(13, 2, (6, 5), (0, 1))
MU1 = mu_gamma(P1, seed=5)
MU1S = mu_gamma(P1S, seed=5)
MU2 = mu_gamma(P2, seed=5)
MU2G = mu_gamma(P2G, seed=5)
MU2S = mu_gamma(P2S, seed=5)
F1 = Fq(11, 1)
F2 = Fq(13, 2)

E1 = SubsetJ(1, 0)
T1 = SubsetJ.full(1)
E2 = SubsetJ(2, 0)
T2 = SubsetJ.full(2)


def one(fld, f):
    return AElement.const(fld, f, 1)


# --- substitution matrices -------------------------------------------------


def test_phi_support_counts():
    # each column J+1 carries the rows between J cap Jrho and J
    assert len(pg.phi_support(P1)) == 3
    assert len(pg.phi_support(P1S)) == 2
    assert len(pg.phi_support(P2)) == 6
    assert len(pg.phi_support(P2G)) == 9
    assert len(pg.phi_support(P2S)) == 4


def test_untwisted_special_column_is_constant():
    # with every embedding special the matrix is diagonal and the column
    # at the full set has a plain scalar entry (its pole vector vanishes)
    M = pg.mat_phi_untwisted(MU1S)
    assert set(M.entries) == {(E1, E1), (T1, T1)}
    x = M.entries[(T1, T1)]
    assert x.terms == {(0,): MU1S.gamma(T1, T1)}


def test_untwisted_entry_hand_exponent_f2():
    # p=13, r=(5,6), J={0}: pole vector (6,5), column difference r-vector
    # for J minus J'={0} is (-1,7), so the (empty,{1}) entry is Y^(-5,-12);
    # the row below the column needs the unconstrained table
    M = pg.mat_phi_untwisted(MU2G)
    J = SubsetJ.of(2, (0,))
    x = M.entries[(E2, J.shift(1))]
    assert list(x.terms) == [(-5, -12)]
    assert x.terms[(-5, -12)] == MU2G.gamma(J.shift(1), E2)


def test_twisted_pole_depths_f2():
    M = pg.mat_phi_twisted(MU2G)
    # column from J=empty: all of r+1 contributes, depth -(p-1)*(6+7)
    assert fdeg(M.entries[(E2, E2.shift(1))]) == -156
    assert M.entries[(E2, E2.shift(1))].terms == {
        (-85, -71): MU2G.gamma(E2, E2)
    }
    # column from the full set is scalar
    assert fdeg(M.entries[(T2, T2.shift(1))]) == 0
    assert pg.check_phi_matrix_shapes(MU2G).passed
    assert pg.check_phi_matrix_shapes(MU1).passed


def test_twist_change_of_basis():
    for mu in (MU1, MU1S, MU2, MU2G, MU2S):
        r = pg.check_twist_change_of_basis(mu)
        assert r.passed, r.as_dict()


def test_flip_changes_exactly_one_entry():
    slot = pg.default_flip(P2)
    M0 = pg.mat_phi_twisted(MU2)
    M1 = pg.mat_phi_twisted(MU2, flip=slot)
    changed = [k for k in M0.entries if not (M0.entries[k] - M1.entries[k]).is_zero()]
    assert changed == [slot]
    assert (M0.entries[slot] + M1.entries[slot]).is_zero()


# --- right inverse ---------------------------------------------------------


def test_right_inverse_f1_closed_form():
    # 2x2 system: rows (empty, full), columns likewise; eliminating from
    # the full row gives the inverse entries below in closed form
    M = pg.mat_phi_twisted(MU1)
    X = pg.solve_right_inverse(M)
    ga = MU1.gamma(E1, E1)
    gb = MU1.gamma(T1, E1)
    gc = MU1.gamma(T1, T1)
    fld = MU1.field
    assert X.entries[(E1, E1)].terms == {(50,): fld.inv(ga)}
    assert X.entries[(T1, T1)].terms == {(0,): fld.inv(gc)}
    assert X.entries[(E1, T1)].terms == {
        (50,): fld.neg(fld.mul(fld.mul(fld.inv(ga), gb), fld.inv(gc)))
    }
    assert (T1, E1) not in X.entries
    # diagonal variant: inverse is entrywise reciprocal
    Md = pg.mat_phi_twisted(MU1S)
    Xd = pg.solve_right_inverse(Md)
    assert set(Xd.entries) == {(E1, E1), (T1, T1)}
    assert Xd.entries[(E1, E1)].terms == {
        (60,): MU1S.field.inv(MU1S.gamma(E1, E1))
    }


def test_right_inverse_residual_exact():
    for mu in (MU2, MU2G, MU2S):
        r = pg.check_right_inverse(mu)
        assert r.passed, r.as_dict()


def test_right_inverse_not_invertible():
    M = pg.mat_phi_twisted(MU2)
    del M.entries[(T2, T2.shift(1))]
    with pytest.raises(NotInvertible):
        pg.solve_right_inverse(M)
    M = pg.mat_phi_twisted(MU2)
    M.entries[(E2, E2.shift(1))] = AElement(MU2.field, 2, INF, {})
    with pytest.raises(NotInvertible):
        pg.solve_right_inverse(M)
    # a monomial times 1 + Y_0 is a unit of the series ring, but the solver
    # inverts only monomials
    M = pg.mat_phi_twisted(MU2)
    e = M.entries[(T2, T2.shift(1))]
    assert len(e.terms) == 1
    M.entries[(T2, T2.shift(1))] = e.mul_below(
        AElement(MU2.field, 2, 20, {(0, 0): 1, (1, 0): 1}), INF)
    with pytest.raises(NotInvertible):
        pg.solve_right_inverse(M)


# --- twisted fixed-point systems -------------------------------------------


def test_theta_basics():
    for p, f in ((11, 1), (13, 2)):
        r = pg.check_theta_basics(p, f)
        assert r.passed, r.as_dict()


def test_theta_problem_validation():
    zeros = tuple(AElement(F2, 2, INF, {}) for _ in range(2))
    ones = (1, 1)
    J = SubsetJ.of(2, (0,))
    with pytest.raises(HypothesisViolation):
        pg.ThetaProblem(13, J, E2, ones, (0, 0), zeros)
    with pytest.raises(HypothesisViolation):
        pg.ThetaProblem(13, J, E2, ones, (12, 12), zeros)
    with pytest.raises(HypothesisViolation):
        pg.ThetaProblem(13, J, E2, (0, 1), (2, 2), zeros)
    bad_b = (AElement.monomial(F2, 2, (1, 0)), AElement(F2, 2, INF, {}))
    with pytest.raises(HypothesisViolation):
        pg.ThetaProblem(13, J, E2, ones, (2, 2), bad_b)


def _reference_twist_monomials(prob):
    # per-slot expansion of W_i: Y_j^(h_j) Y_{j-1}^(-p h_j) for j - i in
    # J minus J', the inverse for j - i in J' minus J
    f, p, h = prob.f, prob.p, prob.h
    out = []
    for i in range(f):
        k = [0] * f
        for j in range(f):
            d = (j - i) % f
            inJ, inJp = d in prob.J, d in prob.Jp
            if inJ and not inJp:
                k[j] += h[j]
                k[(j - 1) % f] -= p * h[j]
            elif inJp and not inJ:
                k[j] -= h[j]
                k[(j - 1) % f] += p * h[j]
        out.append(AElement.monomial(prob.field, f, tuple(k), prob.lam[i]))
    return out


def test_twist_monomials_match_per_slot_reference_on_every_pair():
    # every (J, J') pair, so J' outside J reaches the negative weights
    pairs = 0
    for p, f in ((11, 1), (13, 2), (17, 3)):
        fld = Fq(p, f)
        zeros = tuple(AElement(fld, f, INF, {}) for _ in range(f))
        lam = tuple(range(1, f + 1))
        h = tuple(2 + 3 * j for j in range(f))
        for J in all_subsets(f):
            for Jp in all_subsets(f):
                prob = pg.ThetaProblem(p, J, Jp, lam, h, zeros)
                got = prob.twist_monomials
                want = _reference_twist_monomials(prob)
                assert [(x.terms, x.cutoff) for x in got] == [
                    (x.terms, x.cutoff) for x in want
                ], (p, J, Jp)
                pairs += 1
    assert pairs == 84


def test_theta_solver_validation():
    ones = (1, 1)
    J = SubsetJ.of(2, (0,))
    zeros = tuple(AElement(F2, 2, INF, {}) for _ in range(2))
    # square pair: no solver branch
    prob = pg.ThetaProblem(13, J, J, ones, (2, 2), zeros)
    with pytest.raises(HypothesisViolation):
        pg.theta_solve(prob)
    # h admissible for the operator but not for the solver (p-1-f = 10)
    prob = pg.ThetaProblem(13, J, E2, ones, (11, 11), zeros)
    with pytest.raises(HypothesisViolation):
        pg.theta_solve(prob)
    # right-hand side too shallow: constants have depth 0 < p-1
    const_b = tuple(one(F2, 2) for _ in range(2))
    prob = pg.ThetaProblem(13, J, E2, ones, (2, 2), const_b)
    with pytest.raises(HypothesisViolation):
        pg.theta_solve(prob)


def test_theta_solver_zero_rhs_exact():
    ones = (1, 1)
    J = SubsetJ.of(2, (0,))
    zeros = tuple(AElement(F2, 2, INF, {}) for _ in range(2))
    prob = pg.ThetaProblem(13, J, E2, ones, (2, 2), zeros)
    out = pg.theta_solve(prob, depth=30)
    assert all(x.is_zero() and x.cutoff == INF for x in out)


def test_theta_solver_random_sweeps():
    assert pg.check_theta_solver(11, 1, count=25, seed=1, depth=40).passed
    assert pg.check_theta_solver(13, 2, count=25, seed=1, depth=30).passed
    assert pg.check_theta_solver(13, 2, count=15, seed=2, depth=30).passed


def test_theta_solver_agreement_claim_fails_on_a_wrong_solution(monkeypatch):
    # the solver loses the last term of component 0; the check's own
    # fixpoint iteration does not call it, so the first claim made fails
    solve = pg.theta_solve

    def lossy(prob, depth=None):
        a = solve(prob, depth)
        x = a[0].copy_truncated(a[0].cutoff)
        del x.terms[list(x.terms)[-1]]
        return (x, *a[1:])

    monkeypatch.setattr(pg, "theta_solve", lossy)
    res = pg.check_theta_solver(13, 2, count=5, seed=1, depth=30)
    assert not res.passed
    assert res.counterexample["claim"] == "schedule-agreement"


def test_theta_solver_deterministic():
    prob1 = pg.random_theta_problem(F2, seed=11)
    prob2 = pg.random_theta_problem(F2, seed=11)
    a1 = pg.theta_solve(prob1, depth=30)
    a2 = pg.theta_solve(prob2, depth=30)
    assert all(x.terms == y.terms and x.cutoff == y.cutoff for x, y in zip(a1, a2))


def test_theta_solver_stall_guard():
    # sabotaged twist data loses depth every round; the solver must refuse
    # to pretend it converged
    prob = pg.random_theta_problem(F2, seed=7)
    deep = AElement.monomial(F2, 2, (-500, -500), 1)
    prob.twist_monomials = (deep, deep)
    with pytest.raises(NonConvergence):
        pg.theta_solve(prob, depth=30)


# --- eigenline classifier ---------------------------------------------------


def test_classifier_literals():
    q = F2.q
    kind, t = pg.classify_phi_q_eigen(q, 1, (0, 0))
    assert kind == "line" and t == (0, 0)
    kind, t = pg.classify_phi_q_eigen(q, 1, (2 * (q - 1), -(q - 1)))
    assert kind == "line" and t == (2, -1)
    kind, t = pg.classify_phi_q_eigen(q, 2, (2 * (q - 1), -(q - 1)))
    assert kind == "zero" and t is None
    kind, t = pg.classify_phi_q_eigen(q, 1, (1, 0))
    assert kind == "zero"


def test_classifier_against_substitution_oracle():
    assert pg.check_eigen_classifier(11, 1, samples=12, seed=3).passed
    assert pg.check_eigen_classifier(13, 2, samples=8, seed=3).passed


CLASSIFIER_PARAMS = {
    "p11f1": (11, 1),
    "p13f2": (13, 2),
    "p17f3": (17, 3),
}


def _unscaled_frobenius(x):
    # the slot rotation of frobenius without the factor p
    f = x.f
    terms = {tuple(k[(j + 1) % f] for j in range(f)): c for k, c in x.terms.items()}
    return AElement(x.field, f, x.cutoff, terms)


def _always_zero(q, lam, s):
    return ("zero", None)


_classify = pg.classify_phi_q_eigen


def _slot0_off_by_one(q, lam, s):
    kind, t = _classify(q, lam, s)
    if kind == "line":
        t = (t[0] + 1,) + t[1:]
    return kind, t


# mutant -> (patched name, replacement, the parameter sets it fails at, the
# sha256 of its 18 rows, CLASSIFIER_PARAMS in order by seeds 0-5).  The
# classifier check sees the unscaled frobenius only on a line verdict with
# lam = 1 and t != 0; at q = 4913 seeds 0-5 draw no lam = 1.
CLASSIFIER_MUTANTS = {
    "unscaled-frobenius": ("frobenius", _unscaled_frobenius, {"p11f1", "p13f2"},
                           "d843ae63fa2e3f8ea86de099861f76be0fa59ed3e508e4022082786f46cadbc7"),
    "always-zero": ("classify_phi_q_eigen", _always_zero, set(CLASSIFIER_PARAMS),
                    "d8069714fca60b5bb4312471ff963b0c5bfdd598540ed0f761e9b49f8c0ac761"),
    "slot0-off-by-one": ("classify_phi_q_eigen", _slot0_off_by_one, set(CLASSIFIER_PARAMS),
                         "023402b4e19644b36000b51ef6f4255611261ac28e8023e292703d572025d796"),
}


@pytest.mark.parametrize("name", sorted(CLASSIFIER_PARAMS))
def test_classifier_matches_per_candidate_reference(name):
    # the case (1, 0) and, per sample, a line case and an off-line one
    p, f = CLASSIFIER_PARAMS[name]
    for seed in range(6):
        assert pg.check_eigen_classifier(p, f, seed=seed).as_dict() == {
            "name": "substitution-eigenline-classifier", "status": "pass", "checked": 2 * 20 + 1}


@pytest.mark.parametrize("mutant", sorted(CLASSIFIER_MUTANTS))
def test_classifier_mutants_fail_alike(monkeypatch, mutant):
    # the rows under each mutant are pinned, every witness included
    attr, fake, fails_at, digest = CLASSIFIER_MUTANTS[mutant]
    monkeypatch.setattr(pg, attr, fake)
    runs = [(name, pg.check_eigen_classifier(p, f, seed=seed).as_dict())
            for name, (p, f) in CLASSIFIER_PARAMS.items() for seed in range(6)]
    assert {name for name, row in runs if row["status"] == "fail"} == fails_at
    text = json.dumps([row for _, row in runs], sort_keys=True, separators=(",", ":"))
    assert hashlib.sha256(text.encode()).hexdigest() == digest


def test_classifier_box_scan_keeps_the_least_radius(monkeypatch):
    # with the unscaled frobenius every point of the box has the quotient 1,
    # the target of the case (1, 0): its wrong zero verdict meets t = 0,
    # radius 0, and fails there, whatever the box holds besides.  No test
    # tells the margin +2 from +1 or +0: the quotient of Y^-t is Y^-(q-1)t,
    # so a case's one solution t = s/(q-1) lies at radius max|s_j| // (q-1)
    monkeypatch.setattr(pg, "frobenius", _unscaled_frobenius)
    monkeypatch.setattr(pg, "classify_phi_q_eigen", _always_zero)
    row = pg.check_eigen_classifier(*CLASSIFIER_PARAMS["p11f1"], seed=0).as_dict()
    assert row["counterexample"] == {"lam": 1, "s": [0], "kind": "zero"}


def test_classifier_substitutes_once_per_box_point(monkeypatch):
    # f substitutions per point of the 11^f box and per case, at most; a
    # rescan of the box for every zero verdict makes about 131,000
    p, f = CLASSIFIER_PARAMS["p17f3"]
    calls = 0
    frob = pg.frobenius

    def counted(x):
        nonlocal calls
        calls += 1
        return frob(x)

    monkeypatch.setattr(pg, "frobenius", counted)
    samples = 20
    assert pg.check_eigen_classifier(p, f, samples=samples, seed=0).passed
    assert calls <= f * (11**f + 2 * samples + 1) == 4116


# --- unit-action matrices ---------------------------------------------------


def test_teichmuller_unit_gives_identity():
    ctx = chart(11, 1)
    M = pg.assemble_unit_matrix(P1, *pg.build_q_a(ctx, MU1, ctx.ring.teichmuller(2)))
    assert set(M.entries) == {(E1, E1), (T1, T1)}
    for x in M.entries.values():
        assert (x - 1).is_zero() and x.cutoff == INF


def test_unit_matrix_f1_entries():
    ctx = chart(11, 1)
    u = principal_units(ctx, 1, seed=3)[0]
    qa, pj = pg.build_q_a(ctx, MU1, u)
    assert (qa.entry(E1, E1) - 1).is_zero()
    assert (qa.entry(T1, T1) - 1).is_zero()
    assert fdeg(pj[0] - 1) == 10 and pj[0].cutoff == 39
    x = qa.entry(E1, T1)
    assert fdeg(x) == 10 and x.cutoff == 39
    # leading window: gamma ratio times (1 - correction); with one
    # embedding the first solver correction already sits at depth
    # p(p-1) - (p-1)(r+1) = 60, beyond the knowledge cutoff, so the
    # window identity is exact as far as the entry is known
    g = F1.div(MU1.gamma_star(E1), MU1.gamma_star(T1))
    target = (one(F1, 1) - pj[0]).scale(g)
    assert (x - target).copy_truncated(20).is_zero()
    assert (x - target).copy_truncated(39).is_zero()
    Pa = pg.assemble_unit_matrix(P1, qa, pj)
    assert (Pa.entry(T1, T1) - 1).is_zero()
    assert fdeg(Pa.entry(E1, E1) - 1) == 10
    r = pg.check_commutation(ctx, pg.mat_phi_twisted(MU1), Pa, u)
    assert r.passed and r.info["nonvacuous_entries"] == 3
    assert r.info["formula_floor"] <= r.info["lowest_entry_floor"]


def test_unit_matrix_f1_special_is_diagonal():
    ctx = chart(11, 1)
    u = principal_units(ctx, 1, seed=3)[0]
    M = pg.assemble_unit_matrix(P1S, *pg.build_q_a(ctx, MU1S, u))
    assert set(M.entries) == {(E1, E1), (T1, T1)}
    assert fdeg(M.entry(E1, E1) - 1) == 10
    assert (M.entry(T1, T1) - 1).is_zero()
    r = pg.check_commutation(ctx, pg.mat_phi_twisted(MU1S), M, u)
    assert r.passed


def test_unit_matrix_sweeps_f1():
    ctx = chart(11, 1)
    for mu in (MU1, MU1S):
        rs = pg.check_unit_action_matrices(ctx, mu, units=3, pairs=1, seed=0)
        for r in rs:
            assert r.passed, r.as_dict()


def test_unit_matrix_sweeps_f2():
    ctx = chart(13, 2)
    for mu in (MU2, MU2G, MU2S):
        rs = pg.check_unit_action_matrices(ctx, mu, units=2, pairs=1, seed=0)
        for r in rs:
            assert r.passed, r.as_dict()
    rs = pg.check_unit_action_matrices(ctx, MU2S, units=1, pairs=0, seed=1)
    assert rs[0].info == {"diagonal_normalization": "identity"}


def test_unit_matrix_f2_deep_entry_window():
    # the row-empty, column-full entry sits at depth 2(p-1) with the
    # two-factor correction product as its leading window
    ctx = chart(13, 2)
    u = principal_units(ctx, 1, seed=3)[0]
    qa, pj = pg.build_q_a(ctx, MU2G, u)
    x = qa.entry(E2, T2)
    assert fdeg(x) == 24
    g = F2.div(MU2G.gamma_star(E2), MU2G.gamma_star(T2))
    target = ((one(F2, 2) - pj[0]) * (one(F2, 2) - pj[1])).scale(g)
    floor = min(36, x.cutoff, target.cutoff)
    assert (x - target).copy_truncated(floor).is_zero()
    # same entry under a constraint set that excludes it from the leading
    # branch: empty below the knowledge cutoff
    qa2, _ = pg.build_q_a(ctx, MU2, u)
    x2 = qa2.entry(E2, T2)
    assert x2.copy_truncated(x2.cutoff).is_zero()


def test_flip_breaks_commutation_detectably():
    ctx = chart(11, 1)
    u = principal_units(ctx, 1, seed=0)[0]
    Pa = pg.assemble_unit_matrix(P1, *pg.build_q_a(ctx, MU1, u))
    bad = pg.mat_phi_twisted(MU1, flip=pg.default_flip(P1))
    r = pg.check_commutation(ctx, bad, Pa, u)
    assert not r.passed
    assert r.counterexample["leading"] == 10


def test_flip_fails_commutation_off_the_full_jrho():
    # the flip of the full Jrho sits on the diagonal; every other Jrho, and
    # another r, fails commutation alone
    ctx = chart(13, 2)

    def passed(r, jrho):
        params = RhoParams.make(13, 2, r, jrho)
        rows = pg.check_unit_action_matrices(ctx, mu_gamma(params, 0), units=3, pairs=1,
                                             seed=0, flip=pg.default_flip(params))
        return [res.passed for res in rows]

    fails = [True, False, True]
    assert [passed((5, 6), jrho) for jrho in ((), (0,), (1,), (0, 1))] == [
        fails, fails, fails, [True, True, True]]
    assert passed((6, 5), (0,)) == fails


def test_f3_chart_free_smoke():
    P3 = RhoParams.make(17, 3, (7, 8, 7), (0,))
    MU3 = mu_gamma(P3, seed=5)
    assert pg.check_phi_matrix_shapes(MU3).passed
    assert pg.check_twist_change_of_basis(MU3).passed
    assert pg.check_right_inverse(MU3).passed
    assert pg.check_theta_solver(17, 3, count=3, seed=2).passed
    assert pg.check_eigen_classifier(17, 3, samples=3, seed=1).passed


def test_matmul_with_identity():
    M = pg.mat_phi_twisted(MU2)
    I = pg.PhiGammaMatrix.identity(P2, MU2.field)
    for prod in (M @ I, I @ M):
        assert set(prod.entries) == set(M.entries)
        for k in M.entries:
            assert (prod.entries[k] - M.entries[k]).is_zero()
