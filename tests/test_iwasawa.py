import math
import random

import pytest

import oracle
from conftest import chart
from modpcheck import iwasawa
from modpcheck.arith import gauss_jordan
from modpcheck.constants import hj
from modpcheck.errors import (
    ExponentPrecisionTooLow,
    HypothesisViolation,
    NotAUnit,
    PrecisionExhausted,
    SingularJacobian,
)
from modpcheck.iwasawa import (
    AElement,
    ChartContext,
    _binomial_series,
    check_action_composition,
    check_exponent_additivity,
    check_frobenius_action_commute,
    check_frobenius_generators,
    check_torus_eigenvector,
    check_unit_ratio_depth,
    cocycle_factor,
    default_cutoff,
    eq_below,
    fdeg,
    frobenius,
    is_torus_fixed,
    principal_units,
    unit_action,
    unit_ratio,
)
from modpcheck.weights import RhoParams
from test_chart_packed import jacobian_inverse

INF = math.inf

C1 = chart(11, 1)          # univariate, full working depth 40
C2S = chart(13, 2, 12)     # small bivariate context for oracles
C2M = chart(13, 2, 18)     # deep enough for unit-action content


def Ymono(ctx, k, c=1, cutoff=INF):
    return AElement.monomial(ctx.field, ctx.f, k, c, cutoff)


def random_aelem(ctx, rng, n_terms=6, lo=-4, hi=7, cutoff=INF):
    terms = {}
    for _ in range(n_terms):
        k = tuple(rng.randrange(lo, hi) for _ in range(ctx.f))
        c = rng.randrange(1, ctx.q)
        terms[k] = c
    return AElement(ctx.field, ctx.f, cutoff, terms)


def test_default_cutoffs():
    assert default_cutoff(11, 1) == 40
    assert default_cutoff(13, 2) == 30
    assert default_cutoff(17, 3) == 34


def test_y0_constant_term_vanishes():
    for ctx in (C1, C2S):
        for j in range(ctx.f):
            assert ctx.y_series[j].terms.get((0,) * ctx.f, 0) == 0


def test_y0_linear_coefficient_f1_matches_direct_sum():
    # independent oracle: the linear coefficient of the defining sum is
    # sum over units of a^{-1} * (first digit of the Teichmuller lift) = -1
    fld = C1.field
    want = 0
    for a in fld.units():
        digit0 = C1.ring.teichmuller(a)[0] % 11
        want = fld.add(want, fld.mul(fld.inv(a), fld.from_int(digit0)))
    assert want == fld.from_int(-1)
    assert C1.y_series[0].terms.get((1,), 0) == want


def test_jacobian_invertible_and_consistent():
    for ctx in (C1, C2S):
        m = ctx.jacobian
        minv = jacobian_inverse(ctx)
        fld = ctx.field
        n = ctx.f
        for i in range(n):
            for j in range(n):
                s = 0
                for t in range(n):
                    s = fld.add(s, fld.mul(m[i][t], minv[t][j]))
                assert s == (1 if i == j else 0)


def test_matrix_inverse_singular_raises():
    fld = C2S.field
    with pytest.raises(SingularJacobian):
        gauss_jordan(fld, [[1, 1], [1, 1]])


def test_chart_roundtrip_random_f2():
    rng = random.Random(7)
    terms = {}
    for _ in range(10):
        k = (rng.randrange(0, 6), rng.randrange(0, 6))
        if sum(k) < 12 and sum(k) > 0:
            terms[k] = rng.randrange(1, C2S.q)
    s = AElement(C2S.field, 2, 12, terms)
    back = C2S.y_to_t(C2S.t_to_y(s))
    diff = back - s
    assert diff.is_zero()


def test_chart_conversions_reject_negative_exponents():
    # both directions refuse a support the additive chart cannot hold, with
    # the same exception and message
    fld = C2S.field
    s = AElement(fld, 2, 12, {(-1, 2): 1, (1, 0): 3})
    msg = "additive chart only holds nonnegative supports"
    with pytest.raises(HypothesisViolation, match=msg):
        C2S.t_to_y(s)
    with pytest.raises(HypothesisViolation, match=msg):
        C2S.y_to_t(s)


def test_conversion_sends_generator_series_to_coordinate():
    for ctx in (C1, C2S):
        for j in range(ctx.f):
            img = ctx.t_to_y(ctx.y_series[j])
            want = Ymono(ctx, tuple(1 if i == j else 0 for i in range(ctx.f)),
                         cutoff=ctx.tdepth)
            assert eq_below(img, want, ctx.tdepth)


def test_reversion_against_naive_composition_f2():
    # oracle: substitute the reverted coordinates back into the generator
    # series with plain repeated multiplication (no graded table)
    ctx = C2S
    fld = ctx.field
    taus = [ctx.t_to_y(AElement.monomial(fld, 2, (1 - l, l), 1, 12)) for l in range(2)]
    for j in range(2):
        acc = AElement(fld, 2, 12, {})
        for beta, c in ctx.y_series[j].terms.items():
            term = AElement.const(fld, 2, c)
            for l, e in enumerate(beta):
                for _ in range(e):
                    term = (term * taus[l]).copy_truncated(12)
            acc = acc + term
        want = Ymono(ctx, tuple(1 if i == j else 0 for i in range(2)), cutoff=12)
        assert eq_below(acc, want, 12)


def test_frobenius_on_monomials_and_fdeg_scaling():
    ctx = C2S
    x = Ymono(ctx, (3, 0))  # Y_0^3
    fx = frobenius(x)
    assert fx.terms == {(0, 39): 1}  # Y_1^(3p) at p=13... slot j-1 = 1
    rng = random.Random(3)
    y = random_aelem(ctx, rng, cutoff=50)
    assert fdeg(frobenius(y)) == 13 * fdeg(y)
    assert frobenius(y).cutoff == 13 * 50
    c = AElement.const(ctx.field, 2, 5)
    assert frobenius(c).terms == c.terms


def test_frobenius_intertwines_multiplication_by_coordinates():
    ctx = C2S
    rng = random.Random(5)
    x = random_aelem(ctx, rng, cutoff=40)
    for j in range(2):
        yj = Ymono(ctx, tuple(1 if i == j else 0 for i in range(2)))
        lhs = frobenius(yj * x)
        rhs = Ymono(ctx, tuple(13 if i == (j - 1) % 2 else 0 for i in range(2))) * frobenius(x)
        floor = (lhs - rhs).cutoff
        assert eq_below(lhs, rhs, floor)


def test_frobenius_generator_images():
    assert check_frobenius_generators(C1).passed
    assert check_frobenius_generators(C2S).passed


def _perturbed_context(monkeypatch, p, f, slot, degree):
    # a fresh context at the preset cutoff built with 2 added to the
    # coefficient of one exponent of Y_slot at the given degree, which may be
    # 1, so the Jacobian is that of the perturbed series; returns the
    # context and the exponent.  Adding 1 to the T_0 coefficient of Y_{f-1}
    # makes the Jacobian singular at p=13 f=2 and p=17 f=3.
    plain = ChartContext._eigencoordinates
    bumped = []

    def perturbed(ctx):
        fld = ctx.field
        ys = list(plain(ctx))
        k = max(k for k in ys[slot].terms if sum(k) == degree)
        terms = dict(ys[slot].terms)
        terms[k] = fld.add(terms[k], 2) or 2
        ys[slot] = AElement(fld, ctx.f, ys[slot].cutoff, terms)
        bumped.append(k)
        return tuple(ys)

    with monkeypatch.context() as m:
        m.setattr(ChartContext, "_eigencoordinates", perturbed)
        ctx = ChartContext(p, f, default_cutoff(p, f))
    return ctx, bumped[0]


def _full_precision_generator_images(ctx):
    # the comparison of check_frobenius_generators with Y_{j-1}^p formed from
    # all of Y_{j-1} and truncated afterwards
    out = []
    for j in range(ctx.f):
        lhs = ctx.y_series[j].frobenius_sub().copy_truncated(ctx.tdepth)
        rhs = ctx.y_series[(j - 1) % ctx.f].pow_below(ctx.p, INF).copy_truncated(ctx.tdepth)
        out.append((lhs - rhs).is_zero())
    return out


@pytest.mark.parametrize("p,f", [(13, 2), (17, 3)])
def test_frobenius_generators_fail_at_every_compared_degree(monkeypatch, p, f):
    # phi(Y_0) = Y_{f-1}^p is compared in the degrees p*k below the depth;
    # a wrong coefficient of Y_{f-1} at each such k, the highest included,
    # fails the row, and the base that the bounded power keeps reaches it
    depth = chart(p, f).tdepth
    top = (depth - 1) // p
    assert top < depth - (p - 1)
    for degree in range(1, top + 1):
        ctx, k = _perturbed_context(monkeypatch, p, f, f - 1, degree)
        res = check_frobenius_generators(ctx)
        assert not res.passed
        assert res.counterexample["j"] == 0
        assert res.counterexample["exponent"] == [p * e for e in k]


@pytest.mark.parametrize("p,f", [(11, 1), (13, 2)])
def test_frobenius_generators_match_full_precision_under_perturbation(monkeypatch, p, f):
    # a wrong coefficient at the highest degree the truncated base keeps, or
    # at the highest compared degree: the bounded power gives the verdicts
    # of the power formed at full precision (at f = 1 every series over F_p
    # passes, since c^p = c)
    depth = chart(p, f).tdepth
    for degree in {depth - p, (depth - 1) // p}:
        ctx, _ = _perturbed_context(monkeypatch, p, f, f - 1, degree)
        verdicts = _full_precision_generator_images(ctx)
        res = check_frobenius_generators(ctx)
        assert res.passed == all(verdicts)
        if not res.passed:
            assert res.counterexample["j"] == verdicts.index(False)


def test_frobenius_generators_multiply_only_the_linear_part_at_f3(monkeypatch):
    # at p=17 f=3 the depth is 18 and Y has no constant term, so Y^17 below
    # 18 needs Y below 2: every operand of the products is a power of the
    # linear part, homogeneous of one degree
    ctx = chart(17, 3)
    seen = []
    mul_terms = iwasawa._mul_terms

    def recording(field, xt, yt, bound):
        seen.append((xt, yt))
        return mul_terms(field, xt, yt, bound)

    monkeypatch.setattr(iwasawa, "_mul_terms", recording)
    assert check_frobenius_generators(ctx).passed
    assert seen
    for operands in seen:
        for terms in operands:
            assert len({sum(k) for k in terms}) == 1
    bases = [t for operands in seen for t in operands if min(map(sum, t), default=None) == 1]
    assert bases and all(sum(k) < 2 for t in bases for k in t)


def test_torus_reindex_eigenvector_f1():
    res = check_torus_eigenvector(C1)
    assert res.passed and res.checked > 0


def test_exponent_additivity():
    assert check_exponent_additivity(C1, samples=10).passed
    assert check_exponent_additivity(C2S, samples=6).passed


def test_fdeg_examples():
    ctx = C2S
    h = 3
    x = Ymono(ctx, (h, -13 * h))
    assert fdeg(x) == h * (1 - 13)
    assert fdeg(AElement(ctx.field, 2, 10, {})) is INF
    assert fdeg(AElement.const(ctx.field, 2, 1)) == 0


def test_is_torus_fixed():
    # weight(k) = k_0 + p k_1 mod q-1 must vanish for every monomial
    ctx = C2S
    q1 = ctx.q - 1
    assert is_torus_fixed(Ymono(ctx, (q1 * 2, 0)))
    assert is_torus_fixed(Ymono(ctx, (-13, 1)))
    assert not is_torus_fixed(Ymono(ctx, (1, 0)))
    assert not is_torus_fixed(Ymono(ctx, (14, -1)))
    assert is_torus_fixed(AElement(ctx.field, 2, 10, {}))


def test_monomial_inverse():
    ctx = C1
    fld = ctx.field
    m = Ymono(ctx, (4,), c=3, cutoff=30)
    minv = m.pow_below(-1, INF)
    prod = m * minv
    assert eq_below(prod, AElement.const(fld, 1, 1, cutoff=prod.cutoff),
                    prod.cutoff)


def test_invert_unit_rejects_split_leading_form():
    ctx = C2S
    x = AElement(ctx.field, 2, 10, {(1, 0): 1, (0, 1): 1})
    with pytest.raises(NotAUnit):
        x.pow_below(-1, INF)
    with pytest.raises(NotAUnit):
        AElement(ctx.field, 2, 10, {}).pow_below(-1, INF)


def test_eq_below_guards_precision():
    ctx = C1
    a = Ymono(ctx, (1,), cutoff=5)
    b = Ymono(ctx, (1,), cutoff=9)
    with pytest.raises(PrecisionExhausted):
        eq_below(a, b, 7)
    assert eq_below(a, b, 5)


def test_zp_power_basics_and_additivity():
    ctx = C1
    fld = ctx.field
    g = AElement(fld, 1, 25, {(0,): 1, (1,): 1})  # 1 + Y
    one = AElement.const(fld, 1, 1, cutoff=25)
    assert eq_below(_binomial_series(ctx, g - 1, 0, INF), one, 25)
    assert eq_below(_binomial_series(ctx, g - 1, 5, INF), g.pow_below(5, INF), 25)
    rng = random.Random(11)
    for _ in range(5):
        c1 = rng.randrange(0, 11**6)
        c2 = rng.randrange(0, 11**6)
        lhs = _binomial_series(ctx, g - 1, c1, INF) * _binomial_series(ctx, g - 1, c2, INF)
        rhs = _binomial_series(ctx, g - 1, c1 + c2, INF)
        assert eq_below(lhs, rhs, 25)
    # negative exponents match the inverse mod p^N
    inverse = AElement(fld, 1, 25, oracle.binomial_series(11, 1, {(1,): 1}, -1, 25))
    assert eq_below(_binomial_series(ctx, g - 1, -1, INF), inverse, 25)


def test_cocycle_factor_digit_guard():
    # c mod p^N pins w = (1 + v_0)^(-c) only below p^N * fdeg(v_0); the
    # unit's v_0 has fdeg 10 and cutoff 120, so N = 1 (11 * 10 < 120) is
    # too few digits
    ctx = ChartContext(11, 1, 121)
    for u in principal_units(ctx, 20, seed=1):
        wbar = ctx.unit_data[u][1]
        if wbar and fdeg(ctx.u1_pieces[wbar,][0]) == 10:
            break
    assert (fdeg(ctx.u1_pieces[wbar,][0]), ctx.u1_pieces[wbar,][0].cutoff) == (10, 120)
    cocycle_factor(ctx, u, 0, 5)
    ctx.N = 1
    with pytest.raises(ExponentPrecisionTooLow):
        cocycle_factor(ctx, u, 0, 5)


def test_zp_power_phi_component():
    # c0 + c1*phi acts as g^c0 * frobenius(g)^c1; the right side takes
    # plain integer powers of g and of the oracle's inverse of frobenius(g)
    ctx = C2S
    g = AElement(ctx.field, 2, 45, {(0, 0): 1, (2, 1): 4})
    fg = frobenius(g).copy_truncated(45)
    lhs = _binomial_series(ctx, g - 1, 6, INF) * _binomial_series(ctx, fg - 1, -6, INF)
    fg_inv = AElement(ctx.field, 2, 45, oracle.binomial_series(13, 2, (fg - 1).terms, -1, 45))
    rhs = g.pow_below(6, INF) * fg_inv.pow_below(6, INF)
    floor = (lhs - rhs).cutoff
    assert floor >= 40
    assert eq_below(lhs, rhs, floor)


def test_unit_action_teichmuller_is_diagonal():
    ctx = C1
    fld = ctx.field
    u = ctx.ring.teichmuller(3)
    rng = random.Random(2)
    x = random_aelem(ctx, rng, cutoff=30)
    got = unit_action(ctx, u, x)
    want_terms = {k: fld.mul(c, fld.pow(3, sum(k) % (ctx.q - 1)))
                  for k, c in x.terms.items()}
    assert got.terms == want_terms


def test_unit_action_identity():
    ctx = C1
    x = Ymono(ctx, (2,), cutoff=20)
    assert unit_action(ctx, ctx.ring.one, x).terms == x.terms


def test_unit_data_is_kept_per_unit(monkeypatch):
    # a unit is split once per context: a second action by the same unit
    # makes no further WittRing.unit_decompose call
    ctx = ChartContext(13, 2, 18)
    calls = []
    ring_cls = type(ctx.ring)
    decompose = ring_cls.unit_decompose

    def counting(self, u):
        calls.append(u)
        return decompose(self, u)

    monkeypatch.setattr(ring_cls, "unit_decompose", counting)
    u = principal_units(ctx, 1, seed=3)[0]
    x = Ymono(ctx, (1, 0), cutoff=ctx.D)
    first = unit_action(ctx, u, x)
    assert calls
    seen = len(calls)
    assert unit_action(ctx, u, x) == first
    assert len(calls) == seen


def test_unit_ratio_depth_f1_and_f2():
    assert check_unit_ratio_depth(C1, count=6, seed=4).passed
    res = check_unit_ratio_depth(C2M, count=3, seed=4)
    assert res.passed
    # at depth 18 > p-1 the distortion itself must be visible for some unit
    seen = False
    for u in principal_units(C2M, 6, seed=4):
        for j in range(2):
            r = unit_ratio(C2M, u, j)
            assert is_torus_fixed(r)
            if not (r - 1).is_zero():
                seen = True
    assert seen


def test_unit_action_composition_and_frobenius_commute_f1():
    assert check_action_composition(C1, pairs=4, seed=9).passed
    assert check_frobenius_action_commute(C1, count=3, seed=9).passed


def test_unit_action_composition_f2_small():
    assert check_action_composition(C2M, pairs=2, seed=1).passed


def test_unit_ratio_frobenius_shift():
    # the ratio at slot j+1 maps to the p-th power of the ratio at slot j,
    # which in characteristic p is known below p times the ratio's cutoff
    ctx = C2M
    for u in principal_units(ctx, 3, seed=6):
        for j in range(2):
            lhs = frobenius(unit_ratio(ctx, u, (j + 1) % 2))
            r = unit_ratio(ctx, u, j)
            floor = 13 * r.cutoff
            assert lhs.cutoff == floor == 13 * (ctx.D - 1)
            rhs = AElement(ctx.field, 2, floor, oracle.series_power(13, 2, r.terms, 13, floor))
            assert eq_below(lhs, rhs, floor)


def _cocycle_case(ctx, rvec, u, j):
    params = RhoParams.make(ctx.p, ctx.f, rvec)
    h = tuple(x + 1 for x in rvec)
    num_j = hj(params, h, j)
    num_next = hj(params, h, (j + 1) % ctx.f)
    P_j = cocycle_factor(ctx, u, j, num_j)
    P_next = cocycle_factor(ctx, u, (j + 1) % ctx.f, num_next)
    kvec = [0] * ctx.f
    kvec[j] += h[j % ctx.f]
    kvec[(j - 1) % ctx.f] -= ctx.p * h[j % ctx.f]
    M = Ymono(ctx, tuple(kvec))
    lhs = P_j * unit_action(ctx, u, M)
    rhs = M * frobenius(P_next)
    floor = (lhs - rhs).cutoff
    assert floor > fdeg(M), "comparison window must be nonempty"
    assert eq_below(lhs, rhs, floor)


def test_cocycle_relation_f1():
    for u in principal_units(C1, 3, seed=12):
        _cocycle_case(C1, (4,), u, 0)


def test_cocycle_relation_f2():
    for u in principal_units(C2M, 2, seed=13):
        for j in range(2):
            _cocycle_case(C2M, (5, 6), u, j)


def test_f3_smoke_small_cutoff():
    ctx = chart(17, 3, 20)
    assert ctx.tdepth == 4
    assert check_frobenius_generators(ctx).passed
    for u in principal_units(ctx, 2, seed=5):
        for j in range(3):
            r = unit_ratio(ctx, u, j)
            assert fdeg(r - 1) >= 16


def test_principal_units_deterministic():
    a = principal_units(C1, 5, seed=3)
    b = principal_units(C1, 5, seed=3)
    assert a == b
    for u in a:
        assert u[0] % 11 == 1


def test_y_to_t_of_a_high_power_builds_without_deep_recursion():
    # Y^1999 is one power of Y_0 by square-and-multiply, so its build nests
    # no other build, however high the exponent
    ctx = ChartContext(11, 1, 2000)
    c = ctx.y_series[0].terms[(1,)]
    got = ctx.y_to_t(AElement.monomial(ctx.field, 1, (1999,), cutoff=2000), 2000)
    assert got.terms == {(1999,): ctx.field.pow(c, 1999)}
