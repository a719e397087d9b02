"""The chart build and the chart conversions against their definitions.

Every eigencoordinate series Y_j is compared with its defining sum over
the units, computed by ``oracle`` from F_q and the Teichmuller lifts up,
and y_to_t, on every monomial Y^m below each tested bound, with the
oracle's product prod_j Y_j^(m_j) of those Y_j; as y_to_t is linear, that
checks it on every input.  Below a bound y_to_t is triangular, with the
invertible Jacobian on its diagonal, so it is injective there, and
``ChartContext.t_to_y``, which forms its output through ``y_to_t``, is
pinned by the round trip y_to_t(t_to_y(s)) = s only because y_to_t is
checked on every monomial.  The leading forms that t_to_y
eliminates are substituted by elementary shears in the chart; the
multivariate Horner scheme over the rows of M^-1 below is their oracle,
with M^-1 formed here from the chart's row operations.
"""

import functools
import random
import sys
import threading

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracle
from conftest import chart
from modpcheck import iwasawa
from modpcheck.arith import gauss_jordan
from modpcheck.errors import SingularJacobian
from modpcheck.harness import RunConfig, run_suite
from modpcheck.iwasawa import INF, AElement, ChartContext, _graded_exponents


def jacobian_inverse(ctx):
    """M^-1 = E_n...E_1 for the row operations E_k that reduce the Jacobian M
    to I, applied in order to the identity; checked to be a left inverse."""
    fld, f = ctx.field, ctx.f
    identity = [[int(i == j) for j in range(f)] for i in range(f)]
    rows = [list(r) for r in identity]
    for i, j, c in gauss_jordan(fld, ctx.jacobian):
        scaled = [fld.mul(c, w) for w in rows[j]]
        rows[i] = scaled if i == j else list(map(fld.add, rows[i], scaled))
    product = [[functools.reduce(fld.add, map(fld.mul, row, col), 0) for col in zip(*ctx.jacobian)]
               for row in rows]
    assert product == identity
    return rows


def linear_forms(ctx):
    """The rows of M^-1 as linear forms in Y: T_l is (M^-1 Y)_l to first
    order, with M the Jacobian."""
    fld, f = ctx.field, ctx.f
    unit_vecs = [tuple(1 if i == j else 0 for i in range(f)) for j in range(f)]
    return [AElement(fld, f, INF, {unit_vecs[j]: c for j, c in enumerate(row) if c})
            for row in jacobian_inverse(ctx)]


def substitute_linear(terms, forms):
    """The polynomial `terms` in T_0..T_{f-1} with each T_l replaced by the
    AElement forms[l], by the multivariate Horner scheme (Pena and Sauer,
    SIAM J. Numer. Anal. 37, 2000): P = P(0) + sum_l T_l * P_l, where P_l
    holds the terms whose first nonzero exponent is at slot l, divided by
    T_l, and is evaluated the same way."""
    const = 0
    parts = [{} for _ in forms]
    for k, c in terms.items():
        l = next((i for i, e in enumerate(k) if e), None)
        if l is None:
            const = c
        else:
            parts[l][k[:l] + (k[l] - 1,) + k[l + 1:]] = c
    out = AElement.const(forms[0].field, forms[0].f, const)
    for form, part in zip(forms, parts):
        if part:
            out = out + form * substitute_linear(part, forms)
    return out


def random_additive(ctx, rng, n_terms, cutoff):
    terms = {}
    while len(terms) < n_terms:
        k = tuple(rng.randrange(cutoff) for _ in range(ctx.f))
        if sum(k) < cutoff:
            terms[k] = rng.randrange(1, ctx.q)
    return AElement(ctx.field, ctx.f, cutoff, terms)


def dense_multiplicative(ctx, coeffs, bound):
    """The Y-chart polynomial with coeffs[i] on the i-th monomial of degree
    < bound (graded order), zero coefficients dropped."""
    monomials = _graded_exponents(ctx.f, bound - 1)
    terms = {m: c for m, c in zip(monomials, coeffs) if c}
    return AElement(ctx.field, ctx.f, bound, terms)


# (5, 3, 20) has depth 16 > p, so its middle and last rows read two base-p
# digits of the lift coordinates; (3, 4, 9) has two middle rows, and
# (2, 5, 8), at p = 2, three; at (3, 6, 6) the reduced middle product keeps
# the slot bound at (p-1)^4 (q-1), 14 bits, so the sum runs in the 16-bit
# lane where (p-1)^(f+1) (q-1) would ask for the 32-bit one
@pytest.mark.parametrize("p,f,cutoff", [(11, 1, 40), (13, 2, 30), (17, 3, 24),
                                        (5, 3, 20), (3, 4, 9), (2, 5, 8), (3, 6, 6)])
def test_y_series_matches_n_series_sum(p, f, cutoff):
    # every coefficient of every Y_j, against the sum that defines it
    ctx = ChartContext(p, f, cutoff)
    assert [y.cutoff for y in ctx.y_series] == [ctx.tdepth] * f
    assert [y.terms for y in ctx.y_series] == oracle.eigencoordinates(p, f, ctx.tdepth)


def test_y0_matches_definition_at_the_preset_depth():
    # at depth 18 > p the binomials read the second base-p digit of the lift
    # coordinates, which the (17, 3, 24) comparison above never reaches
    ctx = ChartContext(17, 3, 34)
    rng = random.Random(17)
    top = [m for m in _graded_exponents(3, 17) if sum(m) == 17]
    lower = _graded_exponents(3, 16)
    betas = [(17, 0, 0), (0, 17, 0), (0, 0, 17)] + rng.sample(top, 8) + rng.sample(lower, 24)
    assert len(set(betas)) == 35
    want = oracle.eigencoordinates(17, 3, ctx.tdepth, betas)
    for y, w in zip(ctx.y_series, want):
        assert {b: y.terms.get(b, 0) for b in betas} == {b: w.get(b, 0) for b in betas}


@pytest.mark.parametrize("p,f,cutoff", [(11, 1, 40), (13, 2, 30), (17, 3, 34)])
def test_unit_action_matches_its_definition(p, f, cutoff):
    # u(Y_j) = sum_a a^(-p^j) n(u*[a]) for three principal units and one with
    # a Teichmuller part, below a chart depth past p-1, where distortion starts
    ctx = chart(p, f, cutoff)
    assert ctx.tdepth > p - 1
    for u in iwasawa.principal_units(ctx, 3, seed=5) + [(2,) + (1,) * (f - 1)]:
        want = oracle.unit_images(p, f, ctx.tdepth, u)
        for j in range(f):
            image = iwasawa.unit_action(ctx, u, AElement.monomial(
                ctx.field, f, tuple(int(i == j) for i in range(f))))
            assert min(image.cutoff, ctx.tdepth) == ctx.tdepth
            assert ctx.y_to_t(image, ctx.tdepth).terms == want[j], (u, j)


@pytest.mark.parametrize("p,f,cutoff", [(11, 1, 121), (13, 2, 30), (17, 3, 34)])
def test_unit_is_read_only_through_its_class(p, f, cutoff):
    # below a cutoff of at most p^2 every exponent of a monomial is below
    # p^2, so u(Y_j) reads u*[a] mod p^2 only: u' = u + p^2 e_0, which
    # differs from u in a digit that p^N keeps, has the class (a0, wbar) of
    # u and its images, while u + p e_0, of another class, moves them.  The
    # definition's images are compared at f <= 2, the chart's at every f.
    ctx = chart(p, f, cutoff)
    pN = p**ctx.N
    assert pN > p * p and cutoff <= p * p
    gens = [AElement.monomial(ctx.field, f, tuple(int(i == j) for i in range(f)))
            for j in range(f)]
    for u in iwasawa.principal_units(ctx, 1, seed=5) + [(2,) + (1,) * (f - 1)]:
        same, other = (((u[0] + s) % pN,) + u[1:] for s in (p * p, p))
        assert ctx.unit_data[same] == ctx.unit_data[u] != ctx.unit_data[other]
        images = {v: [ctx.y_to_t(iwasawa.unit_action(ctx, v, y), ctx.tdepth).terms
                      for y in gens] for v in (u, same, other)}
        assert images[same] == images[u] != images[other]
        if f <= 2:
            want = oracle.unit_images(p, f, ctx.tdepth, u)
            assert oracle.unit_images(p, f, ctx.tdepth, same) == want
            assert oracle.unit_images(p, f, ctx.tdepth, other) != want
            assert images[same] == want


@pytest.mark.parametrize("p,f,cutoff", [(13, 2, 12), (17, 3, 24), (11, 1, 40)])
def test_tau_table_and_t_to_y_match_reference(p, f, cutoff):
    # y_to_t against the oracle's Y^m on every monomial at each bound, which
    # covers every input, as y_to_t is linear; then on random sums, and
    # t_to_y as its inverse below each bound
    ctx = ChartContext(p, f, cutoff)
    bounds = (1, 2, ctx.tdepth // 2, ctx.tdepth)
    monomials = _graded_exponents(f, ctx.tdepth - 1)
    for m in monomials:
        for bound in bounds:
            got = ctx.y_to_t(AElement.monomial(ctx.field, f, m), bound)
            assert got.terms == oracle.y_to_t(p, f, ctx.tdepth, {m: 1}, bound), (m, bound)
    rng = random.Random(p * f)
    for n_terms in (1, 5, 20, 60):
        s = random_additive(ctx, rng, min(n_terms, len(monomials)), ctx.tdepth)
        for bound in bounds:
            assert ctx.y_to_t(s, bound).terms == oracle.y_to_t(p, f, ctx.tdepth, s.terms, bound)
            got = ctx.t_to_y(s, bound)
            assert got.cutoff == bound
            assert ctx.y_to_t(got, bound) == s.copy_truncated(bound)


@settings(max_examples=30)
@given(data=st.data())
def test_t_to_y_matches_reference_on_dense_outputs(data):
    # the additive image of a dense Y-chart polynomial has a dense
    # multiplicative image: every degree below the bound has a form to
    # eliminate
    ctx = chart(*data.draw(st.sampled_from([(13, 2, 12), (17, 3, 24)])))
    bound = data.draw(st.integers(1, ctx.tdepth), label="bound")
    n = len(_graded_exponents(ctx.f, bound - 1))
    coeffs = data.draw(st.lists(st.integers(1, ctx.q - 1), min_size=n, max_size=n))
    x = dense_multiplicative(ctx, coeffs, bound)
    s = ctx.y_to_t(x, bound)
    got = ctx.t_to_y(s, bound)
    assert got.cutoff == bound
    assert got.terms == x.terms


@settings(max_examples=30)
@given(data=st.data())
def test_t_to_y_inverts_y_to_t_below_the_bound(data):
    p, f, cutoff = data.draw(st.sampled_from([(11, 1, 40), (13, 2, 12), (17, 3, 24)]))
    ctx = chart(p, f, cutoff)
    bound = data.draw(st.integers(0, ctx.tdepth), label="bound")
    n = len(_graded_exponents(f, bound - 1))
    coeffs = data.draw(st.lists(st.integers(0, ctx.q - 1), min_size=n, max_size=n))
    x = dense_multiplicative(ctx, coeffs, bound)
    back = ctx.t_to_y(ctx.y_to_t(x, bound), bound)
    assert back.cutoff == max(bound, 0)
    assert back.terms == x.terms


def test_t_to_y_leaves_the_residual_after_its_last_degree():
    # the residual is read again only below the bound, so the form of degree
    # bound - 1 joins the output without its additive image being formed
    ctx = ChartContext(13, 2, 12)
    forms = []
    y_to_t = ctx.y_to_t
    ctx.y_to_t = lambda x, bound: forms.append(x) or y_to_t(x, bound)
    bound = 6
    top = AElement(ctx.field, 2, INF, {(2, 3): 5, (5, 0): 1})
    got = ctx.t_to_y(top, bound)
    assert forms == []
    assert y_to_t(got, bound) == top.copy_truncated(bound)
    s = top + AElement(ctx.field, 2, INF, {(1, 1): 3})
    got = ctx.t_to_y(s, bound)
    assert forms and all(iwasawa.fdeg(x) < bound - 1 for x in forms)
    assert y_to_t(got, bound) == s.copy_truncated(bound)


def test_y_power_table_holds_only_what_y_to_t_asked_for():
    # t_to_y at bound b reads y_to_t at b only, which asks for Y^m known
    # below b, so every key (m, rel) has |m| + rel = b; a Y^m build keeps no
    # power of its own on the way, so at f=1 the table has at most one entry
    # per degree below b
    ctx = ChartContext(11, 1, 121)
    bound = 100
    s = random_additive(ctx, random.Random(121), bound, bound)
    back = ctx.t_to_y(s, bound)
    assert ctx.y_to_t(back, bound) == s
    assert all(sum(m) + rel == bound for m, rel in ctx._ypow_cache)
    assert len(ctx._ypow_cache) <= bound


def _undersized(rule):
    """A packing rule that picks the byte lane below the one its bound needs."""
    def narrow(fld, per_term, terms):
        return rule(fld, 1, 2 ** (rule(fld, per_term, terms).bits // 2) - 1)

    return narrow


def test_undersized_slot_width_is_caught_at_f3(monkeypatch):
    # the f=3 comparison of the eigencoordinate sum must fail when a slot
    # can carry into its neighbour: the 16-bit lane below the 32-bit one
    # that its 29-bit bound needs (a rule that forgets the term count asks
    # for 17 bits and so lands on the same 32-bit lane)
    good = ChartContext(17, 3, 24)
    monkeypatch.setattr(iwasawa, "packing", _undersized(iwasawa.packing))
    bad = ChartContext(17, 3, 24)
    assert bad.y_series[0].terms != good.y_series[0].terms


def test_y_power_cache_is_thread_safe():
    # four threads fill the Y^m and form caches of one fresh context at once,
    # through conversions at different bounds, and must get the serial
    # conversions, each inverted by y_to_t
    ref = ChartContext(13, 2, 12)
    s = random_additive(ref, random.Random(11), 30, ref.tdepth)
    bounds = (3, 12, 6, 9)
    want = {b: ref.t_to_y(s, b) for b in bounds}
    assert all(ref.y_to_t(y, b) == s.copy_truncated(b) for b, y in want.items())

    ctx = ChartContext(13, 2, 12)
    got = {}
    errors = []

    def work(b):
        try:
            got[b] = ctx.t_to_y(s, b).terms
        except Exception as exc:  # reported by the assertion below
            errors.append(exc)

    old = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=work, args=(b,)) for b in bounds]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=120)
    finally:
        sys.setswitchinterval(old)
    assert not any(t.is_alive() for t in threads)
    assert not errors, errors
    assert got == {b: y.terms for b, y in want.items()}
    serial = ChartContext(13, 2, 12)
    for (m, rel), y in list(ctx._ypow_cache.items()):
        assert y == serial._y_power(m, rel)
    forms = linear_forms(serial)
    for key, img in list(ctx._form_cache.items()):
        assert img == substitute_linear(dict(key), forms)


def random_form(ctx, rng, d):
    """A form of degree d in T with random support and coefficients."""
    monomials = [m for m in _graded_exponents(ctx.f, d) if sum(m) == d]
    support = rng.sample(monomials, rng.randint(1, len(monomials)))
    return {m: rng.randrange(1, ctx.q) for m in support}


def with_jacobian(p, f, cutoff, m):
    """A fresh context, form cache empty, whose eigencoordinates are the
    linear forms Y_j = sum_l m[j][l] T_l, so that its Jacobian is `m`."""
    def linear(ctx):
        return tuple(AElement(ctx.field, f, ctx.tdepth,
                              {tuple(int(i == l) for i in range(f)): c
                               for l, c in enumerate(row) if c})
                     for row in m)

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(ChartContext, "_eigencoordinates", linear)
        return ChartContext(p, f, cutoff)


@settings(max_examples=5, deadline=None)
@given(rng=st.randoms(use_true_random=False))
@pytest.mark.parametrize("p,f,cutoff", [(11, 1, 40), (13, 2, 30), (17, 3, 34)])
def test_shear_substitution_matches_horner_at_every_degree(p, f, cutoff, rng):
    ctx = with_jacobian(p, f, cutoff, chart(p, f, cutoff).jacobian)
    forms = linear_forms(ctx)
    for d in range(ctx.tdepth):
        h = random_form(ctx, rng, d)
        assert ctx._form_image(h) == substitute_linear(h, forms), d


@st.composite
def zero_pivot_matrices(draw, q, f):
    """Invertible f x f matrices over F_q whose Gauss-Jordan elimination
    meets a zero pivot: the rows of an upper-triangular matrix with nonzero
    diagonal, permuted by a permutation s other than the identity.  Columns
    before the first c with s(c) != c leave the rows from c on untouched, so
    the pivot at c is the entry below the diagonal U[s(c)][c] = 0."""
    perm = draw(st.permutations(range(f)).filter(lambda s: list(s) != list(range(f))))
    rows = [[draw(st.integers(1 if i == j else 0, q - 1)) if j >= i else 0 for j in range(f)]
            for i in range(f)]
    return [rows[i] for i in perm]


@settings(max_examples=15, deadline=None)
@given(data=st.data())
@pytest.mark.parametrize("p,f,cutoff", [(13, 2, 30), (17, 3, 34)])
def test_shear_substitution_fills_zero_pivots(p, f, cutoff, data):
    m = data.draw(zero_pivot_matrices(p**f, f), label="jacobian")
    ctx = with_jacobian(p, f, cutoff, m)
    d = data.draw(st.integers(0, ctx.tdepth - 1), label="degree")
    h = random_form(ctx, data.draw(st.randoms(use_true_random=False)), d)
    assert ctx._form_image(h) == substitute_linear(h, linear_forms(ctx))


def test_singular_jacobian_fails_every_row_that_reads_the_chart(monkeypatch):
    # Y_1 = Y_0 makes M singular: every build of the chart raises, none is
    # kept, so each of the 7 entries that look the chart up builds it anew
    # and fails its rows with the error, whatever ran before it
    plain = ChartContext._eigencoordinates
    builds = []
    monkeypatch.setattr(ChartContext, "_eigencoordinates",
                        lambda ctx: builds.append(ctx) or (plain(ctx)[0],) * 2)
    for _ in range(2):
        with pytest.raises(SingularJacobian):
            ChartContext(13, 2, 12)
    builds.clear()
    report = run_suite(RunConfig(p=13, f=2, r=(5, 6), jrho=(0,), suites=("iwasawa", "phigamma")))
    assert len(builds) == 7
    chart_rows = ("frobenius-generator-images", "torus-reindex-eigenvector",
                  "binomial-exponent-additivity", "principal-unit-ratio-depth",
                  "unit-action-composition", "frobenius-action-commute",
                  "unit-matrix-structure", "unit-substitution-commutation",
                  "unit-matrix-cocycle")
    failed = [row for row in report.suites if row["status"] != "pass"]
    assert sorted(row["name"].split("/")[1].split("@")[0] for row in failed) == sorted(chart_rows)
    for row in failed:
        assert row["checked"] == 0
        assert row["counterexample"] == {"error": "SingularJacobian: matrix is singular"}


@st.composite
def scaled_forms(draw):
    """(ctx, h, c): a form h of one degree below the chart depth, as
    {exponent: encoding}, and a nonzero scalar c."""
    ctx = chart(*draw(st.sampled_from([(13, 2, 12), (17, 3, 24)])))
    d = draw(st.integers(0, ctx.tdepth - 1), label="degree")
    monomials = [m for m in _graded_exponents(ctx.f, d) if sum(m) == d]
    coeffs = st.integers(1, ctx.q - 1)
    h = draw(st.dictionaries(st.sampled_from(monomials), coeffs, min_size=1))
    return ctx, h, draw(coeffs, label="c")


@settings(max_examples=40)
@given(scaled_forms())
def test_t_to_y_of_scaled_forms_matches_uncached_substitution(data):
    # h fills the cache and c*h is then read from it scaled by c; either
    # conversion must be inverted by y_to_t
    ctx, h, c = data
    fld = ctx.field
    for terms in (h, {k: fld.mul(c, v) for k, v in h.items()}):
        s = AElement(fld, ctx.f, ctx.tdepth, terms)
        got = ctx.t_to_y(s)
        assert got.cutoff == ctx.tdepth
        assert ctx.y_to_t(got) == s


def test_mutating_a_conversion_leaves_the_cache_intact():
    ctx = ChartContext(13, 2, 12)
    fld = ctx.field
    rng = random.Random(5)
    s = random_additive(ctx, rng, 20, ctx.tdepth)
    for x in (s, AElement(fld, 2, s.cutoff, {k: fld.mul(7, c) for k, c in s.terms.items()})):
        want = ctx.t_to_y(x).terms
        for _ in range(2):
            got = ctx.t_to_y(x)
            assert got.terms == want
            for k in list(got.terms)[::2]:
                got.terms[k] = fld.add(got.terms[k], 1) or 1
            got.terms[(99, 0)] = 1


def test_convb_blocks_substitute_three_leading_forms_at_f3():
    # the nine blocks D^gamma(Y_j)(1+T)^gamma, |gamma| = 1, have degree-16
    # leading forms that are three forms up to an F_q scalar
    ctx = ChartContext(17, 3, 34)
    for j in range(3):
        for l in range(3):
            ctx.convb[j, tuple(int(i == l) for i in range(3))]
    top = [key for key in ctx._form_cache if sum(key[0][0]) == 16]
    assert 1 <= len(top) <= 3
