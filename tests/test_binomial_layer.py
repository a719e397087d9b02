"""The binomial layer of the chart against the definition-level oracle.

Every (1 + T)^c expansion of the chart comes from ``_binomial_product`` and
every power of a series from ``_binomial_series``, both reading the Lucas
rows C(c, m) mod p that a chart keeps.  ``oracle`` gives n(g) = prod_l (1 + T_l)^(c_l) by
``math.comb`` on the whole coordinates, and (1 + v)^n as sum_t C(n, t) v^t
with exact falling-factorial binomials and its own series products.  On
random inputs over F_11, F_169 and F_4913 the package must give the
oracle's terms at the cutoff its documented rule states, or raise the
documented exception; a power at a class mod p^N must equal the power at
the exact integer wherever the class pins it.  The unit ratios and cocycle
factors of the chart contexts are held to the oracle's binomial series of
their distortion pieces.  The precision properties check that a result
known below D agrees with the same computation from inputs known further
out.
"""

import math
import time

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import oracle
from conftest import chart
from modpcheck import iwasawa
from modpcheck.arith import Fq
from modpcheck.constants import hj
from modpcheck.errors import (
    ExponentPrecisionTooLow,
    NotAUnit,
    PrecisionExhausted,
)
from modpcheck.iwasawa import (
    AElement,
    _binomial_product,
    _binomial_row,
    _binomial_series,
    _graded_exponents,
    _lucas_row,
    cocycle_factor,
    eq_below,
    fdeg,
    principal_units,
    unit_ratio,
)
from modpcheck.weights import RhoParams

INF = math.inf

FIELDS = [(11, 1), (13, 2), (17, 3)]
CONTEXTS = [(11, 1, 40), (13, 2, 30), (17, 3, 24)]


def rows_at(p):
    """The smallest chart at p, for its Lucas rows: a chart's rows depend
    on p only."""
    return chart(p, 1, 2)


def outcome(fn, *args):
    """The result of fn (AElements compare by terms and cutoff), or the type
    of what it raised."""
    try:
        return fn(*args)
    except (ExponentPrecisionTooLow, NotAUnit, PrecisionExhausted) as exc:
        return type(exc)


# ---------------------------------------------------------------------------
# strategies


@st.composite
def fields(draw):
    p, f = draw(st.sampled_from(FIELDS))
    return Fq(p, f)


def _max_depth(fld):
    return {1: 40, 2: 16, 3: 10}[fld.k]


@st.composite
def exponents(draw, f, lo_deg, hi_deg):
    """A Laurent exponent tuple of total degree in [lo_deg, hi_deg]."""
    head = draw(st.lists(st.integers(-2, 3), min_size=f - 1, max_size=f - 1))
    d = draw(st.integers(lo_deg, hi_deg))
    return tuple(head) + (d - sum(head),)


@st.composite
def series(draw, fld, lo_deg, cutoff, max_terms=4):
    """Terms of total degree in [lo_deg, cutoff)."""
    if lo_deg >= cutoff:
        return {}
    keys = exponents(fld.k, lo_deg, cutoff - 1)
    return draw(st.dictionaries(keys, st.integers(1, fld.q - 1), max_size=max_terms))


@st.composite
def laurent_monomials(draw):
    """c*Y^k, exponents in [-40, 40], known everywhere or below a cutoff in
    [-60, 80], which may lie at or below deg k (then no term is known)."""
    fld = draw(fields())
    k = draw(st.lists(st.integers(-40, 40), min_size=fld.k, max_size=fld.k))
    c = draw(st.integers(1, fld.q - 1))
    cutoff = draw(st.one_of(st.just(INF), st.integers(-60, 80)))
    return AElement.monomial(fld, fld.k, k, c, cutoff)


@st.composite
def principal_series(draw, extra=0):
    """(g, D): g = 1 + eps with fdeg(eps) >= 1, known below D + extra."""
    fld = draw(fields())
    D = draw(st.integers(1, _max_depth(fld) // (2 if fld.k > 1 else 1)))
    known = D + extra
    terms = draw(series(fld, 1, known))
    terms[(0,) * fld.k] = 1
    return AElement(fld, fld.k, known, terms), D


# ---------------------------------------------------------------------------
# (1 + T)^c expansions


@settings(max_examples=60)
@given(data=st.data())
def test_binomial_product_matches_digit_walk(data):
    fld = data.draw(fields())
    f, p = fld.k, fld.p
    depth = data.draw(st.integers(0, _max_depth(fld)), label="depth")
    digits = data.draw(st.integers(0, 4), label="digits")
    coords = data.draw(st.lists(st.integers(-p**5, p**5), min_size=f, max_size=f))
    # each exponent is a class mod p^digits, exact only when p^digits >= depth
    want = (ExponentPrecisionTooLow if p**digits < depth
            else oracle.generator_series(p, [c % p**digits for c in coords], depth))
    assert outcome(_binomial_product, rows_at(p), coords, depth, digits) == want


@settings(max_examples=30)
@given(data=st.data())
def test_n_series_matches_product_form(data):
    ctx = chart(*data.draw(st.sampled_from(CONTEXTS)))
    a = data.draw(st.integers(1, ctx.q - 1), label="a")
    depth = data.draw(st.integers(0, ctx.tdepth), label="depth")
    lifts = oracle.teichmuller_lifts(ctx.p, ctx.f, oracle.digits_needed(ctx.p, depth))
    want = oracle.generator_series(ctx.p, [int(c[a - 1]) for c in lifts], depth)
    assert ctx.n_series(ctx.ring.teichmuller(a), depth) == AElement(ctx.field, ctx.f, depth, want)


@pytest.mark.parametrize("p,f,cutoff", CONTEXTS + [(13, 2, 60)])
def test_convb_matches_per_slot_products(p, f, cutoff):
    # the unit-action blocks multiply D^gamma(Y_j) by (1+T)^gamma, here the
    # oracle's D^gamma of all of Y_0 and its n(g) at the coordinates gamma;
    # at p=13 f=2 cutoff 60 the blocks reach |gamma| = 4
    ctx = chart(p, f, cutoff)
    y = ctx.y_series[0]
    for gamma in _graded_exponents(f, ctx.alpha_max):
        if not any(gamma):
            continue
        onep = AElement(ctx.field, f, INF, oracle.generator_series(p, gamma, sum(gamma) + 1))
        dy = oracle.hasse_derivative(p, f, y.terms, gamma)
        s = AElement(ctx.field, f, y.cutoff - sum(gamma), dy) * onep
        bound = max(ctx.D - p * sum(gamma), 0)
        assert ctx.convb[0, gamma] == ctx.t_to_y(s.copy_truncated(bound), bound)


@settings(max_examples=40)
@given(data=st.data())
def test_binomial_product_is_honest_below_its_depth(data):
    fld = data.draw(fields())
    f, p = fld.k, fld.p
    depth = data.draw(st.integers(0, _max_depth(fld) - 4), label="depth")
    extra = data.draw(st.integers(1, 4), label="extra")
    coords = data.draw(st.lists(st.integers(-p**5, p**5), min_size=f, max_size=f))
    short = _binomial_product(rows_at(p), coords, depth, 4)
    long = _binomial_product(rows_at(p), coords, depth + extra, 4)
    assert short == {k: c for k, c in long.items() if sum(k) < depth}


# ---------------------------------------------------------------------------
# powers of a series


@settings(max_examples=60)
@given(data=st.data())
def test_zp_power_matches_digit_walk(data):
    # (1 + v)^(p^digits) = 1 + v^(p^digits), so the class of c mod p^digits
    # gives g^c below p^digits * fdeg(v): where that reaches g's cutoff, the
    # binomial series at the class must equal the one at the integer c
    g, _ = data.draw(principal_series())
    p, v = g.field.p, g - 1
    c = data.draw(st.integers(-p**5, p**5), label="c")
    digits = data.draw(st.integers(0, 4), label="digits")
    if v.terms and p**digits * fdeg(v) < g.cutoff:
        return
    want = AElement(g.field, g.f, g.cutoff, oracle.binomial_series(p, g.f, v.terms, c, g.cutoff))
    assert _binomial_series(rows_at(p), v, c % p**digits, g.cutoff) == want


@settings(max_examples=100)
@given(x=laurent_monomials())
@example(x=AElement.monomial(Fq(13, 2), 2, (-2, 7), 4, 9))
@example(x=AElement.monomial(Fq(13, 2), 2, (-2, 7), 4, 5))
@example(x=AElement.monomial(Fq(13, 2), 2, (-2, 7), 4, -7))
def test_negative_power_inverts_monomials(x):
    # c*Y^k known below K inverts to c^-1*Y^-k known below K - 2*deg k; at
    # K <= deg k nothing is known and pow_below raises NotAUnit
    fld, want = x.field, NotAUnit
    for k, c in x.terms.items():
        want = AElement(fld, x.f, x.cutoff - 2 * sum(k),
                        {tuple(-e for e in k): oracle.field_inv(c, fld.p, fld.k)})
    assert outcome(lambda: x.pow_below(-1, INF)) == want


@settings(max_examples=60)
@given(data=st.data())
def test_binomial_series_matches_exact_binomials(data):
    g, D = data.draw(principal_series())
    p = g.field.p
    v = g - 1
    n = data.draw(st.integers(-p**6, p**6), label="n")
    bound = data.draw(st.integers(0, D + 2), label="bound")
    cut = min(bound, v.cutoff)
    want = AElement(g.field, g.f, cut, oracle.binomial_series(p, g.f, v.terms, n, cut))
    assert _binomial_series(rows_at(p), v, n, bound) == want


@settings(max_examples=40)
@given(data=st.data())
def test_powers_are_honest_below_their_cutoff(data):
    g, D = data.draw(principal_series(extra=4))
    p = g.field.p
    c = data.draw(st.integers(-p**5, p**5), label="c")
    short = g.copy_truncated(D)
    ctx = rows_at(p)
    for fn in (lambda h: _binomial_series(ctx, h - 1, c % p**4, INF),
               lambda h: _binomial_series(ctx, h - 1, c, INF),
               lambda h: _binomial_series(ctx, h - 1, -1, INF)):
        near, far = fn(short), fn(g)
        assert near.cutoff == D
        assert eq_below(near, far, D)


# ---------------------------------------------------------------------------
# unit ratios and cocycle factors


@pytest.mark.parametrize("p,f,cutoff,r", [
    (11, 1, 40, (4,)), (13, 2, 30, (5, 6)), (17, 3, 34, (7, 8, 7))])
def test_unit_ratio_and_cocycle_factor_match_inverse_and_digit_walk(p, f, cutoff, r):
    # the ratio is (1 + v_j)^-1 and the factor w * phi(w)^-1 for its power
    # w = (1 + v_j)^-c, c = numerator/(1-q) mod p^N; phi is a ring map, so
    # phi(w)^-1 = (1 + phi(v_j))^c.  All are known below the cutoff K of v_j,
    # and the numerators are the slot weights hj(r + 1) of the slot
    # corrections
    ctx = chart(p, f, cutoff)
    params = RhoParams.make(p, f, r)
    weights = [hj(params, tuple(x + 1 for x in r), j) for j in range(f)]
    pN = p**ctx.N
    for u in principal_units(ctx, 3, seed=7):
        wbar = ctx.unit_data[u][1]
        for j in range(f):
            v = ctx.u1_pieces[wbar,][j]
            K = v.cutoff
            assert v.terms
            ratio = oracle.binomial_series(p, f, v.terms, -1, K)
            assert unit_ratio(ctx, u, j) == AElement(ctx.field, f, K, ratio)
            for numerator in weights:
                c = numerator * pow(1 - ctx.q, -1, pN) % pN
                w = oracle.binomial_series(p, f, v.terms, -c, K)
                phi_inv = oracle.binomial_series(p, f, oracle.frobenius(v.terms, p), c, K)
                got = cocycle_factor(ctx, u, j, numerator)
                assert (got.terms, got.cutoff) == (oracle.series_product(p, f, w, phi_inv, K), K)


@pytest.mark.parametrize("p,f,cutoff", [(11, 1, 40), (13, 2, 30), (17, 3, 34), (11, 1, 121)])
def test_teichmuller_unit_ratio_and_cocycle_factor_are_one(p, f, cutoff):
    # a Teichmuller unit has class 0, whose distortion pieces are 0 known
    # below D-1, so the class path gives exactly 1 there
    ctx = chart(p, f, cutoff)
    one = AElement.const(ctx.field, f, 1, cutoff=ctx.D - 1)
    for a in (1, 2, ctx.q - 1):
        u = ctx.ring.teichmuller(a)
        assert ctx.unit_data[u][1] == 0
        for j in range(f):
            assert unit_ratio(ctx, u, j) == one
            for numerator in (1, 5, 77, 12345):
                assert cocycle_factor(ctx, u, j, numerator) == one


# ---------------------------------------------------------------------------
# exact inputs


def test_invert_unit_of_exact_non_monomial_raises_at_once():
    x = AElement(Fq(11, 1), 1, INF, {(0,): 1, (1,): 1})
    start = time.perf_counter()
    with pytest.raises(NotAUnit):
        x.pow_below(-1, INF)
    assert time.perf_counter() - start < 1
    # an exact monomial still inverts exactly
    m = AElement(Fq(11, 1), 1, INF, {(2,): 3})
    assert m.pow_below(-1, INF).terms == {(-2,): Fq(11, 1).inv(3)}
    assert m.pow_below(-1, INF).cutoff == INF


def test_binomial_series_of_exact_series_raises():
    fld, ctx = Fq(13, 2), rows_at(13)
    v = AElement(fld, 2, INF, {(1, 0): 1})
    with pytest.raises(PrecisionExhausted):
        _binomial_series(ctx, v, 3, INF)
    one = _binomial_series(ctx, AElement(fld, 2, INF, {}), 3, INF)
    assert one.terms == {(0, 0): 1} and one.cutoff == INF
    assert _binomial_series(ctx, v, 3, 5).terms == {(0, 0): 1, (1, 0): 3, (2, 0): 3, (3, 0): 1}


def test_binomial_series_of_non_principal_series_raises():
    # 1 + v is a principal unit only when every term of v has degree >= 1
    fld = Fq(13, 2)
    for terms in ({(0, 0): 3}, {(1, -1): 1}, {(-1, 0): 2, (2, 0): 1}, {(0, 0): 1, (3, 1): 1}):
        for cutoff in (8, INF):
            with pytest.raises(NotAUnit):
                _binomial_series(rows_at(13), AElement(fld, 2, cutoff, terms), 3, INF)


# ---------------------------------------------------------------------------
# Lucas rows by base-p digits


def test_lucas_rows_match_math_comb_below_p_cubed():
    p = 5
    for r in range(p**3):
        for length in (1, 4, 5, 6, 25, 26, p**3):
            want = tuple(math.comb(r, m) % p for m in range(length))
            assert _lucas_row(p, r, length) == want, (r, length)


@st.composite
def binomial_rows(draw):
    # 271 and 8191 run the recurrence past p = 256, and 271 at lengths past
    # p reaches its zero run after d = c mod p on the way
    p = draw(st.sampled_from([2, 3, 5, 7, 11, 13, 271, 8191]), label="p")
    c = draw(st.integers(-p**3, p**3), label="c")
    return p, c, draw(st.integers(1, min(p**2 + 3, 400)), label="length")


@given(binomial_rows())
def test_binomial_row_matches_the_exact_binomial(case):
    # c(c-1)...(c-m+1)/m! in exact ints, for negative c, c >= p^e and
    # length > p, which _binomial_row reads through c mod _lucas_modulus
    # from the rows of the chart
    p, c, length = case
    want, b = [], 1
    for m in range(length):
        want.append(b % p)
        b = b * (c - m) // (m + 1)  # C(c, m+1), exact
    assert _binomial_row(rows_at(p), c, length) == tuple(want)


def test_lucas_row_calls_math_comb_on_digits_only(monkeypatch):
    # the rows come from the mod-p recurrence on the digits: math.comb is
    # called on no argument at all, not even a digit
    p, length = 271, 342

    def no_comb(n, k):
        raise AssertionError(f"math.comb({n}, {k})")

    monkeypatch.setattr(iwasawa.math, "comb", no_comb)
    r = p**2 - 2  # base-p digits 269, 270
    row = _lucas_row(p, r, length)
    assert len(row) == length
    assert row[:3] == (1, r % p, r * (r - 1) // 2 % p)
    assert row[p] == (r // p) % p
