"""The binomial layer of the chart against the forms it replaced.

Every (1 + T)^c expansion of the chart comes from ``_binomial_product`` and
every power of a series from ``_binomial_series``, both reading Lucas rows
C(c, m) mod p.  The references below are the earlier routines: the base-p
digit walk for (1 + T_l)^c (``one_plus_var_power``) and the product form of
the generator series built from it, the digit walk of a principal unit raised
to a p-adic exponent, the geometric series for the inverse of a unit and the
binomial series with exact falling-factorial coefficients.  On random inputs
over F_11, F_169 and F_4913 the new routines must give the same terms and the
same cutoff, or raise the same exception.  The unit ratios and cocycle
factors of the chart contexts are held to their earlier composition from
these parts.  The precision properties check that a result known below D
agrees with the same computation from inputs known further out.
"""

import math
import time

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

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
    chart_context,
    cocycle_factor,
    eq_below,
    fdeg,
    frobenius,
    principal_units,
    unit_ratio,
)
from modpcheck.weights import RhoParams

INF = math.inf

FIELDS = [(11, 1), (13, 2), (17, 3)]
CONTEXTS = [(11, 1, 40), (13, 2, 30), (17, 3, 24)]


# ---------------------------------------------------------------------------
# references


def one_plus_var_power(field, f, cutoff, l, c, digits):
    """(1 + T_l)^c in the additive chart, c an integer class mod p^digits.

    Walks base-p digits of c using (1+T)^(p^i) = 1 + T^(p^i); exact below
    cutoff provided p^digits >= cutoff.
    """
    p = field.p
    if p**digits < cutoff:
        raise ExponentPrecisionTooLow(
            f"need p^N >= {cutoff}, have N={digits}")
    c %= p**digits
    out = AElement.const(field, f, 1, cutoff=cutoff)
    step = 1
    for _ in range(digits):
        if step >= cutoff:
            break
        d = c % p
        c //= p
        if d:
            terms = {}
            for m in range(d + 1):
                if m * step >= cutoff:
                    break
                coeff = field.from_int(math.comb(d, m) % p)
                if coeff:
                    k = tuple(m * step if i == l else 0 for i in range(f))
                    terms[k] = coeff
            out = out * AElement(field, f, cutoff, terms)
        step *= p
    return out.copy_truncated(cutoff)


def reference_product(field, f, coords, depth, digits):
    """prod_l (1 + T_l)^(coords[l]) below depth, one factor at a time."""
    out = AElement.const(field, f, 1, cutoff=depth)
    for l, c in enumerate(coords):
        out = out * one_plus_var_power(field, f, depth, l, c, digits)
    return out.copy_truncated(depth)


def reference_n_series(ctx, a, depth):
    """n([a]) = prod_l (1+T_l)^(c_l of the Teichmuller lift), truncated."""
    return reference_product(ctx.field, ctx.f, ctx.ring.teichmuller(a), depth, ctx.N)


def pth_power(x, times=1):
    """x^(p^times) by the characteristic-p rule; knowledge scales by p^times."""
    fld = x.field
    step = fld.p**times
    terms = {tuple(step * ki for ki in k): fld.pow(c, step)
             for k, c in x.terms.items()}
    cut = x.cutoff if x.cutoff == INF else x.cutoff * step
    return AElement(fld, x.f, cut, terms)


def _digit_walk(g, c, n_digits):
    fld = g.field
    p = fld.p
    out = AElement.const(fld, g.f, 1, cutoff=g.cutoff)
    eps = g - 1
    for _ in range(n_digits):
        d = c % p
        c //= p
        if d:
            out = out * (eps + 1).pow_below(d, INF)
            out = out.copy_truncated(g.cutoff)
        if c:
            eps = pth_power(eps)
    return out


def reference_zp_power(g, c, digits):
    """g^c, c a class mod p^digits, by the base-p digit walk with
    (1+eps)^(p^i) = 1 + eps^(p^i)."""
    p = g.field.p
    d0 = fdeg(g - 1)
    if d0 < 1:
        raise NotAUnit("zp_power needs g = 1 + (filtration degree >= 1)")
    cutoff = g.cutoff
    if cutoff == INF and d0 != INF:
        raise ExponentPrecisionTooLow(
            "digit walk needs a finite knowledge bound on g")
    if cutoff != INF and p**digits * max(d0 if d0 != INF else 1, 1) < cutoff:
        raise ExponentPrecisionTooLow(
            f"p^{digits} digits cannot pin depth {cutoff}")
    return _digit_walk(g, c % p**digits, digits).copy_truncated(cutoff)


def reference_invert_unit(x):
    """Inverse of c*Y^m*(1+eps) by the geometric series of -eps; the series
    of an exact eps != 0 has no last term, so that raises PrecisionExhausted."""
    if not x.terms:
        raise NotAUnit("zero has no inverse")
    d = fdeg(x)
    lead = [(k, c) for k, c in x.terms.items() if sum(k) == d]
    if len(lead) != 1:
        raise NotAUnit("leading form is not a single monomial")
    (k0, c0), = lead
    fld = x.field
    lead_inv = AElement.monomial(fld, x.f, tuple(-a for a in k0), fld.inv(c0))
    w = lead_inv * x - 1
    if w.cutoff == INF and not w.is_zero():
        raise PrecisionExhausted("geometric series of an exact nonzero series never ends")
    geom = AElement.const(fld, x.f, 1, cutoff=w.cutoff)
    term = AElement.const(fld, x.f, 1, cutoff=w.cutoff)
    while True:
        term = (-w) * term
        term = term.copy_truncated(w.cutoff)
        if term.is_zero():
            break
        geom = geom + term
    return (lead_inv * geom).copy_truncated(
        x.cutoff if x.cutoff == INF else x.cutoff - 2 * d)


def _binom_mod(n, m, p):
    # C(n, m) mod p for any integer n: the falling factorial is exactly
    # divisible by m!
    num = 1
    for i in range(m):
        num *= n - i
    return (num // math.factorial(m)) % p


def reference_binomial_series(v, n, bound):
    """(1 + v)^n below min(bound, v.cutoff) with exact binomials."""
    fld = v.field
    out = AElement.const(fld, v.f, 1, cutoff=min(bound, v.cutoff))
    vt = AElement.const(fld, v.f, 1, cutoff=INF)
    t = 0
    while True:
        t += 1
        vt = (vt * v).copy_truncated(min(bound, v.cutoff))
        if vt.is_zero():
            break
        c = fld.from_int(_binom_mod(n, t, fld.p))
        if c:
            out = out + vt.scale(c)
    return out


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
    want = outcome(reference_product, fld, f, coords, depth, digits)
    got = outcome(lambda: AElement(fld, f, depth, _binomial_product(fld, coords, depth, digits)))
    assert got == want


@settings(max_examples=30)
@given(data=st.data())
def test_n_series_matches_product_form(data):
    ctx = chart_context(*data.draw(st.sampled_from(CONTEXTS)))
    a = data.draw(st.integers(1, ctx.q - 1), label="a")
    depth = data.draw(st.integers(0, ctx.tdepth), label="depth")
    assert ctx.n_series(ctx.ring.teichmuller(a), depth) == reference_n_series(ctx, a, depth)


@pytest.mark.parametrize("p,f,cutoff", CONTEXTS)
def test_convb_matches_per_slot_products(p, f, cutoff):
    # the unit-action blocks multiply D^gamma(Y_j) by (1+T)^gamma; the earlier
    # form built that factor one slot at a time from math.comb
    ctx = chart_context(p, f, cutoff)
    fld = ctx.field
    for gamma in _graded_exponents(f, ctx.alpha_max):
        if not any(gamma):
            continue
        s = ctx.y_series[0].hasse_derivative(gamma)
        for l, g in enumerate(gamma):
            if g:
                s = s * AElement(fld, f, INF, {
                    tuple(m if i == l else 0 for i in range(f)): fld.from_int(math.comb(g, m))
                    for m in range(g + 1)})
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
    short = _binomial_product(fld, coords, depth, 4)
    long = _binomial_product(fld, coords, depth + extra, 4)
    assert short == {k: c for k, c in long.items() if sum(k) < depth}


# ---------------------------------------------------------------------------
# powers of a series


@settings(max_examples=60)
@given(data=st.data())
def test_zp_power_matches_digit_walk(data):
    # a p-adic power is the binomial series at the class of c; the draws
    # where p^digits cannot pin g's cutoff have no exact power to compare
    g, _ = data.draw(principal_series())
    p = g.field.p
    c = data.draw(st.integers(-p**5, p**5), label="c")
    digits = data.draw(st.integers(0, 4), label="digits")
    want = outcome(reference_zp_power, g, c, digits)
    if want is not ExponentPrecisionTooLow:
        assert outcome(_binomial_series, g - 1, c % p**digits, g.cutoff) == want


@settings(max_examples=100)
@given(x=laurent_monomials())
@example(x=AElement.monomial(Fq(13, 2), 2, (-2, 7), 4, 9))
@example(x=AElement.monomial(Fq(13, 2), 2, (-2, 7), 4, 5))
@example(x=AElement.monomial(Fq(13, 2), 2, (-2, 7), 4, -7))
def test_negative_power_inverts_monomials(x):
    # c*Y^k known below K inverts to c^-1*Y^-k known below K - 2*deg k; at
    # K <= deg k nothing is known and both raise NotAUnit
    want = outcome(reference_invert_unit, x)
    assert outcome(lambda: x.pow_below(-1, INF)) == want


@settings(max_examples=60)
@given(data=st.data())
def test_binomial_series_matches_exact_binomials(data):
    g, D = data.draw(principal_series())
    p = g.field.p
    v = g - 1
    n = data.draw(st.integers(-p**6, p**6), label="n")
    bound = data.draw(st.integers(0, D + 2), label="bound")
    assert _binomial_series(v, n, bound) == reference_binomial_series(v, n, bound)


@settings(max_examples=40)
@given(data=st.data())
def test_powers_are_honest_below_their_cutoff(data):
    g, D = data.draw(principal_series(extra=4))
    p = g.field.p
    c = data.draw(st.integers(-p**5, p**5), label="c")
    short = g.copy_truncated(D)
    for fn in (lambda h: _binomial_series(h - 1, c % p**4, INF),
               lambda h: _binomial_series(h - 1, c, INF),
               lambda h: _binomial_series(h - 1, -1, INF)):
        near, far = fn(short), fn(g)
        assert near.cutoff == D
        assert eq_below(near, far, D)


# ---------------------------------------------------------------------------
# unit ratios and cocycle factors


@pytest.mark.parametrize("p,f,cutoff,r", [
    (11, 1, 40, (4,)), (13, 2, 30, (5, 6)), (17, 3, 34, (7, 8, 7))])
def test_unit_ratio_and_cocycle_factor_match_inverse_and_digit_walk(p, f, cutoff, r):
    # the ratio was the inverse of 1 + v_j, w its p-adic power by the digit
    # walk and the factor w times the inverse of phi(w); the numerators are
    # the slot weights hj(r + 1) of the slot corrections
    ctx = chart_context(p, f, cutoff)
    params = RhoParams.make(p, f, r)
    weights = [hj(params, tuple(x + 1 for x in r), j) for j in range(f)]
    pN = p**ctx.N
    for u in principal_units(ctx, 3, seed=7):
        dmat = ctx.unit_data[u].dmat
        for j in range(f):
            v = ctx.u1_pieces[dmat][j]
            assert v.terms
            ratio = reference_invert_unit(v + 1)
            assert unit_ratio(ctx, u, j) == ratio
            for numerator in weights:
                c = numerator * pow(1 - ctx.q, -1, pN) % pN
                w = reference_zp_power(ratio, c, ctx.N)
                want = w.mul_below(reference_invert_unit(frobenius(w)), w.cutoff)
                got = cocycle_factor(ctx, u, j, numerator)
                assert (got.terms, got.cutoff) == (want.terms, want.cutoff)


# ---------------------------------------------------------------------------
# exact inputs


def test_invert_unit_of_exact_non_monomial_raises_at_once():
    x = AElement(Fq(11, 1), 1, INF, {(0,): 1, (1,): 1})
    start = time.perf_counter()
    with pytest.raises(NotAUnit):
        x.pow_below(-1, INF)
    with pytest.raises(PrecisionExhausted):
        reference_invert_unit(x)
    assert time.perf_counter() - start < 1
    # an exact monomial still inverts exactly
    m = AElement(Fq(11, 1), 1, INF, {(2,): 3})
    assert m.pow_below(-1, INF).terms == {(-2,): Fq(11, 1).inv(3)}
    assert m.pow_below(-1, INF).cutoff == INF


def test_binomial_series_of_exact_series_raises():
    fld = Fq(13, 2)
    v = AElement(fld, 2, INF, {(1, 0): 1})
    with pytest.raises(PrecisionExhausted):
        _binomial_series(v, 3, INF)
    one = _binomial_series(AElement(fld, 2, INF, {}), 3, INF)
    assert one.terms == {(0, 0): 1} and one.cutoff == INF
    assert _binomial_series(v, 3, 5).terms == {(0, 0): 1, (1, 0): 3, (2, 0): 3, (3, 0): 1}


def test_binomial_series_of_non_principal_series_raises():
    # 1 + v is a principal unit only when every term of v has degree >= 1
    fld = Fq(13, 2)
    for terms in ({(0, 0): 3}, {(1, -1): 1}, {(-1, 0): 2, (2, 0): 1}, {(0, 0): 1, (3, 1): 1}):
        for cutoff in (8, INF):
            with pytest.raises(NotAUnit):
                _binomial_series(AElement(fld, 2, cutoff, terms), 3, INF)


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
    p = draw(st.sampled_from([2, 3, 5, 7, 11, 13]), label="p")
    c = draw(st.integers(-p**3, p**3), label="c")
    return p, c, draw(st.integers(1, p**2 + 3), label="length")


@given(binomial_rows())
def test_binomial_row_matches_the_exact_binomial(case):
    # c(c-1)...(c-m+1)/m! in exact ints, for negative c, c >= p^e and
    # length > p, which _binomial_row reads through c mod _lucas_modulus
    p, c, length = case
    want, b = [], 1
    for m in range(length):
        want.append(b % p)
        b = b * (c - m) // (m + 1)  # C(c, m+1), exact
    assert _binomial_row(p, c, length) == tuple(want)


def test_lucas_row_calls_math_comb_on_digits_only(monkeypatch):
    p, length = 271, 342
    comb, calls = math.comb, []

    def digit_comb(n, k):
        assert 0 <= n < p and 0 <= k < p, (n, k)
        calls.append((n, k))
        return comb(n, k)

    monkeypatch.setattr(iwasawa.math, "comb", digit_comb)
    r = p**2 - 2  # base-p digits 269, 270
    row = _lucas_row(p, r, length)
    assert calls and len(row) == length
    assert row[:3] == (1, r % p, r * (r - 1) // 2 % p)
    assert row[p] == (r // p) % p
