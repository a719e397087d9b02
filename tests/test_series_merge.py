"""AElement sums, products and powers against the definition-level oracle.

``oracle`` multiplies series by summing the Z[x] products of the digit
vectors of every pair of terms per exponent and reducing each sum mod the
minimal polynomial once; it shares no addition, multiplication or packing
with either product path of the package.  Every sum, difference, product,
bounded product (`mul_below`) and bounded power (`pow_below`) must give
the oracle's terms below the cutoff that the method's documented rule
states, on nonnegative and Laurent supports, the zero element and exact
(INF) cutoffs; so must products with a one-term operand on either side,
which take the scale-and-shift path of `_mul_terms`.

Products of two or more terms each take the pair loop or, when the
operands hold at least 4 term pairs per row pair (a row being the terms
that share every exponent but the last), the dense path: the row product
`_row_mul_terms`, one big-int multiply per row pair.  Both must equal the
oracle, also when rows of one output prefix start at different last
exponents.  A spy on the row product pins which products take it:
box-shaped operands at every f, the worst-case slot loads, all 20 products
of the p=17 f=3 additivity row and the p=13 f=2 Frobenius row do, the cold
p=17 f=3 phigamma job (about one term per row) and the anti-diagonal
worst-case slot loads (one term per row) never do; in that job and the
p=13 f=2 verify, every multi-term product takes it exactly by the rule.  A
lane one size too narrow must change the worst-case row product, and a
Zech table with one wrong entry the worst-case pair loop, which adds with
the field's Zech logarithms.

Every AElement that the iwasawa and phigamma jobs build keeps its terms
below its cutoff, the invariant that lets sums and products skip degree
filters and least degrees.
"""

import collections
import itertools
import math
import sys
import threading
import time
from unittest import mock

import pytest
from hypothesis import example, given
from hypothesis import strategies as st

import oracle
from conftest import chart
from modpcheck import arith, iwasawa
from modpcheck.arith import Fq, Memo
from modpcheck.harness import RunConfig, run_suite
from modpcheck.iwasawa import (
    AElement,
    _mul_terms,
    check_exponent_additivity,
    check_frobenius_generators,
    check_torus_eigenvector,
    eq_below,
    fdeg,
)
from test_chart_packed import _undersized

INF = math.inf


def total(x, y, c=1):
    """x + c*y from the oracle, known below both cutoffs: (terms, cutoff)."""
    cut = min(x.cutoff, y.cutoff)
    return oracle.series_sum(x.field.p, x.f, oracle.truncate(x.terms, cut),
                             oracle.truncate(y.terms, cut), c), cut


def low(x):
    """The least degree x can have: that of its terms, or K for a zero known
    below K, which is O(T^K); INF for the exact zero."""
    return min(fdeg(x), x.cutoff)


def product(x, y, bound=INF):
    """x*y below `bound` from the oracle, at mul_below's rule: x known below
    Kx times y known below Ky is known below min(Kx + low(y), Ky + low(x))."""
    cut = min(bound, x.cutoff + low(y), y.cutoff + low(x))
    return oracle.series_product(x.field.p, x.field.k, x.terms, y.terms, cut), cut


def power(x, n, bound=INF):
    """x^n below `bound` from the oracle, at pow_below's rule: x known below
    K has x^n, n >= 1, known below K + (n-1)*low(x), and x^0 = 1 exact."""
    cut = min(bound, x.cutoff + (n - 1) * low(x) if n > 1 else x.cutoff if n else INF)
    return oracle.series_power(x.field.p, x.f, x.terms, n, cut), cut


def same(got, want):
    assert (got.terms, got.cutoff) == want


FIELDS = [(11, 1), (13, 2), (5, 3)]


@st.composite
def series_pairs(draw):
    """Two elements over one field with nonnegative supports below their
    cutoffs, as (field, f, [(cutoff, terms), (cutoff, terms)])."""
    p, f = draw(st.sampled_from(FIELDS))
    fld = Fq(p, f)
    out = []
    for _ in range(2):
        cutoff = draw(st.one_of(st.integers(1, 12), st.just(INF)))
        top = 8 if cutoff == INF else cutoff - 1
        keys = st.lists(st.integers(0, top), min_size=f, max_size=f).map(tuple)
        terms = draw(st.dictionaries(keys, st.integers(1, fld.q - 1), max_size=6))
        out.append((cutoff, {k: c for k, c in terms.items() if sum(k) <= top}))
    return fld, f, out


@given(series_pairs())
@example((Fq(11, 1), 1, [(INF, {}), (INF, {})]))
@example((Fq(13, 2), 2, [(INF, {(1, 0): 3}), (4, {})]))
@example((Fq(5, 3), 3, [(3, {(0, 1, 1): 2}), (INF, {(0, 1, 1): 2, (4, 0, 0): 1})]))
def test_sum_difference_product_match_reference(data):
    fld, f, ((kx, tx), (ky, ty)) = data
    x, y = AElement(fld, f, kx, tx), AElement(fld, f, ky, ty)
    minus = fld.p - 1
    same(x + y, total(x, y))
    same(x - y, total(x, y, minus))
    same(y - x, total(y, x, minus))
    same(x - x, total(x, x, minus))
    same(x * y, product(x, y))
    # the checks compare x and y through d = x - y alone: d is known below
    # min(Kx, Ky), holds no term at or above that, and so is empty exactly
    # when x and y agree below it
    for a, b in ((x, y), (y, x), (x, x)):
        d = a - b
        assert d.cutoff == min(a.cutoff, b.cutoff)
        assert all(sum(k) < d.cutoff for k in d.terms)
        assert eq_below(a, b, d.cutoff) == d.is_zero()


@given(series_pairs(), st.integers(0, 5))
def test_power_matches_reference(data, n):
    fld, f, ((kx, tx), _) = data
    x = AElement(fld, f, kx, tx)
    same(x.pow_below(n, INF), power(x, n))


@given(series_pairs(), st.integers(1, 5), st.integers(0, 3))
def test_monomial_power_matches_reference(data, n, slot):
    # the monomial fast path of AElement.pow_below against repeated products
    fld, f, ((kx, tx), _) = data
    k = tuple(int(i == slot % f) * (1 + slot) for i in range(f))
    cutoff = kx if kx == INF or kx > sum(k) else sum(k) + 1
    x = AElement(fld, f, cutoff, {k: fld.q - 1})
    same(x.pow_below(n, INF), power(x, n))


@given(series_pairs(), st.one_of(st.integers(0, 14), st.just(INF)))
def test_copy_truncated_matches_reference(data, cut):
    fld, f, ((kx, tx), _) = data
    x = AElement(fld, f, kx, tx)
    same(x.copy_truncated(cut), (oracle.truncate(tx, cut), min(kx, cut)))


@st.composite
def cutoff_pairs(draw):
    """Two elements over one field with Laurent supports below their
    cutoffs, each cutoff INF, a shared finite value or one above it, so
    that a sum keeps or drops each operand's cutoff and a product meets
    exact and inexact operands: (field, f, [(cutoff, terms)] * 2, bound)."""
    p, f = draw(st.sampled_from(FIELDS))
    fld = Fq(p, f)
    keys = st.lists(st.integers(-3, 5), min_size=f, max_size=f).map(tuple)
    coeffs = st.one_of(st.just(fld.q - 1), st.integers(1, fld.q - 1))
    base = draw(st.integers(-4, 10))
    out = []
    for _ in range(2):
        cutoff = draw(st.sampled_from([INF, base, base + draw(st.integers(1, 4))]))
        terms = draw(st.dictionaries(keys, coeffs, max_size=8))
        out.append((cutoff, {k: c for k, c in terms.items() if sum(k) < cutoff}))
    bound = draw(st.one_of(st.just(INF), st.integers(base - 4, base + 12)))
    return fld, f, out, bound


@given(cutoff_pairs())
def test_sums_and_products_at_exact_and_finite_cutoffs_match_reference(data):
    fld, f, ((kx, tx), (ky, ty)), bound = data
    x, y = AElement(fld, f, kx, tx), AElement(fld, f, ky, ty)
    for a, b in ((x, y), (y, x)):
        same(a + b, total(a, b))
        same(a - b, total(a, b, fld.p - 1))
        same(a * b, product(a, b))
        same(a.mul_below(b, bound), product(a, b, bound))
    same(x + x, total(x, x))
    same(x * x, product(x, x))


@pytest.mark.parametrize("p,f,r", [(11, 1, (4,)), (13, 2, (5, 6)), (17, 3, (7, 8, 7))])
def test_preset_elements_keep_their_terms_below_their_cutoffs(p, f, r, monkeypatch):
    # the invariant the series core's fast paths rest on, for every
    # AElement that the iwasawa and phigamma jobs build on a cold chart:
    # each term lies below the cutoff and has a nonzero coefficient
    right = AElement.__init__
    built = collections.Counter()

    def checked(self, field, f, cutoff, terms=None):
        right(self, field, f, cutoff, terms)
        assert all(sum(k) < cutoff and 0 < c < field.q for k, c in self.terms.items())
        built[cutoff == INF] += 1

    monkeypatch.setattr(AElement, "__init__", checked)
    rep = run_suite(RunConfig(p=p, f=f, r=r, suites=("iwasawa", "phigamma")))
    assert rep.passed
    assert built[True] and built[False]


def test_torus_eigenvector_checked_counts():
    # one comparison per (unit a, slot j): 10 at q = 11, 168 * 2 at q = 169
    for (p, f), count in (((11, 1), 10), ((13, 2), 336)):
        res = check_torus_eigenvector(chart(p, f))
        assert res.passed
        assert res.checked == count


@st.composite
def dense_products(draw):
    """Two term dicts with many colliding exponents over F_4913 (field
    addition by the digit loop) or a prime field, plus a product bound;
    coefficients favour q-1, whose digits all equal p-1 and so fill the
    packed slots to their worst case."""
    p, f = draw(st.sampled_from([(17, 3), (7, 1)]))
    fld = Fq(p, f)
    top = 3 if f == 3 else 30
    keys = st.lists(st.integers(0, top), min_size=f, max_size=f).map(tuple)
    coeffs = st.one_of(st.just(fld.q - 1), st.integers(1, fld.q - 1))
    xt, yt = (draw(st.dictionaries(keys, coeffs, max_size=40)) for _ in range(2))
    bound = draw(st.one_of(st.integers(0, 3 * top), st.just(INF)))
    return fld, xt, yt, bound


@given(dense_products())
def test_product_matches_field_op_reference(data):
    fld, xt, yt, bound = data
    assert _mul_terms(fld, xt, yt, bound) == oracle.series_product(fld.p, fld.k, xt, yt, bound)


@st.composite
def box_products(draw):
    """Two term dicts that nearly fill a box of exponents, one per operand,
    at f = 1, 2 or 3, with corners down to -6 (Laurent supports), plus a
    bound that may fall below the operands' own top degrees or be INF:
    (field, f, xt, yt, bound).  Most coefficients are q-1, so the packed
    slots of the product are close to full."""
    p, f = draw(st.sampled_from(FIELDS))
    fld = Fq(p, f)
    coeffs = st.one_of(st.just(fld.q - 1), st.just(fld.q - 1), st.integers(0, fld.q - 1))
    top = {1: 30, 2: 8, 3: 5}[f]
    out = []
    for _ in range(2):
        side = draw(st.integers(2, top))
        corner = draw(st.lists(st.integers(-6, 2), min_size=f, max_size=f))
        boxed = itertools.product(*(range(c, c + side) for c in corner))
        cs = draw(st.lists(coeffs, min_size=side**f, max_size=side**f))
        out.append({k: c for k, c in zip(boxed, cs) if c})
    low = sum(min(k[l] for k in t) for t in out for l in range(f)) if all(out) else 0
    bound = draw(st.one_of(st.just(INF), st.integers(low - 2, low + 2 * top)))
    return fld, f, out[0], out[1], bound


@given(box_products())
def test_box_product_matches_field_op_reference(data):
    fld, f, xt, yt, bound = data
    assert _mul_terms(fld, xt, yt, bound) == oracle.series_product(fld.p, fld.k, xt, yt, bound)
    assert _mul_terms(fld, yt, xt, bound) == oracle.series_product(fld.p, fld.k, yt, xt, bound)


def spy_dense(monkeypatch):
    """Count the calls of the row product by f, from now on."""
    calls = collections.Counter()
    real = iwasawa._row_mul_terms

    def spy(k, pack, xt, *rest):
        calls[len(next(iter(xt)))] += 1
        return real(k, pack, xt, *rest)

    monkeypatch.setattr(iwasawa, "_row_mul_terms", spy)
    return calls


def test_box_products_take_the_dense_path_at_every_f(monkeypatch):
    dense = spy_dense(monkeypatch)
    test_box_product_matches_field_op_reference()
    assert set(dense) == {1, 2, 3}


def staggered_rows(fld, f, lows):
    """One row per prefix (i, 0, ..., 0), i < len(lows), holding the last
    exponents lows[i] .. lows[i] + 3 with nonzero coefficients."""
    pad = (0,) * (f - 2)
    return {(i, *pad, e): (7 * i + 3 * e) % (fld.q - 1) + 1
            for i, low in enumerate(lows) for e in range(low, low + 4)}


@given(st.sampled_from([2, 3]),
       st.lists(st.integers(-10, 6), min_size=2, max_size=4),
       st.lists(st.integers(-10, 6), min_size=2, max_size=4),
       st.one_of(st.integers(-12, 16), st.just(INF)))
@example(2, [0, 0], [-10, 5], 8)
@example(2, [0, 0], [-10, 5], INF)
@example(3, [0, 0], [-10, 5], 8)
@example(3, [0, 0], [-10, 5], INF)
def test_rows_of_one_prefix_at_different_starts_match_reference(f, xlows, ylows, bound):
    # output prefix (1, 0, ...) sums row pairs (0, 1) and (1, 0).  In the
    # examples, x*y meets (0, 1) first, starting at 5, then (1, 0) at -10,
    # so the running sum is shifted up; y*x meets (1, 0) first and shifts
    # the later product instead
    fld = Fq(*{2: (13, 2), 3: (5, 3)}[f])
    xt = staggered_rows(fld, f, xlows)
    yt = staggered_rows(fld, f, ylows)
    for a, b in ((xt, yt), (yt, xt)):
        with mock.patch.object(iwasawa, "_row_mul_terms", wraps=iwasawa._row_mul_terms) as rows:
            assert _mul_terms(fld, a, b, bound) == oracle.series_product(fld.p, fld.k, a, b, bound)
        assert rows.called


def worst_case_box(fld, f, side):
    return {k: fld.q - 1 for k in itertools.product(range(side), repeat=f)}


@pytest.mark.parametrize("p,f,side", [(17, 3, 5), (7, 1, 200), (13, 2, 16)])
def test_product_at_worst_case_slot_load(p, f, side, monkeypatch):
    # a full box of exponents with every coefficient q-1: the key
    # (side-1, ..., side-1) receives side^f = min(len) products, each
    # filling the middle slot to k*(p-1)^2.  Each operand has side terms
    # per row, so side^2 >= 4 term pairs per row pair: the dense path
    dense = spy_dense(monkeypatch)
    fld = Fq(p, f)
    xt = worst_case_box(fld, f, side)
    assert _mul_terms(fld, xt, xt, INF) == oracle.series_product(fld.p, fld.k, xt, xt, INF)
    assert dense == {f: 1}


def test_undersized_lane_breaks_the_dense_product(monkeypatch):
    # the p=13 f=2 worst case puts 256 * 288, between 2^16 and 2^17, in a
    # slot, so it needs the 32-bit lane; on the 16-bit lane below it the
    # dense product carries between slots and must differ from the oracle
    fld = Fq(13, 2)
    xt = worst_case_box(fld, 2, 16)
    want = oracle.series_product(fld.p, fld.k, xt, xt, INF)
    assert iwasawa.packing(fld, 2 * 12**2, len(xt)).bits == 32
    dense = spy_dense(monkeypatch)
    monkeypatch.setattr(iwasawa, "packing", _undersized(iwasawa.packing))
    assert _mul_terms(fld, xt, xt, INF) != want
    assert dense[2] == 1


def anti_diagonal(fld, f, n):
    """n terms (i, n-1-i, 0, ...) with coefficient q-1: one term per row, so
    the product of two of them takes the pair loop, and x*x gives the key
    (n-1, n-1, 0, ...) n = min(len) equal products, each of which would
    fill the middle slot to k*(p-1)^2 if packed."""
    pad = (0,) * (f - 2)
    return {(i, n - 1 - i, *pad): fld.q - 1 for i in range(n)}


@pytest.mark.parametrize("p,f,n", [(13, 2, 256), (17, 3, 100)])
def test_pair_loop_at_worst_case_slot_load(p, f, n, monkeypatch):
    dense = spy_dense(monkeypatch)
    fld = Fq(p, f)
    xt = anti_diagonal(fld, f, n)
    assert _mul_terms(fld, xt, xt, INF) == oracle.series_product(fld.p, fld.k, xt, xt, INF)
    assert not dense


def test_undersized_lane_breaks_the_pair_loop(monkeypatch):
    # the pair loop packs nothing: with every lane one size too narrow
    # (a row product of these operands would need the 32-bit one) it still
    # gives the oracle's terms.  It sums with the field's Zech logarithms,
    # so its mutant is one wrong entry of Z: Z[0] = LOG[1 + 1], read by
    # every sum of two equal elements, as the 256 equal products of the key
    # (255, 255) are; on a fresh field with Z[0] = LOG[3] the product must
    # differ from the oracle
    fld = Fq(13, 2)
    xt = anti_diagonal(fld, 2, 256)
    want = oracle.series_product(fld.p, fld.k, xt, xt, INF)
    assert iwasawa.packing(fld, 2 * 12**2, len(xt)).bits == 32
    bad = object.__new__(Fq)._init(13, 2)
    assert bad.add(1, 1) == 2 and bad.zech[()][0] == bad.LOG[2]
    bad.zech[()][0] = bad.LOG[3]
    dense = spy_dense(monkeypatch)
    monkeypatch.setattr(iwasawa, "packing", _undersized(iwasawa.packing))
    assert _mul_terms(fld, xt, xt, INF) == want
    assert _mul_terms(bad, xt, xt, INF) != want
    assert not dense


def test_additivity_products_take_the_dense_path_at_p17_f3(monkeypatch):
    # the operands of the 20 products n(g)*n(h) hold 2 to 12 terms per row
    # on average, the f=3 chart products about one
    ctx = chart(17, 3)
    dense = spy_dense(monkeypatch)
    assert check_exponent_additivity(ctx).passed
    assert dense == {3: 20}


def test_frobenius_row_takes_the_dense_path_at_p13_f2(monkeypatch):
    ctx = chart(13, 2)
    dense = spy_dense(monkeypatch)
    assert check_frobenius_generators(ctx).passed
    assert dense[2] >= 1


def test_cold_f3_phigamma_job_never_takes_the_dense_path(monkeypatch):
    # the f=3 chart products hold about one term per row: the pair loop
    # does them all
    dense = spy_dense(monkeypatch)
    rep = run_suite(RunConfig(p=17, f=3, r=(7, 8, 7), jrho=(0,), suites=("phigamma",)))
    assert all(row["status"] == "pass" for row in rep.suites)
    assert not dense


def test_multi_term_products_take_the_row_product_by_one_rule(monkeypatch):
    # every product of two multi-term operands in the cold p=17 f=3
    # phigamma job and the p=13 f=2 verify takes the row product exactly
    # when its term pairs are at least 4 times its row pairs
    real_mul, real_row = iwasawa._mul_terms, iwasawa._row_mul_terms
    took = []
    seen = collections.Counter()

    def row_spy(*args):
        took.append(True)
        return real_row(*args)

    def mul_spy(field, xt, yt, bound):
        took.clear()
        out = real_mul(field, xt, yt, bound)
        if len(xt) > 1 and len(yt) > 1:
            rows = len({k[:-1] for k in xt}) * len({k[:-1] for k in yt})
            seen[len(xt) * len(yt) >= 4 * rows, bool(took)] += 1
        return out

    monkeypatch.setattr(iwasawa, "_row_mul_terms", row_spy)
    monkeypatch.setattr(iwasawa, "_mul_terms", mul_spy)
    rep = run_suite(RunConfig(p=17, f=3, r=(7, 8, 7), jrho=(0,), suites=("phigamma",)))
    assert rep.passed and seen[False, False] and not seen[True, True]
    assert run_suite(RunConfig(p=13, f=2, r=(5, 6))).passed
    assert seen[True, True]
    assert not seen[True, False] and not seen[False, True]


def test_concurrent_first_products_build_each_packing_once(monkeypatch):
    # four threads start their first products with the packing cache empty:
    # every width must be built once and every thread must get the terms of
    # the oracle.  The operands hold rows of 4 terms, 1 or 3 of
    # them, so every pair takes the row product: on the 8-bit lane while
    # one operand has 4 terms (4 * 3 * 4^2 < 2^8), on the 16-bit one at 12
    built = collections.Counter()

    class CountingPacking(arith._Packing):
        def __init__(self, field, bits):
            built[bits] += 1
            time.sleep(0.01)  # hold the build open while the others arrive
            super().__init__(field, bits)

    fld = Fq(5, 3)
    xs = [AElement(fld, 3, INF, {(i, 0, e): 1 + (7 * i + 3 * e) % 124
                                 for i in range(n // 4) for e in range(4)})
          for n in (4, 12)]
    pairs = [(x, y) for x in xs for y in xs]
    want = [oracle.series_product(fld.p, fld.k, x.terms, y.terms, INF) for x, y in pairs]
    dense = spy_dense(monkeypatch)
    assert [(x * y).terms for x, y in pairs] == want
    assert dense == {3: len(pairs)}
    monkeypatch.setattr(arith, "_PACKINGS", Memo(CountingPacking))
    start = threading.Barrier(4)
    got = {}
    errors = []

    def work(t):
        try:
            start.wait(timeout=30)
            got[t] = [(x * y).terms for x, y in pairs]
        except Exception as exc:  # reported by the assertion below
            errors.append(exc)

    old = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=work, args=(t,)) for t in range(4)]
        for th in threads:
            th.start()
        for th in threads:
            th.join(timeout=60)
    finally:
        sys.setswitchinterval(old)
    assert not any(th.is_alive() for th in threads)
    assert not errors
    assert all(got[t] == want for t in range(4))
    assert len(built) >= 2
    assert set(built.values()) == {1}
    assert set(built) == {8, 16}


@st.composite
def one_term_products(draw):
    """A one-term element and a general one over one field, with Laurent
    exponents and finite or infinite cutoffs, as (field, f, one, other)
    where each is (cutoff, terms)."""
    p, f = draw(st.sampled_from(FIELDS))
    fld = Fq(p, f)
    keys = st.lists(st.integers(-4, 6), min_size=f, max_size=f).map(tuple)
    coeffs = st.one_of(st.just(fld.q - 1), st.integers(1, fld.q - 1))
    out = []
    for size in (1, 8):
        cutoff = draw(st.one_of(st.integers(-6, 14), st.just(INF)))
        terms = draw(st.dictionaries(keys, coeffs, min_size=1, max_size=size))
        out.append((cutoff, {k: c for k, c in terms.items() if sum(k) < cutoff}))
    return fld, f, out[0], out[1]


@given(one_term_products())
def test_one_term_product_matches_reference(data):
    # the scale-and-shift path on either side, against the generic product
    fld, f, (k1, t1), (k2, t2) = data
    x, y = AElement(fld, f, k1, t1), AElement(fld, f, k2, t2)
    same(x * y, product(x, y))
    same(y * x, product(y, x))


@given(one_term_products(), st.one_of(st.integers(-10, 16), st.just(INF)))
def test_one_term_mul_terms_matches_reference_at_any_bound(data, bound):
    fld, f, (_, t1), (_, t2) = data
    for xt, yt in ((t1, t2), (t2, t1)):
        assert _mul_terms(fld, xt, yt, bound) == oracle.series_product(fld.p, fld.k, xt, yt, bound)


def test_one_term_product_drops_terms_beyond_the_bound():
    # T_0^2 known below 5 times 1 + T_0 + T_0^3 + T_1^4: the product is known
    # below 5, so only the shifts of 1 and T_0 survive
    fld = Fq(13, 2)
    x = AElement(fld, 2, 5, {(2, 0): 7})
    y = AElement(fld, 2, INF, {(0, 0): 1, (1, 0): 3, (3, 0): 5, (0, 4): 2})
    for got in (x * y, y * x):
        same(got, ({(2, 0): 7, (3, 0): 7 * 3 % 13}, 5))


@st.composite
def laurent_elements(draw, count, max_terms):
    """`count` elements over one field with Laurent supports (least degree
    often <= 0), possibly zero, with finite or infinite cutoffs, plus a bound
    that falls above or below their cutoffs: (field, f, elements, bound)."""
    p, f = draw(st.sampled_from(FIELDS))
    fld = Fq(p, f)
    keys = st.lists(st.integers(-3, 4), min_size=f, max_size=f).map(tuple)
    coeffs = st.one_of(st.just(fld.q - 1), st.integers(1, fld.q - 1))
    out = []
    for _ in range(count):
        cutoff = draw(st.one_of(st.integers(-6, 12), st.just(INF)))
        terms = draw(st.dictionaries(keys, coeffs, max_size=max_terms))
        out.append((cutoff, {k: c for k, c in terms.items() if sum(k) < cutoff}))
    bound = draw(st.one_of(st.integers(-10, 20), st.just(INF)))
    return fld, f, out, bound


# a zero known below 5 is O(T^5): times itself it is known below 10, times
# 3T^2 + O(T^7) below min(5 + 2, 7 + 5) = 7, and its square below 10
@given(laurent_elements(2, 6))
@example(data=(Fq(11, 1), 1, ((5, {}), (5, {})), INF))
@example(data=(Fq(11, 1), 1, ((5, {}), (7, {(2,): 3})), INF))
def test_bounded_product_matches_truncated_reference(data):
    fld, f, ((kx, tx), (ky, ty)), bound = data
    x, y = AElement(fld, f, kx, tx), AElement(fld, f, ky, ty)
    same(x.mul_below(y, bound), product(x, y, bound))
    same(y.mul_below(x, bound), product(y, x, bound))
    same(x.mul_below(y, INF), product(x, y))


@given(laurent_elements(1, 4), st.sampled_from(["0", "1", "2", "p"]))
@example(data=(Fq(11, 1), 1, ((5, {}),), INF), which="2")
def test_bounded_power_matches_truncated_reference(data, which):
    fld, f, ((kx, tx),), bound = data
    n = fld.p if which == "p" else int(which)
    x = AElement(fld, f, kx, tx)
    same(x.pow_below(n, INF), power(x, n))
    same(x.pow_below(n, bound), power(x, n, bound))


@given(series_pairs(), st.one_of(st.integers(0, 40), st.just(INF)))
def test_bounded_power_on_additive_supports_matches_former_power(data, bound):
    # nonnegative supports at n = p
    fld, f, ((kx, tx), _) = data
    x = AElement(fld, f, kx, tx)
    same(x.pow_below(fld.p, bound), power(x, fld.p, bound))


def test_bounded_power_reads_the_base_below_its_relative_bound():
    # (T_0 + T_0^2 + T_1^5)^13 below 15 needs the base below 15 - 12 = 3; in
    # characteristic 13 it is T_0^13 + T_0^26 + T_1^65
    fld = Fq(13, 2)
    x = AElement(fld, 2, INF, {(1, 0): 1, (2, 0): 1, (0, 5): 1})
    got = x.pow_below(13, 15)
    same(got, power(x, 13, 15))
    assert got == x.copy_truncated(3).pow_below(13, 15)
    assert got.terms == {(13, 0): 1}
    assert got.cutoff == 15
