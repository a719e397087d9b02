"""AElement on additive-chart supports against the former additive-chart class.

`ReferenceSeries` keeps the arithmetic of the separate additive-chart class
that AElement replaced: the truncating sum and difference, the product with
its knowledge bound, the square-and-multiply power started from a constant
known to the operand's cutoff, and truncation.  Its product is
`reference_mul_terms`, the dict product with one field call per coefficient
operation that the packed product replaced.  On nonnegative supports with
finite or infinite cutoffs, AElement must give the same terms and the same
cutoff.
"""

import collections
import itertools
import math
import sys
import threading
import time

import pytest
from hypothesis import given
from hypothesis import strategies as st

from modpcheck import iwasawa
from modpcheck.arith import Fq
from modpcheck.errors import HypothesisViolation
from modpcheck.iwasawa import (
    AElement,
    _ldeg,
    _mul_bound,
    _mul_terms,
    _sorted_by_degree,
    chart_context,
    check_torus_eigenvector,
)

INF = math.inf


def reference_mul_terms(field, xt, yt, bound):
    """Dict product with total-degree early exit at `bound` (exclusive)."""
    if not xt or not yt:
        return {}
    out = {}
    fmul = field.mul
    fadd = field.add
    ybuk = [(d, k, yt[k]) for d, k in _sorted_by_degree(yt)]
    for dx, kx in _sorted_by_degree(xt):
        cx = xt[kx]
        rem = bound - dx
        for dy, ky, cy in ybuk:
            if dy >= rem:
                break
            k = tuple(a + b for a, b in zip(kx, ky))
            c = fmul(cx, cy)
            if c:
                prev = out.get(k)
                if prev is None:
                    out[k] = c
                else:
                    s = fadd(prev, c)
                    if s:
                        out[k] = s
                    else:
                        del out[k]
    return out


class ReferenceSeries:
    __slots__ = ("field", "f", "cutoff", "terms")

    def __init__(self, field, f, cutoff, terms=None):
        self.field = field
        self.f = f
        self.cutoff = cutoff
        self.terms = {} if terms is None else terms

    @classmethod
    def const(cls, field, f, cutoff, c):
        t = {(0,) * f: c} if c else {}
        return cls(field, f, cutoff, t)

    def copy_truncated(self, cutoff):
        if cutoff >= self.cutoff:
            return ReferenceSeries(self.field, self.f, min(cutoff, self.cutoff),
                                   dict(self.terms))
        return ReferenceSeries(
            self.field, self.f, cutoff,
            {k: c for k, c in self.terms.items() if sum(k) < cutoff},
        )

    def _binop(self, other, fn):
        cutoff = min(self.cutoff, other.cutoff)
        out = {k: c for k, c in self.terms.items() if sum(k) < cutoff}
        fld = self.field
        for k, c in other.terms.items():
            if sum(k) >= cutoff:
                continue
            prev = out.get(k)
            s = fn(fld, prev, c)
            if s:
                out[k] = s
            elif prev is not None:
                del out[k]
        return ReferenceSeries(fld, self.f, cutoff, out)

    def __add__(self, other):
        return self._binop(other, lambda fld, prev, c: c if prev is None else fld.add(prev, c))

    def __sub__(self, other):
        return self._binop(
            other, lambda fld, prev, c: fld.neg(c) if prev is None else fld.sub(prev, c)
        )

    def __mul__(self, other):
        bound = _mul_bound(self.cutoff, _ldeg(self.terms), other.cutoff, _ldeg(other.terms))
        terms = reference_mul_terms(self.field, self.terms, other.terms, bound)
        return ReferenceSeries(self.field, self.f, bound, terms)

    def pow(self, n):
        if n < 0:
            raise HypothesisViolation("additive-chart powers need n >= 0")
        result = ReferenceSeries.const(self.field, self.f, self.cutoff if n else INF, 1)
        base = self
        while n:
            if n & 1:
                result = result * base
            n >>= 1
            if n:
                base = base * base
        return result


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


def both(fld, f, cutoff, terms):
    return (AElement(fld, f, cutoff, dict(terms)),
            ReferenceSeries(fld, f, cutoff, dict(terms)))


def same(got, want):
    assert got.terms == want.terms
    assert got.cutoff == want.cutoff


@given(series_pairs())
def test_sum_difference_product_match_reference(data):
    fld, f, ((kx, tx), (ky, ty)) = data
    x, rx = both(fld, f, kx, tx)
    y, ry = both(fld, f, ky, ty)
    same(x + y, rx + ry)
    same(x - y, rx - ry)
    same(y - x, ry - rx)
    same(x - x, rx - rx)
    same(x * y, rx * ry)


@given(series_pairs(), st.integers(0, 5))
def test_power_matches_reference(data, n):
    fld, f, ((kx, tx), _) = data
    x, rx = both(fld, f, kx, tx)
    same(x**n, rx.pow(n))


@given(series_pairs(), st.integers(1, 5), st.integers(0, 3))
def test_monomial_power_matches_reference(data, n, slot):
    # the monomial fast path of AElement.__pow__ against square-and-multiply
    fld, f, ((kx, tx), _) = data
    k = tuple(int(i == slot % f) * (1 + slot) for i in range(f))
    cutoff = kx if kx == INF or kx > sum(k) else sum(k) + 1
    x, rx = both(fld, f, cutoff, {k: fld.q - 1})
    same(x**n, rx.pow(n))


@given(series_pairs(), st.one_of(st.integers(0, 14), st.just(INF)))
def test_copy_truncated_matches_reference(data, cut):
    fld, f, ((kx, tx), _) = data
    x, rx = both(fld, f, kx, tx)
    same(x.copy_truncated(cut), rx.copy_truncated(cut))


def test_torus_eigenvector_checked_counts():
    # one comparison per (unit a, slot j): 10 at q = 11, 168 * 2 at q = 169
    for (p, f), count in (((11, 1), 10), ((13, 2), 336)):
        res = check_torus_eigenvector(chart_context(p, f))
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
    assert _mul_terms(fld, xt, yt, bound) == reference_mul_terms(fld, xt, yt, bound)


@pytest.mark.parametrize("p,f,side", [(17, 3, 5), (7, 1, 200)])
def test_product_at_worst_case_slot_load(p, f, side):
    # a full box of exponents with every coefficient q-1: the key
    # (side-1, ..., side-1) receives side^f = min(len) products, each
    # filling the middle slot to k*(p-1)^2
    fld = Fq(p, f)
    xt = {k: fld.q - 1 for k in itertools.product(range(side), repeat=f)}
    assert _mul_terms(fld, xt, xt, INF) == reference_mul_terms(fld, xt, xt, INF)


def test_concurrent_first_products_build_each_packing_once(monkeypatch):
    # four threads start their first products with the packing cache empty:
    # every width must be built once and every thread must get the terms of
    # the field-op reference
    built = collections.Counter()

    class CountingPacking(iwasawa._Packing):
        def __init__(self, field, bits):
            built[bits] += 1
            time.sleep(0.01)  # hold the build open while the others arrive
            super().__init__(field, bits)

    monkeypatch.setattr(iwasawa, "_PACKINGS", {})
    monkeypatch.setattr(iwasawa, "_Packing", CountingPacking)
    fld = Fq(5, 3)
    xs = [AElement(fld, 3, INF, {(i, j, (i * j) % 3): 1 + (7 * i + j) % 124
                                 for i in range(n) for j in range(n)})
          for n in (2, 9)]
    pairs = [(x, y) for x in xs for y in xs]
    want = [reference_mul_terms(fld, x.terms, y.terms, INF) for x, y in pairs]
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
