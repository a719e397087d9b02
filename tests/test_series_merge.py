"""AElement on additive-chart supports against the former additive-chart class.

`ReferenceSeries` keeps the arithmetic of the separate additive-chart class
that AElement replaced: the truncating sum and difference, the product with
its knowledge bound, the square-and-multiply power started from a constant
known to the operand's cutoff, and truncation.  On nonnegative supports with
finite or infinite cutoffs, AElement must give the same terms and the same
cutoff.
"""

import math

from hypothesis import given
from hypothesis import strategies as st

from modpcheck.arith import Fq
from modpcheck.errors import HypothesisViolation
from modpcheck.iwasawa import (
    AElement,
    _ldeg,
    _mul_bound,
    _mul_terms,
    chart_context,
    check_torus_eigenvector,
)

INF = math.inf


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
        terms = _mul_terms(self.field, self.terms, other.terms, bound)
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
