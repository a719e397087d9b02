"""The packed torus-eigenvector sweep against the field-op reference loop.

`reference_torus_eigenvector` is the straightforward form of the check: for
each unit a and slot j it adds b^(-p^j) n([ab]) over all units b into a dict,
one field call per coefficient, and compares the sum with a^(p^j) Y_j.  The
packed sweep in ``modpcheck.iwasawa`` must give the same row, on passing
data and on a perturbed generator series, and must fail when its slots are
too narrow to hold the sum.
"""

import pytest

from modpcheck import iwasawa
from modpcheck.arith import Fq
from modpcheck.iwasawa import (
    AElement,
    ChartContext,
    _slot_bits,
    _torus_slot_bits,
    chart_context,
    check_torus_eigenvector,
)
from modpcheck.reporting import Sweep


def reference_torus_eigenvector(ctx):
    sweep = Sweep("torus-reindex-eigenvector")
    fld = ctx.field
    depth = ctx.tdepth
    lifts = {a: ctx.ring.teichmuller(a) for a in fld.units()}
    for a in fld.units():
        for b in fld.units():
            if ctx.ring.mul(lifts[a], lifts[b]) != lifts[fld.mul(a, b)]:
                sweep.check(False, a=a, b=b, stage="teichmuller-product")
                return sweep.result()
    for a in fld.units():
        for j in range(ctx.f):
            acc = {}
            for b in fld.units():
                w = fld.inv(fld.frob(b, j))  # b^(-p^j)
                for k, c in ctx.n_series(fld.mul(a, b), depth).terms.items():
                    prev = acc.get(k)
                    if prev is None:
                        acc[k] = fld.mul(w, c)
                    else:
                        s = fld.add(prev, fld.mul(w, c))
                        if s:
                            acc[k] = s
                        else:
                            del acc[k]
            want = ctx.y_series[j].scale(fld.frob(a, j))
            diff = AElement(fld, ctx.f, depth, acc) - want
            sweep.check(diff.is_zero(), a=a, j=j,
                        discrepancies=len(diff.terms))
    return sweep.result(info={"depth": depth})


@pytest.mark.parametrize("p,f", [(11, 1), (5, 2), (7, 2), (13, 2)])
def test_packed_sweep_matches_reference(p, f):
    ctx = chart_context(p, f)
    got = check_torus_eigenvector(ctx).as_dict()
    assert got["status"] == "pass"
    assert got == reference_torus_eigenvector(ctx).as_dict()


def test_perturbed_generator_series_fails_the_same_row():
    # one coefficient of one cached n([c]) is off: every a meets it through
    # b = c/a, and the first failing row is a = 1, j = 0
    ctx = ChartContext(13, 2, 30)
    fld = ctx.field
    depth = ctx.tdepth
    c = 5
    good = ctx.n_series(c, depth)
    k = next(k for k in sorted(good.terms) if sum(k) == 3)
    terms = dict(good.terms)
    terms[k] = fld.add(terms[k], 1) or 1
    ctx._n_cache[(c, depth)] = AElement(fld, 2, depth, terms)

    got = check_torus_eigenvector(ctx).as_dict()
    assert got["status"] == "fail"
    assert got["counterexample"] == {"a": 1, "j": 0, "discrepancies": 1}
    assert got == reference_torus_eigenvector(ctx).as_dict()


def test_slot_width_formula_is_pinned():
    # S = bit length of k*(p-1)^2 * (q-1)
    assert _torus_slot_bits(Fq(11, 1)) == _slot_bits(100, 10) == 10
    assert _torus_slot_bits(Fq(13, 2)) == _slot_bits(2 * 144, 168) == 16
    assert _torus_slot_bits(Fq(7, 2)) == (2 * 36 * 48).bit_length()


@pytest.mark.parametrize("cut,passes", [(1, True), (3, True), (6, False)])
def test_narrowed_slots(monkeypatch, cut, passes):
    # the width is a worst-case bound, so a few bits less still hold the
    # sums at p=13, f=2; six bits less let slots carry into their neighbours
    bits = iwasawa._torus_slot_bits
    monkeypatch.setattr(iwasawa, "_torus_slot_bits", lambda fld: bits(fld) - cut)
    assert check_torus_eigenvector(chart_context(13, 2)).passed is passes
