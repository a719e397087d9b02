"""The packed torus-eigenvector sweep against the field-op reference loop.

`reference_torus_eigenvector` is the straightforward form of the check: it
tests the multiplicativity of the Teichmuller lifts on every pair of units,
then for each unit a and slot j it adds b^(-p^j) n([ab]) over all units b
into a dict, one field call per coefficient, and compares the sum with
a^(p^j) Y_j.  The packed sweep in ``modpcheck.iwasawa`` checks the lifts
along the generator first, then computes only the a = 1 sum of slot 0,
since the slot-j sum of a unit a is a^(p^j) times the a = 1 one and that
is the p^j-th power of the slot-0 sum: one packed int per unit, added
into one int and decoded once in byte lanes.  The p^j-th powers of its
coefficients are compared with Y_j, and the count of the differing
monomials is checked for every (a, j).  It must give the same row, check
by check, on passing data, on perturbed series and on perturbed lifts, at
the 16- and 32-bit lanes, and must fail when its lanes are too narrow to
hold the sum.  The lane decode itself must agree with `encode`, the
per-block reading that decode replaced in the package.
"""

import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from modpcheck import arith, iwasawa
from modpcheck.arith import Fq, Memo, _Packing, packing
from modpcheck.errors import PACKAGE_ERRORS
from modpcheck.harness import MAX_CHART_Q, RunConfig, run_suite
from modpcheck.iwasawa import (
    AElement,
    ChartContext,
    chart_context,
    check_torus_eigenvector,
)
from modpcheck.reporting import Sweep, run_table

FIELDS = [(11, 1), (5, 2), (7, 2), (13, 2)]


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
    series = {c: ctx.n_series(lifts[c], depth) for c in fld.units()}
    for a in fld.units():
        for j in range(ctx.f):
            acc = {}
            for b in fld.units():
                w = fld.inv(fld.pow(b, fld.p ** j))  # b^(-p^j)
                for k, c in series[fld.mul(a, b)].terms.items():
                    prev = acc.get(k)
                    if prev is None:
                        acc[k] = fld.mul(w, c)
                    else:
                        s = fld.add(prev, fld.mul(w, c))
                        if s:
                            acc[k] = s
                        else:
                            del acc[k]
            want = ctx.y_series[j].scale(fld.pow(a, fld.p ** j))
            diff = AElement(fld, ctx.f, depth, acc) - want
            sweep.check(diff.is_zero(), a=a, j=j,
                        discrepancies=len(diff.terms))
    return sweep.result(info={"depth": depth})


@pytest.mark.parametrize("p,f", FIELDS)
def test_packed_sweep_matches_reference(p, f):
    ctx = chart_context(p, f)
    got = check_torus_eigenvector(ctx).as_dict()
    assert got["status"] == "pass"
    assert got == reference_torus_eigenvector(ctx).as_dict()


def test_perturbed_generator_series_fails_the_same_row(monkeypatch):
    # one coefficient of one n([c]) is off: every a meets it through
    # b = c/a, and the first failing row is a = 1, j = 0
    ctx = ChartContext(13, 2, 30)
    fld = ctx.field
    depth = ctx.tdepth
    c = 5
    lift = ctx.ring.teichmuller(c)
    good = ctx.n_series(lift, depth)
    k = next(k for k in sorted(good.terms) if sum(k) == 3)
    terms = dict(good.terms)
    terms[k] = fld.add(terms[k], 1) or 1
    bad = AElement(fld, 2, depth, terms)
    right = ctx.n_series
    monkeypatch.setattr(ctx, "n_series", lambda g, d=None: bad if g == lift else right(g, d))

    got = check_torus_eigenvector(ctx).as_dict()
    assert got["status"] == "fail"
    assert got["counterexample"] == {"a": 1, "j": 0, "discrepancies": 1}
    assert got == reference_torus_eigenvector(ctx).as_dict()


@pytest.mark.parametrize("p,f", FIELDS)
def test_perturbed_top_coefficient_of_y0_fails_the_same_row(p, f):
    # one coefficient of Y_0 off by 1 at the top degree the chart keeps
    # (degree 20 at p=13, f=2, where no other row sees it): every (a, 0)
    # fails with one discrepancy, as in the reference
    ctx = ChartContext(p, f, iwasawa.default_cutoff(p, f))
    fld = ctx.field
    y0, *rest = ctx.y_series
    degree = 20 if (p, f) == (13, 2) else ctx.tdepth - 1
    assert degree >= 2  # the Jacobian, and so the shear steps, stay right
    k = next(k for k in sorted(y0.terms) if sum(k) == degree)
    terms = dict(y0.terms)
    terms[k] = fld.add(terms[k], 1) or 1
    ctx.y_series = (AElement(fld, f, y0.cutoff, terms), *rest)

    got = check_torus_eigenvector(ctx).as_dict()
    assert got["status"] == "fail"
    assert got["counterexample"] == {"a": 1, "j": 0, "discrepancies": 1}
    assert got == reference_torus_eigenvector(ctx).as_dict()


def _verdicts(monkeypatch, check, ctx):
    """The row of `check` on ctx, and every (ok, witness) it checked, in
    order."""
    seen = []
    right = Sweep.check
    with monkeypatch.context() as m:
        m.setattr(Sweep, "check", lambda self, ok, **w: seen.append((ok, w)) or right(self, ok, **w))
        row = check(ctx).as_dict()
    return row, seen


def test_three_perturbed_y1_coefficients_fail_slot_one_check_by_check(monkeypatch):
    # three coefficients of Y_1 are off, so n([c]) and the slot j = 0 stay
    # right: every (a, 0) passes and every (a, 1) counts three discrepancies
    ctx = ChartContext(7, 2, 30)
    fld = ctx.field
    y0, y1 = ctx.y_series
    keys = [next(k for k in sorted(y1.terms) if sum(k) == d) for d in (2, 5, 9)]
    terms = dict(y1.terms)
    for k in keys:
        terms[k] = fld.add(terms[k], 1) or 1
    ctx.y_series = (y0, AElement(fld, 2, y1.cutoff, terms))

    got, seen = _verdicts(monkeypatch, check_torus_eigenvector, ctx)
    want, want_seen = _verdicts(monkeypatch, reference_torus_eigenvector, ctx)
    assert [(ok, w["j"], w["discrepancies"]) for ok, w in seen] == \
        [(True, 0, 0), (False, 1, 3)] * (ctx.q - 1)
    assert got["counterexample"] == {"a": 1, "j": 1, "discrepancies": 3}
    assert (got, seen) == (want, want_seen)


@pytest.mark.parametrize("p,f", [(7, 2), (11, 1)])
def test_perturbed_series_of_the_last_unit_fails_every_check_alike(monkeypatch, p, f):
    # one coefficient of n([c]) is off for c = EXP[q-2], the last unit in
    # log order: every a meets it through b = c/a, so every (a, j) counts
    # one discrepancy, as in the per-a reference
    ctx = ChartContext(p, f, iwasawa.default_cutoff(p, f))
    fld = ctx.field
    depth = ctx.tdepth
    c = fld.EXP[fld.q - 2]
    assert c != 1
    lift = ctx.ring.teichmuller(c)
    good = ctx.n_series(lift, depth)
    k = next(k for k in sorted(good.terms) if sum(k) == 3)
    terms = dict(good.terms)
    terms[k] = fld.add(terms[k], 1) or 1
    bad = AElement(fld, f, depth, terms)
    right = ctx.n_series
    monkeypatch.setattr(ctx, "n_series", lambda g, d=None: bad if g == lift else right(g, d))

    got, seen = _verdicts(monkeypatch, check_torus_eigenvector, ctx)
    want, want_seen = _verdicts(monkeypatch, reference_torus_eigenvector, ctx)
    assert [(ok, w["discrepancies"]) for ok, w in seen] == [(False, 1)] * f * (ctx.q - 1)
    assert {w["j"] for _, w in seen} == set(range(f))
    assert (got, seen) == (want, want_seen)


def test_32_bit_lane_matches_reference(monkeypatch):
    # (p-1)^2 (q-1) = 73,728 at p=17, f=2 takes 17 bits, so the sums are
    # read in the 32-bit lane, which no field of FIELDS reaches
    ctx = ChartContext(17, 2, 6)
    calls = _spy_packing(monkeypatch)
    got, seen = _verdicts(monkeypatch, check_torus_eigenvector, ctx)
    assert calls == [(256, 288, 32)]
    assert got["status"] == "pass" and got["checked"] == 2 * 288
    assert (got, seen) == _verdicts(monkeypatch, reference_torus_eigenvector, ctx)


def _spy_packing(monkeypatch, rule=packing):
    """Route iwasawa's packings through `rule`; returns the list of
    (per_term, terms, width) of each call."""
    calls = []

    def spy(fld, per_term, terms):
        pack = rule(fld, per_term, terms)
        calls.append((per_term, terms, pack.bits))
        return pack

    monkeypatch.setattr(iwasawa, "packing", spy)
    return calls


def test_slot_width_formula_is_pinned(monkeypatch):
    # S = bit length of (p-1)^2 * (q-1): a packed weight times a prime-field
    # coefficient, summed over the units; the row reads its sums in the
    # narrowest byte lane that holds S bits
    ctx = chart_context(13, 2)
    calls = _spy_packing(monkeypatch)
    check_torus_eigenvector(ctx)
    assert calls == [(144, 168, 16)]
    assert [((p - 1) ** 2 * (p**f - 1)).bit_length() for p, f in FIELDS] == [10, 9, 11, 15]
    assert [packing(Fq(p, f), (p - 1) ** 2, p**f - 1).bits for p, f in FIELDS] == [16] * 4
    lanes = [packing(Fq(11, 1), 1, 2**b - 1).bits for b in (1, 8, 9, 16, 17, 32, 33, 64)]
    assert lanes == [8, 8, 16, 16, 32, 32, 64, 64]


@pytest.mark.parametrize("cut,passes", [(1, True), (3, True)])
def test_narrowed_slots(monkeypatch, cut, passes):
    # the width is a worst-case bound, so a few bits less still hold the
    # sums at p=13, f=2: the rule rounds them back up to the 16-bit lane
    ctx = chart_context(13, 2)
    calls = _spy_packing(monkeypatch, lambda fld, per_term, terms:
                         packing(fld, per_term * terms >> cut, 1))
    assert check_torus_eigenvector(ctx).passed is passes
    assert [bits for *_, bits in calls] == [16]


@pytest.mark.parametrize("lane,passes", [(16, True), (8, False)])
def test_narrowed_lane(monkeypatch, lane, passes):
    # at p=13, f=2 the slot bound is 15 bits, so its lane holds the sums
    # and the next lane down lets slots carry into their neighbours
    ctx = chart_context(13, 2)
    calls = _spy_packing(monkeypatch, lambda fld, per_term, terms:
                         packing(fld, 1, 2**lane - 1))
    assert check_torus_eigenvector(ctx).passed is passes
    assert [bits for *_, bits in calls] == [lane]


def _primes(n):
    return [p for p in range(2, n + 1) if all(p % d for d in range(2, math.isqrt(p) + 1))]


def test_every_admitted_torus_field_has_a_lane():
    # the chart suites admit q <= MAX_CHART_Q, build Y_0 at f <= 3 and run
    # the torus row at f <= 2; the lanes follow from the slot bounds alone,
    # so no field is built
    built = set(arith._FIELD_CACHE)

    def widest(bound, fs):
        return {f: max(bound(p, f).bit_length()
                       for p in _primes(MAX_CHART_Q) if p**f <= MAX_CHART_Q)
                for f in fs}

    def lanes(bits):
        return {f: min(w for w in arith._LANE_FORMATS if w >= b) for f, b in bits.items()}

    torus = widest(lambda p, f: (p - 1) ** 2 * (p**f - 1), (1, 2))
    y0 = widest(lambda p, f: (p - 1) ** min(f + 1, 4) * (p**f - 1), (1, 2, 3))
    assert torus == {1: 39, 2: 26} and y0 == {1: 39, 2: 33, 3: 30}
    assert lanes(torus) == {1: 64, 2: 32}
    assert lanes(y0) == {1: 64, 2: 64, 3: 32}
    assert set(arith._FIELD_CACHE) == built


def test_f2_session_run_builds_the_16_and_32_bit_packings(monkeypatch):
    # the README f=2 verify, from a cold chart: products and the torus sum
    # share the 16-bit lane, the Y_0 sum takes the 32-bit one
    monkeypatch.setattr(arith, "_PACKINGS", Memo(_Packing))
    monkeypatch.setattr(iwasawa, "_CTX_CACHE", Memo(ChartContext))
    run_suite(RunConfig(p=13, f=2, r=(5, 6)))
    assert set(arith._PACKINGS) == {(Fq(13, 2), 16), (Fq(13, 2), 32)}


def test_slot_wider_than_every_lane_fails_the_row(monkeypatch):
    # a width with no lane is a package error, so the row fails and the
    # table goes on
    with pytest.raises(PACKAGE_ERRORS):
        packing(Fq(11, 1), 2**65 - 1, 1)
    ctx = chart_context(11, 1)

    def torus_row():
        with monkeypatch.context() as m:
            m.setattr(iwasawa, "packing", lambda fld, per_term, terms: packing(fld, 2**65 - 1, 1))
            return [check_torus_eigenvector(ctx)]

    rows = run_table([(("torus-reindex-eigenvector",), torus_row),
                      (("frobenius-generator-images",),
                       lambda: [iwasawa.check_frobenius_generators(ctx)])])
    assert [r.as_dict()["status"] for r in rows] == ["fail", "pass"]
    assert rows[0].as_dict()["counterexample"] == {
        "error": "RangeViolation: a 65-bit slot is wider than any byte lane"}


def encode(pack, v):
    """Field encoding of a sum of packed elements and packed products."""
    mask, p = (1 << pack.bits) - 1, pack.p
    e = 0
    for terms in pack.digit_terms:
        t = 0
        for shift, r in terms:
            t += (v >> shift & mask) * r
        e = e * p + t % p
    return e


@pytest.mark.parametrize("k", [1, 2, 3])
@settings(max_examples=30)
@given(data=st.data())
def test_lane_decode_matches_per_block_encode(k, data):
    # at every lane width, blocks of sums of packed elements (stride k), of
    # packed elements times prime-field values (the torus sum, stride k) and
    # of products (stride 2k-1), each sum of as many terms as the worst-case
    # slot bound lets the lane hold, with junk above the last block
    fld = Fq(data.draw(st.sampled_from([3, 5, 7, 11]), label="p"), k)
    elem = st.integers(0, fld.q - 1)
    kinds = [(k, fld.p - 1, lambda pk, x, y: pk[x]),
             (k, (fld.p - 1) ** 2, lambda pk, x, y: pk[x] * (y % fld.p)),
             (2 * k - 1, k * (fld.p - 1) ** 2, lambda pk, x, y: pk[x] * pk[y])]
    for lane in (8, 16, 32, 64):
        pack = _Packing(fld, lane)
        for stride, per_term, term in kinds:
            most = (2**lane - 1) // per_term
            assert (per_term * most).bit_length() <= lane < (per_term * (most + 1)).bit_length()
            blocks = []
            for _ in range(data.draw(st.integers(1, 5), label="count")):
                block, left = 0, most
                for x, y in data.draw(st.lists(st.tuples(elem, elem), min_size=1, max_size=3)):
                    n = data.draw(st.integers(0, left), label="n")
                    block += n * term(pack.table, x, y)
                    left -= n
                blocks.append(block)
            v = pack.join(blocks, stride)
            v += data.draw(st.integers(0, 2**64), label="junk") << (len(blocks) * stride * lane)
            assert pack.decode(v, len(blocks), stride) == [encode(pack, b) for b in blocks]


def _lift_mutant(monkeypatch, ctx, mutant):
    """Patch the ring's Teichmuller lift of a built chart."""
    right = ctx.ring.teichmuller
    monkeypatch.setattr(ctx.ring, "teichmuller", lambda e: mutant(e, right))


@pytest.mark.parametrize("p,f", FIELDS)
@pytest.mark.parametrize("kind", ["generator-top-digit", "one-not-idempotent", "two-swapped"])
def test_generator_chain_keeps_the_first_witness(monkeypatch, p, f, kind):
    # each mutant fails the chain [g][c] == [gc] or [1]^2 == [1], and the
    # row then sweeps all pairs: status, checked and the first (a, b)
    # witness equal those of the reference's full sweep
    ctx = chart_context(p, f)
    g, top = ctx.field.generator, ctx.p ** (ctx.N - 1)
    u, v = (3, 4) if f == 1 else (2, 3)  # units apart from 1 and g

    def mutant(e, right):
        if kind == "generator-top-digit" and e == g:
            c0, *rest = right(e)
            return ((c0 + top) % ctx.ring.pN, *rest)
        if kind == "one-not-idempotent" and e == 1:
            return (1 + top,) + (0,) * (f - 1)
        if kind == "two-swapped" and e in (u, v):
            return right(u + v - e)
        return right(e)

    _lift_mutant(monkeypatch, ctx, mutant)
    got = check_torus_eigenvector(ctx).as_dict()
    want = reference_torus_eigenvector(ctx).as_dict()
    assert got["status"] == "fail" and got["checked"] == 1
    assert got == want
    a, b = got["counterexample"]["a"], got["counterexample"]["b"]
    if kind == "one-not-idempotent":
        assert (a, b) == (1, 1)
    if kind == "two-swapped" and f == 2:
        # the first failing pair involves neither g nor 1
        assert g not in (a, b) and 1 not in (a, b)


def test_one_teichmuller_lift_per_unit(monkeypatch):
    ctx = chart_context(13, 2)
    calls = []
    _lift_mutant(monkeypatch, ctx, lambda e, right: calls.append(e) or right(e))
    assert check_torus_eigenvector(ctx).passed
    assert sorted(calls) == list(ctx.field.units())


def test_one_sum_and_decode_per_row(monkeypatch):
    # every unit's sum is a times the a = 1 sum, and every slot's a p^j-th
    # power of the slot-0 one, so the row reads one series per unit into
    # one packed sum and decodes it once: q - 1 = 168 series at p=13, f=2
    ctx = chart_context(13, 2, 30)  # built complete, before counting
    decodes, series = 0, 0
    right_decode, right_series = _Packing.decode, ctx.n_series

    def counted_decode(self, *args):
        nonlocal decodes
        decodes += 1
        return right_decode(self, *args)

    def counted_series(*args):
        nonlocal series
        series += 1
        return right_series(*args)

    monkeypatch.setattr(_Packing, "decode", counted_decode)
    monkeypatch.setattr(ctx, "n_series", counted_series)
    assert check_torus_eigenvector(ctx).passed
    assert (decodes, series) == (1, ctx.q - 1) == (1, 168)


def test_perturbed_second_eigencoordinate_fails_only_slot_one(monkeypatch):
    # two coefficients of Y_1 are off, so n([c]) and the slot j = 0 stay
    # right: every a fails at j = 1 only, and the count of differing
    # monomials of each failing (a, j) holds both discrepancies
    verdicts = []

    class RecordingSweep(Sweep):
        def check(self, ok, **ctx):
            verdicts.append((ok, ctx.get("j"), ctx.get("discrepancies")))
            return super().check(ok, **ctx)

    ctx = ChartContext(13, 2, 30)
    fld = ctx.field
    y0, y1 = ctx.y_series
    degrees = (2, 5)  # >= 2: the Jacobian, and so the shear steps, stay right
    keys = [next(k for k in sorted(y1.terms) if sum(k) == d) for d in degrees]
    terms = dict(y1.terms)
    for k in keys:
        terms[k] = fld.add(terms[k], 1) or 1
    ctx.y_series = (y0, AElement(fld, 2, y1.cutoff, terms))

    monkeypatch.setattr(iwasawa, "Sweep", RecordingSweep)
    got = check_torus_eigenvector(ctx).as_dict()
    monkeypatch.undo()
    assert {(j, n) for ok, j, n in verdicts if not ok} == {(1, 2)}
    assert sum(not ok for ok, _, _ in verdicts) == ctx.q - 1
    assert got["status"] == "fail"
    assert got["counterexample"] == {"a": 1, "j": 1, "discrepancies": 2}
    assert got["checked"] == 2 * (ctx.q - 1)
    assert got == reference_torus_eigenvector(ctx).as_dict()
