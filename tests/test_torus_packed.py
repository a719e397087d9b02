"""The packed torus-eigenvector sweep against explicit rows and the
definition of Y_j.

The packed sweep in ``modpcheck.iwasawa`` checks the Teichmuller lifts
along the generator first, then computes only the a = 1 sum of slot 0,
since the slot-j sum of a unit a is a^(p^j) times the a = 1 one and that
is the p^j-th power of the slot-0 sum: one packed int per unit, added
into one int and decoded once in byte lanes.  The p^j-th powers of its
coefficients are compared with Y_j, and the count of the differing
monomials is checked for every (a, j).  On passing data the row passes
with f(q-1) checks, and Y_j equals its defining sum (``oracle``), so the
row's sums are the definition's.  On perturbed series and perturbed Y_j
every (a, j) counts the monomials it was given wrong; on perturbed lifts
the row names the first failing pair.  This holds at the 16- and 32-bit
lanes, and the row fails when its lanes are too narrow to hold the sum.
The lane decode itself must agree with `encode`, the per-block reading
that decode replaced in the package.
"""

import functools
import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracle
from conftest import chart
from modpcheck import arith, iwasawa
from modpcheck.arith import Fq, Memo, _Packing, packing
from modpcheck.errors import PACKAGE_ERRORS
from modpcheck.harness import MAX_CHART_Q, RunConfig, run_suite
from modpcheck.iwasawa import (
    AElement,
    ChartContext,
    check_torus_eigenvector,
)
from modpcheck.reporting import Sweep, run_table

FIELDS = [(11, 1), (5, 2), (7, 2), (13, 2)]


def torus_row(ctx, counterexample=None):
    """The row of ctx: every (a, j) checked, the first failing one as the
    counterexample."""
    row = {"name": "torus-reindex-eigenvector", "status": "pass",
           "checked": ctx.f * (ctx.q - 1), "depth": ctx.tdepth}
    if counterexample is not None:
        row.update(status="fail", counterexample=counterexample)
    return row


def every_check(ctx, discrepancies):
    """The (ok, witness) of every (a, j) in order, slot j off by
    discrepancies[j] monomials."""
    return [(not n, {"a": a, "j": j, "discrepancies": n})
            for a in ctx.field.units() for j, n in enumerate(discrepancies)]


def _verdicts(monkeypatch, check, ctx):
    """The row of `check` on ctx, and every (ok, witness) it checked, in
    order."""
    seen = []
    right = Sweep.check
    with monkeypatch.context() as m:
        m.setattr(Sweep, "check", lambda self, ok, **w: seen.append((ok, w)) or right(self, ok, **w))
        row = check(ctx).as_dict()
    return row, seen


def _bumped(x, degree):
    """x with 1 added to its first coefficient of total degree `degree`."""
    fld = x.field
    terms = dict(x.terms)
    k = next(k for k in sorted(terms) if sum(k) == degree)
    terms[k] = fld.add(terms[k], 1) or 1
    return AElement(fld, x.f, x.cutoff, terms)


def _bump_series(monkeypatch, ctx, c):
    """Make ctx.n_series give n([c]) with one coefficient of degree 3 off."""
    lift = ctx.ring.teichmuller(c)
    bad = _bumped(ctx.n_series(lift, ctx.tdepth), 3)
    right = ctx.n_series
    monkeypatch.setattr(ctx, "n_series", lambda g, d: bad if g == lift else right(g, d))


def _perturb_y1(ctx, degrees):
    """Bump Y_1 at each degree: n([c]) and the slot j = 0 stay right, and
    degrees >= 2 keep the Jacobian, and so the shear steps, right."""
    y0, y1 = ctx.y_series
    ctx.y_series = (y0, functools.reduce(_bumped, degrees, y1))


@pytest.mark.parametrize("p,f", FIELDS)
def test_packed_sweep_matches_reference(p, f):
    # the row passes and every Y_j is its defining sum, so the row's
    # reindexed sums are those of the definition
    ctx = chart(p, f)
    assert check_torus_eigenvector(ctx).as_dict() == torus_row(ctx)
    assert [y.terms for y in ctx.y_series] == oracle.eigencoordinates(p, f, ctx.tdepth)


def test_perturbed_generator_series_fails_the_same_row(monkeypatch):
    # one coefficient of one n([c]) is off: every a meets it through
    # b = c/a, and the first failing row is a = 1, j = 0
    ctx = ChartContext(13, 2, 30)
    _bump_series(monkeypatch, ctx, 5)
    got, seen = _verdicts(monkeypatch, check_torus_eigenvector, ctx)
    assert got == torus_row(ctx, {"a": 1, "j": 0, "discrepancies": 1})
    assert seen == every_check(ctx, [1, 1])


@pytest.mark.parametrize("p,f", FIELDS)
def test_perturbed_top_coefficient_of_y0_fails_the_same_row(monkeypatch, p, f):
    # one coefficient of Y_0 off by 1 at the top degree the chart keeps
    # (degree 20 at p=13, f=2, where no other row sees it): every (a, 0)
    # fails with one discrepancy, and every other slot passes
    ctx = ChartContext(p, f, iwasawa.default_cutoff(p, f))
    y0, *rest = ctx.y_series
    degree = 20 if (p, f) == (13, 2) else ctx.tdepth - 1
    assert degree >= 2  # the Jacobian, and so the shear steps, stay right
    ctx.y_series = (_bumped(y0, degree), *rest)
    got, seen = _verdicts(monkeypatch, check_torus_eigenvector, ctx)
    assert got == torus_row(ctx, {"a": 1, "j": 0, "discrepancies": 1})
    assert seen == every_check(ctx, [1] + [0] * (f - 1))


def test_three_perturbed_y1_coefficients_fail_slot_one_check_by_check(monkeypatch):
    # every (a, 0) passes and every (a, 1) counts three discrepancies
    ctx = ChartContext(7, 2, 30)
    _perturb_y1(ctx, (2, 5, 9))
    got, seen = _verdicts(monkeypatch, check_torus_eigenvector, ctx)
    assert seen == every_check(ctx, [0, 3])
    assert got == torus_row(ctx, {"a": 1, "j": 1, "discrepancies": 3})


@pytest.mark.parametrize("p,f", [(7, 2), (11, 1)])
def test_perturbed_series_of_the_last_unit_fails_every_check_alike(monkeypatch, p, f):
    # one coefficient of n([c]) is off for c = EXP[q-2], the last unit in
    # log order: every a meets it through b = c/a, so every (a, j) counts
    # one discrepancy
    ctx = ChartContext(p, f, iwasawa.default_cutoff(p, f))
    c = ctx.field.EXP[ctx.q - 2]
    assert c != 1
    _bump_series(monkeypatch, ctx, c)

    got, seen = _verdicts(monkeypatch, check_torus_eigenvector, ctx)
    assert seen == every_check(ctx, [1] * f)
    assert got == torus_row(ctx, {"a": 1, "j": 0, "discrepancies": 1})


def test_32_bit_lane_matches_reference(monkeypatch):
    # (p-1)^2 (q-1) = 73,728 at p=17, f=2 takes 17 bits, so the sums are
    # read in the 32-bit lane, which no field of FIELDS reaches
    ctx = ChartContext(17, 2, 6)
    calls = _spy_packing(monkeypatch)
    got, seen = _verdicts(monkeypatch, check_torus_eigenvector, ctx)
    assert calls == [(256, 288, 32)]
    assert got == torus_row(ctx) and got["checked"] == 2 * 288
    assert seen == every_check(ctx, [0, 0])
    assert [y.terms for y in ctx.y_series] == oracle.eigencoordinates(17, 2, 6)


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
    ctx = chart(13, 2)
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
    ctx = chart(13, 2)
    calls = _spy_packing(monkeypatch, lambda fld, per_term, terms:
                         packing(fld, per_term * terms >> cut, 1))
    assert check_torus_eigenvector(ctx).passed is passes
    assert [bits for *_, bits in calls] == [16]


@pytest.mark.parametrize("lane,passes", [(16, True), (8, False)])
def test_narrowed_lane(monkeypatch, lane, passes):
    # at p=13, f=2 the slot bound is 15 bits, so its lane holds the sums
    # and the next lane down lets slots carry into their neighbours
    ctx = chart(13, 2)
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
    run_suite(RunConfig(p=13, f=2, r=(5, 6)))
    assert set(arith._PACKINGS) == {(Fq(13, 2), 16), (Fq(13, 2), 32)}


def test_slot_wider_than_every_lane_fails_the_row(monkeypatch):
    # a width with no lane is a package error, so the row fails and the
    # table goes on
    with pytest.raises(PACKAGE_ERRORS):
        packing(Fq(11, 1), 2**65 - 1, 1)
    ctx = chart(11, 1)

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


# the first failing pair (a, b) of the full sweep, a first, under each lift
# mutant
FIRST_BAD_PAIR = {
    "generator-top-digit": {(11, 1): (2, 2), (5, 2): (2, 6), (7, 2): (2, 9), (13, 2): (2, 15)},
    "one-not-idempotent": {(11, 1): (1, 1), (5, 2): (1, 1), (7, 2): (1, 1), (13, 2): (1, 1)},
    "two-swapped": {(11, 1): (2, 2), (5, 2): (2, 5), (7, 2): (2, 2), (13, 2): (2, 2)},
}


@pytest.mark.parametrize("p,f", FIELDS)
@pytest.mark.parametrize("kind", ["generator-top-digit", "one-not-idempotent", "two-swapped"])
def test_generator_chain_keeps_the_first_witness(monkeypatch, p, f, kind):
    # each mutant fails the chain [g][c] == [gc] or [1]^2 == [1], and the
    # row then sweeps all pairs: it fails after one check, with the first
    # failing pair (a, b) as its witness
    ctx = chart(p, f)
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
    a, b = FIRST_BAD_PAIR[kind][p, f]
    assert check_torus_eigenvector(ctx).as_dict() == {
        "name": "torus-reindex-eigenvector", "status": "fail", "checked": 1,
        "counterexample": {"a": a, "b": b, "stage": "teichmuller-product"}}


def test_one_teichmuller_lift_per_unit(monkeypatch):
    ctx = chart(13, 2)
    calls = []
    _lift_mutant(monkeypatch, ctx, lambda e, right: calls.append(e) or right(e))
    assert check_torus_eigenvector(ctx).passed
    assert sorted(calls) == list(ctx.field.units())


def test_one_sum_and_decode_per_row(monkeypatch):
    # every unit's sum is a times the a = 1 sum, and every slot's a p^j-th
    # power of the slot-0 one, so the row reads one series per unit into
    # one packed sum and decodes it once: q - 1 = 168 series at p=13, f=2
    ctx = chart(13, 2, 30)  # built complete, before counting
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
    # every a fails at j = 1 only, and the count of differing monomials of
    # each failing (a, j) holds both discrepancies
    ctx = ChartContext(13, 2, 30)
    _perturb_y1(ctx, (2, 5))
    got, seen = _verdicts(monkeypatch, check_torus_eigenvector, ctx)
    assert seen == every_check(ctx, [0, 2])
    assert got == torus_row(ctx, {"a": 1, "j": 1, "discrepancies": 2})
    assert got["checked"] == 2 * (ctx.q - 1)
