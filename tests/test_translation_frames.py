"""The per-J translation and the per-(J, j0) aJn frame against the formulas
they replaced.

The reference bodies below are the one-call-per-tuple versions of
``translate_in_graph`` and ``aJn``, which re-derived the parts of J and the
tJx bumps on every call.  The frames must agree with them exactly on the
whole hypothesis window, and must raise the same exception with the same
message one step outside it.  A test pins which report row kills each
mutant of the two hoisted tables, so a hoist cannot hide a mutant behind
another row.  The origin-change and shifted-table sweeps compare each box or
domain in one pass and rerun it tuple by tuple only on a mismatch; the tests
at the end hold them to the one-call-per-tuple sweeps they replaced, and
hold ``run_suite`` to checking each distinct change-of-origin box once per
run and never across runs.
"""

import itertools
import json
import math
from copy import copy
from operator import add, mul

import pytest
from click.testing import CliRunner
from hypothesis import given
from hypothesis import strategies as st

from modpcheck import constants
from modpcheck.arith import RunScope
from modpcheck.base_combinatorics import SubsetJ, all_subsets, vmap
from modpcheck.cli import main
from modpcheck.constants import (
    AJnFrame,
    ConstantTables,
    Mutation,
    _frame_key,
    all_mutations,
    check_change_origin,
    check_shifted_table_additivity,
)
from modpcheck.errors import HypothesisViolation, RangeViolation
from modpcheck.harness import RunConfig, run_identities, run_suite
from modpcheck.reporting import Sweep
from modpcheck.weights import RhoParams, Translation, WeightB
from test_constants import aJn
from test_weights import indicator, translate_in_graph

PRESETS = ((11, 1, (4,)), (13, 2, (5, 6)), (17, 3, (7, 8, 7)))

PARAMS = [
    RhoParams.make(p, f, r, Jrho.members())
    for p, f, r in PRESETS
    for Jrho in all_subsets(f)
]


def _ids(params):
    return f"p{params.p}-f{params.f}-jrho{''.join(map(str, params.Jrho.members()))}"


# ---------------------------------------------------------------------------
# reference bodies


def translate_reference(params, J, b):
    f = params.f
    Jsh = params.sh(J)
    for j in range(f):
        lo = -(2 * (f - (1 if j in Jsh else 0)) + 1)
        hi = 2 * (f + (1 if j in Jsh else 0))
        if not lo <= b[j] <= hi:
            raise RangeViolation(f"b_{j}={b[j]} outside [{lo}, {hi}]")
    out = []
    for j in range(f):
        sign = -1 if (j + 1) in J else 1
        v = sign * (b[j] + (1 if j in J else 0))
        if j in Jsh:
            v += 2
        out.append(v)
    return WeightB(params, tuple(out))


def tJx(params, J, j, x):
    """One-variable shift exponent: write x = 2n + d with d in {0, 1}."""
    n, d = divmod(x, 2)
    bump = (params.r[j] + 1) if (j + 1) not in J else (params.p - 1 - params.r[j])
    return n * params.p + (bump if d else 0)


def aJn_reference(params, J, n, j0):
    f = params.f
    if n[(j0 + 1) % f] != 0:
        raise HypothesisViolation(f"n at slot j0+1 is {n[(j0 + 1) % f]}, expected 0")
    for j in range(f):
        if j == (j0 + 1) % f:
            continue
        hi = 2 * f - (1 if j in J else 0)
        if not 1 <= n[j] <= hi:
            raise HypothesisViolation(f"n_{j}={n[j]} outside [1, {hi}]")
    Jsh = params.sh(J)
    out = []
    for j in range(f):
        if j == j0 % f and j0 in Jsh:
            out.append(0)
        else:
            out.append(tJx(params, J, j, n[(j + 1) % f]) - n[j])
    return tuple(out)


def _same_outcome(ref, new, *args):
    """Both return equal values, or both raise the same type and message."""
    try:
        want = ref(*args)
    except (RangeViolation, HypothesisViolation) as e:
        with pytest.raises(type(e)) as got:
            new(*args)
        assert type(got.value) is type(e) and str(got.value) == str(e)
        return False
    assert new(*args) == want
    return True


# ---------------------------------------------------------------------------
# translation


def _translation_window(params, J):
    f = params.f
    Jsh = params.sh(J)
    return [
        (-(2 * (f - (1 if j in Jsh else 0)) + 1), 2 * (f + (1 if j in Jsh else 0)))
        for j in range(f)
    ]


@pytest.mark.parametrize("params", PARAMS, ids=_ids)
def test_translation_matches_reference_on_window(params):
    for J in params.subsets():
        window = _translation_window(params, J)
        translate = Translation(params, J)
        for ent in itertools.product(*(range(lo, hi + 1) for lo, hi in window)):
            want = translate_reference(params, J, ent)
            assert translate.image(ent) == want.b
            assert translate_in_graph(params, J, ent) == want


@pytest.mark.parametrize("params", PARAMS, ids=_ids)
def test_translation_errors_match_reference_outside_window(params):
    f = params.f
    for J in params.subsets():
        for j, (lo, hi) in enumerate(_translation_window(params, J)):
            for v in (lo - 1, hi + 1):
                ent = [0] * f
                ent[j] = v
                assert not _same_outcome(translate_reference, translate_in_graph,
                                         params, J, tuple(ent))


# ---------------------------------------------------------------------------
# aJn


def _ajn_window(params, J, j0):
    f = params.f
    anchor = (j0 + 1) % f
    return [
        (0, 0) if j == anchor else (1, 2 * f - (1 if j in J else 0))
        for j in range(f)
    ]


@pytest.mark.parametrize("params", PARAMS, ids=_ids)
def test_ajn_frame_matches_reference_on_window(params):
    f = params.f
    tables = ConstantTables(params, scope=RunScope())
    for J in params.subsets():
        for j0 in range(f):
            at = tables.aJn[J, j0]
            window = _ajn_window(params, J, j0)
            for ent in itertools.product(*(range(lo, hi + 1) for lo, hi in window)):
                want = aJn_reference(params, J, ent, j0)
                assert aJn(params, J, ent, j0) == want
                assert at(ent) == want


@pytest.mark.parametrize("params", PARAMS, ids=_ids)
def test_ajn_errors_match_reference_outside_window(params):
    f = params.f
    for J in params.subsets():
        for j0 in range(f):
            window = _ajn_window(params, J, j0)
            inside = [hi for _, hi in window]
            for j, (lo, hi) in enumerate(window):
                # anchor: 0 is the only value allowed, so both neighbours fail
                for v in (lo - 1, hi + 1):
                    ent = list(inside)
                    ent[j] = v
                    assert not _same_outcome(aJn_reference, aJn, params, J, tuple(ent), j0)


def test_ajn_anchor_checked_before_bounds():
    # both hypotheses fail: the anchor message wins, as in the reference
    params = RhoParams.make(13, 2, (5, 6), (0,))
    n = (9, 1)
    J = SubsetJ.of(2, [])
    with pytest.raises(HypothesisViolation, match="n at slot j0"):
        aJn_reference(params, J, n, 0)
    assert not _same_outcome(aJn_reference, aJn, params, J, n, 0)


# ---------------------------------------------------------------------------
# which row kills each mutant of the hoisted tables

KILLING_ROW = {"a": "change-origin-composition", "aJn": "shifted-table-additivity"}


@pytest.mark.parametrize("p,f,r", [(13, 2, (5, 6)), (17, 3, (7, 8, 7))],
                         ids=["p13-f2", "p17-f3"])
@pytest.mark.parametrize("table", sorted(KILLING_ROW))
def test_hoisted_table_mutants_fail_their_row(p, f, r, table):
    params = RhoParams.make(p, f, r, (0,))
    muts = [m for m in all_mutations(params) if m.table == table]
    assert len(muts) == 2**f * f
    for m in muts:
        failed = {res.name for res in run_identities(params, 0, m) if not res.passed}
        assert failed == {KILLING_ROW[table]}, (m, failed)


@pytest.mark.parametrize("params", PARAMS, ids=_ids)
def test_translation_names_first_bad_slot(params):
    # every slot outside the window at once: the message names slot 0
    for J in params.subsets():
        window = _translation_window(params, J)
        for side in (0, 1):
            ent = tuple(w[side] + (1 if side else -1) for w in window)
            with pytest.raises(RangeViolation, match="^b_0="):
                translate_in_graph(params, J, ent)
            assert not _same_outcome(translate_reference, translate_in_graph, params, J, ent)


# ---------------------------------------------------------------------------
# the origin-change sweep visits every tuple


def _non_separable(original):
    # a mutant of Translation.images: moves b'_0 only when b_1 sits at the
    # top of its window
    def mutant(self, ranges):
        out = original(self, ranges)
        return (b if ent[1] != self.hi[1] else (b[0] + 1,) + b[1:]
                for ent, b in zip(itertools.product(*ranges), out))

    return mutant


def test_change_origin_sweep_kills_non_separable_mutant(monkeypatch):
    """A translation that moves b'_0 only when b_1 sits at the top of its
    window agrees with the separable formula on every one-coordinate probe,
    so only a sweep over whole tuples can see it.  The mutant replaces
    ``Translation.images``, the one code path of the sweep and of
    ``image``."""
    mutant = _non_separable(Translation.images)

    for Jrho in all_subsets(3):
        params = RhoParams.make(17, 3, (7, 8, 7), Jrho.members())
        for J in params.subsets():
            # one coordinate moved at a time, the others at 0: output slot j
            # is unchanged, since b_1 = hi only when slot 1 is the one moved
            window = _translation_window(params, J)
            translate = Translation(params, J)
            for j, (lo, hi) in enumerate(window):
                line = tuple(range(lo, hi + 1) if i == j else (0,) for i in range(3))
                assert ([b[j] for b in mutant(translate, line)]
                        == [b[j] for b in translate.images(line)])
        with monkeypatch.context() as m:
            m.setattr(Translation, "images", mutant)
            rows = {res.name: res.passed for res in run_identities(params, 0)}
        assert rows.pop("change-origin-composition") is False
        assert all(rows.values()), rows


def test_frames_reject_position_of_other_f():
    params = RhoParams.make(17, 3, (7, 8, 7), (0,))
    J = SubsetJ.of(3, [0])
    for ent in ((0, 0), (1, 0, 1, 9)):
        with pytest.raises(RangeViolation, match="b indexed by f="):
            Translation(params, J).image(ent)
        with pytest.raises(HypothesisViolation, match="n indexed by f="):
            AJnFrame(*_frame_key(params, J, 0)).image(ent)


# ---------------------------------------------------------------------------
# the int-tuple image and the one-pass origin-change sweep


def with_offsets(translate, offsets):
    """A copy of translate with offsets in place of its own, its image
    tables built anew."""
    moved = copy(translate)
    moved._tabulate(offsets)
    return moved


def _expected_image(translate, ent):
    """The image tuple, or the message naming the first bad slot: the
    hypothesis window is checked first, then the weight window."""
    for j, (bj, lo, hi) in enumerate(zip(ent, translate.lo, translate.hi)):
        if not lo <= bj <= hi:
            return f"b_{j}={bj} outside [{lo}, {hi}]"
    out = tuple(map(add, map(mul, translate.signs, ent), translate._offsets))
    params = translate.params
    for j, bj in enumerate(out):
        if not -params.r[j] <= bj <= params.p - 2 - params.r[j]:
            return f"b_{j}={bj} outside [-r_j, p-2-r_j]"
    return out


@given(st.data())
def test_image_matches_formula_on_and_off_both_windows(data):
    params = data.draw(st.sampled_from(PARAMS))
    f, p = params.f, params.p
    translate = Translation(params, data.draw(st.sampled_from(list(params.subsets()))))
    ent = tuple(data.draw(st.integers(lo - 2, hi + 2))
                for lo, hi in zip(translate.lo, translate.hi))
    # moved offsets take the image off the weight window, which the genuine
    # translation never leaves on its hypothesis window
    shift = tuple(data.draw(st.integers(-p, p)) for _ in range(f))
    translate = with_offsets(translate, tuple(map(add, translate._offsets, shift)))
    want = _expected_image(translate, ent)
    if isinstance(want, tuple):
        assert translate.image(ent) == want
        assert WeightB(params, want).b == want
    else:
        with pytest.raises(RangeViolation) as got:
            translate.image(ent)
        assert str(got.value) == want
    # a box of up to 4 values a slot, some empty, on and off the windows:
    # images() equals image() tuple by tuple, in product order, and names the
    # first bad tuple as image() does
    ranges = tuple(range(lo, lo + data.draw(st.integers(0, 4)))
                   for lo in (data.draw(st.integers(lo - 3, hi + 2))
                              for lo, hi in zip(translate.lo, translate.hi)))
    box = list(itertools.product(*ranges))
    bad = next((e for e in box if not isinstance(_expected_image(translate, e), tuple)), None)
    if bad is None:
        assert list(translate.images(ranges)) == list(map(translate.image, box))
        return
    with pytest.raises(RangeViolation) as whole:
        translate.images(ranges)
    with pytest.raises(RangeViolation) as one:
        list(map(translate.image, box))
    assert str(whole.value) == str(one.value) == _expected_image(translate, bad)


def test_image_is_the_one_point_box(monkeypatch):
    # image() reads images(), so a fault patched into the box method shows
    # through image(), and no second mapping sits beside it
    params = RhoParams.make(17, 3, (7, 8, 7), (0,))
    translate = Translation(params, SubsetJ.of(3, [0]))
    ent = (0, translate.hi[1], 0)
    genuine = translate.image(ent)
    monkeypatch.setattr(Translation, "images", _non_separable(Translation.images))
    assert translate.image(ent) == (genuine[0] + 1,) + genuine[1:]
    monkeypatch.setattr(Translation, "images", lambda self, ranges: iter([(1, 2, 3)]))
    assert translate.image(ent) == (1, 2, 3)


@pytest.mark.parametrize("extra", [-1, 1], ids=["one-short", "one-long"])
def test_box_of_other_length_takes_the_per_tuple_walk(extra):
    # an images() stream one tuple short or long fails the one-pass
    # comparison, so the box is walked again one image() call per tuple
    params = RhoParams.make(17, 3, (7, 8, 7), (0,))
    J = SubsetJ.of(3, [0])
    genuine = Translation(params, J)
    ranges = tuple(range(lo, hi + 1) for lo, hi in _translation_window(params, J))
    walked = []

    class Stub:
        def images(self, ranges):
            out = list(genuine.images(ranges))
            return iter(out[:-1] if extra < 0 else out + out[-1:])

        def image(self, ent):
            walked.append(ent)
            return genuine.image(ent)

    base = ConstantTables(params, scope=RunScope()).a[J]
    checked, witness = constants._change_origin_box(J, ranges, base, Stub())
    assert witness is None
    assert walked == list(itertools.product(*ranges))
    assert checked == len(walked)


def test_change_origin_counts_every_tuple_of_each_f4_box():
    # J = {0, 2} is not an interval: every box of the f=4 row passes, and
    # each counts the product of its range lengths
    params = RhoParams.make(23, 4, (9, 10, 9, 10), (0, 2))
    scope = RunScope()
    tables = ConstantTables(params, scope=scope)
    res = check_change_origin(params, tables, scope)
    assert res.passed
    boxes = scope[constants._change_origin_box]
    total = 0
    for J in params.subsets():
        ranges = tuple(range(lo, hi + 1) for lo, hi in _translation_window(params, J))
        [(key, (checked, witness))] = [(key, value) for key, value in boxes.items()
                                       if key[:2] == (J, ranges)]
        assert witness is None
        assert checked == math.prod(map(len, ranges)) == sum(1 for _ in itertools.product(*ranges))
        total += checked
    assert len(boxes) == 16
    assert res.checked == total


def imaged_windows(params):
    """Per J, each b of the hypothesis window with its image: one
    translation call per tuple.  The images do not depend on the tables."""
    out = {}
    for J in params.subsets():
        translate = Translation(params, J)
        ranges = [range(lo, hi + 1) for lo, hi in _translation_window(params, J)]
        out[J] = [(ent, WeightB(params, translate.image(ent)).b)
                  for ent in itertools.product(*ranges)]
    return out


def change_origin_reference(params, tables, imaged=None):
    """The sweep as it was: one translation call and one check per tuple;
    imaged, from imaged_windows(params), holds the translation calls."""
    f = params.f
    imaged = imaged or imaged_windows(params)
    sw = Sweep("change-origin-composition")
    for J in params.subsets():
        base = tables.a[J]
        signs = tuple(-1 if (j + 1) in J else 1 for j in range(f))
        for ent, got in imaged[J]:
            want = tuple(map(add, base, map(mul, signs, ent)))
            sw.check(got == want, J=J, b=ent)
    return sw.result()


@pytest.mark.parametrize("p,f,r,jrho", [(13, 2, (5, 6), (0,)), (13, 2, (5, 6), (0, 1)),
                                        (17, 3, (7, 8, 7), (0,))],
                         ids=["p13-f2-jrho0", "p13-f2-jrho01", "p17-f3-jrho0"])
def test_one_pass_sweep_matches_per_tuple_reference_under_a_mutants(p, f, r, jrho):
    params = RhoParams.make(p, f, r, jrho)
    muts = [None] + [
        Mutation("a", m.jmask, m.j, delta=delta)
        for m in all_mutations(params) if m.table == "a"
        for delta in ((1, -1) if f == 2 else (1,))
    ]
    imaged = imaged_windows(params)
    for m in muts:
        tables = ConstantTables(params, m, scope=RunScope())
        got = check_change_origin(params, tables, RunScope()).as_dict()
        want = change_origin_reference(params, tables, imaged).as_dict()
        assert got == want, m
        assert (got["status"] == "pass") == (m is None)


def test_change_origin_sweep_images_every_tuple(monkeypatch):
    # each box goes through images once, whole, its images in product
    # order, and is counted once
    params = RhoParams.make(17, 3, (7, 8, 7), (0,))
    seen = {}
    original = Translation.images

    def recording(self, ranges):
        out = list(original(self, ranges))
        seen.setdefault(self.signs, []).append((list(itertools.product(*ranges)), out))
        return iter(out)

    monkeypatch.setattr(Translation, "images", recording)
    scope = RunScope()
    res = check_change_origin(params, ConstantTables(params, scope=scope), scope)
    assert res.passed
    total = 0
    for J in params.subsets():
        signs = tuple(-1 if (j + 1) in J else 1 for j in range(3))
        box = list(itertools.product(
            *(range(lo, hi + 1) for lo, hi in _translation_window(params, J))
        ))
        [(ents, out)] = seen.pop(signs)
        assert ents == box
        assert out == [translate_reference(params, J, ent).b for ent in box]
        total += len(box)
    assert not seen
    assert res.checked == total


def _offsets_leave_weight_window(monkeypatch):
    # every image moves p to the right in slot 0, past p-2-r_0
    def leaving(params, J):
        genuine = Translation(params, J)
        return with_offsets(genuine, (genuine._offsets[0] + params.p,) + genuine._offsets[1:])

    monkeypatch.setattr(constants, "Translation", leaving)


def test_image_off_weight_window_fails_the_row(monkeypatch):
    params = RhoParams.make(13, 2, (5, 6), (0,))
    scope = RunScope()
    healthy = check_change_origin(params, ConstantTables(params, scope=scope), scope)
    _offsets_leave_weight_window(monkeypatch)
    rows = {res.name: res for res in run_identities(params, 0)}
    row = rows.pop("change-origin-composition")
    assert not row.passed
    assert row.checked == healthy.checked
    assert row.counterexample == {
        "J": [], "b": [-5, -5], "error": "b_0=8 outside [-r_j, p-2-r_j]",
    }
    assert all(res.passed for res in rows.values())


def test_cli_image_off_weight_window_exits_1(monkeypatch):
    _offsets_leave_weight_window(monkeypatch)
    res = CliRunner().invoke(
        main, ["verify", "--p", "13", "--f", "2", "--r", "5,6", "--suite", "identities"]
    )
    assert res.exit_code == 1, res.output
    failed = [row for row in json.loads(res.stdout)["suites"] if row["status"] == "fail"]
    assert {row["name"].split("@")[0] for row in failed} == {
        "identities/change-origin-composition"
    }
    assert all("error" in row["counterexample"] for row in failed)


# ---------------------------------------------------------------------------
# the per-slot image tables


LOOKUP_PARAMS = [
    *(RhoParams.make(13, 2, (5, 6), Jrho.members()) for Jrho in all_subsets(2)),
    RhoParams.make(17, 3, (7, 8, 7), ()),
    RhoParams.make(17, 3, (7, 8, 7), (0, 1, 2)),
]


@pytest.mark.parametrize("params", LOOKUP_PARAMS, ids=_ids)
def test_image_tables_match_expected_on_widened_window(params):
    # every tuple of the hypothesis window widened by 2 in each slot, with
    # the genuine offsets and with offsets moved so that images leave the
    # weight window on both sides; the tables must follow the offsets
    f, p = params.f, params.p
    for J in params.subsets():
        translate = Translation(params, J)
        genuine = translate._offsets
        box = list(itertools.product(
            *(range(lo - 2, hi + 3) for lo, hi in zip(translate.lo, translate.hi))
        ))
        for shift in ((0,) * f, (p // 2,) + (-p // 2,) * (f - 1), (-3,) * f):
            translate = with_offsets(translate, tuple(map(add, genuine, shift)))
            for ent in box:
                want = _expected_image(translate, ent)
                if isinstance(want, tuple):
                    assert translate.image(ent) == want
                    continue
                with pytest.raises(RangeViolation) as got:
                    translate.image(ent)
                assert str(got.value) == want, (J, shift, ent)


@pytest.mark.parametrize("params", [PARAMS[0], PARAMS[2], PARAMS[-1]], ids=_ids)
def test_image_rejects_entries_of_other_length(params):
    f = params.f
    for J in params.subsets():
        translate = Translation(params, J)
        for n in sorted({1, f - 1, f + 1, f + 2} - {0, f}):
            ent = (0,) * n
            want = f"b indexed by f={n}, translation by f={f}"
            with pytest.raises(RangeViolation) as got:
                translate.image(ent)
            assert str(got.value) == want


def test_translation_is_a_value_that_never_changes():
    # a translation keys the shared change-of-origin boxes, so its hash
    # must not move: its slots take no public offsets, and with_offsets
    # makes another
    params = RhoParams.make(13, 2, (5, 6), (0,))
    J = SubsetJ(2, 1)
    translate = Translation(params, J)
    genuine = translate._offsets
    assert translate == Translation(params, J)
    assert hash(translate) == hash(Translation(params, J))
    with pytest.raises(AttributeError):
        translate.offsets = genuine
    moved = with_offsets(translate, tuple(x + 1 for x in genuine))
    assert moved != translate
    assert moved == with_offsets(translate, moved._offsets)
    assert translate._offsets == genuine
    assert translate.image((0, 0)) == genuine
    assert moved.image((0, 0)) == moved._offsets


def test_shifted_table_additivity_builds_one_frame_per_j_j0(monkeypatch):
    params = RhoParams.make(17, 3, (7, 8, 7), (0,))
    scope = RunScope()
    healthy = check_shifted_table_additivity(params, ConstantTables(params, scope=scope), scope)
    built = []
    original = AJnFrame.__init__

    def recording(self, p, f, r, J, j0, zero):
        built.append((J.bits, j0))
        original(self, p, f, r, J, j0, zero)

    monkeypatch.setattr(AJnFrame, "__init__", recording)
    scope = RunScope()
    res = check_shifted_table_additivity(params, ConstantTables(params, scope=scope), scope)
    assert res.as_dict() == healthy.as_dict() and res.passed
    want = set()
    for J in params.subsets():
        Jsh = params.sh(J)
        for Jp in params.subsets():
            if not Jp <= J:
                continue
            for j0 in range(3):
                if (j0 + 1) in (J - Jp):
                    continue
                if j0 in Jsh and not ((J & params.Jrho) | SubsetJ.of(3, [j0 + 1])) <= Jp:
                    continue
                want |= {(J.bits, j0), (Jp.bits, j0)}
    assert len(built) == len(set(built))
    assert set(built) == want


# ---------------------------------------------------------------------------
# the one-pass shifted-table sweep


def shifted_additivity_reference(params, tables):
    """The sweep as it was: two table reads and one check per n."""
    f = params.f
    sw = Sweep("shifted-table-additivity")
    for J in params.subsets():
        Jsh = params.sh(J)
        for Jp in params.subsets():
            if not Jp <= J:
                continue
            diff = J - Jp
            rdiff, shift = tables.r[diff], indicator(diff)
            for j0 in range(f):
                if (j0 + 1) in diff:
                    continue
                if j0 in Jsh and not ((J & params.Jrho) | SubsetJ.of(f, [j0 + 1])) <= Jp:
                    continue
                window = _ajn_window(params, J, j0)
                for ent in itertools.product(*(range(lo, hi + 1) for lo, hi in window)):
                    lhs = vmap(add, tables.aJn[J, j0](ent), rdiff)
                    rhs = tables.aJn[Jp, j0](vmap(add, ent, shift))
                    sw.check(lhs == rhs, J=J, Jp=Jp, j0=j0, n=ent, lhs=lhs, rhs=rhs)
    return sw.result()


@pytest.mark.parametrize("p,f,r,jrho", [(13, 2, (5, 6), (0,)), (13, 2, (5, 6), (0, 1)),
                                        (17, 3, (7, 8, 7), (0,))],
                         ids=["p13-f2-jrho0", "p13-f2-jrho01", "p17-f3-jrho0"])
def test_shifted_table_one_pass_matches_per_n_reference_under_mutants(p, f, r, jrho):
    # an aJn bump reaches the tuple pass; an r bump moves rdiff
    params = RhoParams.make(p, f, r, jrho)
    muts = [None] + [
        Mutation(m.table, m.jmask, m.j, delta=delta)
        for m in all_mutations(params) if m.table in ("aJn", "r")
        for delta in ((1, -1) if f == 2 else (1,))
    ]
    failing = set()
    for m in muts:
        tables = ConstantTables(params, m, scope=RunScope())
        got = check_shifted_table_additivity(params, tables, RunScope()).as_dict()
        assert got == shifted_additivity_reference(params, tables).as_dict(), m
        if got["status"] == "fail":
            failing.add(m and m.table)
    assert failing == {"aJn", "r"}


def test_shifted_table_sweep_reads_the_frame_image(monkeypatch):
    # a frame image wrong at one n of one table fails the row at that n, with
    # the counterexample the per-n sweep records
    params = RhoParams.make(17, 3, (7, 8, 7), (0,))
    original = AJnFrame.image

    def mutant(self, ent):
        out = original(self, ent)
        return (out[0] + 1,) + out[1:] if ent == (2, 0, 3) and self.anchor == 1 else out

    monkeypatch.setattr(AJnFrame, "image", mutant)
    tables = ConstantTables(params, scope=RunScope())
    got = check_shifted_table_additivity(params, tables, RunScope()).as_dict()
    assert got["status"] == "fail"
    assert got == shifted_additivity_reference(params, tables).as_dict()
    frame = AJnFrame(*_frame_key(params, SubsetJ.of(3, []), 0))
    assert frame.image((2, 0, 3)) != original(frame, (2, 0, 3))


# ---------------------------------------------------------------------------
# change-of-origin boxes shared by the Jrho jobs of one run, in its RunScope

F3_IDENTITIES = RunConfig(p=17, f=3, r=(7, 8, 7), suites=("identities",))


def _origin_rows(report):
    return [row for row in report.suites if "/change-origin-composition@" in row["name"]]


def test_run_suite_images_each_distinct_box_once(monkeypatch):
    # 8 Jrho x 8 J = 64 boxes, of which 18 are distinct: each goes through
    # images once, whole and in product order, and every Jrho row still
    # equals the per-tuple reference
    calls = []
    original = Translation.images

    def recording(self, ranges):
        out = list(original(self, ranges))
        calls.append(((self.lo, self.hi, self.signs, self._offsets),
                      list(itertools.product(*ranges)), out))
        return iter(out)

    with monkeypatch.context() as m:
        m.setattr(Translation, "images", recording)
        report = run_suite(F3_IDENTITIES)
    assert len(calls) == len({state for state, _, _ in calls}) == 18
    for (lo, hi, signs, offsets), ents, out in calls:
        assert ents == list(itertools.product(*map(range, lo, (h + 1 for h in hi))))
        assert out == [tuple(map(add, map(mul, signs, ent), offsets)) for ent in ents]
    rows = _origin_rows(report)
    assert len(rows) == 8
    for params, row in zip(F3_IDENTITIES.param_sets(), rows):
        want = change_origin_reference(params, ConstantTables(params, scope=RunScope())).as_dict()
        assert dict(row, name=want["name"]) == want


def test_box_sharing_ends_with_the_run(monkeypatch):
    # a healthy run first; the mutant must then fail every Jrho, so no box
    # outlives the run that checked it
    assert run_suite(F3_IDENTITIES).passed
    monkeypatch.setattr(Translation, "images", _non_separable(Translation.images))
    res = CliRunner().invoke(
        main, ["verify", "--p", "17", "--f", "3", "--r", "7,8,7", "--suite", "identities"]
    )
    assert res.exit_code == 1, res.output
    for rows in (run_suite(F3_IDENTITIES).suites, json.loads(res.stdout)["suites"]):
        failed = [row for row in rows if row["status"] == "fail"]
        assert failed == [row for row in rows if "/change-origin-composition@" in row["name"]]
        assert len(failed) == 8


def test_shared_boxes_key_on_the_base():
    # one scope over a healthy run and then every a mutant: each mutant row
    # equals its unshared row, so a healthy box never stands in for it
    params = RhoParams.make(13, 2, (5, 6), (0,))
    scope = RunScope()
    assert all(res.passed for res in run_identities(params, 0, None, scope))
    for m in all_mutations(params):
        if m.table != "a":
            continue
        shared = [res.as_dict() for res in run_identities(params, 0, m, scope)]
        assert shared == [res.as_dict() for res in run_identities(params, 0, m)]
        assert any(row["status"] == "fail" for row in shared)
