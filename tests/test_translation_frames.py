"""The per-J translation and the per-(J, j0) aJn frame against the formulas
they replaced.

The reference bodies below are the one-call-per-tuple versions of
``translate_in_graph`` and ``aJn``, which re-derived the parts of J and the
tJx bumps on every call.  The frames must agree with them exactly on the
whole hypothesis window, and must raise the same exception with the same
message one step outside it.  The last test pins which report row kills each
mutant of the two hoisted tables, so a hoist cannot hide a mutant behind
another row.
"""

import itertools

import pytest

from modpcheck.base_combinatorics import IntVec, SubsetJ, all_subsets
from modpcheck.constants import AJnFrame, ConstantTables, all_mutations
from modpcheck.errors import HypothesisViolation, RangeViolation
from modpcheck.harness import run_identities
from modpcheck.weights import RhoParams, Translation, WeightB

PRESETS = ((11, 1, (4,)), (13, 2, (5, 6)), (17, 3, (7, 8, 7)))

PARAMS = [
    RhoParams.make(p, f, r, Jrho.members())
    for p, f, r in PRESETS
    for Jrho in all_subsets(f)
]


def _ids(params):
    return f"p{params.p}-f{params.f}-jrho{''.join(map(str, params.Jrho.members()))}"


def translate_in_graph(params: RhoParams, J: SubsetJ, b: IntVec) -> WeightB:
    """Weight reached from position b after the J-translation (see Translation)."""
    return Translation(params, J)(b)


# ---------------------------------------------------------------------------
# reference bodies


def translate_reference(params, J, b):
    f = params.f
    _, _, Jsh = params.parts(J)
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
    return WeightB(params, IntVec(f, tuple(out)))


def tJx(params, J, j, x):
    """One-variable shift exponent: write x = 2n + d with d in {0, 1}."""
    n, d = divmod(x, 2)
    bump = (params.r[j] + 1) if (j + 1) not in J else (params.p - 1 - params.r[j])
    return n * params.p + (bump if d else 0)


def aJn(params, J, n, j0):
    return AJnFrame(params, J, j0)(n)


def aJn_reference(params, J, n, j0):
    f = params.f
    if n[j0 + 1] != 0:
        raise HypothesisViolation(f"n at slot j0+1 is {n[j0 + 1]}, expected 0")
    for j in range(f):
        if j == (j0 + 1) % f:
            continue
        hi = 2 * f - (1 if j in J else 0)
        if not 1 <= n[j] <= hi:
            raise HypothesisViolation(f"n_{j}={n[j]} outside [1, {hi}]")
    _, _, Jsh = params.parts(J)
    out = []
    for j in range(f):
        if j == j0 % f and j0 in Jsh:
            out.append(0)
        else:
            out.append(tJx(params, J, j, n[j + 1]) - n[j])
    return IntVec(f, tuple(out))


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
    _, _, Jsh = params.parts(J)
    return [
        (-(2 * (f - (1 if j in Jsh else 0)) + 1), 2 * (f + (1 if j in Jsh else 0)))
        for j in range(f)
    ]


@pytest.mark.parametrize("params", PARAMS, ids=_ids)
def test_translation_matches_reference_on_window(params):
    f = params.f
    for J in params.subsets():
        window = _translation_window(params, J)
        translate = Translation(params, J)
        for ent in itertools.product(*(range(lo, hi + 1) for lo, hi in window)):
            b = IntVec(f, ent)
            want = translate_reference(params, J, b)
            assert translate(b) == want
            assert translate_in_graph(params, J, b) == want


@pytest.mark.parametrize("params", PARAMS, ids=_ids)
def test_translation_errors_match_reference_outside_window(params):
    f = params.f
    for J in params.subsets():
        for j, (lo, hi) in enumerate(_translation_window(params, J)):
            for v in (lo - 1, hi + 1):
                ent = [0] * f
                ent[j] = v
                b = IntVec(f, tuple(ent))
                assert not _same_outcome(translate_reference, translate_in_graph,
                                         params, J, b)


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
    tables = ConstantTables(params)
    for J in params.subsets():
        for j0 in range(f):
            at = tables.aJn_at(J, j0)
            window = _ajn_window(params, J, j0)
            for ent in itertools.product(*(range(lo, hi + 1) for lo, hi in window)):
                n = IntVec(f, ent)
                want = aJn_reference(params, J, n, j0)
                assert aJn(params, J, n, j0) == want
                assert at(n) == want
                assert tables.aJn(J, n, j0) == want


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
                    n = IntVec(f, tuple(ent))
                    assert not _same_outcome(aJn_reference, aJn, params, J, n, j0)


def test_ajn_anchor_checked_before_bounds():
    # both hypotheses fail: the anchor message wins, as in the reference
    params = RhoParams.make(13, 2, (5, 6), (0,))
    n = IntVec.of((9, 1))
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
    f = params.f
    for J in params.subsets():
        window = _translation_window(params, J)
        for side in (0, 1):
            ent = tuple(w[side] + (1 if side else -1) for w in window)
            b = IntVec(f, ent)
            with pytest.raises(RangeViolation, match="^b_0="):
                translate_in_graph(params, J, b)
            assert not _same_outcome(translate_reference, translate_in_graph, params, J, b)


# ---------------------------------------------------------------------------
# the origin-change sweep visits every tuple


def test_change_origin_sweep_kills_non_separable_mutant(monkeypatch):
    """A translation that moves b'_0 only when b_1 sits at the top of its
    window agrees with the separable formula on every one-coordinate probe,
    so only a sweep over whole tuples can see it."""
    original = Translation.__call__

    def mutant(self, b):
        w = original(self, b)
        if b.entries[1] != self.hi[1]:
            return w
        ent = (w.b.entries[0] + 1,) + w.b.entries[1:]
        return WeightB(self.params, IntVec(self.params.f, ent))

    for Jrho in all_subsets(3):
        params = RhoParams.make(17, 3, (7, 8, 7), Jrho.members())
        for J in params.subsets():
            # one coordinate moved at a time, the others at 0: output slot j
            # is unchanged, since b_1 = hi only when slot 1 is the one moved
            window = _translation_window(params, J)
            translate = Translation(params, J)
            for j, (lo, hi) in enumerate(window):
                for v in range(lo, hi + 1):
                    b = IntVec(3, tuple(v if i == j else 0 for i in range(3)))
                    assert mutant(translate, b).b[j] == translate(b).b[j]
        with monkeypatch.context() as m:
            m.setattr(Translation, "__call__", mutant)
            rows = {res.name: res.passed for res in run_identities(params, 0)}
        assert rows.pop("change-origin-composition") is False
        assert all(rows.values()), rows


def test_frames_reject_position_of_other_f():
    params = RhoParams.make(17, 3, (7, 8, 7), (0,))
    J = SubsetJ.of(3, [0])
    for ent in ((0, 0), (1, 0, 1, 9)):
        with pytest.raises(RangeViolation, match="b indexed by f="):
            Translation(params, J)(IntVec.of(ent))
        with pytest.raises(HypothesisViolation, match="n indexed by f="):
            AJnFrame(params, J, 0)(IntVec.of(ent))
