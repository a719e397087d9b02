"""The RunScope of run_suite: the work its Jrho jobs share, built once per run.

Each memo of the scope has two tests here.  A wrong value patched into the
build after a healthy run must fail its row on every Jrho, so no value
outlives the run that built it.  A mutated table that shares a scope with
healthy jobs must get the rows it gets in a scope of its own, so each key
holds what its value depends on.  The change-of-origin boxes have theirs in
test_translation_frames.py.  For the shifted-table domains and reindexing
blocks a third test pins how many a run builds, so a key that picked up a
per-job object would fail it.  The theta rows and the classifier row hold
no Jrho, so no mutant reaches them: they have the fault test and the count.
The slot corrections and the unit action are not shared: their fault tests
show that the unit-matrix rows read phigamma.cocycle_factor and
phigamma.unit_action as they are when they run.  The chart context, with
its Lucas rows, is shared by the iwasawa and phigamma jobs: a fault in its
conversion or in its row build after a healthy run fails a row, and no
chart is alive once its run has returned.
"""

import gc
import weakref

from modpcheck import constants, harness, iwasawa, phigamma
from modpcheck.arith import RunScope
from modpcheck.constants import (
    AJnFrame,
    ConstantTables,
    _additivity_domain,
    _reindex_block,
    all_mutations,
    identity_sweeps,
)
from modpcheck.harness import RunConfig, run_identities, run_suite
from modpcheck.reporting import Sweep, _plain, run_table

F3_IDENTITIES = RunConfig(p=17, f=3, r=(7, 8, 7), suites=("identities",))
F2_PHIGAMMA = RunConfig(p=13, f=2, r=(5, 6), suites=("phigamma",), units=4)
F2_PARAMS = RunConfig(p=13, f=2, r=(5, 6)).param_sets()


def _failing(report):
    return [row["name"] for row in report.suites if row["status"] != "pass"]


def _rows_named(report, row):
    return [r["name"] for r in report.suites if f"/{row}@" in r["name"]]


def _counting(monkeypatch, cls, counts, name):
    original = cls.__init__

    def init(self, *args, **kwargs):
        counts[name] = counts.get(name, 0) + 1
        original(self, *args, **kwargs)

    monkeypatch.setattr(cls, "__init__", init)


def test_identity_rows_are_listed_without_building_tables(monkeypatch):
    # one table per Jrho job, and each of the 30 distinct frames once
    # (8 J x 3 j0, plus the zero-slot variants of some j0 in J^sh)
    counts = {}
    _counting(monkeypatch, ConstantTables, counts, "tables")
    _counting(monkeypatch, AJnFrame, counts, "frames")
    report = run_suite(F3_IDENTITIES)
    assert report.passed
    assert counts == {"tables": 8, "frames": 30}
    params = F3_IDENTITIES.param_sets()[0]
    [(listed, _)] = harness.identities_table(F3_IDENTITIES, params, RunScope())
    sweeps = identity_sweeps(params, scope=RunScope())
    assert listed == tuple(name for names, _ in sweeps for name in names)


# ---------------------------------------------------------------------------
# aJn frames


def test_frame_fault_after_a_healthy_run_fails_every_jrho(monkeypatch):
    assert run_suite(F3_IDENTITIES).passed
    original = AJnFrame._formula

    def mutant(self, ent):
        out = original(self, ent)
        return (out[0] + 1,) + out[1:] if ent == (2, 0, 3) and self.anchor == 1 else out

    monkeypatch.setattr(AJnFrame, "_formula", mutant)
    report = run_suite(F3_IDENTITIES)
    assert _failing(report) == _rows_named(report, "shifted-table-additivity")
    assert len(_failing(report)) == 8


def test_aJn_mutants_sharing_frames_get_their_unshared_rows():
    scope = RunScope()
    for params in F2_PARAMS:
        assert all(res.passed for res in run_identities(params, 0, None, scope))
    # 4 Jrho x 8 (J, j0) tables read 10 distinct frames
    assert len(scope[AJnFrame]) == 10
    killed = 0
    for params in F2_PARAMS:
        for m in all_mutations(params):
            if m.table != "aJn":
                continue
            shared = [res.as_dict() for res in run_identities(params, 0, m, scope)]
            assert shared == [res.as_dict() for res in run_identities(params, 0, m)]
            killed += any(row["status"] == "fail" for row in shared)
    assert killed == 30  # of 32; two survive at the full Jrho
    assert len(scope[AJnFrame]) == 10


# ---------------------------------------------------------------------------
# shifted-table domains and reindexing blocks


def _counting_builds(monkeypatch):
    # how many times each build runs; the scope keys its memo on the wrapper
    counts = {}
    for build in (_additivity_domain, _reindex_block):
        def wrapped(*key, build=build):
            counts[build.__name__] = counts.get(build.__name__, 0) + 1
            return build(*key)
        monkeypatch.setattr(constants, build.__name__, wrapped)
    return counts


def test_each_distinct_domain_and_block_is_built_once_per_run(monkeypatch):
    # 8 Jrho look up 390 additivity domains, 63 of them distinct, and 48
    # reindexing blocks, 27 of them distinct; a key that held a per-job
    # object would build all of them
    counts = _counting_builds(monkeypatch)
    assert run_suite(F3_IDENTITIES).passed
    assert counts == {"_additivity_domain": 63, "_reindex_block": 27}
    counts.clear()
    for params in F3_IDENTITIES.param_sets():
        assert all(res.passed for res in run_identities(params, 0, None, None))
    assert counts == {"_additivity_domain": 390, "_reindex_block": 48}


def test_f3_run_suite_identity_rows_equal_unshared_job_rows():
    assert run_suite(F3_IDENTITIES).suites == _unshared_rows(F3_IDENTITIES)


def test_mutants_sharing_domains_and_blocks_get_their_unshared_rows():
    # aJn and r reach the additivity domains, s and tJJp the reindexing
    # blocks; a mutant of a table neither sweep reads adds no entry
    scope = RunScope()
    for params in F2_PARAMS:
        assert all(res.passed for res in run_identities(params, 0, None, scope))

    def sizes():
        return len(scope[_additivity_domain]), len(scope[_reindex_block])

    assert sizes() == (14, 6)
    failing = {}
    for params in F2_PARAMS:
        for m in all_mutations(params):
            before = sizes()
            shared = [res.as_dict() for res in run_identities(params, 0, m, scope)]
            assert shared == [res.as_dict() for res in run_identities(params, 0, m)], m
            if m.table in ("a", "t", "c", "cprime"):
                assert sizes() == before, m
            for row in shared:
                if row["status"] == "fail" and row["name"] in (
                        "shifted-table-additivity", "shift-overlap-reindex"):
                    assert "counterexample" in row
                    failing.setdefault(row["name"], set()).add(m.table)
    assert failing == {"shifted-table-additivity": {"aJn", "r"},
                       "shift-overlap-reindex": {"s", "tJJp"}}


def test_domain_fault_after_a_healthy_run_fails_every_jrho(monkeypatch):
    assert run_suite(F3_IDENTITIES).passed

    def bumped(J, Jp, j0, at_J, at_Jp, rdiff):
        return _additivity_domain(J, Jp, j0, at_J, at_Jp, (rdiff[0] + 1,) + rdiff[1:])

    monkeypatch.setattr(constants, "_additivity_domain", bumped)
    report = run_suite(F3_IDENTITIES)
    assert _failing(report) == _rows_named(report, "shifted-table-additivity")
    assert len(_failing(report)) == 8


def test_block_fault_after_a_healthy_run_fails_every_jrho_it_reads(monkeypatch):
    # the sweep reads no block at the full Jrho, where J-1 has no
    # non-special slot for any J
    assert run_suite(F3_IDENTITIES).passed
    monkeypatch.setattr(constants, "_reindex_block",
                        lambda p, *key: _reindex_block(p + 1, *key))
    report = run_suite(F3_IDENTITIES)
    want = _rows_named(report, "shift-overlap-reindex")[:-1]
    assert _failing(report) == want
    assert len(want) == 7


# ---------------------------------------------------------------------------
# slot corrections and the unit action


def test_slot_correction_fault_after_a_healthy_run_fails_every_jrho(monkeypatch):
    assert run_suite(F2_PHIGAMMA).passed
    original = phigamma.cocycle_factor
    monkeypatch.setattr(phigamma, "cocycle_factor",
                        lambda ctx, u, j, numerator: original(ctx, u, j, numerator + 1))
    report = run_suite(F2_PHIGAMMA)
    assert _failing(report) == _rows_named(report, "unit-substitution-commutation")
    assert len(_failing(report)) == 4


def test_unit_action_fault_after_a_healthy_run_fails_every_jrho(monkeypatch):
    assert run_suite(F2_PHIGAMMA).passed
    original = phigamma.unit_action

    def doubled(ctx, u, x):
        y = original(ctx, u, x)
        return y if not ctx.unit_data[u][1] else y.scale(2)

    monkeypatch.setattr(phigamma, "unit_action", doubled)
    report = run_suite(F2_PHIGAMMA)
    want = (_rows_named(report, "unit-substitution-commutation")
            + _rows_named(report, "unit-matrix-cocycle"))
    assert sorted(_failing(report)) == sorted(want)
    assert len(want) == 8


# ---------------------------------------------------------------------------
# the chart context and its Lucas rows


F2_CHART = RunConfig(p=13, f=2, r=(5, 6), jrho=(0,), suites=("phigamma",))
F1_CHART = RunConfig(p=11, f=1, r=(4,), suites=("iwasawa",))


def test_chart_fault_after_a_healthy_run_fails_the_unit_matrix_row(monkeypatch):
    # the row operations of M^T substitute (M^T)^-1, the transpose of M^-1:
    # a wrong chart conversion, which a chart kept from the healthy run
    # would hide
    assert run_suite(F2_CHART).passed
    right = iwasawa.gauss_jordan
    monkeypatch.setattr(iwasawa, "gauss_jordan",
                        lambda field, rows: right(field, [list(r) for r in zip(*rows)]))
    report = run_suite(F2_CHART)
    assert _failing(report) == _rows_named(report, "unit-matrix-structure")
    assert len(_failing(report)) == 1


def test_row_fault_after_a_healthy_run_fails_the_rows_that_read_it(monkeypatch):
    # the last entry of every Lucas row longer than 1 is off by one
    assert run_suite(F1_CHART).passed
    right = iwasawa._lucas_row

    def mutant(p, r, length):
        row = right(p, r, length)
        return row[:-1] + ((row[-1] + 1) % p,) if length > 1 else row

    monkeypatch.setattr(iwasawa, "_lucas_row", mutant)
    report = run_suite(F1_CHART)
    assert _failing(report) == (_rows_named(report, "binomial-exponent-additivity")
                                + _rows_named(report, "unit-action-composition"))


def test_no_chart_outlives_its_run(monkeypatch):
    # the one chart of a run that reads it in every suite: dead once the
    # report is returned and the cycles of its Memos are collected
    built = []
    plain = iwasawa.ChartContext.__init__

    def init(self, *key):
        built.append(weakref.ref(self))
        plain(self, *key)

    monkeypatch.setattr(iwasawa.ChartContext, "__init__", init)
    assert run_suite(RunConfig(p=11, f=1, r=(4,))).passed
    gc.collect()
    assert len(built) == 1
    assert built[0]() is None


# ---------------------------------------------------------------------------
# theta rows and the classifier row


_JRHO_FREE = ("check_theta_basics", "check_theta_solver", "check_eigen_classifier")


def test_jrho_free_rows_are_built_once_per_run(monkeypatch):
    # the 4 Jrho jobs read one row each; a key that held the job's own
    # params would build all 4, as the jobs do in scopes of their own
    counts = {}
    for name in _JRHO_FREE:
        def wrapped(*key, check=getattr(harness, name), name=name):
            counts[name] = counts.get(name, 0) + 1
            return check(*key)
        monkeypatch.setattr(harness, name, wrapped)
    assert run_suite(F2_PHIGAMMA).passed
    assert counts == dict.fromkeys(_JRHO_FREE, 1)
    counts.clear()
    _unshared_rows(F2_PHIGAMMA)
    assert counts == dict.fromkeys(_JRHO_FREE, 4)


def test_theta_solver_fault_after_a_healthy_run_fails_every_jrho(monkeypatch):
    assert run_suite(F2_PHIGAMMA).passed
    original = harness.check_theta_solver

    def broken(*key):
        res = original(*key)
        row = Sweep(res.name)
        row.add(res.checked, {"claim": "patched"})
        return row.result(res.info)

    monkeypatch.setattr(harness, "check_theta_solver", broken)
    report = run_suite(F2_PHIGAMMA)
    assert _failing(report) == _rows_named(report, "theta-solver")
    assert len(_failing(report)) == 4


# ---------------------------------------------------------------------------
# the scope changes no row


def _unshared_rows(config):
    # the rows of run_suite, each job run in a scope emptied before it
    rows = []
    scope = RunScope()
    for suite, tag, table in harness._jobs(config, scope):
        scope.clear()
        for res in run_table(table):
            row = res.as_dict()
            row["name"] = f"{suite}/{row['name']}@{tag}"
            rows.append(_plain(row))
    return rows


def test_f2_run_suite_rows_equal_unshared_job_rows():
    config = RunConfig(p=13, f=2, r=(5, 6))
    assert run_suite(config).suites == _unshared_rows(config)
