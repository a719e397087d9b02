"""Acceptance gate: one test per published criterion, run at desk scale.

Every combinatorial claim is swept exhaustively over the preset grid
(f = 1, 2, 3 with p = 11, 13, 17 and every Jrho); sampled claims use fixed
seeds.  Measurements and precision floors land in the terminal summary via
conftest.detail_lines.
"""

import time

import conftest
from modpcheck.arith import RunScope
from modpcheck.constants import (
    ConstantTables,
    all_mutations,
    check_change_origin,
    check_domination_claims,
    check_weight_table_bounds,
    mu_gamma,
)
from modpcheck.harness import (
    identities_table,
    iwasawa_table,
    list_params,
    run_identities,
    run_weights,
)
from modpcheck.phigamma import (
    check_phi_matrix_shapes,
    check_right_inverse,
    check_theta_solver,
    check_twist_change_of_basis,
    check_unit_action_matrices,
)
from modpcheck.weights import RhoParams


def _param_sets(f=None):
    out = []
    for cfg in list_params(f):
        out.extend(cfg.param_sets())
    return out


def _note(line):
    conftest.detail_lines.append(line)


def _table_rows(table):
    return [res for _, thunk in table for res in thunk()]


def test_criterion_1_constant_identities_exhaustive():
    budget = {1: 60.0, 2: 60.0, 3: 600.0}
    for f in (1, 2, 3):
        t0 = time.perf_counter()
        checked = 0
        for cfg in list_params(f):
            for params in cfg.param_sets():
                for res in _table_rows(identities_table(cfg, params, RunScope())):
                    assert res.passed, (params, res.name, res.counterexample)
                    checked += res.checked
        dt = time.perf_counter() - t0
        _note(f"criterion 1: f={f} identities checked={checked} in {dt:.1f}s")
        assert dt < budget[f]


def test_criterion_2_origin_change_domination_and_mutation_kill():
    checked = 0
    for params in _param_sets():
        scope = RunScope()
        tables = ConstantTables(params, scope=scope)
        res = check_change_origin(params, tables, scope)
        assert res.passed, (params, res.counterexample)
        checked += res.checked
        for res in check_domination_claims(params, tables):
            assert res.passed, (params, res.name, res.counterexample)
            checked += res.checked
    assert checked > 0

    params = RhoParams.make(13, 2, (5, 6), (0,))
    muts = all_mutations(params)
    assert len(muts) == 88
    undetected = [
        m for m in muts
        if all(r.passed for r in run_identities(params, seed=0, mutation=m))
    ]
    assert not undetected, undetected
    _note(
        f"criterion 2: claims checked={checked}, "
        f"{len(muts)}/{len(muts)} single-cell mutations detected at {params}"
    )


def test_criterion_3_table_bounds_exhaustive():
    checked = 0
    for params in _param_sets():
        for res in check_weight_table_bounds(params, ConstantTables(params, scope=RunScope())):
            assert res.passed, (params, res.name, res.counterexample)
            checked += res.checked
    _note(f"criterion 3: bound checks passed, checked={checked}")


def test_criterion_4_chart_action_axioms():
    expected_depth = {1: 40, 2: 30, 3: 34}
    for cfg in (list_params(f)[0] for f in (1, 2, 3)):
        p, f = cfg.p, cfg.f
        ctx = conftest.chart(p, f)
        assert ctx.D == expected_depth[f]
        t0 = time.perf_counter()
        results = _table_rows(iwasawa_table(cfg, RunScope()))
        dt = time.perf_counter() - t0
        for res in results:
            assert res.passed, (p, f, res.name, res.counterexample)
        _note(f"criterion 4: p={p} f={f} depth={ctx.D} axioms pass in {dt:.1f}s")
        assert dt < 120.0


def test_criterion_5_twist_and_right_inverse():
    count = 0
    for params in _param_sets():
        mu = mu_gamma(params, 0)
        for res in (
            check_phi_matrix_shapes(mu),
            check_twist_change_of_basis(mu),
            check_right_inverse(mu),
        ):
            assert res.passed, (params, res.name, res.counterexample)
        count += 1
    _note(f"criterion 5: twist + inverse verified on {count} parameter sets")


def test_criterion_6_component_solver():
    solved = 0
    for cfg in list_params():
        # problems read only (p, f)
        res = check_theta_solver(cfg.p, cfg.f, count=50, seed=0, depth=cfg.cutoff_value())
        assert res.passed, (cfg.p, cfg.f, res.counterexample)
        assert res.checked >= 50
        solved += 50
    _note(f"criterion 6: {solved} random problems solved, fixpoint iteration agrees")


def test_criterion_7_unit_matrices_and_commutation():
    for cfg in list_params():
        p, f = cfg.p, cfg.f
        ctx = conftest.chart(p, f)
        choices = [(0,), tuple(range(f))]
        if f <= 2:
            choices.insert(0, ())
        t0 = time.perf_counter()
        for jrho in dict.fromkeys(choices):
            params = RhoParams.make(p, f, cfg.r, jrho)
            mu = mu_gamma(params, 0)
            rows = check_unit_action_matrices(ctx, mu, units=10, pairs=2, seed=0)
            for res in rows:
                assert res.passed, (params, res.name, res.counterexample)
            comm = next(r for r in rows if r.name == "unit-substitution-commutation")
            _note(
                f"criterion 7: p={p} f={f} r={tuple(cfg.r)} jrho={jrho} "
                f"floor={comm.info['formula_floor']} "
                f"lowest_entry_floor={comm.info['lowest_entry_floor']} "
                f"nonvacuous={comm.info['nonvacuous_entries']}/{comm.info['entries']}"
            )
        dt = time.perf_counter() - t0
        if f == 2:
            assert dt < 300.0


def test_criterion_8_admissible_families_and_rank():
    checked = 0
    for params in _param_sets():
        rows = {r.name: r for r in run_weights(params)}
        for name in ("admissible-families", "rank-formula"):
            res = rows[name]
            assert res.passed, (params, name, res.counterexample)
            checked += res.checked
    _note(f"criterion 8: family and rank checks passed, checked={checked}")


def test_criterion_9_weight_counts_and_partition():
    checked = 0
    for params in _param_sets():
        rows = {r.name: r for r in run_weights(params)}
        for name in ("weight-set-size", "socle-block-partition"):
            res = rows[name]
            assert res.passed, (params, name, res.counterexample)
            checked += res.checked
    _note(f"criterion 9: count and partition checks passed, checked={checked}")
