import json
import re
import sys

import pytest
from click.testing import CliRunner
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from modpcheck import arith, constants, harness, iwasawa, phigamma
from modpcheck.arith import RunScope
from modpcheck.cli import main
from modpcheck.errors import ConfigInvalid, GenericityViolation, PairNotDefined, RangeViolation
from modpcheck.harness import (
    MAX_Q,
    SCHEMA,
    SUITES,
    RunConfig,
    emit_report,
    list_params,
    run_identities,
    run_suite,
    run_weights,
)
from modpcheck.iwasawa import INF, AElement
from modpcheck.reporting import Sweep
from modpcheck.weights import RhoParams


def test_config_validation():
    with pytest.raises(ConfigInvalid):
        RunConfig(p=11, f=1, r=(4,), suites=("identities", "nope"))
    with pytest.raises(ConfigInvalid):
        RunConfig(p=11, f=1, r=(4,), suites=())
    with pytest.raises(ConfigInvalid):
        RunConfig(p=11, f=1, r=(4,), mutate="gamma")
    with pytest.raises(ConfigInvalid):
        RunConfig(p=11, f=1, r=(4, 5))  # wrong arity
    with pytest.raises(ConfigInvalid):
        RunConfig(p=12, f=1, r=(4,))
    with pytest.raises(GenericityViolation):
        RunConfig(p=11, f=1, r=(3,))
    with pytest.raises(ConfigInvalid):
        RunConfig(p=11, f=1, r=(4,), units=0)
    # aliases are accepted
    RunConfig(p=11, f=1, r=(4,), mutate="rJ")
    RunConfig(p=11, f=1, r=(4,), mutate="eps")


def test_param_sets_cover_all_jrho():
    cfg = RunConfig(p=13, f=2, r=(5, 6), jrho="all")
    plist = cfg.param_sets()
    assert len(plist) == 4
    assert {p.Jrho.bits for p in plist} == {0, 1, 2, 3}
    single = RunConfig(p=13, f=2, r=(5, 6), jrho=(1, 0))
    assert single.jrho == (0, 1)
    assert len(single.param_sets()) == 1


@pytest.mark.parametrize("jrho", [(5,), (2,), (1, 3), (-1,), (0, -2)])
def test_config_rejects_jrho_outside_embeddings(jrho):
    # Jrho members are embedding indices in [0, f); none may wrap mod f
    with pytest.raises(ConfigInvalid, match="jrho index"):
        RunConfig(p=13, f=2, r=(5, 6), jrho=jrho)


def test_identities_example_passes():
    cfg = RunConfig(p=11, f=1, r=(4,), jrho="all", suites=("identities",))
    rep = run_suite(cfg)
    assert rep.passed
    assert all(row["status"] == "pass" for row in rep.suites)
    assert rep.fingerprint["field"]["p"] == 11
    assert rep.payload()["schema"] == 1
    assert "timings" not in rep.payload()


def test_weights_only_run_builds_no_field(monkeypatch):
    # the fingerprint reads the minimal irreducible, not the field tables
    monkeypatch.setattr(arith, "_FIELD_CACHE", arith.Memo(arith._FIELD_CACHE.build))
    rep = run_suite(RunConfig(p=17, f=3, r=(7, 8, 7), suites=("weights",)))
    assert rep.passed
    assert arith._FIELD_CACHE == {}
    assert rep.fingerprint["field"]["poly"] == list(arith.Fq(17, 3).g_coeffs)


def test_report_bytes_stable():
    cfg = RunConfig(p=13, f=2, r=(5, 6), jrho="all", suites=("identities", "weights"))
    b1 = emit_report(run_suite(cfg), "json")
    b2 = emit_report(run_suite(cfg), "json")
    assert b1 == b2
    payload = json.loads(b1)
    assert payload["schema"] == 1
    for row in payload["suites"]:
        assert set(row) >= {"name", "status", "checked"}


def test_unbounded_floor_witness_is_null():
    # checks pass INF through; the report serialiser writes it as null
    sweep = Sweep("s")
    sweep.check(False, floor=INF)
    assert sweep.result().counterexample == {"floor": None}


def test_table_mutation_detected():
    cfg = RunConfig(
        p=13, f=2, r=(5, 6), jrho=(0,), suites=("identities",), mutate="rJ"
    )
    rep = run_suite(cfg)
    fails = [row for row in rep.suites if row["status"] == "fail"]
    assert fails and not rep.passed
    assert any(row.get("counterexample") for row in fails)


def test_eps_flip_detected_somewhere():
    cfg = RunConfig(
        p=11, f=1, r=(4,), jrho="all", suites=("phigamma",), mutate="eps",
        units=3, thetas=3,
    )
    rep = run_suite(cfg)
    bad = [row for row in rep.suites if row["status"] == "fail"]
    assert bad
    ce = bad[0]["counterexample"]
    assert "unit" in ce and "inner" in ce
    assert {"row", "col", "floor", "leading"} <= set(ce["inner"])


def test_run_identities_mutation_direct():
    params = RhoParams.make(11, 1, (4,), (0,))
    clean = run_identities(params)
    assert all(r.passed for r in clean)
    from modpcheck.constants import all_mutations

    m = next(m for m in all_mutations(params) if m.table == "s")
    dirty = run_identities(params, mutation=m)
    assert any(not r.passed for r in dirty)


@pytest.mark.parametrize("p,f,r", [(11, 1, (4,)), (13, 2, (5, 6)), (17, 3, (7, 8, 7))],
                         ids=["f1", "f2", "f3"])
def test_mutate_flag_picks_the_first_cell_of_its_table(p, f, r):
    for name in constants.MUTABLE:
        config = RunConfig(p=p, f=f, r=r, mutate=name)
        for params in config.param_sets():
            first = next(m for m in constants.all_mutations(params) if m.table == name)
            assert harness._resolve_mutation(config, params) == (first, None)


def test_run_weights_rows():
    params = RhoParams.make(13, 2, (5, 6), (0, 1))
    rows = run_weights(params)
    names = [r.name for r in rows]
    assert names == [
        "weight-set-size",
        "socle-block-partition",
        "admissible-families",
        "rank-formula",
    ]
    assert all(r.passed for r in rows)
    assert rows[0].checked == 5  # count row + 4 weights


def test_list_params():
    cfgs = list_params()
    assert len(cfgs) == 15
    assert sum(1 for c in cfgs if c.f == 1) == 3
    assert sum(1 for c in cfgs if c.f == 2) == 4
    assert sum(1 for c in cfgs if c.f == 3) == 8
    assert all(c.jrho == "all" for c in cfgs)
    for c in cfgs:
        lo, hi = {1: (4, 6), 2: (5, 6), 3: (7, 8)}[c.f]
        assert all(lo <= rj <= hi for rj in c.r)
    with pytest.raises(ConfigInvalid):
        list_params(4)


def test_text_format_deterministic_and_complete():
    cfg = RunConfig(p=11, f=1, r=(5,), jrho=(0,), suites=("weights",))
    rep = run_suite(cfg)
    t1 = emit_report(rep, "text").decode()
    t2 = emit_report(run_suite(cfg), "text").decode()
    assert t1 == t2
    assert t1.splitlines()[-1] == "RESULT PASS"
    assert "timing" not in t1
    with pytest.raises(ConfigInvalid):
        emit_report(rep, "yaml")


def test_iwasawa_suite_runs_once_per_field():
    cfg = RunConfig(p=11, f=1, r=(4,), jrho="all", suites=("iwasawa",), units=4)
    rep = run_suite(cfg)
    assert rep.passed
    assert list(rep.timings) == ["iwasawa@p=11,f=1"]


# ---- command line ----------------------------------------------------------


def test_cli_verify_pass_and_fail():
    runner = CliRunner()
    ok = runner.invoke(
        main, ["verify", "--p", "11", "--f", "1", "--r", "4", "--suite", "identities"]
    )
    assert ok.exit_code == 0, ok.output
    payload = json.loads(ok.stdout)
    assert payload["schema"] == 1

    bad = runner.invoke(
        main,
        ["verify", "--p", "11", "--f", "1", "--r", "4", "--suite", "identities",
         "--mutate", "rJ"],
    )
    assert bad.exit_code == 1
    assert json.loads(bad.stdout)["suites"]


def test_cli_config_errors():
    runner = CliRunner()
    assert runner.invoke(main, ["verify", "--p", "12", "--f", "1", "--r", "4"]).exit_code == 2
    assert runner.invoke(main, ["verify", "--p", "11", "--f", "1", "--r", "x"]).exit_code == 2
    assert runner.invoke(
        main, ["verify", "--p", "11", "--f", "1", "--r", "4", "--jrho", "0,q"]
    ).exit_code == 2
    assert runner.invoke(
        main, ["verify", "--p", "11", "--f", "1", "--r", "4", "--mutate", "nope"]
    ).exit_code == 2


@pytest.mark.parametrize("jrho", ["5", "1,3", "-1", "2"])
def test_cli_jrho_out_of_range_is_config_error(jrho):
    res = CliRunner().invoke(
        main, ["verify", "--p", "13", "--f", "2", "--r", "5,6", "--jrho", jrho,
               "--suite", "weights"]
    )
    assert res.exit_code == 2
    assert res.stdout == ""
    assert res.stderr.startswith("config error: jrho index ")


@pytest.mark.parametrize("cutoff", ["10", "17"])
def test_cli_cutoff_below_chart_depth_2_is_config_error(cutoff):
    # at f=3 the chart depth is cutoff - p + 1; below 2 the eigencoordinates
    # have no linear terms and the Jacobian would be singular
    res = CliRunner().invoke(
        main, ["verify", "--p", "17", "--f", "3", "--r", "7,8,7", "--jrho", "0",
               "--cutoff", cutoff, "--suite", "iwasawa"]
    )
    assert res.exit_code == 2
    assert res.stdout == ""
    assert res.stderr.startswith(f"config error: cutoff={cutoff} too small")


def test_cli_cutoff_at_chart_depth_2_runs():
    res = CliRunner().invoke(
        main, ["verify", "--p", "17", "--f", "3", "--r", "7,8,7", "--jrho", "0",
               "--cutoff", "18", "--suite", "iwasawa"]
    )
    assert res.exit_code == 0, res.output
    assert json.loads(res.stdout)["config"]["cutoff"] == 18


@pytest.fixture
def no_field_builds(monkeypatch):
    """Fail any F_q table build not already cached."""
    built = []

    def refuse(self, p, k):
        built.append((p, k))
        raise AssertionError(f"Fq({p}, {k}) built")

    monkeypatch.setattr(arith.Fq, "_init", refuse)
    return built


@pytest.mark.parametrize("kwargs,message", [
    (dict(p=101, f=3, r=(7, 8, 7)), "q=101^3 exceeds 524288"),
    (dict(p=2, f=10**9, r=(4,)), "q=2^1000000000 exceeds"),
    (dict(p=89, f=2, r=(5, 6), suites=("iwasawa",)), None),
    (dict(p=97, f=2, r=(5, 6), suites=("iwasawa",)), "q=97^2 exceeds 8192 for the chart"),
    (dict(p=23, f=4, r=(9, 10, 9, 10), suites=("phigamma",)), "for the chart suites"),
    (dict(p=17, f=3, r=(7, 8, 7), cutoff=10**6), "cutoff=1000000 too large"),
    (dict(p=17, f=3, r=(7, 8, 7), cutoff=44, suites=("iwasawa",)), None),
    (dict(p=17, f=3, r=(7, 8, 7), cutoff=45, suites=("iwasawa",)), "cutoff=45 too large"),
    (dict(p=17, f=3, r=(7, 8, 7), cutoff=10**6, suites=("weights",)), None),
    (dict(p=13, f=2, r=(5, 6), cutoff=90), None),
    (dict(p=13, f=2, r=(5, 6), cutoff=91), "cutoff=91 too large"),
    (dict(p=11, f=1, r=(4,), units=10**9), "units=1000000000 outside [1, 1000]"),
    (dict(p=11, f=1, r=(4,), units=1000, thetas=1000), None),
    (dict(p=11, f=1, r=(4,), thetas=1001), "thetas=1001 outside"),
    (dict(p=11, f=1, r=(4,), thetas=0), "thetas=0 outside"),
    (dict(p=11, f=0, r=()), "f=0 must be positive"),
    # q = 2^17 is inside the field limit, so f itself must be refused
    (dict(p=2, f=17, r=(1,) * 17, suites=("weights",)), "f=17 outside [1, 16]"),
    # the chart suites need cutoff <= p^2, as a unit's distortion pieces are
    # exact to depth p only; at f=1 with p < 64 that is below the monomial limit
    (dict(p=11, f=1, r=(4,), cutoff=121), None),
    (dict(p=11, f=1, r=(4,), cutoff=122), "cutoff=122 too large: the chart suites need cutoff <= p^2 = 121"),
    (dict(p=11, f=1, r=(4,), cutoff=122, suites=("identities", "weights")), None),
    (dict(p=-17, f=3, r=(7, 8, 7)), "p=-17 is not prime"),
    # a composite p is named as such before the cutoff and chart limits
    (dict(p=4, f=1, r=(1,)), "p=4 is not prime"),
    (dict(p=91, f=2, r=(5, 6)), "p=91 is not prime"),
    (dict(p=25, f=1, r=(4,), cutoff=700), "p=25 is not prime"),
])
def test_admission_limits_before_any_field_build(no_field_builds, kwargs, message):
    # the cutoff bounds the chart, so only runs of the chart suites are
    # limited by it
    if message is None:
        RunConfig(**kwargs)
    else:
        with pytest.raises(ConfigInvalid, match=re.escape(message)):
            RunConfig(**kwargs)
    assert not no_field_builds


@pytest.mark.parametrize("kwargs,message", [
    (dict(p=13.0), "p: 13.0 is not an int"),
    (dict(f=2.0), "f: 2.0 is not an int"),
    (dict(r=(5.0, 6)), "r: 5.0 is not an int"),
    (dict(r=5), "r: 5 is not a collection"),
    (dict(cutoff=30.5), "cutoff: 30.5 is not an int"),
    (dict(seed="x"), "seed: 'x' is not an int"),
    (dict(units=True), "units: True is not an int"),
    (dict(units=2.5), "units: 2.5 is not an int"),
    (dict(thetas=3.0), "thetas: 3.0 is not an int"),
    (dict(jrho="none"), "jrho: 'none' is not a collection"),
    (dict(jrho=5), "jrho: 5 is not a collection"),
    (dict(jrho=(0.0,)), "jrho: 0.0 is not an int"),
    (dict(suites="weights"), "suites: 'weights' is not a collection"),
    (dict(mutate=["rJ"]), "mutate: ['rJ'] is not a str"),
    (dict(mutate={"a": 1}), "mutate: {'a': 1} is not a str"),
])
def test_admission_names_a_field_of_the_wrong_type(no_field_builds, kwargs, message):
    # a float, str or bool would reach the byte-stable payload or fail mid-run
    with pytest.raises(ConfigInvalid, match=f"^{re.escape(message)}$"):
        RunConfig(**{"p": 13, "f": 2, "r": (5, 6), **kwargs})
    assert not no_field_builds


def test_admission_accepts_presets_and_benchmark_configs(no_field_builds):
    assert len(list_params()) == 15
    for cfg in list_params(3):
        RunConfig(p=cfg.p, f=3, r=cfg.r, suites=("identities", "weights"))
    RunConfig(p=17, f=3, r=(7, 8, 7), jrho=(0,), suites=("phigamma",))
    RunConfig(p=13, f=2, r=(5, 6))
    RunConfig(p=23, f=4, r=(9, 10, 9, 10), suites=("identities", "weights"))
    assert not no_field_builds


@pytest.mark.parametrize("args", [
    ["--p", "101", "--f", "3", "--r", "7,8,7"],
    ["--p", "17", "--f", "3", "--r", "7,8,7", "--cutoff", "1000000"],
    ["--p", "11", "--f", "1", "--r", "4", "--units", "1000000000"],
    ["--p", "11", "--f", "1", "--r", "4", "--thetas", "5000"],
    ["--p", "2", "--f", "17", "--r", ",".join(["1"] * 17), "--suite", "weights"],
    ["--p", "11", "--f", "1", "--r", "4", "--cutoff", "122", "--jrho", "0"],
    ["--p", "-17", "--f", "3", "--r", "7,8,7"],
    ["--p", "5", "--f", "1", "--r", "4"],
])
def test_cli_admission_limits_exit_2(no_field_builds, args):
    res = CliRunner().invoke(main, ["verify", *args])
    assert res.exit_code == 2
    assert res.stdout == ""
    assert res.stderr.startswith("config error: ")
    assert res.stderr.count("\n") == 1
    assert not no_field_builds


@pytest.mark.parametrize("args,what,raw", [
    (["--p", "13", "--f", "2"], "r", "5,,6"),
    (["--p", "13", "--f", "2"], "r", ",5,6"),
    (["--p", "13", "--f", "2"], "r", "5,6,"),
    (["--p", "11", "--f", "1"], "r", "4,"),
    (["--p", "13", "--f", "2", "--r", "5,6"], "jrho", "0,,1"),
])
def test_cli_list_with_an_empty_item_exits_2(no_field_builds, args, what, raw):
    res = CliRunner().invoke(main, ["verify", *args, f"--{what}", raw])
    assert res.exit_code == 2
    assert res.stdout == ""
    assert res.stderr == f"config error: cannot parse {what}={raw!r}\n"
    assert not no_field_builds


def test_cli_empty_lists_keep_their_meaning():
    # "" is no r (a config error of RunConfig) and an empty Jrho
    res = CliRunner().invoke(main, ["verify", "--p", "11", "--f", "1", "--r", ""])
    assert res.exit_code == 2 and "cannot parse" not in res.stderr
    for jrho in ("", "none"):
        res = CliRunner().invoke(main, ["verify", "--p", "11", "--f", "1", "--r", "4",
                                        "--jrho", jrho, "--suite", "weights"])
        assert res.exit_code == 0
        assert json.loads(res.stdout)["config"]["jrho"] == []


@st.composite
def admission_kwargs(draw):
    f = draw(st.integers(-1, 20))
    n = draw(st.integers(max(f - 1, 0), max(f + 1, 0)))
    return dict(p=draw(st.integers(-3, 60)), f=f,
                r=tuple(draw(st.lists(st.integers(-2, 60), min_size=n, max_size=n))),
                cutoff=draw(st.none() | st.integers(-5, 5000)),
                suites=tuple(s for s in SUITES if draw(st.booleans())))


@given(kwargs=admission_kwargs())
@example(kwargs=dict(p=5, f=1, r=(4,), cutoff=None, suites=SUITES))
@settings(suppress_health_check=[HealthCheck.function_scoped_fixture])
def test_admission_names_a_non_generic_pack_as_such(no_field_builds, kwargs):
    # RunConfig returns or raises ConfigInvalid, building no field; a pack
    # inside the size guards that leaves the generic window is named as
    # such, never as a cutoff or chart limit
    p, f, r = kwargs["p"], kwargs["f"], kwargs["r"]
    sized = (p > 1 and all(p % d for d in range(2, p)) and 1 <= f <= 16
             and p**f <= MAX_Q and len(r) == f)
    generic = sized and (p >= 4 * f + 4 and all(2 * f + 1 <= x <= p - 3 - 2 * f for x in r)
                         and (f != 1 or r[0] >= 4))
    try:
        RunConfig(**kwargs)
    except ConfigInvalid as e:
        assert not sized or generic or isinstance(e, GenericityViolation), e
    else:
        assert generic
    assert not no_field_builds


def test_admission_checks_the_pack_before_the_limits(no_field_builds):
    with pytest.raises(GenericityViolation, match=re.escape("requires p >= 4f+4 = 8")):
        RunConfig(p=5, f=1, r=(4,))
    with pytest.raises(GenericityViolation, match=re.escape("2f+1 <= r_j <= p-3-2f")):
        RunConfig(p=13, f=2, r=(1, 6), cutoff=500)
    res = CliRunner().invoke(main, ["verify", "--p", "5", "--f", "1", "--r", "4"])
    assert res.exit_code == 2
    assert res.stderr == ("config error: genericity violated (global): "
                          "requires p >= 4f+4 = 8\n")
    assert not no_field_builds


def test_cli_params_listing():
    runner = CliRunner()
    res = runner.invoke(main, ["params"])
    assert res.exit_code == 0
    lines = res.output.strip().splitlines()
    assert len(lines) == 15
    res1 = runner.invoke(main, ["params", "--f", "3"])
    assert len(res1.output.strip().splitlines()) == 8
    assert all("p=17" in ln for ln in res1.output.strip().splitlines())


def test_cli_report_roundtrip(tmp_path):
    runner = CliRunner()
    res = runner.invoke(
        main, ["verify", "--p", "11", "--f", "1", "--r", "4", "--suite", "weights"]
    )
    assert res.exit_code == 0
    path = tmp_path / "run.json"
    path.write_text(res.stdout)
    back = runner.invoke(main, ["report", str(path), "--format", "json"])
    assert back.exit_code == 0
    assert back.stdout == res.stdout
    text = runner.invoke(main, ["report", str(path), "--format", "text"])
    assert text.exit_code == 0
    assert text.output.strip().endswith("RESULT PASS")

    path2 = tmp_path / "bad.json"
    path2.write_text('{"schema": 99}')
    assert runner.invoke(main, ["report", str(path2)]).exit_code == 2
    path3 = tmp_path / "notjson.json"
    path3.write_text("nope")
    assert runner.invoke(main, ["report", str(path3)]).exit_code == 2
    # True == 1 == 1.0, but only the int SCHEMA is schema 1
    for schema in (True, 1.0):
        path2.write_text(json.dumps(
            {"schema": schema, "config": {}, "fingerprint": {}, "suites": []}))
        res = runner.invoke(main, ["report", str(path2)])
        assert res.exit_code == 2
        assert res.output == f"config error: unsupported schema {schema!r}\n"
    path3.write_bytes(b"\x80abc")  # not UTF-8: a bad input file, not a failed check
    res = runner.invoke(main, ["report", str(path3)])
    assert res.exit_code == 2
    assert res.output.startswith("config error: not a report file: 'utf-8' codec can't decode")
    path3.write_text("[" * 100_000 + "]" * 100_000)  # nested past the parser's recursion limit
    res = runner.invoke(main, ["report", str(path3)])
    assert res.exit_code == 2
    assert res.output.startswith("config error: not a report file: maximum recursion depth")


ROW = {"name": "weights/x", "status": "pass", "checked": 1}


@pytest.mark.parametrize("suites,why", [
    ([{"status": "pass", "checked": 1}], "suite row 0 has no name"),
    ([ROW, {"name": "weights/y", "status": "pass"}], "suite row 1 has no checked count"),
    ("pass", "suites is not a list"),
    ([ROW, ["weights/y", "pass", 1]], "suite row 1 is not an object"),
    ([ROW, {"name": "weights/y", "status": "pass", "checked": True}],
     "suite row 1 has no checked count"),
    ([ROW, {"name": "weights/y", "status": "pass", "checked": -5}],
     "suite row 1 has no checked count"),
])
def test_cli_report_rejects_malformed_rows(tmp_path, suites, why):
    # a malformed row is a bad input file (exit 2), never a failed check (1)
    path = tmp_path / "rows.json"
    path.write_text(json.dumps(
        {"schema": SCHEMA, "config": {}, "fingerprint": {}, "suites": suites}
    ))
    for fmt in ("json", "text"):
        res = CliRunner().invoke(main, ["report", str(path), "--format", fmt])
        assert res.exit_code == 2
        assert res.output == f"config error: not a report file: {why}\n"


@pytest.mark.parametrize("row", [
    dict(ROW, counterexample={"n": [1]}),
    dict(ROW, status="fail"),
], ids=["pass-with-counterexample", "fail-without"])
def test_cli_report_rejects_a_status_against_its_counterexample(tmp_path, row):
    # Sweep writes a row as passing exactly when it has no counterexample
    path = tmp_path / "row.json"
    path.write_text(json.dumps(
        {"schema": SCHEMA, "config": {}, "fingerprint": {}, "suites": [ROW, row]}))
    for fmt in ("json", "text"):
        res = CliRunner().invoke(main, ["report", str(path), "--format", fmt])
        assert res.exit_code == 2
        assert res.output == ("config error: not a report file: suite row 1 has no status "
                              "fail with a counterexample or pass without\n")


@pytest.mark.parametrize("constant", ["NaN", "Infinity", "-Infinity"])
def test_cli_report_rejects_non_json_constants(tmp_path, constant):
    # json.dumps writes NaN and Infinity, which are not JSON; _plain writes
    # INF as null, so a report never holds them
    path = tmp_path / "nan.json"
    path.write_text('{"schema": 1, "config": {"cutoff": %s}, "fingerprint": {}, '
                    '"suites": [%s]}' % (constant, json.dumps(ROW)))
    for fmt in ("json", "text"):
        res = CliRunner().invoke(main, ["report", str(path), "--format", fmt])
        assert res.exit_code == 2
        assert res.output == f"config error: not a report file: {constant} is not JSON\n"


@pytest.mark.skipif(not hasattr(sys, "get_int_max_str_digits"), reason="no int digit limit")
def test_cli_report_rejects_an_int_past_the_conversion_limit(tmp_path):
    # json raises a plain ValueError past sys.get_int_max_str_digits()
    path = tmp_path / "big.json"
    path.write_text('{"schema": 1, "config": {"p": %s}, "fingerprint": {}, "suites": []}'
                    % ("9" * 5000))
    res = CliRunner().invoke(main, ["report", str(path)])
    assert res.exit_code == 2
    assert res.output.startswith("config error: not a report file: Exceeds the limit")


def test_report_exit_reflects_stored_failures(tmp_path):
    runner = CliRunner()
    res = runner.invoke(
        main,
        ["verify", "--p", "11", "--f", "1", "--r", "4", "--suite", "identities",
         "--mutate", "s"],
    )
    assert res.exit_code == 1
    path = tmp_path / "fail.json"
    path.write_text(res.stdout)
    back = runner.invoke(main, ["report", str(path)])
    assert back.exit_code == 1
    assert "FAIL" in back.output


@pytest.mark.parametrize("exc", [RuntimeError("boom"), MemoryError("out of memory")])
def test_cli_internal_error_exit_code(monkeypatch, exc):
    def crash(config):
        raise exc

    monkeypatch.setattr("modpcheck.cli.run_suite", crash)
    res = CliRunner().invoke(
        main, ["verify", "--p", "11", "--f", "1", "--r", "4", "--suite", "identities"]
    )
    assert res.exit_code == 3
    assert res.stdout == ""
    assert res.stderr == f"internal error: {type(exc).__name__}: {exc}\n"


def _transpose_jacobian_inverse(monkeypatch):
    # a wrong chart conversion: the row operations of M^T substitute
    # (M^T)^-1, the transpose of M^-1
    right = iwasawa.gauss_jordan
    monkeypatch.setattr(iwasawa, "gauss_jordan",
                        lambda field, rows: right(field, [list(r) for r in zip(*rows)]))


def test_wrong_chart_conversion_fails_a_unit_matrix_row(monkeypatch):
    # the conversion leaves a right-hand side that is not torus-fixed; the
    # unit-matrix sweep records that unit as a failing row and goes on
    _transpose_jacobian_inverse(monkeypatch)
    report = run_suite(RunConfig(p=13, f=2, r=(5, 6), jrho=(0,), suites=("phigamma",)))
    assert not report.passed
    rows = [row for row in report.suites if "/unit-matrix-structure@" in row["name"]]
    assert rows and rows[0]["status"] == "fail"
    assert rows[0]["counterexample"]["claim"] == "buildable"
    assert rows[0]["counterexample"]["error"] == "right-hand side must be torus-fixed"
    assert rows[0]["counterexample"]["unit"]


def test_cli_wrong_chart_conversion_exits_1(monkeypatch):
    _transpose_jacobian_inverse(monkeypatch)
    res = CliRunner().invoke(main, ["verify", "--p", "13", "--f", "2", "--r", "5,6"])
    assert res.exit_code == 1, res.output
    assert any(row["status"] == "fail" for row in json.loads(res.stdout)["suites"])


def test_cli_range_violation_inside_run_is_internal(monkeypatch):
    # a package error raised outside every check table, here by run_suite
    # itself, is a crash of the verifier, not a rejected configuration
    def crash(config):
        raise RangeViolation("b_0=9 outside [-7, 6]")

    monkeypatch.setattr("modpcheck.cli.run_suite", crash)
    res = CliRunner().invoke(
        main, ["verify", "--p", "11", "--f", "1", "--r", "4", "--suite", "identities"]
    )
    assert res.exit_code == 3
    assert res.stdout == ""
    assert res.stderr == "internal error: RangeViolation: b_0=9 outside [-7, 6]\n"


def _drop_p(x):
    # frobenius without the factor p: Y_j -> Y_{j-1}
    f = x.f
    terms = {tuple(k[(j + 1) % f] for j in range(f)): c for k, c in x.terms.items()}
    return AElement(x.field, f, x.cutoff, terms)


@pytest.fixture
def frobenius_drops_p(monkeypatch):
    monkeypatch.setattr(iwasawa, "frobenius", _drop_p)
    monkeypatch.setattr(phigamma, "frobenius", _drop_p)


def _failing_row(res, name):
    rows = [row for row in json.loads(res.stdout)["suites"] if f"/{name}@" in row["name"]]
    assert len(rows) == 1 and rows[0]["status"] == "fail"
    return rows[0]


def test_cli_arithmetic_error_fails_its_row(frobenius_drops_p):
    # _binomial_series raises NotAUnit inside check_unit_ratio_depth: that row
    # fails with the error and the other axioms still run
    res = CliRunner().invoke(
        main, ["verify", "--p", "11", "--f", "1", "--r", "4", "--suite", "iwasawa"]
    )
    assert res.exit_code == 1, res.output
    row = _failing_row(res, "principal-unit-ratio-depth")
    assert row["checked"] == 0
    assert row["counterexample"]["error"].startswith("NotAUnit:")
    assert len(json.loads(res.stdout)["suites"]) == 6


def test_cli_solver_nonconvergence_fails_its_row(frobenius_drops_p):
    res = CliRunner().invoke(
        main, ["verify", "--p", "13", "--f", "2", "--r", "5,6", "--jrho", "0",
               "--suite", "phigamma"]
    )
    assert res.exit_code == 1, res.output
    row = _failing_row(res, "theta-solver")
    assert row["counterexample"]["error"].startswith("NonConvergence:")


def test_cli_other_exception_inside_a_check_is_internal(monkeypatch):
    def crash(ctx, **kwargs):
        raise TypeError("unsupported operand")

    monkeypatch.setattr(harness, "check_exponent_additivity", crash)
    res = CliRunner().invoke(
        main, ["verify", "--p", "11", "--f", "1", "--r", "4", "--suite", "iwasawa"]
    )
    assert res.exit_code == 3
    assert res.stdout == ""
    assert res.stderr == "internal error: TypeError: unsupported operand\n"


@pytest.mark.parametrize("mutate", ["s", "eps"])
@pytest.mark.parametrize("p,f,r", [(11, 1, (4,)), (13, 2, (5, 6))])
def test_table_names_match_rows(p, f, r, mutate):
    # an entry's names stand in for its rows when its thunk raises
    config = RunConfig(p=p, f=f, r=r, mutate=mutate, units=2, thetas=2)
    suites = set()
    for suite, _, table in harness._jobs(config, RunScope()):
        suites.add(suite)
        for names, thunk in table:
            assert tuple(res.name for res in thunk()) == names
    assert suites == set(harness.SUITES)


def _scalar_ratio_undefined(monkeypatch):
    def undefined(params, mu, subs):
        raise PairNotDefined("mu(J, Jp) undefined")

    monkeypatch.setattr(constants, "_check_scalar_ratio_classes", undefined)


def test_identity_sweep_error_fails_only_its_row(monkeypatch):
    # each identity sweep is an entry of its own: the error fails its row,
    # with checked 0, and the other 18 sweeps still run and pass
    config = RunConfig(p=11, f=1, r=(4,), jrho=(0,), suites=("identities",))
    healthy = {row["name"]: row for row in run_suite(config).suites}
    _scalar_ratio_undefined(monkeypatch)
    rows = {row["name"]: row for row in run_suite(config).suites}
    assert len(rows) == 19
    (name,) = [name for name in rows if "/scalar-ratio-classes@" in name]
    row = rows.pop(name)
    assert row["status"] == "fail" and row["checked"] == 0
    assert row["counterexample"] == {"error": "PairNotDefined: 'mu(J, Jp) undefined'"}
    del healthy[name]
    assert rows == healthy
    assert all(row["status"] == "pass" for row in rows.values())


def test_cli_identity_sweep_error_exits_1(monkeypatch):
    _scalar_ratio_undefined(monkeypatch)
    res = CliRunner().invoke(
        main, ["verify", "--p", "11", "--f", "1", "--r", "4", "--jrho", "0",
               "--suite", "identities"]
    )
    assert res.exit_code == 1, res.output
    _failing_row(res, "scalar-ratio-classes")
    assert sum(row["status"] == "fail" for row in json.loads(res.stdout)["suites"]) == 1
