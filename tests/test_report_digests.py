"""Pinned report digests: the JSON payload is byte-identical across changes.

Each digest is the sha256 of ``emit_report(run_suite(config), "json")``.  A
change that alters a report on purpose bumps the report schema and updates
the digest here in the same commit.  The mutant pins cover the failing
rows, and so the witnesses, of the identity sweeps under every mutant.
"""

import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from modpcheck.constants import all_mutations, run_identities
from modpcheck.harness import RunConfig, emit_report, run_suite
from modpcheck.reporting import _plain
from modpcheck.weights import RhoParams

GOLDEN = [
    (RunConfig(p=11, f=1, r=(4,)),
     "ac68475ae72e1f0eb40f1cf8db6d664c1b6696648b6bc7ede85b3206908f9b9f"),
    (RunConfig(p=13, f=2, r=(5, 6)),
     "4f5a174644804b2f7ece8459c4f66476dd9206110ce82a69cfc104c29283ec12"),
    (RunConfig(p=17, f=3, r=(7, 8, 7), jrho=(0,), suites=("phigamma",)),
     "dcac0721e38be887c9230d8a29ed67a46cbfad768e67417cf00c8db22367f909"),
    (RunConfig(p=17, f=3, r=(7, 8, 7), jrho=(0,), suites=("iwasawa",)),
     "017f0df676702b9e4ddbe4dd6b98ddbade3020bef4f750aad1aa402695f086ec"),
    # deeper cutoffs: more Witt digits and longer binomial rows
    (RunConfig(p=13, f=2, r=(5, 6), jrho=(0,), cutoff=40, suites=("iwasawa", "phigamma")),
     "00814864dbe511920cb41aaff8fecee0bc533fb1e97db850973fae427a781eb6"),
    (RunConfig(p=11, f=1, r=(5,), cutoff=80, suites=("iwasawa", "phigamma")),
     "00228116893cf2ec75bf44f830ca94d3d6b7f5f54e2d769eb8d7821b5d2e5c07"),
    # the f=3 chart at a deeper cutoff: its Jacobian, shear steps and the
    # three-variable leading-form images reach the matrix rows
    (RunConfig(p=17, f=3, r=(7, 8, 7), jrho=(0,), cutoff=40, suites=("phigamma",)),
     "2421445698729dbff901de15e234c1ad2de869905d88f53c8104db4be0396a0d"),
    # the f=3 identity and weight sweeps on all 8 Jrho; the per-row checked
    # counts in the payload pin the size of each exhaustive sweep
    (RunConfig(p=17, f=3, r=(7, 7, 7), suites=("identities", "weights")),
     "f78d3ed14f76cbce2960e8929e2867abea49a654c4e6b54bd2cd7d4a342df7c3"),
    # the other presets of the benchmark's f3-tables workload, whose Jrho
    # jobs share change-of-origin boxes
    (RunConfig(p=17, f=3, r=(7, 8, 7), suites=("identities", "weights")),
     "57bd7dc75667e57571ca732c812218665e84a2538efe6678c6c28491542720e7"),
    (RunConfig(p=17, f=3, r=(8, 7, 7), suites=("identities", "weights")),
     "9c17417a6cf7570f3c5f917370a8df4641647f9124509948c80190a75b9f4088"),
    (RunConfig(p=17, f=3, r=(8, 8, 7), suites=("identities", "weights")),
     "3046a48481cdb5a8357d3f2c8360fd90473e497bf7e4a587fa0cde2927f519b1"),
    # full f=3 verify: every suite on all 8 Jrho, so the pairing scalars
    # mu(J, J') and gamma(J, J') of every Jrho reach the payload
    (RunConfig(p=17, f=3, r=(7, 8, 7)),
     "d560a7dee4c7253ca8f67352a2321bc5d61c9a73cd5b0acdd2aa7855ebe61fba"),
    # f=4 identity and weight sweeps on all 16 Jrho: J stops being an
    # interval, and two Jrho can share a non-interval J
    (RunConfig(p=23, f=4, r=(9, 10, 9, 10), suites=("identities", "weights")),
     "f3e332cd7302b2367411aacc0dbdd6a020cbbfb76b225c5c7fffb0b567e258b0"),
    # the Witt precisions no other pin reaches: N = 4 at the largest f=1
    # cutoff admitted for p=11 (p^2), N = 2 at a prime above the default cutoff
    (RunConfig(p=11, f=1, r=(4,), cutoff=121, suites=("iwasawa", "phigamma")),
     "532532b607b4849560cac392423c3b85d37fca194724708ebe2b746f0d239262"),
    (RunConfig(p=101, f=1, r=(5,), jrho=(0,), suites=("iwasawa", "phigamma")),
     "ded54642eb86570d6fbe157411214b48c0aea360843b92fa9556ff212a60d55b"),
    # the only other f=3 field that genericity (p >= 4f+4) and the chart
    # limit on q admit: a second field, lift chain and Jacobian for the
    # eigencoordinate sum
    (RunConfig(p=19, f=3, r=(8, 9, 8), jrho=(0,), suites=("phigamma",)),
     "682de4a47b9db83dedeac0fb05061394752e329bd4f330569ed89a1dd8a2e2f4"),
    # the f=2 chart at cutoff 60: the torus row at depth 60 and 853 row
    # products of chart series, off every preset
    (RunConfig(p=13, f=2, r=(5, 6), jrho=(0,), cutoff=60, suites=("iwasawa",)),
     "3ef7602e33a3b74f2ee560cc6f0153e93b594bc3b8df32a35c2b11d59670254f"),
    # the f=1 chart at p=37, cutoff 300: y_to_t asks for Y^m at many
    # (m, rel) of one slot, each a power of Y_0
    (RunConfig(p=37, f=1, r=(16,), jrho=(0,), cutoff=300, suites=("iwasawa",)),
     "8c935f544ad86ca71e62d564a8a6e467b5d5f226d2c05aac847bdc964955720c"),
]


@pytest.mark.parametrize("config,digest", GOLDEN,
                         ids=["p11-f1-all", "p13-f2-all", "p17-f3-phigamma",
                              "p17-f3-iwasawa", "p13-f2-cutoff40", "p11-f1-cutoff80",
                              "p17-f3-cutoff40",
                              "p17-f3-identities-weights", "p17-f3-787-identities-weights",
                              "p17-f3-877-identities-weights", "p17-f3-887-identities-weights",
                              "p17-f3-all", "p23-f4-identities-weights",
                              "p11-f1-cutoff121-N4", "p101-f1-N2",
                              "p19-f3-phigamma", "p13-f2-cutoff60-iwasawa",
                              "p37-f1-cutoff300-iwasawa"])
def test_report_digest_is_pinned(config, digest):
    report = run_suite(config)
    assert report.passed
    assert hashlib.sha256(emit_report(report, "json")).hexdigest() == digest


def test_large_prime_iwasawa_report_digest_is_pinned():
    # p=8191 f=1 at cutoff 256: the eigencoordinate sum reads the binomial
    # rows of all 8,190 units, about 100 MB kept by the row table, so the job
    # runs through the CLI in a child process that frees them when it exits
    src = Path(__file__).resolve().parent.parent / "src"
    cmd = [sys.executable, "-m", "modpcheck.cli", "verify", "--p", "8191", "--f", "1",
           "--r", "100", "--cutoff", "256", "--jrho", "0", "--suite", "iwasawa"]
    out = subprocess.run(cmd, env={**os.environ, "PYTHONPATH": str(src)},
                         capture_output=True, timeout=600)
    assert out.returncode == 0, out.stderr
    assert hashlib.sha256(out.stdout).hexdigest() == (
        "d866feafb015e40eec4c98bdd38b6a0a197d0896fd1333f786a1139e3729cb81")


# The identity rows of every mutant, witnesses included: one sha256 per
# degree over json.dumps([_plain(r.as_dict()) for r in run_identities(...)])
# for each single-cell mutant, with Jrho {0}.  At f=3 every 8th of the 360
# mutants is run.
MUTANT_GOLDEN = [
    ((11, 1, (4,)), 1, 18,
     "db06536fac71d0d99de2fbef9a45c168c46a8db0969385469d7778c2a9c9a2f5"),
    ((13, 2, (5, 6)), 1, 88,
     "e10b95d68ef3c5fcf8ec56d4676ec80f1ded22a3caabd642303ede93c1ade212"),
    ((17, 3, (7, 8, 7)), 8, 45,
     "357f79eae173fbee0b5b17cf250e6ed6f3b92703cf2e36e905c22f6091956706"),
]


# The failing rows of the matrix layer: mutate="eps" negates one scalar of
# the substitution matrix, and unit-substitution-commutation fails with a
# floor/leading witness.
EPS_GOLDEN = [
    (RunConfig(p=11, f=1, r=(4,), mutate="eps", suites=("phigamma",)),
     "56456b720ef67c5a64c22f1b99d96c088071f91439398f40b31ea89aea8ffce0"),
    (RunConfig(p=13, f=2, r=(5, 6), mutate="eps", suites=("phigamma",)),
     "ded2c840a75ee6b352a0cc22b52c7b368e6db69086a56be38a426d34f6461c12"),
    (RunConfig(p=17, f=3, r=(7, 8, 7), jrho=(0,), mutate="eps", suites=("phigamma",)),
     "9cf883e6205c710678807dbc8a4cbde409acec9e5d7daa579626ee5e233c6880"),
]


@pytest.mark.parametrize("config,digest", EPS_GOLDEN, ids=["f1", "f2", "f3"])
def test_eps_mutant_phigamma_rows_are_pinned(config, digest):
    report = run_suite(config)
    assert not report.passed
    assert hashlib.sha256(emit_report(report, "json")).hexdigest() == digest


@pytest.mark.parametrize("preset,step,count,digest", MUTANT_GOLDEN, ids=["f1", "f2", "f3"])
def test_mutant_identity_rows_are_pinned(preset, step, count, digest):
    params = RhoParams.make(*preset, (0,))
    mutants = all_mutations(params)[::step]
    assert len(mutants) == count
    outputs = [[_plain(r.as_dict()) for r in run_identities(params, 0, m)] for m in mutants]
    for m, rows in zip(mutants, outputs):
        assert any(row["status"] == "fail" for row in rows), m
    text = json.dumps(outputs, sort_keys=True, separators=(",", ":"))
    assert hashlib.sha256(text.encode()).hexdigest() == digest


# --mutate through run_suite: every Jrho job of the run reads the mutated
# tables, and the jobs share what run_suite shares between them, so these
# pin that sharing never lets a healthy value stand in for a mutated one.
SUITE_MUTANT_GOLDEN = [
    ("aJn", "9b61a43dfc2d38fd273e7a65a87d053325b9c986807ffd79eef62e1be37142d9"),
    ("a", "56c95b051465256b398b0b3242bc4bb8adbf50ccc2c42a494e539c3a7f24d5a4"),
    ("s", "3df977686cf56006ba396940235bfd22e89abcbaf8ba8382a4fa34ce2a9ee285"),
]


@pytest.mark.parametrize("mutate,digest", SUITE_MUTANT_GOLDEN,
                         ids=[m for m, _ in SUITE_MUTANT_GOLDEN])
def test_run_suite_mutant_identity_rows_are_pinned(mutate, digest):
    config = RunConfig(p=17, f=3, r=(7, 8, 7), suites=("identities",), mutate=mutate)
    report = run_suite(config)
    assert not report.passed
    assert hashlib.sha256(emit_report(report, "json")).hexdigest() == digest
