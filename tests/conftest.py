"""Shared test plumbing: the Hypothesis profile, the charts that read-only
tests share, and the acceptance scoreboard.

test_acceptance.py holds one test per acceptance criterion.  This hook
collects their outcomes and prints one line per criterion at the end of the
run, plus any detail lines the criteria registered (precision floors and
timing measurements).
"""

import re

from hypothesis import settings

from modpcheck.arith import Memo
from modpcheck.iwasawa import ChartContext, default_cutoff

# property tests run the same examples on every run and never time out on a
# slow host
settings.register_profile("modpcheck", derandomize=True, deadline=None, database=None)
settings.load_profile("modpcheck")

_CHARTS = Memo(ChartContext)


def chart(p, f, cutoff=None):
    """The ChartContext at (p, f, cutoff), default_cutoff(p, f) when cutoff
    is None, built once for the test session: for tests that only read it.
    A test that patches chart code builds its own ChartContext."""
    return _CHARTS[p, f, default_cutoff(p, f) if cutoff is None else cutoff]


CRITERIA = {
    1: "constant-table identities, exhaustive at every preset",
    2: "origin-change and domination claims, full mutation kill coverage",
    3: "table bound checks, exhaustive",
    4: "chart action axioms at working depth",
    5: "twist equivalence and right inverse of the matrix layer",
    6: "component solver on random problems, against a fixpoint iteration",
    7: "unit substitution matrices, commutation below printed floors",
    8: "admissible families and the rank formula",
    9: "weight counts and socle block partition",
}

_outcomes = {}
detail_lines = []

_NODE = re.compile(r"test_acceptance\.py::test_criterion_(\d+)")


def pytest_runtest_logreport(report):
    m = _NODE.search(report.nodeid)
    if m is None:
        return
    n = int(m.group(1))
    if report.when == "call":
        _outcomes[n] = report.passed
    elif report.failed:
        _outcomes[n] = False


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    if not _outcomes:
        return
    terminalreporter.write_sep("-", "acceptance criteria")
    for line in detail_lines:
        terminalreporter.write_line(line)
    for n in sorted(CRITERIA):
        if n in _outcomes:
            status = "PASS" if _outcomes[n] else "FAIL"
        else:
            status = "not run"
        terminalreporter.write_line(f"ACCEPTANCE {n} {status} - {CRITERIA[n]}")
