"""Result containers shared by the verification sweeps."""

import math

from .base_combinatorics import SubsetJ
from .errors import PACKAGE_ERRORS


def _plain(v):
    """v with subsets as member lists and tuples as lists, for JSON.  This
    is the one place where an unbounded knowledge floor or depth (INF)
    becomes null; the checks pass INF through as it is."""
    if isinstance(v, SubsetJ):
        return sorted(v.members())
    if isinstance(v, (list, tuple)):
        return [_plain(x) for x in v]
    if isinstance(v, dict):
        return {k: _plain(x) for k, x in v.items()}
    if isinstance(v, float) and math.isinf(v):
        return None  # knowledge floor beyond the truncation: unbounded
    return v


def witness(**kw):
    """Counterexample payload with JSON-friendly values."""
    return {k: _plain(v) for k, v in kw.items()}


class CheckResult:
    """One report row: its verdict, tuple count, first witness and extras."""

    __slots__ = ("name", "passed", "checked", "counterexample", "info")

    def __init__(self, name, passed, checked=0, counterexample=None, info=None):
        self.name = name
        self.passed = passed
        self.checked = checked
        self.counterexample = counterexample
        self.info = info

    def as_dict(self):
        d = {
            "name": self.name,
            "status": "pass" if self.passed else "fail",
            "checked": self.checked,
        }
        if self.counterexample is not None:
            d["counterexample"] = self.counterexample
        if self.info:
            d.update(self.info)
        return d


class Sweep:
    """Counts tuples and records the first counterexample."""

    def __init__(self, name):
        self.name = name
        self.checked = 0
        self.failure = None

    def check(self, ok, **ctx):
        self.checked += 1
        if not ok and self.failure is None:
            self.failure = witness(**ctx)
        return ok

    def add(self, checked, failure=None):
        """Count checks made elsewhere, with their first witness or None."""
        self.checked += checked
        if self.failure is None:
            self.failure = failure

    def result(self, info=None):
        return CheckResult(self.name, self.failure is None, self.checked, self.failure, info)


def run_table(table):
    """Run a check table, (row names, thunk) entries in report order, and
    return its rows.  A package error raised by a thunk fails the rows it
    names, with checked 0, and the next entry runs."""
    rows = []
    for names, thunk in table:
        try:
            rows += thunk()
        except PACKAGE_ERRORS as exc:
            error = {"error": f"{type(exc).__name__}: {exc}"}
            rows += [CheckResult(name, False, 0, error) for name in names]
    return rows
