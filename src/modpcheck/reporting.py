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


class Sweep:
    """One report row: counts tuples and keeps the first counterexample.

    The row passes while it has no counterexample; `result` attaches the
    row's extras and returns the row itself."""

    __slots__ = ("name", "checked", "counterexample", "info")

    def __init__(self, name):
        self.name = name
        self.checked = 0
        self.counterexample = None
        self.info = None

    @property
    def passed(self):
        return self.counterexample is None

    def check(self, ok, **ctx):
        self.checked += 1
        if not ok and self.counterexample is None:
            self.counterexample = witness(**ctx)
        return ok

    def add(self, checked, counterexample=None):
        """Count checks made elsewhere, with their first witness or None."""
        self.checked += checked
        if self.counterexample is None:
            self.counterexample = counterexample

    def result(self, info=None):
        self.info = info
        return self

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


def run_table(table):
    """Run a check table, (row names, thunk) entries in report order, and
    return its rows.  A package error raised by a thunk fails the rows it
    names, with checked 0, and the next entry runs."""
    rows = []
    for names, thunk in table:
        try:
            rows += thunk()
        except PACKAGE_ERRORS as exc:
            for name in names:
                rows.append(Sweep(name))
                rows[-1].add(0, {"error": f"{type(exc).__name__}: {exc}"})
    return rows
