"""Outside-in tracing of one cold modpcheck run.

The benchmark's own code wraps public functions and methods of the package
at the layer boundaries named in LAYERS; nothing inside ``src/`` knows about
it.  A wrapper records a span (name, start, end, parent) in memory; the
spans are written out once, when the run ends.  Self time is a span's
duration minus the part of it that its child spans cover.

A name imported by another module (``from .iwasawa import unit_action``) is
a second binding of the same function, so every binding inside the package
is replaced, not only the defining one.

Layers that a later version of the program no longer has are reported as
absent instead of failing the install: the benchmark must keep running on
the change that removes them.
"""

import functools
import json
import sys
import time

W_CHART = "f3-chart-cold"
W_SESSION = "f2-session"
W_TABLES = "f3-tables"
ALL = (W_CHART, W_SESSION, W_TABLES)

# (metric, unit, workloads whose row names it).  A span metric "x" expands
# to x.calls, x.total_s and x.self_s; every other entry is a plain count.
SPAN = "span"
LAYERS = [
    # chart build: reversion table, Zech addition
    ("iwasawa.ChartContext.y_series", SPAN, (W_CHART,)),
    ("iwasawa.ChartContext.t_to_y", SPAN, (W_CHART,)),
    ("iwasawa.tau.depth", "count", (W_CHART,)),
    ("iwasawa.tau.rebuilds", "count", (W_CHART,)),
    ("iwasawa.ChartContext.convb", SPAN, (W_CHART,)),
    ("iwasawa.ChartContext.convb.distinct", "count", (W_CHART,)),
    ("arith.Fq.add.calls", "count", (W_CHART,)),
    ("arith.Fq.mul.calls", "count", (W_CHART,)),
    # warm-chart axiom checks, series products
    ("iwasawa.check_torus_eigenvector", SPAN, (W_SESSION,)),
    ("iwasawa.check_frobenius_generators", SPAN, (W_SESSION,)),
    ("iwasawa.check_exponent_additivity", SPAN, (W_SESSION,)),
    ("iwasawa.check_unit_ratio_depth", SPAN, (W_SESSION,)),
    ("iwasawa.ChartContext.n_series", SPAN, (W_SESSION,)),
    ("iwasawa.ChartContext.n_series.distinct", "count", (W_SESSION,)),
    ("iwasawa.TSeries.mul.calls", "count", (W_SESSION,)),
    ("iwasawa.AElement.mul.calls", "count", (W_SESSION,)),
    ("arith.WittRing.teichmuller", SPAN, (W_SESSION,)),
    # matrix layer
    ("iwasawa.unit_action", SPAN, (W_CHART, W_SESSION)),
    ("iwasawa.invert_unit", SPAN, (W_CHART, W_SESSION)),
    ("iwasawa.zp_power", SPAN, (W_CHART, W_SESSION)),
    ("phigamma.build_q_a", SPAN, (W_CHART, W_SESSION)),
    ("phigamma.theta_solve", SPAN, (W_CHART, W_SESSION)),
    ("phigamma.theta_solve.nonconvergence", "count", (W_CHART, W_SESSION)),
    ("phigamma.check_commutation", SPAN, (W_CHART, W_SESSION)),
    ("phigamma.check_theta_solver", SPAN, (W_CHART, W_SESSION)),
    ("phigamma.check_unit_action_matrices", SPAN, (W_CHART, W_SESSION)),
    ("phigamma.solve_right_inverse", SPAN, (W_CHART, W_SESSION)),
    ("phigamma.commutation.nonvacuous_ratio", "ratio", (W_CHART, W_SESSION)),
    # constant tables and weights
    ("constants.check_change_origin", SPAN, (W_TABLES, W_SESSION)),
    ("constants.check_constant_identities", SPAN, (W_TABLES, W_SESSION)),
    ("constants.check_shifted_table_additivity", SPAN, (W_TABLES, W_SESSION)),
    ("constants.check_weight_table_bounds", SPAN, (W_TABLES, W_SESSION)),
    ("constants.ConstantTables.lookups", "count", (W_TABLES, W_SESSION)),
    ("weights.enumerate_admissible_S", SPAN, (W_TABLES, W_SESSION)),
    ("weights.rank_for_S", SPAN, (W_TABLES, W_SESSION)),
    ("constants.mutants.run", "count", (W_SESSION,)),
    ("constants.mutants.killed", "count", (W_SESSION,)),
    # per-suite split of verify_s
    ("harness.run_identities", SPAN, (W_TABLES, W_SESSION)),
    ("harness.run_weights", SPAN, (W_TABLES, W_SESSION)),
    ("harness.run_iwasawa", SPAN, (W_SESSION,)),
    ("harness.run_phigamma", SPAN, (W_CHART, W_SESSION)),
    ("harness.emit_report", SPAN, ALL),
    ("arith.Fq.build", SPAN, ALL),
    ("reporting.rows", "count", ALL),
    ("reporting.checked", "count", ALL),
    # traced verify_s minus untraced verify_s, filled in by run.py
    ("trace.overhead_s", "s", ALL),
]

# the accessors of the tables a mutation can perturb
_TABLE_ACCESSORS = ("s", "t", "a", "rJ", "cJ", "cprime", "tJJp", "aJn")


def metric_names():
    """Every per-layer metric with its unit, in LAYERS order."""
    out = []
    for name, kind, _ in LAYERS:
        if kind == SPAN:
            out += [(name + ".calls", "count"), (name + ".total_s", "s"),
                    (name + ".self_s", "s")]
        else:
            out.append((name, kind))
    return out


def applicable(metric, workload):
    """Whether the metric's row names this workload."""
    for name, kind, where in LAYERS:
        if metric == name or (kind == SPAN and metric.startswith(name + ".")):
            return workload in where
    raise KeyError(metric)


def required_spans(workload):
    """Span names that must record calls on this workload."""
    return [name for name, kind, where in LAYERS if kind == SPAN and workload in where]


class Recorder:
    """Spans and counts of one traced run, kept in memory."""

    def __init__(self, run_id):
        self.run_id = run_id
        self.spans = []  # [name, start, end, parent index or -1]
        self.stack = []
        self.counters = {}  # metric -> _Counter
        self.absent = []  # layers this version of the program lacks

    # ---- wrappers ---------------------------------------------------------

    def span(self, name, fn):
        spans, stack, clock = self.spans, self.stack, time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            sid = len(spans)
            rec = [name, clock(), 0.0, stack[-1] if stack else -1]
            spans.append(rec)
            stack.append(sid)
            try:
                return fn(*args, **kwargs)
            finally:
                rec[2] = clock()
                stack.pop()

        return traced

    def counted(self, name, fn):
        """Count calls of fn under name; calls of several fns may share a name."""
        cell = self.counters.setdefault(name, _Counter())

        @functools.wraps(fn)
        def counting(*args, **kwargs):
            cell.n += 1
            return fn(*args, **kwargs)

        return counting

    def distinct(self, name, fn, key):
        """Count the distinct keys fn is called with."""
        seen = set()
        cell = self.counters[name] = _Counter()
        cell.read = lambda: len(seen)

        @functools.wraps(fn)
        def keyed(*args, **kwargs):
            seen.add(key(*args, **kwargs))
            return fn(*args, **kwargs)

        return keyed

    # ---- results ----------------------------------------------------------

    def _outermost(self, i, names):
        """Whether no ancestor of span i has one of these names."""
        spans = self.spans
        anc = spans[i][3]
        while anc >= 0 and spans[anc][0] not in names:
            anc = spans[anc][3]
        return anc < 0

    def layer_metrics(self):
        """calls/total_s/self_s per span name plus every counter."""
        spans = self.spans
        covered = [0.0] * len(spans)
        for name, start, end, parent in spans:
            if parent >= 0:
                covered[parent] += end - start
        agg = {}
        for i, (name, start, end, parent) in enumerate(spans):
            a = agg.setdefault(name, [0, 0.0, 0.0])
            a[0] += 1
            # a recursive call is already inside its outer call's total
            if self._outermost(i, (name,)):
                a[1] += end - start
            a[2] += end - start - covered[i]
        out = {}
        for name, kind, _ in LAYERS:
            if kind != SPAN:
                continue
            calls, total, self_s = agg.get(name, (0, 0.0, 0.0))
            out[name + ".calls"] = calls
            out[name + ".total_s"] = total
            out[name + ".self_s"] = self_s
        for name, cell in self.counters.items():
            out[name] = cell.read()
        return out

    def covered(self, names):
        """Wall time inside any span with one of these names (their union)."""
        return sum(end - start for i, (name, start, end, _) in enumerate(self.spans)
                   if name in names and self._outermost(i, names))

    def dump(self, path):
        """Write the spans as one JSON document."""
        with open(path, "w") as fh:
            json.dump({
                "run_id": self.run_id,
                "fields": ["name", "start", "end", "parent", "run_id"],
                "absent": self.absent,
                "spans": [s + [self.run_id] for s in self.spans],
            }, fh, separators=(",", ":"))


class _Counter:
    __slots__ = ("n", "read")

    def __init__(self):
        self.n = 0
        self.read = lambda: self.n


# ---- installation ----------------------------------------------------------


def _rebind(orig, new):
    """Replace every module-level binding of orig inside the package."""
    for name, mod in list(sys.modules.items()):
        if mod is None or not (name == "modpcheck" or name.startswith("modpcheck.")):
            continue
        for attr, value in list(vars(mod).items()):
            if value is orig:
                setattr(mod, attr, new)


def install(rec):
    """Wrap the layer boundaries in LAYERS.  Call before any field or chart
    is built, so that set-up and cache construction are traced too."""
    from modpcheck import arith, constants, harness, iwasawa, phigamma, weights
    from modpcheck.errors import NonConvergence

    def function(mod, fname, wrap=None):
        orig = getattr(mod, fname, None)
        name = f"{mod.__name__.rsplit('.', 1)[-1]}.{fname}"
        if orig is None:
            rec.absent.append(name)
            return
        new = rec.span(name, wrap(orig) if wrap else orig)
        _rebind(orig, new)

    def method(cls, mname, name, wrapper):
        orig = vars(cls).get(mname)
        if orig is None:
            rec.absent.append(name)
            return
        setattr(cls, mname, wrapper(orig))

    for mod, names in (
        (iwasawa, ("check_torus_eigenvector", "check_frobenius_generators",
                   "check_exponent_additivity", "check_unit_ratio_depth",
                   "unit_action", "invert_unit", "zp_power")),
        (phigamma, ("build_q_a", "check_commutation", "check_theta_solver",
                    "check_unit_action_matrices", "solve_right_inverse")),
        (constants, ("check_change_origin", "check_constant_identities",
                     "check_shifted_table_additivity", "check_weight_table_bounds")),
        (weights, ("enumerate_admissible_S", "rank_for_S")),
        (harness, ("run_identities", "run_weights", "run_iwasawa",
                   "run_phigamma", "emit_report")),
    ):
        for fname in names:
            function(mod, fname)

    nonconv = rec.counters.setdefault("phigamma.theta_solve.nonconvergence", _Counter())

    def count_nonconvergence(fn):
        @functools.wraps(fn)
        def solve(*args, **kwargs):
            try:
                return fn(*args, **kwargs)
            except NonConvergence:
                nonconv.n += 1
                raise
        return solve

    function(phigamma, "theta_solve", count_nonconvergence)

    # ---- arith: field build and per-instance add/mul counts ----
    Fq = arith.Fq
    built_fields = set()
    build = rec.span("arith.Fq.build", Fq.__new__)
    fq_new = Fq.__new__

    def new_field(cls, p, k):
        if (p, k) in built_fields:
            return fq_new(cls, p, k)
        built_fields.add((p, k))
        field = build(cls, p, k)
        field.add = rec.counted("arith.Fq.add.calls", field.add)
        field.mul = rec.counted("arith.Fq.mul.calls", field.mul)
        return field

    Fq.__new__ = staticmethod(new_field)
    for metric in ("arith.Fq.add.calls", "arith.Fq.mul.calls"):
        rec.counters.setdefault(metric, _Counter())
    method(arith.WittRing, "teichmuller", "arith.WittRing.teichmuller",
           lambda fn: rec.span("arith.WittRing.teichmuller", fn))

    # ---- iwasawa: chart context and series products ----
    Ctx = iwasawa.ChartContext
    prop = vars(Ctx).get("y_series")
    if isinstance(prop, property):
        built_charts = set()
        traced_get = rec.span("iwasawa.ChartContext.y_series", prop.fget)
        plain_get = prop.fget

        def y_series(self):
            # only the access that builds the series is a span
            if id(self) in built_charts:
                return plain_get(self)
            built_charts.add(id(self))
            return traced_get(self)

        Ctx.y_series = property(y_series, doc=prop.__doc__)
    else:
        rec.absent.append("iwasawa.ChartContext.y_series")

    tau = rec.counters.setdefault("iwasawa.tau.depth", _Counter())
    rebuilds = rec.counters.setdefault("iwasawa.tau.rebuilds", _Counter())

    def tau_depth(ctx):
        return getattr(getattr(ctx, "tau", None), "depth", 0)

    def watch_tau(fn):
        @functools.wraps(fn)
        def t_to_y(self, *args, **kwargs):
            before = tau_depth(self)
            try:
                return fn(self, *args, **kwargs)
            finally:
                after = tau_depth(self)
                if after > before:
                    rebuilds.n += 1
                tau.n = max(tau.n, after)
        return t_to_y

    method(Ctx, "t_to_y", "iwasawa.ChartContext.t_to_y",
           lambda fn: rec.span("iwasawa.ChartContext.t_to_y", watch_tau(fn)))
    method(Ctx, "convb", "iwasawa.ChartContext.convb",
           lambda fn: rec.span("iwasawa.ChartContext.convb", rec.distinct(
               "iwasawa.ChartContext.convb.distinct", fn,
               lambda ctx, j, gamma: (id(ctx), j, tuple(gamma)))))
    method(Ctx, "n_series", "iwasawa.ChartContext.n_series",
           lambda fn: rec.span("iwasawa.ChartContext.n_series", rec.distinct(
               "iwasawa.ChartContext.n_series.distinct", fn,
               lambda ctx, a, depth=None:
                   (id(ctx), a, ctx.tdepth if depth is None else depth))))
    for cls_name in ("TSeries", "AElement"):
        metric = f"iwasawa.{cls_name}.mul.calls"
        rec.counters.setdefault(metric, _Counter())
        cls = getattr(iwasawa, cls_name, None)
        if cls is None:
            rec.absent.append(metric)
            continue
        method(cls, "__mul__", metric, lambda fn, m=metric: rec.counted(m, fn))

    # ---- constants: reads of the mutable tables ----
    rec.counters.setdefault("constants.ConstantTables.lookups", _Counter())
    for acc in _TABLE_ACCESSORS:
        method(constants.ConstantTables, acc, f"constants.ConstantTables.{acc}",
               lambda fn: rec.counted("constants.ConstantTables.lookups", fn))
