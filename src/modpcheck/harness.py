"""Suite runner: composes the per-module checkers into reproducible reports.

A RunConfig pins every source of variation (parameters, truncation depth,
seed, selected suites, optional mutation).  Each suite job is a check table
of (row names, thunk) entries; run_suite runs them all in one loop, with one
RunScope for the work its Jrho jobs share, and returns a Report whose JSON
payload is byte-stable for a fixed config.  Wall-clock timings live next to
the payload but never inside it.
"""

import json
import math
from collections.abc import Collection
from itertools import product
from time import perf_counter

from .arith import IRREDUCIBLES, RunScope
from .base_combinatorics import MAX_F, SubsetJ, all_subsets
from .constants import IDENTITY_ROWS, MUTABLE, Mutation, mu_gamma, run_identities
from .errors import ConfigInvalid
from .iwasawa import (
    ChartContext,
    chart_depth,
    check_action_composition,
    check_exponent_additivity,
    check_frobenius_action_commute,
    check_frobenius_generators,
    check_torus_eigenvector,
    check_unit_ratio_depth,
    default_cutoff,
)
from .phigamma import (
    check_eigen_classifier,
    check_phi_matrix_shapes,
    check_right_inverse,
    check_theta_basics,
    check_theta_solver,
    check_twist_change_of_basis,
    check_unit_action_matrices,
    default_flip,
)
from .reporting import _plain, run_table
from .weights import RhoParams, run_weights, validate_params

SUITES = ("identities", "weights", "iwasawa", "phigamma")
SCHEMA = 1

# Admission limits, checked before any field is built.  Every run builds
# F_q, whose two tables hold q entries each (36 MB peak RSS for the build
# alone at q = 23^4, 48 MB for the f=4 identities and weights run).  The
# chart suites' work also grows with q, through their sums over the q-1
# units, and with the C(depth-1+f, f) monomials below the chart depth
# (1,140 at the largest preset, p=17 f=3).
MAX_Q = 2**19
MAX_CHART_Q = 2**13
MAX_CHART_MONOMIALS = 2**12
MAX_SAMPLES = 1000
CHART_SUITES = ("iwasawa", "phigamma")

# spellings accepted on the command line for the mutable tables
_TABLE_ALIASES = {"rJ": "r", "cJ": "c", "sJ": "s", "tJ": "t", "cprimeJ": "cprime"}


class RunConfig:
    """Everything a run depends on.  Validation happens at construction.

    jrho is "all" or a tuple of embedding indices; cutoff None means
    default_cutoff(p, f)."""

    __slots__ = ("p", "f", "r", "jrho", "cutoff", "seed", "suites", "mutate", "units", "thetas")

    def __init__(self, p, f, r, jrho="all", cutoff=None, seed=0, suites=SUITES,
                 mutate=None, units=20, thetas=50):
        self.p, self.f, self.r, self.jrho, self.cutoff = p, f, r, jrho, cutoff
        self.seed, self.suites, self.mutate = seed, suites, mutate
        self.units, self.thetas = units, thetas
        self._admit()
        if self.jrho != "all":
            self.jrho = tuple(sorted(set(self.jrho)))
            for j in self.jrho:
                if not 0 <= j < self.f:
                    raise ConfigInvalid(f"jrho index {j} outside [0, {self.f})")
        if not self.suites:
            raise ConfigInvalid("no suites selected")
        for s in self.suites:
            if s not in SUITES:
                raise ConfigInvalid(f"unknown suite {s!r}")
        if self.mutate is not None and self.mutate != "eps":
            if not isinstance(self.mutate, str):
                raise ConfigInvalid(f"mutate: {self.mutate!r} is not a str")
            if _TABLE_ALIASES.get(self.mutate, self.mutate) not in MUTABLE:
                raise ConfigInvalid(f"unknown mutation target {self.mutate!r}")

    def _admit(self):
        """Reject a field of the wrong type, a bad pack, or a field, cutoff or
        sample count beyond the limits; r and suites become tuples."""
        jrho = () if self.jrho == "all" else self.jrho
        for name, v in (("r", self.r), ("jrho", jrho), ("suites", self.suites)):
            if isinstance(v, str) or not isinstance(v, Collection):
                raise ConfigInvalid(f"{name}: {v!r} is not a collection")
        self.r, self.suites = tuple(self.r), tuple(self.suites)
        fields = [(k, getattr(self, k)) for k in ("p", "f", "cutoff", "seed", "units", "thetas")]
        for name, v in [*fields, *(("r", x) for x in self.r), *(("jrho", j) for j in jrho)]:
            if (not isinstance(v, int) or isinstance(v, bool)) and (name, v) != ("cutoff", None):
                raise ConfigInvalid(f"{name}: {v!r} is not an int")
        p, f = self.p, self.f
        if p < 2:  # the limits below need p >= 2
            raise ConfigInvalid(f"p={p} is not prime")
        if f < 1:
            raise ConfigInvalid(f"f={f} must be positive")
        # p^f >= 2^f for p >= 2, so no f past the limit's bit length fits
        if f > MAX_Q.bit_length() or p**f > MAX_Q:
            raise ConfigInvalid(f"q={p}^{f} exceeds {MAX_Q}")
        if f > MAX_F:
            raise ConfigInvalid(f"f={f} outside [1, {MAX_F}]")
        # p <= MAX_Q here, so its trial division is cheap; the limits below
        # would misname a composite p or a non-generic pack
        validate_params(p, f, self.r, SubsetJ.of(f))
        q = p**f
        if self.cutoff is not None:
            depth = chart_depth(p, f, self.cutoff)
            if depth < 2:
                raise ConfigInvalid(f"cutoff={self.cutoff} too small: chart depth {depth} < 2")
        if any(s in CHART_SUITES for s in self.suites):
            if q > MAX_CHART_Q:
                raise ConfigInvalid(f"q={p}^{f} exceeds {MAX_CHART_Q} for the chart suites")
            depth = chart_depth(p, f, self.cutoff_value())
            monomials = math.comb(depth - 1 + f, f)
            if monomials > MAX_CHART_MONOMIALS:
                raise ConfigInvalid(
                    f"cutoff={self.cutoff_value()} too large: {monomials} monomials below "
                    f"chart depth {depth}, limit {MAX_CHART_MONOMIALS}")
            # _u1_pieces reads a unit's distortion from its digits mod p,
            # exact to depth p, and needs it to depth ceil(cutoff/p)
            if self.cutoff_value() > p * p:
                raise ConfigInvalid(f"cutoff={self.cutoff_value()} too large: "
                                    f"the chart suites need cutoff <= p^2 = {p * p}")
        for name in ("units", "thetas"):
            n = getattr(self, name)
            if not 1 <= n <= MAX_SAMPLES:
                raise ConfigInvalid(f"{name}={n} outside [1, {MAX_SAMPLES}]")

    def param_sets(self):
        """One RhoParams per requested Jrho, in subset-mask order."""
        if self.jrho == "all":
            return [
                RhoParams.make(self.p, self.f, self.r, J.members())
                for J in all_subsets(self.f)
            ]
        return [RhoParams.make(self.p, self.f, self.r, self.jrho)]

    def cutoff_value(self):
        return self.cutoff if self.cutoff is not None else default_cutoff(self.p, self.f)

    def as_dict(self):
        return {
            "p": self.p,
            "f": self.f,
            "r": list(self.r),
            "jrho": "all" if self.jrho == "all" else list(self.jrho),
            "cutoff": self.cutoff_value(),
            "seed": self.seed,
            "suites": list(self.suites),
            "mutate": self.mutate,
            "units": self.units,
            "thetas": self.thetas,
        }


def _resolve_mutation(config, params):
    """Map the mutate flag onto a concrete perturbation for these params.

    Table names perturb the first cell of that table of ConstantTables
    (J = J' = the empty set, slot j = 0); "eps" flips the sign of one
    substitution-matrix entry instead, which only the phigamma suite can see.
    """
    if config.mutate is None:
        return None, None
    if config.mutate == "eps":
        return None, default_flip(params)
    # RunConfig admits only MUTABLE names, and every table has cells at every f
    return Mutation(_TABLE_ALIASES.get(config.mutate, config.mutate), 0, 0), None


# ---- check tables ----------------------------------------------------------
# One table per suite job: (row names, thunk) entries in report order, each
# thunk returning the rows it names.  scope is the RunScope of the run.
# Thunks look the chart up in it when they run, so that its build counts
# toward the job and a failed build fails the rows.


def identities_table(config, params, scope):
    mutation, _ = _resolve_mutation(config, params)
    rows = tuple(name for names in IDENTITY_ROWS for name in names)
    return [(rows, lambda: run_identities(params, config.seed, mutation, scope))]


def weights_table(config, params, scope):
    # the weight sweeps share nothing; scope is taken for _jobs' uniform call
    names = ("weight-set-size", "socle-block-partition", "admissible-families", "rank-formula")
    return [(names, lambda: run_weights(params))]


def iwasawa_table(config, scope):
    """Chart-layer action axioms; they see only (p, f, cutoff)."""
    seed = config.seed

    def ctx():
        return scope[ChartContext][config.p, config.f, config.cutoff_value()]

    table = [(("frobenius-generator-images",), lambda: [check_frobenius_generators(ctx())])]
    if config.f <= 2:
        table.append((("torus-reindex-eigenvector",), lambda: [check_torus_eigenvector(ctx())]))
    return table + [
        (("binomial-exponent-additivity",), lambda: [check_exponent_additivity(ctx(), seed=seed)]),
        (("principal-unit-ratio-depth",),
         lambda: [check_unit_ratio_depth(ctx(), count=config.units, seed=seed)]),
        (("unit-action-composition",), lambda: [check_action_composition(ctx(), seed=seed + 1)]),
        (("frobenius-action-commute",),
         lambda: [check_frobenius_action_commute(ctx(), seed=seed + 2)]),
    ]


def phigamma_table(config, params, scope):
    """Matrix layer: twist, right inverse, the solver, unit-action matrices.
    The theta rows and the classifier read only (p, f), so each is built
    once per scope."""
    _, flip = _resolve_mutation(config, params)
    seed, cutoff = config.seed, config.cutoff_value()
    mu = mu_gamma(params, seed)
    return [
        (("substitution-matrix-shapes",), lambda: [check_phi_matrix_shapes(mu)]),
        (("twist-change-of-basis",), lambda: [check_twist_change_of_basis(mu)]),
        (("substitution-right-inverse",), lambda: [check_right_inverse(mu)]),
        (("theta-basics",), lambda: [scope[check_theta_basics][config.p, config.f, seed]]),
        (("theta-solver",),
         lambda: [scope[check_theta_solver][config.p, config.f, config.thetas, seed, cutoff]]),
        # 20 samples, the classifier's default
        (("substitution-eigenline-classifier",),
         lambda: [scope[check_eigen_classifier][config.p, config.f, 20, seed]]),
        (("unit-matrix-structure", "unit-substitution-commutation", "unit-matrix-cocycle"),
         lambda: check_unit_action_matrices(scope[ChartContext][config.p, config.f, cutoff], mu,
                                            units=config.units, pairs=2, seed=seed, flip=flip)),
    ]


_TABLES = {"identities": identities_table, "weights": weights_table, "phigamma": phigamma_table}


# ---- report assembly -------------------------------------------------------


class Report:
    """The payload parts of one run, and its timings outside the payload."""

    __slots__ = ("config", "fingerprint", "suites", "timings")

    def __init__(self, config, fingerprint, suites, timings):
        self.config = config
        self.fingerprint = fingerprint
        self.suites = suites
        self.timings = timings

    @property
    def passed(self):
        return all(row["status"] == "pass" for row in self.suites)

    def payload(self):
        return {
            "schema": SCHEMA,
            "config": self.config,
            "fingerprint": self.fingerprint,
            "suites": self.suites,
        }


def _tag(params):
    return (
        f"p={params.p},f={params.f},r={params.r},"
        f"jrho={tuple(sorted(params.Jrho.members()))}"
    )


def _jobs(config, scope):
    """(suite, tag, check table) per job: canonical suite order, then Jrho.
    The jobs share scope, a RunScope."""
    plist = config.param_sets()
    for suite in SUITES:
        if suite not in config.suites:
            continue
        if suite == "iwasawa":
            # the axioms only see (p, f, cutoff), so one job covers all Jrho
            yield suite, f"p={config.p},f={config.f}", iwasawa_table(config, scope)
        else:
            for params in plist:
                yield suite, _tag(params), _TABLES[suite](config, params, scope)


def run_suite(config):
    """Run every entry of every job's check table, one after another, and
    assemble the report.  A package error raised by an entry fails the rows
    it names, with checked 0, and the next entry runs.  The jobs of this
    call share one RunScope, which ends with the call: the aJn frames,
    change-of-origin boxes, reindexing blocks and shifted-table domains of
    the identities jobs, the chart context with its Lucas rows, which the
    iwasawa and phigamma jobs read, and the theta rows and classifier row
    of the phigamma jobs.  A value common to several jobs is built, and
    timed, in the first job that needs it."""
    rows, timings = [], {}
    for suite, tag, table in _jobs(config, RunScope()):
        t0 = perf_counter()
        for res in run_table(table):
            row = res.as_dict()
            row["name"] = f"{suite}/{row['name']}@{tag}"
            rows.append(_plain(row))
        timings[f"{suite}@{tag}"] = perf_counter() - t0

    fingerprint = {
        "field": {
            "p": config.p,
            "f": config.f,
            "poly": list(IRREDUCIBLES[config.p, config.f]),
        },
        "seed": config.seed,
        "cutoff": config.cutoff_value(),
    }
    return Report(config.as_dict(), fingerprint, rows, timings)


def emit_report(report, fmt="json"):
    """Serialize a report; byte-stable for a fixed config (no timings)."""
    if fmt == "json":
        text = json.dumps(report.payload(), sort_keys=True, separators=(",", ":"))
        return (text + "\n").encode()
    if fmt == "text":
        cfg = report.config
        lines = [
            f"modpcheck report schema={SCHEMA}",
            "config "
            + " ".join(f"{k}={_fmt_value(cfg[k])}" for k in sorted(cfg)),
            "fingerprint "
            + json.dumps(report.fingerprint, sort_keys=True, separators=(",", ":")),
        ]
        failures = 0
        for row in report.suites:
            mark = "PASS" if row["status"] == "pass" else "FAIL"
            line = f"{mark} {row['name']} checked={row['checked']}"
            if row["status"] != "pass":
                failures += 1
                ce = row.get("counterexample")
                if ce is not None:
                    line += " counterexample=" + json.dumps(
                        ce, sort_keys=True, separators=(",", ":")
                    )
            lines.append(line)
        lines.append(f"total checks={len(report.suites)} failures={failures}")
        lines.append("RESULT " + ("PASS" if failures == 0 else "FAIL"))
        return ("\n".join(lines) + "\n").encode()
    raise ConfigInvalid(f"unknown report format {fmt!r}")


def _fmt_value(v):
    if isinstance(v, list):
        return ",".join(str(x) for x in v)
    return str(v)


def list_params(f=None):
    """The built-in verification presets, every Jrho included in each."""
    blocks = {
        1: (11, ((4,), (5,), (6,))),
        2: (13, tuple(product((5, 6), repeat=2))),
        3: (17, tuple(product((7, 8), repeat=3))),
    }
    if f is not None and f not in blocks:
        raise ConfigInvalid(f"no preset block for f={f}")
    degrees = (f,) if f is not None else (1, 2, 3)
    out = []
    for deg in degrees:
        p, r_choices = blocks[deg]
        for r in r_choices:
            out.append(RunConfig(p=p, f=deg, r=r, jrho="all"))
    return out
