"""Suite runner: composes the per-module checkers into reproducible reports.

A RunConfig pins every source of variation (parameters, truncation depth,
seed, selected suites, optional mutation).  run_suite executes the selected
suites over every requested Jrho and returns a Report whose JSON payload is
byte-stable for a fixed config; wall-clock timings live next to the payload
but never inside it.
"""

import json
import math
from dataclasses import dataclass
from functools import partial
from itertools import product
from time import perf_counter

from .arith import minimal_irreducible
from .base_combinatorics import all_subsets
from .constants import (
    MUTABLE,
    ConstantTables,
    all_mutations,
    check_constant_identities,
    check_domination_claims,
    check_shifted_table_additivity,
    check_weight_table_bounds,
    mu_gamma,
)
from .errors import ConfigInvalid
from .iwasawa import chart_context, chart_depth, check_iwasawa_axioms, default_cutoff
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
from .reporting import Sweep, _plain
from .weights import (
    RhoParams,
    enumerate_admissible_S,
    is_admissible_S,
    jh_D0,
    jh_D0_component,
    jh_pi1,
    rank_for_S,
    serre_weights_of_rhobar,
)

SUITES = ("identities", "weights", "iwasawa", "phigamma")
SCHEMA = 1

# Admission limits, checked before any field is built.  Every run builds
# F_q, whose tables hold q entries (46 MB peak RSS at q = 23^4).  The chart
# suites also sum over the q-1 units (over their (q-1)^2 pairs at f <= 2) and
# multiply series in the C(depth-1+f, f) monomials below the chart depth
# (1,140 at the largest preset, p=17 f=3).
MAX_Q = 2**19
MAX_CHART_Q = 2**13
MAX_CHART_MONOMIALS = 2**12
MAX_SAMPLES = 1000
CHART_SUITES = ("iwasawa", "phigamma")

# spellings accepted on the command line for the mutable tables
_TABLE_ALIASES = {"rJ": "r", "cJ": "c", "sJ": "s", "tJ": "t", "cprimeJ": "cprime"}


@dataclass(frozen=True)
class RunConfig:
    """Everything a run depends on.  Validation happens at construction."""

    p: int
    f: int
    r: tuple
    jrho: object = "all"  # "all" or a tuple of embedding indices
    cutoff: int | None = None
    seed: int = 0
    suites: tuple = SUITES
    mutate: str | None = None
    units: int = 20
    thetas: int = 50

    def __post_init__(self):
        object.__setattr__(self, "r", tuple(self.r))
        object.__setattr__(self, "suites", tuple(self.suites))
        self._admit()
        if self.jrho != "all":
            object.__setattr__(self, "jrho", tuple(sorted(set(self.jrho))))
            for j in self.jrho:
                if not 0 <= j < self.f:
                    raise ConfigInvalid(f"jrho index {j} outside [0, {self.f})")
        if not self.suites:
            raise ConfigInvalid("no suites selected")
        for s in self.suites:
            if s not in SUITES:
                raise ConfigInvalid(f"unknown suite {s!r}")
        if self.mutate is not None and self.mutate != "eps":
            if _TABLE_ALIASES.get(self.mutate, self.mutate) not in MUTABLE:
                raise ConfigInvalid(f"unknown mutation target {self.mutate!r}")
        self.param_sets()  # raises ConfigInvalid / GenericityViolation

    def _admit(self):
        """Reject a field, cutoff or sample count beyond the admission limits."""
        p, f = self.p, self.f
        if f < 1:
            raise ConfigInvalid(f"f={f} must be positive")
        # p^f >= 2^f for p >= 2, so no f past the limit's bit length fits
        if f > MAX_Q.bit_length() or p**f > MAX_Q:
            raise ConfigInvalid(f"q={p}^{f} exceeds {MAX_Q}")
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

    Table names perturb one cell of ConstantTables (deterministically the
    first cell of that table); "eps" flips the sign of one substitution-matrix
    entry instead, which only the phigamma suite can see.
    """
    if config.mutate is None:
        return None, None
    if config.mutate == "eps":
        return None, default_flip(params)
    name = _TABLE_ALIASES.get(config.mutate, config.mutate)
    for m in all_mutations(params):
        if m.table == name:
            return m, None
    raise ConfigInvalid(f"table {name!r} has no cells at f={params.f}")


# ---- suite runners ---------------------------------------------------------


def run_identities(params, seed=0, mutation=None):
    """Bound checks plus every exact constant identity, exhaustively."""
    tables = ConstantTables(params, mutation)
    mu = mu_gamma(params, seed)
    out = list(check_weight_table_bounds(params, tables))
    out += check_constant_identities(params, tables, mu)
    out.append(check_shifted_table_additivity(params, tables))
    out += check_domination_claims(params, tables)
    return out


def run_weights(params):
    """Weight counts, block partition, admissible families, rank formula."""
    f, k = params.f, len(params.Jrho)

    size = Sweep("weight-set-size")
    W = serre_weights_of_rhobar(params)
    size.check(len(W) == 2**k, got=len(W), expected=2**k)
    for w in W:
        ok = all(w.b[j] in ((0, 1) if j in params.Jrho else (0,)) for j in range(f))
        size.check(ok, weight=w.b)

    blocks = Sweep("socle-block-partition")
    block = jh_D0(params)
    blocks.check(len(block) == 3 ** (f - k) * 4**k, got=len(block))
    seen = set()
    for J in params.subsets():
        if not J <= params.Jrho:
            continue
        comp = jh_D0_component(params, J)
        blocks.check(len(comp) == 3 ** (f - k) * 2**k, J=J, got=len(comp))
        blocks.check(not (seen & comp), J=J)
        seen |= comp
    blocks.check(seen == block)

    fams_sw = Sweep("admissible-families")
    fams = enumerate_admissible_S(params)
    full = frozenset(all_subsets(f))
    fams_sw.check(full in fams)
    order = sorted(fams, key=lambda S: (len(S), sorted(J.bits for J in S)))
    for S in order:
        masks = sorted(J.bits for J in S)
        fams_sw.check(is_admissible_S(params, S), family=masks)
        for J in S:
            fams_sw.check(J.shift(-1) in S, family=masks, J=J)
            if not params.Jrho.is_full():
                for sub in params.subsets():
                    if sub <= J:
                        fams_sw.check(sub in S, family=masks, J=J, Jp=sub)

    rank = Sweep("rank-formula")
    rank.check(rank_for_S(params, full) == 2**f, got=rank_for_S(params, full))
    for S in order:
        masks = sorted(J.bits for J in S)
        rank.check(rank_for_S(params, S) == len(S), family=masks)
        pi1 = jh_pi1(params, S)
        ss_like = {w for w in pi1 if all(v in (0, 1) for v in w.b)}
        rank.check(len(ss_like) == len(S), family=masks, got=len(ss_like))
    for S1 in order:
        for S2 in order:
            if S1 <= S2:
                rank.check(
                    rank_for_S(params, S1) <= rank_for_S(params, S2),
                    small=sorted(J.bits for J in S1),
                    large=sorted(J.bits for J in S2),
                )

    return [size.result(), blocks.result(), fams_sw.result(), rank.result()]


def run_iwasawa(p, f, cutoff, units, seed):
    """Chart-layer action axioms; independent of r and Jrho."""
    ctx = chart_context(p, f, cutoff)
    return check_iwasawa_axioms(ctx, units=units, seed=seed)


def run_phigamma(params, cutoff, units, thetas, seed, flip=None):
    """Matrix layer: twist, right inverse, the solver, unit-action matrices."""
    mu = mu_gamma(params, seed)
    out = [
        check_phi_matrix_shapes(mu),
        check_twist_change_of_basis(mu),
        check_right_inverse(mu),
        check_theta_basics(params, seed=seed),
        check_theta_solver(params, count=thetas, seed=seed, depth=cutoff),
        check_eigen_classifier(params, seed=seed),
    ]
    ctx = chart_context(params.p, params.f, cutoff)
    out += check_unit_action_matrices(
        ctx, mu, units=units, pairs=2, seed=seed, flip=flip
    )
    return out


# ---- report assembly -------------------------------------------------------


@dataclass
class Report:
    config: dict
    fingerprint: dict
    suites: list
    timings: dict

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
        f"p={params.p},f={params.f},r={tuple(params.r)},"
        f"jrho={tuple(sorted(params.Jrho.members()))}"
    )


def _jobs(config):
    """Work queue in deterministic order: canonical suite order, then Jrho."""
    plist = config.param_sets()
    D = config.cutoff_value()
    jobs = []
    for suite in SUITES:
        if suite not in config.suites:
            continue
        if suite == "iwasawa":
            # the axioms only see (p, f, cutoff), so one job covers all Jrho
            tag = f"p={config.p},f={config.f}"
            fn = partial(run_iwasawa, config.p, config.f, D, config.units, config.seed)
            jobs.append((suite, tag, fn))
            continue
        for params in plist:
            mutation, flip = _resolve_mutation(config, params)
            if suite == "identities":
                fn = partial(run_identities, params, config.seed, mutation)
            elif suite == "weights":
                fn = partial(run_weights, params)
            else:
                fn = partial(
                    run_phigamma, params, D, config.units, config.thetas,
                    config.seed, flip,
                )
            jobs.append((suite, _tag(params), fn))
    return jobs


def run_suite(config):
    """Execute the configured suites, one job after another, and assemble
    the report."""
    rows, timings = [], {}
    for suite, tag, fn in _jobs(config):
        t0 = perf_counter()
        results = fn()
        timings[f"{suite}@{tag}"] = perf_counter() - t0
        for res in results:
            row = res.as_dict()
            row["name"] = f"{suite}/{row['name']}@{tag}"
            rows.append(_plain(row))

    fingerprint = {
        "field": {
            "p": config.p,
            "f": config.f,
            "poly": list(minimal_irreducible(config.p, config.f)),
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
