"""The benchmark workloads, run inside child.py.

Each workload sets up in ``__init__`` (RunConfig validation, the field
tables) and does the timed work in ``run``, through the public harness API
only.  Outcome collects what the run emitted: the sha256 of every report,
row and check counts, and the verdict.
"""

import hashlib
import json

from modpcheck import arith, constants, harness
from modpcheck.weights import RhoParams

import tracing


class Outcome:
    """What the workload emitted: report digests, row counts, verdicts."""

    def __init__(self):
        self.digest = hashlib.sha256()
        self.rows = 0
        self.checked = 0
        self.failing_rows = []
        self.comm_entries = 0
        self.comm_nonvacuous = 0
        self.mutants_run = 0
        self.mutants_killed = 0
        self.mutants_expected = 0

    def report(self, rep):
        """Emit a healthy report: every row must pass."""
        data = harness.emit_report(rep)
        self.digest.update(data)
        for row in rep.suites:
            self.rows += 1
            self.checked += row["checked"]
            if row["status"] != "pass":
                self.failing_rows.append(row["name"])
            if "unit-substitution-commutation" in row["name"] and "entries" in row:
                self.comm_entries += row["entries"]
                self.comm_nonvacuous += row["nonvacuous_entries"]

    def mutant(self, results):
        """A perturbed-table sweep: some row must fail (the mutant is killed)."""
        rows = [r.as_dict() for r in results]
        self.digest.update(json.dumps(rows, sort_keys=True, default=repr).encode())
        self.mutants_run += 1
        self.rows += len(rows)
        self.checked += sum(r["checked"] for r in rows)
        if any(r["status"] != "pass" for r in rows):
            self.mutants_killed += 1

    def verdict(self):
        problems = [f"healthy row failed: {name}" for name in self.failing_rows[:5]]
        if self.mutants_killed != self.mutants_expected:
            problems.append(f"mutants killed {self.mutants_killed} of "
                            f"{self.mutants_expected}")
        return problems


class ChartCold:
    """p=17, f=3 phigamma job on one Jrho: the cold chart build dominates."""

    def __init__(self, seed):
        self.config = harness.RunConfig(p=17, f=3, r=(7, 8, 7), jrho=(0,),
                                        suites=("phigamma",), seed=seed)
        arith.Fq(17, 3)

    def run(self, out):
        out.report(harness.run_suite(self.config))


class Session:
    """The README's f=2 flow: full verify, then every single-cell mutant."""

    def __init__(self, seed):
        self.seed = seed
        self.config = harness.RunConfig(p=13, f=2, r=(5, 6), seed=seed)
        self.params = RhoParams.make(13, 2, (5, 6), (0,))
        arith.Fq(13, 2)

    def run(self, out):
        out.report(harness.run_suite(self.config))
        mutations = constants.all_mutations(self.params)
        out.mutants_expected = len(mutations)
        for m in mutations:
            out.mutant(harness.run_identities(self.params, self.seed, m))


class Tables:
    """Identity and weight sweeps over every other f=3 preset, every Jrho.

    Half of the eight presets (32 parameter sets) keeps every run of the
    benchmark inside its time budget on a slow host.  Each set gets the
    same exhaustive sweep, so the balance between layers does not change.
    """

    def __init__(self, seed):
        self.configs = [
            harness.RunConfig(p=c.p, f=c.f, r=c.r, jrho="all",
                              suites=("identities", "weights"), seed=seed)
            for c in harness.list_params(3)[::2]
        ]
        arith.Fq(17, 3)

    def run(self, out):
        for config in self.configs:
            out.report(harness.run_suite(config))


WORKLOADS = {
    tracing.W_CHART: ChartCold,
    tracing.W_SESSION: Session,
    tracing.W_TABLES: Tables,
}
