"""One cold benchmark run in a fresh interpreter.

    python3 perfbench/child.py --workload NAME --seed N [--trace FILE] [--setup-only]

run.py starts this script once per timed run, with PYTHONPATH pointing at
the checkout's ``src``.  It sets up (imports modpcheck, validates the
RunConfigs, builds the field tables), runs the workload, and prints one
JSON line: monotonic timestamps of the end of set-up and of the last
emitted report byte, the core-speed probe of each phase, peak RSS, the
verdict, and the sha256 of every report.  With --trace the layer boundaries
are wrapped first, the span list is written to FILE and the per-layer
metrics are part of the JSON line.
"""

import argparse
import gc
import json
import os
import resource
import signal
import sys
import time


class SpeedProbe:
    """Samples the speed of the core this process runs on.

    Other tenants share the host's cores, so the same pure-Python work takes
    up to 40% longer in one minute than in the next, and two cores drift
    independently.  A fixed loop, timed by a timer signal on the same core
    and in the same seconds as the work, measures that drift; run.py scales
    each phase's wall time by REFERENCE_S / (time per loop step).  Set-up
    lasts a fraction of a second, so it is probed with a short loop at a
    short interval; the run with a longer loop every 0.1 s.  See README.md.
    """

    def __init__(self, loop, interval):
        self.loop = loop
        self.interval = interval
        self.samples = []

    def probe(self, *_):
        # tuple keys into a small dict, as in the series accumulation loops;
        # a plain integer loop tracked the drift of the workloads less well.
        # No collection may run inside: its cost grows with the program's heap
        gc_on = gc.isenabled()
        gc.disable()
        t0 = time.perf_counter()
        acc = {}
        for i in range(self.loop):
            k = (i & 63, (i >> 6) & 7)
            v = acc.get(k)
            acc[k] = i if v is None else (v + i) % 4913
        self.samples.append(time.perf_counter() - t0)
        if gc_on:
            gc.enable()

    def start(self):
        signal.signal(signal.SIGALRM, self.probe)
        signal.setitimer(signal.ITIMER_REAL, self.interval, self.interval)
        return self

    def stop(self):
        """Seconds per loop step, averaged over the phase without the
        slowest and fastest tenth (a probe the scheduler cut in two)."""
        signal.setitimer(signal.ITIMER_REAL, 0)
        if not self.samples:  # a phase shorter than one interval
            self.probe()
        s = sorted(self.samples)
        cut = len(s) // 10
        kept = s[cut:len(s) - cut]
        return sum(kept) / len(kept) / self.loop


def main():
    # probe from the start: the imports below are part of set-up
    speed = SpeedProbe(loop=500, interval=0.005).start()
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--trace", default=None, help="write spans to this file")
    ap.add_argument("--setup-only", action="store_true")
    args = ap.parse_args()

    import modpcheck
    src = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
    if not os.path.abspath(modpcheck.__file__).startswith(src + os.sep):
        sys.exit(f"modpcheck imported from {modpcheck.__file__}, not from {src}")
    import tracing
    import workloads

    rec = None
    if args.trace:
        rec = tracing.Recorder(f"{args.workload}-seed{args.seed}-pid{os.getpid()}")
        tracing.install(rec)
    workload = workloads.WORKLOADS[args.workload](args.seed)
    ready = time.monotonic()
    result = {"ready": ready, "setup_probe_s": speed.stop()}
    if not args.setup_only:
        out = workloads.Outcome()
        speed = SpeedProbe(loop=2500, interval=0.1).start()
        workload.run(out)
        done = time.monotonic()
        result.update({
            "done": done,
            "verify_probe_s": speed.stop(),
            "digest": out.digest.hexdigest(),
            "problems": out.verdict(),
            "rows": out.rows,
            "checked": out.checked,
        })
        if rec is not None:
            layers = rec.layer_metrics()
            layers.update({
                "reporting.rows": out.rows,
                "reporting.checked": out.checked,
                "constants.mutants.run": out.mutants_run,
                "constants.mutants.killed": out.mutants_killed,
                "phigamma.commutation.nonvacuous_ratio":
                    out.comm_nonvacuous / out.comm_entries if out.comm_entries else 0.0,
            })
            result["layers"] = layers
            # y_series is first built inside a t_to_y call, so add the union
            result["chart_build_s"] = rec.covered(
                ("iwasawa.ChartContext.y_series", "iwasawa.ChartContext.t_to_y"))
            result["absent"] = rec.absent
            rec.dump(args.trace)
    result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    print(json.dumps(result))


if __name__ == "__main__":
    main()
