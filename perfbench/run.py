"""Cold-process benchmark for ``modpcheck verify``.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --workload all --seed 0 --seconds 1 --trace 1
    python3 perfbench/run.py --summary

A closed loop with one client: this process starts one fresh interpreter
(perfbench/child.py) per timed run, waits for it, and only then starts the
next, so every run pays the cold caches a CLI invocation pays.  Workloads,
metrics and the per-layer table are described in perfbench/README.md.

With --trace 0 the end-to-end metrics are measured: a few set-up runs
(children that stop after set-up), then cold runs of the workload until
--seconds have passed (at least one).  With --trace 1 one or two children
run with the layer boundaries wrapped and the per-layer metrics are printed.
The last line of standard output is the JSON result.  Every invocation is
appended to .perfbench/runs.jsonl, which the report-digest comparison and
--summary read.
"""

import argparse
import hashlib
import json
import os
import platform
import signal
import statistics
import subprocess
import sys
import time

import tracing

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
STATE = os.path.join(ROOT, ".perfbench")
LOG = os.path.join(STATE, "runs.jsonl")

WORKLOADS = tracing.ALL
SETUP_RUNS = 5
RUN_LIMIT_S = 170  # one invocation ends well inside three minutes
TRACE_BUDGET_S = 60  # a traced run adds a child only if it ends by then

# SpeedProbe seconds per loop step on the reference machine's core
REFERENCE_S = 0.32e-6

END_TO_END = [("setup_s", "s"), ("verify_s", "s"), ("peak_rss_mb", "MB"),
              ("success_rate", "ratio")]


# ---- one child process -----------------------------------------------------


def _child_env():
    env = dict(os.environ)
    env.pop("MODPCHECK_THREADS", None)
    env["PYTHONHASHSEED"] = "0"
    env["PYTHONPATH"] = os.path.join(ROOT, "src")
    return env


def launch(workload, seed, deadline, setup_only=False, trace_file=None):
    """Run one child to completion; returns its parsed result or a crash."""
    cmd = [sys.executable, os.path.join(HERE, "child.py"),
           "--workload", workload, "--seed", str(seed)]
    if setup_only:
        cmd.append("--setup-only")
    if trace_file:
        cmd += ["--trace", trace_file]
    start = time.monotonic()
    proc = subprocess.Popen(cmd, cwd=ROOT, env=_child_env(),
                            stdout=subprocess.PIPE, stderr=subprocess.PIPE)
    try:
        out, err = proc.communicate(timeout=max(deadline - start, 1.0))
    except subprocess.TimeoutExpired:
        return {"crash": "timed out", "wall_s": time.monotonic() - start}
    finally:
        # also on SIGTERM or Ctrl-C: leave no child running
        if proc.poll() is None:
            proc.kill()
            proc.communicate()
    wall = time.monotonic() - start
    lines = out.decode().strip().splitlines()
    if proc.returncode != 0 or not lines:
        tail = err.decode().strip().splitlines()[-1:] or [""]
        return {"crash": f"exit {proc.returncode}: {tail[0]}", "wall_s": wall}
    res = json.loads(lines[-1])
    # wall times, and the same scaled to the reference core speed
    ready = res.pop("ready")
    res["setup_wall_s"] = ready - start
    res["setup_s"] = res["setup_wall_s"] * REFERENCE_S / res["setup_probe_s"]
    if "done" in res:
        res["verify_wall_s"] = res.pop("done") - ready
        res["verify_s"] = res["verify_wall_s"] * REFERENCE_S / res["verify_probe_s"]
    res["wall_s"] = wall
    return res


# ---- bookkeeping -----------------------------------------------------------


def src_hash():
    """Identifies the program version, so digests compare within one version."""
    h = hashlib.sha256()
    src = os.path.join(ROOT, "src")
    for dirpath, dirnames, filenames in os.walk(src):
        dirnames.sort()
        for fn in sorted(filenames):
            if fn.endswith(".py"):
                path = os.path.join(dirpath, fn)
                h.update(os.path.relpath(path, src).encode() + b"\0")
                with open(path, "rb") as fh:
                    h.update(fh.read())
    return h.hexdigest()[:16]


def machine():
    model = platform.processor()
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    model = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return {"cpu": model, "nproc": os.cpu_count(),
            "python": platform.python_version()}


def read_log():
    if not os.path.exists(LOG):
        return []
    entries = []
    with open(LOG) as fh:
        for line in fh:
            try:
                entries.append(json.loads(line))
            except json.JSONDecodeError:
                continue  # a line cut short by a killed run
    return entries


def append_log(entry):
    with open(LOG, "a") as fh:
        fh.write(json.dumps(entry, sort_keys=True) + "\n")


def judge(children, workload, seed, version, log):
    """Mark each workload child failed on a crash, a failed check, or a
    report digest that differs from another run of this version and seed."""
    known = {c["digest"] for e in log
             if (e["workload"], e["seed"], e["src"]) == (workload, seed, version)
             for c in e["children"] if c.get("digest")}
    for c in children:
        if "crash" in c:
            c["failure"] = "crash: " + c["crash"]
        elif c.get("problems"):
            c["failure"] = "check: " + "; ".join(c["problems"])
        elif "digest" in c:
            known.add(c["digest"])
    if len(known) > 1:
        for c in children:
            if "failure" not in c and "digest" in c:
                c["failure"] = f"digest: {len(known)} distinct reports at seed {seed}"
    return sum(1 for c in children if "failure" in c)


def tail_percentile(values):
    """Highest nearest-rank percentile with at least ten runs beyond it."""
    n = len(values)
    if n < 11:
        return None
    return int(100 * (n - 10) / n), sorted(values)[n - 11]


def _fmt(v):
    return f"{v:.6g}" if isinstance(v, float) else str(v)


# ---- the two kinds of run --------------------------------------------------


def measure(workload, seed, seconds, deadline):
    """Untraced: set-up runs, then cold runs for `seconds` (at least one)."""
    setups = [launch(workload, seed, deadline, setup_only=True)
              for _ in range(SETUP_RUNS)]
    runs = []
    start = time.monotonic()
    while True:
        runs.append(launch(workload, seed, deadline))
        now = time.monotonic()
        if now - start >= seconds or now + runs[-1]["wall_s"] > deadline:
            break
    return setups, runs


def end_to_end(setups, runs, failed):
    # a run whose checks failed still measured its time; a crash did not
    done = [c for c in setups + runs if "crash" not in c]
    finished = [c for c in runs if "crash" not in c]
    metrics = {"success_rate": 1 - failed / (len(setups) + len(runs))}
    if done:
        metrics["setup_s"] = statistics.median(c["setup_s"] for c in done)
    if finished:
        metrics["verify_s"] = statistics.median(c["verify_s"] for c in finished)
        metrics["peak_rss_mb"] = statistics.median(c["peak_rss_mb"] for c in finished)
    return metrics


def trace(workload, seed, deadline, version, log):
    """Traced children plus the untraced reference for the overhead."""
    traces = os.path.join(STATE, "traces")
    os.makedirs(traces, exist_ok=True)
    ref = [c["verify_s"] for e in log
           if e["workload"] == workload and e["src"] == version
           for c in e["children"]
           if "verify_s" in c and "failure" not in c and not c.get("traced")]
    start = time.monotonic()
    children = []
    if not ref:
        children.append(launch(workload, seed, deadline))
    # a second traced child, for the count comparison, when it fits the budget
    for k in range(2):
        path = os.path.join(traces, f"{workload}-seed{seed}-{k}.json")
        child = launch(workload, seed, deadline, trace_file=path)
        child["traced"] = True
        children.append(child)
        if "crash" in child or (
                time.monotonic() - start + child["wall_s"] > TRACE_BUDGET_S):
            break
    return children, ref


def layer_report(workload, seed, children, ref, version, log):
    """Per-layer metrics of the traced children and the self-checks on them."""
    problems = []
    traced = [c for c in children if c.get("traced") and "layers" in c]
    if not traced:
        return {}, ["no traced child finished"], None
    ref += [c["verify_s"] for c in children
            if not c.get("traced") and "verify_s" in c and "failure" not in c]
    layers = dict(traced[0]["layers"])
    timed = [name for name, unit in tracing.metric_names() if unit == "s"]
    for name in timed:
        if name in layers:
            layers[name] = statistics.median(c["layers"][name] for c in traced)
    traced_verify = statistics.median(c["verify_s"] for c in traced)
    layers["trace.overhead_s"] = traced_verify - statistics.median(ref) if ref else 0.0
    # spans hold wall time, so shares are taken of the wall verify time
    wall = statistics.median(c["verify_wall_s"] for c in traced)
    chart_build = statistics.median(c["chart_build_s"] for c in traced)

    # deterministic counts must repeat across traced runs of this version
    earlier = [c["layers"] for e in log
               if (e["workload"], e["seed"], e["src"]) == (workload, seed, version)
               and e["trace"] for c in e["children"] if "layers" in c]
    for other in [c["layers"] for c in traced[1:]] + earlier:
        for name, unit in tracing.metric_names():
            if unit != "s" and name in other and other[name] != layers.get(name):
                problems.append(f"count {name} differs between traced runs: "
                                f"{layers.get(name)} vs {other[name]}")
    absent = set(traced[0].get("absent", []))
    for name in tracing.required_spans(workload):
        if name not in absent and layers.get(name + ".calls", 0) == 0:
            problems.append(f"span {name} recorded no calls on {workload}")
    return layers, problems, (wall, chart_build)


def attribution(workload, layers, verify, chart_build):
    """Where the traced run put the time, against the measured profile."""
    if workload == tracing.W_CHART:
        share = chart_build / verify
        return f"y_series and t_to_y together = {share:.1%} of traced verify wall time"
    if workload == tracing.W_TABLES:
        share = layers["constants.check_change_origin.total_s"] / verify
        return f"constants.check_change_origin = {share:.1%} of traced verify wall time"
    spans = [name for name, kind, _ in tracing.LAYERS
             if kind == tracing.SPAN and name.startswith("iwasawa.")]
    top = max(spans, key=lambda s: layers[s + ".total_s"])
    return f"largest iwasawa span: {top} ({layers[top + '.total_s']:.3f} s)"


# ---- one invocation ------------------------------------------------------


def _loggable(child):
    """A child's result for the log: per-layer counts, not span times."""
    out = dict(child)
    if "layers" in out:
        out["layers"] = {n: v for n, v in out["layers"].items() if not n.endswith("_s")}
    return out


def run_one(workload, seed, seconds, traced, deadline, version, log):
    load0 = os.getloadavg()
    if traced:
        children, ref = trace(workload, seed, deadline, version, log)
    else:
        setups, children = measure(workload, seed, seconds, deadline)
    failed = judge(children, workload, seed, version, log)
    problems = [c["failure"] for c in children if "failure" in c]
    if traced:
        layers, checks, timing = layer_report(
            workload, seed, children, ref, version, log)
        problems += checks
        if checks:
            for c in children:
                if c.get("traced") and "failure" not in c:
                    c["failure"] = "trace self-check"
            failed = sum(1 for c in children if "failure" in c)
        metrics = {name: (layers.get(name, 0), unit)
                   for name, unit in tracing.metric_names()}
        attempted = len(children)
    else:
        crashed = [c for c in setups if "crash" in c]
        problems += [f"set-up run crash: {c['crash']}" for c in crashed]
        failed += len(crashed)
        values = end_to_end(setups, children, failed)
        metrics = {name: (values[name], unit)
                   for name, unit in END_TO_END if name in values}
        attempted = len(setups) + len(children)
    entry = {
        "time": time.time(), "workload": workload, "seed": seed, "trace": traced,
        "src": version, "machine": machine(),
        "load": [load0, os.getloadavg()],
        "children": [_loggable(c) for c in children],
        "metrics": {k: v for k, (v, _) in metrics.items()},
        "problems": problems,
    }
    append_log(entry)

    # human-readable part
    m = entry["machine"]
    print(f"== {workload} seed={seed} trace={int(traced)} src={version}")
    print(f"machine: {m['cpu']}, nproc={m['nproc']}, python {m['python']}, "
          f"load {entry['load'][0][0]:.2f} -> {entry['load'][1][0]:.2f}")
    for c in children:
        kind = "traced" if c.get("traced") else "cold"
        if "crash" in c:
            print(f"  {kind} run: CRASH {c['crash']}")
        else:
            print(f"  {kind} run: setup {c['setup_s']:.3f} s (wall "
                  f"{c['setup_wall_s']:.3f}), verify {c['verify_s']:.3f} s (wall "
                  f"{c['verify_wall_s']:.3f}), "
                  f"rss {c['peak_rss_mb']:.1f} MB, "
                  f"rows {c['rows']}, checked {c['checked']}, "
                  f"sha256 {c['digest'][:16]}")
    if traced:
        for name, (value, unit) in metrics.items():
            mark = "" if value or tracing.applicable(name, workload) else "  (n/a)"
            print(f"  {name} = {_fmt(value)} {unit}{mark}")
        if layers:
            print("  " + attribution(workload, layers, *timing))
    else:
        for name, (value, unit) in metrics.items():
            print(f"  {name} = {_fmt(value)} {unit}")
        verifies = [c["verify_s"] for c in children if "verify_s" in c]
        print(f"  verify_s: median of {len(verifies)} cold run(s); no tail "
              f"percentile in one invocation, see --summary")
    for p in problems:
        print(f"  FAIL {p}")
    return {
        "correct": not problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }


def summary():
    """Per workload and program version: every logged untraced run."""
    groups = {}
    for e in read_log():
        if not e["trace"]:
            groups.setdefault((e["workload"], e["src"]), []).append(e)
    for (workload, version), entries in sorted(groups.items()):
        print(f"== {workload} src={version}: {len(entries)} invocations")
        for name, unit in END_TO_END:
            vals = [e["metrics"][name] for e in entries if name in e["metrics"]]
            if not vals:
                continue
            line = f"  {name}: median {_fmt(statistics.median(vals))} {unit}, n={len(vals)}"
            if len(vals) >= 2:
                q1, _, q3 = statistics.quantiles(vals, n=4)
                line += f", quartiles {_fmt(q1)}..{_fmt(q3)}"
            tail = tail_percentile(vals)
            line += f", p{tail[0]} {_fmt(tail[1])}" if tail else ", no tail percentile (n<11)"
            print(line)
        digests = {}
        for e in entries:
            for c in e["children"]:
                if c.get("digest"):
                    digests.setdefault(e["seed"], set()).add(c["digest"])
        for seed, ds in sorted(digests.items()):
            state = "identical" if len(ds) == 1 else f"{len(ds)} DIFFERENT"
            print(f"  seed {seed}: report sha256 {state} ({sorted(ds)[0][:16]})")


def _terminate(signum, frame):
    raise SystemExit(128 + signum)


def main():
    signal.signal(signal.SIGTERM, _terminate)
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", choices=WORKLOADS + ("all",))
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=int, default=1)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--summary", action="store_true",
                    help="print statistics over every logged run and exit")
    args = ap.parse_args()

    if not os.path.isfile(os.path.join(ROOT, "src", "modpcheck", "harness.py")):
        print(f"perfbench: no modpcheck sources under {ROOT}/src", file=sys.stderr)
        return 2
    if args.summary:
        summary()
        return 0
    if args.workload is None:
        ap.error("--workload is required")
    os.makedirs(STATE, exist_ok=True)
    version = src_hash()
    if args.workload != "all":
        deadline = time.monotonic() + RUN_LIMIT_S
        result = run_one(args.workload, args.seed, args.seconds, bool(args.trace),
                         deadline, version, read_log())
        print(json.dumps(result))
        return 0
    # every workload, untraced and (with --trace 1) traced, one table
    results = {}
    for workload in WORKLOADS:
        modes = (False, True) if args.trace else (False,)
        for traced in modes:
            deadline = time.monotonic() + RUN_LIMIT_S
            res = run_one(workload, args.seed, args.seconds, traced, deadline,
                          version, read_log())
            results[f"{workload}{'/trace' if traced else ''}"] = res
    print(json.dumps(results))
    return 0


if __name__ == "__main__":
    sys.exit(main())
