"""Write BENCH_<n>.json: the perfbench workloads, `modpcheck verify` timed
in fresh processes, and the tier-1 tests, with the machine they ran on.

    python3 tools/bench.py                  # every part; writes BENCH_<n>.json
    python3 tools/bench.py --part verify --config f1 --runs 1 --out -

The parts:

* perfbench: `perfbench/run.py --workload all --seconds 1 --trace 0`,
  unchanged, once per seed in SEEDS; the JSON result is the last line it
  prints, and its workloads are the keys of that result.
* verify: each config in CONFIGS, one fresh `python -m modpcheck.cli
  verify` per run.  Each entry keeps every run's wall time, the median, the
  report's sha256 and exit code, and the child's peak RSS (`ru_maxrss` from
  `os.wait4`).
* tier1: the repository's tests in one pytest process, its wall time and
  the counts pytest prints.

Without --out the file is BENCH_<n>.json at the repository root, n the
next free integer.  "-" prints it instead.
"""

import argparse
import hashlib
import json
import os
import platform
import re
import statistics
import subprocess
import sys
import tempfile
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

CONFIGS = {
    "f1": ["--p", "11", "--f", "1", "--r", "4"],
    "f2": ["--p", "13", "--f", "2", "--r", "5,6"],
    "f3": ["--p", "17", "--f", "3", "--r", "7,8,7"],
    "f4-tables": ["--p", "23", "--f", "4", "--r", "9,10,9,10",
                  "--suite", "identities", "--suite", "weights"],
}

SEEDS = (1, 2, 3)

PARTS = ("perfbench", "verify", "tier1")


def _env():
    env = dict(os.environ)
    env["PYTHONHASHSEED"] = "0"
    env["PYTHONPATH"] = os.path.join(ROOT, "src")
    return env


def machine():
    cpu = platform.processor() or platform.machine()
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next(line.split(":", 1)[1].strip()
                       for line in fh if line.startswith("model name"))
    except (OSError, StopIteration):
        pass
    return {"cpu": cpu, "nproc": os.cpu_count(), "python": platform.python_version(),
            "platform": platform.platform(), "load": list(os.getloadavg())}


def time_verify(argv):
    """One fresh `verify` process: wall time, peak RSS, sha256, exit code."""
    cmd = [sys.executable, "-m", "modpcheck.cli", "verify", *argv]
    with tempfile.TemporaryFile() as out:
        start = time.perf_counter()
        proc = subprocess.Popen(cmd, cwd=ROOT, env=_env(), stdout=out,
                                stderr=subprocess.DEVNULL)
        _, status, usage = os.wait4(proc.pid, 0)
        wall = time.perf_counter() - start
        proc.returncode = os.waitstatus_to_exitcode(status)
        out.seek(0)
        digest = hashlib.sha256(out.read()).hexdigest()
    return {"wall_s": round(wall, 3), "peak_rss_mb": round(usage.ru_maxrss / 1024, 1),
            "sha256": digest, "exit": proc.returncode}


def bench_verify(names, runs):
    entries = {}
    for name in names:
        done = [time_verify(CONFIGS[name]) for _ in range(runs)]
        entries[name] = {
            "argv": ["verify", *CONFIGS[name]],
            "runs": done,
            "median_s": statistics.median(r["wall_s"] for r in done),
            "peak_rss_mb": max(r["peak_rss_mb"] for r in done),
            "sha256": sorted({r["sha256"] for r in done}),
            "exit": sorted({r["exit"] for r in done}),
        }
    return entries


def bench_perfbench(seeds):
    """One `run.py --workload all` per seed; the medians over the seeds."""
    results = {}
    for seed in seeds:
        cmd = [sys.executable, os.path.join("perfbench", "run.py"), "--workload", "all",
               "--seed", str(seed), "--seconds", "1", "--trace", "0"]
        proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, check=True)
        results[seed] = json.loads(proc.stdout.strip().splitlines()[-1])
    medians = {}
    for workload in results[seeds[0]]:
        per = [results[seed][workload] for seed in seeds]
        medians[workload] = {
            "correct": all(r["correct"] for r in per),
            **{name: statistics.median(r["metrics"][name]["value"] for r in per)
               for name in per[0]["metrics"]},
        }
    return {"seeds": list(seeds), "median": medians,
            "invocations": {str(seed): res for seed, res in results.items()}}


def bench_tier1():
    cmd = [sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider",
           "--continue-on-collection-errors"]
    start = time.perf_counter()
    proc = subprocess.run(cmd, cwd=ROOT, env=_env(), capture_output=True, text=True)
    wall = time.perf_counter() - start
    tail = proc.stdout.strip().splitlines()[-1] if proc.stdout.strip() else ""
    counts = {word: int(n) for n, word in re.findall(r"(\d+) (passed|failed|errors?)", tail)}
    return {"wall_s": round(wall, 1), "exit": proc.returncode, "summary": tail, **counts}


def next_path():
    n = 1
    while os.path.exists(os.path.join(ROOT, f"BENCH_{n}.json")):
        n += 1
    return os.path.join(ROOT, f"BENCH_{n}.json")


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--part", action="append", choices=PARTS,
                    help="run only these parts (repeatable; default all)")
    ap.add_argument("--config", action="append", choices=sorted(CONFIGS),
                    help="verify only these configs (repeatable; default all)")
    ap.add_argument("--runs", type=int, default=3, help="fresh processes per config")
    ap.add_argument("--out", help='output file, "-" for stdout')
    args = ap.parse_args(argv)
    parts = args.part or PARTS

    bench = {"machine": machine()}
    if "perfbench" in parts:
        bench["perfbench"] = bench_perfbench(SEEDS)
    if "verify" in parts:
        bench["verify"] = bench_verify(args.config or list(CONFIGS), args.runs)
    if "tier1" in parts:
        bench["tier1"] = bench_tier1()
    bench["per_layer"] = "missing: the package writes no per-layer timings yet"
    bench["load_after"] = list(os.getloadavg())

    text = json.dumps(bench, indent=2, sort_keys=True) + "\n"
    if args.out == "-":
        sys.stdout.write(text)
        return 0
    path = args.out or next_path()
    with open(path, "w") as fh:
        fh.write(text)
    print(path)
    return 0


if __name__ == "__main__":
    sys.exit(main())
