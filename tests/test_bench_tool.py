"""tools/bench.py, which writes the committed BENCH_<n>.json files: its verify
part at p=11 f=1, one run in a fresh process, without perfbench or tier-1.
"""

import json
import subprocess
import sys
import time
from pathlib import Path

from test_report_digests import GOLDEN

BENCH = Path(__file__).resolve().parent.parent / "tools" / "bench.py"


def test_bench_times_one_fresh_verify(tmp_path):
    out = tmp_path / "bench.json"
    start = time.perf_counter()
    subprocess.run([sys.executable, str(BENCH), "--part", "verify", "--config", "f1",
                    "--runs", "1", "--out", str(out)],
                   check=True, capture_output=True, timeout=60)
    wall = time.perf_counter() - start
    bench = json.loads(out.read_text())
    assert set(bench) == {"machine", "verify", "per_layer", "load_after"}
    assert {"cpu", "nproc", "python", "load"} <= set(bench["machine"])
    [(name, entry)] = bench["verify"].items()
    assert name == "f1"
    assert entry["argv"] == ["verify", "--p", "11", "--f", "1", "--r", "4"]
    [run] = entry["runs"]
    assert entry["median_s"] == run["wall_s"] < wall
    assert entry["peak_rss_mb"] == run["peak_rss_mb"] > 1
    # the preset's report, byte for byte
    config, digest = GOLDEN[0]
    assert (config.p, config.f, config.r) == (11, 1, (4,))
    assert entry["sha256"] == [digest]
    assert entry["exit"] == [0]
