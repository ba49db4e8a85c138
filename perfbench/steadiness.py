"""Run one workload on several seeds and report each metric's spread.

    python3 perfbench/steadiness.py --workload serve --seeds 1 2 3 4 5

For every metric: the median over the runs and the distance between
the first and third quartile as a share of the median, the rule the
bounds in ``BENCHMARK.json`` are judged by.  Also prints each run's
wall time, since the runs' total is budgeted.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import benchlib  # noqa: E402


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seeds", type=int, nargs="+", required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    root = os.path.dirname(HERE)
    with open(os.path.join(root, "BENCHMARK.json")) as handle:
        spec = json.load(handle)
    bounds = {m["name"]: m.get("bound") for m in spec["end_to_end"]}

    values = {}
    for seed in args.seeds:
        began = time.monotonic()
        proc = subprocess.run(
            spec["command"] + ["--workload", args.workload, "--seed",
                               str(seed), "--seconds",
                               str(spec["run_seconds"]), "--trace",
                               str(args.trace)],
            cwd=root, capture_output=True, text=True, check=False)
        wall = time.monotonic() - began
        if proc.returncode != 0:
            print(f"seed {seed}: exit {proc.returncode}\n{proc.stderr[-2000:]}")
            return 1
        lines = proc.stdout.strip().splitlines()
        result = json.loads(lines[-1])
        host = json.loads(lines[0])["diagnostics"].get("host", {})
        print(f"seed {seed}: {wall:6.1f} s wall, correct={result['correct']} "
              f"attempted={result['attempted']} failed={result['failed']} "
              f"steal={host.get('steal_share_median', 0):.3f}/"
              f"{host.get('steal_share_max', 0):.3f} "
              f"load={host.get('loadavg_1m_median', 0):.2f}", flush=True)
        for name, metric in result["metrics"].items():
            values.setdefault(name, []).append(metric["value"])
    for name, series in values.items():
        spread = (benchlib.quartile_spread(series) if len(series) > 1
                  else 0.0)
        bound = bounds.get(name)
        flag = ""
        if bound:
            flag = "ok" if spread < bound / 3 else (
                "WITHIN BOUND" if spread <= bound else "TOO NOISY")
        print(f"{name:36s} median {benchlib.median(series):12.6g} "
              f"spread {spread:7.4f} bound {bound} {flag}")
        print("    " + " ".join(f"{value:.6g}" for value in series))
    return 0


if __name__ == "__main__":
    sys.exit(main())
