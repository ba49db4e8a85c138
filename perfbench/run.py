"""ASdb benchmark: run one workload, check its outputs, print metrics.

    python3 perfbench/run.py --workload release --seed 42 --seconds 20 --trace 0

Workloads: ``release`` (cold release of a 2000-org world, ML on),
``refresh`` (daily maintenance sweep plus serving refresh) and
``serve`` (the service's request path, in process, over a release
chain).  ``--trace 0`` prints the end-to-end metrics,
``--trace 1`` the per-layer ones.  The last line of standard output is
one JSON object: ``correct``, ``attempted``, ``failed``, ``metrics``.
See ``perfbench/README.md``.
"""

from __future__ import annotations

import time

STARTED = time.monotonic()

import argparse  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import shutil  # noqa: E402
import sys  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
if HERE not in sys.path:
    sys.path.insert(0, HERE)

import benchlib  # noqa: E402

WORKLOADS = ("release", "refresh", "serve")

#: End-to-end metrics with their units, as BENCHMARK.json lists them.
END_TO_END = (
    ("setup_s", "s"),
    ("ops_per_s", "1/s"),
    ("op_p50_ms", "ms"),
    ("op_tail_ms", "ms"),
    ("cpu_ms_per_op", "ms"),
    ("peak_rss_mb", "MB"),
    ("l1_coverage", "fraction"),
    ("l1_accuracy", "fraction"),
    ("l2_accuracy", "fraction"),
)


def _run_workload(name: str, seed: int, seconds: float, trace: bool,
                  workdir: str):
    if name == "release":
        import release
        return release.run(ROOT, seed, seconds, trace, workdir)
    if name == "refresh":
        import refresh
        return refresh.run(ROOT, seed, seconds, trace, workdir, STARTED)
    import serve
    return serve.run(ROOT, seed, seconds, trace, workdir)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    src = os.path.join(ROOT, "src")
    if not os.path.isfile(os.path.join(src, "repro", "__init__.py")):
        print(f"error: no program source under {src}; run from a "
              f"checkout of the repository", file=sys.stderr)
        return 2
    sys.path.insert(0, src)
    trace = bool(args.trace)
    workdir = os.path.join(ROOT, ".perfbench", f"work-{os.getpid()}")
    os.makedirs(workdir, exist_ok=True)
    try:
        summary = _run_workload(args.workload, args.seed, args.seconds,
                                trace, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    if trace:
        import layers
        wanted = layers.PER_LAYER
        values = summary.get("layers", {})
    else:
        wanted = END_TO_END
        values = summary.get("metrics", {})
    missing = [name for name, _ in wanted if values.get(name) is None]
    metrics = {name: (values.get(name) or 0.0, unit)
               for name, unit in wanted}
    failed = int(summary["failed"])
    correct = failed == 0 and not missing

    report = {
        "stamp": benchlib.run_stamp(ROOT, args.workload, args.seed, trace),
        "checks": summary.get("checks", {}),
        "diagnostics": summary.get("diagnostics", {}),
        "missing_metrics": missing,
    }
    print(json.dumps(report, sort_keys=True))
    for name, (value, unit) in metrics.items():
        print(f"{args.workload:8s} {name:36s} {value:14.6g} {unit}")
    print(benchlib.result_line(correct, summary["attempted"], failed,
                               metrics))
    return 0


if __name__ == "__main__":
    sys.exit(main())
