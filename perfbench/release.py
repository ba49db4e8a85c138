"""``release`` workload: cold releases of a 2000-org world, ML on.

Each release runs in a fresh interpreter, the way every
``repro classify`` pays for it: module-level caches (the LRU caches in
``repro.matching.kernels``) would otherwise make later in-process
releases cheaper than the first.  The parent starts releases one after
another until the measured time is used (and at least
:data:`MIN_RELEASES`), then reports medians across them.

Run as a script (``release.py --child ...``) this module is one such
release; it prints one JSON line for the parent.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import subprocess
import sys
import tempfile
import time
from typing import Dict, List

HERE = os.path.dirname(os.path.abspath(__file__))
if HERE not in sys.path:
    sys.path.insert(0, HERE)

import benchlib  # noqa: E402

N_ORGS = 2000
#: Fewer releases than this cannot give a median that one disturbed
#: release does not decide.
MIN_RELEASES = 3
#: Per-AS latency tail: one release (about 2.2k ASes) is one window.
TAIL_Q = 0.99
#: A release takes about 11 s; one that takes this long has hung.
CHILD_TIMEOUT_S = 45


#: ASes per speed-normalized segment of the classify pass (about a
#: tenth of a second of work between two probes).
SEGMENT_ASES = 32


def child(seed: int, trace: bool, workdir: str) -> Dict[str, object]:
    """One cold release; returns what the parent aggregates."""
    from repro.core.snapshots import SnapshotStore
    from repro.serving import index_from_store
    from repro.system import SystemConfig, build_asdb
    from repro.world import WorldConfig, generate_world

    import layers

    cpu = benchlib.pin_to_one_cpu()
    tracer = benchlib.Tracer()
    if trace:
        layers.install(tracer)
    setup_probe = benchlib.steady_probe()
    with tracer.span("world.generate"):
        world = generate_world(WorldConfig(n_orgs=N_ORGS, seed=seed))
    ready = time.monotonic()
    setup_factor = 2.0 * benchlib.REFERENCE_PROBE_S / (
        setup_probe + benchlib.steady_probe())

    latencies: List[float] = []
    pending: List[float] = []
    host = benchlib.HostWindow()
    speed = benchlib.SpeedLog(cpu, tracer)
    with tracer.span("op"):
        speed.start()
        built = build_asdb(world, SystemConfig(seed=seed))
        speed.stop()
        asdb = built.asdb
        classify = asdb.classify

        def close_segment():
            # Per-AS latencies share their segment's correction.
            wall, _, raw = speed.stop()
            factor = wall / raw if raw else 1.0
            latencies.extend(latency * factor for latency in pending)
            pending.clear()

        def timed_classify(asn):
            if not pending:
                speed.start()
            began = time.perf_counter()
            record = classify(asn)
            pending.append(time.perf_counter() - began)
            if len(pending) == SEGMENT_ASES:
                close_segment()
            return record

        asdb.classify = timed_classify
        dataset = asdb.classify_all()
        if pending:
            close_segment()
        speed.start()
        dataset.flush()
        info = SnapshotStore(tempfile.mkdtemp(dir=workdir)).save(dataset)
        index = index_from_store(dataset)
        speed.stop()
    host_window = host.close()
    tracer.restore()

    registry_asns = world.asns()
    missing = sum(1 for asn in registry_asns if index.get(asn) is None)
    tail = benchlib.window_tail(latencies, TAIL_Q)
    out: Dict[str, object] = {
        "ready_monotonic": ready,
        "setup_factor": setup_factor,
        "ases": len(registry_asns),
        "released": len(dataset),
        "missing": missing,
        "digest": info.digest,
        "wall_s": speed.norm_wall,
        "raw_wall_s": speed.wall,
        "stolen_s": speed.stolen,
        "cpu_s": speed.norm_cpu,
        "speed_factor": speed.mean_factor,
        "p50_ms": 1000.0 * benchlib.nearest_rank(sorted(latencies), 0.5),
        "tail_ms": None if tail is None else 1000.0 * tail,
        "latency_samples": len(latencies),
        "peak_rss_mb": resource.getrusage(
            resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "host": host_window,
    }
    out.update(layers.score_quality(dataset.get, world))
    if trace:
        extra = {
            "core.cache.hit_ratio": asdb.cache.stats().hit_rate,
            "ml.featcache_hit_ratio": (
                built.ml_pipeline.feature_cache.stats().hit_rate
                if built.ml_pipeline is not None else 0.0),
        }
        extra.update(benchlib.attribution(tracer))
        out["layers"] = layers.layer_metrics(tracer, ops=1, extra=extra)
    return out


def _spawn(root: str, seed: int, trace: bool, workdir: str):
    """Run one release child; returns (spawn time, parsed output or
    None, stderr tail)."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.path.join(root, "src")
    spawned = time.monotonic()
    try:
        proc = subprocess.run(
            [sys.executable, os.path.abspath(__file__), "--child",
             "--seed", str(seed),
             "--trace", "1" if trace else "0", "--workdir", workdir],
            cwd=root, env=env, capture_output=True, text=True,
            timeout=CHILD_TIMEOUT_S, check=False,
        )
    except subprocess.TimeoutExpired:
        return spawned, None, f"release took over {CHILD_TIMEOUT_S} s"
    if proc.returncode != 0:
        return spawned, None, proc.stderr[-2000:]
    return spawned, json.loads(proc.stdout.strip().splitlines()[-1]), ""


def run(root: str, seed: int, seconds: float, trace: bool,
        workdir: str) -> Dict[str, object]:
    releases: List[Dict[str, object]] = []
    errors: List[str] = []
    begun = time.monotonic()
    count = 0
    while count < MIN_RELEASES or time.monotonic() - begun < seconds:
        # The traced run alternates untraced and traced releases so
        # the tracing overhead is measured in the same minutes.
        traced = trace and count % 2 == 1
        spawned, out, err = _spawn(root, seed, traced, workdir)
        count += 1
        if out is None:
            errors.append(err)
            continue
        out["raw_setup_s"] = out["ready_monotonic"] - spawned
        out["setup_s"] = out["raw_setup_s"] * out["setup_factor"]
        out["traced"] = traced
        releases.append(out)

    digests = {r["digest"] for r in releases}
    reference = releases[0]["digest"] if releases else None
    attempted = failed = 0
    for r in releases:
        attempted += r["ases"]
        failed += r["missing"]
        if r["digest"] != reference:
            failed += r["ases"] - r["missing"]
    attempted += len(errors)
    failed += len(errors)

    plain = [r for r in releases if not r["traced"]]
    summary: Dict[str, object] = {
        "attempted": max(1, attempted),
        "failed": failed,
        "checks": {
            "releases": len(releases),
            "child_errors": errors,
            "identical_digest": len(digests) == 1,
            "digest": reference,
            "missing_ases": sum(r["missing"] for r in releases),
        },
        "diagnostics": {
            "tail_quantile": TAIL_Q,
            "latency_samples": [r["latency_samples"] for r in plain],
            "release_wall_s": [r["wall_s"] for r in plain],
            "raw_release_wall_s": [r["raw_wall_s"] for r in plain],
            "speed_factor": [r["speed_factor"] for r in plain],
            "setup_s": [r["setup_s"] for r in plain],
            "raw_setup_s": [r["raw_setup_s"] for r in plain],
            "host": benchlib.summarize_hosts([r["host"] for r in releases]),
        },
    }
    if not plain:
        return summary
    tails = [r["tail_ms"] for r in plain if r["tail_ms"] is not None]
    summary["metrics"] = {
        "setup_s": benchlib.median(r["setup_s"] for r in plain),
        "ops_per_s": benchlib.median(r["released"] / r["wall_s"]
                                     for r in plain),
        "op_p50_ms": benchlib.median(r["p50_ms"] for r in plain),
        "op_tail_ms": benchlib.median(tails) if tails else None,
        "cpu_ms_per_op": benchlib.median(1000.0 * r["cpu_s"] / r["released"]
                                         for r in plain),
        "peak_rss_mb": benchlib.median(r["peak_rss_mb"] for r in plain),
        "l1_coverage": plain[0]["l1_coverage"],
        "l1_accuracy": plain[0]["l1_accuracy"],
        "l2_accuracy": plain[0]["l2_accuracy"],
    }
    if trace:
        traced = [r for r in releases if r["traced"]]
        if traced:
            layer_values = {
                name: benchlib.median(r["layers"][name] for r in traced)
                for name in traced[0]["layers"]
            }
            layer_values["trace.overhead_share"] = (
                benchlib.median(r["wall_s"] for r in traced)
                / benchlib.median(r["wall_s"] for r in plain) - 1.0)
            summary["layers"] = layer_values
    return summary


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--child", action="store_true", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--workdir", required=True)
    args = parser.parse_args()
    out = child(args.seed, bool(args.trace), args.workdir)
    print(json.dumps(out))


if __name__ == "__main__":
    main()
