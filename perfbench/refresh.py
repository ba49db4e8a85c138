"""``refresh`` workload: daily maintenance of a live release.

One long-lived process holds a released 2000-org world, snapshot v1
and a serving app wired for incremental refresh the way
``repro serve --snapshots`` wires it.  Each cycle applies one day of
``simulate_churn`` (input generation, not timed), then times the op:
``MaintenanceDaemon.sweep(day)`` followed by ``ServingApp.refresh()``.
"""

from __future__ import annotations

import os
import resource
import time
from contextlib import nullcontext
from typing import Dict, List

import benchlib
import layers
from serve import start_service

N_ORGS = 2000
#: Snapshot checkpoint cadence: bounds delta replay so a cycle's cost
#: does not grow with the number of cycles run.
CHECKPOINT_EVERY = 8
#: The whole measured period is one window.  At 40 to 100 cycles per
#: run, p75 is the highest percentile with at least ten cycles beyond
#: it.
TAIL_Q = 0.75
#: Measured cycles a run makes however long they take: the fewest
#: that leave ten beyond p75, so a slow box still reports the tail.
MIN_CYCLES = 40
#: Cycles between two fingerprint checks of the served index.
CHECK_EVERY = 10
#: ASes per speed-normalized segment of the set-up release.
SETUP_SEGMENT_ASES = 32


def churn_day(world, seed: int, day: int):
    """One day of registry churn, drawn from ``(seed, day)`` alone."""
    from repro.world import simulate_churn

    return simulate_churn(world, days=1, seed=seed * 100_003 + day,
                          start_day=day)


def run(root: str, seed: int, seconds: float, trace: bool, workdir: str,
        started: float) -> Dict[str, object]:
    from repro.core.maintenance import MaintenanceDaemon
    from repro.serving import index_from_snapshots
    from repro.system import SystemConfig, build_asdb
    from repro.world import WorldConfig, generate_world

    snapdir = os.path.join(workdir, "snapshots")
    cpu = benchlib.pin_to_one_cpu()
    # Set-up runs as speed-normalized segments too; its factor scales
    # the whole set-up time, interpreter start included.
    setup_speed = benchlib.SpeedLog(cpu)
    setup_speed.start()
    world_started = time.perf_counter()
    world = generate_world(WorldConfig(n_orgs=N_ORGS, seed=seed))
    world_generate_s = time.perf_counter() - world_started
    setup_speed.stop()
    setup_speed.start()
    built = build_asdb(world, SystemConfig(
        seed=seed, snapshot_dir=snapdir,
        snapshot_checkpoint_every=CHECKPOINT_EVERY))
    setup_speed.stop()
    asdb = built.asdb
    classify = asdb.classify
    classified = [0]

    def segmented_classify(asn):
        if classified[0] % SETUP_SEGMENT_ASES == 0:
            setup_speed.start()
        record = classify(asn)
        classified[0] += 1
        if classified[0] % SETUP_SEGMENT_ASES == 0:
            setup_speed.stop()
        return record

    asdb.classify = segmented_classify
    asdb.classify_all()
    if classified[0] % SETUP_SEGMENT_ASES:
        setup_speed.stop()
    del asdb.classify
    setup_speed.start()
    built.snapshots.save(asdb.dataset, window=(-1, 0))
    daemon = MaintenanceDaemon(asdb, snapshots=built.snapshots, last_day=0)
    app = start_service(snapdir)
    full_refreshes = app.metrics.counter("asdb_serve_refresh_full_total")
    setup_speed.stop()
    raw_setup_s = time.monotonic() - started
    setup_s = raw_setup_s * setup_speed.mean_factor

    def served_matches_rebuild() -> bool:
        served = app.index
        latest = built.snapshots.latest()
        rebuilt = index_from_snapshots(snapdir, version=latest.version)
        return (served.version.snapshot_version == latest.version
                and served.fingerprint() == rebuilt.fingerprint())

    walls: List[float] = []
    raw_walls: List[float] = []
    cpus: List[float] = []
    traced_walls: List[float] = []
    hosts: List[Dict[str, float]] = []
    failures: List[str] = []
    checks = 0
    quality: Dict[str, float] = {}
    cycle_tracer = benchlib.Tracer()
    speed = benchlib.SpeedLog(cpu, cycle_tracer)
    begun = time.monotonic()
    day = 0
    host = benchlib.HostWindow()
    while len(walls) < MIN_CYCLES or time.monotonic() - begun < seconds:
        day += 1
        churn_day(world, seed, day)
        # The traced run alternates traced and untraced cycles; the
        # untraced ones give the overhead reference.
        traced = trace and day % 2 == 0
        if traced:
            layers.install(cycle_tracer)
        try:
            with cycle_tracer.span("op") if traced else nullcontext():
                full_before = full_refreshes.total()
                speed.start()
                try:
                    daemon.sweep(day)
                    app.refresh()
                finally:
                    wall, cpu_s, raw = speed.stop()
        except Exception as exc:  # noqa: BLE001 - a failed op is counted
            failures.append(f"day {day}: {type(exc).__name__}: {exc}")
            continue
        finally:
            if traced:
                cycle_tracer.restore()
        # The op is the incremental refresh; ServingApp.refresh()
        # silently falls back to a full rebuild when that fails.
        if full_refreshes.total() != full_before:
            failures.append(f"day {day}: refresh fell back to a full "
                            f"rebuild")
        if traced:
            traced_walls.append(wall)
        else:
            walls.append(wall)
            raw_walls.append(raw)
            cpus.append(cpu_s)
        if day == MIN_CYCLES:
            # Scored at a fixed day, not at the end, so the figures do
            # not depend on how many cycles the run had time for.
            quality = layers.score_quality(app.index.get, world)
        if day % CHECK_EVERY == 0:
            hosts.append(host.close())
            host = benchlib.HostWindow()
            checks += 1
            if not served_matches_rebuild():
                failures.append(f"day {day}: served index differs from "
                                f"a full rebuild")
    hosts.append(host.close())
    checks += 1
    if not served_matches_rebuild():
        failures.append(f"day {day}: final served index differs from a "
                        f"full rebuild")

    summary: Dict[str, object] = {
        "attempted": max(1, day),
        "failed": len(failures),
        "checks": {"cycles": day, "fingerprint_checks": checks,
                   "full_refreshes": full_refreshes.total(),
                   "failures": failures[:20]},
        "diagnostics": {
            "tail_quantile": TAIL_Q,
            "cycle_samples": len(walls),
            "raw_setup_s": raw_setup_s,
            "setup_speed_factor": setup_speed.mean_factor,
            "raw_op_p50_ms": (1000.0 * benchlib.median(raw_walls)
                              if raw_walls else None),
            "speed_factor": speed.mean_factor,
            "stolen_s": speed.stolen,
            "world.generate_s": world_generate_s,
            "host": benchlib.summarize_hosts(hosts),
        },
    }
    if not walls:
        return summary
    tail = benchlib.window_tail(walls, TAIL_Q)
    summary["metrics"] = {
        "setup_s": setup_s,
        "ops_per_s": len(walls) / sum(walls),
        "op_p50_ms": 1000.0 * benchlib.median(walls),
        "op_tail_ms": None if tail is None else 1000.0 * tail,
        "cpu_ms_per_op": 1000.0 * benchlib.median(cpus),
        "peak_rss_mb": resource.getrusage(
            resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    summary["metrics"].update(quality)
    if trace and traced_walls:
        incremental = app.metrics.counter(
            "asdb_serve_refresh_incremental_total").total()
        full = full_refreshes.total()
        extra = {
            "world.generate_s": world_generate_s,
            "serving.refresh_incremental_ratio": (
                incremental / (incremental + full)),
        }
        shares = benchlib.attribution(cycle_tracer)
        extra["unattributed_s"] = shares["unattributed_s"] / len(traced_walls)
        extra["unattributed_share"] = shares["unattributed_share"]
        values = layers.layer_metrics(cycle_tracer, ops=len(traced_walls),
                                      extra=extra)
        values["trace.overhead_share"] = (
            benchlib.median(traced_walls) / benchlib.median(walls) - 1.0)
        summary["layers"] = values
    return summary
