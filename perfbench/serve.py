"""``serve`` workload: the serving layer's request path, in process.

Set-up builds a release chain of :data:`CHAIN_RECORDS` synthetic
records (a base plus later versions, each relabelling 1% of records)
and starts the service over it the way ``repro serve --snapshots``
does: ``index_from_snapshots`` and ``history_from_snapshots`` behind a
``ServingApp`` wired for incremental refresh.

The measured loop replays the seeded request plan through
``ServingApp.handle_request`` in passes.  Before each pass an untimed
``ServingApp.refresh()`` publishes a new index generation, so every
pass starts with a cold per-generation response cache, as a live
service does after each daily refresh, and runs the miss-and-render
and the cache-hit paths in the same proportion.  A pass is
:data:`PASS_WINDOWS` windows of :data:`WINDOW_REQUESTS` requests; each
window is one speed-normalized segment with its own p99.

Every answer of every pass is compared with the answer of a second,
independently started service over the same snapshot store.
"""

from __future__ import annotations

import gc
import os
import random
import resource
import time
from dataclasses import replace
from typing import Dict, List, Optional, Sequence, Tuple

import benchlib
import layers

#: Records of the release chain.  At this size set-up (chain build plus
#: five service starts) takes about 14 s.
CHAIN_RECORDS = 16_000
CHAIN_VERSIONS = 3
#: Share of records each later version relabels.
CHANGE_SHARE = 0.01
DAYS_PER_VERSION = 30

#: Endpoint mix of the plan.  ``unknown`` asks ``/asn/{asn}`` for ASNs
#: outside the release (404).  The org query is a record's numeric
#: domain label, which matches one organization.
MIX: Tuple[Tuple[str, float], ...] = (
    ("asn", 0.86), ("history", 0.05), ("asof", 0.04), ("org", 0.03),
    ("unknown", 0.02),
)
ZIPF_S = 1.0
#: Requests per window: 2000 leaves 20 samples beyond a window's p99.
WINDOW_REQUESTS = 2000
PASS_WINDOWS = 10
PASS_REQUESTS = WINDOW_REQUESTS * PASS_WINDOWS
MIN_PASSES = 3
TAIL_Q = 0.99
#: Service starts per run; ``setup_s`` is their median.  One start is
#: a single ~2 s segment between two speed probes, so it is the least
#: steady figure of the workload.
STARTS = 5

#: ``(status, body)``, or a ``handle_request`` result
#: ``(status, body, headers)``, whose headers the checks ignore.
Answer = tuple


# -- the release chain ---------------------------------------------------------


def build_chain(path: str, seed: int) -> Dict[int, List[Tuple[str, str]]]:
    """Write the release chain under ``path``; returns the final
    version's labels per ASN, what served answers are scored against."""
    from repro.core.database import ASdbDataset
    from repro.core.snapshots import SnapshotStore
    from repro.taxonomy import Label, LabelSet
    from repro.world.distributions import LAYER2_WEIGHTS
    from repro.world.generator import iter_record_shards

    dataset = ASdbDataset()
    for shard in iter_record_shards(CHAIN_RECORDS, seed=seed):
        for record in shard:
            dataset.add(record)
    store = SnapshotStore(path)
    store.save(dataset, window=(-1, 0), note="base")
    rng = random.Random(seed)
    asns = [record.asn for record in dataset]
    slugs = tuple(LAYER2_WEIGHTS)
    for version in range(2, CHAIN_VERSIONS + 1):
        for asn in rng.sample(asns, int(CHAIN_RECORDS * CHANGE_SHARE)):
            slug = slugs[rng.randrange(len(slugs))]
            dataset.add(replace(dataset.get(asn),
                                labels=LabelSet([Label.from_layer2(slug)])))
        store.save(dataset, window=((version - 2) * DAYS_PER_VERSION,
                                    (version - 1) * DAYS_PER_VERSION))
    return {record.asn: [(label.layer1, label.layer2)
                         for label in record.labels]
            for record in dataset}


def start_service(snapdir: str, tracer: Optional[benchlib.Tracer] = None):
    """A ``ServingApp`` over ``snapdir``, wired as ``repro serve
    --snapshots`` wires it (incremental refresh on)."""
    from contextlib import nullcontext

    from repro.obs.metrics import MetricsRegistry
    from repro.serving import (
        ServingApp,
        history_from_snapshots,
        index_from_snapshots,
        refresh_history_from_snapshots,
        refresh_index_from_snapshots,
    )

    def span(name):
        return tracer.span(name) if tracer is not None else nullcontext()

    with span("serving.startup.index"):
        index = index_from_snapshots(snapdir)
    with span("serving.startup.history"):
        history = history_from_snapshots(snapdir)
    return ServingApp(
        index,
        metrics=MetricsRegistry(),
        rebuild=lambda generation: index_from_snapshots(
            snapdir, generation=generation),
        history=history,
        rebuild_history=lambda generation: history_from_snapshots(
            snapdir, generation=generation),
        refresh_incremental=lambda generation, previous:
            refresh_index_from_snapshots(snapdir, previous, generation),
        refresh_history_incremental=lambda generation, previous:
            refresh_history_from_snapshots(snapdir, previous, generation),
    )


# -- request plan --------------------------------------------------------------


def make_plan(seed: int, asns: Sequence[int], max_day: int,
              length: int = PASS_REQUESTS):
    """``(targets, kinds, sequence)``: distinct request targets, their
    endpoint kind, and the order one pass sends them in."""
    import numpy as np

    rng = np.random.default_rng(seed)
    n = len(asns)
    weights = 1.0 / np.arange(1, n + 1, dtype=np.float64) ** ZIPF_S
    cdf = np.cumsum(weights)
    cdf /= cdf[-1]
    hot = rng.permutation(n)
    ranks = np.minimum(np.searchsorted(cdf, rng.random(length)), n - 1)
    positions = hot[ranks]
    mix = np.array([share for _, share in MIX])
    kind_ids = rng.choice(len(MIX), size=length, p=mix / mix.sum())
    days = rng.integers(0, max_day + 1, size=length)
    unknown = rng.integers(1, 50_000, size=length)
    top = max(asns)

    targets: List[str] = []
    kinds: List[str] = []
    ids: Dict[str, int] = {}
    sequence: List[int] = []
    for i in range(length):
        kind = MIX[kind_ids[i]][0]
        position = int(positions[i])
        asn = asns[position]
        if kind == "asn":
            target = f"/asn/{asn}"
        elif kind == "history":
            target = f"/asn/{asn}/history"
        elif kind == "asof":
            target = f"/asof/{int(days[i])}/asn/{asn}"
        elif kind == "org":
            target = f"/org/{position}"
        else:
            target = f"/asn/{top + int(unknown[i])}"
        rid = ids.get(target)
        if rid is None:
            rid = ids[target] = len(targets)
            targets.append(target)
            kinds.append(kind)
        sequence.append(rid)
    return targets, kinds, sequence


# -- checks against the second service -----------------------------------------


def at_generation(answer: Answer, generation: int) -> Answer:
    """``answer`` as a service at ``generation`` gives it: bodies carry
    the generation that produced them."""
    status, body = answer
    if isinstance(body, dict) and "generation" in body:
        body = dict(body, generation=generation)
    return status, body


def check_pass(answers: Sequence[Optional[Answer]], sequence: Sequence[int],
               expected: Sequence[Answer], generation: int,
               targets: Sequence[str]) -> Tuple[int, List[str]]:
    """Compare one pass's answers with the expected ones; returns the
    failed request count and the targets answered wrongly.  A missing
    answer (the request raised) and a 5xx fail too."""
    failed = 0
    wrong: List[str] = []
    want: Dict[int, Answer] = {}
    for answer, rid in zip(answers, sequence):
        expect = want.get(rid)
        if expect is None:
            expect = want[rid] = at_generation(expected[rid], generation)
        if (answer is None or answer[0] >= 500 or answer[0] != expect[0]
                or answer[1] != expect[1]):
            failed += 1
            if len(wrong) < 20 and targets[rid] not in wrong:
                wrong.append(targets[rid])
    return failed, wrong


def score_answers(answers: Sequence[Optional[Answer]],
                  sequence: Sequence[int], kinds: Sequence[str],
                  labels: Dict[int, List[Tuple[str, str]]]) -> Dict[str, float]:
    """Quality of one pass's ``/asn`` answers against the chain's final
    labels, per request: the share answered with labels, and the share
    of those whose labels match at layer 1 and (where both sides have
    one) at layer 2."""
    asked = covered = l1_hits = l2_total = l2_hits = 0
    for answer, rid in zip(answers, sequence):
        if kinds[rid] != "asn":
            continue
        asked += 1
        if answer is None or answer[0] != 200:
            continue
        record = answer[1]["record"]
        served = record.get("labels") or []
        if not served:
            continue
        covered += 1
        truth = labels[record["asn"]]
        l1_hits += bool({l["layer1"] for l in served} & {t[0] for t in truth})
        served2 = {l["layer2"] for l in served if l["layer2"]}
        truth2 = {t[1] for t in truth if t[1]}
        if served2 and truth2:
            l2_total += 1
            l2_hits += bool(served2 & truth2)
    return {
        "l1_coverage": covered / asked if asked else 0.0,
        "l1_accuracy": l1_hits / covered if covered else 0.0,
        "l2_accuracy": l2_hits / l2_total if l2_total else 0.0,
    }


# -- the run ---------------------------------------------------------------------


def run(root: str, seed: int, seconds: float, trace: bool,
        workdir: str) -> Dict[str, object]:
    cpu = benchlib.pin_to_one_cpu()
    snapdir = os.path.join(workdir, "snapshots")
    began = time.monotonic()
    labels = build_chain(snapdir, seed)
    chain_s = time.monotonic() - began
    targets, kinds, sequence = make_plan(
        seed, sorted(labels), (CHAIN_VERSIONS - 1) * DAYS_PER_VERSION)
    requests = [targets[rid] for rid in sequence]

    # The first start is the measured service, the second the
    # reference its answers are checked against; the rest are only
    # timed.  In the traced run the first start is traced and the
    # others give the tracing overhead.
    tracer = benchlib.Tracer()
    setup_speed = benchlib.SpeedLog(cpu)
    starts: List[float] = []
    services = []
    for number in range(STARTS):
        traced = trace and number == 0
        if traced:
            layers.install(tracer)
        setup_speed.start()
        try:
            service = start_service(snapdir, tracer if traced else None)
        finally:
            starts.append(setup_speed.stop()[0])
            tracer.restore()
        if len(services) < 2:
            services.append(service)
        del service
    app, reference = services
    del services
    expected = [reference.handle_request("GET", target)[:2]
                for target in targets]
    del reference

    handle = app.handle_request
    clock = time.perf_counter
    speed = benchlib.SpeedLog(cpu)
    host = benchlib.HostWindow()
    windows: List[Dict[str, float]] = []
    pass_walls: List[float] = []
    failures: List[str] = []
    failed = attempted = passes = 0
    quality: Dict[str, float] = {}
    before = _scrape(app) if trace else None
    begun = time.monotonic()
    while passes < MIN_PASSES or time.monotonic() - begun < seconds:
        app.refresh()
        # Each pass leaves a generation's worth of cache entries behind,
        # far sooner than a daily refresh would.  Collecting them here,
        # untimed, keeps the full collections this speed-up would cause
        # out of the passes.
        gc.collect()
        answers: List[Optional[Answer]] = [None] * PASS_REQUESTS
        pass_wall = 0.0
        for window in range(PASS_WINDOWS):
            first = window * WINDOW_REQUESTS
            latencies = [0.0] * WINDOW_REQUESTS
            speed.start()
            for i in range(first, first + WINDOW_REQUESTS):
                started = clock()
                try:
                    answers[i] = handle("GET", requests[i])
                except Exception as exc:  # noqa: BLE001 - counted
                    if len(failures) < 20:
                        failures.append(f"{requests[i]}: "
                                        f"{type(exc).__name__}: {exc}")
                latencies[i - first] = clock() - started
            wall, cpu_s, raw = speed.stop()
            pass_wall += wall
            factor = wall / raw if raw else 1.0
            latencies.sort()
            tail = benchlib.window_tail(latencies, TAIL_Q)
            windows.append({
                "wall": wall, "raw": raw, "cpu": cpu_s,
                "p50": factor * benchlib.nearest_rank(latencies, 0.5),
                "tail": None if tail is None else factor * tail,
            })
        pass_walls.append(pass_wall)
        bad, wrong = check_pass(answers, sequence, expected,
                                app.index.version.generation, targets)
        failed += bad
        failures.extend(f"pass {passes}: wrong answer for {target}"
                        for target in wrong[:max(0, 20 - len(failures))])
        attempted += PASS_REQUESTS
        if not passes:
            quality = score_answers(answers, sequence, kinds, labels)
        passes += 1
    after = _scrape(app) if trace else None
    host_window = host.close()
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    full = app.metrics.counter("asdb_serve_refresh_full_total").total()

    requests_done = WINDOW_REQUESTS * len(windows)
    summary: Dict[str, object] = {
        "attempted": attempted,
        "failed": failed,
        "checks": {"passes": passes, "requests": requests_done,
                   "distinct_targets": len(targets),
                   "failures": failures[:20]},
        "diagnostics": {
            "tail_quantile": TAIL_Q,
            "windows": len(windows),
            "chain_build_s": chain_s,
            "setup_starts_s": starts,
            "full_refreshes": full,
            "speed_factor": speed.mean_factor,
            "stolen_s": speed.stolen,
            "raw_ops_per_s": requests_done / speed.wall,
            "raw_op_p50_ms": 1000.0 * benchlib.median(
                w["p50"] * w["raw"] / w["wall"] for w in windows),
            "host": benchlib.summarize_hosts([host_window]),
        },
    }
    tails = [w["tail"] for w in windows if w["tail"] is not None]
    summary["metrics"] = {
        "setup_s": benchlib.median(starts),
        # Per pass, as every pass runs the same requests from a cold
        # cache; the median keeps a disturbed pass from moving it.
        "ops_per_s": benchlib.median(PASS_REQUESTS / wall
                                     for wall in pass_walls),
        "op_p50_ms": 1000.0 * benchlib.median(w["p50"] for w in windows),
        "op_tail_ms": 1000.0 * benchlib.median(tails) if tails else None,
        "cpu_ms_per_op": benchlib.median(1000.0 * w["cpu"] / WINDOW_REQUESTS
                                         for w in windows),
        "peak_rss_mb": peak_rss_mb,
    }
    summary["metrics"].update(quality)
    if trace:
        summary["layers"] = _serve_layers(tracer, starts, before, after,
                                          speed)
    return summary


def _scrape(app):
    """The service's own ``/metrics`` exposition, parsed."""
    return benchlib.parse_prometheus(app.handle_request("GET", "/metrics")[1])


def _serve_layers(tracer, starts, before, after, speed) -> Dict[str, float]:
    """Start-up spans from the traced start; request-path figures from
    the service's ``asdb_serve_*`` metrics over the measured passes."""
    values = layers.layer_metrics(tracer, ops=1)

    def delta(name, label=None):
        if label is None:
            return (benchlib.metric_total(after, name)
                    - benchlib.metric_total(before, name))
        now = benchlib.by_label(after, name, label)
        then = benchlib.by_label(before, name, label)
        return {key: now[key] - then.get(key, 0.0) for key in now}

    sums = delta("asdb_serve_seconds_sum", "endpoint")
    counts = delta("asdb_serve_seconds_count", "endpoint")
    for endpoint in ("asn", "history", "asof", "org"):
        if counts.get(endpoint):
            values[f"serving.app.route_us.{endpoint}"] = (
                1e6 * sums[endpoint] / counts[endpoint])
    routed_s = sum(s for e, s in sums.items() if e != "metrics")
    routed = sum(c for e, c in counts.items() if e != "metrics")
    if routed:
        # Raw figures on both sides: the routed times are the service's
        # own, not speed-normalized.
        values["serving.app.dispatch_us_per_req"] = 1e6 * (
            speed.cpu - routed_s) / routed
        values["unattributed_s"] = (speed.wall - routed_s) / routed
        values["unattributed_share"] = (speed.wall - routed_s) / speed.wall
    hits = delta("asdb_serve_cache_hits_total")
    misses = delta("asdb_serve_cache_misses_total")
    if hits + misses:
        values["serving.app.cache_hit_ratio"] = hits / (hits + misses)
    # Tracing wraps start-up only (the request path's timings are the
    # service's own metrics): overhead of the traced first start.
    values["trace.overhead_share"] = starts[0] / benchlib.median(
        starts[1:]) - 1.0
    return values
