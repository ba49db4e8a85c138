"""What the benchmark knows about ASdb's layers.

:func:`install` wraps the public functions at each layer boundary in
:class:`benchlib.Tracer` spans (the traced run only), and
:func:`layer_metrics` turns the recorded spans and counts into the
``per_layer`` metrics of ``BENCHMARK.json``.  :func:`score_quality`
scores a released dataset against the world's ground truth.
"""

from __future__ import annotations

import os
from typing import Callable, Dict, Mapping, Optional, Tuple

from benchlib import Tracer

#: The per-layer metrics of BENCHMARK.json with their units, in its
#: order.  A traced run prints all of them; a layer the workload does
#: not exercise reads 0.
PER_LAYER: Tuple[Tuple[str, str], ...] = (
    ("world.generate_s", "s"),
    ("datasources.build_s", "s"),
    ("ml.examples_s", "s"),
    ("ml.fit_s", "s"),
    ("ml.fit_examples", "count"),
    ("whois.parse_s", "s"),
    ("whois.parse_calls", "count"),
    ("whois.extract_s", "s"),
    ("datasources.asn_lookup_s", "s"),
    ("matching.choose_domain_s", "s"),
    ("ml.classify_s", "s"),
    ("ml.classify_calls", "count"),
    ("ml.ms_per_domain", "ms"),
    ("ml.featcache_hit_ratio", "fraction"),
    ("web.gather_s", "s"),
    ("matching.match_sources_s", "s"),
    ("matching.match_sources_calls", "count"),
    ("matching.accept_ratio", "fraction"),
    ("matching.kernel_s", "s"),
    ("matching.kernel_pruned_ratio", "fraction"),
    ("core.cache.hit_ratio", "fraction"),
    ("core.consensus_s", "s"),
    ("core.store.flush_s", "s"),
    ("core.snapshots.save_s", "s"),
    ("core.snapshots.bytes", "bytes"),
    ("core.snapshots.load_s", "s"),
    ("core.snapshots.digest_s", "s"),
    ("core.snapshots.deltas_replayed", "count"),
    ("core.maintenance.reclassified", "count"),
    ("core.maintenance.sweep_s", "s"),
    ("core.parallel.classify_batch_s", "s"),
    ("serving.index.build_s", "s"),
    ("serving.index.apply_delta_s", "s"),
    ("serving.index.history_extend_s", "s"),
    ("serving.refresh_incremental_ratio", "fraction"),
    ("serving.index.history_build_s", "s"),
    ("serving.startup.index_s", "s"),
    ("serving.startup.history_s", "s"),
    ("serving.app.route_us.asn", "us"),
    ("serving.app.route_us.history", "us"),
    ("serving.app.route_us.asof", "us"),
    ("serving.app.route_us.org", "us"),
    ("serving.app.dispatch_us_per_req", "us"),
    ("serving.app.cache_hit_ratio", "fraction"),
    ("unattributed_s", "s"),
    ("unattributed_share", "fraction"),
    ("trace.overhead_share", "fraction"),
)

#: Span name -> per-layer metric for the layers reported as self time.
_SELF_TIME = {
    "world.generate": "world.generate_s",
    "datasources.build": "datasources.build_s",
    "ml.examples": "ml.examples_s",
    "ml.fit": "ml.fit_s",
    "whois.parse": "whois.parse_s",
    "whois.extract": "whois.extract_s",
    "datasources.asn_lookup": "datasources.asn_lookup_s",
    "matching.choose_domain": "matching.choose_domain_s",
    "ml.classify": "ml.classify_s",
    "web.gather": "web.gather_s",
    "matching.match_sources": "matching.match_sources_s",
    "matching.kernel": "matching.kernel_s",
    "core.consensus": "core.consensus_s",
    "core.store.flush": "core.store.flush_s",
    "core.snapshots.save": "core.snapshots.save_s",
    "core.snapshots.load": "core.snapshots.load_s",
    "core.snapshots.digest": "core.snapshots.digest_s",
    "core.maintenance.sweep": "core.maintenance.sweep_s",
    "core.parallel.classify_batch": "core.parallel.classify_batch_s",
    "serving.index.build": "serving.index.build_s",
    "serving.index.apply_delta": "serving.index.apply_delta_s",
    "serving.index.history_build": "serving.index.history_build_s",
    "serving.index.history_extend": "serving.index.history_extend_s",
}

#: Span name -> per-layer metric for the spans reported inclusive of
#: the layers they call (the serving start-up functions).
_INCLUSIVE = {
    "serving.startup.index": "serving.startup.index_s",
    "serving.startup.history": "serving.startup.history_s",
}


def install(tracer: Tracer) -> None:
    """Wrap every traced public function of the program.

    Must run before :func:`repro.system.build_asdb`, which captures the
    consensus function when it wires the pipeline.
    """
    import repro.core.snapshots as snapshots_module
    import repro.matching.domains as domains_module
    import repro.system as system_module
    from repro.core.database import ASdbDataset
    from repro.core.maintenance import MaintenanceDaemon
    from repro.core.pipeline import ASdb
    from repro.core.snapshots import SnapshotStore
    from repro.datasources import IPinfo, PeeringDB
    from repro.matching.kernels import KernelStats
    from repro.matching.resolver import EntityResolver
    from repro.ml.pipeline import WebClassificationPipeline
    from repro.serving.index import HistoryIndex, ReadIndex
    from repro.web.scraper import Scraper
    from repro.whois.registry import WhoisRegistry

    wrap = tracer.wrap
    wrap(system_module, "build_sources", "datasources.build")
    wrap(system_module, "build_training_examples", "ml.examples")
    wrap(system_module, "resolve_consensus", "core.consensus")
    wrap(WebClassificationPipeline, "fit", "ml.fit",
         after=lambda t, _r, args, _k: t.count("ml.fit_examples",
                                               len(args[1])))
    wrap(WhoisRegistry, "parsed", "whois.parse")
    wrap(WhoisRegistry, "contact", "whois.extract")
    wrap(PeeringDB, "lookup", "datasources.asn_lookup")
    wrap(IPinfo, "lookup", "datasources.asn_lookup")
    wrap(EntityResolver, "choose_domain", "matching.choose_domain")
    wrap(WebClassificationPipeline, "classify_domain", "ml.classify")
    wrap(Scraper, "gather", "web.gather")

    def count_matches(t, resolved, _args, _kwargs):
        t.count("matching.accepted", len(resolved.matches))
        t.count("matching.rejected", len(resolved.rejected))

    wrap(EntityResolver, "match_sources", "matching.match_sources",
         after=count_matches)

    original_score = domains_module.score_candidates

    def score_candidates(as_name, references, stats=None):
        own = KernelStats()
        with tracer.span("matching.kernel"):
            result = original_score(as_name, references, own)
        tracer.count("matching.kernel_candidates", own.candidates)
        tracer.count("matching.kernel_pruned", own.pruned)
        if stats is not None:
            stats.candidates += own.candidates
            stats.computed += own.computed
            stats.pruned += own.pruned
        return result

    tracer.replace(domains_module, "score_candidates", score_candidates)
    wrap(ASdbDataset, "flush", "core.store.flush")

    def count_saved(t, info, args, _kwargs):
        root = args[0].root
        for name in (info.filename, info.checkpoint):
            if name:
                t.count("core.snapshots.bytes",
                        os.path.getsize(os.path.join(root, name)))

    wrap(SnapshotStore, "save", "core.snapshots.save", after=count_saved)

    def count_replayed(t, _dataset, args, kwargs):
        store = args[0]
        version = args[1] if len(args) > 1 else kwargs.get("version")
        info = store.info(version) if version is not None else store.latest()
        while not info.is_base:
            t.count("core.snapshots.deltas_replayed")
            info = store.info(info.parent)

    wrap(SnapshotStore, "load", "core.snapshots.load", after=count_replayed)
    wrap(snapshots_module, "dataset_digest", "core.snapshots.digest")
    wrap(MaintenanceDaemon, "sweep", "core.maintenance.sweep",
         after=lambda t, report, _a, _k: t.count(
             "core.maintenance.reclassified", report.reclassified))
    wrap(ASdb, "classify_batch", "core.parallel.classify_batch")
    wrap(ReadIndex, "build", "serving.index.build")
    wrap(ReadIndex, "apply_delta", "serving.index.apply_delta")
    wrap(HistoryIndex, "build", "serving.index.history_build")
    wrap(HistoryIndex, "extend", "serving.index.history_extend")


def layer_metrics(
    tracer: Tracer,
    ops: int,
    extra: Optional[Mapping[str, float]] = None,
) -> Dict[str, float]:
    """Per-layer values from one traced run: self seconds per op for
    span metrics, counts per op for counters, ratios as measured.
    Metrics the workload does not produce read 0."""
    ops = max(1, ops)
    values = {name: 0.0 for name, _ in PER_LAYER}
    for span, seconds in tracer.self_times().items():
        if span in _SELF_TIME:
            values[_SELF_TIME[span]] = seconds / ops
    for span, seconds in tracer.durations().items():
        if span in _INCLUSIVE:
            values[_INCLUSIVE[span]] = seconds / ops
    counts = tracer.counts
    for name in ("ml.fit_examples", "core.snapshots.bytes",
                 "core.snapshots.deltas_replayed",
                 "core.maintenance.reclassified"):
        values[name] = counts.get(name, 0.0) / ops
    values["whois.parse_calls"] = counts.get("whois.parse.calls", 0.0) / ops
    values["ml.classify_calls"] = counts.get("ml.classify.calls", 0.0) / ops
    values["matching.match_sources_calls"] = (
        counts.get("matching.match_sources.calls", 0.0) / ops)
    classify_calls = counts.get("ml.classify.calls", 0.0)
    if classify_calls:
        # Inclusive of the scrape: the cost of classifying one domain.
        values["ml.ms_per_domain"] = (
            1000.0 * tracer.durations().get("ml.classify", 0.0)
            / classify_calls)
    judged = counts.get("matching.accepted", 0) + counts.get(
        "matching.rejected", 0)
    if judged:
        values["matching.accept_ratio"] = counts["matching.accepted"] / judged
    candidates = counts.get("matching.kernel_candidates", 0)
    if candidates:
        values["matching.kernel_pruned_ratio"] = (
            counts["matching.kernel_pruned"] / candidates)
    values.update(extra or {})
    return values


def score_quality(get: Callable[[int], object], world) -> Dict[str, float]:
    """``l1_coverage``, ``l1_accuracy`` and ``l2_accuracy`` of a
    released dataset against ``World.truth``.

    Coverage is the share of registry ASes whose record carries a
    label; accuracy is the share of covered ASes whose labels overlap
    the truth at layer 1, and at layer 2 where both sides have one.
    """
    asns = world.asns()
    covered = l1_hits = l2_total = l2_hits = 0
    for asn in asns:
        record = get(asn)
        if record is None or not record.labels:
            continue
        covered += 1
        truth = world.truth(asn)
        l1_hits += record.labels.overlaps_layer1(truth)
        if record.labels.has_layer2 and truth.has_layer2:
            l2_total += 1
            l2_hits += record.labels.overlaps_layer2(truth)
    return {
        "l1_coverage": covered / len(asns) if asns else 0.0,
        "l1_accuracy": l1_hits / covered if covered else 0.0,
        "l2_accuracy": l2_hits / l2_total if l2_total else 0.0,
    }
