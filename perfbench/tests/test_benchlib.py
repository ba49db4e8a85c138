"""Tests for the benchmark's own helpers.

    python3 -m pytest perfbench/tests -q
"""

import os

import pytest

import benchlib


class TestBenchmarkSpec:
    def test_metric_lists_match_benchmark_json(self):
        import json

        import layers
        import run

        root = os.path.dirname(os.path.dirname(os.path.dirname(
            os.path.abspath(__file__))))
        with open(os.path.join(root, "BENCHMARK.json")) as handle:
            spec = json.load(handle)
        assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == list(
            run.END_TO_END)
        assert [(m["name"], m["unit"]) for m in spec["per_layer"]] == list(
            layers.PER_LAYER)
        assert {w["name"] for w in spec["workloads"]} <= set(run.WORKLOADS)


class TestTailRule:
    def test_nearest_rank(self):
        values = list(range(1, 101))
        assert benchlib.nearest_rank(values, 0.5) == 50
        assert benchlib.nearest_rank(values, 0.99) == 99
        assert benchlib.nearest_rank(values, 1.0) == 100
        assert benchlib.nearest_rank([7.0], 0.99) == 7.0

    def test_samples_beyond(self):
        assert benchlib.samples_beyond(1000, 0.99) == 10
        assert benchlib.samples_beyond(999, 0.99) == 9
        assert benchlib.samples_beyond(40, 0.75) == 10

    def test_window_needs_ten_beyond(self):
        assert benchlib.window_tail([1.0] * 999, 0.99) is None
        window = [float(i) for i in range(1000)]
        assert benchlib.window_tail(window, 0.99) == 989.0
        assert benchlib.window_tail(list(reversed(window)), 0.99) == 989.0

    def test_median_of_window_tails_is_not_the_pooled_tail(self):
        quiet = [1.0] * 990 + [2.0] * 10
        noisy = [1.0] * 950 + [50.0] * 50
        tails = [benchlib.window_tail(w, 0.99) for w in (quiet, quiet, noisy)]
        assert tails == [1.0, 1.0, 50.0]
        assert benchlib.median(tails) == 1.0
        # Pooled, the noisy window's outliers would set the p99.
        pooled = sorted(quiet + quiet + noisy)
        assert benchlib.nearest_rank(pooled, 0.99) == 50.0

    def test_median_and_spread(self):
        assert benchlib.median([3, 1, 2]) == 2
        assert benchlib.median([4, 1, 2, 3]) == 2.5
        with pytest.raises(ValueError):
            benchlib.median([])
        assert benchlib.quartile_spread([10.0] * 10) == 0.0


class TestSelfTime:
    def test_nested_spans(self):
        spans = [
            ("op", 0.0, 10.0, -1),
            ("ml.classify", 1.0, 6.0, 0),
            ("web.gather", 2.0, 4.0, 1),
            ("matching.match_sources", 7.0, 9.0, 0),
        ]
        own = benchlib.self_times(spans)
        assert own["op"] == pytest.approx(3.0)
        assert own["ml.classify"] == pytest.approx(3.0)
        assert own["web.gather"] == pytest.approx(2.0)
        assert own["matching.match_sources"] == pytest.approx(2.0)
        assert sum(own.values()) == pytest.approx(10.0)

    def test_overlapping_children_count_once(self):
        spans = [("op", 0.0, 10.0, -1), ("a", 1.0, 5.0, 0),
                 ("b", 3.0, 7.0, 0)]
        assert benchlib.self_times(spans)["op"] == pytest.approx(4.0)

    def test_tracer_wrap_restore_and_attribution(self):
        class Layer:
            def work(self, n):
                return sum(range(n))

            @classmethod
            def build(cls, n):
                return cls().work(n)

        tracer = benchlib.Tracer()
        tracer.wrap(Layer, "work", "layer.work",
                    after=lambda t, r, a, k: t.count("layer.items", a[1]))
        tracer.wrap(Layer, "build", "layer.build")
        with tracer.span("op"):
            assert Layer.build(1000) == sum(range(1000))
        assert tracer.counts["layer.work.calls"] == 1
        assert tracer.counts["layer.items"] == 1000
        names = [span[0] for span in tracer.spans]
        assert names == ["op", "layer.build", "layer.work"]
        tracer.restore()
        assert "work" in vars(Layer) and not hasattr(Layer.work, "__wrapped__")
        assert isinstance(vars(Layer)["build"], classmethod)
        shares = benchlib.attribution(tracer)
        assert 0.0 <= shares["unattributed_share"] <= 1.0


class TestSpeedLog:
    def test_segments_scale_to_the_reference_speed(self, monkeypatch):
        # A CPU running at half the reference speed: every probe takes
        # twice the reference time, so times shrink by half.
        monkeypatch.setattr(benchlib, "probe",
                            lambda: 2 * benchlib.REFERENCE_PROBE_S)
        speed = benchlib.SpeedLog(min(os.sched_getaffinity(0)))
        speed.start()
        sum(range(200_000))
        wall, cpu, raw = speed.stop()
        assert raw > 0
        assert wall == pytest.approx(0.5 * (raw - speed.stolen))
        assert cpu <= raw
        assert speed.norm_wall == pytest.approx(wall)
        assert speed.mean_factor == pytest.approx(wall / raw)

    def test_probe_is_a_positive_time(self):
        assert 0.0 < benchlib.probe() < 1.0
        assert 0.0 < benchlib.steady_probe() < 1.0

    def test_one_disturbed_probe_does_not_set_the_speed(self, monkeypatch):
        times = iter([0.001, 0.050, 0.002])
        monkeypatch.setattr(benchlib, "probe", lambda: next(times))
        assert benchlib.steady_probe() == 0.002

    def test_probe_runs_with_the_collector_off(self, monkeypatch):
        import gc

        seen = []
        monkeypatch.setattr(benchlib.json, "dumps",
                            lambda value: seen.append(gc.isenabled()) or "")
        assert gc.isenabled()
        benchlib.probe_kernel()
        assert seen == [False]
        assert gc.isenabled()


class TestProcParsing:
    def test_proc_stat_and_steal(self):
        before = benchlib.parse_proc_stat(
            "cpu  100 0 50 800 10 0 5 35 0 0\ncpu0 50 0 25 400 5 0 2 17 0 0\n")
        after = benchlib.parse_proc_stat(
            "cpu  160 0 60 900 10 0 5 65 0 0\n")
        assert before["steal"] == 35
        assert benchlib.steal_share(before, after) == pytest.approx(30 / 200)
        assert benchlib.steal_share(after, after) == 0.0

    def test_proc_stat_per_cpu(self):
        text = ("cpu  100 0 50 800 10 0 5 35 0 0\n"
                "cpu0 50 0 25 400 5 0 2 17 0 0\n"
                "cpu1 50 0 25 400 5 0 3 18 0 0\n")
        assert benchlib.parse_proc_stat(text, 1)["steal"] == 18
        with pytest.raises(ValueError):
            benchlib.parse_proc_stat(text, 7)

    def test_proc_stat_without_steal_column(self):
        fields = benchlib.parse_proc_stat("cpu 1 2 3 4\n")
        assert fields["steal"] == 0

    def test_host_window(self):
        window = benchlib.HostWindow().close()
        assert 0.0 <= window["steal_share"] <= 1.0
        assert window["loadavg_1m"] >= 0.0


class TestMetricsScrape:
    TEXT = (
        "# HELP asdb_serve_seconds Request handling latency by endpoint.\n"
        "# TYPE asdb_serve_seconds histogram\n"
        'asdb_serve_seconds_bucket{endpoint="asn",le="0.001"} 90\n'
        'asdb_serve_seconds_bucket{endpoint="asn",le="+Inf"} 100\n'
        'asdb_serve_seconds_sum{endpoint="asn"} 0.002\n'
        'asdb_serve_seconds_count{endpoint="asn"} 100\n'
        'asdb_serve_seconds_sum{endpoint="org"} 0.01\n'
        'asdb_serve_seconds_count{endpoint="org"} 5\n'
        "asdb_serve_cache_hits_total 80\n"
        'asdb_serve_requests_total{endpoint="asn",status="200"} 99\n'
        'odd_total{path="a,b \\"c\\""} 2\n'
    )

    def test_parse(self):
        samples = benchlib.parse_prometheus(self.TEXT)
        assert samples[("asdb_serve_cache_hits_total", ())] == 80.0
        sums = benchlib.by_label(samples, "asdb_serve_seconds_sum", "endpoint")
        assert sums == {"asn": 0.002, "org": 0.01}
        assert benchlib.metric_total(
            samples, "asdb_serve_seconds_count") == 105.0
        assert samples[("odd_total", (("path", 'a,b "c"'),))] == 2.0
        key = ("asdb_serve_seconds_bucket",
               (("endpoint", "asn"), ("le", "+Inf")))
        assert samples[key] == 100.0

    def test_parse_live_registry(self):
        from repro.obs.metrics import MetricsRegistry

        registry = MetricsRegistry()
        histogram = registry.histogram("x_seconds", "x", ("endpoint",))
        histogram.observe(0.5, endpoint="asn")
        histogram.observe(1.5, endpoint="asn")
        samples = benchlib.parse_prometheus(registry.to_prometheus())
        assert benchlib.by_label(samples, "x_seconds_sum", "endpoint") == {
            "asn": 2.0}


class TestDeterminism:
    def test_request_plan_per_seed(self):
        import serve

        asns = list(range(64512, 64512 + 500, 2))
        one = serve.make_plan(7, asns, 90, length=2000)
        again = serve.make_plan(7, asns, 90, length=2000)
        other = serve.make_plan(8, asns, 90, length=2000)
        assert one == again
        assert one != other
        targets, kinds, sequence = one
        assert len(sequence) == 2000
        assert set(kinds) == {kind for kind, _ in serve.MIX}
        assert len(set(targets)) == len(targets)

    def test_plan_is_zipf_skewed(self):
        import serve

        asns = list(range(1000, 3000))
        targets, kinds, sequence = serve.make_plan(3, asns, 90, length=20000)
        hits = {}
        for rid in sequence:
            if kinds[rid] == "asn":
                hits[rid] = hits.get(rid, 0) + 1
        top = max(hits.values())
        assert top > 20 * (sum(hits.values()) / len(asns))

    def test_churn_per_seed(self):
        from repro.world import WorldConfig, generate_world

        import refresh

        # Below ~1700 ASes a day of churn rounds to no change at all.
        def churned(seed):
            world = generate_world(WorldConfig(n_orgs=1600, seed=1))
            stats = [refresh.churn_day(world, seed, day) for day in (1, 2)]
            return [s.changed_asns for s in stats], [
                world.registry.raw(asn) for asn in world.asns()]

        first = churned(5)
        assert all(first[0])
        assert churned(5) == first
        assert churned(6) != first


class TestServeCheck:
    @pytest.fixture
    def service(self, tmp_path, monkeypatch):
        """A service over a small two-version chain, one plan over it and
        the reference answers of an independently started service."""
        import serve

        snapdir = str(tmp_path / "snapshots")
        monkeypatch.setattr(serve, "CHAIN_RECORDS", 200)
        monkeypatch.setattr(serve, "CHAIN_VERSIONS", 2)
        labels = serve.build_chain(snapdir, seed=4)
        targets, kinds, sequence = serve.make_plan(4, sorted(labels), 30,
                                                   length=400)
        reference = serve.start_service(snapdir)
        expected = [reference.handle_request("GET", target)[:2]
                    for target in targets]
        app = serve.start_service(snapdir)
        app.refresh()
        return app, targets, kinds, sequence, expected, labels

    def _answers(self, app, targets, sequence):
        return [app.handle_request("GET", targets[rid])[:2]
                for rid in sequence]

    def test_clean_answers_pass(self, service):
        import serve

        app, targets, kinds, sequence, expected, labels = service
        answers = self._answers(app, targets, sequence)
        generation = app.index.version.generation
        assert generation == 2
        assert serve.check_pass(answers, sequence, expected, generation,
                                targets) == (0, [])
        quality = serve.score_answers(answers, sequence, kinds, labels)
        assert quality["l1_coverage"] > 0.9
        assert quality["l1_accuracy"] == 1.0

    def test_corrupted_body_is_caught(self, service):
        import serve

        app, targets, kinds, sequence, expected, _ = service
        answers = self._answers(app, targets, sequence)
        index = next(i for i, rid in enumerate(sequence)
                     if kinds[rid] == "asn")
        status, body = answers[index]
        record = dict(body["record"], domain="corrupted.example")
        answers[index] = (status, dict(body, record=record))
        failed, wrong = serve.check_pass(
            answers, sequence, expected, app.index.version.generation,
            targets)
        assert failed == 1
        assert wrong == [targets[sequence[index]]]

    def test_wrong_status_and_missing_answers_are_caught(self, service):
        import serve

        app, targets, kinds, sequence, expected, _ = service
        answers = self._answers(app, targets, sequence)
        answers[0] = (503, answers[0][1])
        answers[1] = None
        failed, _ = serve.check_pass(
            answers, sequence, expected, app.index.version.generation,
            targets)
        assert failed == 2

    def test_stale_generation_is_caught(self, service):
        import serve

        app, targets, kinds, sequence, expected, _ = service
        answers = self._answers(app, targets, sequence)
        failed, _ = serve.check_pass(answers, sequence, expected, 7,
                                     targets)
        assert failed == sum(
            1 for rid in sequence
            if isinstance(expected[rid][1], dict)
            and "generation" in expected[rid][1])
