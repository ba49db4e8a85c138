"""Tests for dataset persistence (CSV and JSON round-trips)."""

import json

import pytest
from hypothesis import given, settings, strategies as st

from repro.core import (
    ASdbDataset,
    ASdbRecord,
    Stage,
    dataset_from_csv,
    dataset_from_json,
    dataset_to_json,
)
from repro.core.persistence import encode_item
from repro.core.snapshots import _delta_document
from repro.taxonomy import Label, LabelSet


def _dataset():
    dataset = ASdbDataset()
    dataset.add(
        ASdbRecord(
            asn=64512,
            labels=LabelSet.from_layer2_slugs(["isp", "hosting"]),
            stage=Stage.MULTI_AGREE,
            domain="acme.net",
            sources=("dnb", "zvelo"),
            org_key="domain:acme.net",
        )
    )
    dataset.add(
        ASdbRecord(
            asn=64513,
            labels=LabelSet([Label(layer1="finance")]),
            stage=Stage.ONE_SOURCE,
            sources=("crunchbase",),
        )
    )
    dataset.add(
        ASdbRecord(
            asn=64514,
            labels=LabelSet(),
            stage=Stage.ZERO_SOURCES,
        )
    )
    return dataset


class TestCsvRoundTrip:
    def test_labels_and_stages_survive(self):
        original = _dataset()
        restored = dataset_from_csv(original.to_csv())
        assert len(restored) == 3
        assert restored.get(64512).labels == original.get(64512).labels
        assert restored.get(64512).stage is Stage.MULTI_AGREE
        assert restored.get(64512).sources == ("dnb", "zvelo")

    def test_layer1_only_label_survives(self):
        restored = dataset_from_csv(_dataset().to_csv())
        labels = restored.get(64513).labels
        assert labels.layer1_slugs() == {"finance"}
        assert not labels.has_layer2

    def test_unclassified_record_survives(self):
        restored = dataset_from_csv(_dataset().to_csv())
        record = restored.get(64514)
        assert not record.classified
        assert record.stage is Stage.ZERO_SOURCES

    def test_missing_header_rejected(self):
        with pytest.raises(ValueError):
            dataset_from_csv("not,a,header\n")

    def test_bad_asn_rejected(self):
        with pytest.raises(ValueError):
            dataset_from_csv(
                "ASN,Layer1,Layer2,Sources,Stage\n"
                "banana,Finance and Insurance,,,one_source\n"
            )

    def test_unknown_category_rejected(self):
        with pytest.raises(ValueError):
            dataset_from_csv(
                "ASN,Layer1,Layer2,Sources,Stage\n"
                "AS1,Quantum Industries,,,one_source\n"
            )

    def test_wrong_column_count_rejected(self):
        with pytest.raises(ValueError):
            dataset_from_csv(
                "ASN,Layer1,Layer2,Sources,Stage\nAS1,too,few\n"
            )

    def test_conflicting_stage_rows_rejected(self):
        lines = _dataset().to_csv().strip().splitlines()
        # AS64512 spans two label rows; corrupt the stage of the last.
        index = max(
            i for i, line in enumerate(lines)
            if line.startswith("AS64512")
        )
        prefix, sources, _ = lines[index].rsplit(",", 2)
        lines[index] = ",".join((prefix, sources, Stage.ONE_SOURCE.value))
        with pytest.raises(ValueError, match="conflicting stages"):
            dataset_from_csv("\n".join(lines))

    def test_conflicting_source_rows_rejected(self):
        lines = _dataset().to_csv().strip().splitlines()
        index = max(
            i for i, line in enumerate(lines)
            if line.startswith("AS64512")
        )
        prefix, _, stage = lines[index].rsplit(",", 2)
        lines[index] = ",".join((prefix, "dnb", stage))
        with pytest.raises(ValueError, match="conflicting sources"):
            dataset_from_csv("\n".join(lines))

    def test_real_pipeline_output_roundtrips(self, medium_world):
        from repro import SystemConfig, build_asdb

        built = build_asdb(medium_world, SystemConfig(seed=1,
                                                      train_ml=False))
        for asn in medium_world.asns()[:60]:
            built.asdb.classify(asn)
        original = built.asdb.dataset
        restored = dataset_from_csv(original.to_csv())
        assert len(restored) == len(original)
        for record in original:
            assert restored.get(record.asn).labels == record.labels


class TestJsonRoundTrip:
    def test_lossless(self):
        original = _dataset()
        restored = dataset_from_json(dataset_to_json(original))
        for record in original:
            twin = restored.get(record.asn)
            assert twin.labels == record.labels
            assert twin.stage is record.stage
            assert twin.domain == record.domain
            assert twin.sources == record.sources
            assert twin.org_key == record.org_key

    def test_degraded_sources_roundtrip(self):
        original = ASdbDataset()
        original.add(
            ASdbRecord(
                asn=64515,
                labels=LabelSet.from_layer2_slugs(["isp"]),
                stage=Stage.ONE_SOURCE,
                sources=("peeringdb",),
                degraded_sources=("dnb", "zvelo"),
            )
        )
        restored = dataset_from_json(dataset_to_json(original))
        assert restored.get(64515).degraded_sources == ("dnb", "zvelo")
        # A record with no degradations omits the field entirely, so
        # fault-free exports stay byte-identical to older releases.
        assert "degraded_sources" not in dataset_to_json(_dataset())

    def test_format_marker_checked(self):
        with pytest.raises(ValueError):
            dataset_from_json('{"format": "other", "records": []}')

    def test_empty_dataset(self):
        restored = dataset_from_json(dataset_to_json(ASdbDataset()))
        assert len(restored) == 0


class TestDatasetDiff:
    def test_identical_snapshots_empty_diff(self):
        a, b = _dataset(), _dataset()
        assert a.diff(b).empty

    def test_added_and_removed(self):
        from repro.core import ASdbDataset, ASdbRecord, Stage
        from repro.taxonomy import LabelSet

        old = _dataset()
        new = ASdbDataset()
        for record in old:
            if record.asn != 64514:
                new.add(record)
        new.add(
            ASdbRecord(
                asn=70000,
                labels=LabelSet.from_layer2_slugs(["banks"]),
                stage=Stage.ONE_SOURCE,
            )
        )
        diff = new.diff(old)
        assert diff.added == (70000,)
        assert diff.removed == (64514,)
        assert diff.relabeled == ()

    def test_relabeled(self):
        from repro.core import ASdbRecord, Stage
        from repro.taxonomy import LabelSet

        old = _dataset()
        new = _dataset()
        new.add(
            ASdbRecord(
                asn=64512,
                labels=LabelSet.from_layer2_slugs(["banks"]),
                stage=Stage.MULTI_AGREE,
            )
        )
        diff = new.diff(old)
        assert diff.relabeled == (64512,)
        assert not diff.added and not diff.removed

    def test_diff_after_maintenance_sweep(self, medium_world):
        """Reclassification after churn shows up in the diff."""
        import copy

        from repro import SystemConfig, build_asdb
        from repro.core import dataset_from_json, dataset_to_json

        built = build_asdb(medium_world, SystemConfig(seed=1,
                                                      train_ml=False))
        for asn in medium_world.asns()[:50]:
            built.asdb.classify(asn)
        snapshot = dataset_from_json(dataset_to_json(built.asdb.dataset))
        # Force a label change through the corrections workflow.
        from repro.core import Correction, CorrectionQueue
        from repro.taxonomy import LabelSet

        queue = CorrectionQueue(built.asdb)
        target = medium_world.asns()[0]
        queue.review(
            queue.submit(
                Correction(
                    asn=target,
                    proposed=LabelSet.from_layer2_slugs(["gambling"]),
                    submitter="x",
                )
            ),
            approve=True,
        )
        diff = built.asdb.dataset.diff(snapshot)
        assert target in diff.relabeled


_ITEM_KEYS = ("asn", "labels", "stage", "domain", "sources", "org_key",
              "degraded_sources")
_optional_text = st.none() | st.text()
#: Items of the record_to_item shape with arbitrary values: non-ASCII,
#: control characters and quotes all come from st.text().
_items = st.fixed_dictionaries(
    {
        "asn": st.integers(min_value=0, max_value=2**32 - 1),
        "labels": st.lists(
            st.fixed_dictionaries(
                {"layer1": st.text(), "layer2": _optional_text}
            ).map(lambda entry: {"layer1": entry["layer1"],
                                 "layer2": entry["layer2"]}),
            max_size=4,
        ),
        "stage": st.text(),
        "domain": _optional_text,
        "sources": st.lists(st.text(), max_size=4),
        "org_key": _optional_text,
    },
    optional={"degraded_sources": st.lists(st.text(), max_size=3)},
).map(lambda item: {key: item[key] for key in _ITEM_KEYS if key in item})


def _reference_chunk(item):
    """The reference encoding: json.dumps re-indented to record depth."""
    body = json.dumps(item, indent=2)
    return "\n".join("    " + line for line in body.splitlines())


class TestFastEncoder:
    @settings(max_examples=300)
    @given(_items)
    def test_encode_item_matches_json_dumps(self, item):
        assert encode_item(item) == _reference_chunk(item)

    @settings(max_examples=100)
    @given(
        st.integers(min_value=1, max_value=10**6),
        st.lists(_items, max_size=4),
        st.lists(st.integers(min_value=0, max_value=2**32 - 1),
                 max_size=4),
    )
    def test_delta_document_matches_json_dumps(self, base, items, removed):
        expected = json.dumps(
            {"format": "asdb-repro/delta/1", "base": base,
             "changed": items, "removed": removed},
            indent=2,
        )
        chunks = [encode_item(item) for item in items]
        assert _delta_document(base, chunks, removed) == expected

    def test_degraded_sources_present_but_empty(self):
        item = {"asn": 7, "labels": [], "stage": "x", "domain": None,
                "sources": [], "org_key": None, "degraded_sources": []}
        assert encode_item(item) == _reference_chunk(item)
