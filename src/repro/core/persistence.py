"""Dataset persistence: the released-dataset formats.

The real ASdb dataset ships as CSV from asdb.stanford.edu.  This module
round-trips :class:`~repro.core.database.ASdbDataset` through two formats:

* the CSV shape of :meth:`ASdbDataset.to_csv` (one row per label);
* a JSON document carrying full per-record structure (stage, sources,
  domain), which CSV cannot represent losslessly.
"""

from __future__ import annotations

import csv
import functools
import io
import json
from json.encoder import encode_basestring_ascii as _json_string
from typing import Dict, IO, Iterable, Iterator, List, Optional, Tuple

from ..taxonomy import Label, LabelSet, naicslite
from .database import ASdbDataset, ASdbRecord, iter_csv_rows
from .stages import Stage

__all__ = [
    "dataset_from_csv",
    "dataset_to_json",
    "dataset_from_json",
    "record_to_item",
    "record_from_item",
    "encode_item",
    "record_chunk",
    "document_chunks",
    "iter_json_chunks",
    "write_json",
    "write_csv",
    "CSV_HEADER",
]

#: The released CSV shape's exact header (one row per label).
CSV_HEADER = ("ASN", "Layer1", "Layer2", "Sources", "Stage")

_LAYER1_BY_NAME = {
    category.name: category for category in naicslite.ALL_LAYER1
}
_LAYER2_BY_NAME: Dict[Tuple[int, str], str] = {
    (sub.layer1_code, sub.name): sub.slug for sub in naicslite.ALL_LAYER2
}


def dataset_from_csv(text: str) -> ASdbDataset:
    """Parse a dataset from the :meth:`ASdbDataset.to_csv` shape.

    Rows for the same ASN merge into one record (multi-label).  Raises
    ValueError on malformed rows or unknown category names; every
    row-level error names the offending CSV row number.
    """
    reader = csv.reader(io.StringIO(text))
    header = next(reader, None)
    if header is None:
        raise ValueError("missing CSV header")
    if tuple(header) != CSV_HEADER:
        raise ValueError(
            f"malformed CSV header: expected {list(CSV_HEADER)!r}, "
            f"got {header!r}"
        )
    accumulated: Dict[int, Dict[str, object]] = {}
    for row in reader:
        if not row:
            continue
        line = reader.line_num
        if len(row) != 5:
            raise ValueError(
                f"row {line}: expected 5 columns, got {len(row)}: {row!r}"
            )
        asn_text, layer1_name, layer2_name, sources_text, stage_text = row
        if not asn_text.startswith("AS") or not asn_text[2:].isdigit():
            raise ValueError(f"row {line}: bad ASN field {asn_text!r}")
        asn = int(asn_text[2:])
        if asn not in accumulated:
            try:
                Stage(stage_text)
            except ValueError:
                raise ValueError(
                    f"row {line}: unknown stage {stage_text!r}"
                ) from None
        sources = tuple(sources_text.split("|")) if sources_text else ()
        slot = accumulated.setdefault(
            asn,
            {"labels": set(), "sources": sources, "stage": stage_text},
        )
        # Every row of a multi-label ASN must agree on the per-record
        # fields; silently keeping one of the conflicting values would
        # fabricate a record no exporter ever wrote.
        if slot["stage"] != stage_text:
            raise ValueError(
                f"row {line}: conflicting stages for AS{asn}: "
                f"{slot['stage']!r} vs {stage_text!r}"
            )
        if slot["sources"] != sources:
            raise ValueError(
                f"row {line}: conflicting sources for AS{asn}: "
                f"{slot['sources']!r} vs {sources!r}"
            )
        if layer1_name:
            layer1 = _LAYER1_BY_NAME.get(layer1_name)
            if layer1 is None:
                raise ValueError(
                    f"row {line}: unknown layer 1 name {layer1_name!r}"
                )
            if layer2_name:
                slug = _LAYER2_BY_NAME.get((layer1.code, layer2_name))
                if slug is None:
                    raise ValueError(
                        f"row {line}: unknown layer 2 name "
                        f"{layer2_name!r} under {layer1_name!r}"
                    )
                slot["labels"].add(Label.from_layer2(slug))
            else:
                slot["labels"].add(Label(layer1=layer1.slug))
    dataset = ASdbDataset()
    for asn, slot in accumulated.items():
        dataset.add(
            ASdbRecord(
                asn=asn,
                labels=LabelSet(slot["labels"]),
                stage=Stage(slot["stage"]),
                sources=slot["sources"],
            )
        )
    return dataset


def record_to_item(record: ASdbRecord) -> Dict[str, object]:
    """The JSON-able item for one record (the document's unit shape).

    A pure function of the record's released fields, so two records
    that serialize equal *are* equal for snapshot/delta purposes; the
    snapshot store's delta encoder compares items, not records, and
    never diffs on fields the release format does not carry.
    """
    item: Dict[str, object] = {
        "asn": record.asn,
        "labels": [
            {"layer1": label.layer1, "layer2": label.layer2}
            for label in record.labels
        ],
        "stage": record.stage.value,
        "domain": record.domain,
        "sources": list(record.sources),
        "org_key": record.org_key,
    }
    # Only emitted when a source actually degraded, so documents
    # from healthy runs stay byte-identical to the previous format.
    if record.degraded_sources:
        item["degraded_sources"] = list(record.degraded_sources)
    return item


@functools.lru_cache(maxsize=None)
def _label(layer1: str, layer2: Optional[str]) -> Label:
    """The (immutable) :class:`Label` for a pair of slugs, validated once
    per distinct pair rather than once per record.  Bounded by the
    taxonomy: an invalid pair raises, and raising calls are not cached."""
    return Label(layer1=layer1, layer2=layer2)


def record_from_item(item: Dict[str, object]) -> ASdbRecord:
    """Rebuild one record from its :func:`record_to_item` shape."""
    labels = LabelSet(
        _label(entry["layer1"], entry.get("layer2"))
        for entry in item["labels"]
    )
    return ASdbRecord(
        asn=int(item["asn"]),
        labels=labels,
        stage=Stage(item["stage"]),
        domain=item.get("domain"),
        sources=tuple(item.get("sources", ())),
        org_key=item.get("org_key"),
        degraded_sources=tuple(item.get("degraded_sources", ())),
    )


def _string_or_null(value: Optional[str]) -> str:
    return "null" if value is None else _json_string(value)


def _string_list(values) -> str:
    """A list of strings as a record field (entries at depth 4)."""
    if not values:
        return "[]"
    return ("[\n        "
            + ",\n        ".join(map(_json_string, values))
            + "\n      ]")


def encode_item(item: Dict[str, object]) -> str:
    """One :func:`record_to_item` item as it sits in the JSON document.

    Exactly ``json.dumps(item, indent=2)`` with every line indented by
    four more spaces (records sit two levels deep), but formatted
    directly for the fixed item shape: ``indent`` forces CPython's
    pure-Python encoder, about 6x slower than this.  Strings go through
    the same ``encode_basestring_ascii`` escaper ``json.dumps`` uses, so
    the output is byte-identical for every value.
    """
    labels = item["labels"]
    if labels:
        labels_text = "[\n" + ",\n".join(
            '        {\n          "layer1": ' + _json_string(entry["layer1"])
            + ',\n          "layer2": ' + _string_or_null(entry["layer2"])
            + "\n        }"
            for entry in labels
        ) + "\n      ]"
    else:
        labels_text = "[]"
    text = (
        '    {\n      "asn": ' + int.__repr__(item["asn"])
        + ',\n      "labels": ' + labels_text
        + ',\n      "stage": ' + _json_string(item["stage"])
        + ',\n      "domain": ' + _string_or_null(item["domain"])
        + ',\n      "sources": ' + _string_list(item["sources"])
        + ',\n      "org_key": ' + _string_or_null(item["org_key"])
    )
    if "degraded_sources" in item:
        text += (',\n      "degraded_sources": '
                 + _string_list(item["degraded_sources"]))
    return text + "\n    }"


def record_chunk(record: ASdbRecord) -> str:
    """One record's slice of the JSON document (see :func:`encode_item`)."""
    return encode_item(record_to_item(record))


def document_chunks(record_chunks: Iterable[str]) -> Iterator[str]:
    """Wrap a stream of :func:`record_chunk` outputs, ascending by ASN,
    into the chunks of the full lossless JSON document."""
    yield '{\n  "format": "asdb-repro/1",\n  "records": ['
    first = True
    for chunk in record_chunks:
        yield ("\n" if first else ",\n") + chunk
        first = False
    yield "]\n}" if first else "\n  ]\n}"


def iter_json_chunks(records: Iterable[ASdbRecord]) -> Iterator[str]:
    """The lossless JSON document as a chunk stream, one record resident
    at a time.

    Concatenating the chunks yields *exactly* the bytes of
    ``json.dumps({"format": "asdb-repro/1", "records": [...]},
    indent=2)`` — :func:`dataset_to_json` is defined as that
    concatenation, so every backend that streams through here is
    byte-identical to the in-memory export by construction.  The
    snapshot store hashes and writes these chunks without ever
    materializing the document.
    """
    return document_chunks(map(record_chunk, records))


def write_json(records: Iterable[ASdbRecord], handle: IO[str]) -> int:
    """Stream the lossless JSON document to ``handle``; returns the
    number of records written."""
    written = 0

    def counted() -> Iterator[ASdbRecord]:
        nonlocal written
        for record in records:
            written += 1
            yield record

    for chunk in iter_json_chunks(counted()):
        handle.write(chunk)
    return written


def write_csv(records: Iterable[ASdbRecord], handle: IO[str]) -> None:
    """Stream the released CSV shape to ``handle``, row by row."""
    csv.writer(handle).writerows(iter_csv_rows(iter(records)))


def dataset_to_json(dataset: ASdbDataset) -> str:
    """Serialize a dataset to a JSON document (lossless)."""
    return "".join(iter_json_chunks(dataset))


def dataset_from_json(text: str) -> ASdbDataset:
    """Parse a dataset from :func:`dataset_to_json` output."""
    document = json.loads(text)
    if document.get("format") != "asdb-repro/1":
        raise ValueError(
            f"unsupported format marker {document.get('format')!r}"
        )
    dataset = ASdbDataset()
    for item in document["records"]:
        dataset.add(record_from_item(item))
    return dataset
