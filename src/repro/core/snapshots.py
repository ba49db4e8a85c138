"""Versioned dataset snapshots with delta encoding and periodic
checkpoints (Section 5.3).

The released ASdb is not one file but a *history*: quarterly releases,
each produced by sweeping the registry for changes since the previous
one.  "Back-to-the-Future Whois" makes the case that attribution
datasets need point-in-time snapshots with diffable history;
:class:`SnapshotStore` is that substrate for this system, and
:mod:`repro.core.history` builds the temporal query layer on top.

Layout on disk (everything under one root directory)::

    manifest.json        index of versions + free-form store metadata
    v0001.full.json      version 1: dataset_to_json output, verbatim
    v0002.delta.json     version 2: changed records + removed ASNs
    ...
    v0009.delta.json     every K-th delta also stores ...
    v0009.ckpt.json      ... a checkpoint: the full document, verbatim

Version 1 (and any version saved with ``full=True``) stores the
complete lossless JSON document from
:func:`~repro.core.persistence.dataset_to_json`, byte for byte.  Every
other version is a *delta* against its parent: the
:func:`~repro.core.persistence.record_to_item` items of records that
changed, plus the ASNs that disappeared.  With ``checkpoint_every=K``
(recorded in the manifest, so every handle on the store agrees), each
K-th consecutive delta is *promoted*: it keeps its delta document — the
chain stays uniformly scannable for timelines and churn — but also
stores the full document alongside it.  Loading any version replays the
chain forward from the nearest full document (checkpoint or full
snapshot), so reconstruction cost is O(K deltas) regardless of history
depth; a blake2b digest of the materialized document, recorded at save
time, guards every reconstruction.

Save cost model: a delta save makes one verified pass over the parent —
the same chain walk :meth:`SnapshotStore.load` uses, rebuilding it from
disk as one encoded record chunk per ASN and checking its digest — and
one pass over the new dataset, encoding each record once for the
comparison, the new digest and (when promoted) the checkpoint.  The
parent side is O(parent) resident; the new side keeps only the changed
chunks, O(delta).  Every document and the manifest land by fsynced tmp
file, rename and directory fsync.

Each version also records the maintenance-sweep window and provenance
that produced it, so ``repro diff``/``repro refresh`` can answer "what
changed between releases, and why".
"""

from __future__ import annotations

import hashlib
import json
import os
import shutil
import tempfile
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Callable, Dict, Iterable, Iterator, List, Optional, Tuple

from .database import ASdbDataset, DatasetDiff, diff_record_streams
from .persistence import (
    dataset_to_json,
    document_chunks,
    record_chunk,
    record_from_item,
)

__all__ = [
    "SnapshotError",
    "SnapshotCorruption",
    "SnapshotInfo",
    "SnapshotStore",
    "dataset_digest",
]

MANIFEST_FORMAT = "asdb-repro/snapshots/1"
DELTA_FORMAT = "asdb-repro/delta/1"
DATASET_FORMAT = "asdb-repro/1"
_MANIFEST = "manifest.json"


class SnapshotError(ValueError):
    """A snapshot-store operation could not proceed."""


class SnapshotCorruption(SnapshotError):
    """A stored document no longer matches its recorded digest."""


def _digest(record_chunks: Iterable[str],
            path: Optional[str] = None) -> str:
    """blake2b-128 of the full JSON document around ``record_chunks``,
    hashed chunk by chunk; with ``path``, the same pass also writes the
    document there atomically."""
    hasher = hashlib.blake2b(digest_size=16)

    def hashed() -> Iterator[str]:
        for chunk in document_chunks(record_chunks):
            hasher.update(chunk.encode("utf-8"))
            yield chunk

    if path is None:
        for _ in hashed():
            pass
    else:
        _write_atomic(path, hashed())
    return hasher.hexdigest()


def dataset_digest(records) -> str:
    """Digest of a dataset's full JSON document, computed over the
    chunk stream without materializing the document (O(1) memory for
    any backend).

    The same blake2b-128 recorded in every :class:`SnapshotInfo`, so a
    caller holding a store-backed dataset can check it against a
    version's manifest digest without loading anything.
    """
    return _digest(map(record_chunk, records))


def _delta_document(base: int, changed_chunks: List[str],
                    removed: List[int]) -> str:
    """The delta document, byte-identical to ``json.dumps({"format":
    DELTA_FORMAT, "base": base, "changed": [items], "removed": removed},
    indent=2)``.  Changed items sit at the same depth as records in the
    full document, so their :func:`record_chunk` text is reused as is."""
    changed = ("[\n" + ",\n".join(changed_chunks) + "\n  ]"
               if changed_chunks else "[]")
    gone = ("[\n" + ",\n".join(f"    {asn}" for asn in removed) + "\n  ]"
            if removed else "[]")
    return (f'{{\n  "format": "{DELTA_FORMAT}",\n  "base": {base},\n'
            f'  "changed": {changed},\n  "removed": {gone}\n}}')


def _undecodable(info: "SnapshotInfo", name: str,
                 exc: Exception) -> SnapshotCorruption:
    return SnapshotCorruption(
        f"v{info.version}: undecodable content in {name}: "
        f"{type(exc).__name__}: {exc}"
    )


def _fsync_directory(path: str) -> None:
    """Make a rename inside ``path`` durable."""
    fd = os.open(path, os.O_RDONLY)
    try:
        os.fsync(fd)
    finally:
        os.close(fd)


def _write_atomic(path: str, chunks: Iterable[str]) -> None:
    """Write a document from its chunk stream via tmp file + rename, so
    a crash mid-write never leaves a truncated version on disk.  The
    tmp file is fsynced before the rename and the directory after it,
    so after a power loss the name holds either the old document or
    the complete new one.  The tmp name carries the pid so two writers
    racing on the same root never stream into each other's
    half-written file."""
    tmp = f"{path}.tmp.{os.getpid()}"
    try:
        with open(tmp, "w") as handle:
            for chunk in chunks:
                handle.write(chunk)
            handle.flush()
            os.fsync(handle.fileno())
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.remove(tmp)
        raise
    _fsync_directory(os.path.dirname(path) or ".")


@dataclass(frozen=True)
class SnapshotInfo:
    """Manifest entry for one stored version.

    Attributes:
        version: 1-based version number (dense, ascending).
        kind: ``full`` (verbatim dataset JSON) or ``delta``.
        parent: The version this delta applies to (None for fulls).
        filename: Document file name inside the store root.
        since_day: Sweep window lower bound (exclusive), when known.
        through_day: Sweep window upper bound (inclusive), when known.
        record_count: Records in the materialized dataset.
        changed: Records added/replaced relative to the parent.
        removed: ASNs dropped relative to the parent.
        digest: blake2b-128 of the materialized full JSON document.
        note: Free-form release note.
        provenance: Sweep provenance (new/updated ASN lists, counts).
        checkpoint: File name of the checkpoint document stored next to
            a promoted delta (None for plain deltas and fulls).
    """

    version: int
    kind: str
    parent: Optional[int]
    filename: str
    since_day: Optional[int]
    through_day: Optional[int]
    record_count: int
    changed: int
    removed: int
    digest: str
    note: str = ""
    provenance: Dict[str, object] = field(default_factory=dict)
    checkpoint: Optional[str] = None

    @property
    def is_base(self) -> bool:
        """Whether this version stores a full document on disk (a full
        snapshot or a checkpointed delta) — i.e. replay can start here."""
        return self.kind == "full" or self.checkpoint is not None

    def to_manifest(self) -> Dict[str, object]:
        document: Dict[str, object] = {
            "version": self.version,
            "kind": self.kind,
            "parent": self.parent,
            "filename": self.filename,
            "since_day": self.since_day,
            "through_day": self.through_day,
            "record_count": self.record_count,
            "changed": self.changed,
            "removed": self.removed,
            "digest": self.digest,
            "note": self.note,
            "provenance": self.provenance,
        }
        if self.checkpoint is not None:
            document["checkpoint"] = self.checkpoint
        return document

    @classmethod
    def from_manifest(cls, item: Dict[str, object]) -> "SnapshotInfo":
        return cls(
            version=int(item["version"]),
            kind=str(item["kind"]),
            parent=item.get("parent"),
            filename=str(item["filename"]),
            since_day=item.get("since_day"),
            through_day=item.get("through_day"),
            record_count=int(item.get("record_count", 0)),
            changed=int(item.get("changed", 0)),
            removed=int(item.get("removed", 0)),
            digest=str(item.get("digest", "")),
            note=str(item.get("note", "")),
            provenance=dict(item.get("provenance", {})),
            checkpoint=item.get("checkpoint"),
        )


class SnapshotStore:
    """An on-disk, append-only history of dataset releases."""

    def __init__(
        self,
        root: str,
        checkpoint_every: Optional[int] = None,
    ) -> None:
        """Open (or create) the store at ``root``.

        ``checkpoint_every=K`` promotes every K-th consecutive delta to
        a checkpoint.  The setting persists in the manifest, so a store
        opened without the argument keeps checkpointing at the cadence
        it was created with; passing it on an existing store changes
        the cadence from the next save on.
        """
        self._root = str(root)
        self._versions: List[SnapshotInfo] = []
        #: Free-form store metadata (the CLI records world provenance
        #: here so ``refresh`` can rebuild the same world); persisted in
        #: the manifest.  Mutate via :meth:`set_meta`.
        self.meta: Dict[str, object] = {}
        self._checkpoint_every: Optional[int] = None
        os.makedirs(self._root, exist_ok=True)
        manifest_path = os.path.join(self._root, _MANIFEST)
        if os.path.exists(manifest_path):
            self._load_manifest(manifest_path)
        if checkpoint_every is not None:
            if int(checkpoint_every) < 1:
                raise SnapshotError(
                    f"checkpoint_every must be >= 1, got {checkpoint_every}"
                )
            self._checkpoint_every = int(checkpoint_every)

    # -- manifest -----------------------------------------------------------

    def _load_manifest(self, path: str) -> None:
        with open(path) as handle:
            document = json.load(handle)
        if document.get("format") != MANIFEST_FORMAT:
            raise SnapshotError(
                f"unsupported manifest format "
                f"{document.get('format')!r} in {path}"
            )
        self._versions = [
            SnapshotInfo.from_manifest(item)
            for item in document.get("versions", ())
        ]
        for position, info in enumerate(self._versions, start=1):
            if info.version != position:
                raise SnapshotError(
                    f"manifest versions are not dense: expected "
                    f"v{position}, found v{info.version}"
                )
        self.meta = dict(document.get("meta", {}))
        every = document.get("checkpoint_every")
        self._checkpoint_every = int(every) if every else None

    def _disk_manifest(self) -> Dict[str, object]:
        """The on-disk manifest document as it stands right now."""
        path = os.path.join(self._root, _MANIFEST)
        if not os.path.exists(path):
            return {}
        try:
            with open(path) as handle:
                return json.load(handle)
        except (OSError, ValueError) as exc:
            raise SnapshotError(
                f"cannot re-read manifest {path}: {exc}"
            ) from exc

    def _manifest_ends_with(self, info: SnapshotInfo) -> bool:
        """Whether the on-disk manifest's newest entry is ``info``."""
        try:
            versions = self._disk_manifest().get("versions", [])
        except SnapshotError:
            return False
        return versions[-1:] == [json.loads(json.dumps(info.to_manifest()))]

    def _count_disk_versions(self) -> int:
        """How many versions the on-disk manifest holds right now."""
        return len(self._disk_manifest().get("versions", ()))

    def _write_manifest(self, expected_on_disk: Optional[int] = None) -> None:
        """Persist the manifest atomically.

        ``expected_on_disk`` is the version count the on-disk manifest
        must still hold; a mismatch means another handle appended since
        this one last read it, and blindly renaming over their manifest
        would orphan their documents and mint a colliding version
        number.  Detection, not locking: the caller gets a
        :class:`SnapshotError` and must reopen the store.
        """
        if expected_on_disk is not None:
            on_disk = self._count_disk_versions()
            if on_disk != expected_on_disk:
                raise SnapshotError(
                    f"snapshot store {self._root} changed under this "
                    f"handle: the manifest holds {on_disk} version(s) "
                    f"on disk but this handle expected "
                    f"{expected_on_disk}; reopen the store and retry"
                )
        document = {
            "format": MANIFEST_FORMAT,
            "meta": self.meta,
            "versions": [info.to_manifest() for info in self._versions],
        }
        if self._checkpoint_every is not None:
            document["checkpoint_every"] = self._checkpoint_every
        _write_atomic(os.path.join(self._root, _MANIFEST),
                      (json.dumps(document, indent=2),))

    def set_meta(self, meta: Dict[str, object]) -> None:
        """Replace the store metadata and persist the manifest."""
        self.meta = dict(meta)
        self._write_manifest(expected_on_disk=len(self._versions))

    # -- inspection ---------------------------------------------------------

    def __len__(self) -> int:
        return len(self._versions)

    @property
    def root(self) -> str:
        """The store's root directory."""
        return self._root

    @property
    def checkpoint_every(self) -> Optional[int]:
        """Checkpoint cadence in deltas (None: never promote)."""
        return self._checkpoint_every

    def versions(self) -> Tuple[SnapshotInfo, ...]:
        """Manifest entries, ascending by version."""
        return tuple(self._versions)

    def latest(self) -> Optional[SnapshotInfo]:
        """The newest version's manifest entry, or None when empty."""
        return self._versions[-1] if self._versions else None

    def info(self, version: int) -> SnapshotInfo:
        """Manifest entry for one version (SnapshotError if absent)."""
        if not 1 <= version <= len(self._versions):
            raise SnapshotError(
                f"no snapshot version {version} (store has "
                f"{len(self._versions)})"
            )
        return self._versions[version - 1]

    def _target(self, version: Optional[int]) -> SnapshotInfo:
        """Manifest entry for ``version`` (default: the latest)."""
        if version is None:
            latest = self.latest()
            if latest is None:
                raise SnapshotError("snapshot store is empty")
            return latest
        return self.info(version)

    # -- writing ------------------------------------------------------------

    def _deltas_since_base(self) -> int:
        """Consecutive trailing deltas with no full document on disk."""
        count = 0
        for info in reversed(self._versions):
            if info.is_base:
                break
            count += 1
        return count

    def _verified_parent_chunks(self, parent: SnapshotInfo) -> Dict[int, str]:
        """``parent`` rebuilt from disk as ``asn -> record_chunk``,
        verified against its recorded digest exactly as :meth:`load`
        verifies it."""
        chunks: Dict[int, str] = {}

        def add(record) -> None:
            chunks[record.asn] = record_chunk(record)

        self._replay(
            parent, True, add, lambda asn: chunks.pop(asn, None),
            lambda: _digest(chunks[asn] for asn in sorted(chunks)),
        )
        return chunks

    def save(
        self,
        dataset: ASdbDataset,
        window: Optional[Tuple[int, int]] = None,
        provenance: Optional[Dict[str, object]] = None,
        note: str = "",
        full: bool = False,
        runlog=None,
    ) -> SnapshotInfo:
        """Record ``dataset`` as the next version.

        The first version (or ``full=True``) stores the complete
        :func:`dataset_to_json` document verbatim; later versions store
        only the items whose serialized form changed since the parent,
        plus removed ASNs.  Every ``checkpoint_every``-th consecutive
        delta additionally stores the full document as a checkpoint, so
        replay depth stays bounded.  ``window`` is the ``(since_day,
        through_day]`` sweep window that produced the release.  With a
        run ledger passed, the save emits one ``snapshot.saved`` event
        carrying the new version's manifest facts (plus a
        ``snapshot.checkpoint`` event when the save was promoted).

        ``dataset`` may be any :class:`~repro.core.store.DatasetStore`
        backend.  A full save streams the document chunk by chunk to a
        tmp file, digested on the way.  A delta save costs two passes:

        * the parent is rebuilt from disk (nearest stored full document
          plus at most ``checkpoint_every`` deltas) as one encoded chunk
          per ASN and verified against its recorded digest, exactly as
          :meth:`load` verifies it — a corrupted chain raises
          :class:`SnapshotCorruption` before anything is written;
        * the new dataset is streamed once: each record is encoded once
          and that chunk is compared with the parent's, fed to the new
          digest and, on a promoted save, written to the checkpoint.
          Only the changed chunks accumulate, so a store-backed sweep
          snapshot never holds the new dataset resident.

        Every document lands atomically (fsynced tmp file + rename +
        directory fsync), and the manifest append detects a concurrent
        writer before minting a version number.
        """
        on_disk = self._count_disk_versions()
        if on_disk != len(self._versions):
            raise SnapshotError(
                f"snapshot store {self._root} changed under this "
                f"handle: the manifest holds {on_disk} version(s) on "
                f"disk but this handle expected {len(self._versions)}; "
                f"reopen the store and retry"
            )
        version = len(self._versions) + 1
        since_day, through_day = window if window is not None else (None,
                                                                    None)
        checkpoint: Optional[str] = None
        if version == 1 or full:
            filename = f"v{version:04d}.full.json"
            kind, parent = "full", None
            changed = len(dataset)
            removed: List[int] = []
            digest = _digest(map(record_chunk, dataset),
                             os.path.join(self._root, filename))
        else:
            parent = version - 1
            previous = self._verified_parent_chunks(self._versions[-1])
            changed_chunks: List[str] = []

            def new_chunks() -> Iterator[str]:
                for record in dataset:
                    chunk = record_chunk(record)
                    if previous.pop(record.asn, None) != chunk:
                        changed_chunks.append(chunk)
                    yield chunk

            if (self._checkpoint_every is not None
                    and self._deltas_since_base() + 1
                    >= self._checkpoint_every):
                checkpoint = f"v{version:04d}.ckpt.json"
            digest = _digest(new_chunks(), None if checkpoint is None
                             else os.path.join(self._root, checkpoint))
            # Parent ASNs the new side never reached were removed.
            removed = sorted(previous)
            filename = f"v{version:04d}.delta.json"
            _write_atomic(
                os.path.join(self._root, filename),
                (_delta_document(parent, changed_chunks, removed),),
            )
            kind, changed = "delta", len(changed_chunks)
        info = SnapshotInfo(
            version=version,
            kind=kind,
            parent=parent,
            filename=filename,
            since_day=since_day,
            through_day=through_day,
            record_count=len(dataset),
            changed=changed,
            removed=len(removed),
            digest=digest,
            note=note,
            provenance=dict(provenance or {}),
            checkpoint=checkpoint,
        )
        self._versions.append(info)
        try:
            self._write_manifest(expected_on_disk=version - 1)
        except BaseException:
            # Keep the handle equal to what a fresh handle would load:
            # drop the new version unless its manifest already landed
            # (a failed directory fsync comes after the rename).
            if not self._manifest_ends_with(info):
                self._versions.pop()
            raise
        if runlog is not None:
            runlog.emit(
                "snapshot.saved",
                version=info.version,
                kind=info.kind,
                records=info.record_count,
                changed=info.changed,
                removed=info.removed,
                digest=info.digest,
                since_day=info.since_day,
                through_day=info.through_day,
                checkpoint=checkpoint is not None,
            )
            if checkpoint is not None:
                runlog.emit(
                    "snapshot.checkpoint",
                    version=info.version,
                    filename=checkpoint,
                    records=info.record_count,
                    every=self._checkpoint_every,
                )
        return info

    # -- reading ------------------------------------------------------------

    def _read_file(self, filename: str, version: int) -> str:
        path = os.path.join(self._root, filename)
        try:
            with open(path) as handle:
                return handle.read()
        except (OSError, UnicodeDecodeError) as exc:
            raise SnapshotCorruption(
                f"cannot read v{version} document {path}: {exc}"
            ) from exc

    def _read_document(self, filename: str, version: int,
                       kind: str) -> Dict[str, object]:
        """Parse one stored ``dataset`` or ``delta`` document; anything
        unreadable or of the wrong format is :class:`SnapshotCorruption`."""
        expected = DATASET_FORMAT if kind == "dataset" else DELTA_FORMAT
        text = self._read_file(filename, version)
        try:
            document = json.loads(text)
        except ValueError as exc:
            raise SnapshotCorruption(
                f"v{version}: {filename} is not valid JSON: {exc}"
            ) from exc
        found = document.get("format") if isinstance(document, dict) else None
        if found != expected:
            raise SnapshotCorruption(
                f"v{version}: unsupported {kind} format {found!r}"
            )
        return document

    def _full_document_name(
        self,
        info: SnapshotInfo,
        use_checkpoints: bool = True,
    ) -> Optional[str]:
        """File holding ``info``'s complete document, if one exists."""
        if info.kind == "full":
            return info.filename
        if use_checkpoints and info.checkpoint is not None:
            return info.checkpoint
        return None

    def changes(self, version: int) -> Tuple[List[dict], List[int]]:
        """The recorded delta of one version: ``(changed record items,
        removed ASNs)`` exactly as stored on disk.

        The temporal layer's scan primitive: timelines and churn walk
        the chain through this without materializing any dataset.  Full
        versions record no delta (SnapshotError).
        """
        info = self.info(version)
        if info.kind != "delta":
            raise SnapshotError(
                f"v{version} is a full snapshot; it records no delta"
            )
        delta = self._read_document(info.filename, info.version, "delta")
        return (
            list(delta.get("changed", ())),
            [int(asn) for asn in delta.get("removed", ())],
        )

    def deltas_since(
        self, version: int
    ) -> Optional[List[Tuple[SnapshotInfo, List[dict], List[int]]]]:
        """The recorded delta chain from ``version`` (exclusive) to the
        latest, as ``[(info, changed items, removed ASNs), ...]``.

        The serving layer's incremental-refresh hook: a caller holding
        an index built at ``version`` can absorb everything newer by
        applying these deltas in order, never materializing a dataset.
        Returns ``None`` when the chain is not pure deltas — a ``full``
        save after ``version`` records no delta against its parent, so
        an incremental caller must fall back to a full rebuild.
        Raises :class:`SnapshotError` when ``version`` itself is not in
        the store.
        """
        self.info(version)  # range check, with the usual error
        chain: List[Tuple[SnapshotInfo, List[dict], List[int]]] = []
        for info in self._versions[version:]:
            if info.kind != "delta" or info.parent != info.version - 1:
                return None
            changed, removed = self.changes(info.version)
            chain.append((info, changed, removed))
        return chain

    @staticmethod
    def _rollback(store) -> None:
        """Best-effort clearing of a partially populated load target, so
        a failed verification never leaves half a version behind in a
        persistent backend."""
        try:
            if hasattr(store, "asns"):
                asns = list(store.asns())
            else:
                asns = [record.asn for record in store]
            for asn in asns:
                store.remove(asn)
            store.flush()
        except Exception:  # pragma: no cover - the original error wins
            pass

    def _replay(
        self,
        target: SnapshotInfo,
        use_checkpoints: bool,
        add: Callable[[object], None],
        remove: Callable[[int], object],
        digest: Callable[[], str],
    ) -> None:
        """Rebuild ``target`` from disk and verify it: the one chain walk
        behind both :meth:`load` and the parent pass of :meth:`save`.

        Walks back to the nearest stored full document (a checkpoint,
        unless ``use_checkpoints`` is false, or a full snapshot), feeds
        its records and then each delta's removals and changed records
        forward through ``add(record)`` / ``remove(asn)``, and finally
        checks ``digest()`` — the caller's digest of what it rebuilt —
        against the version's recorded digest.  A missing parent, an
        unreadable or malformed document, an undecodable item, a
        manifest entry with no digest or a digest mismatch all raise
        :class:`SnapshotCorruption`.
        """
        chain: List[SnapshotInfo] = []
        info = target
        base_name = self._full_document_name(info, use_checkpoints)
        while base_name is None:
            chain.append(info)
            if info.parent is None:
                raise SnapshotCorruption(
                    f"delta v{info.version} has no parent"
                )
            info = self.info(info.parent)
            base_name = self._full_document_name(info, use_checkpoints)
        documents = [(info, "dataset", base_name)] + [
            (delta_info, "delta", delta_info.filename)
            for delta_info in reversed(chain)
        ]
        for source, kind, name in documents:
            document = self._read_document(name, source.version, kind)
            try:
                if kind == "dataset":
                    removed: List[int] = []
                    items = iter(document["records"])
                else:
                    removed = [int(asn) for asn in document.get("removed", ())]
                    items = iter(document.get("changed", ()))
            except (KeyError, TypeError, ValueError) as exc:
                raise _undecodable(source, name, exc) from exc
            for asn in removed:
                remove(asn)
            for item in items:
                try:
                    record = record_from_item(item)
                except (KeyError, TypeError, ValueError) as exc:
                    raise _undecodable(source, name, exc) from exc
                add(record)
        if not target.digest:
            raise SnapshotCorruption(
                f"v{target.version}: manifest entry records no "
                f"digest; refusing to trust an unverifiable document"
            )
        if digest() != target.digest:
            raise SnapshotCorruption(
                f"v{target.version}: materialized document does not "
                f"match its recorded digest"
            )

    def load(
        self,
        version: Optional[int] = None,
        into=None,
        use_checkpoints: bool = True,
    ) -> ASdbDataset:
        """Materialize one version (default: the latest).

        Walks back to the nearest stored full document — a checkpoint
        or a full snapshot — and replays the delta chain forward, so
        reconstruction touches at most ``checkpoint_every`` deltas no
        matter how deep the history is.  ``use_checkpoints=False``
        forces the replay all the way back to the nearest ``full``
        version (the benchmark's baseline, and a recovery path should a
        checkpoint file ever be lost).  The result is verified against
        the version's recorded digest before it is returned; a manifest
        entry with no digest is treated as corruption, never as a
        silent pass.

        With ``into`` (an empty :class:`~repro.core.store.DatasetStore`
        backend, e.g. a :class:`SqliteDatasetStore`), records land in
        that store instead of a fresh in-memory dataset — a sqlite
        target keeps only its write batch resident while the chain
        replays.  If replay or verification fails, the target store is
        rolled back to empty before the error propagates.  The digest
        check streams the result's chunk stream, so it never
        materializes the document either way.
        """
        target = self._target(version)
        if into is not None and len(into):
            raise SnapshotError(
                "load target store is not empty: refusing to merge "
                f"v{target.version} into {len(into)} existing records"
            )
        dataset = ASdbDataset() if into is None else into

        def digest() -> str:
            dataset.flush()
            return dataset_digest(dataset)

        try:
            self._replay(target, use_checkpoints, dataset.add,
                         dataset.remove, digest)
        except BaseException:
            if into is not None:
                self._rollback(into)
            raise
        return dataset

    def materialize(
        self,
        version: Optional[int] = None,
        into=None,
    ) -> Tuple[ASdbDataset, SnapshotInfo]:
        """Materialize one version *with* its manifest identity.

        The serving layer's hook: :meth:`load` answers "give me the
        records", but an index built for query traffic also needs the
        release facts — version number, digest, record count — to stamp
        on every response.  Returns ``(dataset, info)`` where
        ``dataset`` is exactly what :meth:`load` would produce (same
        ``into`` semantics, same digest verification).
        """
        info = self._target(version)
        return self.load(info.version, into=into), info

    @contextmanager
    def materialize_pair(self, old_version: int, new_version: int):
        """Both versions materialized into throwaway sqlite scratch
        stores, yielded as ``(old_dataset, new_dataset)``.

        The streaming substrate for :meth:`diff` and churn analytics:
        each side replays into its own on-disk store (O(batch)
        residency), and the scratch directory is removed when the
        ``with`` block exits — success or not.
        """
        from .store import SqliteDatasetStore

        old_info = self.info(old_version)
        new_info = self.info(new_version)
        scratch = tempfile.mkdtemp(prefix="asdb-snapdiff-")
        old_ds = new_ds = None
        try:
            old_ds = SqliteDatasetStore(
                os.path.join(scratch, f"v{old_info.version}.sqlite")
            )
            new_ds = SqliteDatasetStore(
                os.path.join(scratch, f"v{new_info.version}.sqlite")
            )
            self.load(old_info.version, into=old_ds)
            self.load(new_info.version, into=new_ds)
            yield old_ds, new_ds
        finally:
            for store in (old_ds, new_ds):
                if store is not None:
                    store.close()
            shutil.rmtree(scratch, ignore_errors=True)

    def read_json(self, version: Optional[int] = None) -> str:
        """The lossless JSON document for one version.

        For versions with a stored full document — full snapshots and
        checkpointed deltas — this is the file verbatim, byte identical
        to the :func:`dataset_to_json` output at save time; other
        deltas are materialized first (which re-serializes through the
        same encoder, so the bytes still match).
        """
        info = self._target(version)
        name = self._full_document_name(info)
        if name is not None:
            return self._read_file(name, info.version)
        return dataset_to_json(self.load(version))

    def diff(self, old_version: int, new_version: int) -> DatasetDiff:
        """What changed from ``old_version`` to ``new_version``.

        Both sides stream through scratch sqlite stores and an ordered
        merge, so diffing a million-AS history holds O(batch) records —
        the same discipline as ``save``'s delta path.
        """
        with self.materialize_pair(old_version, new_version) as pair:
            old_ds, new_ds = pair
            return diff_record_streams(iter(new_ds), iter(old_ds))
