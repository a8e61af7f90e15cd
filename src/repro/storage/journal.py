"""The durable-log primitive: one fsync'd JSONL write-ahead journal.

Both write-ahead journals are this class bound to an entry codec: the
serve arrival journal (:class:`~repro.serve.journal.ArrivalJournal`,
keyed by sequence number) and the sweep progress journal
(:class:`~repro.parallel.journal.SweepJournal`, keyed by cell key).
A codec is an entry type with a hashable ``key``, ``to_json()``, and
a ``from_json(line)`` classmethod that raises ``ValueError``,
``KeyError`` or ``TypeError`` on any line it cannot decode.

The protocol:

* **Open.**  A fresh journal truncates any existing file; a resumed
  one reads the file once and keeps every intact record.
* **Torn tail.**  Each record is one ``write``, flushed and
  ``fsync``'d, so the only line that can fail to decode is a tail cut
  by a crash mid-write.  Loading stops at the first undecodable line —
  cut-off bytes, a null field, JSON that is not an object — and sets
  :attr:`Journal.torn_tail`; it never raises.
* **Duplicates.**  A key journalled twice (a crash after the fsync but
  before the caller's own state caught up, then a restart recording
  the same fact) yields two intact records: the **last** wins and is
  counted in :attr:`Journal.duplicates`.  Both degradations compose.
* **Compaction.**  Appending after a torn tail would hide every new
  record behind the undecodable line, and a tail missing only its
  newline would merge with the next record.  So a resume that finds a
  torn or ragged tail first rewrites the intact records (first-
  occurrence key order, last-wins values) via temp-fsync-rename.  If
  that rewrite fails the journal opens broken: entries still good for
  replay, writes refused.
* **Fsyncgate.**  Write failures are **permanent**: after any failed
  append — a failed ``fsync`` in particular, which may have dropped
  the dirty pages while marking them clean — :attr:`Journal.broken`
  is set and every later append raises
  :class:`~repro.storage.layer.JournalWriteError`.  A retried fsync
  that "succeeds" would acknowledge bytes the kernel threw away.

All IO goes through a :class:`~repro.storage.layer.StorageLayer`,
which also fsyncs the parent directory when the journal file is first
created.
"""

from __future__ import annotations

import json
import os
from pathlib import Path
from typing import Any, Dict, Generic, Optional, Protocol, Type, TypeVar

from repro.storage.layer import (
    JournalWriteError,
    StorageHandle,
    StorageLayer,
    default_storage,
)

__all__ = ["Journal", "JournalRecord", "decode_record", "encode_record"]

K = TypeVar("K")
K_co = TypeVar("K_co", covariant=True)
E = TypeVar("E", bound="JournalRecord[Any]")
R = TypeVar("R", bound="JournalRecord[Any]")
J = TypeVar("J", bound="Journal[Any, Any]")


class JournalRecord(Protocol[K_co]):
    """The entry codec a :class:`Journal` stores."""

    @property
    def key(self) -> K_co: ...

    def to_json(self) -> str: ...

    @classmethod
    def from_json(cls: Type[R], line: str) -> R: ...


def encode_record(fields: Dict[str, Any]) -> str:
    """One version-1 journal line (canonical JSON, no newline)."""
    return json.dumps(dict(fields, v=1), sort_keys=True, separators=(",", ":"))


def decode_record(line: str) -> Dict[str, Any]:
    """The fields of one version-1 journal line (``ValueError`` if not)."""
    obj = json.loads(line)
    if not isinstance(obj, dict) or obj.get("v") != 1:
        raise ValueError(f"not a version-1 journal record: {line[:40]!r}")
    return obj


class Journal(Generic[K, E]):
    """Append-only, fsync'd JSONL journal of *entry_type* records.

    ``resume=True`` loads surviving records (a restart); ``False`` (a
    fresh run) truncates *path*.  *storage* defaults to the
    process-wide pass-through layer.
    """

    #: the entry codec, bound by each concrete journal
    entry_type: Type[E]

    def __init__(self, path: os.PathLike, resume: bool = False,
                 storage: Optional[StorageLayer] = None) -> None:
        self.path = Path(path)
        self.resume = resume
        self.storage = storage if storage is not None else default_storage()
        #: intact records by key, in first-occurrence order (last wins)
        self.entries: Dict[K, E] = {}
        self.torn_tail = False
        #: intact records whose key had already appeared (last wins)
        self.duplicates = 0
        #: the failure that permanently closed this journal to writes
        self.broken: Optional[BaseException] = None
        self._handle: Optional[StorageHandle] = None
        if resume:
            self._load()
        elif self.path.exists():
            self.storage.unlink(self.path)

    def _load(self) -> None:
        """Index the intact prefix; compact a torn or ragged tail."""
        try:
            raw = self.path.read_bytes()
        except OSError:  # missing or unreadable: nothing survived
            return
        for line in raw.split(b"\n"):
            if not line.strip():
                continue
            try:
                entry = self.entry_type.from_json(line.decode("utf-8"))
            except (ValueError, KeyError, TypeError):
                self.torn_tail = True
                break
            if entry.key in self.entries:
                self.duplicates += 1
            self.entries[entry.key] = entry
        if self.torn_tail or (raw and not raw.endswith(b"\n")):
            payload = b"".join(
                entry.to_json().encode("utf-8") + b"\n"
                for entry in self.entries.values()
            )
            try:
                self.storage.write_atomic(
                    self.path, payload, sync_file=True, sync_dir=True
                )
            except OSError as exc:
                self.broken = exc

    def get(self, key: K) -> Optional[E]:
        """The journalled entry for *key*, or ``None``."""
        return self.entries.get(key)

    def __len__(self) -> int:
        return len(self.entries)

    def append(self, entry: E) -> None:
        """Durably record *entry*: one write, flush and fsync.

        Raises :class:`JournalWriteError` on the first IO failure and
        on every append after it; the entry is then *not* indexed.
        """
        if self.broken is not None:
            raise JournalWriteError(self.path, self.broken)
        try:
            if self._handle is None:
                self._handle = self.storage.open_append(self.path)
            self._handle.write(entry.to_json().encode("utf-8") + b"\n")
            self._handle.flush()
            self._handle.fsync()
        except OSError as exc:
            self.broken = exc
            raise JournalWriteError(self.path, exc) from exc
        self.entries[entry.key] = entry

    def close(self) -> None:
        """Close the underlying file handle (idempotent)."""
        if self._handle is not None:
            self._handle.close()
            self._handle = None

    def __enter__(self: J) -> J:
        return self

    def __exit__(self, *exc: object) -> None:
        self.close()
