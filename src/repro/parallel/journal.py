"""Write-ahead sweep journal: crash-safe progress for long sweeps.

The :class:`~repro.parallel.cache.ResultCache` makes finished cells
*reusable*; the journal makes a sweep's **progress** durable.  Every
completed cell appends one JSONL record — cache key, payload digest,
payload length — to an append-only file that is flushed and
``fsync``'d before the runner moves on.  Kill the parent process at
any instant and the journal still names exactly the cells that
finished, each with the SHA-256 its payload must hash to.

Resume (``--resume``) replays the journal: a cell whose key appears in
the journal *and* whose cached payload matches the journalled digest
is served without re-execution; everything else — including cells
whose cache entry rotted after the journal was written — is recomputed.
Because payloads are canonical JSON, a resumed sweep is byte-identical
to an uninterrupted one.

The durability protocol is the shared
:class:`~repro.storage.journal.Journal`, keyed here by cache key: a
torn cell is simply recomputed, and a cell journalled twice (a retry,
a resumed append) resolves last-wins.  When the journal breaks the
runner degrades to unjournaled execution, counted in the sweep stats,
rather than trusting a lying journal.
"""

from __future__ import annotations

import hashlib

from repro.storage.journal import Journal, decode_record, encode_record


def payload_digest(payload: str) -> str:
    """SHA-256 hex digest of a canonical-JSON payload."""
    return hashlib.sha256(payload.encode("utf-8")).hexdigest()


class JournalEntry:
    """One completed cell as recorded in the journal."""

    __slots__ = ("key", "digest", "length", "label")

    def __init__(self, key: str, digest: str, length: int, label: str = "") -> None:
        self.key = key
        self.digest = digest
        self.length = length
        self.label = label

    @classmethod
    def of_payload(cls, key: str, payload: str, label: str = "") -> "JournalEntry":
        """The record of *key* completing with *payload*."""
        return cls(key, payload_digest(payload), len(payload), label)

    def matches(self, payload: str) -> bool:
        """Whether *payload* is byte-identical to the journalled one."""
        return len(payload) == self.length and payload_digest(payload) == self.digest

    def to_json(self) -> str:
        return encode_record({
            "key": self.key, "sha256": self.digest,
            "bytes": self.length, "label": self.label,
        })

    @classmethod
    def from_json(cls, line: str) -> "JournalEntry":
        obj = decode_record(line)
        return cls(
            key=str(obj["key"]), digest=str(obj["sha256"]),
            length=int(obj["bytes"]), label=str(obj.get("label", "")),
        )


class SweepJournal(Journal[str, JournalEntry]):
    """Append-only, fsync'd JSONL journal of completed sweep cells."""

    entry_type = JournalEntry
