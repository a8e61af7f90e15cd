"""Write-ahead arrival journal: crash-safe ingress for the service.

The checkpoint envelope makes the *session* durable every N events;
the journal makes every **drawn arrival** durable immediately.  Each
job the arrival pump draws from its source is appended as one JSONL
record — sequence number, job id, application, submit time, processor
request — flushed and ``fsync``'d *before* the arrival is offered to
the queue.  Kill the service at any instant and the journal names
exactly the arrivals that entered the system after the last snapshot.

Recovery replays the journal tail: the restored source re-draws its
arrivals deterministically, and each re-draw is checked against the
journalled record (:meth:`JournalEntry.matches_job`).  A mismatch
means the source stopped being deterministic — different code, edited
SWF file, wrong seed — and recovery refuses rather than silently
diverging (the ``stream-recovery`` validation invariant).

The durability protocol is the shared
:class:`~repro.storage.journal.Journal`, keyed here by sequence
number.  A duplicate is a crash between fsync and snapshot, then a
restart re-drawing the same arrival.  Compaction keeps first-occurrence
order, which is ``seq`` order: the service appends increasing seqs,
and a restore re-appends only seqs past its snapshot cursor, which
are already in the file in order.
"""

from __future__ import annotations

from typing import Any, List

from repro.storage.journal import Journal, decode_record, encode_record
from repro.storage.layer import JournalWriteError

__all__ = ["ArrivalJournal", "JournalEntry", "JournalWriteError"]


class JournalEntry:
    """One drawn arrival as recorded in the journal."""

    __slots__ = ("seq", "job_id", "app", "submit", "request")

    def __init__(
        self, seq: int, job_id: int, app: str, submit: float, request: int
    ) -> None:
        self.seq = seq
        self.job_id = job_id
        self.app = app
        self.submit = submit
        self.request = request

    @property
    def key(self) -> int:
        """The journal key: the arrival's sequence number."""
        return self.seq

    def matches_job(self, job: Any) -> bool:
        """Whether a re-drawn job is identical to the journalled one.

        Floats compare with ``==`` — re-draws are bit-identical by the
        determinism contract, so any inequality is real divergence.
        """
        return (
            job.job_id == self.job_id
            and job.spec.name == self.app
            and job.submit_time == self.submit
            and job.request == self.request
        )

    def to_json(self) -> str:
        return encode_record({
            "seq": self.seq, "job": self.job_id, "app": self.app,
            "submit": self.submit, "request": self.request,
        })

    @classmethod
    def from_json(cls, line: str) -> "JournalEntry":
        obj = decode_record(line)
        return cls(
            seq=int(obj["seq"]),
            job_id=int(obj["job"]),
            app=str(obj["app"]),
            submit=float(obj["submit"]),
            request=int(obj["request"]),
        )

    @classmethod
    def from_job(cls, seq: int, job: Any) -> "JournalEntry":
        return cls(
            seq=seq,
            job_id=job.job_id,
            app=job.spec.name,
            submit=job.submit_time,
            request=job.request,
        )


class ArrivalJournal(Journal[int, JournalEntry]):
    """Append-only, fsync'd JSONL journal of drawn arrivals."""

    entry_type = JournalEntry

    def tail_after(self, seq: int) -> List[JournalEntry]:
        """Journalled entries with sequence numbers beyond *seq*, in order.

        These are the arrivals drawn after the snapshot at *seq* was
        taken — the replay-verify expectations for recovery.
        """
        return [self.entries[s] for s in sorted(self.entries) if s > seq]

    @property
    def max_seq(self) -> int:
        """Highest journalled sequence number (0 when empty)."""
        return max(self.entries, default=0)
