"""The fault-injectable storage layer (:mod:`repro.storage`).

Five aspects under test:

* **FailPlan** — deterministic fault schedules: nth-occurrence
  counting, path globs, persistence, seeded plans;
* **layer primitives** — tracing, deterministic temp names, short
  writes, fsyncgate page-drop emulation (failed fsync truncates to
  the last synced size), crash points that survive ``except
  Exception`` cleanup, and the atomic write protocol;
* **wired protocols degraded behaviors** — the status writer fsyncs
  before renaming, the cache degrades to "not cached" with an honest
  counter, the checkpoint writer fails typed with the previous
  envelope intact;
* **the journal contract** — held once over both journal codecs
  (arrivals and sweep cells): truncate-or-resume, the torn-tail stop
  (also on intact JSON the codec cannot decode), last-wins
  duplicates, the permanent fsyncgate break, compaction on resume,
  the pinned file bytes, and the hypothesis fixed-point property over
  every torn prefix.
"""

from __future__ import annotations

import errno
import json

import pytest
from hypothesis import given, strategies as st

from repro.checkpoint import (
    CheckpointCorruptError,
    CheckpointWriteError,
    read_snapshot,
    write_snapshot,
)
from repro.fuzz.profiles import tier_settings
from repro.parallel.cache import ResultCache
from repro.parallel.journal import JournalEntry as CellEntry
from repro.parallel.journal import SweepJournal
from repro.serve.journal import ArrivalJournal
from repro.serve.journal import JournalEntry as ArrivalEntry
from repro.serve.service import read_status, write_status_payload
from repro.storage.layer import (
    CrashPoint,
    JournalWriteError,
    OpTrace,
    StorageError,
    StorageLayer,
)
from repro.storage.plan import FailPlan, FailRule


class TestFailPlan:
    def test_fires_on_nth_occurrence_only(self):
        plan = FailPlan.single("write", nth=3, err=errno.ENOSPC)
        assert plan.consult("write", "a") is None
        assert plan.consult("write", "a") is None
        rule = plan.consult("write", "a")
        assert rule is not None and rule.err == errno.ENOSPC
        assert plan.consult("write", "a") is None  # not persistent

    def test_persistent_keeps_firing(self):
        plan = FailPlan([FailRule("fsync", nth=2, persistent=True)])
        assert plan.consult("fsync", "x") is None
        assert plan.consult("fsync", "x") is not None
        assert plan.consult("fsync", "x") is not None

    def test_path_glob_matches_basename(self):
        plan = FailPlan.single("write", path_glob="*.journal")
        assert plan.consult("write", "/tmp/run/sweep.journal") is not None
        plan.reset()
        assert plan.consult("write", "/tmp/run/status.json") is None

    def test_other_ops_do_not_advance_counter(self):
        plan = FailPlan.single("fsync", nth=1)
        assert plan.consult("write", "a") is None
        assert plan.consult("fsync", "a") is not None

    def test_seeded_plans_deterministic(self):
        a, b = FailPlan.seeded(99), FailPlan.seeded(99)
        assert a.describe() == b.describe()
        assert FailPlan.seeded(100).describe() != a.describe()

    def test_reset_restarts_counting(self):
        plan = FailPlan.single("write", nth=2)
        plan.consult("write", "a")
        assert plan.consult("write", "a") is not None
        plan.reset()
        assert plan.consult("write", "a") is None
        assert plan.consult("write", "a") is not None


class TestStorageLayer:
    def test_trace_records_op_sequence(self, tmp_path):
        trace = OpTrace(tmp_path)
        layer = StorageLayer(trace=trace)
        handle = layer.open_append(tmp_path / "f.log")
        layer.write(handle, b"hello")
        layer.flush(handle)
        layer.fsync(handle)
        handle.close()
        assert [op.op for op in trace.ops] == [
            "open", "dir_fsync", "write", "flush", "fsync"
        ]
        assert (tmp_path / "f.log").read_bytes() == b"hello"

    def test_injected_write_error_is_storage_error(self, tmp_path):
        layer = StorageLayer(plan=FailPlan.single("write", err=errno.ENOSPC))
        handle = layer.open_append(tmp_path / "f.log")
        with pytest.raises(StorageError) as info:
            layer.write(handle, b"data")
        assert info.value.errno == errno.ENOSPC
        assert isinstance(info.value, OSError)
        assert layer.faults_injected == 1

    def test_short_write_leaves_partial_bytes(self, tmp_path):
        layer = StorageLayer(plan=FailPlan.single("write", kind="short"))
        handle = layer.open_append(tmp_path / "f.log")
        with pytest.raises(StorageError):
            layer.write(handle, b"0123456789")
        handle.close()
        assert (tmp_path / "f.log").read_bytes() == b"01234"

    def test_fsyncgate_truncates_to_synced_size(self, tmp_path):
        # A failed fsync may drop dirty pages while marking them clean;
        # the layer emulates the worst case by truncating to the last
        # size an fsync succeeded at.
        layer = StorageLayer(plan=FailPlan.single("fsync", nth=2))
        handle = layer.open_append(tmp_path / "f.log")
        layer.write(handle, b"first|")
        layer.fsync(handle)
        layer.write(handle, b"second|")
        with pytest.raises(StorageError):
            layer.fsync(handle)
        handle.close()
        assert (tmp_path / "f.log").read_bytes() == b"first|"

    def test_crash_point_is_not_an_exception(self, tmp_path):
        layer = StorageLayer(plan=FailPlan.single("write", kind="crash"))
        handle = layer.open_append(tmp_path / "f.log")
        # a protocol's `except Exception` cleanup must not swallow a
        # simulated power cut
        with pytest.raises(CrashPoint):
            try:
                layer.write(handle, b"data")
            except Exception:  # noqa: BLE001 - the point of the test
                pytest.fail("CrashPoint was caught by `except Exception`")

    def test_crash_happens_after_the_op(self, tmp_path):
        layer = StorageLayer(plan=FailPlan.single("write", kind="crash"))
        handle = layer.open_append(tmp_path / "f.log")
        with pytest.raises(CrashPoint):
            layer.write(handle, b"landed")
        assert (tmp_path / "f.log").read_bytes() == b"landed"

    def test_write_atomic_is_all_or_nothing(self, tmp_path):
        target = tmp_path / "out.json"
        layer = StorageLayer()
        layer.write_atomic(target, b"one", b"two")
        assert target.read_bytes() == b"onetwo"
        failing = StorageLayer(plan=FailPlan.single("write"))
        with pytest.raises(StorageError):
            failing.write_atomic(target, b"NEW")
        assert target.read_bytes() == b"onetwo"  # old content intact
        # and the failed attempt's temp file was cleaned up
        assert [p.name for p in tmp_path.iterdir()] == ["out.json"]

    def test_write_atomic_crash_keeps_temp_not_target(self, tmp_path):
        target = tmp_path / "out.json"
        StorageLayer().write_atomic(target, b"v1")
        layer = StorageLayer(plan=FailPlan.single("fsync", kind="crash"))
        with pytest.raises(CrashPoint):
            layer.write_atomic(target, b"v2")
        assert target.read_bytes() == b"v1"

    def test_temp_names_are_deterministic(self, tmp_path):
        layer = StorageLayer()
        a = layer.open_tmp(tmp_path, suffix=".x")
        b = layer.open_tmp(tmp_path, suffix=".x")
        assert a.path.name == ".tmp-1.x"
        assert b.path.name == ".tmp-2.x"

    def test_trace_rejects_path_escape(self, tmp_path):
        trace = OpTrace(tmp_path / "root")
        with pytest.raises(ValueError):
            trace.rel(tmp_path / "elsewhere" / "f")


class TestStatusWriter:
    """Satellite 2: fsync-before-rename, old-or-new-never-torn."""

    def test_payload_lands_and_parses(self, tmp_path):
        target = tmp_path / "status.json"
        payload = json.dumps({"v": 1, "phase": "running"}, sort_keys=True)
        write_status_payload(target, payload + "\n")
        assert read_status(target) == {"v": 1, "phase": "running"}

    def test_fsync_precedes_rename(self, tmp_path):
        # the regression that makes a crash leave a zero-length status
        # file on ext4: rename published before the data was durable
        trace = OpTrace(tmp_path)
        layer = StorageLayer(trace=trace)
        write_status_payload(tmp_path / "status.json", '{"v": 1}\n', layer)
        ops = [op.op for op in trace.ops]
        assert "fsync" in ops and "replace" in ops
        assert ops.index("fsync") < ops.index("replace")

    def test_failed_write_keeps_old_status(self, tmp_path):
        target = tmp_path / "status.json"
        write_status_payload(target, '{"v": 1, "phase": "old"}\n')
        layer = StorageLayer(plan=FailPlan.single("write", err=errno.ENOSPC))
        with pytest.raises(OSError):
            write_status_payload(target, '{"v": 1, "phase": "new"}\n', layer)
        assert read_status(target) == {"v": 1, "phase": "old"}


class TestCacheDegradation:
    """Satellite 3: store errors skip caching, never abort the cell."""

    def test_enospc_store_is_skipped_and_counted(self, tmp_path):
        layer = StorageLayer(plan=FailPlan.single(
            "write", err=errno.ENOSPC, persistent=True
        ))
        cache = ResultCache(tmp_path, storage=layer)
        assert cache.put("a" * 64, "payload") is False
        assert cache.put("b" * 64, "payload") is False
        assert cache.get("a" * 64) is None
        assert cache.store_errors == 2
        assert cache.stats()["store_errors"] == 2

    def test_successful_put_returns_true(self, tmp_path):
        cache = ResultCache(tmp_path)
        assert cache.put("c" * 64, "payload") is True
        assert cache.get("c" * 64) == "payload"
        assert cache.stats()["store_errors"] == 0

    def test_store_error_logged_once(self, tmp_path, caplog):
        layer = StorageLayer(plan=FailPlan.single(
            "write", err=errno.ENOSPC, persistent=True
        ))
        cache = ResultCache(tmp_path, storage=layer)
        with caplog.at_level("WARNING", logger="repro.parallel.cache"):
            cache.put("d" * 64, "p1")
            cache.put("e" * 64, "p2")
        assert len([r for r in caplog.records
                    if "store failed" in r.message]) == 1


class TestCheckpointWriter:
    def test_failed_write_is_typed_and_leaves_old_snapshot(self, tmp_path):
        target = tmp_path / "state.ckpt"
        write_snapshot(target, {"idx": 0}, b"old-payload")
        layer = StorageLayer(plan=FailPlan.single("fsync"))
        with pytest.raises(CheckpointWriteError):
            write_snapshot(target, {"idx": 1}, b"new-payload", storage=layer)
        meta, payload = read_snapshot(target)
        assert meta["idx"] == 0 and payload == b"old-payload"

    def test_first_write_failure_leaves_nothing(self, tmp_path):
        target = tmp_path / "state.ckpt"
        layer = StorageLayer(plan=FailPlan.single("write"))
        with pytest.raises(CheckpointWriteError):
            write_snapshot(target, {"idx": 0}, b"payload", storage=layer)
        with pytest.raises(CheckpointCorruptError):
            read_snapshot(target)
        assert not target.exists()




# ----------------------------------------------------------------------
# the durable-log contract, held once over both journal codecs
# ----------------------------------------------------------------------
class Codec:
    """One journal codec: its journal class and a record factory.

    ``entry(n, variant)`` is record *n*; another *variant* is a
    different record under the same key.
    """

    def __init__(self, name, journal, entry, null_field):
        self.name = name
        self.journal = journal
        self.entry = entry
        #: a numeric field whose ``null`` leaves the line undecodable
        self.null_field = null_field

    def key(self, n):
        return self.entry(n).key

    def keys(self, *ns):
        return [self.key(n) for n in ns]

    def line(self, n, variant=0) -> bytes:
        return self.entry(n, variant).to_json().encode("utf-8")

    def write(self, path, *records) -> bytes:
        """Journal *records* (``n`` or ``(n, variant)``) fresh at *path*."""
        with self.journal(path) as journal:
            for record in records:
                n, variant = record if isinstance(record, tuple) else (record, 0)
                journal.append(self.entry(n, variant))
        return path.read_bytes()


ARRIVAL = Codec(
    "arrival", ArrivalJournal,
    lambda n, variant=0: ArrivalEntry(seq=n, job_id=100 + n, app="w2",
                                      submit=1.5 * n, request=4 + variant),
    null_field="job",
)
SWEEP = Codec(
    "sweep", SweepJournal,
    lambda n, variant=0: CellEntry.of_payload(
        f"cell-{n}", f"payload-{n}-{variant}", label=f"cell-{n}"
    ),
    null_field="bytes",
)
CODECS = (ARRIVAL, SWEEP)


@pytest.fixture(params=CODECS, ids=[c.name for c in CODECS])
def codec(request):
    return request.param


class TestJournalContract:
    """Truncate-or-resume, the torn-tail stop and last-wins duplicates."""

    def test_fresh_journal_truncates(self, codec, tmp_path):
        path = tmp_path / "j.jsonl"
        codec.write(path, 1, (1, 5))
        fresh = codec.journal(path, resume=False)
        assert len(fresh) == 0
        assert fresh.duplicates == 0 and not fresh.torn_tail
        assert not path.exists()

    def test_torn_tail_tolerated(self, codec, tmp_path):
        path = tmp_path / "j.jsonl"
        raw = codec.write(path, 1, 2)
        path.write_bytes(raw + codec.line(3)[:18])  # crash mid-write
        resumed = codec.journal(path, resume=True)
        assert resumed.torn_tail
        assert list(resumed.entries) == codec.keys(1, 2)

    def test_duplicate_key_last_write_wins(self, codec, tmp_path):
        path = tmp_path / "j.jsonl"
        codec.write(path, 1, 2, (1, 5))
        journal = codec.journal(path, resume=True)
        assert len(journal) == 2
        assert journal.duplicates == 1
        assert not journal.torn_tail
        assert journal.get(codec.key(1)).to_json() == codec.entry(1, 5).to_json()

    def test_duplicates_compose_with_torn_tail(self, codec, tmp_path):
        path = tmp_path / "j.jsonl"
        raw = codec.write(path, 1, (1, 5), 2)
        path.write_bytes(raw[:-5])  # tear record 2
        journal = codec.journal(path, resume=True)
        assert journal.torn_tail
        assert journal.duplicates == 1
        assert list(journal.entries) == codec.keys(1)
        assert journal.get(codec.key(1)).to_json() == codec.entry(1, 5).to_json()
        assert journal.get(codec.key(2)) is None

    def test_tear_inside_the_duplicate_keeps_first_record(self, codec, tmp_path):
        path = tmp_path / "j.jsonl"
        raw = codec.write(path, 1, 2, (1, 5))
        path.write_bytes(raw[:-5])  # tear the second record 1
        journal = codec.journal(path, resume=True)
        assert journal.torn_tail
        assert journal.duplicates == 0
        assert len(journal) == 2
        assert journal.get(codec.key(1)).to_json() == codec.entry(1).to_json()

    @pytest.mark.parametrize("kind", ["null-field", "json-list", "json-number"])
    def test_malformed_line_is_a_torn_tail(self, codec, kind, tmp_path):
        # intact JSON that the codec cannot decode: loading stops there
        # without raising, and compaction drops it and what follows
        fields = json.loads(codec.line(2))
        fields[codec.null_field] = None
        bad = {
            "null-field": json.dumps(fields), "json-list": "[1]",
            "json-number": "7",
        }[kind].encode("utf-8")
        path = tmp_path / "j.jsonl"
        path.write_bytes(b"\n".join([codec.line(1), bad, codec.line(3), b""]))
        journal = codec.journal(path, resume=True)
        assert journal.torn_tail
        assert list(journal.entries) == codec.keys(1)
        assert path.read_bytes() == codec.line(1) + b"\n"


class TestJournalFsyncgate:
    """After a failed append, a journal breaks permanently."""

    # a failed write never lands; a failed flush breaks the journal
    # but the record already reached the kernel (recovering it is
    # legal — recovery may exceed the acked count, never trail it);
    # a failed fsync truncates to the last synced size (fsyncgate)
    @pytest.mark.parametrize("nth_op,recovered", [
        ("write", 2),
        ("flush", 3),
        ("fsync", 2),
    ])
    def test_journal_breaks_permanently(self, codec, nth_op, recovered, tmp_path):
        layer = StorageLayer(plan=FailPlan.single(nth_op, nth=3))
        path = tmp_path / "j.jsonl"
        journal = codec.journal(path, storage=layer)
        journal.append(codec.entry(1))
        journal.append(codec.entry(2))
        with pytest.raises(JournalWriteError):
            journal.append(codec.entry(3))
        assert journal.broken is not None
        # the plan only fires once; the refusal is the journal's own
        with pytest.raises(JournalWriteError):
            journal.append(codec.entry(4))
        journal.close()
        assert list(journal.entries) == codec.keys(1, 2)
        resumed = codec.journal(path, resume=True)
        assert list(resumed.entries) == codec.keys(*range(1, recovered + 1))

    def test_fsyncgate_failed_append_leaves_no_torn_record(self, codec, tmp_path):
        # the truncate-to-synced-size emulation means the failed
        # record's bytes are gone, not half-present
        layer = StorageLayer(plan=FailPlan.single("fsync", nth=2))
        path = tmp_path / "j.jsonl"
        journal = codec.journal(path, storage=layer)
        journal.append(codec.entry(1))
        size_before = path.stat().st_size
        with pytest.raises(JournalWriteError):
            journal.append(codec.entry(2))
        journal.close()
        assert path.stat().st_size == size_before


class TestTornTailCompaction:
    def test_append_after_torn_resume_stays_recoverable(self, codec, tmp_path):
        path = tmp_path / "torn.jsonl"
        raw = codec.write(path, 1, 2, 3, 4, 5, 6)
        path.write_bytes(raw[:-9])  # tear the last record
        journal = codec.journal(path, resume=True)
        assert journal.torn_tail
        assert list(journal.entries) == codec.keys(1, 2, 3, 4, 5)
        journal.append(codec.entry(6))
        journal.close()
        # without compaction-on-resume, record 6 would hide behind the
        # undecodable line and recovery would stop at 5
        recovered = codec.journal(path, resume=True)
        assert not recovered.torn_tail
        assert list(recovered.entries) == codec.keys(1, 2, 3, 4, 5, 6)

    def test_ragged_tail_is_compacted(self, codec, tmp_path):
        # an intact last record that lost only its newline would merge
        # with the next append into one undecodable line
        path = tmp_path / "ragged.jsonl"
        raw = codec.write(path, 1, 2)
        path.write_bytes(raw[:-1])
        journal = codec.journal(path, resume=True)
        assert not journal.torn_tail
        assert path.read_bytes() == raw
        journal.append(codec.entry(3))
        journal.close()
        assert list(codec.journal(path, resume=True).entries) == codec.keys(1, 2, 3)


#: journal file bytes (append, then compaction) written by the two
#: journals before they shared one implementation
PINNED_BYTES = {
    "arrival": (
        b'{"app":"w2","job":101,"request":4,"seq":1,"submit":1.5,"v":1}\n'
        b'{"app":"w2","job":102,"request":4,"seq":2,"submit":3.0,"v":1}\n'
        b'{"app":"w2","job":103,"request":4,"seq":3,"submit":4.5,"v":1}\n',
        b'{"app":"w2","job":101,"request":4,"seq":1,"submit":1.5,"v":1}\n'
        b'{"app":"w2","job":102,"request":8,"seq":2,"submit":3.0,"v":1}\n'
        b'{"app":"w2","job":103,"request":8,"seq":3,"submit":4.5,"v":1}\n',
    ),
    "sweep": (
        b'{"bytes":11,"key":"cell-1","label":"cell-1","sha256":'
        b'"9a74aab92223250b37b7811307555bf581e873f0ec0cd2b3393f806285c0a77f","v":1}\n'
        b'{"bytes":11,"key":"cell-2","label":"cell-2","sha256":'
        b'"9abce9b4134e0f1843f372429634aa8c6b54dca974854fee128cc7d3c1879c86","v":1}\n'
        b'{"bytes":11,"key":"cell-3","label":"cell-3","sha256":'
        b'"09226f687dd6276a0252ef67a9eb2e21c30277e8740e0a7ce2805c8128463af7","v":1}\n',
        b'{"bytes":11,"key":"cell-1","label":"cell-1","sha256":'
        b'"9a74aab92223250b37b7811307555bf581e873f0ec0cd2b3393f806285c0a77f","v":1}\n'
        b'{"bytes":11,"key":"cell-2","label":"cell-2","sha256":'
        b'"eea0b10c4420ad883b4cd818e2021dc3cbac5f49e863b91c24286b7f7c86b865","v":1}\n'
        b'{"bytes":11,"key":"cell-3","label":"cell-3","sha256":'
        b'"e0db300c70f82423455884ece4469ae84db6d7fa779650598a1c9cc6bbe39371","v":1}\n',
    ),
}


class TestJournalBytes:
    def test_append_bytes(self, codec, tmp_path):
        raw = codec.write(tmp_path / "j.jsonl", 1, 2, 3)
        assert raw == PINNED_BYTES[codec.name][0]

    def test_compaction_bytes(self, codec, tmp_path):
        # 1, 2, 3 appended; a restart re-appends 2 and 3 (last wins)
        # and a crash tears 4.  Compaction keeps first-occurrence
        # order, which for arrivals must be seq order.
        path = tmp_path / "j.jsonl"
        codec.write(path, 1, 2, 3)
        with codec.journal(path, resume=True) as journal:
            journal.append(codec.entry(2, 4))
            journal.append(codec.entry(3, 4))
        path.write_bytes(path.read_bytes() + codec.line(4)[:-6])
        journal = codec.journal(path, resume=True)
        assert (journal.duplicates, journal.torn_tail) == (2, True)
        assert path.read_bytes() == PINNED_BYTES[codec.name][1]


@tier_settings("standard")
@given(cut=st.integers(min_value=0, max_value=2000))
def test_torn_prefix_recovery_is_a_fixed_point(cut, tmp_path_factory):
    """Recovery of a recovered journal changes nothing, on both codecs.

    For *every* byte-prefix of a real journal: loading recovers
    exactly the intact record prefix, a second load recovers the same
    entries, and an append after recovery survives the next load —
    replay state reaches a fixed point in one step.
    """
    for codec in CODECS:
        tmp_path = tmp_path_factory.mktemp(f"fp-{codec.name}")
        raw = codec.write(tmp_path / "ref.jsonl", *range(1, 9))
        cut_at = cut % (len(raw) + 1)
        torn = tmp_path / "torn.jsonl"
        torn.write_bytes(raw[:cut_at])

        # a record is recoverable once its JSON bytes are all present —
        # the trailing newline is separator, not content
        expected = []
        start = 0
        for n, line in enumerate(raw.split(b"\n")[:-1], start=1):
            if start + len(line) <= cut_at:
                expected.append(n)
            start += len(line) + 1

        first = codec.journal(torn, resume=True)
        assert list(first.entries) == codec.keys(*expected)
        second = codec.journal(torn, resume=True)
        assert second.entries.keys() == first.entries.keys()
        assert not second.torn_tail  # compaction happened at most once
        after = len(expected) + 1
        second.append(codec.entry(after))
        second.close()
        third = codec.journal(torn, resume=True)
        assert list(third.entries) == codec.keys(*expected, after)
