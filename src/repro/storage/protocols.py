"""The five durability protocols under torture, and their invariants.

Each harness knows how to *run* its protocol through a traced
:class:`~repro.storage.layer.StorageLayer`, how to *check* its
recovery invariant against a materialised crash state, and which
*fault plans* to inject for the degraded-behavior contract:

========================  =============================================
protocol                  recovery invariant
========================  =============================================
``serve-journal``         recovered records are a byte-identical
                          prefix of the appended series, at least as
                          long as the acked count; loading never raises
``sweep-journal``         same harness, run on the cell codec
``checkpoint``            :func:`read_snapshot` yields exactly one
                          *written* version, never older than the last
                          acked one, never a blend; a file that exists
                          always verifies; absence only before the
                          first ack
``cache``                 :meth:`ResultCache.get` returns the exact
                          stored payload or a miss — never wrong
                          bytes, never an exception (corruption is
                          quarantined)
``status``                if the status file exists it parses to a
                          complete previously-written payload — old or
                          new, never torn, never empty
========================  =============================================

The fault pass runs each protocol under a matrix of injected errors
(ENOSPC/EIO on each primitive, short writes, crash-after-op, plus
seeded random plans) and checks the *degraded-behavior* contract:
journals break permanently with
:class:`~repro.storage.layer.JournalWriteError` (fsyncgate — no
retry), checkpoints fail with a typed
:class:`~repro.checkpoint.errors.CheckpointWriteError` leaving the
previous envelope intact, the cache degrades to "not cached" without
raising, and the status writer surfaces a plain ``OSError`` for the
service to count and survive.
"""

from __future__ import annotations

import errno
import hashlib
import json
import shutil
from pathlib import Path
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple, Type

from repro.checkpoint.errors import (
    CheckpointCorruptError,
    CheckpointError,
    CheckpointWriteError,
)
from repro.checkpoint.format import read_snapshot, write_snapshot
from repro.parallel.cache import ResultCache
from repro.parallel.journal import JournalEntry as CellEntry
from repro.parallel.journal import SweepJournal
from repro.serve.journal import ArrivalJournal
from repro.serve.journal import JournalEntry as ArrivalEntry
from repro.serve.service import read_status, write_status_payload
from repro.storage.journal import Journal
from repro.storage.layer import (
    CrashPoint,
    JournalWriteError,
    OpTrace,
    StorageLayer,
)
from repro.storage.plan import FailPlan
from repro.storage.torture import CrashState, enumerate_crash_states, materialise

__all__ = [
    "PROTOCOL_NAMES",
    "TortureReport",
    "run_protocol_torture",
    "run_torture",
]

#: canonical protocol order (CLI choices, reports, docs)
PROTOCOL_NAMES: Tuple[str, ...] = (
    "serve-journal", "sweep-journal", "checkpoint", "cache", "status",
)

#: errnos exercised by the deterministic fault matrix
_MATRIX_ERRNOS = (errno.ENOSPC, errno.EIO)
#: occurrence numbers exercised per (op, errno) pair
_MATRIX_NTHS = (1, 2, 5)


class TortureReport:
    """Outcome of torturing one protocol."""

    def __init__(self, protocol: str) -> None:
        self.protocol = protocol
        #: distinct crash states enumerated and checked
        self.crash_states = 0
        #: fault-injection runs executed and checked
        self.fault_runs = 0
        #: human-readable invariant violations (empty = clean)
        self.violations: List[str] = []

    @property
    def states(self) -> int:
        """Total adversarial states exercised (crash + fault)."""
        return self.crash_states + self.fault_runs

    def summary_line(self) -> str:
        return (
            f"{self.protocol}: {self.crash_states} crash states, "
            f"{self.fault_runs} fault runs, "
            f"{len(self.violations)} violation(s)"
        )


# ----------------------------------------------------------------------
# shared fault-matrix construction
# ----------------------------------------------------------------------
def _fault_plans(ops: Sequence[str], crash_ops: Sequence[str],
                 seed: int) -> List[FailPlan]:
    """The deterministic fault matrix for a protocol touching *ops*."""
    plans: List[FailPlan] = []
    for op in ops:
        for err in _MATRIX_ERRNOS:
            for nth in _MATRIX_NTHS:
                plans.append(FailPlan.single(op, nth=nth, err=err))
    if "write" in ops:
        for nth in (1, 3):
            plans.append(FailPlan.single(
                "write", nth=nth, kind="short", err=errno.ENOSPC
            ))
    for op in crash_ops:
        for nth in (1, 4):
            plans.append(FailPlan.single(op, nth=nth, kind="crash"))
    for extra in range(4):
        plans.append(FailPlan.seeded(seed * 1009 + extra))
    return plans


# ----------------------------------------------------------------------
# write-ahead journals: one harness, instantiated once per codec
# ----------------------------------------------------------------------
def _arrival_entries(count: int) -> List[ArrivalEntry]:
    return [
        ArrivalEntry(
            seq=i + 1, job_id=1000 + i, app=f"app{i % 3}",
            submit=2.5 * i, request=(i % 7) + 1,
        )
        for i in range(count)
    ]


def _cell_entries(count: int) -> List[CellEntry]:
    return [
        CellEntry.of_payload(
            f"cell-{i:02d}",
            json.dumps({"cell": i, "mean": 1.5 * i}, sort_keys=True,
                       separators=(",", ":")),
            label=f"cell-{i:02d}",
        )
        for i in range(count)
    ]


class JournalProtocol:
    """A write-ahead journal: append *entries*, each acked after its fsync."""

    def __init__(self, name: str, filename: str,
                 journal_type: Type[Journal[Any, Any]], entries: List[Any],
                 seed_offset: int) -> None:
        self.name = name
        self.filename = filename
        self.journal_type = journal_type
        self.entries = entries
        #: keeps each codec's seeded fault plans distinct
        self.seed_offset = seed_offset

    def _recovered(self, path: Path) -> List[str]:
        journal = self.journal_type(path, resume=True)
        return [entry.to_json() for entry in journal.entries.values()]

    def run(self, layer: StorageLayer, workdir: Path) -> List[str]:
        journal = self.journal_type(workdir / self.filename, storage=layer)
        lines = []
        for entry in self.entries:
            journal.append(entry)
            layer.ack("append", str(entry.key))
            lines.append(entry.to_json())
        journal.close()
        return lines

    def check(self, state_dir: Path, acked: int,
              expect: List[str]) -> List[str]:
        recovered = self._recovered(state_dir / self.filename)
        return _check_prefix(self.name, recovered, expect, acked)

    def fault_plans(self, seed: int) -> List[FailPlan]:
        return _fault_plans(
            ops=("open", "write", "flush", "fsync", "dir_fsync"),
            crash_ops=("write", "fsync"), seed=seed + self.seed_offset,
        )

    def fault_run(self, plan: FailPlan, workdir: Path) -> List[str]:
        path = workdir / self.filename
        journal = self.journal_type(path, storage=StorageLayer(plan=plan))
        problems: List[str] = []
        acked = 0
        crashed = False
        broke = False
        for entry in self.entries:
            try:
                journal.append(entry)
                acked += 1
            except JournalWriteError:
                broke = True
                break
            except CrashPoint:
                crashed = True
                break
            except OSError as exc:
                problems.append(
                    f"raw OSError escaped append ({type(exc).__name__}); "
                    f"expected JournalWriteError"
                )
                break
        if broke:
            problems.extend(_check_journal_broken(
                self.name, journal.broken,
                lambda: journal.append(self.entries[-1]),
            ))
        if not crashed:
            journal.close()
        expect = [entry.to_json() for entry in self.entries]
        recovered = self._recovered(path)
        return problems + _check_prefix(self.name, recovered, expect, acked)


def _check_prefix(name: str, recovered: List[str], expect: List[str],
                  acked: int) -> List[str]:
    """The journal invariant: byte-identical prefix, no shorter than acked."""
    problems: List[str] = []
    if len(recovered) < acked:
        problems.append(
            f"lost acked append(s): {acked} acked, "
            f"{len(recovered)} recovered"
        )
    for i, line in enumerate(recovered):
        if i >= len(expect):
            problems.append(f"recovered record {i} beyond everything appended")
            break
        if line != expect[i]:
            problems.append(
                f"recovered record {i} diverges from the appended bytes"
            )
            break
    return [f"{name}: {p}" for p in problems]


def _check_journal_broken(name: str, broken: Optional[BaseException],
                          retry: Callable[[], Any]) -> List[str]:
    """fsyncgate contract: a broken journal refuses every further append."""
    problems: List[str] = []
    if broken is None:
        problems.append("append raised but journal is not marked broken")
    try:
        retry()
        problems.append(
            "append succeeded after the journal broke (fsyncgate: the "
            "retried bytes may not be durable)"
        )
    except JournalWriteError:
        pass
    except BaseException as exc:  # noqa: BLE001 - diagnostic catch-all
        problems.append(
            f"retry after break raised {type(exc).__name__}, "
            f"expected JournalWriteError"
        )
    return [f"{name}: {p}" for p in problems]


# ----------------------------------------------------------------------
# checkpoint envelopes
# ----------------------------------------------------------------------
class CheckpointProtocol:
    """Envelope rewrites: v0, v1, v2 over the same path, acked each."""

    name = "checkpoint"
    versions = 3
    filename = "state.ckpt"

    def _payloads(self) -> List[bytes]:
        return [
            (f"payload-{idx}:" * (16 * (idx + 1))).encode("ascii")
            for idx in range(self.versions)
        ]

    def run(self, layer: StorageLayer, workdir: Path) -> List[bytes]:
        payloads = self._payloads()
        for idx, payload in enumerate(payloads):
            write_snapshot(
                workdir / self.filename,
                {"run": "torture", "idx": idx}, payload, storage=layer,
            )
            layer.ack("snapshot", str(idx))
        return payloads

    def check(self, state_dir: Path, acked: int,
              expect: List[bytes]) -> List[str]:
        target = state_dir / self.filename
        problems: List[str] = []
        try:
            meta, payload = read_snapshot(target)
        except CheckpointCorruptError:
            if target.exists():
                problems.append(
                    "envelope file exists but does not verify (torn or "
                    "blended snapshot visible to readers)"
                )
            elif acked > 0:
                problems.append(
                    f"{acked} snapshot(s) acked but no envelope survived"
                )
        except CheckpointError as exc:
            problems.append(f"unexpected {type(exc).__name__} from recovery")
        else:
            idx = meta.get("idx")
            if not isinstance(idx, int) or not 0 <= idx < len(expect):
                problems.append(f"recovered meta names unknown version {idx!r}")
            elif payload != expect[idx]:
                problems.append(
                    f"recovered payload is not the bytes of version {idx} "
                    f"(old/new blend)"
                )
            elif idx < acked - 1:
                problems.append(
                    f"rollback: version {idx} recovered after version "
                    f"{acked - 1} was acked durable"
                )
        return [f"{self.name}: {p}" for p in problems]

    def fault_plans(self, seed: int) -> List[FailPlan]:
        return _fault_plans(
            ops=("open", "write", "flush", "fsync", "replace", "dir_fsync"),
            crash_ops=("write", "fsync", "replace"), seed=seed + 2,
        )

    def fault_run(self, plan: FailPlan, workdir: Path) -> List[str]:
        target = workdir / self.filename
        payloads = self._payloads()
        layer = StorageLayer(plan=plan)
        problems: List[str] = []
        last_ok: Optional[int] = None
        for idx, payload in enumerate(payloads):
            try:
                write_snapshot(
                    target, {"run": "torture", "idx": idx}, payload,
                    storage=layer,
                )
                last_ok = idx
            except CheckpointWriteError:
                continue
            except CrashPoint:
                break
            except BaseException as exc:  # noqa: BLE001 - diagnostic
                problems.append(
                    f"untyped {type(exc).__name__} escaped write_snapshot; "
                    f"expected CheckpointWriteError"
                )
                break
        try:
            meta, payload = read_snapshot(target)
        except CheckpointCorruptError:
            if target.exists():
                problems.append("failed write left a torn envelope behind")
            elif last_ok is not None:
                problems.append(
                    f"version {last_ok} was written successfully but no "
                    f"envelope survived"
                )
        else:
            idx = meta.get("idx")
            if not isinstance(idx, int) or not 0 <= idx < len(payloads):
                problems.append(f"recovered meta names unknown version {idx!r}")
            elif payload != payloads[idx]:
                problems.append(f"recovered payload blends versions (at {idx})")
            elif last_ok is not None and idx < last_ok:
                problems.append(
                    f"rollback: version {idx} on disk after version "
                    f"{last_ok} succeeded"
                )
        return [f"{self.name}: {p}" for p in problems]


# ----------------------------------------------------------------------
# result cache
# ----------------------------------------------------------------------
class CacheProtocol:
    """Cache stores: valid-or-quarantined, never wrong bytes, never raises."""

    name = "cache"
    records = 8

    def _pairs(self) -> List[Tuple[str, str]]:
        out = []
        for i in range(self.records):
            key = hashlib.sha256(f"torture-cell-{i}".encode()).hexdigest()
            payload = json.dumps(
                {"cell": i, "value": 1.5 * i, "series": list(range(i + 3))},
                sort_keys=True, separators=(",", ":"),
            )
            out.append((key, payload))
        return out

    def run(self, layer: StorageLayer, workdir: Path) -> Dict[str, str]:
        cache = ResultCache(workdir, storage=layer)
        expect = {}
        for key, payload in self._pairs():
            cache.put(key, payload)
            expect[key] = payload
        return expect

    def check(self, state_dir: Path, acked: int,
              expect: Dict[str, str]) -> List[str]:
        cache = ResultCache(state_dir)
        problems: List[str] = []
        for key in sorted(expect):
            try:
                got = cache.get(key)
            except BaseException as exc:  # noqa: BLE001 - diagnostic
                problems.append(
                    f"get raised {type(exc).__name__} on a crash-state entry"
                )
                continue
            if got is not None and got != expect[key]:
                problems.append(
                    "get returned bytes that were never stored under "
                    f"{key[:12]}…"
                )
        return [f"{self.name}: {p}" for p in problems]

    def fault_plans(self, seed: int) -> List[FailPlan]:
        return _fault_plans(
            ops=("open", "write", "flush", "replace"),
            crash_ops=("write", "replace"), seed=seed + 3,
        )

    def fault_run(self, plan: FailPlan, workdir: Path) -> List[str]:
        pairs = self._pairs()
        layer = StorageLayer(plan=plan)
        cache = ResultCache(workdir, storage=layer)
        problems: List[str] = []
        stored: Dict[str, str] = {}
        injected_error = False
        for key, payload in pairs:
            try:
                if cache.put(key, payload):
                    stored[key] = payload
            except CrashPoint:
                break
            except BaseException as exc:  # noqa: BLE001 - diagnostic
                problems.append(
                    f"put raised {type(exc).__name__}; stores must degrade, "
                    f"never abort the cell"
                )
                break
        for index in plan.fired:
            if plan.rules[index].kind in ("error", "short"):
                injected_error = True
        if injected_error and cache.store_errors == 0:
            problems.append(
                "an injected store error was swallowed without being "
                "counted in stats()"
            )
        fresh = ResultCache(workdir)
        for key, payload in pairs:
            got = fresh.get(key)
            if key in stored and got != payload:
                problems.append(
                    f"put reported success but get lost {key[:12]}…"
                )
            elif got is not None and got != payload:
                problems.append(
                    f"get returned bytes never stored under {key[:12]}…"
                )
        return [f"{self.name}: {p}" for p in problems]


# ----------------------------------------------------------------------
# status heartbeat
# ----------------------------------------------------------------------
class StatusProtocol:
    """Status file: present implies complete and previously written."""

    name = "status"
    beats = 10
    filename = "status.json"

    def _payloads(self) -> List[str]:
        return [
            json.dumps(
                {"v": 1, "phase": "running", "heartbeats": i,
                 "sim_time": 10.0 * i},
                sort_keys=True,
            ) + "\n"
            for i in range(self.beats)
        ]

    def run(self, layer: StorageLayer, workdir: Path) -> List[str]:
        payloads = self._payloads()
        for i, payload in enumerate(payloads):
            write_status_payload(workdir / self.filename, payload, layer)
            layer.ack("status", str(i))
        return payloads

    def check(self, state_dir: Path, acked: int,
              expect: List[str]) -> List[str]:
        target = state_dir / self.filename
        problems: List[str] = []
        if target.exists():
            status = read_status(target)
            if status is None:
                problems.append(
                    "status file exists but is torn/empty — readers see a "
                    "published file that never parses"
                )
            else:
                rendered = json.dumps(status, sort_keys=True) + "\n"
                if rendered not in expect:
                    problems.append(
                        "status file holds content that was never written"
                    )
        return [f"{self.name}: {p}" for p in problems]

    def fault_plans(self, seed: int) -> List[FailPlan]:
        return _fault_plans(
            ops=("open", "write", "flush", "fsync", "replace"),
            crash_ops=("write", "fsync", "replace"), seed=seed + 4,
        )

    def fault_run(self, plan: FailPlan, workdir: Path) -> List[str]:
        target = workdir / self.filename
        payloads = self._payloads()[:6]
        layer = StorageLayer(plan=plan)
        problems: List[str] = []
        for payload in payloads:
            try:
                write_status_payload(target, payload, layer)
            except CrashPoint:
                break
            except OSError:
                continue
            except BaseException as exc:  # noqa: BLE001 - diagnostic
                problems.append(
                    f"untyped {type(exc).__name__} escaped the status writer"
                )
                break
        if target.exists():
            status = read_status(target)
            if status is None:
                problems.append("failed/crashed write published a torn file")
            else:
                rendered = json.dumps(status, sort_keys=True) + "\n"
                if rendered not in payloads:
                    problems.append("status file holds never-written content")
        return [f"{self.name}: {p}" for p in problems]


_HARNESSES: Tuple[Any, ...] = (
    JournalProtocol("serve-journal", "arrivals.jsonl", ArrivalJournal,
                    _arrival_entries(12), seed_offset=0),
    JournalProtocol("sweep-journal", "sweep.journal", SweepJournal,
                    _cell_entries(12), seed_offset=1),
    CheckpointProtocol(),
    CacheProtocol(),
    StatusProtocol(),
)
_PROTOCOLS: Dict[str, Any] = {harness.name: harness for harness in _HARNESSES}


# ----------------------------------------------------------------------
# the campaign driver
# ----------------------------------------------------------------------
def _preserve_failure(keep_dir: Path, protocol: str, label: str,
                      state_dir: Path, violations: List[str]) -> None:
    safe = label.replace("/", "_")
    dest = keep_dir / protocol / safe
    if dest.exists():
        return
    dest.parent.mkdir(parents=True, exist_ok=True)
    shutil.copytree(state_dir, dest)
    (dest / "VIOLATIONS.txt").write_text(
        "".join(f"{v}\n" for v in violations), encoding="utf-8"
    )


def run_protocol_torture(
    protocol: str,
    seed: int,
    budget: int,
    base_dir: Path,
    mutate: Optional[str] = None,
    keep_failures: Optional[Path] = None,
) -> TortureReport:
    """Torture one protocol: crash-state enumeration plus the fault matrix.

    *budget* caps the number of crash states checked (0 = unbounded).
    *mutate* (``"drop-fsync"``) runs the protocol on a layer that
    silently skips every fsync — the enumerator must then find
    violations, proving it can catch a real fsync regression.  The
    fault pass is skipped under mutation (it tests the un-mutated
    degraded-behavior contract).
    """
    harness = _PROTOCOLS[protocol]
    report = TortureReport(protocol)
    proto_dir = base_dir / protocol
    workdir = proto_dir / "run"
    workdir.mkdir(parents=True, exist_ok=True)
    trace = OpTrace(workdir)
    layer = StorageLayer(trace=trace, drop_fsync=mutate == "drop-fsync")
    expect = harness.run(layer, workdir)

    state_dir = proto_dir / "state"
    for state in enumerate_crash_states(trace):
        if budget and report.crash_states >= budget:
            break
        report.crash_states += 1
        if state_dir.exists():
            shutil.rmtree(state_dir)
        materialise(state, state_dir)
        acked = trace.acked_at(state.cut)
        found = harness.check(state_dir, acked, expect)
        if found:
            labelled = [f"{v} [state {state.label}]" for v in found]
            report.violations.extend(labelled)
            if keep_failures is not None:
                _preserve_failure(
                    keep_failures, protocol, state.label, state_dir, labelled
                )

    if mutate is None:
        for index, plan in enumerate(harness.fault_plans(seed)):
            fault_dir = proto_dir / "fault"
            if fault_dir.exists():
                shutil.rmtree(fault_dir)
            fault_dir.mkdir(parents=True)
            report.fault_runs += 1
            found = harness.fault_run(plan, fault_dir)
            if found:
                label = f"fault{index}:{plan.describe()}"
                labelled = [f"{v} [{label}]" for v in found]
                report.violations.extend(labelled)
                if keep_failures is not None:
                    _preserve_failure(
                        keep_failures, protocol, label, fault_dir, labelled
                    )
    return report


def run_torture(
    protocols: Sequence[str],
    seed: int,
    budget: int,
    base_dir: Path,
    mutate: Optional[str] = None,
    keep_failures: Optional[Path] = None,
) -> List[TortureReport]:
    """Run the torture campaign for *protocols* (in canonical order)."""
    order = [name for name in PROTOCOL_NAMES if name in protocols]
    unknown = sorted(set(protocols) - set(PROTOCOL_NAMES))
    if unknown:
        raise ValueError(f"unknown protocol(s): {', '.join(unknown)}")
    return [
        run_protocol_torture(
            name, seed=seed, budget=budget, base_dir=base_dir,
            mutate=mutate, keep_failures=keep_failures,
        )
        for name in order
    ]
