"""Incremental invariant oracle, callable on live simulation state.

:mod:`repro.validate` audits *completed* runs from their output shape
(records, bursts, fault logs).  This module states the same invariants
against the **live** object graph — machine books, RM tables, QS
queues, the event heap — so the protocol fuzzer can assert them
between any two events.  Each oracle check is incremental: cursors
remember how much of the trace was already audited, so a call costs
O(new records + live state), not O(history).

Parity with the post-hoc validators is a contract: every violation
code reachable through ``validate_run`` / ``validate_sweep`` /
``validate_checkpoint`` maps to an oracle check in
:data:`ORACLE_PARITY`, and a completeness test fails the build if the
two drift.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Any, Dict, List, Mapping, Optional, Tuple

from repro.machine.machine import MachineError
from repro.qs.job import JobState
from repro.validate import Violation, validate_race, validate_sweep_journal

if TYPE_CHECKING:
    from repro.fuzz.targets import FuzzTarget

#: tolerance for floating-point time comparisons (same as validate)
_EPS = 1e-6

#: Every check the live oracle implements.  ``LiveOracle.check`` runs
#: the per-rule checks in this order; ``ckpt-roundtrip`` is driven by
#: the checkpoint stimulus (it mutates state), and the sweep/race
#: checks are module functions usable mid-sweep.
ORACLE_CHECKS: Tuple[str, ...] = (
    "cpu-books",
    "cpu-conservation",
    "fault-offline",
    "alloc-bounds",
    "mpl-bound",
    "job-conservation",
    "job-retry",
    "realloc-chain",
    "burst-sanity",
    "policy-sync",
    "cluster-coscheduling",
    "no-wedge",
    "stream-invariants",
    "ckpt-roundtrip",
    "sweep-accounting",
    "sweep-journal",
    "race",
)

#: Post-hoc validator code -> live oracle check covering it.  The
#: completeness test asserts every code in
#: ``validate.RUN_CHECK_CODES`` / ``SWEEP_CHECK_CODES`` /
#: ``CHECKPOINT_CHECK_CODES`` appears here, and that every value names
#: a real oracle check.
ORACLE_PARITY: Dict[str, str] = {
    # validate_run
    "job-accounting": "job-conservation",
    "burst-sanity": "burst-sanity",
    "capacity": "cpu-conservation",
    "trace-consistency": "burst-sanity",
    "realloc-chain": "realloc-chain",
    "fault-offline-overlap": "fault-offline",
    "fault-capacity": "cpu-conservation",
    "fault-requeue-terminal": "job-conservation",
    "race-ambiguous": "race",
    # validate_sweep
    "sweep-lost-cell": "sweep-accounting",
    "sweep-stats-balance": "sweep-accounting",
    "sweep-journal": "sweep-journal",
    # validate_checkpoint
    "ckpt-envelope": "ckpt-roundtrip",
    "ckpt-restore": "ckpt-roundtrip",
    "ckpt-meta": "ckpt-roundtrip",
    "ckpt-compaction": "ckpt-roundtrip",
    "ckpt-wedged": "no-wedge",
    # validate_stream (streaming targets run the full post-hoc stream
    # audit between every two events; the recovery invariant is also
    # re-proven by every serve checkpoint round-trip)
    "stream-conservation": "stream-invariants",
    "stream-bounded-queue": "stream-invariants",
    "stream-recovery": "stream-invariants",
}


class LiveOracle:
    """Audits a live :class:`~repro.fuzz.targets.FuzzTarget` mid-run.

    Stateful: cursors track the already-audited prefix of the trace
    (bursts, reallocations, kills) and the terminal states already
    observed, so terminal transitions are checked for monotonicity.
    Checkpoint swaps are transparent — the restored graph is at the
    same point in history, so every cursor stays valid.
    """

    def __init__(self) -> None:
        #: per-trace-index count of bursts already audited
        self._burst_idx: Dict[int, int] = {}
        #: per-(trace index, cpu) end time of the last audited burst
        self._burst_end: Dict[Tuple[int, int], float] = {}
        #: reallocation records already audited
        self._realloc_idx = 0
        #: job_kill fault records already ingested from the trace
        self._kill_idx = 0
        #: per-job kill times not yet matched to a chain restart
        self._pending_kills: Dict[int, List[float]] = {}
        #: per-job expected ``old_procs`` of the next reallocation
        self._expected: Dict[int, int] = {}
        #: job_id -> (state value, end_time) once terminal
        self._terminal: Dict[int, Tuple[str, Optional[float]]] = {}

    # ------------------------------------------------------------------
    # entry point
    # ------------------------------------------------------------------
    def check(self, target: "FuzzTarget") -> List[Violation]:
        """Run every per-rule check; returns violations (empty = ok)."""
        problems: List[Violation] = []
        problems.extend(self.check_cpu_books(target))
        problems.extend(self.check_cpu_conservation(target))
        problems.extend(self.check_fault_offline(target))
        problems.extend(self.check_alloc_bounds(target))
        problems.extend(self.check_mpl_bound(target))
        problems.extend(self.check_job_conservation(target))
        problems.extend(self.check_job_retry(target))
        problems.extend(self.check_realloc_chain(target))
        problems.extend(self.check_burst_sanity(target))
        problems.extend(self.check_policy_sync(target))
        problems.extend(self.check_cluster_coscheduling(target))
        problems.extend(self.check_no_wedge(target))
        problems.extend(self.check_stream_invariants(target))
        return problems

    # ------------------------------------------------------------------
    # CPU conservation (validate: capacity, fault-capacity)
    # ------------------------------------------------------------------
    def check_cpu_books(self, target: "FuzzTarget") -> List[Violation]:
        """Each machine's incremental books match its CPU ground truth."""
        problems = []
        for index, machine in enumerate(target.machines()):
            try:
                machine.check_invariants()
            except MachineError as exc:
                problems.append(Violation(
                    "cpu-books", "alloc", f"machine {index}: {exc}"
                ))
        return problems

    def check_cpu_conservation(self, target: "FuzzTarget") -> List[Violation]:
        """No lost or phantom CPUs: free + allocated == healthy.

        Every allocatable CPU is either idle (free pool) or owned by
        exactly one partition; offline CPUs are neither.  The live
        counterpart of the post-hoc ``capacity`` and ``fault-capacity``
        sweeps: concurrent bursts can only exceed (healthy) capacity if
        this identity broke first.
        """
        problems = []
        for index, machine in enumerate(target.machines()):
            free = machine.free_cpus
            allocated = machine.allocated_cpus
            healthy = machine.healthy_cpus
            if free + allocated != healthy:
                problems.append(Violation(
                    "cpu-conservation", "alloc",
                    f"machine {index}: free {free} + allocated {allocated} "
                    f"!= healthy {healthy} (of {machine.n_cpus}) — "
                    f"lost or phantom CPUs",
                ))
            total = sum(machine.allocations().values())
            if total != allocated:
                problems.append(Violation(
                    "cpu-conservation", "alloc",
                    f"machine {index}: partitions hold {total} CPUs but "
                    f"allocated count says {allocated}",
                ))
        return problems

    def check_fault_offline(self, target: "FuzzTarget") -> List[Violation]:
        """No OFFLINE CPU may be owned (live form of offline-overlap)."""
        problems = []
        for index, machine in enumerate(target.machines()):
            for cpu in machine.cpus:
                if not cpu.allocatable and cpu.owner is not None:
                    problems.append(Violation(
                        "fault-offline", "fault",
                        f"machine {index}: offline CPU {cpu.cpu_id} still "
                        f"owned by job {cpu.owner}",
                    ))
        return problems

    # ------------------------------------------------------------------
    # allocation bounds and MPL (validate: realloc-chain bounds)
    # ------------------------------------------------------------------
    def check_alloc_bounds(self, target: "FuzzTarget") -> List[Violation]:
        """Every running job holds between 1 and ``request`` CPUs."""
        problems = []
        for job in target.running_jobs():
            alloc = target.allocation_of(job.job_id)
            if alloc < 1:
                problems.append(Violation(
                    "alloc-bounds", "alloc",
                    f"job {job.job_id}: running with allocation {alloc} < 1",
                ))
            assert job.request is not None
            if alloc > job.request:
                problems.append(Violation(
                    "alloc-bounds", "alloc",
                    f"job {job.job_id}: allocation {alloc} exceeds its "
                    f"request {job.request}",
                ))
        return problems

    def check_mpl_bound(self, target: "FuzzTarget") -> List[Violation]:
        """Fixed-MPL policies never run more jobs than their level."""
        fixed = target.fixed_mpl()
        if fixed is None:
            return []
        running = target.rm.running_count
        if running > fixed:
            return [Violation(
                "mpl-bound", "alloc",
                f"{running} jobs running under a fixed multiprogramming "
                f"level of {fixed}",
            )]
        return []

    # ------------------------------------------------------------------
    # job conservation (validate: job-accounting, fault-requeue-terminal)
    # ------------------------------------------------------------------
    def check_job_conservation(self, target: "FuzzTarget") -> List[Violation]:
        """Every job sits in exactly the bucket its state names.

        QUEUED jobs are in the FCFS queue or have a pending
        submit/requeue event (anything else is a lost job); RUNNING
        jobs are in the RM's table with a runtime; DONE/FAILED jobs are
        in the QS's terminal lists.  Timestamps must be causally
        ordered and never in the simulated future.
        """
        problems = []
        qs = target.qs
        now = target.sim.now
        labels = target.sim.live_labels()
        pending_submit = set()
        pending_requeue = set()
        for label in labels:
            if label.startswith("submit:"):
                pending_submit.add(int(label.split(":", 1)[1]))
            elif label.startswith("requeue:"):
                pending_requeue.add(int(label.split(":", 1)[1]))
        queued_ids = [job.job_id for job in qs.queue]
        running_ids = set(target.rm.jobs)
        completed_ids = [job.job_id for job in qs.completed]
        failed_ids = [job.job_id for job in qs.failed]
        for name, bucket in (
            ("queue", queued_ids),
            ("completed", completed_ids),
            ("failed", failed_ids),
        ):
            if len(set(bucket)) != len(bucket):
                problems.append(Violation(
                    "job-conservation", "job",
                    f"duplicate job ids in the {name} list: {bucket}",
                ))
        queued_set = set(queued_ids)
        completed_set = set(completed_ids)
        failed_set = set(failed_ids)
        for job in qs.jobs:
            jid = job.job_id
            places = []
            if jid in queued_set:
                places.append("queue")
            if jid in running_ids:
                places.append("running")
            if jid in completed_set:
                places.append("completed")
            if jid in failed_set:
                places.append("failed")
            if jid in pending_submit:
                places.append("pending-submit")
            if jid in pending_requeue:
                places.append("pending-requeue")
            if len(places) > 1:
                problems.append(Violation(
                    "job-conservation", "job",
                    f"job {jid}: duplicated across {places}",
                ))
            state = job.state
            if state is JobState.QUEUED and not places:
                problems.append(Violation(
                    "job-conservation", "job",
                    f"job {jid}: QUEUED but lost — not in the queue and "
                    f"no pending submit/requeue event",
                ))
            elif state is JobState.RUNNING and places != ["running"]:
                problems.append(Violation(
                    "job-conservation", "job",
                    f"job {jid}: RUNNING but found in {places or 'nowhere'}",
                ))
            elif state is JobState.DONE and places != ["completed"]:
                problems.append(Violation(
                    "job-conservation", "job",
                    f"job {jid}: DONE but found in {places or 'nowhere'}",
                ))
            elif state is JobState.FAILED and places != ["failed"]:
                problems.append(Violation(
                    "job-conservation", "job",
                    f"job {jid}: FAILED but found in {places or 'nowhere'}",
                ))
            # Timestamps: causal order, never in the simulated future.
            if job.start_time is not None:
                if job.start_time < job.submit_time - _EPS:
                    problems.append(Violation(
                        "job-conservation", "job",
                        f"job {jid}: started at {job.start_time} before "
                        f"its submission at {job.submit_time}",
                    ))
                if job.start_time > now + _EPS:
                    problems.append(Violation(
                        "job-conservation", "job",
                        f"job {jid}: start time {job.start_time} lies in "
                        f"the future (now {now})",
                    ))
            if job.end_time is not None and job.end_time > now + _EPS:
                problems.append(Violation(
                    "job-conservation", "job",
                    f"job {jid}: end time {job.end_time} lies in the "
                    f"future (now {now})",
                ))
            if (state in (JobState.DONE, JobState.FAILED)
                    and job.end_time is None):
                problems.append(Violation(
                    "job-conservation", "job",
                    f"job {jid}: terminal ({state.value}) without an "
                    f"end time",
                ))
        known = {job.job_id for job in qs.jobs}
        for jid in sorted(running_ids - known):
            problems.append(Violation(
                "job-conservation", "job",
                f"job {jid}: running in the RM but unknown to the QS "
                f"(phantom job)",
            ))
        runtime_ids = set(target.rm.runtimes)
        if runtime_ids != running_ids:
            problems.append(Violation(
                "job-conservation", "job",
                f"runtime table {sorted(runtime_ids)} disagrees with the "
                f"running table {sorted(running_ids)}",
            ))
        return problems

    def check_job_retry(self, target: "FuzzTarget") -> List[Violation]:
        """Retry accounting: attempts bounded, terminal states final."""
        problems = []
        max_retries = target.qs.retry.max_retries
        for job in target.qs.jobs:
            if job.attempts > max_retries + 1:
                problems.append(Violation(
                    "job-retry", "job",
                    f"job {job.job_id}: {job.attempts} killed runs exceed "
                    f"the retry budget of {max_retries}",
                ))
            if job.state is JobState.QUEUED and job.attempts > max_retries:
                problems.append(Violation(
                    "job-retry", "job",
                    f"job {job.job_id}: requeued after exhausting the "
                    f"retry budget ({job.attempts} > {max_retries})",
                ))
            if job.state in (JobState.DONE, JobState.FAILED):
                entry = (job.state.value, job.end_time)
                seen = self._terminal.get(job.job_id)
                if seen is None:
                    self._terminal[job.job_id] = entry
                elif seen != entry:
                    problems.append(Violation(
                        "job-retry", "job",
                        f"job {job.job_id}: terminal state changed from "
                        f"{seen} to {entry} — terminal states are final",
                    ))
        return problems

    # ------------------------------------------------------------------
    # trace cursors (validate: burst-sanity, trace-consistency,
    # realloc-chain)
    # ------------------------------------------------------------------
    def check_realloc_chain(self, target: "FuzzTarget") -> List[Violation]:
        """New reallocation records chain from the previous allocation.

        A fault kill releases the whole partition without a
        reallocation record, so a retried job's chain restarts from
        zero — same rule as the post-hoc check, applied as the records
        appear.
        """
        problems = []
        records = target.reallocations()
        kills = target.kill_faults()
        for fault in kills[self._kill_idx:]:
            self._pending_kills.setdefault(fault.target, []).append(fault.time)
        self._kill_idx = len(kills)
        for record in records[self._realloc_idx:]:
            pending = self._pending_kills.get(record.job_id, [])
            # Kills strictly before this record reset the chain; a
            # kill at the same timestamp (start, kill and restart can
            # share one simulated instant) is consumed lazily, only as
            # the explanation for a restart the chain would otherwise
            # reject — same tie rule as the post-hoc validator.
            while pending and pending[0] < record.time - _EPS:
                pending.pop(0)
                self._expected[record.job_id] = 0
            expected = self._expected.get(record.job_id, 0)
            if record.old_procs != expected:
                if (record.old_procs == 0
                        and pending
                        and pending[0] <= record.time + _EPS):
                    pending.pop(0)
                else:
                    problems.append(Violation(
                        "realloc-chain", "alloc",
                        f"job {record.job_id}: reallocation chain broken at "
                        f"t={record.time:.3f} (expected old={expected}, "
                        f"recorded old={record.old_procs})",
                    ))
            if record.new_procs < 1:
                problems.append(Violation(
                    "realloc-chain", "alloc",
                    f"job {record.job_id}: allocated {record.new_procs} "
                    f"CPUs at t={record.time:.3f}",
                ))
            self._expected[record.job_id] = record.new_procs
        self._realloc_idx = len(records)
        return problems

    def check_burst_sanity(self, target: "FuzzTarget") -> List[Violation]:
        """New bursts: positive, on a real CPU, closed in the past,
        never overlapping the previous burst of their CPU."""
        problems = []
        now = target.sim.now
        for index, trace in enumerate(target.traces()):
            if trace is None:
                continue
            bursts = trace.bursts
            for burst in bursts[self._burst_idx.get(index, 0):]:
                if burst.duration <= 0:
                    problems.append(Violation(
                        "burst-sanity", "trace",
                        f"machine {index} cpu {burst.cpu}: non-positive "
                        f"burst {burst}",
                    ))
                if not 0 <= burst.cpu < trace.n_cpus:
                    problems.append(Violation(
                        "burst-sanity", "trace",
                        f"machine {index}: burst on unknown cpu {burst.cpu}",
                    ))
                    continue
                if burst.end > now + _EPS:
                    problems.append(Violation(
                        "burst-sanity", "trace",
                        f"machine {index} cpu {burst.cpu}: burst ends at "
                        f"{burst.end:.3f}, after now ({now:.3f})",
                    ))
                last_end = self._burst_end.get((index, burst.cpu))
                if last_end is not None and burst.start < last_end - _EPS:
                    problems.append(Violation(
                        "burst-sanity", "trace",
                        f"machine {index} cpu {burst.cpu}: burst "
                        f"[{burst.start:.3f},{burst.end:.3f}] overlaps the "
                        f"previous burst ending at {last_end:.3f}",
                    ))
                self._burst_end[(index, burst.cpu)] = burst.end
            self._burst_idx[index] = len(bursts)
        return problems

    # ------------------------------------------------------------------
    # policy coherence
    # ------------------------------------------------------------------
    def check_policy_sync(self, target: "FuzzTarget") -> List[Violation]:
        """The policy's remembered allocations match the machine's.

        Report-driven policies (PDPA, Equal_efficiency) keep per-job
        allocation memory; a fault or forced allocation that bypasses
        ``note_forced_allocation`` desynchronises them, and their next
        decision resizes partitions from stale numbers.
        """
        policy = getattr(target.rm, "policy", None)
        states = getattr(policy, "states", None)
        if not isinstance(states, dict):
            return []
        problems = []
        for job_id in sorted(target.rm.jobs):
            state = states.get(job_id)
            believed = getattr(state, "allocation", None)
            if state is None or believed is None:
                continue
            actual = target.allocation_of(job_id)
            if believed != actual:
                problems.append(Violation(
                    "policy-sync", "alloc",
                    f"job {job_id}: policy believes allocation {believed} "
                    f"but the machine holds {actual}",
                ))
        return problems

    def check_cluster_coscheduling(self, target: "FuzzTarget") -> List[Violation]:
        """Cluster targets: equal slices on every node a job spans."""
        coord = target.rm
        if not hasattr(coord, "co_scheduling_holds"):
            return []
        problems = []
        if not coord.co_scheduling_holds():
            problems.append(Violation(
                "cluster-coscheduling", "alloc",
                "co-scheduling broken: a job holds unequal slices "
                "across its spanned nodes",
            ))
        state_ids = set(coord.states)
        job_ids = set(coord.jobs)
        if state_ids != job_ids:
            problems.append(Violation(
                "cluster-coscheduling", "alloc",
                f"placement table {sorted(state_ids)} disagrees with the "
                f"running table {sorted(job_ids)}",
            ))
        for job_id in sorted(job_ids & state_ids):
            state = coord.states[job_id]
            held = sum(
                coord.machines[node].allocation_of(job_id)
                for node in state.nodes
            )
            if held != state.total_cpus:
                problems.append(Violation(
                    "cluster-coscheduling", "alloc",
                    f"job {job_id}: nodes hold {held} CPUs but the "
                    f"placement says {state.total_cpus}",
                ))
        return problems

    # ------------------------------------------------------------------
    # liveness (validate: ckpt-wedged)
    # ------------------------------------------------------------------
    def check_no_wedge(self, target: "FuzzTarget") -> List[Violation]:
        """An incomplete run must always have a pending event.

        Zero pending events with non-terminal jobs means nothing will
        ever fire again: queued jobs are lost, the graph is wedged.
        """
        if target.sim.pending_events == 0 and not target.qs.all_done:
            stuck = sorted(
                job.job_id for job in target.qs.jobs
                if job.state not in (JobState.DONE, JobState.FAILED)
            )
            return [Violation(
                "no-wedge", "job",
                f"no pending events but jobs {stuck} are not terminal "
                f"(wedged graph)",
            )]
        return []

    # ------------------------------------------------------------------
    # streaming invariants (validate: stream-conservation,
    # stream-bounded-queue, stream-recovery)
    # ------------------------------------------------------------------
    def check_stream_invariants(self, target: "FuzzTarget") -> List[Violation]:
        """Streaming targets pass the full stream audit at every cut.

        ``validate_stream`` is already stated over monotone counters
        and live state — callable at any instant — so the live oracle
        simply runs it verbatim: submissions conserved through
        admit/shed, the ingress bound honest (current backlog *and*
        recorded peak), and no journal replay expectation left behind.
        Batch targets have no streaming surface and return clean.
        """
        if not getattr(target, "is_stream", False):
            return []
        from repro.validate import validate_stream

        return list(validate_stream(target.session))


def final_audit(target: "FuzzTarget") -> List[Violation]:
    """Post-hoc audit of a fully drained target (validator parity).

    After a drain that completed every job, the live session must also
    satisfy the *post-hoc* validators — the completed run is harvested
    through ``session.finish()`` and passed to ``validate_run``.  Any
    disagreement between the silent live oracle and a complaining
    post-hoc validator (or vice versa) is itself a finding: the two
    formulations are contractually equivalent.

    Incomplete targets return no problems here (the live oracle's
    ``no-wedge`` check already flagged a wedge); cluster targets have
    no ``RunOutput`` surface, so the live oracle is their only audit.
    Streaming targets folded (and pruned) their records as jobs
    finished, so their post-hoc audit is ``validate_stream`` over the
    drained session instead of ``validate_run`` over a harvest.
    """
    from repro.validate import validate_run, validate_stream

    if not target.qs.all_done or target.is_cluster:
        return []
    if target.is_stream:
        return list(validate_stream(target.session))
    out = target.session.finish()
    return [
        v if isinstance(v, Violation) else Violation("post-hoc", "job", str(v))
        for v in validate_run(out)
    ]


# ----------------------------------------------------------------------
# harness-level checks (mid-sweep counterparts of validate_sweep)
# ----------------------------------------------------------------------
def check_sweep_accounting(
    stats: Any,
    cells: Optional[Any] = None,
    payloads: Optional[Any] = None,
    final: bool = True,
) -> List[Violation]:
    """Sweep books balance; with cells/payloads, no cell is lost.

    Mid-sweep (``final=False``) the accounted cells may trail the
    total; at the end they must match it exactly.
    """
    problems = []
    accounted = (
        stats.cache_hits + stats.resumed + stats.executed + stats.quarantined
    )
    if final and accounted != stats.cells:
        problems.append(Violation(
            "sweep-accounting", "sweep",
            f"stats unbalanced: {accounted} accounted != {stats.cells} cells",
        ))
    elif not final and accounted > stats.cells:
        problems.append(Violation(
            "sweep-accounting", "sweep",
            f"stats overcounted mid-sweep: {accounted} accounted > "
            f"{stats.cells} cells",
        ))
    if cells is not None and payloads is not None:
        quarantined = {f.key for f in stats.failures}
        for cell, payload in zip(cells, payloads):
            if payload is None and cell.key not in quarantined:
                problems.append(Violation(
                    "sweep-accounting", "sweep",
                    f"cell {cell.key!r}: lost (no payload, not quarantined)",
                ))
            if payload is not None and cell.key in quarantined:
                problems.append(Violation(
                    "sweep-accounting", "sweep",
                    f"cell {cell.key!r}: both quarantined and completed",
                ))
        if len(payloads) != len(cells):
            problems.append(Violation(
                "sweep-accounting", "sweep",
                f"payload count {len(payloads)} != cell count {len(cells)}",
            ))
    return problems


#: every completed cell journalled with an honest digest — the one
#: ``sweep-journal`` invariant, shared with :func:`validate_sweep`
check_sweep_journal = validate_sweep_journal


def check_race(race: Any) -> List[Violation]:
    """Determinism-sanitizer findings as oracle violations."""
    return list(validate_race(race))


#: name -> callable resolver used by the completeness test; LiveOracle
#: methods are looked up by attribute, module functions directly.
_METHOD_OF: Mapping[str, str] = {
    "cpu-books": "check_cpu_books",
    "cpu-conservation": "check_cpu_conservation",
    "fault-offline": "check_fault_offline",
    "alloc-bounds": "check_alloc_bounds",
    "mpl-bound": "check_mpl_bound",
    "job-conservation": "check_job_conservation",
    "job-retry": "check_job_retry",
    "realloc-chain": "check_realloc_chain",
    "burst-sanity": "check_burst_sanity",
    "policy-sync": "check_policy_sync",
    "cluster-coscheduling": "check_cluster_coscheduling",
    "no-wedge": "check_no_wedge",
    "stream-invariants": "check_stream_invariants",
}


def resolve_check(name: str) -> Any:
    """The callable implementing oracle check *name* (KeyError if none).

    ``ckpt-roundtrip`` lives on the target (it mutates state through a
    save/restore cycle); the sweep/race checks are module functions;
    everything else is a :class:`LiveOracle` method.
    """
    if name in _METHOD_OF:
        return getattr(LiveOracle, _METHOD_OF[name])
    if name == "ckpt-roundtrip":
        from repro.fuzz.targets import FuzzTarget

        return FuzzTarget.checkpoint_roundtrip
    if name == "sweep-accounting":
        return check_sweep_accounting
    if name == "sweep-journal":
        return check_sweep_journal
    if name == "race":
        return check_race
    raise KeyError(f"unknown oracle check {name!r}")
