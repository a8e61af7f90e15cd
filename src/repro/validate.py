"""Run validation: invariants every correct execution must satisfy.

A scheduling simulator is only as trustworthy as its bookkeeping.
:func:`validate_run` audits a completed :class:`~repro.experiments.RunOutput`
against the structural invariants of the system and returns the list
of violations (empty = clean).  It is used by the test suite as a
failure-injection detector and is part of the public API so users can
assert their own experiments' integrity.

Checked invariants
------------------
* **job accounting** — every record has ``submit <= start <= end``;
  response = wait + execution.
* **burst sanity** — bursts have positive duration and never overlap
  on the same CPU.
* **capacity** — at no instant do concurrent bursts exceed the
  machine size.
* **trace/record consistency** — a job's bursts fall inside its
  [start, end] window.
* **reallocation records** — chain correctly (each change's
  ``old_procs`` equals the previous change's ``new_procs``); a chain
  restarts from zero after a fault killed the execution.
* **fault invariants** (only when the trace has fault records) — no
  burst overlaps an offline window of its CPU; concurrent bursts never
  exceed the *healthy* capacity of the moment; every requeued job
  reaches a terminal state (DONE or FAILED).

Alongside the per-run invariants, :func:`validate_sweep` audits the
**harness** after a sweep: no cell may be lost (every slot is either a
payload or an accounted quarantine), the stats must balance
(``cache_hits + resumed + executed + quarantined == cells``), every
completed cell must be journalled when a journal is in use (a journal
that lost durability may miss entries, but only if the stats honestly
count the degradation), and every journal digest must match the
payload bytes it promises.

:func:`validate_stream` audits a **streaming service** at any instant:
submissions must be conserved across admitted/shed/live/terminal
states, a configured ingress bound must never have been exceeded (the
recorded peak is checked, so the bound cannot lie retroactively), and
a restored session must have consumed every arrival-journal replay
expectation — the recovery fixed point.

:func:`validate_checkpoint` audits a **snapshot file**: the envelope
must verify (magic, lengths, sha256), the payload must restore into a
session of the current code version, the envelope meta must describe
the restored graph exactly (cut time, events fired, pending events,
run identity), and the restored event queue must survive compaction
with its live-count invariant intact.

Both entry points accept the ``--sanitize`` event-race detector (or
its finished :class:`~repro.analysis.race.RaceStats`): ambiguous
same-timestamp cohorts reported by the determinism sanitizer are
invariant failures like any other, via :func:`validate_race`.
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Optional, Sequence, Tuple

from repro.experiments.common import RunOutput
from repro.qs.job import JobState

#: tolerance for floating-point time comparisons
_EPS = 1e-6

#: canonical layer order; every validator sorts its output by this,
#: so the same violations always render in the same sequence (race
#: findings come last — they are the report footer).
LAYER_ORDER: Tuple[str, ...] = (
    "job", "trace", "alloc", "fault", "stream", "sweep", "checkpoint",
    "storage", "race",
)


class Violation(str):
    """One invariant violation: a message with (code, layer) identity.

    A ``str`` subclass, so every existing consumer — ``== []`` checks,
    substring matching, ``"\\n".join`` — keeps working unchanged,
    while the fuzzer, the CLI and the completeness tests can dispatch
    on the stable ``code`` instead of parsing prose.
    """

    __slots__ = ("code", "layer")

    code: str
    layer: str

    def __new__(cls, code: str, layer: str, message: str) -> "Violation":
        if layer not in LAYER_ORDER:
            raise ValueError(f"unknown violation layer {layer!r}")
        self = super().__new__(cls, message)
        self.code = code
        self.layer = layer
        return self

    @property
    def message(self) -> str:
        """The human-readable text (the string value itself)."""
        return str(self)

    def render(self) -> str:
        """Canonical one-line rendering: ``[layer/code] message``."""
        return f"[{self.layer}/{self.code}] {self}"


def render_violations(problems: Iterable[str]) -> str:
    """Render violations one per line, identically on every surface.

    Plain strings (legacy producers) render as-is; :class:`Violation`
    records render through :meth:`Violation.render`.
    """
    return "\n".join(
        p.render() if isinstance(p, Violation) else str(p) for p in problems
    )


def _ordered(problems: List[str]) -> List[str]:
    """Deterministic order: by (layer, code), stable within a group."""
    def sort_key(item: Tuple[int, str]) -> Tuple[int, str, int]:
        index, problem = item
        if isinstance(problem, Violation):
            return (LAYER_ORDER.index(problem.layer), problem.code, index)
        return (len(LAYER_ORDER), "", index)
    return [p for _, p in sorted(enumerate(problems), key=sort_key)]


#: Violation codes each entry point can emit.  The fuzz oracle's
#: parity map must cover every one of these (enforced by a
#: completeness test), so the post-hoc validators and the mid-run
#: oracle cannot drift apart.
RUN_CHECK_CODES: Tuple[str, ...] = (
    "job-accounting",
    "burst-sanity",
    "capacity",
    "trace-consistency",
    "realloc-chain",
    "fault-offline-overlap",
    "fault-capacity",
    "fault-requeue-terminal",
    "race-ambiguous",
)
SWEEP_CHECK_CODES: Tuple[str, ...] = (
    "sweep-lost-cell",
    "sweep-stats-balance",
    "sweep-journal",
    "race-ambiguous",
)
CHECKPOINT_CHECK_CODES: Tuple[str, ...] = (
    "ckpt-envelope",
    "ckpt-restore",
    "ckpt-meta",
    "ckpt-compaction",
    "ckpt-wedged",
)
STREAM_CHECK_CODES: Tuple[str, ...] = (
    "stream-conservation",
    "stream-bounded-queue",
    "stream-recovery",
)
TORTURE_CHECK_CODES: Tuple[str, ...] = (
    "torture-invariant",
    "torture-coverage",
)

#: minimum distinct crash/fault states a full five-protocol torture
#: campaign must exercise before its "clean" verdict counts; budgets
#: below 40 per protocol waive it.  The campaign measures 404 states at
#: ``--budget 40`` (seeds 0, 1 and 2 alike), 565 at 120 and 845 at 400,
#: so losing either journal harness's 102 states fails the floor.
TORTURE_STATE_FLOOR = 404


def validate_race(race) -> List[str]:
    """Determinism-sanitizer findings rendered as invariant violations.

    *race* is a :class:`~repro.analysis.race.RaceDetector` or a
    finished :class:`~repro.analysis.race.RaceStats` (``None`` is
    accepted and clean).  Only *error*-severity findings — cohorts
    whose execution order is decided by insertion order alone — are
    violations; homogeneous ties are benign and stay in the stats.
    """
    if race is None:
        return []
    stats = race.finish() if hasattr(race, "finish") else race
    return [
        Violation("race-ambiguous", "race", f"event race: {finding.describe()}")
        for finding in stats.error_findings
    ]


def validate_run(out: RunOutput, race=None) -> List[str]:
    """Audit one run; returns human-readable violations (empty = ok).

    *race* optionally carries the run's ``--sanitize`` detector (or
    its stats); ambiguous event cohorts it found are appended as
    violations.
    """
    problems: List[str] = []
    problems.extend(_check_job_accounting(out))
    problems.extend(_check_burst_sanity(out))
    problems.extend(_check_capacity(out))
    problems.extend(_check_trace_consistency(out))
    problems.extend(_check_reallocation_chains(out))
    problems.extend(_check_fault_invariants(out))
    problems.extend(validate_race(race))
    return _ordered(problems)


def assert_valid(out: RunOutput, race=None) -> None:
    """Raise ``AssertionError`` listing all violations, if any."""
    problems = validate_run(out, race=race)
    if problems:
        raise AssertionError(
            f"{len(problems)} invariant violation(s):\n"
            + render_violations(problems)
        )


def validate_sweep_journal(runner, cells, payloads) -> List[Violation]:
    """The ``sweep-journal`` invariant, shared with the live fuzz oracle.

    Every completed cell is journalled with an honest digest.  A
    journal that broke mid-sweep (fsyncgate, ENOSPC) may miss entries,
    but only if the runner admitted it in ``storage_degraded``.
    """
    from repro.parallel import cell_key, payload_digest

    journal = getattr(runner, "journal", None)
    if journal is None or runner.cache is None:
        return []
    problems: List[Violation] = []
    broken = getattr(journal, "broken", None)
    missing = 0
    for cell, payload in zip(cells, payloads):
        if payload is None:
            continue
        entry = journal.get(cell_key(cell.fn, cell.params))
        if entry is None:
            missing += 1
            if broken is None:
                problems.append(Violation(
                    "sweep-journal", "sweep",
                    f"cell {cell.key!r}: completed but not journalled",
                ))
        elif not entry.matches(payload):
            problems.append(Violation(
                "sweep-journal", "sweep",
                f"cell {cell.key!r}: journal digest {entry.digest[:12]}… "
                f"does not match payload digest "
                f"{payload_digest(payload)[:12]}…",
            ))
    if broken is not None and missing > 0 and runner.last_stats.storage_degraded == 0:
        problems.append(Violation(
            "sweep-journal", "sweep",
            f"journal broke ({type(broken).__name__}) and {missing} "
            f"completion(s) are unjournalled, but stats claim zero "
            f"storage degradation",
        ))
    return problems


def validate_sweep(
    runner,
    cells: Sequence,
    payloads: Sequence[Optional[str]],
    race=None,
) -> List[str]:
    """Audit one completed sweep of the experiment harness.

    *runner* is the :class:`~repro.parallel.SweepRunner` that executed
    *cells* (its ``last_stats``, cache and journal are inspected);
    *payloads* is what :meth:`run_serialized` returned.  *race*
    optionally carries sanitizer results for the in-process runs that
    framed the sweep (sweep cells themselves execute in worker
    processes and are not observed).  Returns human-readable
    violations (empty = clean); sanitizer findings come last, as the
    report footer.
    """
    problems: List[str] = []
    stats = runner.last_stats

    # 1. No lost cells: every slot holds a payload or an accounted
    #    quarantine.
    quarantined_keys = {f.key for f in stats.failures}
    for cell, payload in zip(cells, payloads):
        if payload is None and cell.key not in quarantined_keys:
            problems.append(Violation(
                "sweep-lost-cell", "sweep",
                f"cell {cell.key!r}: lost (no payload, not quarantined)",
            ))
        if payload is not None and cell.key in quarantined_keys:
            problems.append(Violation(
                "sweep-lost-cell", "sweep",
                f"cell {cell.key!r}: both quarantined and completed",
            ))
    if len(payloads) != len(cells):
        problems.append(Violation(
            "sweep-lost-cell", "sweep",
            f"payload count {len(payloads)} != cell count {len(cells)}",
        ))

    # 2. The books must balance.
    accounted = stats.cache_hits + stats.resumed + stats.executed + stats.quarantined
    if accounted != stats.cells:
        problems.append(Violation(
            "sweep-stats-balance", "sweep",
            f"stats unbalanced: hits {stats.cache_hits} + resumed "
            f"{stats.resumed} + executed {stats.executed} + quarantined "
            f"{stats.quarantined} != cells {stats.cells}",
        ))

    # 3. Journal: every completed cell journalled, every digest honest.
    problems.extend(validate_sweep_journal(runner, cells, payloads))

    # 4. Report footer: determinism-sanitizer findings, if a detector
    #    observed the in-process runs around this sweep.
    problems.extend(validate_race(race))
    return _ordered(problems)


def validate_checkpoint(path, expected_config=None, session_cls=None) -> List[str]:
    """Audit one checkpoint snapshot; returns violations (empty = ok).

    Verifies the envelope (magic, section lengths, sha256), restores
    the session (which enforces the code-version gate and, with
    *expected_config*, the config gate), and then cross-checks the
    envelope meta against the restored simulation graph: the cut
    point it advertises must be the cut point the graph is actually
    at, and the event queue must survive compaction with its
    live-count invariant intact.  A snapshot that passes restores
    into a run whose continuation is byte-identical to the
    uninterrupted one.

    *session_cls* selects which session class restores the snapshot —
    each kind of session tags its envelopes (``meta["kind"]``), so a
    serve snapshot must be audited with
    :class:`~repro.serve.ServeSession`, not the batch default.
    """
    from repro.checkpoint import CheckpointError, SimulationSession, read_snapshot

    if session_cls is None:
        session_cls = SimulationSession
    try:
        meta, _ = read_snapshot(path)
    except CheckpointError as exc:
        return [Violation(
            "ckpt-envelope", "checkpoint", f"envelope ({exc.kind}): {exc}"
        )]
    try:
        session = session_cls.restore(path, expected_config=expected_config)
    except CheckpointError as exc:
        return [Violation(
            "ckpt-restore", "checkpoint", f"restore ({exc.kind}): {exc}"
        )]

    problems: List[str] = []
    sim = session.sim
    for field, actual in (
        ("sim_time", sim.now),
        ("events_fired", sim.events_fired),
        ("pending_events", sim.pending_events),
        ("policy", session.policy_name),
        ("workload", session.workload),
        ("load", session.load),
        ("seed", session.config.seed),
    ):
        if meta.get(field) != actual:
            problems.append(Violation(
                "ckpt-meta", "checkpoint",
                f"meta {field} {meta.get(field)!r} does not describe the "
                f"restored graph ({actual!r})",
            ))
    pending_before = sim.pending_events
    try:
        sim.compact()
    except Exception as exc:  # SimulationError: _live invariant broken
        problems.append(Violation(
            "ckpt-compaction", "checkpoint",
            f"event-queue compaction invariant: {exc}",
        ))
    else:
        if sim.pending_events != pending_before:
            problems.append(Violation(
                "ckpt-compaction", "checkpoint",
                f"compaction changed the live event count "
                f"({pending_before} -> {sim.pending_events})",
            ))
    if meta.get("pending_events") == 0 and not session.complete:
        problems.append(Violation(
            "ckpt-wedged", "checkpoint",
            "no pending events but the run is not complete (wedged graph)",
        ))
    return _ordered(problems)


def validate_stream(session, race=None) -> List[str]:
    """Audit a streaming (:class:`~repro.serve.ServeSession`) service.

    Callable at *any* instant — between run-loop batches, at drain, or
    on a freshly restored session — because every invariant is stated
    over monotone counters and current live state:

    * **stream-conservation** — every submission is accounted exactly
      once (``submitted == admitted + shed_rejected``) and every
      admitted job is live or terminal
      (``admitted == live + completed + failed + shed_dropped``);
      requeues never exceed what the retry policy could have issued.
    * **stream-bounded-queue** — a configured ingress bound was honest:
      neither the current backlog nor the recorded peak ever exceeded
      the bound plus the retry re-entries issued (a killed job's retry
      re-enters without passing admission control — admitted work is
      never shed on retry — so retry-free runs get the strict bound).
    * **stream-recovery** — a restored pump consumed every journal
      replay expectation; leftovers mean the source under-drew and the
      restored stream is NOT a fixed point of the crashed one.
    """
    problems: List[str] = []
    stats = session.qs.stats
    qs = session.qs
    pump = session.pump

    live = qs.live_jobs
    if stats.submitted != stats.admitted + stats.shed_rejected:
        problems.append(Violation(
            "stream-conservation", "stream",
            f"submissions unaccounted: submitted {stats.submitted} != "
            f"admitted {stats.admitted} + rejected {stats.shed_rejected}",
        ))
    accounted = live + stats.completed + stats.failed + stats.shed_dropped
    if stats.admitted != accounted:
        problems.append(Violation(
            "stream-conservation", "stream",
            f"admissions unaccounted: admitted {stats.admitted} != "
            f"live {live} + completed {stats.completed} + failed "
            f"{stats.failed} + dropped {stats.shed_dropped}",
        ))
    # A job fails only on its max_retries-th kill, so it was requeued
    # (max_retries - 1) times before that — a floor on total requeues.
    requeue_floor = stats.failed * max(0, qs.retry.max_retries - 1)
    if stats.requeues < requeue_floor:
        problems.append(Violation(
            "stream-conservation", "stream",
            f"{stats.failed} job(s) failed after fewer total requeues "
            f"({stats.requeues}) than the retry policy mandates "
            f"(>= {requeue_floor})",
        ))

    bound = qs.ingress.max_queue
    if bound > 0:
        # The bound caps *admissions*; a killed job's retry re-enters
        # the queue without passing admission control (admitted work is
        # never shed on retry), so the provable cap is the bound plus
        # the retry re-entries ever issued — exactly the strict bound
        # in retry-free runs.  Found by the streaming fuzzer: a
        # crash-requeue under a full queue legitimately reaches
        # backlog == bound + 1.
        slack = bound + stats.requeues
        if len(qs.queue) > slack:
            problems.append(Violation(
                "stream-bounded-queue", "stream",
                f"backlog {len(qs.queue)} exceeds the ingress bound "
                f"{bound} plus {stats.requeues} retry re-entries",
            ))
        if qs.peak_queue > slack:
            problems.append(Violation(
                "stream-bounded-queue", "stream",
                f"recorded peak backlog {qs.peak_queue} exceeds the "
                f"ingress bound {bound} plus {stats.requeues} retry "
                f"re-entries (the bound lied)",
            ))
        if qs.ingress.policy != "block" and pump.blocked:
            problems.append(Violation(
                "stream-bounded-queue", "stream",
                f"pump holds a blocked arrival under the "
                f"{qs.ingress.policy!r} policy (only 'block' may hold)",
            ))

    if pump.replay:
        problems.append(Violation(
            "stream-recovery", "stream",
            f"{len(pump.replay)} journalled arrival(s) never re-drawn "
            f"after restore (first unconsumed seq "
            f"{pump.replay[0].seq}); the restored stream is not a "
            f"fixed point of the crashed one",
        ))
    if pump.done and qs.all_done and live != 0:
        problems.append(Violation(
            "stream-conservation", "stream",
            f"drained stream still reports {live} live job(s)",
        ))

    problems.extend(validate_race(race))
    return _ordered(problems)


def assert_stream_valid(session, race=None) -> None:
    """Raise ``AssertionError`` listing all stream violations, if any."""
    problems = validate_stream(session, race=race)
    if problems:
        raise AssertionError(
            f"{len(problems)} stream invariant violation(s):\n"
            + render_violations(problems)
        )


def assert_sweep_valid(runner, cells, payloads, race=None) -> None:
    """Raise ``AssertionError`` listing all sweep violations, if any."""
    problems = validate_sweep(runner, cells, payloads, race=race)
    if problems:
        raise AssertionError(
            f"{len(problems)} sweep invariant violation(s):\n"
            + render_violations(problems)
        )


def _check_job_accounting(out: RunOutput) -> List[str]:
    problems = []
    for record in out.result.records:
        if not (record.submit_time - _EPS <= record.start_time <= record.end_time + _EPS):
            problems.append(Violation(
                "job-accounting", "job",
                f"job {record.job_id}: times out of order "
                f"(submit {record.submit_time}, start {record.start_time}, "
                f"end {record.end_time})",
            ))
        recomposed = record.wait_time + record.execution_time
        if abs(recomposed - record.response_time) > _EPS:
            problems.append(Violation(
                "job-accounting", "job",
                f"job {record.job_id}: wait+exec != response "
                f"({recomposed} != {record.response_time})",
            ))
    return problems


def _check_burst_sanity(out: RunOutput) -> List[str]:
    problems = []
    by_cpu = {}
    for burst in out.trace.bursts:
        if burst.duration <= 0:
            problems.append(Violation(
                "burst-sanity", "trace",
                f"cpu {burst.cpu}: non-positive burst {burst}",
            ))
        by_cpu.setdefault(burst.cpu, []).append(burst)
    for cpu, bursts in sorted(by_cpu.items()):
        bursts.sort(key=lambda b: b.start)
        for a, b in zip(bursts, bursts[1:]):
            if b.start < a.end - _EPS:
                problems.append(Violation(
                    "burst-sanity", "trace",
                    f"cpu {cpu}: overlapping bursts "
                    f"[{a.start:.3f},{a.end:.3f}] ({a.app_name}) and "
                    f"[{b.start:.3f},{b.end:.3f}] ({b.app_name})",
                ))
    return problems


def _check_capacity(out: RunOutput) -> List[str]:
    """Sweep burst edges; concurrent bursts must fit the machine."""
    events = []
    for burst in out.trace.bursts:
        events.append((burst.start, 1))
        events.append((burst.end, -1))
    events.sort()
    live = 0
    peak = 0
    for _, delta in events:
        live += delta
        peak = max(peak, live)
    if peak > out.trace.n_cpus:
        return [Violation(
            "capacity", "trace",
            f"capacity exceeded: {peak} concurrent bursts on "
            f"{out.trace.n_cpus} CPUs",
        )]
    return []


def _check_trace_consistency(out: RunOutput) -> List[str]:
    problems = []
    windows = {
        record.job_id: (record.start_time, record.end_time)
        for record in out.result.records
    }
    for burst in out.trace.bursts:
        window = windows.get(burst.job_id)
        if window is None:
            continue  # e.g. ablation jobs not in records
        start, end = window
        if burst.start < start - _EPS or burst.end > end + _EPS:
            problems.append(Violation(
                "trace-consistency", "trace",
                f"job {burst.job_id}: burst [{burst.start:.3f},{burst.end:.3f}] "
                f"outside its execution window [{start:.3f},{end:.3f}]",
            ))
    return problems


def _check_reallocation_chains(out: RunOutput) -> List[str]:
    problems = []
    by_job: Dict[int, list] = {}
    for record in sorted(out.trace.reallocations, key=lambda r: r.time):
        by_job.setdefault(record.job_id, []).append(record)
    # A fault kill releases the whole partition without a reallocation
    # record, so the chain of a retried job restarts from zero.
    kills: Dict[int, List[float]] = {}
    for fault in out.trace.faults:
        if fault.kind == "job_kill":
            kills.setdefault(fault.target, []).append(fault.time)
    for job_id, chain in sorted(by_job.items()):
        kill_times = sorted(kills.get(job_id, []))
        expected = 0
        next_kill = 0
        for record in chain:
            # Kills strictly before this record definitely reset the
            # chain.  A kill at the *same* timestamp is ambiguous in
            # the flat record streams — a job can start, be killed and
            # restart within one simulated instant — so a tied kill is
            # consumed lazily, only when it is the explanation for a
            # restart (old_procs == 0) the chain would otherwise
            # reject.
            while (next_kill < len(kill_times)
                   and kill_times[next_kill] < record.time - _EPS):
                expected = 0
                next_kill += 1
            if record.old_procs != expected:
                if (record.old_procs == 0
                        and next_kill < len(kill_times)
                        and kill_times[next_kill] <= record.time + _EPS):
                    next_kill += 1
                else:
                    problems.append(Violation(
                        "realloc-chain", "alloc",
                        f"job {job_id}: reallocation chain broken at "
                        f"t={record.time:.3f} (expected old={expected}, "
                        f"recorded old={record.old_procs})",
                    ))
            expected = record.new_procs
        for record in chain:
            if record.new_procs < 1:
                problems.append(Violation(
                    "realloc-chain", "alloc",
                    f"job {job_id}: allocated {record.new_procs} CPUs at "
                    f"t={record.time:.3f}",
                ))
    return problems


def _check_fault_invariants(out: RunOutput) -> List[str]:
    """Fault-mode bookkeeping; no-op for runs without fault records."""
    faults = out.trace.faults
    if not faults:
        return []
    problems = []

    # 1. No burst may overlap an offline window of its CPU.
    from repro.metrics.faults import offline_windows

    down = offline_windows(out.trace)
    for burst in out.trace.bursts:
        for t0, t1 in down.get(burst.cpu, ()):
            if burst.start < t1 - _EPS and burst.end > t0 + _EPS:
                problems.append(Violation(
                    "fault-offline-overlap", "fault",
                    f"cpu {burst.cpu}: burst [{burst.start:.3f},{burst.end:.3f}] "
                    f"({burst.app_name}) overlaps offline window "
                    f"[{t0:.3f},{t1:.3f}]",
                ))

    # 2. Concurrent bursts never exceed the healthy capacity of the
    #    moment.  At equal times: burst ends, then capacity changes,
    #    then burst starts (eviction happens exactly at fault time).
    events = []
    for burst in out.trace.bursts:
        events.append((burst.end, 0, 0))
        events.append((burst.start, 2, 0))
    offline: set = set()
    for fault in sorted(faults, key=lambda f: f.time):
        if fault.detail.startswith("skipped"):
            continue
        if fault.kind == "cpu_fail" and fault.target not in offline:
            offline.add(fault.target)
            events.append((fault.time, 1, -1))
        elif fault.kind == "cpu_repair" and fault.target in offline:
            offline.discard(fault.target)
            events.append((fault.time, 1, +1))
    events.sort()
    live = 0
    capacity = out.trace.n_cpus
    for time, order, delta in events:
        if order == 0:
            live -= 1
        elif order == 1:
            capacity += delta
        else:
            live += 1
        if live > capacity:
            problems.append(Violation(
                "fault-capacity", "fault",
                f"healthy capacity exceeded at t={time:.3f}: "
                f"{live} concurrent bursts on {capacity} healthy CPUs",
            ))
            break

    # 3. Every requeued job must reach a terminal state.
    states = {job.job_id: job.state for job in out.jobs}
    for fault in faults:
        if fault.kind != "job_requeue":
            continue
        state = states.get(fault.target)
        if state not in (JobState.DONE, JobState.FAILED):
            problems.append(Violation(
                "fault-requeue-terminal", "fault",
                f"job {fault.target}: requeued at t={fault.time:.3f} but "
                f"ended in state {state}",
            ))
    return problems


def validate_torture(reports, budget: int = 0) -> List[str]:
    """Check a storage-torture campaign's verdict and its coverage.

    *reports* is the :func:`repro.storage.protocols.run_torture`
    output.  Two kinds of violations:

    * ``torture-invariant`` — a protocol's recovery invariant failed
      in some crash/fault state (one violation per failed state
      message, capped at 20 per protocol to keep renderings bounded).
    * ``torture-coverage`` — the campaign claims a clean bill for all
      five protocols but exercised fewer than
      :data:`TORTURE_STATE_FLOOR` distinct states; a "clean" verdict
      from a too-small campaign is not evidence.  Waived when the
      caller explicitly capped the per-protocol *budget* below 40
      states (smoke runs are allowed to be small, they are just not
      allowed to claim full coverage).
    """
    from repro.storage.protocols import PROTOCOL_NAMES

    problems: List[str] = []
    for report in reports:
        for message in report.violations[:20]:
            problems.append(Violation(
                "torture-invariant", "storage",
                f"{message}",
            ))
        overflow = len(report.violations) - 20
        if overflow > 0:
            problems.append(Violation(
                "torture-invariant", "storage",
                f"{report.protocol}: {overflow} further violation(s) "
                f"elided",
            ))
    covered = {report.protocol for report in reports}
    total = sum(report.states for report in reports)
    floor_applies = covered == set(PROTOCOL_NAMES) and (
        budget == 0 or budget >= 40
    )
    if floor_applies and total < TORTURE_STATE_FLOOR:
        problems.append(Violation(
            "torture-coverage", "storage",
            f"full campaign exercised only {total} distinct states "
            f"(floor: {TORTURE_STATE_FLOOR}) — enumeration shrank",
        ))
    return _ordered(problems)
