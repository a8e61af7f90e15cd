"""The four benchmark workloads, each a closed loop in one process.

Every workload turns the benchmark seed into its inputs (experiment
configs, arrival sources, sweep cells), measures its timed window
with tracing off, checks every output, and returns its end-to-end
metrics.  :func:`trace_workload` runs a fixed slice of the same inputs
once untraced and twice under the ledger and returns the per-layer
metrics.  See README.md in this directory for why each workload is
here and which layer metric should move which end-to-end metric.
"""

from __future__ import annotations

import contextlib
import functools
import hashlib
import heapq
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Callable, Dict, Iterator, List, Optional, Sequence, Tuple

import ledger as ledger_mod

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
REFERENCE_PATH = HERE / "reference.json"

#: The seed the reference digests are stored for.
DEFAULT_SEED = 0
#: A seed no change may be tuned on; gains must also hold here.
HELD_OUT_SEED = 1

LOAD = 1.0
MIXES = ("w1", "w2", "w3", "w4")
BASELINE_POLICIES = ("IRIX", "Equip", "Equal_eff")
SWEEP_POLICIES = ("IRIX", "Equip", "Equal_eff", "PDPA")
SETUP_REPEATS = 5

#: Batch workloads cycle over this many derived experiment seeds.
BATCH_SUB_SEEDS = 16
#: Serve: jobs per timed drain and per warm-up drain, distinct drains,
#: machine size, offered load, ingress bound, autosnapshot cadence.
SERVE_JOBS = 500
SERVE_WARM_JOBS = 100
SERVE_DRAINS = 8
SERVE_CPUS = 16
SERVE_LOAD = 1.5
SERVE_QUEUE = 16
SERVE_SNAPSHOT_EVENTS = 20000
#: Sweep: derived experiment seeds (x 4 policies x 4 mixes = cells);
#: a timed pass runs the cells of one experiment seed.
SWEEP_SUB_SEEDS = 6
PASS_CELLS = len(SWEEP_POLICIES) * len(MIXES)

#: Ladder for the tail percentile, so that its level only moves when
#: the sample count crosses a rung.
TAIL_LADDER = (99.0, 90.0, 75.0, 50.0)


#: A speed probe is the median of PROBE_REPEATS loops of PROBE_ITEMS
#: items; PROBE_NOMINAL_S is its time on the nominal host.
PROBE_ITEMS = 1000
PROBE_REPEATS = 5
PROBE_NOMINAL_S = 0.0007


def probe() -> float:
    """Seconds for a fixed pure-Python heap-and-dict loop, like the simulator's.

    The median of a few short loops: one long loop would take in every
    transient stall of the host.
    """
    samples = []
    for _ in range(PROBE_REPEATS):
        t0 = time.perf_counter()
        heap: List[Tuple[int, int]] = []
        table: Dict[int, float] = {}
        for i in range(PROBE_ITEMS):
            heapq.heappush(heap, ((i * 7919) % 4099, i))
        while heap:
            key, i = heapq.heappop(heap)
            table[key] = table.get(key, 0.0) + i * 0.5
        samples.append(time.perf_counter() - t0)
    return statistics.median(samples)


class Speed:
    """Converts host seconds of timed chunks into reference seconds.

    The speed of a shared host drifts: on the 2-core box this benchmark
    was sized on, the same pure-CPU loop took 0.21 s in one minute and
    0.35 s in another, and PDPA runs of fixed inputs varied by 26%.  So
    every short chunk of timed work (a batch run, a serve slice, an
    in-process sweep cell) is bracketed by probes, which are not timed,
    and its host seconds are scaled by PROBE_NOMINAL_S over the mean of
    the two probes.  On PDPA runs this cut the spread of fixed inputs from 26%
    to 9% per run and from 23% to 4% per 20 runs.  Both sides of a
    comparison run the same probe, so a change to the program moves
    the scaled figures as it moves the host figures.
    """

    def __init__(self) -> None:
        self.probes = [probe()]
        self.host_s = 0.0
        self.ref_s = 0.0

    def tick(self, host_s: float) -> float:
        """Reference seconds of the chunk of *host_s* that just ended."""
        before = self.probes[-1]
        self.probes.append(probe())
        ref = host_s * 2 * PROBE_NOMINAL_S / (before + self.probes[-1])
        self.host_s += host_s
        self.ref_s += ref
        return ref


def sub_seed(seed: int, workload: str, index: Any) -> int:
    """Experiment seed number *index* of one workload, from the bench seed."""
    digest = hashlib.sha256(f"{seed}:{workload}:{index}".encode()).digest()
    return int.from_bytes(digest[:4], "big") & 0x7FFF_FFFF


def sha(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def tail(samples: Sequence[float]) -> Tuple[float, float]:
    """(percentile, value): the highest rung with ten samples beyond it."""
    ordered = sorted(samples)
    n = len(ordered)
    for level in TAIL_LADDER:
        rank = max(1, -(-int(level * n) // 100))  # ceil(level% of n)
        if n - rank >= 10 or level == TAIL_LADDER[-1]:
            return level, ordered[rank - 1]
    raise AssertionError("unreachable")


def peak_rss_mb() -> float:
    """Peak RSS of this process plus its largest reaped child, in MB."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return (own + children) / 1024.0


def load_reference() -> Dict[str, List[str]]:
    try:
        return json.loads(REFERENCE_PATH.read_text())
    except FileNotFoundError:
        return {}


@dataclass
class Checks:
    """Correctness bookkeeping that feeds ``attempted``/``failed``."""

    reference: Optional[List[str]]
    attempted: int = 0
    failed: int = 0
    problems: List[str] = field(default_factory=list)
    seen: Dict[int, str] = field(default_factory=dict)

    def item(self, index: int, digest: str, problems: Sequence[str] = ()) -> None:
        """One run/drain/cell: clean, repeatable, and equal to the reference."""
        self.attempted += 1
        issues = list(problems)
        first = self.seen.setdefault(index, digest)
        if first != digest:
            issues.append(f"item {index}: digest changed on repeat")
        if self.reference is not None:
            if index >= len(self.reference) or self.reference[index] != digest:
                issues.append(f"item {index}: digest differs from reference")
        if issues:
            self.failed += 1
            self.problems.extend(issues)

    def check(self, ok: bool, what: str) -> None:
        self.attempted += 1
        if not ok:
            self.failed += 1
            self.problems.append(what)


class Scratch:
    """Temp dirs inside the checkout (the benchmark writes nowhere else)."""

    def __init__(self, root: Path) -> None:
        self.root = root / ".perfbench" / "tmp"
        self.root.mkdir(parents=True, exist_ok=True)

    def make(self) -> Path:
        return Path(tempfile.mkdtemp(dir=self.root))

    def drop(self, path: Path) -> None:
        shutil.rmtree(path, ignore_errors=True)


def import_seconds() -> float:
    """Host seconds for a fresh interpreter to import the program."""
    t0 = time.perf_counter()
    subprocess.run(
        [sys.executable, "-c",
         "import sys; sys.path.insert(0, sys.argv[1]); import repro.experiments.common",
         str(SRC)],
        check=True,
    )
    return time.perf_counter() - t0


def median_setup(build: Callable[[], Any]) -> Tuple[float, Any]:
    """Set up SETUP_REPEATS times; median reference seconds plus the last state.

    One set-up is a fresh interpreter importing the program, then
    *build*.  Warm-ups use the same inputs at every seed, so that
    set-up time measures set-up work and not the seed.  The process,
    and so the interpreter it starts, is pinned to one core meanwhile,
    so that the probes bracketing each set-up see the core it ran on.
    """
    cores = os.sched_getaffinity(0)
    os.sched_setaffinity(0, {min(cores)})
    try:
        speed = Speed()
        samples = []
        state = None
        for _ in range(SETUP_REPEATS):
            import_s = import_seconds()
            t0 = time.perf_counter()
            state = build()
            samples.append(speed.tick(import_s + time.perf_counter() - t0))
    finally:
        os.sched_setaffinity(0, cores)
    return statistics.median(samples), state


def _metrics(runs: int, events: int, jobs: int, busy_s: float, host_s: float,
             slices_ms: Sequence[float], setup_s: float,
             checks: Checks) -> Tuple[Dict[str, float], Dict[str, Any]]:
    """End-to-end metrics of a window: *busy_s* and *slices_ms* in reference time."""
    level, tail_ms = tail(slices_ms)
    passed = (checks.attempted - checks.failed) / checks.attempted
    metrics = {
        "runs_per_s": runs / busy_s,
        "sim_events_per_s": events / busy_s,
        "jobs_per_s": jobs / busy_s,
        "slice_ms_p50": statistics.median(slices_ms),
        "slice_ms_tail": tail_ms,
        "setup_s": setup_s,
        "peak_rss_mb": peak_rss_mb(),
        "passed_frac": passed,
    }
    context = {
        "slice_tail_percentile": level,
        "slice_samples": len(slices_ms),
        "runs": runs, "events": events, "jobs": jobs, "busy_s": busy_s,
        "host_busy_s": host_s, "host_runs_per_s": runs / host_s,
    }
    return metrics, context


# ----------------------------------------------------------------------
# batch workloads: pdpa_runs, baseline_runs
# ----------------------------------------------------------------------
def batch_cycle(workload: str, seed: int) -> List[Tuple[str, str, int]]:
    """(policy, mix, experiment seed) in loop order; a group per (seed, mix)."""
    policies = ("PDPA",) if workload == "pdpa_runs" else BASELINE_POLICIES
    return [
        (policy, mix, sub_seed(seed, workload, i))
        for i in range(BATCH_SUB_SEEDS)
        for mix in MIXES
        for policy in policies
    ]


def run_digest(out: Any) -> str:
    """Trace digest plus the canonical WorkloadResult of one run."""
    from repro.parallel.cells import trace_digest

    record = json.dumps(out.result.to_dict(), sort_keys=True, separators=(",", ":"))
    return sha(trace_digest(out) + ":" + record)


def run_batch_item(item: Tuple[str, str, int]) -> Any:
    from repro.experiments.common import ExperimentConfig, run_workload

    policy, mix, seed = item
    return run_workload(policy, mix, LOAD, ExperimentConfig(seed=seed))


def batch(workload: str, seed: int,
          seconds: float) -> Tuple[Dict[str, float], Dict[str, Any], Checks]:
    from repro.validate import validate_run

    group = 1 if workload == "pdpa_runs" else len(BASELINE_POLICIES)

    def build() -> List[Tuple[str, str, int]]:
        warm = batch_cycle(workload, seed)[:group]
        for policy, mix, _ in warm:
            run_batch_item((policy, mix, sub_seed(DEFAULT_SEED, workload, "warm")))
        return batch_cycle(workload, seed)

    setup_s, cycle = median_setup(build)
    checks = Checks(load_reference().get(workload) if seed == DEFAULT_SEED else None)
    speed = Speed()
    runs = events = jobs = 0
    latencies: List[float] = []
    i = 0
    while speed.host_s < seconds or i % group:
        index = i % len(cycle)
        t0 = time.perf_counter()
        out = run_batch_item(cycle[index])
        latencies.append(speed.tick(time.perf_counter() - t0) * 1000.0)
        runs += 1
        events += out.rm.sim.events_fired
        jobs += len(out.jobs)
        checks.item(index, run_digest(out), validate_run(out))
        i += 1
    metrics, context = _metrics(runs, events, jobs, speed.ref_s, speed.host_s, latencies,
                                setup_s, checks)
    context["slice"] = "one run_workload call"
    return metrics, context, checks


# ----------------------------------------------------------------------
# serve_stream
# ----------------------------------------------------------------------
class StepClock:
    """Times the slices of one service drain, probing between them.

    ``Simulator.step`` is wrapped at class level for the drain: each
    call ends one slice (the previous ``step``, prune and heartbeat)
    and starts the next.  The segments before the first slice and
    after the last are timed too, but are not slices.
    """

    def __init__(self, speed: Speed) -> None:
        self.speed = speed
        self.slices_ms: List[float] = []
        self._start = 0.0
        self._first = True

    def __enter__(self) -> "StepClock":
        from repro.sim.engine import Simulator

        original = Simulator.step

        @functools.wraps(original)
        def step(sim: Any, n_events: int = 1) -> int:
            ref_s = self.speed.tick(time.perf_counter() - self._start)
            if not self._first:
                self.slices_ms.append(ref_s * 1000.0)
            self._first = False
            self._start = time.perf_counter()
            return original(sim, n_events)

        self._original = original
        Simulator.step = step
        self._start = time.perf_counter()
        return self

    def __exit__(self, *exc: object) -> None:
        from repro.sim.engine import Simulator

        self.speed.tick(time.perf_counter() - self._start)
        Simulator.step = self._original


def build_service(seed: int, index: Any, jobs: int, directory: Path) -> Any:
    """One ServeService over a fresh SyntheticSource, writing in *directory*."""
    from repro.checkpoint import CheckpointPlan
    from repro.experiments.common import ExperimentConfig
    from repro.qs.streaming import IngressConfig
    from repro.qs.workload import TABLE1_MIXES
    from repro.serve.service import ServeService
    from repro.serve.session import ServeConfig, build_serve_session
    from repro.serve.source import SyntheticSource

    s = sub_seed(seed, "serve_stream", index)
    config = ExperimentConfig(n_cpus=SERVE_CPUS, seed=s)
    source = SyntheticSource(
        TABLE1_MIXES["w2"], load=SERVE_LOAD, n_cpus=SERVE_CPUS, seed=s,
        max_jobs=jobs,
    )
    # heartbeat_seconds=0: a status write every slice, so that the
    # number of durable writes is a function of the inputs alone.
    serve_config = ServeConfig(
        ingress=IngressConfig(max_queue=SERVE_QUEUE, policy="reject"),
        heartbeat_seconds=0.0,
    )
    session = build_serve_session(
        "Equip", source, config=config, serve_config=serve_config, load=SERVE_LOAD,
    )
    return ServeService(
        session,
        journal_path=directory / "arrivals.jsonl",
        status_path=directory / "status.json",
        checkpoint=CheckpointPlan(
            path=directory / "serve.ckpt", every_events=SERVE_SNAPSHOT_EVENTS
        ),
    )


def drain(service: Any) -> Tuple[int, Any]:
    return service.run(handle_signals=False), service.session


def drain_problems(code: int, session: Any, jobs: int) -> List[str]:
    from repro.validate import validate_stream

    problems = [f"exit code {code}"] if code != 0 else []
    problems += validate_stream(session)
    if session.source.drawn != jobs:
        problems.append(f"drew {session.source.drawn} of {jobs} jobs")
    return problems


def serve(seed: int, seconds: float,
          scratch: Scratch) -> Tuple[Dict[str, float], Dict[str, Any], Checks]:
    def build() -> None:
        directory = scratch.make()
        drain(build_service(DEFAULT_SEED, "warm", SERVE_WARM_JOBS, directory))
        scratch.drop(directory)

    setup_s, _ = median_setup(build)
    checks = Checks(load_reference().get("serve_stream") if seed == DEFAULT_SEED else None)
    speed = Speed()
    drains = events = jobs = 0
    slices: List[float] = []
    i = 0
    while speed.host_s < seconds:
        index = i % SERVE_DRAINS
        directory = scratch.make()
        service = build_service(seed, index, SERVE_JOBS, directory)
        with StepClock(speed) as clock:
            code, session = drain(service)
        slices += clock.slices_ms
        drains += 1
        events += session.sim.events_fired
        jobs += session.source.drawn
        checks.item(index, session.stats.digest(), drain_problems(code, session, SERVE_JOBS))
        scratch.drop(directory)
        i += 1
    metrics, context = _metrics(drains, events, jobs, speed.ref_s, speed.host_s, slices,
                                setup_s, checks)
    context["slice"] = "one ServeService run-loop slice (step, prune, heartbeat)"
    return metrics, context, checks


# ----------------------------------------------------------------------
# paper_sweep
# ----------------------------------------------------------------------
def sweep_cells(seed: int) -> List[Any]:
    from repro.experiments.common import ExperimentConfig, workload_cell_spec

    return [
        workload_cell_spec(policy, mix, LOAD, ExperimentConfig(seed=sub_seed(seed, "paper_sweep", i)))
        for i in range(SWEEP_SUB_SEEDS)
        for mix in MIXES
        for policy in SWEEP_POLICIES
    ]


def workers() -> int:
    return os.cpu_count() or 1


def sweep_pass(cells: Sequence[Any], cache_dir: Path, jobs: int,
               speed: Optional[Speed] = None) -> Tuple[float, List[str], Any, List[float]]:
    """One SweepRunner pass over *cells* with a cache at *cache_dir*.

    Returns (host seconds, payloads, stats, per-cell reference ms).
    With *speed* (serial passes), a probe runs after each cell is
    stored, because the cache's ``put`` is the runner's per-cell
    boundary; the probes are left out of the host seconds.
    """
    from repro.parallel import ResultCache, SweepRunner

    cell_ms: List[float] = []
    mark = [0.0]

    class ProbedCache(ResultCache):
        def put(self, key: str, payload: str) -> bool:
            stored = super().put(key, payload)
            if speed is not None:
                cell_ms.append(speed.tick(time.perf_counter() - mark[0]) * 1000.0)
                mark[0] = time.perf_counter()
            return stored

    runner = SweepRunner(jobs=jobs, cache=ProbedCache(cache_dir))
    host_before = speed.host_s if speed is not None else 0.0
    mark[0] = t0 = time.perf_counter()
    payloads = runner.run_serialized(cells)
    end = time.perf_counter()
    if speed is None:
        return end - t0, payloads, runner.last_stats, cell_ms
    speed.tick(end - mark[0])
    return speed.host_s - host_before, payloads, runner.last_stats, cell_ms


def in_process(cells: Sequence[Any]) -> Tuple[List[float], List[str], List[Any]]:
    """Run each cell's simulation here: (host ms per cell, records, outputs)."""
    from repro.experiments.common import run_workload
    from repro.parallel.cache import canonical_dumps

    times, records, outs = [], [], []
    for cell in cells:
        p = cell.params
        t0 = time.perf_counter()
        out = run_workload(p["policy"], p["workload"], p["load"], p["config"])
        times.append((time.perf_counter() - t0) * 1000.0)
        records.append(canonical_dumps(out.result.to_dict(), strict=True))
        outs.append(out)
    return times, records, outs


def pool_start() -> float:
    """Seconds for a pool of ``workers()`` to start, run a trivial cell each, and stop."""
    from repro.parallel import SweepCell, SweepRunner

    cells = [SweepCell(key=f"echo{i}", fn="repro.parallel.cells:echo_cell",
                       params={"i": i}) for i in range(workers())]
    t0 = time.perf_counter()
    SweepRunner(jobs=workers()).run(cells)
    return time.perf_counter() - t0


def sweep(seed: int, seconds: float,
          scratch: Scratch) -> Tuple[Dict[str, float], Dict[str, Any], Checks]:
    """Serial cold passes timed; then a pool pass, a warm pass and in-process runs checked.

    The timed passes run ``SweepRunner(jobs=1)`` over the 16 cells of
    one experiment seed each, with a fresh cache: cell execution,
    canonical JSON, cache writes, each cell bracketed by probes.  The
    pool is not timed here.  On the 2-vCPU sizing box the cells/s of a
    ``jobs=cpu_count`` pool spread by 6-20% over seeds whether scaled
    or not, because it depends on the other vCPU, which the host shares
    with other tenants.  The pool pass still runs every time and must
    give byte-identical records; its host cells/s is in the context line
    and the traced run reports ``parallel.pool_efficiency``.
    """
    from repro.validate import validate_run

    def build() -> List[Any]:
        pool_start()
        return sweep_cells(seed)

    setup_s, cells = median_setup(build)
    n = len(cells)
    checks = Checks(load_reference().get("paper_sweep") if seed == DEFAULT_SEED else None)
    root = scratch.make()
    speed = Speed()
    passes = 0
    slices: List[float] = []
    serial: Dict[int, str] = {}
    runs = 0
    while speed.host_s < seconds:
        group = passes % SWEEP_SUB_SEEDS
        part = cells[group * PASS_CELLS:(group + 1) * PASS_CELLS]
        _, payloads, stats, cell_ms = sweep_pass(part, root / f"cache{passes}", 1, speed)
        slices += cell_ms
        runs += len(part)
        checks.check(stats.executed == len(part) and stats.cache_hits == 0,
                     f"cold pass {passes}: {stats.summary_line()}")
        for offset, payload in enumerate(payloads):
            checks.item(group * PASS_CELLS + offset, sha(payload or ""))
            serial[group * PASS_CELLS + offset] = payload or ""
        passes += 1
    pool_s, first, stats, _ = sweep_pass(cells, root / "pool", workers())
    checks.check(stats.executed == n, f"pool pass: {stats.summary_line()}")
    for index, payload in enumerate(first):
        checks.item(index, sha(payload or ""))
    checks.check(all(first[i] == p for i, p in serial.items()),
                 "pool pass records differ from the serial passes")
    _, warm, stats, _ = sweep_pass(cells, root / "pool", workers())
    checks.check(warm == first, "warm pass records differ from the cold pass")
    checks.check(stats.cache_hits == n, f"warm pass: {stats.summary_line()}")
    _, records, outs = in_process(cells)
    for index, (record, out) in enumerate(zip(records, outs)):
        problems = validate_run(out)
        if first is None or first[index] != record:
            problems.append(f"cell {index}: sweep record differs from in-process run")
        checks.check(not problems, "; ".join(problems))
    scratch.drop(root)
    group_of = [i // PASS_CELLS for i in range(n)]
    events = jobs = 0
    for p in range(passes):
        group = p % SWEEP_SUB_SEEDS
        events += sum(o.rm.sim.events_fired for i, o in enumerate(outs) if group_of[i] == group)
        jobs += sum(len(o.jobs) for i, o in enumerate(outs) if group_of[i] == group)
    metrics, context = _metrics(runs, events, jobs, speed.ref_s, speed.host_s,
                                slices, setup_s, checks)
    context.update(slice="one cell of a serial cold pass, with its cache write",
                   passes=passes, cells=n, pool_host_cells_per_s=n / pool_s)
    return metrics, context, checks


# ----------------------------------------------------------------------
# traced run: fixed inputs, untraced once, traced twice
# ----------------------------------------------------------------------
def _ledger_items(workload: str, seed: int) -> List[Any]:
    if workload == "pdpa_runs":
        return batch_cycle(workload, seed)[:len(MIXES)]
    if workload == "baseline_runs":
        return batch_cycle(workload, seed)[:len(MIXES) * len(BASELINE_POLICIES)]
    return []


@contextlib.contextmanager
def _traced(ledger: Optional[ledger_mod.Ledger], extra: Dict[str, Any]) -> Iterator[None]:
    """Time a block into ``extra["wall_s"]``, under *ledger* if given."""
    if ledger is not None:
        ledger.start()
    t0 = time.perf_counter()
    try:
        yield
    finally:
        extra["wall_s"] = time.perf_counter() - t0
        if ledger is not None:
            ledger.stop()


def _ledger_pass(workload: str, seed: int, scratch: Scratch,
                 ledger: Optional[ledger_mod.Ledger]) -> Tuple[List[str], List[str], Dict[str, Any]]:
    """Run the fixed traced inputs once: (digests, problems, extra numbers)."""
    from repro.validate import validate_run

    extra: Dict[str, Any] = {}
    problems: List[str] = []
    if workload in ("pdpa_runs", "baseline_runs"):
        with _traced(ledger, extra):
            outs = [run_batch_item(item) for item in _ledger_items(workload, seed)]
        for out in outs:
            problems += validate_run(out)
        return [run_digest(out) for out in outs], problems, extra
    if workload == "serve_stream":
        directory = scratch.make()
        service = build_service(seed, 0, SERVE_JOBS, directory)
        with _traced(ledger, extra):
            code, session = drain(service)
        problems += drain_problems(code, session, SERVE_JOBS)
        scratch.drop(directory)
        return [session.stats.digest()], problems, extra
    # paper_sweep: a serial cold pass over one experiment seed's cells,
    # as in the timed window, then a cold pool pass and a warm pass.
    cells = sweep_cells(seed)
    root = scratch.make()
    with _traced(ledger, extra):
        _, serial, serial_stats, _ = sweep_pass(cells[:PASS_CELLS], root / "serial", 1)
        cold_s, cold, cold_stats, _ = sweep_pass(cells, root / "pool", workers())
        _, warm, warm_stats, _ = sweep_pass(cells, root / "pool", workers())
    scratch.drop(root)
    if serial != cold[:PASS_CELLS]:
        problems.append("serial pass records differ from the pool pass")
    if warm != cold:
        problems.append("warm pass records differ from the cold pass")
    stats = (serial_stats, cold_stats, warm_stats)
    extra.update(
        cold_s=cold_s,
        cells=sum(st.cells for st in stats),
        cache_hits=sum(st.cache_hits for st in stats),
        cache_misses=sum(st.executed for st in stats),
    )
    return [sha(p or "") for p in cold], problems, extra


def trace_workload(workload: str, seed: int, scratch: Scratch,
                   out_dir: Path) -> Tuple[Dict[str, float], Dict[str, Any], Checks]:
    reference = load_reference().get(workload) if seed == DEFAULT_SEED else None
    checks = Checks(reference)
    digests0, problems0, extra0 = _ledger_pass(workload, seed, scratch, None)
    for index, digest in enumerate(digests0):
        checks.item(index, digest)
    checks.check(not problems0, "; ".join(problems0))
    numbers = {"parallel.pool_efficiency": 0.0, "parallel.worker_start_s": 0.0}
    if workload == "paper_sweep":
        serial_ms, _, _ = in_process(sweep_cells(seed))
        numbers["parallel.pool_efficiency"] = (
            sum(serial_ms) / 1000.0 / (workers() * extra0["cold_s"])
        )
        numbers["parallel.worker_start_s"] = pool_start()

    ledger_mod.instrument()
    passes = []
    for _ in range(2):
        led = ledger_mod.Ledger()
        digests, problems, extra = _ledger_pass(workload, seed, scratch, led)
        checks.check(digests == digests0 and not problems,
                     "traced run differs from the untraced run: " + "; ".join(problems))
        passes.append((led, extra))
    (led1, extra1), (led2, extra2) = passes
    counts1, counts2 = led1.count_doc(), led2.count_doc()
    checks.check(counts1 == counts2, "per-layer counts differ between two traced runs")

    out_dir.mkdir(parents=True, exist_ok=True)
    stem = f"{workload}-seed{seed}"
    (out_dir / f"{stem}.counts.json").write_text(json.dumps(counts1, indent=1, sort_keys=True) + "\n")
    (out_dir / f"{stem}.times.json").write_text(
        json.dumps([led1.time_doc(), led2.time_doc()], indent=1) + "\n"
    )
    numbers.update(
        layer_metrics(led1, led2, extra1, extra2, extra0["wall_s"])
    )
    context = {"ledger_counts": str(out_dir / f"{stem}.counts.json")}
    return numbers, context, checks


def layer_metrics(led1: ledger_mod.Ledger, led2: ledger_mod.Ledger,
                  extra1: Dict[str, Any], extra2: Dict[str, Any],
                  untraced_wall_s: float) -> Dict[str, float]:
    """The per-layer metrics: counts from one traced run, times averaged."""
    counts = led1.counts
    edges = {key: int(edge[0]) for key, edge in led1.edges.items()}

    def self_s(layer: str) -> float:
        return (led1.self_s.get(layer, 0.0) + led2.self_s.get(layer, 0.0)) / 2

    def total_s(*names: str) -> float:
        return sum(led1.total_s.get(n, 0.0) + led2.total_s.get(n, 0.0) for n in names) / 2

    def calls(pred: Callable[[str], bool]) -> int:
        return sum(v for k, v in counts.items() if pred(k))

    def edge_calls(pred: Callable[[str, str], bool]) -> int:
        return sum(v for (parent, name), v in edges.items() if pred(parent, name))

    def ratio(a: float, b: float) -> float:
        return a / b if b else 0.0

    def layer(name: str) -> str:
        return name.split(":", 1)[0]

    def method(name: str) -> str:
        return name.rsplit(".", 1)[-1]

    host_api = {"current_allocation", "iteration_speed_procs", "iteration_speedup",
                "deliver_report", "job_completed"}
    iterations = counts["runtime:event:NthLibRuntime._end_iteration"]
    host_calls = edge_calls(lambda p, n: layer(p) == "runtime" and layer(n) == "rm"
                            and method(n) in host_api)
    on_report = counts["core:PDPA.on_report"]
    noop = led1.extra["core.noop_reports"]
    try_start = edge_calls(lambda p, n: method(n) == "try_start" and method(p) != "try_start")
    starts = edge_calls(lambda p, n: layer(p) == "qs" and layer(n) == "rm"
                        and method(n) == "start_job")
    fsync_names = ("storage:StorageLayer.fsync", "storage:StorageLayer.fsync_dir")
    wall = (led1.wall_s + led2.wall_s) / 2
    attributed = (led1.attributed_s() + led2.attributed_s()) / 2
    m = {
        "sim.events": calls(lambda k: ":event:" in k),
        "sim.scheduled": counts["sim:Simulator.schedule_at"] + counts["sim:Simulator.schedule_after"],
        "sim.cancelled": counts["sim:Simulator.cancel"],
        "sim.self_s": self_s("sim"),
        "sim.columns.kernel_calls": calls(lambda k: layer(k) == "sim.columns"),
        "sim.columns.self_s": self_s("sim.columns"),
        "runtime.iterations": iterations,
        "runtime.reports": edge_calls(lambda p, n: layer(p) == "runtime"
                                      and method(n) == "deliver_report"),
        "runtime.host_calls": host_calls,
        "runtime.host_calls_per_iteration": ratio(host_calls, iterations),
        "runtime.self_s": self_s("runtime"),
        "rm.system_view_calls": calls(lambda k: layer(k) == "rm" and method(k) in
                                      ("system_view", "system_view_without")),
        "rm.reallocations": counts["rm:SpaceSharedResourceManager._record_realloc"],
        "rm.self_s": self_s("rm"),
        "rm.equal_efficiency.water_fill_calls": counts["rm.equal_efficiency:water_fill"],
        "rm.equal_efficiency.self_s": self_s("rm.equal_efficiency"),
        "core.on_report_calls": on_report,
        "core.noop_reports": noop,
        "core.useful_report_ratio": ratio(on_report - noop, on_report),
        "core.self_s": self_s("core"),
        "machine.start_calls": counts["machine:Machine.start_job"],
        "machine.resize_calls": counts["machine:Machine.resize_job"],
        "machine.finish_calls": counts["machine:Machine.finish_job"],
        "machine.self_s": self_s("machine"),
        "apps.speedup_calls": calls(lambda k: layer(k) == "apps" and method(k) == "speedup"),
        "apps.speedup_many_calls": calls(lambda k: layer(k) == "apps"
                                         and method(k) == "speedup_many"),
        "apps.self_s": self_s("apps"),
        "qs.try_start_calls": try_start,
        "qs.starts": starts,
        "qs.useful_try_start_ratio": ratio(starts, try_start),
        "qs.shed": counts["metrics:StreamingStats.observe_shed"],
        "qs.self_s": self_s("qs"),
        "metrics.record_calls": edge_calls(
            lambda p, n: layer(n) == "metrics" and layer(p) != "metrics"
            and method(n).startswith(("record_", "observe"))),
        "metrics.finish_s": total_s("metrics:SimulationSession.finish"),
        "metrics.self_s": self_s("metrics"),
        "parallel.cells": extra1.get("cells", 0),
        "parallel.cache_hits": extra1.get("cache_hits", 0),
        "parallel.cache_misses": extra1.get("cache_misses", 0),
        "parallel.cache_read_s": total_s("parallel:ResultCache.get"),
        "parallel.cache_write_s": total_s("parallel:ResultCache.put"),
        "parallel.self_s": self_s("parallel"),
        "serve.slices": edges.get(("serve:ServeService.run", "sim:Simulator.step"), 0),
        "serve.pruned_jobs": led1.extra["serve.pruned_jobs"],
        "serve.prune_s": total_s("serve:ServeSession.prune"),
        "serve.heartbeats": counts["serve:ServeService.write_status"],
        "serve.self_s": self_s("serve"),
        "storage.journal_appends": counts["serve:ArrivalJournal.append"]
        + counts["parallel:SweepJournal.append"],
        "storage.fsyncs": sum(counts[n] for n in fsync_names),
        "storage.fsync_s": total_s(*fsync_names),
        "storage.atomic_writes": counts["storage:StorageLayer.write_atomic"],
        "storage.atomic_write_s": total_s("storage:StorageLayer.write_atomic"),
        "storage.errors": sum(v for k, v in led1.errors.items() if layer(k) == "storage"),
        "checkpoint.snapshots": counts["checkpoint:SimulationSession.save"],
        "checkpoint.bytes": led1.extra["checkpoint.bytes"],
        "checkpoint.save_s": total_s("checkpoint:SimulationSession.save"),
        "experiments.self_s": self_s("experiments"),
        "trace.unattributed_frac": ratio(wall - attributed, wall),
        "trace.overhead_ratio": ratio((extra1["wall_s"] + extra2["wall_s"]) / 2, untraced_wall_s),
    }
    return m
