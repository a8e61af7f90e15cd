"""Benchmarks of the parallel sweep executor and the hot-path work.

Three claims are measured and recorded into ``BENCH_sweep.json`` at
the repository root:

* a Fig. 7-style sweep runs faster through ``SweepRunner(jobs=N)``
  than serially (asserted only on machines with >= 4 cores — the
  container running tier-1 may have a single CPU);
* a warm-cache re-run of the same sweep costs a small fraction of the
  cold run and returns byte-identical payloads;
* the per-cell hot paths (full workload execution, machine
  partitioning churn) beat the pre-optimization baseline recorded in
  ``pre_pr_baseline``.

``BENCH_sweep.json`` keeps an append-style ``runs`` trajectory so the
numbers can be compared across commits and CI runs.
"""

from __future__ import annotations

import json
import multiprocessing
import time
from pathlib import Path

import pytest

from repro.experiments.common import ExperimentConfig, run_workload
from repro.machine.machine import Machine
from repro.parallel import ResultCache, SweepCell, SweepRunner

BENCH_PATH = Path(__file__).resolve().parent.parent / "BENCH_sweep.json"

#: Committed hot-path baseline for the CI bench-regression gate.
BASELINE_PATH = Path(__file__).resolve().parent / "bench_baseline.json"

#: Hot-path timings at the commit *before* this optimization pass
#: (best-of-5 of the same kernels, same container class).  The
#: acceptance bar is >= 1.5x over these.
PRE_PR_BASELINE = {
    "full_workload_s": 0.0804,
    "machine_churn_s": 0.0098,
    "event_engine_s": 0.0130,
}

SWEEP_CONFIG = ExperimentConfig(n_cpus=32, duration=120.0, seed=7)

#: Heavier cells for the speedup measurement: each runs a few hundred
#: milliseconds, so the pool's startup cost amortizes the way a real
#: figure sweep does.
SPEEDUP_CONFIG = ExperimentConfig(n_cpus=60, duration=600.0, seed=7)


def _sweep_cells():
    """A small Fig. 7-shaped sweep: 2 policies x 2 MPLs x 2 loads."""
    cells = []
    for policy in ("Equip", "PDPA"):
        for mpl in (2, 4):
            for load in (0.8, 1.0):
                cells.append(SweepCell(
                    key=f"{policy}/mpl={mpl}/load={load}",
                    fn="repro.parallel.cells:workload_cell",
                    params={"policy": policy, "workload": "w2", "load": load,
                            "config": SWEEP_CONFIG.with_mpl(mpl)},
                ))
    return cells


def _speedup_cells():
    """A Fig. 7-scale sweep over w3: 2 policies x 3 MPLs x 2 loads x 2 seeds."""
    cells = []
    for policy in ("Equip", "PDPA"):
        for mpl in (2, 3, 4):
            for load in (0.8, 1.0):
                for seed in (0, 1):
                    config = SPEEDUP_CONFIG.with_mpl(mpl).with_seed(seed)
                    cells.append(SweepCell(
                        key=f"{policy}/mpl={mpl}/load={load}/seed={seed}",
                        fn="repro.parallel.cells:workload_cell",
                        params={"policy": policy, "workload": "w3",
                                "load": load, "config": config},
                    ))
    return cells


def _record(section: str, payload: dict) -> None:
    """Append one measurement to the BENCH_sweep.json trajectory."""
    doc = {"pre_pr_baseline": PRE_PR_BASELINE, "runs": []}
    if BENCH_PATH.exists():
        try:
            doc = json.loads(BENCH_PATH.read_text())
        except (ValueError, OSError):
            pass
    doc.setdefault("pre_pr_baseline", PRE_PR_BASELINE)
    doc.setdefault("runs", []).append({
        "section": section,
        "timestamp": time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime()),
        "cpu_count": multiprocessing.cpu_count(),
        **payload,
    })
    BENCH_PATH.write_text(json.dumps(doc, indent=2) + "\n")


def _best_of(fn, rounds=5):
    best = float("inf")
    for _ in range(rounds):
        start = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - start)
    return best


def test_perf_sweep_parallel_speedup():
    """Serial vs SweepRunner(jobs=N) on a Fig. 7-scale sweep.

    On a single-core container a process pool can only lose (the
    workers time-share one CPU and pay serialization on top), so the
    pool measurement is skipped — and recorded as skipped — rather
    than committing a meaningless "0.94x speedup" to the trajectory.
    """
    cells = _speedup_cells()
    cores = multiprocessing.cpu_count()

    start = time.perf_counter()
    serial_payloads = SweepRunner().run_serialized(cells)
    serial_s = time.perf_counter() - start

    if cores < 2:
        _record("parallel_speedup", {
            "cells": len(cells),
            "serial_s": round(serial_s, 4),
            "pool_measurement": (
                "skipped: only 1 core available, a process pool cannot win"
            ),
        })
        pytest.skip("pool speedup needs >= 2 cores")

    jobs = min(4, cores)
    start = time.perf_counter()
    parallel_payloads = SweepRunner(jobs=jobs).run_serialized(cells)
    parallel_s = time.perf_counter() - start

    assert serial_payloads == parallel_payloads  # byte-identical
    speedup = serial_s / parallel_s if parallel_s > 0 else float("inf")
    _record("parallel_speedup", {
        "cells": len(cells),
        "jobs": jobs,
        "serial_s": round(serial_s, 4),
        "parallel_s": round(parallel_s, 4),
        "speedup": round(speedup, 2),
        #: fraction of ideal linear scaling the pool achieved
        "per_core_scaling": round(speedup / jobs, 2),
    })
    if cores >= 4:
        assert speedup >= 2.5, (
            f"parallel sweep speedup {speedup:.2f}x below the 2.5x bar "
            f"({serial_s:.2f}s serial vs {parallel_s:.2f}s with {jobs} jobs)"
        )


def test_perf_sweep_warm_cache(tmp_path):
    """A cached re-run must cost <10% of the cold run, byte-identically."""
    cells = _sweep_cells()
    cache = ResultCache(tmp_path / "cache")

    cold_runner = SweepRunner(cache=cache)
    start = time.perf_counter()
    cold_payloads = cold_runner.run_serialized(cells)
    cold_s = time.perf_counter() - start
    assert cold_runner.last_stats.executed == len(cells)

    warm_runner = SweepRunner(cache=cache)
    start = time.perf_counter()
    warm_payloads = warm_runner.run_serialized(cells)
    warm_s = time.perf_counter() - start

    assert warm_runner.last_stats.cache_hits == len(cells)
    assert warm_payloads == cold_payloads
    _record("warm_cache", {
        "cells": len(cells),
        "cold_s": round(cold_s, 4),
        "warm_s": round(warm_s, 4),
        "warm_fraction": round(warm_s / cold_s, 4) if cold_s > 0 else 0.0,
    })
    assert warm_s < 0.1 * cold_s, (
        f"warm cache run took {warm_s:.3f}s, >= 10% of the {cold_s:.3f}s cold run"
    )


def test_perf_hot_paths_beat_baseline():
    """The optimized kernels must hold >= 1.5x over the pre-PR baseline,
    and every policy's workload run must stay within the committed
    regression baseline.

    Same kernels as ``test_simulator_performance.py``, measured
    best-of-5 so scheduler noise does not fail the bar spuriously.
    """
    config = ExperimentConfig(seed=0)

    def full_workload():
        return run_workload("PDPA", "w3", 0.6, config)

    def machine_churn():
        machine = Machine(60)
        now = 0.0
        for round_index in range(50):
            for job in range(1, 5):
                machine.start_job(job, f"app{job}", 12, now)
                now += 1.0
            for job in range(1, 5):
                machine.resize_job(job, 6 + (round_index + job) % 8, now)
                now += 1.0
            for job in range(1, 5):
                machine.finish_job(job, now)
                now += 1.0

    def policy_run(policy, workload):
        return lambda: run_workload(policy, workload, 1.0, config)

    measured = {
        "full_workload_s": _best_of(full_workload),
        "machine_churn_s": _best_of(machine_churn),
        # one run per remaining policy, at load 1.0
        "irix_w3_s": _best_of(policy_run("IRIX", "w3")),
        "equip_w3_s": _best_of(policy_run("Equip", "w3")),
        "equal_eff_w1_s": _best_of(policy_run("Equal_eff", "w1")),
    }
    ratios = {
        "full_workload": PRE_PR_BASELINE["full_workload_s"] / measured["full_workload_s"],
        "machine_churn": PRE_PR_BASELINE["machine_churn_s"] / measured["machine_churn_s"],
    }
    _record("hot_paths", {
        **{name: round(seconds, 4) for name, seconds in measured.items()},
        "speedup_vs_baseline": {k: round(v, 2) for k, v in ratios.items()},
    })
    for name, ratio in ratios.items():
        assert ratio >= 1.5, (
            f"{name} is only {ratio:.2f}x over the pre-PR baseline (need 1.5x)"
        )

    # Regression gate: the committed baseline records what these
    # kernels cost; CI fails when a later change regresses past the
    # tolerance (generous, because CI containers vary in speed — the
    # gate catches algorithmic regressions, not scheduler jitter).
    baseline = json.loads(BASELINE_PATH.read_text())
    tolerance = baseline["tolerance_factor"]
    assert set(baseline["hot_paths"]) == set(measured)
    for name, seconds in measured.items():
        ceiling = baseline["hot_paths"][name] * tolerance
        assert seconds <= ceiling, (
            f"{name} regressed: {seconds:.4f}s vs committed baseline "
            f"{baseline['hot_paths'][name]:.4f}s * {tolerance}x tolerance"
        )
