"""Recompute reference.json: the default seed's digest for every input.

Each list holds one digest per distinct input of a workload, in the
order the workload indexes them: a batch run (trace digest plus the
canonical WorkloadResult), a serve drain (``StreamingStats.digest()``)
and a sweep cell (SHA-256 of its canonical record).  A change that
alters simulated behaviour changes these, and the benchmark then
counts its runs as failed.  Regenerate only when a behaviour change is
intended, and say so in the change.
"""

from __future__ import annotations

import json

import workloads as wl


def write(scratch: wl.Scratch) -> None:
    seed = wl.DEFAULT_SEED
    doc = {"seed": seed}
    for workload in ("pdpa_runs", "baseline_runs"):
        doc[workload] = [
            wl.run_digest(wl.run_batch_item(item))
            for item in wl.batch_cycle(workload, seed)
        ]
    drains = []
    for index in range(wl.SERVE_DRAINS):
        directory = scratch.make()
        code, session = wl.drain(wl.build_service(seed, index, wl.SERVE_JOBS, directory))
        problems = wl.drain_problems(code, session, wl.SERVE_JOBS)
        if problems:
            raise SystemExit(f"serve drain {index}: {problems}")
        drains.append(session.stats.digest())
        scratch.drop(directory)
    doc["serve_stream"] = drains
    _, records, _ = wl.in_process(wl.sweep_cells(seed))
    doc["paper_sweep"] = [wl.sha(record) for record in records]
    wl.REFERENCE_PATH.write_text(json.dumps(doc, indent=1) + "\n")
