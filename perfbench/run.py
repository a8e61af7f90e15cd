"""Repo benchmark: one command, four workloads, every metric by name.

Usage (from the root of a checkout)::

    python3 perfbench/run.py --workload pdpa_runs --seed 0 --seconds 16 --trace 0
    python3 perfbench/run.py --write-reference

``--trace 0`` measures the end-to-end metrics with tracing off;
``--trace 1`` runs a fixed slice of the same inputs under the per-layer
ledger and reports the per-layer metrics.  The last line of stdout is
one JSON object with ``correct``, ``attempted``, ``failed`` and
``metrics``; the line before it is a JSON context record (versions,
worker count, columns backend, tail percentile and sample count).
``--write-reference`` recomputes the reference digests of the default
seed into reference.json.  README.md in this directory documents the
workloads and metrics.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"

WORKLOADS = ("pdpa_runs", "baseline_runs", "serve_stream", "paper_sweep")
UNITS = {
    "runs_per_s": "runs/s", "sim_events_per_s": "events/s", "jobs_per_s": "jobs/s",
    "slice_ms_p50": "ms", "slice_ms_tail": "ms", "setup_s": "s",
    "peak_rss_mb": "MB", "passed_frac": "ratio",
}


def per_layer_unit(name: str) -> str:
    if name.endswith("_s"):
        return "s"
    if name.endswith(("_ratio", "_frac", "_efficiency", "_per_iteration")):
        return "ratio"
    if name.endswith("bytes"):
        return "bytes"
    return "count"


def stamps(workload: str, seed: int) -> dict:
    from repro.sim import columns
    import workloads as wl

    try:
        import numpy
        numpy_version = numpy.__version__
    except ImportError:
        numpy_version = None
    return {
        "workload": workload,
        "seed": seed,
        "default_seed": wl.DEFAULT_SEED,
        "held_out_seed": wl.HELD_OUT_SEED,
        "cpu_count": os.cpu_count(),
        "workers": wl.workers() if workload == "paper_sweep" else 1,
        "python": platform.python_version(),
        "numpy": numpy_version,
        "columns_backend": getattr(columns, "BACKEND", "python"),
    }


def main(argv: list) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=16.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--write-reference", action="store_true")
    args = parser.parse_args(argv)
    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"perfbench: no repro sources at {SRC}", file=sys.stderr)
        return 2
    if args.workload is None and not args.write_reference:
        parser.error("--workload is required")

    sys.path.insert(0, str(SRC))
    import workloads as wl

    scratch = wl.Scratch(ROOT)
    if args.write_reference:
        import reference
        reference.write(scratch)
        return 0
    if args.trace:
        metrics, context, checks = wl.trace_workload(
            args.workload, args.seed, scratch, ROOT / ".perfbench" / "ledger"
        )
        units = {name: per_layer_unit(name) for name in metrics}
    elif args.workload in ("pdpa_runs", "baseline_runs"):
        metrics, context, checks = wl.batch(args.workload, args.seed, args.seconds)
        units = UNITS
    elif args.workload == "serve_stream":
        metrics, context, checks = wl.serve(args.seed, args.seconds, scratch)
        units = UNITS
    else:
        metrics, context, checks = wl.sweep(args.seed, args.seconds, scratch)
        units = UNITS
    scratch.drop(scratch.root)

    context.update(stamps(args.workload, args.seed))
    context["problems"] = checks.problems[:20]
    print(json.dumps(context, sort_keys=True))
    print(json.dumps({
        "correct": checks.failed == 0,
        "attempted": checks.attempted,
        "failed": checks.failed,
        "metrics": {
            name: {"value": value, "unit": units[name]}
            for name, value in metrics.items()
        },
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
