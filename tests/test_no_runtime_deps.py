"""The simulator runs on the standard library alone.

``repro`` declares no runtime dependencies.  This test imports the CLI
and runs one report-driven policy (PDPA) and one water-fill policy
(Equal_eff) in a fresh interpreter, then checks that no scientific
package was pulled in along the way — even on a machine where numpy
and scipy are installed.
"""

from __future__ import annotations

import os
import subprocess
import sys
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parent.parent

_PROBE = r"""
import sys

import repro.cli  # noqa: F401
from repro.experiments.common import ExperimentConfig, run_workload

for policy in ("PDPA", "Equal_eff"):
    run_workload(policy, "w1", 1.0, ExperimentConfig(seed=0))
leaked = sorted(name for name in ("numpy", "scipy") if name in sys.modules)
print(",".join(leaked))
"""


def test_cli_and_runs_import_no_third_party_packages():
    env = dict(os.environ)
    env["PYTHONPATH"] = str(REPO_ROOT / "src")
    result = subprocess.run(
        [sys.executable, "-c", _PROBE],
        capture_output=True, text=True, check=True,
        env=env, cwd=str(REPO_ROOT), timeout=300,
    )
    assert result.stdout.strip() == "", (
        "runtime imported third-party packages: " + result.stdout.strip()
    )
