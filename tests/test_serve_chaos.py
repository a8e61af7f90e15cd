"""Process-level chaos for the streaming service (CLI boundary).

These tests SIGKILL real ``repro serve`` subprocesses mid-stream, tear
journal tails, wedge the arrival source behind a FIFO that never
delivers, and SIGTERM a run that would otherwise stream forever.  The
properties under test are the tentpole contracts end to end:

* a SIGKILL'd run restored from its snapshot + journal finishes with a
  **byte-identical** stats digest to the uninterrupted run;
* a torn journal tail (crash mid-``write``) is tolerated on resume;
* the no-progress watchdog turns a silent hang into
  :data:`EXIT_WEDGED` with a ``wedged`` status record;
* SIGTERM closes the arrival tap and drains to exit 0.

Excluded from tier-1 (``-m "not chaos"`` via addopts); run as a
separate CI job.  Snapshots and journals land in the artifact dir so a
failing CI run uploads them for post-mortem.
"""

from __future__ import annotations

import json
import os
import signal
import subprocess
import sys
import time
from pathlib import Path

import pytest

pytestmark = pytest.mark.chaos

REPO_ROOT = Path(__file__).resolve().parent.parent

#: enough stream to leave a wide kill window, small enough to finish fast
STREAM_JOBS = 5000
KILL_AFTER_LINES = 1500


@pytest.fixture
def artifact_dir(tmp_path):
    override = os.environ.get("CHAOS_ARTIFACT_DIR")
    if override:
        path = Path(override)
        path.mkdir(parents=True, exist_ok=True)
        return path
    return tmp_path


def _cli_env():
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(REPO_ROOT / "src"), str(REPO_ROOT)]
        + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else [])
    )
    return env


def _cli(args, **kwargs):
    return subprocess.run(
        [sys.executable, "-m", "repro"] + args,
        env=_cli_env(), cwd=str(REPO_ROOT),
        stdout=subprocess.PIPE, stderr=subprocess.PIPE,
        text=True, timeout=300, **kwargs,
    )


def _digest(stdout: str) -> str:
    for line in stdout.splitlines():
        line = line.strip()
        if line.startswith("stats digest "):
            return line.split()[-1]
    raise AssertionError(f"no stats digest in output:\n{stdout}")


def _wait_for_lines(path: Path, n: int, proc, timeout: float = 120.0) -> None:
    """Poll until the journal holds >= n lines (the kill window)."""
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        if path.exists() and path.read_bytes().count(b"\n") >= n:
            return
        if proc.poll() is not None:
            raise AssertionError(
                f"serve exited (rc={proc.returncode}) before the kill "
                f"window: {proc.stderr.read() if proc.stderr else ''}"
            )
        time.sleep(0.02)
    raise AssertionError(f"journal never reached {n} lines")


def _serve_args(workdir: Path, checkpoint: bool = True):
    args = ["--seed", "7", "--cpus", "16"]
    if checkpoint:
        args += ["--checkpoint-dir", str(workdir / "ck"),
                 "--checkpoint-every", "200"]
    args += [
        "serve", "PDPA", "--workload", "w2", "--load", "1.0",
        "--max-jobs", str(STREAM_JOBS),
        "--journal", str(workdir / "arrivals.jsonl"),
    ]
    return args


def _last_journal_seq(path: Path) -> int:
    """Highest ``seq`` among the journal's complete lines (-1 if none)."""
    # the last element is a torn line, or empty after a trailing newline
    for line in reversed(path.read_bytes().split(b"\n")[:-1]):
        try:
            return int(json.loads(line)["seq"])
        except (ValueError, KeyError):
            continue
    return -1


def _stop_past_snapshot(
    proc, journal: Path, snapshot: Path, timeout: float = 120.0
) -> None:
    """Leave *proc* SIGSTOPped once the journal runs past the snapshot.

    A kill that lands after an autosnapshot but before the next draw
    is journalled leaves nothing to replay-verify.  So the server is
    frozen, the snapshot's ``drawn`` cursor compared with the journal,
    and the server resumed and polled again until the journal holds a
    record with ``seq > drawn``.
    """
    from repro.checkpoint import read_meta

    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        os.kill(proc.pid, signal.SIGSTOP)
        if snapshot.exists() and (
            _last_journal_seq(journal) > read_meta(snapshot)["drawn"]
        ):
            return
        os.kill(proc.pid, signal.SIGCONT)
        if proc.poll() is not None:
            raise AssertionError(
                f"serve exited (rc={proc.returncode}) before the journal "
                f"ran past its snapshot"
            )
        time.sleep(0.02)
    raise AssertionError("journal never ran past the snapshot cursor")


def _kill_midstream(workdir: Path) -> Path:
    """Start a journalled serve run and SIGKILL it mid-stream.

    The kill lands while the journal holds at least one record past
    the snapshot's cursor.  Returns the snapshot path left behind by
    the periodic checkpoints.
    """
    journal = workdir / "arrivals.jsonl"
    snapshot = workdir / "ck" / "serve-PDPA.ckpt"
    proc = subprocess.Popen(
        [sys.executable, "-m", "repro"] + _serve_args(workdir),
        env=_cli_env(), cwd=str(REPO_ROOT),
        stdout=subprocess.DEVNULL, stderr=subprocess.PIPE, text=True,
    )
    try:
        _wait_for_lines(journal, KILL_AFTER_LINES, proc)
        _stop_past_snapshot(proc, journal, snapshot)
    finally:
        if proc.poll() is None:
            os.kill(proc.pid, signal.SIGKILL)
        proc.wait(timeout=30)
    assert proc.returncode == -signal.SIGKILL
    assert snapshot.exists(), "no checkpoint landed before the kill"
    return snapshot


class TestSigkillThenRestore:
    def test_restore_finishes_byte_identical(self, artifact_dir):
        workdir = artifact_dir / "sigkill"
        workdir.mkdir(parents=True, exist_ok=True)

        baseline = _cli(_serve_args(workdir / "baseline", checkpoint=False))
        assert baseline.returncode == 0, baseline.stderr
        want = _digest(baseline.stdout)

        snapshot = _kill_midstream(workdir)
        restored = _cli([
            "--seed", "7", "--cpus", "16",
            "serve", "PDPA", "--workload", "w2", "--load", "1.0",
            "--max-jobs", str(STREAM_JOBS),
            "--journal", str(workdir / "arrivals.jsonl"),
            "--restore", str(snapshot),
        ])
        assert restored.returncode == 0, restored.stderr
        assert _digest(restored.stdout) == want
        # the journal tail past the snapshot was verified, not assumed
        verified = [l for l in restored.stdout.splitlines()
                    if "replay-verified=" in l]
        assert verified and not verified[0].strip().endswith(
            "replay-verified=0"
        ), restored.stdout

    def test_torn_journal_tail_tolerated(self, artifact_dir):
        workdir = artifact_dir / "torn"
        workdir.mkdir(parents=True, exist_ok=True)
        snapshot = _kill_midstream(workdir)
        journal = workdir / "arrivals.jsonl"
        with open(journal, "ab") as handle:
            handle.write(b'{"v":1,"seq":99999,"jo')  # crash mid-write
        restored = _cli([
            "--seed", "7", "--cpus", "16",
            "serve", "PDPA", "--workload", "w2", "--load", "1.0",
            "--max-jobs", str(STREAM_JOBS),
            "--journal", str(journal),
            "--restore", str(snapshot),
        ])
        assert restored.returncode == 0, restored.stderr

    def test_tampered_journal_refused(self, artifact_dir):
        workdir = artifact_dir / "tamper"
        workdir.mkdir(parents=True, exist_ok=True)
        snapshot = _kill_midstream(workdir)
        journal = workdir / "arrivals.jsonl"

        from repro.checkpoint import read_meta

        cursor = read_meta(snapshot)["drawn"]
        lines = journal.read_text().splitlines()
        tampered = []
        hit = False
        for line in lines:
            entry = json.loads(line)
            if entry["seq"] == cursor + 1:
                entry["request"] += 1
                hit = True
            tampered.append(json.dumps(entry, sort_keys=True))
        assert hit, f"journal holds no entry past the cursor {cursor}"
        journal.write_text("\n".join(tampered) + "\n")

        restored = _cli([
            "--seed", "7", "--cpus", "16",
            "serve", "PDPA", "--workload", "w2", "--load", "1.0",
            "--max-jobs", str(STREAM_JOBS),
            "--journal", str(journal),
            "--restore", str(snapshot),
        ])
        assert restored.returncode != 0
        assert "replay mismatch" in restored.stderr


class TestWatchdog:
    def test_wedged_source_exits_3(self, artifact_dir):
        workdir = artifact_dir / "wedged"
        workdir.mkdir(parents=True, exist_ok=True)
        fifo = workdir / "arrivals.swf"
        os.mkfifo(fifo)
        status = workdir / "status.json"
        # hold the write end open but never write: draw() blocks forever
        holder = os.open(fifo, os.O_RDWR)
        try:
            proc = subprocess.Popen(
                [sys.executable, "-m", "repro", "--seed", "7", "--cpus", "16",
                 "serve", "PDPA", "--swf", str(fifo),
                 "--watchdog", "1",
                 "--status-file", str(status)],
                env=_cli_env(), cwd=str(REPO_ROOT),
                stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
            )
            proc.wait(timeout=60)
        finally:
            os.close(holder)
            if proc.poll() is None:
                proc.kill()
                proc.wait(timeout=10)
        assert proc.returncode == 3, (proc.stdout.read(), proc.stderr.read())
        record = json.loads(status.read_text())
        assert record["phase"] == "wedged"


class TestSigtermDrain:
    def test_sigterm_closes_the_tap_and_drains(self, artifact_dir):
        workdir = artifact_dir / "sigterm"
        workdir.mkdir(parents=True, exist_ok=True)
        status = workdir / "status.json"
        proc = subprocess.Popen(
            [sys.executable, "-m", "repro", "--seed", "7", "--cpus", "16",
             "serve", "PDPA", "--workload", "w2", "--load", "1.0",
             "--max-jobs", "0",  # stream forever
             "--status-file", str(status)],
            env=_cli_env(), cwd=str(REPO_ROOT),
            stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
        )
        try:
            deadline = time.monotonic() + 60
            while time.monotonic() < deadline and not status.exists():
                assert proc.poll() is None, proc.stderr.read()
                time.sleep(0.02)
            assert status.exists(), "no status heartbeat before the deadline"
            proc.send_signal(signal.SIGTERM)
            proc.wait(timeout=120)
        finally:
            if proc.poll() is None:
                proc.kill()
                proc.wait(timeout=10)
        out, err = proc.stdout.read(), proc.stderr.read()
        assert proc.returncode == 0, (out, err)
        assert "drained" in out
        record = json.loads(status.read_text())
        assert record["phase"] == "drained"
