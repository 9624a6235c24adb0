#!/usr/bin/env python
"""CI smoke test for crash-safe resumable training.

Proves the ``repro train`` checkpoint contract end to end against the
real CLI, as real processes:

1. a straight (uninterrupted) ``--scale tiny`` train saves its suite
   and its telemetry, whose ``phase2.rows{best}`` counters must be
   non-zero;
2. the same train is started with ``--checkpoint-every 2`` in a fresh
   cache, SIGTERMed as soon as the first Phase I checkpoint lands, and
   must exit 143 after flushing resumable checkpoints (one per candidate
   set of the app family whose seed loop was running);
3. ``--resume`` continues the interrupted train to completion: every
   saved suite file must be **byte-identical** to the straight run's,
   and the checkpoints directory must be left empty.  The records
   restored from the checkpoints carry their features, so this run's
   Phase II joins exactly the straight run's rows: its
   ``phase2.rows{best}`` counters must equal the straight run's.

Exits non-zero (with a diagnostic) on the first violated expectation.
Run from the repo root:
``PYTHONPATH=src python scripts/train_resume_smoke.py``.
"""

from __future__ import annotations

import json
import os
import signal
import subprocess
import sys
import tempfile
import time
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parents[1]

MACHINE = "core2"
SCALE = "tiny"


def fail(message: str) -> None:
    print(f"train-resume-smoke: FAIL: {message}", file=sys.stderr)
    sys.exit(1)


def check(condition: bool, message: str) -> None:
    if not condition:
        fail(message)
    print(f"train-resume-smoke: ok: {message}")


def train_command(*extra: str) -> list[str]:
    return [sys.executable, "-m", "repro.cli", "train",
            "--machine", MACHINE, "--scale", SCALE, *extra]


def environment(cache: Path) -> dict:
    return dict(os.environ, PYTHONPATH=str(REPO_ROOT / "src"),
                PYTHONUNBUFFERED="1", REPRO_CACHE_DIR=str(cache))


def run(command: list[str], cache: Path) -> subprocess.CompletedProcess:
    return subprocess.run(command, env=environment(cache), text=True,
                          capture_output=True, timeout=900)


def suite_files(cache: Path) -> dict[str, bytes]:
    directory = cache / "suites" / f"{MACHINE}-{SCALE}"
    return {path.name: path.read_bytes()
            for path in sorted(directory.glob("*.json"))}


def phase2_rows(telemetry: Path) -> dict[str, int]:
    """The ``phase2.rows{best}`` counters of a ``--telemetry`` file."""
    counters = json.loads(telemetry.read_text())["payload"]["metrics"][
        "counters"]
    return {key: value for key, value in counters.items()
            if key.startswith("phase2.rows{")}


def main() -> int:
    tmp = Path(tempfile.mkdtemp(prefix="train-resume-smoke-"))
    straight_cache = tmp / "straight"
    resumed_cache = tmp / "resumed"
    checkpoints = resumed_cache / "checkpoints" / f"{MACHINE}-{SCALE}"

    print("train-resume-smoke: straight run ...")
    telemetry = tmp / "straight.telemetry.json"
    straight = run(train_command("--telemetry", str(telemetry)),
                   straight_cache)
    check(straight.returncode == 0,
          f"straight run exited 0 (got {straight.returncode}; "
          f"stderr: {straight.stderr[-500:]})")
    expected = suite_files(straight_cache)
    check("suite.json" in expected and len(expected) > 1,
          f"straight run saved a suite ({sorted(expected)})")
    straight_rows = phase2_rows(telemetry)
    check(sum(straight_rows.values()) > 0,
          f"Phase II emitted rows ({straight_rows})")

    print("train-resume-smoke: interrupted run ...")
    proc = subprocess.Popen(
        train_command("--checkpoint-every", "2"),
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
        env=environment(resumed_cache))
    try:
        deadline = time.monotonic() + 600.0
        while (not any(checkpoints.glob("*.phase1.json"))
               and proc.poll() is None and time.monotonic() < deadline):
            time.sleep(0.05)
        check(any(checkpoints.glob("*.phase1.json"))
              and proc.poll() is None,
              "first Phase I checkpoint flushed while training ran")
        proc.send_signal(signal.SIGTERM)
        out, err = proc.communicate(timeout=120)
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.communicate()
    check(proc.returncode == 143,
          f"SIGTERM exited 143 (got {proc.returncode}; "
          f"stderr: {err[-500:]})")
    check("--resume" in err, "interrupt message points at --resume")
    phase1 = sorted(checkpoints.glob("*.phase1.json"))
    states = [json.loads(path.read_text())["payload"] for path in phase1]
    check(bool(states) and not any(s["complete"] for s in states),
          "Phase I checkpoints are resumable boundaries "
          f"({[path.name for path in phase1]})")

    print("train-resume-smoke: resuming ...")
    resumed_telemetry = tmp / "resumed.telemetry.json"
    resumed = run(train_command("--resume", "--telemetry",
                                str(resumed_telemetry)), resumed_cache)
    check(resumed.returncode == 0,
          f"resumed run exited 0 (got {resumed.returncode}; "
          f"stderr: {resumed.stderr[-500:]})")
    found = suite_files(resumed_cache)
    check(sorted(found) == sorted(expected),
          f"resumed run saved the same suite files ({sorted(found)})")
    for name in sorted(expected):
        check(found[name] == expected[name],
              f"{name} is byte-identical to the straight run's")
    check(not any(checkpoints.iterdir()),
          "checkpoints were removed once the suite trained")
    resumed_rows = phase2_rows(resumed_telemetry)
    check(resumed_rows == straight_rows,
          f"resumed Phase II rows equal the straight run's ({resumed_rows})")

    print("train-resume-smoke: PASS")
    return 0


if __name__ == "__main__":
    sys.exit(main())
