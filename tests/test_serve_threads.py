"""Serve worker threads end with their service.

Every serve test drains and closes the services it builds, so running
the serve test files in one process must leave no dispatcher worker
alive.  The files run in a child interpreter, which counts the
``repro-serve-worker-*`` threads left when its pytest session ends.
"""

import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SERVE_FILES = ("tests/test_serve.py", "tests/test_serve_batch.py",
               "tests/test_registry_serve.py", "tests/test_serve_parity.py")

CHILD = """
import sys, threading
import pytest
code = pytest.main(["-q", "-p", "no:cacheprovider", *sys.argv[1:]])
workers = [t for t in threading.enumerate()
           if t.name.startswith("repro-serve-worker-")]
for worker in workers:
    worker.join(5.0)
print("ALIVE", sum(worker.is_alive() for worker in workers))
sys.exit(int(code))
"""


def test_serve_files_leave_no_worker_thread():
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, (str(ROOT / "src"), env.get("PYTHONPATH"))))
    proc = subprocess.run(
        [sys.executable, "-c", CHILD, *SERVE_FILES], cwd=ROOT, env=env,
        capture_output=True, text=True, timeout=600)
    assert proc.returncode == 0, proc.stdout[-2000:] + proc.stderr[-2000:]
    assert proc.stdout.splitlines()[-1] == "ALIVE 0"
