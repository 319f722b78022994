import hashlib
import json
import os
import signal
import sys
from pathlib import Path

import pytest

sys.path.insert(0, os.path.join(os.path.dirname(__file__), "..", "src"))

from delpezzo.cli import main  # noqa: E402

GATE_PATH = Path(__file__).resolve().parents[1] / "bench" / "digests.json"

# the slowest test takes about 1.5 s; a hang (say, a wrong divisibility
# test in exact division) must read as a failure, not stall the run
TIME_LIMIT_S = 120


@pytest.fixture(autouse=True)
def time_limit():
    """Fail a test still running after ``TIME_LIMIT_S`` seconds of wall
    time, through SIGALRM; where the platform has none, tests run unlimited."""
    if not hasattr(signal, "SIGALRM"):
        yield
        return

    def expire(signum, frame):
        raise TimeoutError(f"test still running after {TIME_LIMIT_S} s")
    previous = signal.signal(signal.SIGALRM, expire)
    signal.setitimer(signal.ITIMER_REAL, TIME_LIMIT_S)
    try:
        yield
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)


@pytest.fixture(scope="session")
def gate():
    """The sha256 digests recorded for the benchmark's output gate; the
    file is only read."""
    return json.loads(GATE_PATH.read_text(encoding="utf-8"))


@pytest.fixture
def stdout_digest(capsys):
    """sha256 of the stdout of a ``delpezzo`` command that exits 0."""
    def digest(argv):
        assert main(argv) == 0
        return hashlib.sha256(capsys.readouterr().out.encode("utf-8")).hexdigest()
    return digest
