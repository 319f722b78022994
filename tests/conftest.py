import hashlib
import json
import os
import sys
from pathlib import Path

import pytest

sys.path.insert(0, os.path.join(os.path.dirname(__file__), "..", "src"))

from delpezzo.cli import main  # noqa: E402

GATE_PATH = Path(__file__).resolve().parents[1] / "bench" / "digests.json"


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
