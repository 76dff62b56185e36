"""`verify --suite all` stays byte-identical to the digests the benchmark records.

perfbench/reference.json holds the sha256 and byte size of the stdout of
`python -m quasiflags.cli verify --n N --degree D --suite all`; this reads
it and changes nothing there.
"""

import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent


@pytest.mark.parametrize("n,degree", [(2, 9), (3, 16), (3, 22), (4, 18)])
def test_verify_all_stdout_matches_reference(n, degree):
    reference = json.loads((ROOT / "perfbench" / "reference.json").read_text())
    expected = reference["cli"][f"{n},{degree}"]
    argv = ["verify", "--n", str(n), "--degree", str(degree), "--suite", "all"]
    proc = subprocess.run(
        [sys.executable, "-m", "quasiflags.cli", *argv],
        cwd=ROOT,
        env=dict(os.environ, PYTHONPATH=str(ROOT / "src")),
        capture_output=True,
    )
    assert proc.returncode == 0, proc.stderr[-4000:]
    assert len(proc.stdout) == expected["bytes"]
    assert hashlib.sha256(proc.stdout).hexdigest() == expected["sha256"]
