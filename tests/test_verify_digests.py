"""`verify --suite all` stays byte-identical to the digests the benchmark records.

perfbench/reference.json holds the sha256 and byte size of the stdout of
`python -m quasiflags.cli verify --n N --degree D --suite all`; this reads
it and changes nothing there.  Larger runs are pinned here by
test-local digests: `--suite all` at (4, 26); `--suite genfunc` at
(4, 30) and at (5, 36), whose Cousin tables take the widest slots of the
ladder (the second at n = 5, over 4,845 weights); `--suite euler` and
`--suite celldim` at (5, 36), whose cell table is the largest of the
ladder; `--suite pbw` at n = 5, the largest document any check
writes (38.9 MB), which takes the json writer through the most records;
the five sweep suites at (6, 45), which take the listed, Cousin and
cell tables to n = 6; and `--suite euler` and `--suite celldim` at
(6, 49), whose cell tables reach |alpha| = 14.
"""

import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent


# stdout of `verify --n 4 --degree 26 --suite all`, recorded at a4acb86
N4_DEGREE26 = {
    "sha256": "8c3855caf2121e844f3ec597d926b578e70a204d3972e1f9f3c1ec1df9c076b7",
    "bytes": 3446618,
}

# stdout of `verify --n 4 --degree 30 --suite genfunc`, recorded at a4acb86
N4_DEGREE30_GENFUNC = {
    "sha256": "63aa6fa3edacb920c34d6dadbcfbb14e9a23a70f62b8f21735ff41c30579dcf6",
    "bytes": 357274,
}

# stdout of `verify --n 5 --degree 36 --suite genfunc`, recorded at f7163cb
N5_DEGREE36_GENFUNC = {
    "sha256": "cbd1420c1c74a7c36517dd1a8cad8a53ac5860a8e39a57523a085948a6d09ccd",
    "bytes": 1057495,
}

# stdout of `verify --n 5 --degree 36 --suite euler` and `--suite celldim`, recorded at de700f9
N5_DEGREE36_EULER = {
    "sha256": "001f3a48136475fe6cec7e74aa1115aabbf48994d79020df30fed015edc24925",
    "bytes": 1365073,
}
N5_DEGREE36_CELLDIM = {
    "sha256": "78438c7665002c2d1a96c0869616a83773a38a93d091b96df67facd69ec19a1a",
    "bytes": 1072033,
}

# stdout of `verify --n 5 --degree 24 --suite pbw`, recorded at bb75c27
N5_DEGREE24_PBW = {
    "sha256": "4bfcd426b09984e332690a814b8f3e2084e18a55a284c289e891c7d66e85d9fa",
    "bytes": 38924402,
}

# stdout of `verify --n 6 --degree 45 --suite <suite>`, recorded at f84e3e1
N6_DEGREE45 = {
    "genfunc": {
        "sha256": "ad92314b6e3d4f4978c0c2bb679a8db911a7e5cb0af97027b3f74e10d0f0d8c4",
        "bytes": 706155,
    },
    "euler": {
        "sha256": "6f1e96255cda8cae64315350c7093ccab18fb1f94966f0863cd18b9631309252",
        "bytes": 897148,
    },
    "celldim": {
        "sha256": "c113f215136469c6374b6d6267e2d79a1e62dc8972bd86714015ce2b06008f4d",
        "bytes": 715167,
    },
    "characters": {
        "sha256": "061d957fcf72313f5eae9c810a5ed593a346c220b61978d5df3b904a82e53db7",
        "bytes": 1125990,
    },
    "freeness": {
        "sha256": "e3628413f936bca57b78740e40c1a9e23bb10197617d73bd208f9af18415d695",
        "bytes": 984884,
    },
}


# stdout of `verify --n 6 --degree 49 --suite <suite>`, recorded at 87c21ee
N6_DEGREE49 = {
    "euler": {
        "sha256": "9e0196ffceb1117559ca78d4eeaeacba524cb2871fe4603163c17ddcc18de79a",
        "bytes": 3481087,
    },
    "celldim": {
        "sha256": "f92994f0739814af36227f5d66f588ec8a52dead26a4d177317ce1fd295b77c5",
        "bytes": 2768543,
    },
}


def check_verify(n, degree, expected, suite="all"):
    argv = ["verify", "--n", str(n), "--degree", str(degree), "--suite", suite]
    proc = subprocess.run(
        [sys.executable, "-m", "quasiflags.cli", *argv],
        cwd=ROOT,
        env=dict(os.environ, PYTHONPATH=str(ROOT / "src")),
        capture_output=True,
    )
    assert proc.returncode == 0, proc.stderr[-4000:]
    assert len(proc.stdout) == expected["bytes"]
    assert hashlib.sha256(proc.stdout).hexdigest() == expected["sha256"]


@pytest.mark.parametrize("n,degree", [(2, 9), (3, 16), (3, 22), (4, 18)])
def test_verify_all_stdout_matches_reference(n, degree):
    reference = json.loads((ROOT / "perfbench" / "reference.json").read_text())
    check_verify(n, degree, reference["cli"][f"{n},{degree}"])


def test_verify_all_stdout_at_n4_degree26():
    check_verify(4, 26, N4_DEGREE26)


def test_verify_genfunc_stdout_at_n4_degree30():
    check_verify(4, 30, N4_DEGREE30_GENFUNC, suite="genfunc")


def test_verify_genfunc_stdout_at_n5_degree36():
    check_verify(5, 36, N5_DEGREE36_GENFUNC, suite="genfunc")


def test_verify_euler_stdout_at_n5_degree36():
    check_verify(5, 36, N5_DEGREE36_EULER, suite="euler")


def test_verify_celldim_stdout_at_n5_degree36():
    check_verify(5, 36, N5_DEGREE36_CELLDIM, suite="celldim")


def test_verify_pbw_stdout_at_n5():
    # pbw ignores --degree; 24 is the value the digest was recorded with
    check_verify(5, 24, N5_DEGREE24_PBW, suite="pbw")


@pytest.mark.parametrize("suite", sorted(N6_DEGREE45))
def test_verify_sweep_stdout_at_n6_degree45(suite):
    check_verify(6, 45, N6_DEGREE45[suite], suite=suite)


@pytest.mark.parametrize("suite", sorted(N6_DEGREE49))
def test_verify_cell_stdout_at_n6_degree49(suite):
    check_verify(6, 49, N6_DEGREE49[suite], suite=suite)
