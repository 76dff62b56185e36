"""CLI surface: commands, formats, schema validation, exit codes, determinism."""

import hashlib
import io
import json
import os
import re
import subprocess
import sys
from importlib import resources

import jsonschema
import pytest

from quasiflags import cli
from quasiflags.reports import CONJECTURE, FAIL, PASS, THEOREM, Entry, Report
from quasiflags.suites import exit_code


def run_cli(argv):
    out = io.StringIO()
    code = cli.main(argv, out=out)
    return code, out.getvalue()


def run_json(argv):
    code, text = run_cli(argv)
    return code, json.loads(text)


@pytest.fixture(scope="module")
def schema():
    path = resources.files("quasiflags").joinpath("schema/output.schema.json")
    return json.loads(path.read_text())


def test_kostant_rows(schema):
    code, doc = run_json(["kostant", "--n", "3", "--gamma", "1,1"])
    assert code == 0
    assert len(doc["rows"]) == 2
    jsonschema.validate(doc, schema)

    code, doc = run_json(["kostant", "--n", "2", "--gamma", "0"])
    assert code == 0
    assert doc["rows"] == [{"partition": [], "weight": [0], "norm": 0, "summands": 0}]

    code, doc = run_json(["kostant", "--n", "3", "--gamma", "2,1"])
    assert code == 0
    assert len(doc["rows"]) == 2
    jsonschema.validate(doc, schema)


def test_poincare_output(schema):
    code, doc = run_json(["poincare", "--n", "2", "--alpha", "1"])
    assert code == 0
    assert doc["result"]["pretty"] == "1 + t + t^2 + t^3"
    jsonschema.validate(doc, schema)

    code, doc = run_json(["poincare", "--n", "2", "--alpha", "0"])
    assert doc["result"]["pretty"] == "1 + t"

    code, doc = run_json(["poincare", "--n", "3", "--alpha", "1,0", "--shifted"])
    assert doc["result"]["pretty"] == "q^-5 + 2*q^-3 + 3*q^-1 + 3*q + 2*q^3 + q^5"
    jsonschema.validate(doc, schema)


def test_genfunc_output(schema):
    code, doc = run_json(["genfunc", "--n", "2", "--degree", "4"])
    assert code == 0
    jsonschema.validate(doc, schema)
    series = {tuple(alpha): dict() for alpha, _ in doc["result"]["series"]}
    assert set(series) == {(1,), (2,), (3,), (4,)}

    # support condition for n=3 at low degree
    code, doc = run_json(["genfunc", "--n", "3", "--degree", "4"])
    assert code == 0
    assert [alpha for alpha, _ in doc["result"]["series"]] == [[2, 2]]


def test_genfunc_degree_usage_error(capsys):
    code, _ = run_cli(["genfunc", "--n", "3", "--degree", "2"])
    assert code == 2


@pytest.mark.parametrize("command", ["genfunc", "verify"])
def test_command_has_no_cap_option(command, capsys):
    code, out = run_cli([command, "--n", "2", "--degree", "4", "--cap", "5"])
    assert code == 2
    assert out == ""
    assert "--cap" in capsys.readouterr().err


def test_cells_rows(schema):
    code, doc = run_json(["cells", "--n", "2", "--alpha", "1", "--dims"])
    assert code == 0
    assert len(doc["rows"]) == 4
    assert sorted(r["d_conjectured"] for r in doc["rows"]) == [0, 1, 2, 3]
    jsonschema.validate(doc, schema)

    code, doc = run_json(["cells", "--n", "2", "--alpha", "0"])
    assert len(doc["rows"]) == 2
    assert "d_conjectured" not in doc["rows"][0]

    code, doc = run_json(["cells", "--n", "3", "--alpha", "1,0"])
    assert len(doc["rows"]) == 12


def test_verify_all_n2(schema):
    code, doc = run_json(["verify", "--n", "2", "--degree", "9", "--suite", "all"])
    assert code == 0
    assert doc["summary"]["status"] == "PASS"
    assert {s["suite"] for s in doc["suites"]} == {
        "genfunc",
        "euler",
        "celldim",
        "serre",
        "pbw",
        "commute",
        "characters",
        "freeness",
    }
    jsonschema.validate(doc, schema)


def test_verify_single_suites():
    code, doc = run_json(["verify", "--n", "3", "--degree", "8", "--suite", "serre"])
    assert code == 0
    assert len(doc["suites"]) == 1
    assert doc["suites"][0]["entries"]

    code, doc = run_json(["verify", "--n", "2", "--degree", "9", "--suite", "celldim"])
    assert code == 0
    entries = doc["suites"][0]["entries"]
    assert entries and all(e["category"] == "CONJECTURE" for e in entries)
    assert all(e["status"] == "PASS" for e in entries)


def test_verify_unknown_suite_is_usage_error():
    code, _ = run_cli(["verify", "--n", "2", "--degree", "9", "--suite", "nope"])
    assert code == 2


def test_verify_negative_degree_is_usage_error(capsys):
    code, out = run_cli(["verify", "--n", "2", "--degree", "-3"])
    assert code == 2
    assert out == ""
    assert "--degree must be nonnegative" in capsys.readouterr().err


@pytest.mark.parametrize(
    "n, degree, suite",
    [(3, 3, "euler"), (3, 3, "freeness"), (9, 40, "euler"), (2, 5, "serre")],
)
def test_verify_with_nothing_to_check_is_usage_error(capsys, n, degree, suite):
    # euler, freeness: degree below |2rho| leaves no alpha and a zero Verma
    # series; serre: n=2 has no adjacent pair
    code, out = run_cli(["verify", "--n", str(n), "--degree", str(degree), "--suite", suite])
    assert code == 2
    assert out == ""
    assert capsys.readouterr().err.startswith("error:")


def test_verify_all_notes_each_suite_with_nothing_to_check(capsys):
    # degree 3 is below |2rho| = 4: the five sweeps have no alpha, while
    # serre, pbw and commute have fixed sizes and check something
    code, doc = run_json(["verify", "--n", "3", "--degree", "3", "--suite", "all"])
    assert code == 0
    empty = ["genfunc", "euler", "celldim", "characters", "freeness"]
    assert [s["suite"] for s in doc["suites"] if not s["checks"]] == empty
    assert capsys.readouterr().err.splitlines() == [
        f"note: suite {name} has nothing to check at n=3, degree=3" for name in empty
    ]


def test_deep_rank_enumeration_succeeds(schema):
    # 1,225 coroots at n=50: the enumeration must not take one recursion
    # level per coroot that cannot fit
    gamma = ",".join(["0"] * 48 + ["1"])
    code, doc = run_json(["kostant", "--n", "50", "--gamma", gamma])
    assert code == 0
    partitions = [row["partition"] for row in doc["rows"]]
    assert partitions == [[{"coroot": [49, 49], "mult": 1}]]
    jsonschema.validate(doc, schema)

    alpha = ",".join(["0"] * 45 + ["1"])
    code, doc = run_json(["poincare", "--n", "47", "--alpha", alpha])
    assert code == 0
    assert doc["result"]["dimension"] == 47 * 46 // 2 + 2  # dim B + 2|alpha|
    jsonschema.validate(doc, schema)

    # the listing and the Cousin table stay in the box below alpha (7
    # weights here), not the simplex of all rank-49 weights of height
    # <= 6; the digest pins the packed W(1/t) of S_50, 1,226 slots wide
    alpha = ",".join(["6"] + ["0"] * 48)
    code, text = run_cli(["poincare", "--n", "50", "--alpha", alpha])
    assert code == 0
    assert hashlib.sha256(text.encode()).hexdigest() == (
        "3c5f733214b0ae4950168756e8c649b243f8f4bc4a39a7189ec5e736cae14b7c"
    )
    doc = json.loads(text)
    assert doc["result"]["dimension"] == 50 * 49 // 2 + 12
    jsonschema.validate(doc, schema)


@pytest.mark.parametrize(
    "argv,digest",
    [
        (
            "poincare --n 4 --alpha 3,2,3",
            "17e09ff061d1ec1ea94caa6c11b8ae2a3c760be5754e2bfa23309e88b1cd62f0",
        ),
        (
            "poincare --n 6 --alpha 2,2,2,2,2",
            "12c3b5b3ad0ea26e4ee08633c29c460f48c5fb728c5e1c606f787dff7aacd32a",
        ),
    ],
)
def test_poincare_of_one_box_is_pinned(argv, digest):
    # in a fresh process the Cousin recurrence runs over the box below alpha
    # alone; the output is the same over any listed downset that holds alpha
    code, text = run_cli(argv.split())
    assert code == 0
    assert hashlib.sha256(text.encode()).hexdigest() == digest


def test_poincare_over_many_simple_coordinates():
    # 2^10 weights in the box below alpha, listed by one walk over the 55
    # coroots that fit at n=11; the digest pins the output
    alpha = ",".join(["1"] * 10)
    code, text = run_cli(["poincare", "--n", "11", "--alpha", alpha])
    assert code == 0
    assert hashlib.sha256(text.encode()).hexdigest() == (
        "deed4c7e68a9cdf0bd125e4ad7306115aeccecab40a4fa3bd2474b519e7bdab5"
    )


@pytest.mark.parametrize(
    "argv,digest",
    [
        (
            "kostant --n 5 --gamma 2,2,2,2",
            "a4cbf8c2b9ca263d46c90f3b155f8ba0562b1b01904da10cb78cfdc491d59d2f",
        ),
        (
            "cells --n 4 --alpha 2,1,1 --dims",
            "bcd2cac448efab32a6430b2e17852cf2b78a8c214f139e1bc41caa8c6a7a5a4e",
        ),
        (
            "cells --n 3 --alpha 2,1",
            "88cdf4a0d188fc05188963997614c718d76d76c344db4e6054c54961c0b4df09",
        ),
    ],
)
def test_listing_output_is_pinned(argv, digest):
    # the digests pin the order of the listed partitions and of the cells
    code, text = run_cli(argv.split())
    assert code == 0
    assert hashlib.sha256(text.encode()).hexdigest() == digest


@pytest.mark.parametrize(
    "argv,fmt,size,digest",
    [
        (
            "verify --n 3 --degree 22 --suite all", "csv", 55_369,
            "e6e7e28895a09d7c4b2f6c3467245cd887d068eea0e668a6eaf015cf08e604c2",
        ),
        (
            "verify --n 3 --degree 22 --suite all", "latex", 62_455,
            "69636742e7ad4888e5001aefd5c84a0ca814fe134bf2629fe0ea45a968c4d537",
        ),
        (
            "kostant --n 4 --gamma 2,2,1", "csv", 864,
            "7fd4b2163c422060744af7e2668ebc4cf6eb0aaa89fdced4f53f23aa739bd306",
        ),
        (
            "kostant --n 4 --gamma 2,2,1", "latex", 911,
            "10a93dcc3fc043e8f122b21c437058cd835c618ed22ee4bf2d3d18d2d1bd5f26",
        ),
        (
            "poincare --n 4 --alpha 1,2,1 --shifted", "csv", 110,
            "c98cda72a77444d99cbfac96ee0f9937f5fffa38ad2b6c13937bdfe2eda7fe1e",
        ),
        (
            "poincare --n 4 --alpha 1,2,1 --shifted", "latex", 231,
            "53769adc8b1031126ff7d6ab24a5c38f6c0773c8daa52f64dcac390dbbf20caa",
        ),
        (
            "genfunc --n 3 --degree 10", "csv", 4_715,
            "d608d753da5f4b3648b646fac221557a57352b21b093c37d4cdad6f3ba203818",
        ),
        (
            "genfunc --n 3 --degree 10", "latex", 4_117,
            "b6a9148185b93285b3c3bd02c55e01e82dda8b51d87a7bf7e754cc992c36571e",
        ),
        (
            "cells --n 3 --alpha 2,1 --dims", "csv", 5_979,
            "8a6bc87654f9ada557cfb7de61515d3484440296ea0ad830ba9babb5b6675edf",
        ),
        (
            "cells --n 3 --alpha 2,1 --dims", "latex", 6_119,
            "bb0c275683e7928ad415a221bb7537e4bc9bb0a4c4ff2c341874d696232c9261",
        ),
    ],
)
def test_table_output_is_pinned(argv, fmt, size, digest):
    # every command's csv and latex table, byte for byte
    code, text = run_cli([*argv.split(), "--format", fmt])
    assert code == 0
    data = text.encode()
    assert (len(data), hashlib.sha256(data).hexdigest()) == (size, digest)


def test_exception_in_a_suite_is_internal_error(monkeypatch, capsys):
    from quasiflags import suites

    def broken(n, degree):
        raise RuntimeError("injected\nfault")

    # _RUNNERS is read-only: swap in a patched copy
    monkeypatch.setattr(suites, "_RUNNERS", {**suites._RUNNERS, "genfunc": broken})
    code, out = run_cli(["verify", "--n", "2", "--degree", "9", "--suite", "genfunc"])
    assert code == 4
    assert out == ""
    assert capsys.readouterr().err == "internal error: RuntimeError('injected\\nfault')\n"


CLOSED_OUTPUT = "error: output closed before the document was written\n"


class _ClosedPipe(io.StringIO):
    def write(self, text):
        raise BrokenPipeError(32, "Broken pipe")


def test_closed_output_is_exit_4(capsys):
    code = cli.main(["kostant", "--n", "3", "--gamma", "1,1"], out=_ClosedPipe())
    assert code == 4
    assert capsys.readouterr().err == CLOSED_OUTPUT


def test_closed_stdout_exits_4_without_a_traceback():
    argv = [sys.executable, "-m", "quasiflags.cli", "kostant", "--n", "3", "--gamma", "1,1"]
    read_end, write_end = os.pipe()
    os.close(read_end)  # no reader: every write to stdout fails
    try:
        proc = subprocess.run(argv, stdout=write_end, stderr=subprocess.PIPE, timeout=60)
    finally:
        os.close(write_end)
    assert proc.returncode == 4
    # one line, and no "Exception ignored" from the flush at shutdown
    assert proc.stderr.decode() == CLOSED_OUTPUT


@pytest.mark.parametrize(
    "argv,expected",
    [
        (["verify", "--n", "3", "--degree", "-1"], 2),
        (["verify", "--n", "1", "--degree", "8"], 2),
        (["poincare", "--n", "3", "--alpha", "9,9"], 2),
        (["verify", "--n", "3"], 2),  # argparse: --degree missing
        (["verify", "--n", "3", "--degree", "8", "--suite", "euler"], 4),
    ],
)
def test_closed_stdout_and_stderr_keep_the_exit_code(argv, expected):
    # as in `quasiflags ... 2>&1 | head -c 10`: both streams are one pipe
    # without a reader, so every message is lost; an exception that escaped
    # while writing one would exit 1, and the interpreter's failed exit
    # flush 120
    read_end, write_end = os.pipe()
    os.close(read_end)
    try:
        proc = subprocess.run(
            [sys.executable, "-m", "quasiflags.cli", *argv],
            stdout=write_end,
            stderr=write_end,
            timeout=60,
        )
    finally:
        os.close(write_end)
    assert proc.returncode == expected


def _route_counts(suite, entry):
    """The {"symbolic", "f2", "f3"} counts recorded in one failing entry."""
    if suite == "serre":
        return list(entry["details"]["routes"].values())
    if suite == "commute":
        return list(entry["details"].values())
    return [
        {"symbolic": c["symbolic"], "f2": c["count"], "f3": c.get("f3", c["count"])}
        for c in entry["details"]["cases"]
    ]


@pytest.mark.parametrize("route", ["symbolic", "f3"])
@pytest.mark.parametrize("suite", ["serre", "pbw", "commute"])
def test_route_disagreement_is_a_theorem_fail(monkeypatch, suite, route):
    from quasiflags import quiverfilt

    symbolic = quiverfilt.count_filtrations_symbolic
    bruteforce = quiverfilt.count_filtrations_bruteforce

    def symbolic_off_by_one(rep, steps):
        count = symbolic(rep, steps)
        return None if count is None else count + 1

    def f3_off_by_one(rep, steps, p):
        return bruteforce(rep, steps, p) + (p == 3)

    if route == "symbolic":
        monkeypatch.setattr(quiverfilt, "count_filtrations_symbolic", symbolic_off_by_one)
    else:
        monkeypatch.setattr(quiverfilt, "count_filtrations_bruteforce", f3_off_by_one)
    code, doc = run_json(["verify", "--n", "4", "--degree", "10", "--suite", suite])
    assert code == 1
    assert doc["summary"]["status"] == "FAIL"
    failed = [e for e in doc["suites"][0]["entries"] if e["status"] == FAIL]
    assert failed and all(e["category"] == THEOREM for e in failed)
    for entry in failed:
        # both sides of the disagreement are in the entry
        assert any(r[route] == r["f2"] + 1 for r in _route_counts(suite, entry))


def test_celldim_conjecture_failure_is_reported(monkeypatch):
    from quasiflags import cells

    cell_sum = cells.cell_dimension_poly

    def every_cell_one_degree_up(alpha):
        return cell_sum(alpha).shift(2)

    monkeypatch.setattr(cells, "cell_dimension_poly", every_cell_one_degree_up)
    argv = ["verify", "--n", "2", "--degree", "4", "--suite", "celldim"]
    code, doc = run_json(argv)
    assert code == 3
    assert doc["summary"]["status"] == "FAIL"
    entries = doc["suites"][0]["entries"]
    assert entries and all(e["status"] == FAIL for e in entries)
    for entry in entries:
        assert entry["category"] == CONJECTURE
        # both sides are in the entry, one degree apart
        details = entry["details"]
        assert details["cell_sum"] == [[e + 2, c] for e, c in details["poincare"]]
    code, _ = run_cli(argv + ["--strict"])
    assert code == 1


# a verify run that fails once one_cell_too_many is applied
EULER_FAILURE = ["verify", "--n", "2", "--degree", "4", "--suite", "euler"]


@pytest.fixture
def one_cell_too_many(monkeypatch):
    """Count one cell more than the Euler characteristic, for every alpha."""
    from quasiflags import cells

    cell_sum = cells.cell_dimension_poly
    monkeypatch.setattr(cells, "cell_dimension_poly", lambda alpha: cell_sum(alpha) + 1)


def test_euler_failure_is_a_theorem_failure(one_cell_too_many):
    code, doc = run_json(EULER_FAILURE)
    assert code == 1
    assert doc["summary"]["status"] == "FAIL"
    entries = doc["suites"][0]["entries"]
    assert entries and all(e["status"] == FAIL for e in entries)
    for entry in entries:
        assert entry["category"] == THEOREM
        # both sides are in the entry, one cell apart
        assert entry["details"]["cells"] == entry["details"]["euler"] + 1


def test_bad_alpha_length_is_usage_error(capsys):
    code, _ = run_cli(["poincare", "--n", "3", "--alpha", "1"])
    assert code == 2
    code, _ = run_cli(["cells", "--n", "2", "--alpha", "1,2"])
    assert code == 2
    code, _ = run_cli(["kostant", "--n", "2", "--gamma", "x"])
    assert code == 2
    # int() reads both of these, as (10, 0) and (1, 0)
    for alpha in ("1_0,0", "\u0661,0"):
        code, out = run_cli(["poincare", "--n", "3", "--alpha", alpha, "--cap", "20"])
        assert (code, out) == (2, "")
        assert "--alpha must be comma-separated integers" in capsys.readouterr().err


def test_rank_too_small_is_usage_error():
    code, _ = run_cli(["poincare", "--n", "1", "--alpha", ""])
    assert code == 2


# the one-vector commands and the flag that carries their vector
CAPPED = {"kostant": "--gamma", "poincare": "--alpha", "cells": "--alpha"}


def _assert_cap_error(capsys, code, out, size, cap):
    assert code == 2
    assert out == ""
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1
    assert f"= {size} exceeds enumeration cap {cap}" in err


@pytest.mark.parametrize("command", sorted(CAPPED))
def test_cap_exceeded_is_usage_error_and_overridable(command, capsys):
    argv = [command, "--n", "2", CAPPED[command]]
    # the default cap admits a vector exactly at it
    code, doc = run_json(argv + ["12"])
    assert code == 0
    assert doc["params"]["cap"] == 12
    code, out = run_cli(argv + ["13"])
    _assert_cap_error(capsys, code, out, 13, 12)
    code, doc = run_json(argv + ["13", "--cap", "13"])
    assert code == 0
    code, out = run_cli(argv + ["13", "--cap", "12"])
    _assert_cap_error(capsys, code, out, 13, 12)


def test_warm_cache_does_not_lift_the_cap(capsys):
    # the library caches per vector; the cap is checked before any lookup
    for command, flag in CAPPED.items():
        code, _ = run_cli([command, "--n", "3", flag, "6,6", "--cap", "12"])
        assert code == 0
        code, out = run_cli([command, "--n", "3", flag, "6,6", "--cap", "5"])
        _assert_cap_error(capsys, code, out, 12, 5)


def test_missing_command_is_usage_error(capsys):
    assert cli.main([]) == 2


def test_csv_and_latex_formats():
    code, text = run_cli(["poincare", "--n", "2", "--alpha", "1", "--format", "csv"])
    assert code == 0
    lines = text.strip().splitlines()
    assert lines[0] == "exponent,coefficient"
    assert lines[1] == "0,1"

    code, text = run_cli(
        ["cells", "--n", "2", "--alpha", "1", "--format", "latex", "--dims"]
    )
    assert code == 0
    assert text.startswith("\\begin{tabular}")
    assert text.strip().endswith("\\end{tabular}")

    code, text = run_cli(
        ["verify", "--n", "2", "--degree", "5", "--suite", "euler", "--format", "csv"]
    )
    assert code == 0
    assert text.splitlines()[0] == "suite,case,category,status"


TEX_ESCAPES = re.compile(r"\\(?:textbackslash\{\}|textasciitilde\{\}|textasciicircum\{\}|[&%$#_{}])")


def _assert_tex_literal(text):
    """Every TeX special character in a table cell is escaped."""
    lines = text.strip().splitlines()
    assert lines[0].startswith("\\begin{tabular}{") and lines[-1] == "\\end{tabular}"
    assert lines[2] == "\\hline"
    for line in lines[1:2] + lines[3:-1]:
        assert line.endswith(" \\\\")
        for cell in line[: -len(" \\\\")].split(" & "):
            bare = TEX_ESCAPES.sub("", cell)
            assert not set(bare) & set("\\&%$#_{}~^"), cell


def test_latex_escapes_every_special_character():
    code, text = run_cli(
        ["verify", "--n", "2", "--degree", "4", "--suite", "freeness", "--format", "latex"]
    )
    assert code == 0
    assert "prod(1-e\\textasciicircum{}theta)\\textasciicircum{}-1" in text
    _assert_tex_literal(text)
    cells = ["a\\b", "&%$#_{}~^"]
    assert cli.render(
        {"command": "poincare", "result": {"poly": [cells]}}, "latex"
    ).splitlines()[3] == (
        "a\\textbackslash{}b & \\&\\%\\$\\#\\_\\{\\}\\textasciitilde{}\\textasciicircum{} \\\\"
    )


@pytest.mark.parametrize("fmt", ["json", "csv", "latex"])
@pytest.mark.parametrize(
    "argv",
    [
        ["kostant", "--n", "3", "--gamma", "1,1"],
        ["poincare", "--n", "2", "--alpha", "1"],
        ["genfunc", "--n", "2", "--degree", "3"],
        ["cells", "--n", "2", "--alpha", "1"],
        ["verify", "--n", "2", "--degree", "3", "--suite", "euler"],
        # the suites whose details nest deepest
        ["verify", "--n", "3", "--degree", "0", "--suite", "serre"],
        ["verify", "--n", "3", "--degree", "0", "--suite", "pbw"],
        ["verify", "--n", "3", "--degree", "0", "--suite", "commute"],
        EULER_FAILURE,
    ],
)
def test_every_command_renders_every_format(argv, fmt, request):
    expected = 0
    if argv == EULER_FAILURE:
        request.getfixturevalue("one_cell_too_many")
        expected = 1
    code, text = run_cli(argv + ["--format", fmt])
    assert code == expected
    assert text.strip()
    if fmt == "json":
        assert text == json.dumps(json.loads(text), indent=2, sort_keys=True) + "\n"
    if fmt == "latex":
        _assert_tex_literal(text)


def test_identical_invocations_byte_identical():
    argv = ["verify", "--n", "2", "--degree", "7", "--suite", "all"]
    _, first = run_cli(argv)
    _, second = run_cli(argv)
    assert first == second


def test_entries_without_details_do_not_share_a_dict():
    first, second = Entry({}, PASS, THEOREM), Entry({}, PASS, THEOREM)
    first.details["x"] = 1
    assert second.details == {}


def test_import_loads_neither_dataclasses_nor_inspect():
    # a fresh interpreter, without site (-S), so that only what the
    # package itself imports counts
    src = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
    code = "import sys, quasiflags.cli; print(sorted({'dataclasses', 'inspect'} & set(sys.modules)))"
    proc = subprocess.run(
        [sys.executable, "-S", "-c", code],
        env={**os.environ, "PYTHONPATH": src},
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"


def test_exit_code_mapping():
    good = Report("x", {}, [Entry({}, PASS, THEOREM)])
    theorem_bad = Report("x", {}, [Entry({}, FAIL, THEOREM)])
    conj_bad = Report("x", {}, [Entry({}, FAIL, CONJECTURE)])
    assert exit_code([good]) == 0
    assert exit_code([good, theorem_bad]) == 1
    assert exit_code([good, conj_bad]) == 3
    assert exit_code([good, conj_bad], strict=True) == 1
    assert exit_code([theorem_bad, conj_bad]) == 1


def test_big_coefficients_are_strings():
    code, doc = run_json(["poincare", "--n", "2", "--alpha", "4"])
    assert code == 0
    for _, coeff in doc["result"]["poly"]:
        assert isinstance(coeff, str)
        int(coeff)
