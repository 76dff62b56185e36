"""Suite drivers: coverage of both coroot orders and report bookkeeping."""

import inspect
import io

from quasiflags import cli, suites
from quasiflags.reports import THEOREM
from quasiflags.suites import (
    SUITE_NAMES,
    run_commute,
    run_pbw,
    run_serre,
    run_suites,
)


def test_suite_name_registry():
    assert SUITE_NAMES == (
        "genfunc",
        "euler",
        "celldim",
        "serre",
        "pbw",
        "commute",
        "characters",
        "freeness",
    )


def test_each_suite_has_a_module_level_runner():
    # a traced run reads per-suite time as suites.run_<name>
    for name in SUITE_NAMES:
        runner = vars(suites)[f"run_{name}"]
        assert inspect.isfunction(runner) and runner.__name__ == f"run_{name}"
        reports = run_suites(2, 9, suite=name)
        assert [r.name for r in reports] == [name]


def test_run_suites_calls_the_module_attribute_of_each_runner(monkeypatch):
    # the tracer rebinds suites.run_<name>: run_suites must call what is
    # bound there when it runs, not the function it was defined with
    calls = []
    for name in SUITE_NAMES:
        def patched(*args, name=name):
            calls.append((name, args))
            return name

        monkeypatch.setattr(suites, f"run_{name}", patched)
    for name in SUITE_NAMES:
        calls.clear()
        assert run_suites(3, 12, name) == [name]
        assert [called for called, _ in calls] == [name]
        assert calls[0][1][0] == 3


def test_run_pbw_covers_both_orders():
    report = run_pbw(3)
    assert report.passed()
    orders = {e.case["order"] for e in report.entries}
    assert orders == {"canonical", "by_upper_end"}
    # diagonal values recorded for cross-checking
    for entry in report.entries:
        assert any(
            case["expected"] == entry.details["diagonal"]
            for case in entry.details["cases"]
        )


def test_run_serre_entry_bookkeeping():
    report = run_serre(4)
    assert report.passed()
    assert all(e.category == THEOREM for e in report.entries)
    shapes = {(e.case["i"], e.case["j"], e.case["shape"]) for e in report.entries}
    # ordered adjacent pairs, two shapes each
    assert len(shapes) == 2 * len([(i, j) for i in (1, 2, 3) for j in (i - 1, i + 1) if 1 <= j <= 3])


def test_run_commute_has_both_check_kinds():
    report = run_commute(4)
    assert report.passed()
    kinds = {e.case["check"] for e in report.entries}
    assert kinds == {"far_pair", "commutator"}


def test_run_suites_selection_and_unknown():
    reports = run_suites(2, 5, suite="euler")
    assert [r.name for r in reports] == ["euler"]
    reports = run_suites(2, 5, suite="all")
    assert [r.name for r in reports] == list(SUITE_NAMES)
    try:
        run_suites(2, 5, suite="bogus")
    except ValueError:
        pass
    else:  # pragma: no cover
        raise AssertionError("unknown suite must raise")


def test_verify_reads_no_dp_table(cold_tables):
    # the Cousin sum and the cells read the listing only; the closed form
    # and the characters read series only, and freeness series and listing
    runners = (
        suites.run_genfunc,
        suites.run_euler,
        suites.run_celldim,
        suites.run_characters,
        suites.run_freeness,
    )
    argv = ["poincare", "--n", "3", "--alpha", "2,1"]

    def run_all():
        out = io.StringIO()
        assert cli.main(argv, out=out) == 0
        return [run(3, 12).to_json() for run in runners], out.getvalue()

    expected = run_all()
    # the DP is a test oracle, out of the package's reach; from cold tables
    # and caches every route runs again, and gives the same documents
    cold_tables()
    assert run_all() == expected
