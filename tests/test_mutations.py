"""Planted faults in the filtration routes: the suites that compare them must FAIL.

Each row plants one fault by patching the module attribute of quiverfilt
that the faulty code is read through (filtration_counts reads the three
route counters, the field route reads _peel_point), empties every
process-wide table so that the patched code really runs, and names the
suites at n = 3 that must report FAIL.
"""

import io

import pytest

from quasiflags import cli, quiverfilt, suites

# O_x[1] + O_y[1] + O_z[2] with the type (1, 1, 2), bottom to top: serre's
# arrangement "iij" of (i, j) = (1, 2) on its three-point shape, and pbw's
# diagonal rep of the exponents (2, 0, 1), so both suites count it
CASE = ((((1, 1),), ((1, 1),), ((2, 2),)), ((1, 1), (1, 1), (2, 2)))

SUITES = {"pbw": suites.run_pbw, "serre": suites.run_serre}


def _is_case(rep, steps):
    return (rep.points, tuple(steps)) == CASE


def symbolic_off_by_one(real):
    def route(rep, steps):
        count = real(rep, steps)
        return count + 1 if _is_case(rep, steps) else count

    return route


def field_off_by_one(field):
    def patch(real):
        def route(rep, steps, p):
            count = real(rep, steps, p)
            return count + 1 if p == field and _is_case(rep, steps) else count

        return route

    return patch


def drop_last_line(real):
    """A field peel that drops a sub with one dimension left, as if it were empty."""

    def peel(pid, q, p_end, p):
        subs = []
        for sub in real(pid, q, p_end, p):
            if sub != quiverfilt._POINT_EMPTIED:
                ivs, rows = quiverfilt._POINT_STATES[sub]
                if sum(b - a + 1 for a, b in ivs) - sum(map(len, rows)) == 1:
                    sub = quiverfilt._POINT_EMPTIED
            subs.append(sub)
        return tuple(subs)

    return peel


# (attribute patched, patch, suites that must FAIL at n = 3).  pbw cannot
# see the dropped line: its coroot orders put each interval's head first,
# so every chain it counts peels whole points, and a dropped point only
# loses chains, which the reps it expects to count 0 do not have.
ROWS = {
    "symbolic_off_by_one": ("count_filtrations_symbolic", symbolic_off_by_one, {"pbw", "serre"}),
    "f2_off_by_one": ("count_filtrations_bruteforce", field_off_by_one(2), {"pbw", "serre"}),
    "f3_off_by_one": ("count_filtrations_bruteforce", field_off_by_one(3), {"pbw", "serre"}),
    "field_peel_drops_a_live_point": ("_peel_point", drop_last_line, {"serre"}),
}


@pytest.mark.parametrize("row", sorted(ROWS))
def test_planted_fault_fails_its_suites(monkeypatch, cold_tables, row):
    name, patch, must_fail = ROWS[row]
    monkeypatch.setattr(quiverfilt, name, patch(getattr(quiverfilt, name)))
    failed = set()
    for suite, run in SUITES.items():
        cold_tables()
        if not run(3).passed():
            failed.add(suite)
    assert failed == must_fail


def test_planted_fault_makes_verify_exit_1(monkeypatch, cold_tables):
    argv = ["verify", "--n", "3", "--degree", "10", "--suite", "pbw"]
    assert cli.main(argv, out=io.StringIO()) == 0
    name, patch, _ = ROWS["symbolic_off_by_one"]
    monkeypatch.setattr(quiverfilt, name, patch(getattr(quiverfilt, name)))
    cold_tables()
    assert cli.main(argv, out=io.StringIO()) == 1
