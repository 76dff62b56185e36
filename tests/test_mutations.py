"""Planted faults in the routes: the suites that compare them must FAIL.

Each row plants one fault by patching the module attribute that the
faulty code is read through (for example cohomology.weyl_poincare, which
both Poincare routes read, and not rootdata's; a fault inside a function
is planted by compiling the function again from its edited source, see
edited), empties every
process-wide table so that the patched code really runs, runs every
suite at n = 3 (the sweeps up to degree 14), and names the number of
FAIL entries each suite must report; every other suite must pass.
"""

import inspect
import io
import textwrap

import pytest

from quasiflags import cells, cli, cohomology, kostant, modchar, quiverfilt, suites
from quasiflags.charseries import CharSeries, LaurentPoly
from quasiflags.reports import FAIL
from quasiflags.rootdata import height

N, DEGREE = 3, 14

# O_x[1] + O_y[1] + O_z[2] with the type (1, 1, 2), bottom to top: serre's
# arrangement "iij" of (i, j) = (1, 2) on its three-point shape, and pbw's
# diagonal rep of the exponents (2, 0, 1), so both suites count it, pbw
# once per coroot order
CASE = ((((1, 1),), ((1, 1),), ((2, 2),)), ((1, 1), (1, 1), (2, 2)))

T = LaurentPoly.t_poly({1: 1})


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


def edited(old, new):
    """A patch that compiles the function again from its source, with old replaced by new.

    The edited function reads the globals of the module it came from, so
    the tables it interns into are the ones the routes read.
    """

    def patch(real):
        source = textwrap.dedent(inspect.getsource(real))
        assert source.count(old) == 1, f"{old!r} does not occur once in {real.__name__}"
        code = compile(source.replace(old, new), inspect.getsourcefile(real), "exec")
        namespace = {}
        exec(code, real.__globals__, namespace)
        return namespace[real.__name__]

    return patch


def extra_partition_at_1_1(real):
    """A walk that lists the last partition of weight (1, 1) twice."""

    def walk(top, cap, keep):
        profiles, leaves = real(top, cap, keep)
        if (1, 1) in profiles:
            profiles[(1, 1)][2] += 1  # the last partition, (1, 1) + (2, 2)
        if (1, 1) in leaves:
            leaves[(1, 1)].append(leaves[(1, 1)][-1])
        return profiles, leaves

    return walk


def weyl_gains_t(real):
    return lambda n: real(n) + T


def weyl_one_becomes_t(real):
    """W(t) - 1 + t: the same value at t = 1, no longer palindromic."""
    return lambda n: real(n) + T + LaurentPoly({0: -1})


def division_drops_its_top_term(real):
    """A quotient that loses its lexicographically last support point."""

    def divide(series, theta, e):
        out = real(series, theta, e)
        top = max(out.coeffs, default=None)
        return CharSeries(out.rank, out.bound, {a: p for a, p in out.coeffs.items() if a != top})

    return divide


def times_t_at_height_2(real):
    return lambda alpha: real(alpha) * T if height(alpha) == 2 else real(alpha)


def plus_one_at_height_2(real):
    return lambda alpha: real(alpha) + LaurentPoly({0: 1}) if height(alpha) == 2 else real(alpha)


def closed_form_times_t_at_height_2(real):
    """The closed form's coefficients at |alpha| = 2 times t: their values at q = 1 kept."""

    def series(n, bound):
        closed = real(n, bound)
        lift = height(cohomology.two_rho(n)) + 2
        coeffs = {a: p * T if sum(a) == lift else p for a, p in closed.coeffs.items()}
        return CharSeries(closed.rank, closed.bound, coeffs)

    return series


def plus_one_at_lowest_weight(real):
    """The series with 1 added to its coefficient at its lowest weight, 2rho."""

    def series(n, bound):
        out = real(n, bound)
        low = min(out.coeffs)
        bumped = out.coeffs[low] + LaurentPoly({0: 1})
        return CharSeries(out.rank, out.bound, {**out.coeffs, low: bumped})

    return series


def commutator_off_by_one(real):
    return lambda i, alpha: real(i, alpha) + 1 if (i, alpha) == (1, (0, 0)) else real(i, alpha)


# (owner, attribute patched, patch, {suite: FAIL entries}); every suite not
# named must pass.  Each row's zeros are expected: euler and characters
# compare values at t = 1, so a fault that keeps them is invisible there.
ROWS = {
    "symbolic_off_by_one": (
        quiverfilt, "count_filtrations_symbolic", symbolic_off_by_one, {"pbw": 2, "serre": 1}
    ),
    "f2_off_by_one": (
        quiverfilt, "count_filtrations_bruteforce", field_off_by_one(2), {"pbw": 2, "serre": 1}
    ),
    "f3_off_by_one": (
        quiverfilt, "count_filtrations_bruteforce", field_off_by_one(3), {"pbw": 2, "serre": 1}
    ),
    # phi need not vanish on the image of vertex q - 1, so a map that is
    # no hom counts as a quotient
    "field_peel_drops_its_hom_constraint": (
        quiverfilt, "_peel_point", edited("q <= a <= p_end <= b", "a <= p_end <= b"),
        {"pbw": 32, "serre": 2},
    ),
    # each kernel rank keeps the rank of its form, one too many
    "field_kernel_rank_off_by_one": (
        quiverfilt, "_peel_point", edited(" - any(form)", ""), {"pbw": 58, "serre": 4}
    ),
    "walk_lists_an_extra_partition": (
        kostant, "_walk", extra_partition_at_1_1,
        {"genfunc": 45, "euler": 45, "celldim": 45, "characters": 45, "freeness": 1},
    ),
    "weyl_poincare_gains_t": (
        cohomology, "weyl_poincare", weyl_gains_t,
        {"genfunc": 66, "euler": 66, "celldim": 66, "characters": 66},
    ),
    "weyl_poincare_one_becomes_t": (
        cohomology, "weyl_poincare", weyl_one_becomes_t, {"genfunc": 66, "celldim": 66}
    ),
    "divide_geometric_drops_its_top_term": (
        CharSeries, "divide_geometric", division_drops_its_top_term,
        {"genfunc": 2, "characters": 2, "freeness": 2},
    ),
    "cell_sum_times_t_at_height_2": (
        cells, "cell_dimension_poly", times_t_at_height_2, {"celldim": 3}
    ),
    "cousin_sum_plus_one_at_height_2": (
        cohomology, "laumon_poincare", plus_one_at_height_2,
        {"genfunc": 3, "euler": 3, "celldim": 3, "characters": 3},
    ),
    "closed_form_times_t_at_height_2": (
        cohomology, "generating_function", closed_form_times_t_at_height_2, {"genfunc": 3}
    ),
    "commutator_constant_off_by_one": (
        quiverfilt, "commutator_constant", commutator_off_by_one, {"commute": 1}
    ),
    # freeness compares each Verma coefficient with n! times the listed
    # Kostant count, and multiplies the Verma series back into the module
    # character: a fault in the Verma series fails both, one in the
    # character the second, and one in the division both series share
    # fails the counts
    "verma_series_plus_one_at_2rho": (
        modchar, "verma_multiplicity_series", plus_one_at_lowest_weight, {"freeness": 2}
    ),
    "module_character_plus_one_at_2rho": (
        modchar, "module_character", plus_one_at_lowest_weight,
        {"characters": 1, "freeness": 1},
    ),
}


def _plant(monkeypatch, row):
    owner, name, patch, _ = ROWS[row]
    monkeypatch.setattr(owner, name, patch(getattr(owner, name)))


def _failures():
    reports = suites.run_suites(N, DEGREE)
    return {r.name: n for r in reports if (n := sum(e.status == FAIL for e in r.entries))}


@pytest.mark.parametrize("row", sorted(ROWS))
def test_planted_fault_fails_its_suites(monkeypatch, cold_tables, row):
    _plant(monkeypatch, row)
    cold_tables()
    assert _failures() == ROWS[row][-1]


def test_every_suite_has_a_row():
    caught = {suite for *_, fails in ROWS.values() for suite in fails}
    assert caught == set(suites.SUITE_NAMES)


def test_planted_fault_makes_verify_exit_1(monkeypatch, cold_tables):
    argv = ["verify", "--n", "3", "--degree", "10", "--suite", "pbw"]
    assert cli.main(argv, out=io.StringIO()) == 0
    _plant(monkeypatch, "symbolic_off_by_one")
    cold_tables()
    assert cli.main(argv, out=io.StringIO()) == 1


def test_celldim_only_fault_makes_verify_exit_3(monkeypatch, cold_tables):
    argv = ["verify", "--n", str(N), "--degree", str(DEGREE), "--suite", "all"]
    assert cli.main(argv, out=io.StringIO()) == 0
    _plant(monkeypatch, "cell_sum_times_t_at_height_2")
    cold_tables()
    assert cli.main(argv, out=io.StringIO()) == 3
    assert cli.main([*argv, "--strict"], out=io.StringIO()) == 1
