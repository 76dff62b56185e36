"""Character-level identities for the module built from all degrees at once.

The graded pieces over all alpha assemble into a module whose character
is |W| e^{2rho} / prod_{theta>0} (1 - e^theta)^2: each weight space
alpha+2rho has dimension equal to the total cohomology of the degree-
alpha space, i.e. its Poincare polynomial at t=1 and the q=1 value of
the closed-form generating function.  weight_space_check verifies the
three agree.

Dividing one factor out gives |W| e^{2rho} / prod (1 - e^theta), the
candidate series of Verma multiplicities if the module is free over the
enveloping algebra of the nilpotent part.  Freeness is conjectural, so
freeness_consistency_check only certifies the necessary conditions
(nonnegative coefficients, and that multiplying back reproduces the
character); it reports in the CONJECTURE-CONSISTENCY category.
"""

from __future__ import annotations

from functools import lru_cache
from math import factorial

from .charseries import CharSeries, LaurentPoly
from .cohomology import generating_function, laumon_poincare
from .kostant import list_up_to
from .reports import (
    CONJECTURE_CONSISTENCY,
    FAIL,
    PASS,
    THEOREM,
    Entry,
    Report,
)
from .rootdata import height, positive_coroots, two_rho, vectors_up_to


@lru_cache(maxsize=None)
def _character_series(n, bound, denominator_power):
    """|W| e^{2rho} / prod (1 - e^theta)^power, truncated at `bound`.

    Built once per (n, bound, power) in a process; the characters and
    freeness checks share the one series, so no caller may mutate it.
    """
    rank = n - 1
    series = CharSeries.monomial(
        rank, bound, two_rho(n), LaurentPoly({0: factorial(n)})
    )
    for theta in positive_coroots(n):
        for _ in range(denominator_power):
            series = series.divide_geometric(1, theta)
    return series


def module_character(n, bound):
    """|W| e^{2rho} / prod (1 - e^theta)^2, truncated at total degree `bound`."""
    return _character_series(n, bound, 2)


def verma_multiplicity_series(n, bound):
    """|W| e^{2rho} / prod (1 - e^theta), truncated at total degree `bound`."""
    return _character_series(n, bound, 1)


def weight_space_check(n, bound):
    """Character coefficient = Poincare value at t=1 = genfunc value at q=1."""
    rho2 = two_rho(n)
    char = module_character(n, bound)
    closed = generating_function(n, bound)
    list_up_to(n, bound - height(rho2))  # one listing walk, so one Cousin table
    entries = []
    for alpha in vectors_up_to(n - 1, bound - height(rho2)):
        weight = tuple(a + r for a, r in zip(alpha, rho2))
        lhs = char.coefficient(weight).eval_at_one()
        mid = laumon_poincare(alpha).eval_at_one()
        rhs = closed.coefficient(weight).eval_at_one()
        ok = lhs == mid == rhs
        entries.append(
            Entry(
                case={"alpha": list(alpha)},
                status=PASS if ok else FAIL,
                category=THEOREM,
                details={"character": lhs, "poincare_at_1": mid, "genfunc_at_1": rhs},
            )
        )
    return Report(
        name="characters", params={"n": n, "degree": bound}, entries=entries
    )


def freeness_consistency_check(n, bound):
    """Necessary conditions for freeness: nonnegativity and factorization."""
    verma = verma_multiplicity_series(n, bound)
    entries = []
    for alpha in verma.support():
        coeff = verma.coefficient(alpha).eval_at_one()
        ok = coeff >= 0
        entries.append(
            Entry(
                case={"weight": list(alpha)},
                status=PASS if ok else FAIL,
                category=CONJECTURE_CONSISTENCY,
                details={"verma_multiplicity": coeff},
            )
        )
    if not entries:  # bound < |2rho|: both series are zero, nothing to refactor
        return Report(name="freeness", params={"n": n, "degree": bound}, entries=[])
    char = module_character(n, bound)
    rebuilt = verma
    for theta in positive_coroots(n):
        rebuilt = rebuilt.divide_geometric(1, theta)
    consistent = rebuilt == char
    entries.append(
        Entry(
            case={"identity": "verma_series * prod(1-e^theta)^-1 = character"},
            status=PASS if consistent else FAIL,
            category=CONJECTURE_CONSISTENCY,
            details={} if consistent else {
                "rebuilt": rebuilt.to_json(),
                "character": char.to_json(),
            },
        )
    )
    return Report(
        name="freeness", params={"n": n, "degree": bound}, entries=entries
    )
