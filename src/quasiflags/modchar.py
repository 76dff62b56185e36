"""Character series of the module built from all degrees at once.

This module holds routes only; suites.run_characters and
suites.run_freeness compare them with the other routes.

The graded pieces over all alpha assemble into a module whose character
is |W| e^{2rho} / prod_{theta>0} (1 - e^theta)^2: each weight space
alpha+2rho has dimension equal to the total cohomology of the degree-
alpha space, i.e. its Poincare polynomial at t=1 and the q=1 value of
the closed-form generating function.

Dividing one factor out gives |W| e^{2rho} / prod (1 - e^theta), the
candidate series of Verma multiplicities if the module is free over the
enveloping algebra of the nilpotent part.  Freeness is conjectural, so
its check certifies only necessary conditions: the coefficient of
e^{beta+2rho} is |W| times the Kostant partition count of beta (so it is
nonnegative), and multiplying back reproduces the character.
"""

from functools import lru_cache
from math import factorial

from .charseries import CharSeries, LaurentPoly
from .rootdata import positive_coroots, two_rho


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
            series = series.divide_geometric(theta, 0)
    return series


def module_character(n, bound):
    """|W| e^{2rho} / prod (1 - e^theta)^2, truncated at total degree `bound`."""
    return _character_series(n, bound, 2)


def verma_multiplicity_series(n, bound):
    """|W| e^{2rho} / prod (1 - e^theta), truncated at total degree `bound`."""
    return _character_series(n, bound, 1)
