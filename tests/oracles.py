"""Oracles of the tests: reference values that no command of the package needs."""

from math import factorial, prod

from quasiflags.quiverfilt import pbw_steps


def pbw_expected(rep, exponents, order):
    """prod c_k! when the rep's intervals match the exponents, else 0."""
    want = sorted(pbw_steps(exponents, order))
    have = sorted(iv for ivs in rep.points for iv in ivs)
    if want != have:
        return 0
    return prod(factorial(c) for c in exponents)
