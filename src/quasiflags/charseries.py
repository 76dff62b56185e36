"""Exact sparse arithmetic: Laurent polynomials and truncated character series.

The single variable is q with q^2 = t (t has cohomological degree 2, so
exponents of q are cohomological degrees).  Polynomials "in t" are
q-polynomials supported on even exponents; the generating-function shift
t^{-dim/2} needs odd q-powers when dim is odd, which is why q is the
internal variable.

A character series is a finite sum  sum_alpha c_alpha(q) e^alpha  over
coroot vectors alpha with |alpha| <= D; all arithmetic truncates above
the total-degree bound D.

Only the arithmetic that the closed form, the Cousin and cell tables and
the CLI run is here: the sum and product of two polynomials, a shift by
q^e, and division of a series by one geometric factor.  There are no int
operands: a constant c is LaurentPoly({0: c}), zero is LaurentPoly(), and
`not p` tests for zero.  The validating constructors read exponents,
coefficients and weight coordinates through operator.index, so a
non-integral value raises TypeError rather than being truncated.
"""

from operator import add, index, sub


class LaurentPoly:
    """Sparse Laurent polynomial in q with integer coefficients.

    Stored as a map exponent -> nonzero coefficient.  Immutable by
    convention: no method mutates self.  Both operands of + and * are
    LaurentPolys; `p + 1` fails on the int's missing terms.

    >>> (LaurentPoly.t_poly({0: 1, 1: 1}) * LaurentPoly.t_poly({0: 1, 1: -1})).pretty()
    '1 - t^2'
    >>> LaurentPoly.t_poly({0: 1, 1: 1}).shift(-3).pretty()
    'q^-3 + q^-1'
    """

    __slots__ = ("terms",)

    def __init__(self, terms=None):
        clean = {}
        if terms:
            for e, c in terms.items():
                e, c = index(e), index(c)
                if c:
                    clean[e] = c
        self.terms = clean

    @classmethod
    def _of(cls, terms):
        """Wrap a fresh {int exponent: nonzero int} dict, with no copy or check."""
        res = cls.__new__(cls)
        res.terms = terms
        return res

    @classmethod
    def t_poly(cls, tcoeffs):
        """Build from a map int t-exponent -> int coefficient (zeros dropped)."""
        return cls._of({2 * k: c for k, c in tcoeffs.items() if c})

    def __bool__(self):
        return bool(self.terms)

    def __eq__(self, other):
        if not isinstance(other, LaurentPoly):
            return NotImplemented
        return self.terms == other.terms

    def __add__(self, other):
        out = dict(self.terms)
        for e, c in other.terms.items():
            s = out.get(e, 0) + c
            if s:
                out[e] = s
            else:
                out.pop(e, None)
        return LaurentPoly._of(out)

    def __mul__(self, other):
        out = {}
        for e1, c1 in self.terms.items():
            for e2, c2 in other.terms.items():
                e = e1 + e2
                s = out.get(e, 0) + c1 * c2
                if s:
                    out[e] = s
                else:
                    del out[e]
        return LaurentPoly._of(out)

    def eval_at_one(self):
        """Value at q = 1 (= t = 1): the sum of the coefficients."""
        return sum(self.terms.values())

    def shift(self, e):
        """Multiply by q^e."""
        return LaurentPoly._of({k + e: c for k, c in self.terms.items()})

    def to_json(self):
        """Sorted [[q-exponent, coefficient-as-decimal-string], ...]."""
        return [[e, str(c)] for e, c in sorted(self.terms.items())]

    def pretty(self, var=None):
        """Human-readable string, ascending exponents.

        var defaults to 't' when the support is even (exponents halved),
        'q' otherwise.
        """
        if not self.terms:
            return "0"
        if var is None:
            var = "q" if any(e % 2 for e in self.terms) else "t"
        parts = []
        for e, c in sorted(self.terms.items()):
            if var == "t":
                assert e % 2 == 0, "odd q-power cannot be printed in t"
                e //= 2
            if e == 0:
                term = str(abs(c))
            else:
                mag = "" if abs(c) == 1 else str(abs(c)) + "*"
                pw = var if e == 1 else f"{var}^{e}"
                term = mag + pw
            if not parts:
                parts.append(("-" if c < 0 else "") + term)
            else:
                parts.append(("- " if c < 0 else "+ ") + term)
        return " ".join(parts)

    def __repr__(self):
        return f"LaurentPoly({self.pretty('q')})"


class CharSeries:
    """Truncated formal sum  sum c_alpha(q) e^alpha  over coroot vectors.

    rank is the length of the alpha tuples; coefficients with
    |alpha| > bound are discarded by every operation.  A single term
    c e^alpha is CharSeries(rank, bound, {alpha: c}).
    """

    __slots__ = ("rank", "bound", "coeffs")

    def __init__(self, rank, bound, coeffs):
        if bound < 0:
            raise ValueError("degree bound must be nonnegative")
        self.rank = rank
        self.bound = bound
        clean = {}
        for alpha, poly in coeffs.items():
            alpha = tuple(map(index, alpha))
            if len(alpha) != rank:
                raise ValueError(f"alpha {alpha} has wrong rank (expected {rank})")
            if sum(alpha) > bound or not poly:
                continue
            clean[alpha] = poly
        self.coeffs = clean

    @classmethod
    def _of(cls, rank, bound, coeffs):
        """Wrap a fresh {rank-tuple: nonzero poly} dict within the bound, with no copy or check."""
        res = cls.__new__(cls)
        res.rank, res.bound, res.coeffs = rank, bound, coeffs
        return res

    def coefficient(self, alpha):
        return self.coeffs.get(tuple(alpha), LaurentPoly())

    def support(self):
        """Sorted list of alpha with nonzero coefficient (by height, then lex)."""
        return sorted(self.coeffs, key=lambda a: (sum(a), a))

    def __eq__(self, other):
        if not isinstance(other, CharSeries):
            return NotImplemented
        return (
            self.rank == other.rank
            and self.bound == other.bound
            and self.coeffs == other.coeffs
        )

    def divide_geometric(self, theta, e):
        """self * (1 - q^e e^theta)^{-1}, in one pass over the support.

        The quotient T satisfies T(beta) = S(beta) + q^e T(beta - theta),
        truncated at the bound, so multiplying by the factor is a shift,
        and by q^0 nothing.  |theta| >= 1, so that the quotient stops at
        the bound.  Returns a new series.
        """
        theta = tuple(theta)
        if len(theta) != self.rank:
            raise ValueError(f"theta {theta} has wrong rank (expected {self.rank})")
        if (step := sum(theta)) < 1:
            raise ValueError("cannot invert along a direction with |theta| = 0")
        coeffs, bound = self.coeffs, self.bound
        out = {}
        # lexicographic order: beta - theta comes before beta
        for beta in sorted(coeffs):
            below = out.get(tuple(map(sub, beta, theta)))
            poly = coeffs[beta]
            if below is not None:
                poly = poly + (below.shift(e) if e else below)
            # the points beta + k theta up to the next support point take
            # q^e T(. - theta) alone; that support point continues the chain
            height = sum(beta)
            while poly:
                out[beta] = poly
                beta, height = tuple(map(add, beta, theta)), height + step
                if height > bound or beta in coeffs:
                    break
                if e:
                    poly = poly.shift(e)
        return CharSeries._of(self.rank, bound, out)

    def to_json(self):
        """Sorted [[alpha-list, poly-json], ...]."""
        return [[list(a), self.coeffs[a].to_json()] for a in self.support()]

    def __repr__(self):
        inner = ", ".join(f"e^{a}: {self.coeffs[a].pretty()}" for a in self.support())
        return f"CharSeries(D={self.bound}; {inner})"
