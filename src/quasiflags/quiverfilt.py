"""Filtration counting for torsion representations of the linear A-quiver.

A torsion representation here is a direct sum of interval indecomposables
placed at labelled points: summand ([q,p], x) contributes a line at each
vertex q..p, with identity arrow maps inside the interval.  Subobjects
split point by point (a subsheaf of a sum of skyscrapers is the sum of
its parts), so only spaces at the same point can mix.

count_filtrations counts increasing chains 0 = G_0 < G_1 < ... < G_m = T
of subrepresentations whose k-th subquotient G_k/G_{k-1} is isomorphic to
the interval module of the k-th step, concentrated at a single point.
The count is computed two independent ways:

  * a symbolic interval calculus: quotienting an interval [q,b] by its
    head [q,p] leaves the tail [p+1,b]; a step is rigid when exactly one
    summand at the chosen point can map onto the step interval;
  * exhaustive linear algebra over F_2 and over F_3: subrepresentations
    of prescribed codimension are enumerated as kernels of functionals,
    with arrow-stability and quotient-isomorphism checked on matrices.

filtration_counts returns all three counts.  count_filtrations returns
NOT_RIGID (a result, not an error) when the two field counts differ, as
the family is then positive-dimensional; a symbolic number must agree.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import product as iproduct
from math import factorial, prod

from .rootdata import ResourceCapError, coroot_intervals, pairing, two_rho

DEFAULT_DIMENSION_CAP = 8
BRUTE_FORCE_FIELDS = (2, 3)


class _NotRigidType:
    """Singleton marker: the filtration family is not field-independent."""

    _instance = None

    def __new__(cls):
        if cls._instance is None:
            cls._instance = super().__new__(cls)
        return cls._instance

    def __repr__(self):
        return "NOT_RIGID"


NOT_RIGID = _NotRigidType()


def is_rigid(result):
    return not isinstance(result, _NotRigidType)


@dataclass(frozen=True)
class TorsionRep:
    """Multiset of (interval, point-label) summands for the rank-n quiver."""

    n: int
    summands: tuple

    @classmethod
    def of(cls, n, summands):
        """Build from an iterable of ((q, p), label) pairs."""
        clean = []
        for iv, label in summands:
            q, p = iv
            if not 1 <= q <= p <= n - 1:
                raise ValueError(f"bad interval {iv} for n={n}")
            clean.append(((q, p), label))
        clean.sort(key=lambda s: (str(s[1]), s[0]))
        return cls(n=n, summands=tuple(clean))

    def points(self):
        seen = []
        for _, label in self.summands:
            if label not in seen:
                seen.append(label)
        return seen

    def dimension(self):
        """Dimension vector as a coroot vector."""
        total = [0] * (self.n - 1)
        for (q, p), _ in self.summands:
            for v in range(q, p + 1):
                total[v - 1] += 1
        return tuple(total)

    def to_json(self):
        return [
            {"interval": list(iv), "point": str(pt)} for iv, pt in self.summands
        ]


def simple_step(i):
    """The step quotienting off one simple at vertex i."""
    return (i, i)


def _validate_steps(rep, steps):
    total = [0] * (rep.n - 1)
    for q, p in steps:
        if not 1 <= q <= p <= rep.n - 1:
            raise ValueError(f"bad step interval ({q},{p}) for n={rep.n}")
        for v in range(q, p + 1):
            total[v - 1] += 1
    if tuple(total) != rep.dimension():
        raise ValueError(
            f"step dimensions {tuple(total)} do not sum to dim T = {rep.dimension()}"
        )


# ---------------------------------------------------------------------------
# symbolic interval calculus


class _Ambiguous(Exception):
    """A step admits a positive-dimensional family of kernels."""


def count_filtrations_symbolic(rep, steps):
    """Interval-calculus count, or None when a field-dependent branch occurs.

    At each step (peeling from the top of the chain) and each point, a
    summand [a,b] can carry a surjection onto the step interval [q,p]
    iff q <= a <= p <= b, and the map can be onto only when a == q.  A
    unique eligible summand gives a unique kernel (tail [p+1,b]); two or
    more eligible summands at one point give a projective family.
    """
    _validate_steps(rep, steps)

    def rec(state, k):
        if k < 0:
            assert not state
            return 1
        q, p = steps[k]
        total = 0
        points = []
        for _, pt in state:
            if pt not in points:
                points.append(pt)
        for x in points:
            at_x = [iv for iv, pt in state if pt == x]
            eligible = [iv for iv in at_x if iv[0] >= q and iv[0] <= p <= iv[1]]
            onto = [iv for iv in eligible if iv[0] == q]
            if not onto:
                continue
            if len(eligible) > 1:
                raise _Ambiguous
            iv = eligible[0]
            rest = list(state)
            rest.remove((iv, x))
            if p < iv[1]:
                rest.append(((p + 1, iv[1]), x))
            rest.sort(key=lambda s: (str(s[1]), s[0]))
            total += rec(rest, k - 1)
        return total

    try:
        return rec(list(rep.summands), len(steps) - 1)
    except _Ambiguous:
        return None


# ---------------------------------------------------------------------------
# finite-field brute force

# A point state is (dims, mats): dims[v-1] is the space dimension at
# vertex v; mats[v-1] is the matrix of the arrow v -> v+1 as a tuple of
# rows.  The full state maps point label -> point state.


def _mat_rows(rows):
    return tuple(tuple(r) for r in rows)


def _row_times_mat(f, mat, p):
    # f: functional on the target; result: functional f o A on the source
    if not mat:
        return ()
    cols = len(mat[0])
    return tuple(
        sum(f[i] * mat[i][j] for i in range(len(mat))) % p for j in range(cols)
    )


def _normalize(vec, p):
    lead = next((c for c in vec if c), None)
    if lead is None:
        return None
    inv = pow(lead, p - 2, p)
    return tuple(c * inv % p for c in vec)


def _functionals(dim, p):
    """All nonzero functionals on F_p^dim, normalized (first nonzero = 1)."""
    out = []
    for vec in iproduct(range(p), repeat=dim):
        if any(vec) and _normalize(vec, p) == vec:
            out.append(vec)
    return out


def _kernel_basis(f, p):
    """RREF basis of ker f; pivots are all indices except f's pivot."""
    d = len(f)
    j0 = next(j for j in range(d) if f[j])
    assert f[j0] == 1
    basis = []
    for j in range(d):
        if j == j0:
            continue
        vec = [0] * d
        vec[j] = 1
        vec[j0] = (-f[j]) % p
        basis.append(tuple(vec))
    return basis, [j for j in range(d) if j != j0]


def _rep_state(rep):
    """Initial matrix model: one basis line per summand covering a vertex."""
    state = {}
    for x in rep.points():
        ivs = [iv for iv, pt in rep.summands if pt == x]
        cover = [[r for r, (q, p) in enumerate(ivs) if q <= v <= p] for v in range(1, rep.n)]
        dims = [len(c) for c in cover]
        mats = []
        for v in range(rep.n - 2):
            rows = []
            for r_idx in cover[v + 1]:
                rows.append(tuple(1 if r_idx == s_idx else 0 for s_idx in cover[v]))
            mats.append(_mat_rows(rows))
        state[x] = (tuple(dims), tuple(mats))
    return state


def _peel_point(dims, mats, q, p_end, p):
    """All subrep states of one point with quotient iso to interval [q, p_end].

    Yields (new_dims, new_mats).  The subspace at each vertex in the
    interval is the kernel of a functional; functionals are forced down
    the interval by the arrow maps, so only the one at p_end is free.
    """
    nverts = len(dims)
    if any(dims[v - 1] == 0 for v in range(q, p_end + 1)):
        return
    for f_top in _functionals(dims[p_end - 1], p):
        funcs = {p_end: f_top}
        ok = True
        for v in range(p_end - 1, q - 1, -1):
            g = _row_times_mat(funcs[v + 1], mats[v - 1], p)
            g = _normalize(g, p)
            if g is None:
                ok = False
                break
            funcs[v] = g
        if not ok:
            continue
        if q >= 2 and dims[q - 2] > 0:
            incoming = _row_times_mat(funcs[q], mats[q - 2], p)
            if any(incoming):
                continue
        kernels = {}
        pivots = {}
        for v in range(q, p_end + 1):
            kernels[v], pivots[v] = _kernel_basis(funcs[v], p)
        new_dims = list(dims)
        for v in range(q, p_end + 1):
            new_dims[v - 1] -= 1

        def basis_at(v):
            if q <= v <= p_end:
                return kernels[v]
            return [
                tuple(1 if i == j else 0 for j in range(dims[v - 1]))
                for i in range(dims[v - 1])
            ]

        def coords_at(v, vec):
            if q <= v <= p_end:
                cs = tuple(vec[j] for j in pivots[v])
                if __debug__:
                    f = funcs[v]
                    assert sum(a * b for a, b in zip(f, vec)) % p == 0
                return cs
            return vec

        new_mats = []
        for v in range(1, nverts):
            if not (q <= v <= p_end or q <= v + 1 <= p_end):
                new_mats.append(mats[v - 1])
                continue
            rows_t = []
            for u in basis_at(v):
                img = tuple(
                    sum(mats[v - 1][i][j] * u[j] for j in range(len(u))) % p
                    for i in range(dims[v])
                )
                rows_t.append(coords_at(v + 1, img))
            # rows_t holds images column-wise; transpose into row form
            r = new_dims[v]
            c = new_dims[v - 1]
            new_mats.append(
                _mat_rows(
                    [[rows_t[j][i] for j in range(c)] for i in range(r)]
                )
            )
        yield tuple(new_dims), tuple(new_mats)


def count_filtrations_bruteforce(rep, steps, p):
    """Exhaustive chain count over the field F_p."""
    _validate_steps(rep, steps)
    state = _rep_state(rep)
    labels = sorted(state, key=str)

    def rec(st, k):
        if k < 0:
            return 1
        q, p_end = steps[k]
        total = 0
        for x in labels:
            dims, mats = st[x]
            for new_dims, new_mats in _peel_point(dims, mats, q, p_end, p):
                nxt = dict(st)
                nxt[x] = (new_dims, new_mats)
                total += rec(nxt, k - 1)
        return total

    return rec(state, len(steps) - 1)


# ---------------------------------------------------------------------------
# combined interface


def filtration_counts(rep, steps, cap=DEFAULT_DIMENSION_CAP):
    """The three independent routes: (symbolic, F_2 count, F_3 count).

    The one entry point to the routes.  It validates the steps and the
    dimension cap, and never raises when the routes disagree; the
    symbolic count is None where it abstains.

    >>> same_point = TorsionRep.of(2, [((1, 1), "x"), ((1, 1), "x")])
    >>> filtration_counts(same_point, [(1, 1), (1, 1)])
    (None, 3, 4)
    """
    steps = tuple((int(q), int(p)) for q, p in steps)
    _validate_steps(rep, steps)
    total_dim = sum(rep.dimension())
    if total_dim > cap:
        raise ResourceCapError(
            f"total dimension {total_dim} exceeds brute-force cap {cap}"
        )
    f2, f3 = (count_filtrations_bruteforce(rep, steps, p) for p in BRUTE_FORCE_FIELDS)
    return count_filtrations_symbolic(rep, steps), f2, f3


def count_filtrations(rep, steps, cap=DEFAULT_DIMENSION_CAP):
    """Field-independent chain count, or NOT_RIGID.

    The two finite-field counts decide; the symbolic count, when
    defined, must agree with them.

    >>> T = TorsionRep.of(3, [((1, 2), "x"), ((2, 2), "y")])
    >>> count_filtrations(T, [(2, 2), (2, 2), (1, 1)])   # bottom to top
    2
    >>> count_filtrations(T, [(1, 1), (2, 2), (2, 2)])
    0
    >>> same_point = TorsionRep.of(2, [((1, 1), "x"), ((1, 1), "x")])
    >>> count_filtrations(same_point, [(1, 1), (1, 1)])
    NOT_RIGID
    """
    symbolic, f2, f3 = filtration_counts(rep, steps, cap=cap)
    if f2 != f3:
        return NOT_RIGID
    if symbolic is not None and symbolic != f2:
        raise AssertionError(
            f"symbolic count {symbolic} disagrees with brute force {f2}"
        )
    return f2


# ---------------------------------------------------------------------------
# the identity inputs


def serre_split_shape(n, i, j, labels=("x", "y", "z")):
    """Three simples at three distinct points: O_x[j] + O_y[i] + O_z[i]."""
    x, y, z = labels
    return TorsionRep.of(n, [((j, j), x), ((i, i), y), ((i, i), z)])


def serre_extension_shape(n, i, j, labels=("x", "y")):
    """The interval module of dimension i+j at one point, plus O_y[i]."""
    x, y = labels
    lo, hi = min(i, j), max(i, j)
    return TorsionRep.of(n, [((lo, hi), x), ((i, i), y)])


SERRE_ARRANGEMENTS = ("iij", "iji", "jii")


def serre_steps(i, j):
    """(arrangement, steps) for each of SERRE_ARRANGEMENTS, in that order."""
    return [
        (label, [simple_step(i if c == "i" else j) for c in label])
        for label in SERRE_ARRANGEMENTS
    ]


def canonical_coroot_order(n):
    """Intervals sorted by (q, p): the canonical positive-coroot order."""
    return list(coroot_intervals(n))


def alternative_coroot_order(n):
    """Intervals sorted by (p, q): a second order with the same head-first property."""
    return sorted(coroot_intervals(n), key=lambda iv: (iv[1], iv[0]))


def pbw_steps(exponents, order):
    """Expand an exponent vector into the filtration type it prescribes."""
    steps = []
    for c, theta in zip(exponents, order):
        steps.extend([theta] * c)
    return steps


def pbw_expected(rep, exponents, order):
    """prod c_k! when the labelled partition matches the exponents, else 0."""
    want = sorted(pbw_steps(exponents, order))
    have = sorted(iv for iv, _ in rep.summands)
    if want != have:
        return 0
    return prod(factorial(c) for c in exponents)


def commutator_constant(i, alpha):
    """<i', alpha + 2rho>: the scalar of [e_i, f_i] on the alpha weight space."""
    alpha = tuple(alpha)
    n = len(alpha) + 1
    shifted = tuple(a + r for a, r in zip(alpha, two_rho(n)))
    return pairing(i, shifted)
