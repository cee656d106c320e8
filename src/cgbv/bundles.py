"""Concrete bundle geometry over desk-scale bases.

Every bundle is carried in a global orthonormal trivialization over one
coordinate chart, so a subbundle is a projector field, a section is a
vector-valued function, and all induced connections are explicit potential
formulas.  Splitting a connection along a subbundle compresses it to the
two factors, which keeps skewness manifest and makes parallel sections easy
to arrange.  A split along an orthonormal frame, a normalized section
being the one-vector case, has the potential and its d in closed form from
one first-order pass over the frame (:func:`frame_split_connection`);
:func:`projected_connection` keeps the general projector construction on a
lifted pass of the projector.

The unit-sphere, unit-disk, and sphere-of-sum charts attached to a bundle
put fiber coordinates in front of base coordinates, matching the fiber
integration convention of :mod:`cgbv.geometry`.  The unit-sphere bundle is
one bundle per boundary piece of the unit disk: a single S^(m-1) bundle
for m >= 2, and the two signed end bundles for m = 1.
"""

from __future__ import annotations

import math
import random

import numpy as np

from . import dual
from .chern_weil import Connection, transgression
from .errors import (ChartError, NonFiniteError, ProjectorError, RankError,
                     ShapeError, VanishingSectionError)
from .forms import (Form, MatrixForm, SmoothMap, _wedge_into, _wedges,
                    add_coeffs, as_block, combos, is_zero, mat_mul_wedge, minus,
                    sup_abs, times, wedge_table)
from .geometry import ChartDomain, FiberBundleDomain


class TrivializedBundle:
    """Oriented metric bundle in an orthonormal trivialization."""

    def __init__(self, rank: int, base: ChartDomain, connection: Connection,
                 label: str = ""):
        if connection.rank != rank:
            raise ShapeError(f"connection rank {connection.rank} != bundle rank {rank}")
        if connection.n != base.ambient_dim:
            raise ChartError("connection chart does not match the base chart")
        self.rank = rank
        self.base = base
        self.connection = connection
        self.label = label or connection.label


class Subbundle:
    """Projector field onto a subbundle of a trivialized bundle."""

    def __init__(self, rank: int, projector, label: str = ""):
        self.rank = rank
        self.projector = projector
        self.label = label

    def check(self, points) -> float:
        """Worst idempotency/symmetry defect on one block of points; raises beyond 1e-10.

        This is the one explicit projector check: the split connections
        take their projector as given.
        """
        m = self.rank
        P = [[dual.real(v) for v in row] for row in self.projector(as_block(points))]
        defects = []
        for i in range(m):
            for j in range(m):
                defects.append(P[i][j] - P[j][i])
                defects.append(sum(P[i][a] * P[a][j] for a in range(m)) - P[i][j])
        worst = sup_abs(defects)
        if not worst <= 1e-10:
            raise ProjectorError(
                f"projector {self.label or '?'} defect {worst:.3e} > 1.0e-10")
        return worst


def _skew(m: int, n: int, entry):
    """Skew m x m matrix of 1-forms from ``entry(i, j)``, i < j: the lower
    triangle its exact negative, the diagonal structural zeros."""
    out = [[[0.0] * n for _ in range(m)] for _ in range(m)]
    for i in range(m):
        for j in range(i + 1, m):
            out[i][j] = entry(i, j)
            out[j][i] = [minus(0.0, v) for v in out[i][j]]
    return out


def projected_connection(conn: Connection, sub: Subbundle) -> Connection:
    """Compression of a connection to a subbundle and its complement.

    The potential of P nabla P (+) (1-P) nabla (1-P) in the ambient
    trivialization is P dP + P A P + Q dQ + Q A Q with Q = 1 - P, and
    since dQ = -dP the two derivative blocks are one product, (P - Q) dP.
    For a projector it is skew, as are the sandwiches of a skew A, so the
    strict upper triangle of the full products is read (:func:`_skew`).
    P and dP come from one lifted pass of the projector, which is taken as
    given: :meth:`Subbundle.check` tests it on a block of points.  This is
    the oracle the closed-form :func:`frame_split_connection` is tested
    against.
    """
    if conn.rank != sub.rank:
        raise ShapeError("projector size does not match connection rank")
    m, n = conn.rank, conn.n
    proj = SmoothMap(n, m * m, lambda x: [v for row in sub.projector(x) for v in row])

    def eval_fn(x):
        flat, dflat = proj.jacobian(x)
        P = [flat[i * m:(i + 1) * m] for i in range(m)]
        dP = [dflat[i * m:(i + 1) * m] for i in range(m)]
        Q = [[minus(1.0 if i == j else 0.0, P[i][j]) for j in range(m)] for i in range(m)]
        A0 = conn.A.eval(x)
        # the scalar matrices P - Q, P and Q as matrices of 0-forms
        PmQ = [[[minus(p, q)] for p, q in zip(rp, rq)] for rp, rq in zip(P, Q)]
        D = mat_mul_wedge(n, 0, 1, PmQ, dP)
        P0, Q0 = ([[[v] for v in row] for row in S] for S in (P, Q))
        SP, SQ = (mat_mul_wedge(n, 1, 0, mat_mul_wedge(n, 0, 1, S0, A0), S0)
                  for S0 in (P0, Q0))
        return _skew(m, n, lambda i, j: add_coeffs(add_coeffs(D[i][j], SP[i][j]), SQ[i][j]))

    return Connection(m, MatrixForm(n, 1, m, eval_fn),
                      f"split({conn.label},{sub.label})")


def section_splitting_connection(conn: Connection, section) -> Connection:
    """Split a connection along the line spanned by a nonvanishing section.

    This is :func:`frame_split_connection` along the one-vector frame
    s/|s|, so the output is invariant under scaling the section, and the
    normalized section is parallel.  Wherever the frame is evaluated, at
    every point of a block, the section must be at least 1e-8 long and not
    NaN, or ``VanishingSectionError`` is raised.
    """
    m = conn.rank

    def unit(x):
        s = section(x)
        if len(s) != m:
            raise ShapeError(f"section has {len(s)} components, rank is {m}")
        norm2 = sum(v * v for v in s)
        length2 = dual.real(norm2)
        # np.all: a NaN at any node of a block fails the comparison
        if not np.all(length2 >= 1e-8 * 1e-8):
            shortest = np.min(np.sqrt(np.maximum(length2, 0.0)))
            raise VanishingSectionError(
                f"section length {shortest:.3e} below 1.0e-08")
        r = 1.0 / dual.sqrt(norm2)
        return [times(v, r) for v in s]

    return Connection(m, frame_split_connection(conn, (unit,)).A,
                      f"split({conn.label},line)")


def frame_split_connection(conn: Connection, frames) -> Connection:
    """Split along the span of an orthonormal frame, frame made parallel.

    The span of the f_a gets the trivial connection, the complement the
    compressed one.  With v_a = df_a + A f_a and c_ab = f_a . v_b,

        A' = A + sum_a (f_a v_a^T - v_a f_a^T) + sum_{a != b} c_ab f_a f_b^T,

    so A' f_a = -df_a, and A' w = P dP w + Q A w for w orthogonal to the
    span.  The frame is taken as orthonormal, not checked; then A' is skew
    and is built from its strict upper triangle (:func:`_skew`).  Its d is
    closed form too, through dv_a = dA f_a - A ^ df_a and dc_ab, from one
    first-order pass over the frames and the base potential's own
    ``eval_with_d``.  Every frame vector must be finite wherever it is
    evaluated, at every point of a block, or ``VanishingSectionError`` is
    raised: a normalized u/|u| is not finite where u vanishes, and products
    skip structural zeros, so a NaN that meets only them would drop out.
    """
    m, n, r = conn.rank, conn.n, len(frames)
    frame_map = SmoothMap(n, r * m, lambda x: [v for f in frames for v in f(x)])
    pairs = [(a, b) for a in range(r) for b in range(r) if a != b]
    # a frame entry is a 0-form: it scales a 1-form by wedge01, a 2-form by wedge02
    wedge01, wedge02, wedge11 = (wedge_table(n, p, q) for p, q in ((0, 1), (0, 2), (1, 1)))

    def eval_fn(x, with_d=False):
        flat, dflat = frame_map.jacobian(x)
        if not all(np.all(np.isfinite(dual.real(v))) for v in flat):
            raise VanishingSectionError("frame vector is not finite")
        A, dA = conn.A.eval_with_d(x) if with_d else (conn.A.eval(x), None)
        fs = [flat[a * m:(a + 1) * m] for a in range(r)]
        f = [[[s] for s in fa] for fa in fs]
        # the subtracted terms scale by -f: negation is exact, and -0.0 is
        # still a structural zero
        g = [[[-s] for s in fa] for fa in fs]
        df = [dflat[a * m:(a + 1) * m] for a in range(r)]
        v = [[_wedges(list(df[a][i]), wedge01, f[a], A[i]) for i in range(m)] for a in range(r)]
        c = {(a, b): _wedges([0.0] * n, wedge01, f[a], v[b]) for a, b in pairs}

        def entry(i, j):
            out = list(A[i][j])
            for a in range(r):
                _wedge_into(out, wedge01, f[a][i], v[a][j])
                _wedge_into(out, wedge01, g[a][j], v[a][i])
            for a, b in pairs:
                _wedge_into(out, wedge01, [times(fs[a][i], fs[b][j])], c[a, b])
            return out

        if not with_d:
            return _skew(m, n, entry)
        n2 = len(combos(n, 2))
        # dv_a = dA f_a + df_a . ^ A^T, since -A_ik ^ df_ak = df_ak ^ A_ik
        dv = [[_wedges(_wedges([0.0] * n2, wedge02, f[a], dA[i]), wedge11, df[a], A[i])
               for i in range(m)] for a in range(r)]
        dc = {(a, b): _wedges(_wedges([0.0] * n2, wedge11, df[a], v[b]), wedge02, f[a], dv[b])
              for a, b in pairs}

        def d_entry(i, j):
            out = list(dA[i][j])
            for a in range(r):
                _wedge_into(out, wedge11, df[a][i], v[a][j])
                _wedge_into(out, wedge02, f[a][i], dv[a][j])
                _wedge_into(out, wedge02, g[a][j], dv[a][i])
                _wedge_into(out, wedge11, v[a][i], df[a][j])
            for a, b in pairs:
                # d(f_ai f_bj c_ab) = d(f_ai f_bj) ^ c_ab + f_ai f_bj dc_ab
                dff = _wedges([0.0] * n, wedge01, (f[b][j], f[a][i]), (df[a][i], df[b][j]))
                _wedge_into(out, wedge11, dff, c[a, b])
                _wedge_into(out, wedge02, [times(fs[a][i], fs[b][j])], dc[a, b])
            return out

        return _skew(m, n, entry), _skew(m, n2, d_entry)

    return Connection(m, MatrixForm(n, 1, m, eval_fn, closed_d=True),
                      f"frame-split({conn.label})")


def section_transgression(conn: Connection, section) -> Form:
    """Transgression from the section-split connection to the connection.

    Its differential recovers the Pfaffian form of the connection, since
    the split endpoint has vanishing Pfaffian.
    """
    return transgression(section_splitting_connection(conn, section), conn)


def stereographic(m: int) -> SmoothMap:
    """Fiberwise inverse stereographic chart: v -> (1-|v|^2, 2v)/(1+|v|^2)."""

    def fn(v):
        n2 = sum(x * x for x in v)
        den = 1.0 + n2
        return [(1.0 - n2) / den] + [2.0 * x / den for x in v]

    return SmoothMap(m, m + 1, fn)


def stereographic_total(m: int, base_dim: int) -> SmoothMap:
    """Disk-bundle chart into the sphere-of-sum chart, base coords fixed."""
    fib = stereographic(m)

    def fn(vb):
        return fib(list(vb[:m])) + list(vb[m:])

    return SmoothMap(m + base_dim, m + 1 + base_dim, fn)


def total_connection(conn: Connection, fiber_ambient: int) -> Connection:
    """Pull a base connection back to a (fiber, base) total chart.

    Coefficients just shift past the fiber block, those of dA too, since
    the base combinations come last in lexicographic order: d is the base
    potential's own, with no differentiation here.
    """
    n, m, F = conn.n, conn.rank, fiber_ambient
    F2 = len(combos(F + n, 2)) - len(combos(n, 2))

    def pad(M, k):
        return [[[0.0] * k + e for e in row] for row in M]

    def eval_fn(x, with_d=False):
        if not with_d:
            return pad(conn.A.eval(list(x[F:])), F)
        A, dA = conn.A.eval_with_d(list(x[F:]))
        return pad(A, F), pad(dA, F2)

    return Connection(m, MatrixForm(F + n, 1, m, eval_fn, closed_d=True),
                      conn.label)


def rank_extension(conn: Connection) -> Connection:
    """Extend by a parallel trivial line: block potential 0 (+) A.

    Its d is 0 (+) dA, from the potential's own ``eval_with_d``.  A's live
    coefficients must be finite wherever evaluated, or
    :class:`NonFiniteError` is raised: a product that meets a NaN only
    through structural zeros would drop it.
    """
    m, n = conn.rank, conn.n

    def extend(M, k):
        return [[[0.0] * k for _ in range(m + 1)]] + [[[0.0] * k] + row for row in M]

    def eval_fn(x, with_d=False):
        A, dA = conn.A.eval_with_d(x) if with_d else (conn.A.eval(x), None)
        if not all(np.all(np.isfinite(dual.real(v))) for row in A for entry in row
                   for v in entry if not is_zero(v)):
            raise NonFiniteError(f"potential {conn.label or '?'} is not finite")
        return (extend(A, n), extend(dA, len(combos(n, 2)))) if with_d else extend(A, n)

    return Connection(m + 1, MatrixForm(n, 1, m + 1, eval_fn, closed_d=True),
                      f"r+{conn.label}")


class AssociatedBundles:
    """Unit-sphere, unit-disk, and sphere-of-sum charts of a bundle."""

    def __init__(self, bundle: TrivializedBundle, fiber_order: int = 16):
        self.bundle = bundle
        m, base = bundle.rank, bundle.base
        disk = ChartDomain.ball(m, order=fiber_order)
        self.de = FiberBundleDomain(disk, base, "DE")
        self.se = tuple(FiberBundleDomain(piece, base, "SE")
                        for piece in disk.boundary_faces())
        self.sre = FiberBundleDomain(ChartDomain.sphere(m + 1, order=fiber_order),
                                     base, "SRE")
        self.stereo = stereographic_total(m, base.ambient_dim)
        north = self.stereo([0.0] * (m + base.ambient_dim))
        if abs(north[0] - 1.0) > 1e-14 or any(abs(v) > 1e-14 for v in north[1:m + 1]):
            raise ChartError("stereographic chart must send 0 to (1, 0)")

    def tautological_section(self):
        """Fiber coordinate block as a section of the pulled-back bundle."""
        m = self.bundle.rank
        return lambda x: list(x[:m])


class OddRankTriple:
    """Connection triple on the rank m+1 extension over the sphere of sums.

    ``split`` makes the tautological section parallel, ``ambient`` is the
    plain extended pullback, ``plane_split`` trivializes the plane framed by
    ``plane_frame``: the constant first basis vector and the normalized fiber
    part of the tautological section (defined away from the poles).
    ``equators`` holds one (piece, inclusion) pair per piece of the
    unit-sphere bundle: the piece's chart and its inclusion at height 0.
    """

    def __init__(self, bundle: TrivializedBundle, fiber_order: int = 16):
        if bundle.rank % 2 == 0:
            raise RankError("triple construction needs odd rank")
        self.bundle = bundle
        m = bundle.rank
        nb = bundle.base.ambient_dim
        self.total_rank = m + 1
        self.assoc = AssociatedBundles(bundle, fiber_order)
        # all three live on the (m+1)-fiber-ambient sphere-of-sums chart
        amb = total_connection(rank_extension(bundle.connection), m + 1)
        self.ambient = Connection(m + 1, amb.A, "ambient")
        taut = lambda x: list(x[:m + 1])
        self.split = Connection(
            m + 1,
            section_splitting_connection(amb, taut).A,
            "split")

        def f_const(x):
            out = [0.0] * (m + 1)
            out[0] = 1.0
            return out

        def f_fiber(x):
            u = list(x[1:m + 1])
            norm = dual.sqrt(sum(v * v for v in u))
            return [0.0] + [v / norm for v in u]

        self.plane_frame = (f_const, f_fiber)
        self.plane_split = Connection(
            m + 1,
            frame_split_connection(amb, self.plane_frame).A,
            "plane-split")
        self.equators = tuple((se.fiber, _equator(se.fiber, nb))
                              for se in self.assoc.se)


def _equator(piece: ChartDomain, nb: int) -> SmoothMap:
    """A unit-sphere piece at height 0 of the extended chart.

    (reference coordinates, base) -> (0, u, base), u the piece's embedding.
    """
    emb, k = piece.embedding(), piece.dim
    return SmoothMap(k + nb, 1 + piece.ambient_dim + nb,
                     lambda x: [0.0] + emb(list(x[:k])) + list(x[k:]))


def point_base() -> ChartDomain:
    return ChartDomain.box("pt", [], [])


def _tangent_s2() -> TrivializedBundle:
    base = ChartDomain.box("s2-polar", [(0.0, math.pi), (0.0, 2.0 * math.pi)],
                           [24, 24])

    def A_eval(x):
        c = -dual.cos(x[0])
        return [[[0.0, 0.0], [0.0, c]], [[0.0, -c], [0.0, 0.0]]]

    conn = Connection(2, MatrixForm(2, 1, 2, A_eval), "round-s2")
    return TrivializedBundle(2, base, conn, "tangent-s2")


def _flat_disk(rank: int) -> TrivializedBundle:
    base = ChartDomain.ball(2, order=16)
    return TrivializedBundle(rank, base, Connection.flat(rank, 2, "flat"),
                             f"flat-rank{rank}-disk")


POLYNOMIAL_BASIS = (lambda x: 1.0, lambda x: x[0], lambda x: x[0] * x[-1])


def random_skew_connection(n: int, m: int, rng: random.Random, basis,
                           label: str = "") -> Connection:
    """Rank-m connection on R^n whose potential entries are random
    combinations of ``basis``, a tuple of scalar functions of the point.

    Only the strict upper triangle is drawn: per entry (i, j), i < j, in
    row order, per coefficient, one uniform in [-1, 1] per basis function,
    so m(m - 1)/2 * n * len(basis) draws in all.  The basis is evaluated
    once per point, and :func:`_skew` mirrors the triangle.
    """
    coefs = {(i, j): [[rng.uniform(-1.0, 1.0) for _ in basis] for _ in range(n)]
             for i in range(m) for j in range(i + 1, m)}

    def ev(x):
        vals = [f(x) for f in basis]
        return _skew(m, n, lambda i, j: [sum(c * v for c, v in zip(cs, vals))
                                         for cs in coefs[i, j]])

    return Connection(m, MatrixForm(n, 1, m, ev), label)


def _random_disk(rank: int, seed: int) -> TrivializedBundle:
    base = ChartDomain.ball(2, order=16)
    conn = random_skew_connection(2, rank, random.Random(seed), POLYNOMIAL_BASIS,
                                  f"random-{seed}")
    return TrivializedBundle(rank, base, conn, f"random-rank{rank}-disk")


def _odd_point(rank: int) -> TrivializedBundle:
    return TrivializedBundle(rank, point_base(), Connection.flat(rank, 0, "point"),
                             f"odd-rank{rank}-point")


REGISTRY = {
    "tangent-s2": _tangent_s2,
    "flat-rank2-disk": lambda: _flat_disk(2),
    "random-rank2-disk": lambda: _random_disk(2, 11),
    "odd-rank1-point": lambda: _odd_point(1),
    "odd-rank3-point": lambda: _odd_point(3),
}

ODD_REGISTRY = ("odd-rank1-point", "odd-rank3-point")


def make_bundle(name: str) -> TrivializedBundle:
    try:
        factory = REGISTRY[name]
    except KeyError:
        raise ChartError(f"unknown bundle {name!r}") from None
    return factory()
