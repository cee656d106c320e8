"""Concrete bundle geometry over desk-scale bases.

Every bundle is carried in a global orthonormal trivialization over one
coordinate chart, so a subbundle is a projector field, a section is a
vector-valued function, and all induced connections are explicit potential
formulas.  Splitting a connection along a subbundle compresses it to the
two factors, which keeps skewness manifest and makes parallel sections easy
to arrange.

The unit-sphere, unit-disk, and sphere-of-sum charts attached to a bundle
put fiber coordinates in front of base coordinates, matching the fiber
integration convention of :mod:`cgbv.geometry`.  The unit-sphere bundle is
one bundle per boundary piece of the unit disk: a single S^(m-1) bundle
for m >= 2, and the two signed end bundles for m = 1.
"""

from __future__ import annotations

import math

import numpy as np

from . import dual
from .chern_weil import Connection, transgression
from .errors import (ChartError, NonFiniteError, ProjectorError, RankError,
                     ShapeError, VanishingSectionError)
from .forms import (Form, MatrixForm, SmoothMap, _live, _mul_smat, _smul_mat,
                    add_coeffs, as_block, is_zero, minus, plus, sub_coeffs,
                    sup_abs, times)
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


def _complement(P):
    """Q = 1 - P."""
    m = len(P)
    return [[minus(1.0 if i == j else 0.0, P[i][j]) for j in range(m)] for i in range(m)]


def _sandwich(S, A0):
    """Strict upper triangle of S A0 S, S a scalar matrix, A0 coefficient lists."""
    return _mul_smat(_smul_mat(S, A0), S, upper=True)


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
    For a projector it is skew, as are the sandwiches of a skew A, so only
    the strict upper triangle is computed (:func:`_skew`).  P and dP come
    from one lifted pass of the projector, which is taken as given:
    :meth:`Subbundle.check` tests it on a block of points.
    """
    if conn.rank != sub.rank:
        raise ShapeError("projector size does not match connection rank")
    m, n = conn.rank, conn.n
    proj = SmoothMap(n, m * m, lambda x: [v for row in sub.projector(x) for v in row])

    def eval_fn(x):
        flat, dflat = proj.jacobian(x)
        P = [flat[i * m:(i + 1) * m] for i in range(m)]
        dP = [dflat[i * m:(i + 1) * m] for i in range(m)]
        Q = _complement(P)
        A0 = conn.A.eval(x)
        PmQ = [[minus(p, q) for p, q in zip(rp, rq)] for rp, rq in zip(P, Q)]
        D, SP, SQ = _smul_mat(PmQ, dP, upper=True), _sandwich(P, A0), _sandwich(Q, A0)
        return _skew(m, n, lambda i, j: add_coeffs(add_coeffs(D[i][j], SP[i][j]), SQ[i][j]))

    # the projector's m * m entries ride one lifted pass over n directions
    return Connection(m, MatrixForm(n, 1, m, eval_fn, max(m * m * n, conn.A.width)),
                      f"split({conn.label},{sub.label})")


def section_splitting_connection(conn: Connection, section) -> Connection:
    """Split a connection along the line spanned by a nonvanishing section.

    The section is normalized internally, so the output is invariant under
    scaling the section.  The line factor carries the compressed connection,
    which makes the normalized section parallel.  Wherever the projector is
    evaluated, at every point of a block, the section must be at least 1e-8
    long and not NaN, or ``VanishingSectionError`` is raised.
    """
    m = conn.rank

    def proj(x):
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
        r = 1.0 / norm2  # one reciprocal, and the symmetric half of s s^T r
        t = [times(v, r) for v in s]
        P = [[0.0] * m for _ in range(m)]
        for i in range(m):
            for j in range(i, m):
                P[i][j] = P[j][i] = times(t[i], s[j])
        return P

    return projected_connection(conn, Subbundle(m, proj, "line"))


def frame_split_connection(conn: Connection, frames) -> Connection:
    """Split along the span of an orthonormal frame, frame made parallel.

    The frame vectors are declared parallel (trivial connection on their
    span); the complement carries the compressed connection.  The frame is
    taken as orthonormal, not checked; then S - Q dP + Q A Q, S the span
    block below, is skew and is built from its strict upper triangle.  The
    frames and their derivatives come from one lifted pass.  Every frame
    vector must be finite wherever it is evaluated, at every point of a
    block, or ``VanishingSectionError`` is raised: a normalized vector such
    as u/|u| is not finite where u vanishes, and products skip structural
    zeros, so a NaN that meets only them would otherwise drop out of a form
    built to vanish.
    """
    m, n = conn.rank, conn.n
    r = len(frames)
    frame_map = SmoothMap(n, r * m, lambda x: [v for f in frames for v in f(x)])

    def eval_fn(x):
        flat, dflat = frame_map.jacobian(x)
        if not all(np.all(np.isfinite(dual.real(v))) for v in flat):
            raise VanishingSectionError("frame vector is not finite")
        A0 = conn.A.eval(x)
        # P = sum_a f_a f_a^T and the span block S = sum_a f_a df_a^T;
        # dP = sum_a (df_a f_a^T + f_a df_a^T) = S + S^T
        P = [[0.0] * m for _ in range(m)]
        S = [[[0.0] * n for _ in range(m)] for _ in range(m)]
        for a in range(r):
            f, df = flat[a * m:(a + 1) * m], dflat[a * m:(a + 1) * m]
            live = [_live(v) for v in df]
            for i in range(m):
                if is_zero(f[i]):
                    continue
                for j in range(m):
                    P[i][j] = plus(P[i][j], times(f[i], f[j]))
                    d = S[i][j]
                    for c in live[j]:
                        d[c] = plus(d[c], f[i] * df[j][c])
        dP = [[add_coeffs(S[i][j], S[j][i]) for j in range(m)] for i in range(m)]
        Q = _complement(P)
        QdP, SQ = _smul_mat(Q, dP, upper=True), _sandwich(Q, A0)
        return _skew(m, n, lambda i, j: add_coeffs(sub_coeffs(S[i][j], QdP[i][j]), SQ[i][j]))

    return Connection(m, MatrixForm(n, 1, m, eval_fn, max(m * m * n, conn.A.width)),
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

    Coefficients just shift past the fiber block; no differentiation.
    """
    n, m = conn.n, conn.rank

    def eval_fn(x):
        A = conn.A.eval(list(x[fiber_ambient:]))
        return [[[0.0] * fiber_ambient + A[i][j] for j in range(m)] for i in range(m)]

    return Connection(m, MatrixForm(fiber_ambient + n, 1, m, eval_fn, conn.A.width),
                      conn.label)


def rank_extension(conn: Connection) -> Connection:
    """Extend by a parallel trivial line: block potential 0 (+) A.

    A's live coefficients must be finite wherever evaluated, or
    :class:`NonFiniteError` is raised: a product that meets a NaN only
    through structural zeros would drop it.
    """
    m, n = conn.rank, conn.n

    def eval_fn(x):
        A = conn.A.eval(x)
        if not all(np.all(np.isfinite(dual.real(v))) for row in A for entry in row
                   for v in entry if not is_zero(v)):
            raise NonFiniteError(f"potential {conn.label or '?'} is not finite")
        return [[[0.0] * n for _ in range(m + 1)]] + [[[0.0] * n] + row for row in A]

    return Connection(m + 1, MatrixForm(n, 1, m + 1, eval_fn,
                                        max((m + 1) ** 2, conn.A.width)),
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


def _random_skew_polynomial(n: int, m: int, seed: int):
    """Skew potential whose coefficients are random a + b x0 + c x0 x1."""
    import random as _random
    rng = _random.Random(seed)
    coefs = [[[[rng.uniform(-1.0, 1.0) for _ in range(3)]
               for _ in range(n)] for _ in range(m)] for _ in range(m)]

    def ev(x):
        return _skew(m, n, lambda i, j: [a + b * x[0] + c * (x[0] * x[1 % n])
                                         for a, b, c in coefs[i][j]])

    return ev


def _random_disk(rank: int, seed: int) -> TrivializedBundle:
    base = ChartDomain.ball(2, order=16)
    conn = Connection(rank, MatrixForm(2, 1, rank,
                                       _random_skew_polynomial(2, rank, seed)),
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
