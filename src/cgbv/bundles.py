"""Concrete bundle geometry over desk-scale bases.

Every bundle is carried in a global orthonormal trivialization over one
coordinate chart, so a subbundle is a projector field, a section is a
vector-valued function, and all induced connections are explicit potential
formulas.  Splitting a connection along a subbundle compresses it to the
two factors, which keeps skewness manifest and makes parallel sections easy
to arrange.

The unit-sphere, unit-disk, and sphere-of-sum charts attached to a bundle
put fiber coordinates in front of base coordinates, matching the fiber
integration convention of :mod:`cgbv.geometry`.
"""

from __future__ import annotations

import math

import numpy as np

from . import dual
from .chern_weil import Connection, transgression
from .errors import (ChartError, ProjectorError, RankError, ShapeError,
                     VanishingSectionError)
from .forms import (Form, MatrixForm, SmoothMap, _mul_smat, _smul_mat,
                    sup_abs)
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

    def check(self, points, tol: float = 1e-10) -> float:
        """Worst idempotency/symmetry defect; raises beyond tol."""
        m = self.rank
        defects = []
        for x in points:
            P = self.projector(x)
            for i in range(m):
                for j in range(m):
                    pij = dual.real(P[i][j])
                    defects.append(pij - dual.real(P[j][i]))
                    defects.append(sum(dual.real(P[i][a]) * dual.real(P[a][j])
                                       for a in range(m)) - pij)
        worst = sup_abs(defects)
        if not worst <= tol:
            raise ProjectorError(
                f"projector {self.label or '?'} defect {worst:.3e} > {tol:.1e}")
        return worst


def projected_connection(conn: Connection, sub: Subbundle,
                         check_points=(), tol: float = 1e-10) -> Connection:
    """Compression of a connection to a subbundle and its complement.

    The potential of P nabla P (+) (1-P) nabla (1-P) in the ambient
    trivialization is 2 P dP - dP + P A P + (1-P) A (1-P).
    """
    if conn.rank != sub.rank:
        raise ShapeError("projector size does not match connection rank")
    if check_points:
        sub.check(check_points, tol)
    m, n = conn.rank, conn.n

    def proj_entries(x):
        P = sub.projector(x)
        return [[[P[i][j]] for j in range(m)] for i in range(m)]

    dPmf = MatrixForm(n, 0, m, proj_entries).d()

    def eval_fn(x):
        P = sub.projector(x)
        dP = dPmf.eval(x)
        A0 = conn.A.eval(x)
        Q = [[(1.0 if i == j else 0.0) - P[i][j] for j in range(m)] for i in range(m)]
        out = _smul_mat(P, dP)
        for i in range(m):
            for j in range(m):
                d, s = out[i][j], dP[i][j]
                for c in range(n):
                    d[c] = 2.0 * d[c] - s[c]
        for S in (P, Q):
            mid = _mul_smat(_smul_mat(S, A0), S)
            for i in range(m):
                for j in range(m):
                    d, s = out[i][j], mid[i][j]
                    for c in range(n):
                        d[c] = d[c] + s[c]
        return out

    return Connection(m, MatrixForm(n, 1, m, eval_fn),
                      f"split({conn.label},{sub.label})")


def section_splitting_connection(conn: Connection, section,
                                 check_points=(), threshold: float = 1e-8
                                 ) -> Connection:
    """Split a connection along the line spanned by a nonvanishing section.

    The section is normalized internally, so the output is invariant under
    scaling the section.  The line factor carries the compressed connection,
    which makes the normalized section parallel.
    """
    m = conn.rank

    def proj(x):
        s = section(x)
        if len(s) != m:
            raise ShapeError(f"section has {len(s)} components, rank is {m}")
        norm2 = sum(v * v for v in s)
        length2 = dual.real(norm2)
        # np.all: a NaN at any node of a block fails the comparison
        if not np.all(length2 >= threshold * threshold):
            shortest = np.min(np.sqrt(np.maximum(length2, 0.0)))
            raise VanishingSectionError(
                f"section length {shortest:.3e} below {threshold:.1e}")
        return [[s[i] * s[j] / norm2 for j in range(m)] for i in range(m)]

    for x in check_points:
        length = math.sqrt(max(dual.real(sum(v * v for v in section(x))), 0.0))
        if not length >= threshold:
            raise VanishingSectionError(
                f"section length {length:.3e} at {x} below {threshold:.1e}")
    return projected_connection(conn, Subbundle(m, proj, "line"),
                                check_points=check_points)


def frame_split_connection(conn: Connection, frames,
                           check_points=(), tol: float = 1e-10) -> Connection:
    """Split along the span of an orthonormal frame, frame made parallel.

    The frame vectors are declared parallel (trivial connection on their
    span); the complement carries the compressed connection.  Orthonormality
    is spot-checked at ``check_points``.
    """
    m, n = conn.rank, conn.n
    r = len(frames)

    def gram_defect(x):
        F = [f(x) for f in frames]
        return sup_abs(dual.real(sum(F[a][i] * F[b][i] for i in range(m)))
                       - (1.0 if a == b else 0.0)
                       for a in range(r) for b in range(r))

    for x in check_points:
        defect = gram_defect(x)
        if not defect <= tol:
            raise ProjectorError(f"frame Gram defect {defect:.3e} > {tol:.1e}")

    def G_entries(x):
        F = [f(x) for f in frames]
        return [[[F[a][i]] for a in range(r)] for i in range(m)]

    # m x r frame matrix as degree-0 rectangular data handled entrywise
    Gmf = MatrixForm(n, 0, max(m, r), lambda x: _pad_square(G_entries(x), max(m, r)))
    dGmf = Gmf.d()

    def eval_fn(x):
        F = [f(x) for f in frames]
        dG = dGmf.eval(x)
        A0 = conn.A.eval(x)
        P = [[sum(F[a][i] * F[a][j] for a in range(r)) for j in range(m)]
             for i in range(m)]
        Q = [[(1.0 if i == j else 0.0) - P[i][j] for j in range(m)] for i in range(m)]
        # sum_a f_a df_a^T from the padded rectangle: dG[i][a] = d(f_a)_i
        out = [[[0.0] * n for _ in range(m)] for _ in range(m)]
        for i in range(m):
            for j in range(m):
                d = out[i][j]
                for a in range(r):
                    fi = F[a][i]
                    src = dG[j][a]
                    for c in range(n):
                        d[c] = d[c] + fi * src[c]
        # complement block: Q dQ with dQ = -dP = -(dG G^T + G dG^T)
        dP = [[[0.0] * n for _ in range(m)] for _ in range(m)]
        for i in range(m):
            for j in range(m):
                d = dP[i][j]
                for a in range(r):
                    gi, gj = F[a][i], F[a][j]
                    si, sj = dG[i][a], dG[j][a]
                    for c in range(n):
                        d[c] = d[c] + si[c] * gj + gi * sj[c]
        QdQ = _smul_mat(Q, dP)
        mid = _mul_smat(_smul_mat(Q, A0), Q)
        for i in range(m):
            for j in range(m):
                d, s1, s2 = out[i][j], QdQ[i][j], mid[i][j]
                for c in range(n):
                    d[c] = d[c] - s1[c] + s2[c]
        return out

    return Connection(m, MatrixForm(n, 1, m, eval_fn), f"frame-split({conn.label})")


def _pad_square(rect, size):
    out = [[[0.0] for _ in range(size)] for _ in range(size)]
    for i, row in enumerate(rect):
        for j, entry in enumerate(row):
            out[i][j] = entry
    return out


def section_transgression(conn: Connection, section, check_points=(),
                          t_order: int = 16) -> Form:
    """Transgression from the section-split connection to the connection.

    Its differential recovers the Pfaffian form of the connection, since
    the split endpoint has vanishing Pfaffian.
    """
    split = section_splitting_connection(conn, section, check_points=check_points)
    return transgression(split, conn, t_order=t_order)


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

    return Connection(m, MatrixForm(fiber_ambient + n, 1, m, eval_fn), conn.label)


def rank_extension(conn: Connection) -> Connection:
    """Extend by a parallel trivial line: block potential 0 (+) A."""
    m, n = conn.rank, conn.n

    def eval_fn(x):
        A = conn.A.eval(x)
        out = [[[0.0] * n for _ in range(m + 1)] for _ in range(m + 1)]
        for i in range(m):
            for j in range(m):
                out[i + 1][j + 1] = A[i][j]
        return out

    return Connection(m + 1, MatrixForm(n, 1, m + 1, eval_fn), f"r+{conn.label}")


class AssociatedBundles:
    """Unit-sphere, unit-disk, and sphere-of-sum charts of a bundle."""

    def __init__(self, bundle: TrivializedBundle, fiber_order: int = 16):
        self.bundle = bundle
        m, base = bundle.rank, bundle.base
        self.se = FiberBundleDomain(ChartDomain.sphere(m, order=fiber_order), base, "SE")
        self.de = FiberBundleDomain(ChartDomain.ball(m, order=fiber_order), base, "DE")
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
        if m >= 2:
            eq_src = m - 1 + nb
            sphere_embed = ChartDomain.sphere(m).embedding()

            def eq_fn(ang_b):
                u = sphere_embed(list(ang_b[:m - 1]))
                return [0.0] + u + list(ang_b[m - 1:])

            self.equator = SmoothMap(eq_src, m + 1 + nb, eq_fn)
        else:
            self.equator = None

    def ordered_pair(self, ordering: str):
        """Transgression endpoints for the two documented label orders."""
        if ordering == "split-first":
            return self.split, self.ambient
        if ordering == "ambient-first":
            return self.ambient, self.split
        raise ChartError(f"unknown ordering {ordering!r}")


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


def _random_skew_polynomial(n: int, m: int, seed: int, degree: int = 2):
    import random as _random
    rng = _random.Random(seed)
    coefs = [[[[rng.uniform(-1.0, 1.0) for _ in range(degree + 1)]
               for _ in range(n)] for _ in range(m)] for _ in range(m)]

    def ev(x):
        out = [[[0.0] * n for _ in range(m)] for _ in range(m)]
        for i in range(m):
            for j in range(i + 1, m):
                for c in range(n):
                    poly = coefs[i][j][c]
                    val = poly[0]
                    mono = 1.0
                    for dgr in range(1, degree + 1):
                        mono = mono * x[(dgr - 1) % n]
                        val = val + poly[dgr] * mono
                    out[i][j][c] = val
                    out[j][i][c] = -val
        return out

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
