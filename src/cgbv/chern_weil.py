"""Pfaffian forms, connections, and transgression machinery.

Connections are stored as skew potentials in a fixed orthonormal
trivialization over a coordinate chart, so curvature is F = dA + A ^ A and
metric compatibility is plain matrix skewness.  The normalization divides
curvature by 2*pi inside the Pfaffian, pinned by the round two-sphere whose
Pfaffian form integrates to 2.

Transgressions are integrals over a parameter block placed in front of the
base coordinates.  The affine path between two potentials has cylinder
curvature dt ^ (A2 - A1) + F(A_t), so the t-integral needs no derivatives
in t; the generic cylinder construction is kept alongside for cross tests.
"""

from __future__ import annotations

import math
import random
from functools import lru_cache

from .errors import (ConsistencyError, DegreeError, RankError, ShapeError,
                     SymmetryPreconditionError)
from .forms import (Form, MatrixForm, SmoothMap, ZeroForm, _mul_smat,
                    _smul_mat, combo_index, combos, mat_mul_wedge,
                    scale_coeffs, sub_coeffs, sup_abs, wedge_coeffs,
                    zero_coeffs)
from .geometry import ChartDomain, FiberBundleDomain, gauss_nodes

TWO_PI = 2.0 * math.pi


@lru_cache(maxsize=None)
def perfect_matchings(m: int) -> tuple:
    """Signed perfect matchings of {0..m-1}: (sign, ((i1,j1),...))."""
    if m % 2:
        raise ShapeError(f"no perfect matchings of an odd set, size {m}")

    def rec(rest):
        if not rest:
            return [()]
        out = []
        first = rest[0]
        for idx in range(1, len(rest)):
            partner = rest[idx]
            tail = rest[1:idx] + rest[idx + 1:]
            for sub in rec(tail):
                out.append(((first, partner),) + sub)
        return out

    matchings = rec(tuple(range(m)))
    signed = []
    for pairs in matchings:
        flat = [x for pair in pairs for x in pair]
        inv = sum(1 for a in range(len(flat)) for b in range(a + 1, len(flat))
                  if flat[a] > flat[b])
        signed.append((-1 if inv % 2 else 1, tuple(pairs)))
    return tuple(signed)


def pfaffian_coeffs(n: int, p: int, A) -> list:
    """Pfaffian of an m x m matrix of degree-p coefficient lists at a point."""
    m = len(A)
    k = m // 2
    out = zero_coeffs(n, k * p)
    for sign, pairs in perfect_matchings(m):
        prod = list(A[pairs[0][0]][pairs[0][1]])
        deg = p
        for (i, j) in pairs[1:]:
            prod = wedge_coeffs(n, deg, p, prod, A[i][j])
            deg += p
        for idx, v in enumerate(prod):
            out[idx] += sign * v
    return out


def pfaffian(Mf: MatrixForm) -> Form:
    """Pfaffian form of a skew matrix of even-degree forms.

    Convention: Pf([[0, a], [-a, 0]]) = a.
    """
    if Mf.m % 2:
        raise ShapeError(f"pfaffian needs even size, got {Mf.m}")
    if Mf.p % 2:
        raise DegreeError("pfaffian entries must have even degree")
    k = Mf.m // 2
    if k * Mf.p > Mf.n:
        # degree above the chart dimension: identically zero
        return ZeroForm(Mf.n, k * Mf.p)
    n, p = Mf.n, Mf.p
    return Form(n, k * p, lambda x: pfaffian_coeffs(n, p, Mf.eval(x)))


class Connection:
    """Metric connection: skew potential matrix of 1-forms on a chart."""

    def __init__(self, rank: int, A: MatrixForm, label: str = ""):
        if A.p != 1:
            raise DegreeError("connection potential must consist of 1-forms")
        if A.m != rank:
            raise ShapeError(f"potential is {A.m}x{A.m}, rank says {rank}")
        self.rank = rank
        self.n = A.n
        self.A = A
        self.label = label

    @staticmethod
    def flat(rank: int, n: int, label: str = "flat") -> "Connection":
        return Connection(rank, MatrixForm.zero(n, 1, rank), label)

    def curvature(self) -> MatrixForm:
        """F = dA + A ^ A in the trivialization."""
        return self.A.d() + self.A.wedge(self.A)

    def pullback(self, phi: SmoothMap, label: str = "") -> "Connection":
        return Connection(self.rank, self.A.pullback(phi), label or self.label)

    def skew_residual(self, points) -> float:
        """Sup over the points of |A + A^T|, entry by entry."""
        m = self.rank
        return sup_abs(a + b for A in map(self.A.eval, points)
                       for i in range(m) for j in range(m)
                       for a, b in zip(A[i][j], A[j][i]))


def pf_form(conn: Connection) -> Form:
    """Pfaffian of curvature/2*pi; integrates to the Euler number."""
    if conn.rank % 2:
        raise RankError("Pfaffian form undefined for odd rank")
    k = conn.rank // 2
    F = conn.curvature()
    return pfaffian(F).smul(TWO_PI ** -k)


def _even_pair(c1: Connection, c2: Connection):
    if c1.rank != c2.rank or c1.n != c2.n:
        raise ShapeError("transgression endpoints live on different bundles")
    if c1.rank % 2:
        raise RankError("transgression needs even rank")
    return c1.rank // 2


def transgression(c1: Connection, c2: Connection, t_order: int = 16) -> Form:
    """Degree 2k-1 form with d(result) = pf_form(c2) - pf_form(c1).

    The affine path (1-t)A1 + tA2 has cylinder curvature
    dt ^ (A2 - A1) + F_t with F_t = (1-t)dA1 + t dA2 + A_t ^ A_t, so the
    integrand of the front dt-block is assembled from six matrices computed
    once per point; only the scalar weights move with t.
    """
    k = _even_pair(c1, c2)
    n, m = c1.n, c1.rank
    if 2 * k - 1 > n:
        # output degree above the chart dimension: identically zero
        return ZeroForm(n, 2 * k - 1)
    dA1_mf, dA2_mf = c1.A.d(), c2.A.d()
    nodes = list(zip(*gauss_nodes(t_order, 0.0, 1.0)))
    matchings = perfect_matchings(m)
    scale = TWO_PI ** -k
    out_deg = 2 * k - 1

    def comps(x):
        A1, A2 = c1.A.eval(x), c2.A.eval(x)
        dA1, dA2 = dA1_mf.eval(x), dA2_mf.eval(x)
        theta = [[sub_coeffs(A2[i][j], A1[i][j]) for j in range(m)] for i in range(m)]
        W11 = mat_mul_wedge(n, 1, 1, A1, A1)
        W12 = mat_mul_wedge(n, 1, 1, A1, A2)
        W21 = mat_mul_wedge(n, 1, 1, A2, A1)
        W22 = mat_mul_wedge(n, 1, 1, A2, A2)
        ncomp2 = len(combos(n, 2))
        out = zero_coeffs(n, out_deg)
        for t, w in nodes:
            s = 1.0 - t
            F = [[[s * dA1[i][j][c] + t * dA2[i][j][c]
                   + s * s * W11[i][j][c] + s * t * (W12[i][j][c] + W21[i][j][c])
                   + t * t * W22[i][j][c]
                   for c in range(ncomp2)] for j in range(m)] for i in range(m)]
            block = _dt_block(n, theta, F, matchings, out_deg)
            for idx in range(len(out)):
                out[idx] += w * block[idx]
        return scale_coeffs(scale, out)

    return Form(n, out_deg, comps)


def _dt_block(n: int, theta, F, matchings, out_deg: int):
    """Front dt-coefficient of Pf(dt ^ theta + F): one theta factor per term."""
    out = zero_coeffs(n, out_deg)
    for sign, pairs in matchings:
        for pos, (i, j) in enumerate(pairs):
            prod = list(theta[i][j])
            deg = 1
            for q, (a, b) in enumerate(pairs):
                if q == pos:
                    continue
                prod = wedge_coeffs(n, deg, 2, prod, F[a][b])
                deg += 2
            for idx, v in enumerate(prod):
                out[idx] += sign * v
    return out


def connection_path(c1: Connection, c2: Connection) -> Connection:
    """Affine path realized on the cylinder chart, t in front of the base."""
    if c1.rank != c2.rank or c1.n != c2.n:
        raise ShapeError("path endpoints live on different bundles")
    n, m = c1.n, c1.rank

    def eval_fn(tx):
        t = tx[0]
        A1 = c1.A.eval(list(tx[1:]))
        A2 = c2.A.eval(list(tx[1:]))
        # base 1-form components shift by one slot; dt component stays zero
        out = []
        for i in range(m):
            row = []
            for j in range(m):
                coeff = [0.0]
                for a, b in zip(A1[i][j], A2[i][j]):
                    coeff.append((1.0 - t) * a + t * b)
                row.append(coeff)
            out.append(row)
        return out

    return Connection(m, MatrixForm(n + 1, 1, m, eval_fn),
                      f"path({c1.label},{c2.label})")


def simplex_family(c1: Connection, c2: Connection, c3: Connection) -> Connection:
    """Three-connection family on the (s,t) simplex block times the base."""
    if not (c1.rank == c2.rank == c3.rank and c1.n == c2.n == c3.n):
        raise ShapeError("family needs three connections on one bundle")
    n, m = c1.n, c1.rank

    def eval_fn(stx):
        s, t = stx[0], stx[1]
        x = list(stx[2:])
        A1, A2, A3 = c1.A.eval(x), c2.A.eval(x), c3.A.eval(x)
        out = []
        for i in range(m):
            row = []
            for j in range(m):
                coeff = [0.0, 0.0]
                for a, b, c in zip(A1[i][j], A2[i][j], A3[i][j]):
                    coeff.append(a + s * (b - a) + t * (c - a))
                row.append(coeff)
            out.append(row)
        return out

    return Connection(m, MatrixForm(n + 2, 1, m, eval_fn),
                      f"simplex({c1.label},{c2.label},{c3.label})")


def secondary_transgression(c1: Connection, c2: Connection, c3: Connection,
                            order: int = 16) -> Form:
    """Degree 2k-2 form whose -d equals the sum of the three edge
    transgressions (edges of the parameter triangle, each run forward).

    Integration over the triangle {s,t >= 0, s+t <= 1} uses the square
    substitution (u,v) -> (u(1-v), uv) with Jacobian u, orientation ds^dt.
    """
    k = _even_pair(c1, c2)
    _even_pair(c1, c3)
    n, m = c1.n, c1.rank
    if 2 * k - 2 > n:
        return ZeroForm(n, 2 * k - 2)
    dA1_mf, dO21_mf = c1.A.d(), (c2.A - c1.A).d()
    dO31_mf = (c3.A - c1.A).d()
    xs, ws = gauss_nodes(order, 0.0, 1.0)
    duffy_nodes = [((u * (1.0 - v), u * v), wu * wv * u)
                   for u, wu in zip(xs, ws) for v, wv in zip(xs, ws)]
    matchings = perfect_matchings(m)
    N = n + 2
    idx2 = combo_index(N, 2)
    # base index maps into the enlarged chart: 2-form block, ds block, dt block
    base2 = [idx2[(I[0] + 2, I[1] + 2)] for I in combos(n, 2)]
    ds1 = [idx2[(0, i + 2)] for i in range(n)]
    dt1 = [idx2[(1, i + 2)] for i in range(n)]
    n2comp = len(combos(N, 2))
    out_deg = 2 * k - 2
    idx_out = combo_index(N, 2 * k)
    front = [idx_out[(0, 1) + tuple(i + 2 for i in I)] for I in combos(n, out_deg)]
    scale = TWO_PI ** -k

    def comps(x):
        A1 = c1.A.eval(x)
        O21 = _mat_sub(c2.A.eval(x), A1)
        O31 = _mat_sub(c3.A.eval(x), A1)
        dA1, dO21, dO31 = dA1_mf.eval(x), dO21_mf.eval(x), dO31_mf.eval(x)
        basis = (A1, O21, O31)
        W = [[mat_mul_wedge(n, 1, 1, a, b) for b in basis] for a in basis]
        out = [0.0] * len(front)
        for (s, t), w in duffy_nodes:
            c_s = (1.0, s, t)
            big = []
            for i in range(m):
                row = []
                for j in range(m):
                    coeff = [0.0] * n2comp
                    for cidx, amb in enumerate(base2):
                        val = dA1[i][j][cidx] + s * dO21[i][j][cidx] + t * dO31[i][j][cidx]
                        for a in range(3):
                            for b in range(3):
                                val += c_s[a] * c_s[b] * W[a][b][i][j][cidx]
                        coeff[amb] = val
                    for cidx in range(n):
                        coeff[ds1[cidx]] = O21[i][j][cidx]
                        coeff[dt1[cidx]] = O31[i][j][cidx]
                    row.append(coeff)
                big.append(row)
            pf = pfaffian_coeffs(N, 2, big)
            for oidx, amb in enumerate(front):
                out[oidx] += w * pf[amb]
        return scale_coeffs(scale, out)

    return Form(n, out_deg, comps)


def _mat_sub(A, B):
    m = len(A)
    return [[sub_coeffs(A[i][j], B[i][j]) for j in range(m)] for i in range(m)]


def transgression_forms_of_family(family: Connection, base: ChartDomain,
                                  t_order: int = 16) -> Form:
    """Generic route: Pfaffian of the full family curvature, fiber-integrated.

    Used as an independent oracle against :func:`transgression` and
    :func:`secondary_transgression`; slower since it differentiates the
    family potential in every chart direction, parameters included.
    """
    extra = family.n - base.ambient_dim
    if extra == 1:
        fiber = ChartDomain.interval("t", 0.0, 1.0, t_order)
    elif extra == 2:
        duffy = SmoothMap(2, 2, lambda uv: [uv[0] * (1.0 - uv[1]), uv[0] * uv[1]])
        fiber = ChartDomain.box("simplex", [(0.0, 1.0), (0.0, 1.0)],
                                [t_order, t_order], embed=duffy)
    else:
        raise ShapeError("family must add one or two parameter directions")
    bundle = FiberBundleDomain(fiber, base)
    return bundle.fiber_integrate(pf_form(family))


def loop_transgression(loop: Connection, extension: Connection,
                       base: ChartDomain, order: int = 16,
                       check_points: int = 6, tol: float = 1e-8):
    """Closed-loop transgression and its disk primitive.

    ``loop`` lives on the (t, base) chart, periodic in t over [0,1];
    ``extension`` on the (z1, z2, base) chart must restrict to the loop on
    the unit circle z(t) = (cos 2 pi t, sin 2 pi t).  Returns (T, P) with
    dP = -T.
    """
    n = base.ambient_dim
    if loop.n != n + 1 or extension.n != n + 2:
        raise ShapeError("loop/extension charts must add one/two directions")
    rng_pts = base.sample_ref_points(random.Random(5), check_points)
    emb = base.embedding()
    for pt in rng_pts:
        x = emb(pt)
        for t in (0.0, 0.31, 0.77):
            a = loop.A.eval([t] + list(x))
            b = extension.A.eval([math.cos(TWO_PI * t), math.sin(TWO_PI * t)] + list(x))
            # loop coefficients: (dt, base...); extension: (dz1, dz2, base...)
            gap = sup_abs(ca - cb for i in range(loop.rank)
                          for j in range(loop.rank)
                          for ca, cb in zip(a[i][j][1:], b[i][j][2:]))
            if not gap <= tol:
                raise ConsistencyError(
                    "extension does not restrict to the loop on the circle")
    t_fiber = ChartDomain.interval("t", 0.0, 1.0, order)
    T = FiberBundleDomain(t_fiber, base).fiber_integrate(pf_form(loop))
    disk = ChartDomain.ball(2, order=order)
    P = FiberBundleDomain(disk, base).fiber_integrate(pf_form(extension))
    return T, P


def gauge_pullback_potential(conn: Connection, phi: SmoothMap, psi) -> MatrixForm:
    """Potential of the pulled-back connection conjugated by a constant gauge.

    psi is a constant orthogonal matrix; the transformed potential is
    psi^-1 (phi^* A) psi, the correct transport when the gauge does not
    vary over the chart.
    """
    m = conn.rank
    pulled = conn.A.pullback(phi)
    psiT = [[psi[j][i] for j in range(m)] for i in range(m)]
    return MatrixForm(conn.n, 1, m,
                      lambda x: _mul_smat(_smul_mat(psiT, pulled.eval(x)), psi))


def gauge_residual(conn: Connection, phi: SmoothMap, psi,
                   sample_points) -> float:
    """Sup over the points of |psi^T (phi^* A) psi - A|, entry by entry.

    Zero exactly when the gauge pair (psi, phi) preserves the connection
    at every sample point; NaN if any entry is NaN there.
    """
    transformed = gauge_pullback_potential(conn, phi, psi)
    return sup_abs(a - b for x in sample_points
                   for got_row, want_row in zip(transformed.eval(x),
                                                conn.A.eval(x))
                   for got, want in zip(got_row, want_row)
                   for a, b in zip(got, want))


def symmetry_check(form: Form, conns, phi: SmoothMap, psi,
                   sample_points, precondition_tol: float = 1e-6) -> float:
    """Invariance defect of a characteristic form under a bundle symmetry.

    First spot-checks that the gauge pair (psi, phi) actually preserves
    every supplied connection (conjugated pullback equals the original
    potential), raising on a residual above ``precondition_tol`` or not
    finite, then returns the worst coefficient difference of phi^* form
    against form over the sample points.  The defect is NaN when the
    form is NaN at any sample point.
    """
    if isinstance(conns, Connection):
        conns = [conns]
    for conn in conns:
        worst_pre = gauge_residual(conn, phi, psi, sample_points)
        if not worst_pre <= precondition_tol:
            raise SymmetryPreconditionError(
                f"map does not preserve connection {conn.label or '?'}: "
                f"residual {worst_pre:.3e}")
    pulled = form.pullback(phi)
    return sup_abs(a - b for x in sample_points
                   for a, b in zip(pulled(x), form(x)))
