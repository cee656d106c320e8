"""Pfaffian forms, connections, and transgression machinery.

Connections are stored as skew potentials in a fixed orthonormal
trivialization over a coordinate chart, so curvature is F = dA + A ^ A and
metric compatibility is plain matrix skewness.  The normalization divides
curvature by 2*pi inside the Pfaffian, pinned by the round two-sphere whose
Pfaffian form integrates to 2.

Transgressions are integrals over a parameter simplex placed in front of
the base coordinates, and both share one kernel.  The affine family
A_l = sum_a l_a A_a over the q-simplex has curvature
sum_a dl_a ^ (A_a - A_0) + F(A_l), so the parameter integral needs no
derivatives in the parameters: q = 1 is the transgression along a path,
q = 2 the secondary transgression over a triangle.  The generic family
construction is kept alongside for cross tests.
"""

from __future__ import annotations

import itertools
import math
import random
from functools import lru_cache

from .errors import (ConsistencyError, DegreeError, RankError, ShapeError,
                     SymmetryPreconditionError)
from .forms import (Form, MatrixForm, SmoothMap, ZeroForm, _mul_smat,
                    _smul_mat, add_coeffs, combos, mat_mul_wedge,
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

    The q = 1 case of :func:`_simplex_transgression`: Gauss nodes on the
    path parameter t, family (1-t)A1 + tA2.
    """
    nodes = [((1.0 - t, t), w) for t, w in zip(*gauss_nodes(t_order, 0.0, 1.0))]
    return _simplex_transgression((c1, c2), nodes)


def _simplex_transgression(conns, nodes) -> Form:
    """Front dl_1 ^ ... ^ dl_q coefficient of Pf(Omega/2pi), node-integrated.

    ``conns`` are the vertices A_0..A_q of the affine family
    A_l = sum_a l_a A_a over the q-simplex and ``nodes`` its quadrature
    rule as (barycentric weights (l_0..l_q), weight) pairs.  The family
    curvature is sum_a dl_a ^ theta_a + F_l with theta_a = A_a - A_0 and
    F_l = sum_a l_a dA_a + sum_ab l_a l_b A_a ^ A_b, so each matching
    contributes, for every injective placement of theta_1..theta_q on its
    pairs, theta_1 ^ ... ^ theta_q ^ (F_l on the other pairs); moving the
    dl_a to the front costs the sign (-1)^(q(q-1)/2).  Only the scalar
    weights move with the node, so everything else is built once per point.
    """
    c0 = conns[0]
    for c in conns[1:]:
        k = _even_pair(c0, c)
    q = len(conns) - 1
    n, m = c0.n, c0.rank
    out_deg = 2 * k - q
    if q > k or out_deg > n:
        # fewer pairs than parameter directions, or degree above the chart
        return ZeroForm(n, out_deg)
    placements = []
    for sign, matching in perfect_matchings(m):
        for slots in itertools.permutations(range(k), q):
            placements.append((sign, tuple(matching[r] for r in slots),
                               [pr for r, pr in enumerate(matching)
                                if r not in slots]))
    fronts_used = {front for _, front, _ in placements}
    f_pairs = {pr for _, _, rest in placements for pr in rest}
    # with k = q every pair holds a theta and F is never needed
    dA_mfs = [c.A.d() for c in conns] if f_pairs else []
    pairs = combos(m, 2)
    upper = [(a, b) for a in range(q + 1) for b in range(a, q + 1)]
    scale = (-1) ** (q * (q - 1) // 2) * TWO_PI ** -k

    def comps(x):
        A = [c.A.eval(x) for c in conns]
        thetas = [{(i, j): sub_coeffs(Aa[i][j], A[0][i][j]) for i, j in pairs}
                  for Aa in A[1:]]
        # theta_1 ^ ... ^ theta_q for each placement, node independent
        fronts = {}
        for front in fronts_used:
            prod = thetas[0][front[0]]
            for a in range(1, q):
                prod = wedge_coeffs(n, a, 1, prod, thetas[a][front[a]])
            fronts[front] = prod
        # curvature terms per pair, in the order their weights are summed
        terms = {}
        if f_pairs:
            dA = [mf.eval(x) for mf in dA_mfs]
            W = [[mat_mul_wedge(n, 1, 1, Aa, Ab) for Ab in A] for Aa in A]
            terms = {(i, j): [d[i][j] for d in dA]
                     + [W[a][b][i][j] if a == b
                        else add_coeffs(W[a][b][i][j], W[b][a][i][j])
                        for a, b in upper]
                     for i, j in f_pairs}
        out = zero_coeffs(n, out_deg)
        for lam, w in nodes:
            coefs = list(lam) + [lam[a] * lam[b] for a, b in upper]
            F = {pr: _weighted_sum(coefs, vecs) for pr, vecs in terms.items()}
            block = zero_coeffs(n, out_deg)
            for sign, front, rest in placements:
                prod = fronts[front]
                deg = q
                for pr in rest:
                    prod = wedge_coeffs(n, deg, 2, prod, F[pr])
                    deg += 2
                for idx, v in enumerate(prod):
                    block[idx] += sign * v
            for idx in range(len(out)):
                out[idx] += w * block[idx]
        return scale_coeffs(scale, out)

    return Form(n, out_deg, comps)


def _weighted_sum(coefs, vecs):
    """sum_r coefs[r] * vecs[r] componentwise, added left to right."""
    out = [coefs[0] * v for v in vecs[0]]
    for c, vec in zip(coefs[1:], vecs[1:]):
        out = [o + c * v for o, v in zip(out, vec)]
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

    The q = 2 case of :func:`_simplex_transgression`.  Integration over the
    triangle {s,t >= 0, s+t <= 1} uses the square substitution
    (u,v) -> (u(1-v), uv) with Jacobian u, orientation ds^dt.
    """
    xs, ws = gauss_nodes(order, 0.0, 1.0)
    duffy = [(u * (1.0 - v), u * v, wu * wv * u)
             for u, wu in zip(xs, ws) for v, wv in zip(xs, ws)]
    nodes = [((1.0 - s - t, s, t), w) for s, t, w in duffy]
    return _simplex_transgression((c1, c2, c3), nodes)


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
