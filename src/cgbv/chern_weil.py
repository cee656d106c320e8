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
q = 2 the secondary transgression over a triangle.  For rank 2k the
integrand is a polynomial of degree 2(k - q) in the parameters: F_l is
quadratic in l, theta_a = A_a - A_0 is constant, and each term carries
k - q curvature factors.  Gauss-Legendre with k - q + 1 nodes per simplex
axis integrates it exactly, on the Duffy square too, so the kernel picks
that rule itself.  With k - q <= 1 (rank 2 and 4) the integrand is affine
in the scalar weights (l_a, l_a l_b), so any rule collapses to one
pseudo-node.  The generic family construction is kept alongside for cross
tests.
"""

from __future__ import annotations

import itertools
import math
import random
from functools import lru_cache

from .errors import (ConsistencyError, DegreeError, RankError, ShapeError,
                     SymmetryPreconditionError)
from .forms import (Form, MatrixForm, SmoothMap, _wedges, add_coeffs, as_block,
                    combos, form_sup, mat_mul_wedge, minus, plus, scale_coeffs,
                    sub_coeffs, sup_abs, wedge_coeffs, wedge_table, zero_coeffs)
from .geometry import ChartDomain, FiberBundleDomain, _axis_rule

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
            out[idx] = plus(out[idx], v) if sign > 0 else minus(out[idx], v)
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
        return Form.zero(Mf.n, k * Mf.p)
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
        """F = dA + A ^ A in the trivialization.

        Each evaluation takes A and dA from one lifted pass of the potential
        (:meth:`MatrixForm.eval_with_d`), so A runs once per point rather
        than once for dA and twice more for A ^ A.
        """
        A, n, m = self.A, self.n, self.rank

        def eval_fn(x):
            val, dA = A.eval_with_d(x)
            W = mat_mul_wedge(n, 1, 1, val, val)
            return [[add_coeffs(dA[i][j], W[i][j]) for j in range(m)] for i in range(m)]

        return MatrixForm(n, 2, m, eval_fn)

    def pullback(self, phi: SmoothMap, label: str = "") -> "Connection":
        return Connection(self.rank, self.A.pullback(phi), label or self.label)

    def skew_residual(self, points) -> float:
        """Sup over the points of |A + A^T|, entry by entry."""
        m, A = self.rank, self.A.eval(as_block(points))
        return sup_abs(a + b for i in range(m) for j in range(m)
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


def transgression(c1: Connection, c2: Connection,
                  t_order: int | None = None) -> Form:
    """Degree 2k-1 form with d(result) = pf_form(c2) - pf_form(c1).

    The q = 1 case of :func:`_simplex_transgression`, family
    (1-t)A1 + tA2: the integrand has degree 2(k - 1) in t, so k Gauss
    nodes are exact.  An explicit ``t_order`` replaces that count.
    """
    return _simplex_transgression((c1, c2), t_order)


def _simplex_nodes(q: int, order: int):
    """(barycentric weights, weight) pairs of a Gauss rule on the q-simplex.

    q = 1 is the unit interval, l = (1-t, t).  q = 2 is the triangle
    {s,t >= 0, s+t <= 1} through the square substitution
    (u,v) -> (u(1-v), uv) with Jacobian u, orientation ds^dt.  No other
    simplex has a rule: any other q raises :class:`ShapeError`.
    """
    if q not in (1, 2):
        raise ShapeError(f"no Gauss rule on the {q}-simplex, only on q = 1 and 2")
    xs, ws = (a.tolist() for a in _axis_rule("legendre", 0.0, 1.0, order, 0))
    if q == 1:
        return [((1.0 - t, t), w) for t, w in zip(xs, ws)]
    duffy = [(u * (1.0 - v), u * v, wu * wv * u)
             for u, wu in zip(xs, ws) for v, wv in zip(xs, ws)]
    return [((1.0 - s - t, s, t), w) for s, t, w in duffy]


def _simplex_transgression(conns, order: int | None) -> Form:
    """Front dl_1 ^ ... ^ dl_q coefficient of Pf(Omega/2pi), node-integrated.

    ``conns`` are the vertices A_0..A_q of the affine family
    A_l = sum_a l_a A_a over the q-simplex, integrated with ``order``
    Gauss nodes per simplex axis, or the exact k - q + 1 if None.  The family
    curvature is sum_a dl_a ^ theta_a + F_l with theta_a = A_a - A_0 and
    F_l = sum_a l_a dA_a + sum_ab l_a l_b A_a ^ A_b, so each matching
    contributes, for every injective placement of theta_1..theta_q on its
    pairs, theta_1 ^ ... ^ theta_q ^ (F_l on the other pairs); moving the
    dl_a to the front costs the sign (-1)^(q(q-1)/2).  Only the scalar
    weights (l_a, l_a l_b) move with the node, so everything else is built
    once per point: each vertex's A_a and dA_a come from one lifted pass of
    its potential (:meth:`MatrixForm.eval_with_d`), and when F is never
    needed (k = q) from one plain evaluation.  With k - q <= 1 a node's
    block is affine in those weights, so the rule is replaced by one
    pseudo-node at its mean weights with its total weight.
    """
    c0 = conns[0]
    for c in conns[1:]:
        k = _even_pair(c0, c)
    q = len(conns) - 1
    n, m = c0.n, c0.rank
    out_deg = 2 * k - q
    if q > k or out_deg > n:
        # fewer pairs than parameter directions, or degree above the chart
        return Form.zero(n, out_deg)
    upper = [(a, b) for a in range(q + 1) for b in range(a, q + 1)]
    rule = [(list(lam) + [lam[a] * lam[b] for a, b in upper], w)
            for lam, w in _simplex_nodes(q, k - q + 1 if order is None else order)]
    if k - q <= 1:
        # a block is affine in the weights: one pseudo-node replaces the rule
        total = sum(w for _, w in rule)
        weighted = zip(*([v * w for v in c] for c, w in rule))
        rule = [([sum(col) / total for col in weighted], total)]
    placements = []
    for sign, matching in perfect_matchings(m):
        for slots in itertools.permutations(range(k), q):
            placements.append((sign, tuple(matching[r] for r in slots),
                               [pr for r, pr in enumerate(matching)
                                if r not in slots]))
    fronts_used = {front for _, front, _ in placements}
    f_pairs = {pr for _, _, rest in placements for pr in rest}
    pairs = combos(m, 2)
    # the scalar weights l_a, l_a l_b and w are 0-forms
    wedge11, wedge02, wedge0k = (wedge_table(n, p, q)
                                 for p, q in ((1, 1), (0, 2), (0, out_deg)))
    scale = (-1) ** (q * (q - 1) // 2) * TWO_PI ** -k

    def comps(x):
        if f_pairs:
            A, dA = zip(*(c.A.eval_with_d(x) for c in conns))
        else:
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
            def W(a, b, i, j):
                return _wedges(zero_coeffs(n, 2), wedge11, A[a][i], [row[j] for row in A[b]])
            terms = {(i, j): [d[i][j] for d in dA]
                     + [W(a, b, i, j) if a == b else add_coeffs(W(a, b, i, j), W(b, a, i, j))
                        for a, b in upper]
                     for i, j in f_pairs}
        out = zero_coeffs(n, out_deg)
        for coefs, w in rule:
            weights = [[c] for c in coefs]
            F = {pr: _wedges(zero_coeffs(n, 2), wedge02, weights, vecs)
                 for pr, vecs in terms.items()}
            block = zero_coeffs(n, out_deg)
            for sign, front, rest in placements:
                prod = fronts[front]
                deg = q
                for pr in rest:
                    prod = wedge_coeffs(n, deg, 2, prod, F[pr])
                    deg += 2
                for idx, v in enumerate(prod):
                    block[idx] = plus(block[idx], v) if sign > 0 else minus(block[idx], v)
            _wedges(out, wedge0k, [[w]], [block])
        return scale_coeffs(scale, out)

    return Form(n, out_deg, comps)


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
                            order: int | None = None) -> Form:
    """Degree 2k-2 form whose -d equals the sum of the three edge
    transgressions (edges of the parameter triangle, each run forward).

    The q = 2 case of :func:`_simplex_transgression`: the integrand has
    degree 2(k - 2) on the triangle, so k - 1 Gauss nodes per axis of
    the Duffy square are exact.  An explicit ``order`` replaces that count.
    """
    return _simplex_transgression((c1, c2, c3), order)


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
                       base: ChartDomain):
    """Closed-loop transgression and its disk primitive.

    ``loop`` lives on the (t, base) chart, periodic in t over [0,1];
    ``extension`` on the (z1, z2, base) chart must restrict to the loop on
    the unit circle z(t) = (cos 2 pi t, sin 2 pi t), which is checked to
    1e-8 at six base points.  Both fiber integrals use order 16.  Returns
    (T, P) with dP = -T.
    """
    n = base.ambient_dim
    if loop.n != n + 1 or extension.n != n + 2:
        raise ShapeError("loop/extension charts must add one/two directions")
    xs = base.sample_ambient_points(random.Random(5), 6)
    ts = (0.0, 0.31, 0.77)
    a = loop.A.eval(as_block([[t] + list(x) for x in xs for t in ts]))
    b = extension.A.eval(as_block([[math.cos(TWO_PI * t), math.sin(TWO_PI * t)]
                                   + list(x) for x in xs for t in ts]))
    # loop coefficients: (dt, base...); extension: (dz1, dz2, base...)
    gap = sup_abs(ca - cb for i in range(loop.rank) for j in range(loop.rank)
                  for ca, cb in zip(a[i][j][1:], b[i][j][2:]))
    if not gap <= 1e-8:
        raise ConsistencyError("extension does not restrict to the loop on the circle")
    t_fiber = ChartDomain.interval("t", 0.0, 1.0, 16)
    T = FiberBundleDomain(t_fiber, base).fiber_integrate(pf_form(loop))
    disk = ChartDomain.ball(2, order=16)
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
    n = pulled.n
    # psi and its transpose as matrices of 0-forms
    psi0 = [[[v] for v in row] for row in psi]
    psiT0 = [[[psi[j][i]] for j in range(m)] for i in range(m)]
    return MatrixForm(n, 1, m,
                      lambda x: mat_mul_wedge(n, 1, 0, mat_mul_wedge(n, 0, 1, psiT0,
                                                                     pulled.eval(x)), psi0))


def gauge_residual(conn: Connection, phi: SmoothMap, psi,
                   sample_points) -> float:
    """Sup over the points of |psi^T (phi^* A) psi - A|, entry by entry.

    Zero exactly when the gauge pair (psi, phi) preserves the connection
    at every sample point; NaN if any entry is NaN there.  The difference is
    one matrix form, so a map whose source chart is not the connection's
    raises :class:`ShapeError`.
    """
    diff = gauge_pullback_potential(conn, phi, psi) - conn.A
    return sup_abs(v for row in diff.eval(as_block(sample_points))
                   for entry in row for v in entry)


def symmetry_check(form: Form, conn: Connection, phi: SmoothMap, psi,
                   sample_points) -> float:
    """Invariance defect of a characteristic form under a bundle symmetry.

    First spot-checks that the gauge pair (psi, phi) actually preserves
    the connection (conjugated pullback equals the original potential),
    raising on a residual above 1e-6 or not finite, then returns the
    worst coefficient difference of phi^* form against form over the
    sample points.  The defect is NaN when the form is NaN at any sample
    point.
    """
    worst_pre = gauge_residual(conn, phi, psi, sample_points)
    if not worst_pre <= 1e-6:
        raise SymmetryPreconditionError(
            f"map does not preserve connection {conn.label or '?'}: "
            f"residual {worst_pre:.3e}")
    return form_sup(form.pullback(phi) - form, sample_points)
