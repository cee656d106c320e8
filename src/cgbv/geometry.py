"""Oriented chart domains, quadrature, boundaries, and fiber integration.

A :class:`ChartDomain` is a reference box together with an embedding into
the ambient coordinates its forms are written in, plus a global orientation
sign.  A 0-dimensional box is a signed point: S^0 is
``ChartDomain.ball(1).boundary_faces()``, the point +r with sign +1 and
-r with sign -1.  Integration pulls the form back along the embedding
and applies a tensor product of 1-D rules chosen per reference axis by the
chart kind (:meth:`ChartDomain.nodes`): Gauss-Jacobi in a ball's radius
and in the cosine of each polar angle, with the r^(m-1) and sin^k factors
of the polar Jacobian absorbed into the weights, equally spaced nodes on
an azimuth, Gauss-Legendre on boxes and annulus radii.  Per block of nodes it
takes the embedding's values and Jacobian once and pulls the form's
coefficients back through the minors of that Jacobian, every chart alike:
an identity box or a point has the unit matrix, minor 1.0.  Balls,
spheres, annuli, products and identity embeddings are built from their
closed-form Jacobians alone, values included (the sphere's from the one
recursion of :func:`unit_sphere_point`, a product's block diagonal), so a
chart integral lifts no point; box faces of positive dimension, slices
and user maps take one lifted pass (:meth:`cgbv.forms.SmoothMap.jacobian`).

Evaluation model: a form closure, an embedding and a section receive a
point as a list of coordinates, each a float or a numpy array.  A block of
nodes or sample points carries a leading draw axis and its node or point
axis last: ``integrate`` passes (1, N) blocks of at most
:data:`cgbv.forms.BLOCK` nodes and reduces the node axis with
:func:`cgbv.dual.node_sum`, and :func:`cgbv.forms.form_sup` passes (1, P)
blocks, or (R, P) blocks with draw r's own points in row r.  A family of R
random draws (``scenarios._polynomials``) lives on that axis, so one
integral returns R values and a single draw a float.  Sampling passes
floats, and the zero finder of :mod:`cgbv.relative` passes its Newton
starts as one block.
Closures therefore compute elementwise and must not branch on values: a
piecewise formula selects through :func:`cgbv.dual.where` on clamped
arguments.  Nor may they write into a block: quadrature blocks are views
of a rule shared by every chart with the same axis rules, and are
read-only.

A fiber integral runs the chart integral's block loop over the fiber, its
base point given a trailing axis (:func:`cgbv.dual.trailing`): a block of B
base points meets F fiber nodes as (B, F) arrays, and a dual base point
passes through.  Each block of at most :data:`cgbv.forms.BLOCK` fiber
nodes evaluates the total-space form and the fiber embedding's Jacobian
once and reduces every output coefficient from them, whether the base is
one point or a block.

Orientation conventions, pinned once and tested:

* iterated polar spheres put the outward normal first, so every sphere
  chart is positively oriented (S^1 counterclockwise, det[u,u_theta,u_phi]
  = sin(theta) > 0 on S^2, and so on inductively);
* balls in polar coordinates are positive for the ambient orientation and
  their boundary sphere carries sign +1;
* box faces {x_i = hi} carry sign (-1)^i, {x_i = lo} carry (-1)^(i+1),
  indices 0-based;
* products obey boundary(A x B) = boundary(A) x B + (-1)^dim(A) A x
  boundary(B);
* fiber coordinates always come first in a total chart, and the fiber
  integral extracts the front block, the coefficient of dt_1..dt_f ^ dx_I.
"""

from __future__ import annotations

import math
import random
from functools import lru_cache

import numpy as np

from .dual import cos, node_sum, sin, trailing
from .errors import ChartError, DegreeError
from .forms import (BLOCK, Form, SmoothMap, combos, combo_index, contract, minors,
                    times)


@lru_cache(maxsize=None)
def _gauss_jacobi(order: int, alpha: float, beta: float):
    """Gauss-Jacobi rule for the weight (1 - x)^alpha (1 + x)^beta on [-1, 1].

    Golub-Welsch: the nodes are the eigenvalues of the symmetric Jacobi
    matrix of the orthonormal recurrence, refined by one Newton step on
    p_n; the weight at a node is the Christoffel number 1 / sum_(j<n)
    p_j^2, made symmetric when alpha == beta and scaled to the weight's
    total mass.  Exact for polynomials of degree 2 * order - 1.
    Gauss-Legendre is (0, 0).  Read-only arrays, nodes ascending.
    """
    ab = alpha + beta
    mass = (2.0 ** (ab + 1.0) * math.gamma(alpha + 1.0)
            * math.gamma(beta + 1.0) / math.gamma(ab + 2.0))
    # orthonormal recurrence: diagonal a_0..a_(n-1), off-diagonal b_1..b_n
    k = np.arange(1.0, order + 1)
    s = 2.0 * k + ab
    diag = np.append((beta - alpha) / (ab + 2.0),
                     (beta * beta - alpha * alpha) / (s * (s + 2.0)))[:order]
    off = np.sqrt(4.0 * k * (k + alpha) * (k + beta) * (k + ab)
                  / (s * s * (s + 1.0) * (s - 1.0)))
    x = np.linalg.eigvalsh(np.diag(diag) + np.diag(off[:-1], 1) + np.diag(off[:-1], -1))
    # b_(j+1) p_(j+1) = (x - a_j) p_j - b_j p_(j-1), p_0 = mass^(-1/2)
    p0 = 1.0 / math.sqrt(mass)
    steps = list(zip(diag.tolist(), off.tolist(), [0.0] + off.tolist()[:-1]))
    p_prev, p, dp_prev, dp = 0.0, p0, 0.0, 0.0
    for a, b, b_prev in steps:
        u = x - a
        p_prev, p, dp_prev, dp = (p, (u * p - b_prev * p_prev) / b,
                                  dp, (p + u * dp - b_prev * dp_prev) / b)
    x = x - p / dp
    p_prev, p, squares = 0.0, p0, np.full_like(x, p0 * p0)
    for a, b, b_prev in steps[:-1]:
        p_prev, p = p, ((x - a) * p - b_prev * p_prev) / b
        squares = squares + p * p
    w = 1.0 / squares
    if alpha == beta:
        x, w = (x - x[::-1]) / 2.0, (w + w[::-1]) / 2.0
    w *= mass / w.sum()
    for a in (x, w):
        a.flags.writeable = False
    return x, w


def gauss_nodes(order: int, lo: float, hi: float):
    """Gauss-Legendre nodes and weights on [lo, hi]."""
    x, w = _gauss_jacobi(order, 0.0, 0.0)
    mid, half = 0.5 * (lo + hi), 0.5 * (hi - lo)
    return [mid + half * float(xi) for xi in x], [half * float(wi) for wi in w]


@lru_cache(maxsize=None)
def _axis_rule(rule: str, lo: float, hi: float, order: int, power: int):
    """Nodes and weights of one reference axis of :meth:`ChartDomain.nodes`.

    ``legendre`` is Gauss-Legendre on [lo, hi].  The weights of the round
    axes are divided by the factor the chart's Jacobian brings, so that
    they integrate the pulled-back integrand against the rule's own weight:
    ``radius`` is Gauss-Jacobi(0, power) in r on [0, hi], weights over
    r^power; ``polar`` is Gauss-Jacobi((power - 1)/2, (power - 1)/2) in
    cos(theta) on [0, pi], weights over sin(theta)^power; ``azimuth``
    takes ``order`` equally spaced interior nodes of equal weight, exact
    for frequencies below ``order``.
    """
    if rule == "azimuth":
        step = (hi - lo) / order
        x, w = lo + step * (np.arange(order) + 0.5), np.full(order, step)
    elif rule == "polar":
        half = 0.5 * (power - 1)
        c, wc = _gauss_jacobi(order, half, half)
        x = np.arccos(c[::-1])
        w = wc[::-1] / np.sin(x) ** power
    else:
        t, wt = _gauss_jacobi(order, 0.0, float(power))
        mid, half = 0.5 * (lo + hi), 0.5 * (hi - lo)
        x, w = mid + half * t, half * wt
        if power:
            w = w * half ** power / x ** power
    return x, w


@lru_cache(maxsize=None)
def _tensor_rule(axes: tuple):
    """Read-only tensor rule of :meth:`ChartDomain.nodes` over its axis rules."""
    rules = [_axis_rule(*axis) for axis in axes]
    grids = np.meshgrid(*(xs for xs, _ in rules), indexing="ij")
    weights = np.ones(())
    for _, ws in rules:
        weights = np.multiply.outer(weights, ws)
    coords, weights = [g.ravel() for g in grids], weights.ravel()
    for a in coords + [weights]:
        a.flags.writeable = False
    return coords, weights


def unit_sphere_point(angles):
    """Iterated polar parametrization of S^(m-1), first axis polar.

    One angle gives (cos, sin); each extra angle theta prepends cos(theta)
    and scales the remaining block by sin(theta).  Dual-number safe.
    """
    return _sphere_jet(angles)[0]


def _sphere_jet(angles):
    """:func:`unit_sphere_point` and its m x (m-1) matrix of partials.

    One recursion, cos and sin taken once per angle: u = (c, s v) has the
    column (-s, c v) for the first angle and (0, s dv) for the others, the
    0 a structural zero.  Dual-number safe.
    """
    c, s = cos(angles[0]), sin(angles[0])
    if len(angles) == 1:
        return [c, s], [[-s], [c]]
    inner, dinner = _sphere_jet(angles[1:])
    return ([c] + [s * v for v in inner],
            [[-s] + [0.0] * (len(angles) - 1)]
            + [[c * v] + [times(s, e) for e in row] for v, row in zip(inner, dinner)])


def _polar_map(m: int) -> SmoothMap:
    """(r, angles) -> r * unit_sphere_point(angles), built from its closed-form Jacobian."""
    def jac(ra):
        r = ra[0]
        u, du = _sphere_jet(ra[1:])
        return ([r * v for v in u],
                [[v] + [times(r, e) for e in row] for v, row in zip(u, du)])

    return SmoothMap(m, m, jac=jac)


def sphere_bounds(m: int):
    """Reference bounds for the m-1 angles of S^(m-1) in R^m."""
    return [(0.0, math.pi)] * (m - 2) + [(0.0, 2.0 * math.pi)]


class ChartDomain:
    """Oriented integration domain: reference box plus ambient embedding."""

    def __init__(self, name: str, kind: str, dim: int, ambient_dim: int,
                 bounds=None, orders=None, embed: SmoothMap | None = None,
                 orientation: int = 1, boundary_builder=None):
        self.name = name
        self.kind = kind
        self.dim = dim
        self.ambient_dim = ambient_dim
        self.bounds = [tuple(b) for b in bounds] if bounds is not None else []
        self.orders = list(orders) if orders is not None else [16] * dim
        self.embed = embed
        self.orientation = orientation
        self._boundary_builder = boundary_builder
        if len(self.bounds) != dim or len(self.orders) != dim:
            raise ChartError(f"domain {name}: need {dim} bounds and orders")

    # ------------------------------------------------------------------
    # constructors

    @staticmethod
    def box(name: str, bounds, orders=None, embed: SmoothMap | None = None) -> "ChartDomain":
        dim = len(bounds)
        if embed is not None and embed.src_dim != dim:
            raise ChartError("embedding source dimension mismatch")
        ambient_dim = dim if embed is None else embed.dst_dim
        return ChartDomain(name, "box", dim, ambient_dim, bounds, orders, embed)

    @staticmethod
    def interval(name: str, lo: float, hi: float, order: int = 16) -> "ChartDomain":
        return ChartDomain.box(name, [(lo, hi)], [order])

    @staticmethod
    def sphere(ambient_dim: int, radius: float = 1.0, order: int = 16,
               name: str | None = None) -> "ChartDomain":
        """S^(m-1) in R^m, positively oriented (outward normal first).

        S^0 is not one chart but two signed points:
        ``ChartDomain.ball(1).boundary_faces()``.
        """
        m = ambient_dim
        name = name or f"S{m - 1}"
        if m < 2:
            raise ChartError(
                f"sphere needs ambient dimension >= 2, got {m}; "
                "S^0 is ChartDomain.ball(1).boundary_faces()")
        def jac(a):
            u, du = _sphere_jet(a)
            return ([radius * v for v in u],
                    [[times(radius, e) for e in row] for row in du])

        return ChartDomain(name, "sphere", m - 1, m, sphere_bounds(m),
                           [order] * (m - 1), SmoothMap(m - 1, m, jac=jac))

    @staticmethod
    def ball(ambient_dim: int, radius: float = 1.0, order: int = 16,
             name: str | None = None) -> "ChartDomain":
        """Solid ball D^m in polar coordinates; boundary is the sphere, +1."""
        m = ambient_dim
        name = name or f"D{m}"
        if m == 1:
            return ChartDomain.box(name, [(-radius, radius)], [order])
        embed = _polar_map(m)
        bounds = [(0.0, radius)] + sphere_bounds(m)

        def boundary():
            return [ChartDomain.sphere(m, radius, order)]

        return ChartDomain(name, "ball", m, m, bounds, [order] * m, embed,
                           boundary_builder=boundary)

    @staticmethod
    def annulus(r_inner: float, r_outer: float, ambient_dim: int = 2,
                order: int = 16, name: str | None = None) -> "ChartDomain":
        """Radial shell; outer sphere +1, inner sphere -1 on the boundary."""
        m = ambient_dim
        name = name or f"shell{m}"
        embed = _polar_map(m)
        bounds = [(r_inner, r_outer)] + sphere_bounds(m)

        def boundary():
            return [ChartDomain.sphere(m, r_outer, order),
                    ChartDomain.sphere(m, r_inner, order).reorient(-1)]

        return ChartDomain(name, "annulus", m, m, bounds, [order] * m, embed,
                           boundary_builder=boundary)

    @staticmethod
    def product(a: "ChartDomain", b: "ChartDomain", name: str | None = None) -> "ChartDomain":
        """Product domain; coordinates and ambient blocks of ``a`` come first."""
        name = name or f"{a.name}x{b.name}"
        na, nb = a.ambient_dim, b.ambient_dim
        ea, eb = a.embedding(), b.embedding()
        da = a.dim

        def jac(x):
            # block diagonal, the off-diagonal blocks structural zeros
            ya, Ja = ea.jacobian(x[:da])
            yb, Jb = eb.jacobian(x[da:])
            za, zb = [0.0] * b.dim, [0.0] * da
            return ya + yb, [list(r) + za for r in Ja] + [zb + list(r) for r in Jb]

        embed = SmoothMap(a.dim + b.dim, na + nb, jac=jac)

        def boundary():
            faces = [ChartDomain.product(fa, b) for fa in a.boundary_faces()]
            sgn = (-1) ** a.dim
            faces += [ChartDomain.product(a, fb).reorient(sgn) for fb in b.boundary_faces()]
            return faces

        dom = ChartDomain(name, "product", a.dim + b.dim, na + nb,
                          a.bounds + b.bounds, a.orders + b.orders, embed,
                          a.orientation * b.orientation, boundary_builder=boundary)
        dom.factors = (a, b)
        return dom

    # ------------------------------------------------------------------

    def _copy(self, **overrides) -> "ChartDomain":
        kw = dict(name=self.name, kind=self.kind, dim=self.dim,
                  ambient_dim=self.ambient_dim, bounds=self.bounds,
                  orders=self.orders, embed=self.embed,
                  orientation=self.orientation, boundary_builder=self._boundary_builder)
        kw.update(overrides)
        out = ChartDomain(**kw)
        if hasattr(self, "factors"):
            out.factors = self.factors
        return out

    def reorient(self, sign: int) -> "ChartDomain":
        return self._copy(orientation=self.orientation * sign)

    def embedding(self) -> SmoothMap:
        """Reference to ambient coordinates; the identity without an embedding."""
        return self.embed or SmoothMap.identity(self.dim)

    # ------------------------------------------------------------------
    # integration

    def nodes(self):
        """Quadrature rule as (coordinate arrays, weight array).

        One coordinate array per reference axis, node i at index i of each,
        on the tensor grid of one 1-D rule per axis in row-major order; a
        0-dimensional chart has a single node of weight 1.  Each axis takes
        ``orders[i]`` nodes of the rule its chart kind fits
        (:func:`_axis_rule`): a ball's radius Gauss-Jacobi, a polar angle
        Gauss-Jacobi in cos(theta), an azimuth equally spaced nodes, an
        annulus radius and every box axis Gauss-Legendre, a product its
        factors' axes.  The weights absorb the r^(m-1) and sin^k(theta)
        factors of the chart's Jacobian, so an ambient polynomial of
        degree 2n - 1 is integrated exactly on a ball or sphere whose
        azimuth has 2n nodes and other axes n.  Charts with the same axis
        rules share one read-only rule.
        """
        return _tensor_rule(tuple(
            (rule, lo, hi, order, power) for (rule, power), (lo, hi), order
            in zip(self._axis_kinds(), self.bounds, self.orders)))

    def _axis_kinds(self) -> list:
        """(rule, power) of :func:`_axis_rule` per reference axis."""
        if self.kind == "product":
            a, b = self.factors
            return a._axis_kinds() + b._axis_kinds()
        if self.kind not in ("sphere", "ball", "annulus"):
            return [("legendre", 0)] * self.dim
        # the polar angles of S^k carry sin^(k-1) .. sin^1, then the azimuth
        k = self.dim - (self.kind != "sphere")
        kinds = [("polar", j) for j in range(k - 1, 0, -1)] + [("azimuth", 0)]
        if self.kind == "ball":
            return [("radius", self.dim - 1)] + kinds
        if self.kind == "annulus":
            return [("legendre", 0)] + kinds
        return kinds

    def integrate(self, form: Form) -> float:
        """Integral of an ambient form of degree equal to the chart dimension."""
        if form.n != self.ambient_dim:
            raise ChartError(
                f"form lives in dimension {form.n}, domain {self.name} embeds in {self.ambient_dim}")
        if form.p != self.dim:
            raise DegreeError(
                f"degree {form.p} form cannot be integrated over {self.dim}-dimensional {self.name}")
        return self._integrate_rows(form, [range(len(combos(form.n, form.p)))])[0]

    def _integrate_rows(self, comps, rows) -> list:
        """Integrals of several top-degree forms that share one evaluation.

        ``comps(y)`` gives coefficients at ambient points y; each row lists
        the positions in them of one form's coefficients, aligned with
        ``combos(ambient_dim, dim)``.  Per block of at most
        :data:`cgbv.forms.BLOCK` nodes the embedding's values and Jacobian
        and ``comps`` are evaluated once, and every row is pulled back
        through the same minors of that Jacobian (:func:`cgbv.forms.contract`);
        an identity embedding has the unit matrix, whose minor is 1.0.
        """
        k, embed = self.dim, self.embedding()
        coords, weights = self.nodes()
        totals = [0.0] * len(rows)
        for s in range(0, len(weights), BLOCK):
            y, J = embed.jacobian([c[None, s:s + BLOCK] for c in coords])
            vals = comps(y)
            top = minors(J, k, self.ambient_dim, k)
            w = weights[s:s + BLOCK]
            totals = [t + node_sum(w, contract(top, [vals[i] for i in row])[0])
                      for t, row in zip(totals, rows)]
        return [self.orientation * t for t in totals]

    def boundary_faces(self):
        """Oriented codimension-one faces; empty for closed domains."""
        if self._boundary_builder is not None:
            return self._boundary_builder()
        if self.kind == "sphere":
            return []
        if self.kind == "box":
            return self._box_faces()
        raise ChartError(f"no boundary decomposition for kind {self.kind}")

    def _box_faces(self):
        faces = []
        parent_embed = self.embedding()
        for i in range(self.dim):
            rest = self.bounds[:i] + self.bounds[i + 1:]
            rest_orders = self.orders[:i] + self.orders[i + 1:]
            for value, base_sign in ((self.bounds[i][1], (-1) ** i),
                                     (self.bounds[i][0], (-1) ** (i + 1))):
                insert = _insert_map(self.dim, i, value)
                faces.append(ChartDomain(
                    f"{self.name}|x{i}={value:g}", "box", self.dim - 1,
                    self.ambient_dim, rest, rest_orders,
                    parent_embed.compose(insert),
                    self.orientation * base_sign))
        return faces

    # ------------------------------------------------------------------
    # sampling for pointwise checks

    def sample_ref_points(self, rng: random.Random, count: int):
        """Reference points at least 5% of each side from the coordinate edges."""
        return [[lo + (hi - lo) * rng.uniform(0.05, 0.95)
                 for lo, hi in self.bounds] for _ in range(count)]

    def sample_ambient_points(self, rng: random.Random, count: int):
        emb = self.embedding()
        return [emb(p) for p in self.sample_ref_points(rng, count)]


def _insert_map(dim: int, slot: int, value: float) -> SmoothMap:
    def fn(x):
        return list(x[:slot]) + [value] + list(x[slot:])
    return SmoothMap(dim - 1, dim, fn)


class FiberBundleDomain:
    """Trivialized bundle whose total chart lists fiber coordinates first."""

    def __init__(self, fiber: ChartDomain, base: ChartDomain, name: str | None = None):
        self.fiber = fiber
        self.base = base
        self.name = name or f"{fiber.name}->{base.name}"
        self.total = ChartDomain.product(fiber, base, name=self.name)

    def projection(self) -> SmoothMap:
        """Total ambient -> base ambient, dropping the fiber block."""
        fa = self.fiber.ambient_dim
        return SmoothMap(fa + self.base.ambient_dim, self.base.ambient_dim,
                         lambda x: list(x[fa:]))

    def fiber_integrate(self, form: Form) -> Form:
        """Integrate the front block of a total-space form over the fiber.

        The result is the base form whose dx_I coefficient is the fiber
        integral of the dt_1..dt_f ^ dx_I coefficient, dt the fiber block.
        All of them come from one pass over the fiber's nodes, which
        evaluates the form and the fiber embedding's Jacobian once per
        block of fiber nodes (:meth:`ChartDomain._integrate_rows`).  A result
        degree outside 0..base dimension, negative below the fiber
        dimension, gives the zero form of that degree.  A float base point
        and a block of base points alike meet at most
        :data:`cgbv.forms.BLOCK` fiber nodes per evaluation.
        """
        fa, fd = self.fiber.ambient_dim, self.fiber.dim
        nb = self.base.ambient_dim
        n_tot = fa + nb
        if form.n != n_tot:
            raise ChartError(f"form dimension {form.n} != total dimension {n_tot}")
        p_out = form.p - fd
        if not 0 <= p_out <= nb:
            return Form.zero(nb, p_out)
        idx_tot = combo_index(n_tot, form.p)
        # per base index I: the total indices of K + I, K over the fiber block
        rows = [[idx_tot[K + tuple(i + fa for i in I)] for K in combos(fa, fd)]
                for I in combos(nb, p_out)]

        def comps(y):
            tail = [trailing(c) for c in y]
            return self.fiber._integrate_rows(lambda v: form(list(v) + tail), rows)

        return Form(nb, p_out, comps)


def _slice_chart(base: ChartDomain, value: float, total_ambient: int) -> ChartDomain:
    emb = base.embedding()

    def fn(x):
        return [value] + list(emb.fn(x))

    return base._copy(name=f"{base.name}@{value:g}", ambient_dim=total_ambient,
                      embed=SmoothMap(base.dim, total_ambient, fn))


def stokes_residual(form: Form, domain: ChartDomain, cylinder: bool = False) -> float:
    """Absolute defect of the Stokes identity for ``form`` on ``domain``.

    Plain mode compares the integral of the exterior derivative against the
    sum over the oriented boundary faces.  With ``cylinder`` set the domain
    must be a product whose first factor is an interval [t0, t1]; the
    boundary integral is then assembled as

        slice(t1) - slice(t0) - lateral([t0, t1] x boundary of the base),

    the convention every parameter-cylinder argument in the package uses.
    """
    lhs = domain.integrate(form.d())
    if not cylinder:
        rhs = sum(face.integrate(form) for face in domain.boundary_faces())
        return abs(lhs - rhs)
    seg, base = getattr(domain, "factors", (None, None))
    if seg is None or seg.dim != 1 or seg.kind != "box":
        raise ChartError("cylinder residual needs a product with an interval first factor")
    t0, t1 = seg.bounds[0]
    rhs = _slice_chart(base, t1, domain.ambient_dim).integrate(form)
    rhs -= _slice_chart(base, t0, domain.ambient_dim).integrate(form)
    for side in base.boundary_faces():
        rhs -= ChartDomain.product(seg, side).integrate(form)
    return abs(lhs - rhs)
