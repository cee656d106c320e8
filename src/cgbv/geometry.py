"""Oriented chart domains, quadrature, boundaries, and fiber integration.

A :class:`ChartDomain` is a reference box together with an embedding into
the ambient coordinates its forms are written in, plus a global orientation
sign.  A 0-dimensional box is a signed point: S^0 is
``ChartDomain.ball(1).boundary_faces()``, the point +r with sign +1 and
-r with sign -1.  Integration pulls the form back along the embedding
and applies tensor Gauss-Legendre quadrature, so every integral in the
package reduces to polynomial-exact rules on boxes.  Per block of nodes it
takes the embedding's values and Jacobian once and pulls the form's
coefficients back through the minors of that Jacobian.  Balls, spheres,
annuli, products and identity embeddings give their Jacobians in closed
form (one recursion beside :func:`unit_sphere_point`, block diagonal for a
product), so a chart integral lifts no point; box faces, slices and user
maps take one lifted pass (:meth:`cgbv.forms.SmoothMap.jacobian`).

Evaluation model: a form closure, an embedding and a section receive a
point as a list of coordinates, each a float or a numpy array.  A block of
nodes or sample points carries a leading draw axis and its node or point
axis last: ``integrate`` passes (1, N) blocks of
:func:`cgbv.forms.block_size` nodes for the width of the pulled-back form
and reduces the node axis with :func:`cgbv.dual.node_sum`, and
:func:`cgbv.forms.form_sup` passes (1, P) blocks, or (R, P) blocks with
draw r's own points in row r.  A family of R random draws
(``scenarios._polynomials``) lives on that axis, so one integral returns
R values and a single draw a float.  Sampling passes floats, and the zero
finder of :mod:`cgbv.relative` passes its Newton starts as one block.
Closures therefore compute elementwise and must not branch on values: a
piecewise formula selects through :func:`cgbv.dual.where` on clamped
arguments.  Nor may they write into a block: quadrature blocks are views
of a rule shared by every chart with the same bounds and orders, and are
read-only.

A fiber integral runs the chart integral's block loop over the fiber, its
base point given a trailing axis (:func:`cgbv.dual.trailing`): a block of B
base points meets F fiber nodes as (B, F) arrays, and a dual base point
passes through.  Each block of fiber nodes evaluates the total-space form
and the fiber embedding's Jacobian once and reduces every output
coefficient from them.  The fiber blocks count the entries each base point
brings, so base times fiber entries stay within the same budget.

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

from .dual import cos, entries, node_sum, sin, trailing
from .errors import ChartError, DegreeError
from .forms import (Form, SmoothMap, block_size, combos, combo_index, det,
                    plus, times)


def _legendre(order: int, x):
    """P_n(x) and P_n'(x), n = order, by the three-term recurrence."""
    p_prev, p = np.ones_like(x), x
    for j in range(1, order):
        p_prev, p = p, ((2 * j + 1) * x * p - j * p_prev) / (j + 1)
    return p, order * (p_prev - x * p) / (1.0 - x * x)


@lru_cache(maxsize=None)
def _leggauss(order: int):
    """Gauss-Legendre rule on [-1, 1] by Golub-Welsch.

    The nodes are the eigenvalues of the symmetric Jacobi matrix of the
    Legendre recurrence, refined by one Newton step on P_n; the weights
    2 / ((1 - x^2) P_n'(x)^2) are made symmetric and scaled to sum to 2.
    """
    k = np.arange(1.0, order)
    beta = k / np.sqrt(4.0 * k * k - 1.0)
    x = np.linalg.eigvalsh(np.diag(beta, 1) + np.diag(beta, -1))
    p, dp = _legendre(order, x)
    x = x - p / dp
    _, dp = _legendre(order, x)
    w = 1.0 / ((1.0 - x * x) * dp * dp)
    x, w = (x - x[::-1]) / 2.0, (w + w[::-1]) / 2.0
    w *= 2.0 / w.sum()
    return tuple(float(v) for v in x), tuple(float(v) for v in w)


def gauss_nodes(order: int, lo: float, hi: float):
    """Gauss-Legendre nodes and weights on [lo, hi]."""
    x, w = _leggauss(order)
    mid, half = 0.5 * (lo + hi), 0.5 * (hi - lo)
    return [mid + half * xi for xi in x], [half * wi for wi in w]


@lru_cache(maxsize=None)
def _tensor_rule(bounds: tuple, orders: tuple):
    """Read-only tensor Gauss-Legendre rule of :meth:`ChartDomain.nodes`."""
    axes = [gauss_nodes(o, lo, hi) for (lo, hi), o in zip(bounds, orders)]
    grids = np.meshgrid(*(np.array(xs) for xs, _ in axes), indexing="ij")
    weights = np.ones(())
    for _, ws in axes:
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
    if len(angles) == 1:
        return [cos(angles[0]), sin(angles[0])]
    inner = unit_sphere_point(angles[1:])
    c, s = cos(angles[0]), sin(angles[0])
    return [c] + [s * v for v in inner]


def _sphere_jet(angles):
    """:func:`unit_sphere_point` and its m x (m-1) matrix of partials.

    The same recursion, cos and sin taken once per angle: u = (c, s v)
    has the column (-s, c v) for the first angle and (0, s dv) for the
    others, the 0 a structural zero.  Dual-number safe.
    """
    c, s = cos(angles[0]), sin(angles[0])
    if len(angles) == 1:
        return [c, s], [[-s], [c]]
    inner, dinner = _sphere_jet(angles[1:])
    return ([c] + [s * v for v in inner],
            [[-s] + [0.0] * (len(angles) - 1)]
            + [[c * v] + [times(s, e) for e in row] for v, row in zip(inner, dinner)])


def _polar_map(m: int) -> SmoothMap:
    """(r, angles) -> r * unit_sphere_point(angles), with its Jacobian in closed form."""
    def fn(ra):
        return [ra[0] * v for v in unit_sphere_point(ra[1:])]

    def jac(ra):
        r = ra[0]
        u, du = _sphere_jet(ra[1:])
        return ([r * v for v in u],
                [[v] + [times(r, e) for e in row] for v, row in zip(u, du)])

    return SmoothMap(m, m, fn, jac)


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
    def box(name: str, bounds, orders=None, embed: SmoothMap | None = None,
            ambient_dim: int | None = None, orientation: int = 1) -> "ChartDomain":
        dim = len(bounds)
        if embed is None:
            ambient_dim = dim if ambient_dim is None else ambient_dim
            if ambient_dim != dim:
                raise ChartError("identity embedding requires ambient_dim == dim")
        else:
            ambient_dim = embed.dst_dim
            if embed.src_dim != dim:
                raise ChartError("embedding source dimension mismatch")
        return ChartDomain(name, "box", dim, ambient_dim, bounds, orders, embed, orientation)

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

        embed = SmoothMap(m - 1, m,
                          lambda a: [radius * v for v in unit_sphere_point(a)], jac)
        return ChartDomain(name, "sphere", m - 1, m, sphere_bounds(m),
                           [order] * (m - 1), embed)

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

        def fn(x):
            return ea.fn(x[:da]) + eb.fn(x[da:])

        def jac(x):
            # block diagonal, the off-diagonal blocks structural zeros
            ya, Ja = ea.jacobian(x[:da])
            yb, Jb = eb.jacobian(x[da:])
            za, zb = [0.0] * b.dim, [0.0] * da
            return ya + yb, [list(r) + za for r in Ja] + [zb + list(r) for r in Jb]

        embed = SmoothMap(a.dim + b.dim, na + nb, fn, jac)

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
        on the tensor Gauss-Legendre grid in row-major order; a
        0-dimensional chart has a single node of weight 1.  Charts with
        equal bounds and orders share one read-only rule.
        """
        return _tensor_rule(tuple(self.bounds), tuple(self.orders))

    def integrate(self, form: Form) -> float:
        """Integral of an ambient form of degree equal to the chart dimension."""
        if form.n != self.ambient_dim:
            raise ChartError(
                f"form lives in dimension {form.n}, domain {self.name} embeds in {self.ambient_dim}")
        if form.p != self.dim:
            raise DegreeError(
                f"degree {form.p} form cannot be integrated over {self.dim}-dimensional {self.name}")
        return self._integrate_rows(form, [range(len(combos(form.n, form.p)))],
                                    form.width)[0]

    def _integrate_rows(self, comps, rows, width: int) -> list:
        """Integrals of several top-degree forms that share one evaluation.

        ``comps(y)`` gives coefficients at ambient points y; each row lists
        the positions in them of one form's coefficients, aligned with
        ``combos(ambient_dim, dim)``.  Per block of nodes the embedding's
        values and Jacobian and ``comps`` are evaluated once, and every row
        is pulled back through the same minors of that Jacobian, in the
        order of :func:`cgbv.forms.pullback_coeffs`.  Blocks are sized for
        ``width`` as the pullback of a form of that width would be.
        """
        k, embed = self.dim, self.embed
        pulled = embed is not None and k > 0
        coords, weights = self.nodes()
        step = block_size(width * (k if pulled else 1))
        totals = [0.0] * len(rows)
        for s in range(0, len(weights), step):
            block = [c[None, s:s + step] for c in coords]
            if not pulled:
                vals = comps(block if embed is None else embed(block))
                tops = [vals[row[0]] for row in rows]
            else:
                y, J = embed.jacobian(block)
                vals = comps(y)
                minors = [det([[J[r][c] for c in range(k)] for r in I])
                          for I in combos(self.ambient_dim, k)]
                tops = []
                for row in rows:
                    acc = 0.0
                    for i, minor in zip(row, minors):
                        acc = plus(acc, times(vals[i], minor))
                    tops.append(acc)
            w = weights[s:s + step]
            totals = [t + node_sum(w, f) for t, f in zip(totals, tops)]
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
        dimension, gives the zero form of that degree.  One evaluation at a
        base point holds every fiber node, so the result's width is the
        form's times the fiber's node count; at a block of base points,
        each fiber block is sized by the form's width times the entries the
        base point brings.
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
            width = form.width * max((entries(c) for c in y), default=1)
            return self.fiber._integrate_rows(lambda v: form(list(v) + tail), rows, width)

        return Form(nb, p_out, comps, form.width * math.prod(self.fiber.orders))


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
