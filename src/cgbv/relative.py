"""Mapping-cone pairs on a chart with boundary, pairings, and zero counts.

A relative pair couples a degree-k form on the chart with a degree k-1
companion on the boundary.  Companions are written in the ambient
coordinates of the chart, so restriction to a boundary face is plain
evaluation and commutes with d on the nose; the cone differential mixes
the slots through that restriction.

Currents are never materialized: every duality statement is tested
weakly, by evaluating both sides against finite families of test forms.
The homotopy operators integrate over a parameter interval placed in
front of the chart coordinates, the same convention fiber integration
uses.
"""

from __future__ import annotations

import math
import random

import numpy as np

from .errors import (BoundaryZeroError, ChartError, DegreeError,
                     HomotopyError, ShapeError, TransversalityError)
from .forms import (Form, SmoothMap, _wedge_into, as_block, contract, minors,
                    scale_coeffs, wedge_table, zero_coeffs)
from .geometry import ChartDomain


class RelativeDomain:
    """Chart together with its oriented boundary faces.

    ``boundary_defect`` measures how far an ambient point is from the
    boundary; the homotopy operators require it to spot-check that a flow
    keeps boundary points on the boundary.
    """

    def __init__(self, manifold: ChartDomain, faces=None, boundary_defect=None):
        self.manifold = manifold
        self.faces = list(faces) if faces is not None else manifold.boundary_faces()
        self.boundary_defect = boundary_defect

    @property
    def dim(self) -> int:
        return self.manifold.dim

    @property
    def ambient_dim(self) -> int:
        return self.manifold.ambient_dim

    def integrate(self, form: Form) -> float:
        return self.manifold.integrate(form)

    def integrate_boundary(self, form: Form) -> float:
        return sum(face.integrate(form) for face in self.faces)


class FormPair:
    """Cone pair: a degree-k form and its degree k-1 boundary companion.

    The companion is only ever read on the boundary faces.  In degree
    zero it lies in the zero space of degree -1, ``Form.zero(n, -1)``.
    """

    def __init__(self, domain: RelativeDomain, omega: Form, gamma: Form):
        n = domain.ambient_dim
        if omega.n != n:
            raise ChartError(f"first slot lives in dimension {omega.n}, chart has {n}")
        if not isinstance(gamma, Form) or (gamma.n, gamma.p) != (n, omega.p - 1):
            raise DegreeError(
                f"companion must be a degree {omega.p - 1} form in dimension {n}")
        self.domain = domain
        self.omega = omega
        self.gamma = gamma

    @property
    def degree(self) -> int:
        return self.omega.p


def pair_d(p: FormPair) -> FormPair:
    """Cone differential (omega, gamma) -> (-d omega, omega|b + d gamma)."""
    return FormPair(p.domain, p.omega.d().smul(-1.0), p.omega + p.gamma.d())


def from_boundary(domain: RelativeDomain, gamma: Form) -> FormPair:
    """Boundary form included as the pair (0, gamma)."""
    return FormPair(domain, Form.zero(domain.ambient_dim, gamma.p + 1), gamma)


def pair_pullback(p: FormPair, phi: SmoothMap, source: RelativeDomain) -> FormPair:
    """Pull a pair back along a map that respects the boundaries."""
    return FormPair(source, p.omega.pullback(phi), p.gamma.pullback(phi))


# ---------------------------------------------------------------------------
# pairings

def _pairing(p: FormPair, eta: Form) -> tuple:
    """(int_M omega^eta, int_bM gamma^eta)."""
    dom = p.domain
    if p.omega.p + eta.p != dom.dim:
        raise DegreeError(
            f"pairing a degree {p.omega.p} pair needs a degree "
            f"{dom.dim - p.omega.p} test form, got {eta.p}")
    return dom.integrate(p.omega.wedge(eta)), dom.integrate_boundary(p.gamma.wedge(eta))


def lefschetz_I(p: FormPair, eta: Form) -> float:
    """Pair against a test form: int_M omega^eta + int_bM gamma^eta."""
    first, second = _pairing(p, eta)
    return first + second


def lefschetz_II(eta: Form, p: FormPair) -> tuple:
    """The two current evaluations (int_M omega^eta, int_bM gamma^eta)."""
    return _pairing(p, eta)


# ---------------------------------------------------------------------------
# homotopy operators

def slice_map(phi: SmoothMap, s: float) -> SmoothMap:
    """Time slice of a cylinder flow: x -> phi(s, x)."""
    return SmoothMap(phi.src_dim - 1, phi.dst_dim,
                     lambda x, s=s: phi.fn([s] + list(x)))


def _drop_first(n: int) -> SmoothMap:
    return SmoothMap(n + 1, n, lambda x: list(x[1:]))


def _check_boundary_compat(phi: SmoothMap, t: float, source: RelativeDomain,
                           target: RelativeDomain):
    """Sample [0,t] x boundary(source) and require images on boundary(target).

    Four points per face, each at three times, evaluated as one block per
    face; the error names the worst sample, a NaN defect counting as worst.
    """
    if target.boundary_defect is None:
        raise ChartError(
            f"target domain {target.manifold.name} has no boundary defect function")
    rng = random.Random(7)
    for face in source.faces:
        pts = [[s] + list(x) for x in face.sample_ambient_points(rng, 4)
               for s in (0.37 * t, 0.81 * t, t)]
        defect = np.broadcast_to(target.boundary_defect(phi(as_block(pts))),
                                 len(pts))
        # np.argmax picks the first NaN when there is one
        worst = int(np.argmax(np.abs(defect)))
        if not abs(defect[worst]) <= 1e-8:
            raise HomotopyError(
                f"flow leaves the boundary at s={pts[worst][0]:.3f}: "
                f"defect {defect[worst]:.3e}")


def _pulled_wedges(terms, pair_map: SmoothMap, eta_map: SmoothMap) -> Form:
    """sum of c * pair_map^*a ^ eta_map^*b over the (c, a, b) terms, one form.

    Each map's values and Jacobian are taken once per evaluation, whatever
    the number of terms, and only for a map that some term pulls back in
    positive degree.
    """
    n = pair_map.src_dim
    if any(a.n != pair_map.dst_dim or b.n != eta_map.dst_dim for _, a, b in terms):
        raise ShapeError("pullback target dimension mismatch")
    deg = terms[0][1].p + terms[0][2].p
    need_pair = any(a.p for _, a, _ in terms)
    need_eta = any(b.p for _, _, b in terms)

    def comps(u):
        ya, Ja = pair_map.jacobian(u) if need_pair else (pair_map(u), None)
        yb, Jb = eta_map.jacobian(u) if need_eta else (eta_map(u), None)
        out = zero_coeffs(n, deg)
        for c, a, b in terms:
            ca, cb = a(ya), b(yb)
            if a.p:
                ca = contract(minors(Ja, a.p, a.n, n), ca)
            if b.p:
                cb = contract(minors(Jb, b.p, b.n, n), cb)
            if c != 1.0:
                ca = scale_coeffs(c, ca)
            _wedge_into(out, wedge_table(n, a.p, b.p), ca, cb)
        return out

    return Form(n, deg, comps)


def _cylinder_pairing(phi: SmoothMap, t: float, terms, source: RelativeDomain,
                      target: RelativeDomain, pair_map: SmoothMap,
                      eta_map: SmoothMap) -> tuple:
    """Both cylinder integrals of a sum of (coefficient, pair, test form) terms.

    Each pair is pulled back along ``pair_map`` and its test form along
    ``eta_map``, one of them the flow and the other the projection that
    drops the parameter.  Returns (-int_{[0,t] x B} sum c omega_c ^ eta_c,
    sum over the faces of int_{[0,t] x face} sum c gamma_c ^ eta_c), each
    sum one integrand (:func:`_pulled_wedges`).  The flow parameter takes
    5 Gauss-Legendre nodes: the flow is not polynomial in it, so no exact
    rule exists.  Over seeds 0-19 the registry's homotopy defects stay
    below 4e-10 with 5 nodes and reach 8e-8 with 4.
    """
    if (phi.src_dim != source.ambient_dim + 1
            or phi.dst_dim != target.ambient_dim):
        raise ChartError("flow does not map the source cylinder to the target chart")
    for _, p, eta in terms:
        if p.omega.p + eta.p != source.dim + 1:
            raise DegreeError(
                f"cylinder pairing needs degree {source.dim + 1 - p.omega.p} "
                f"test forms, got {eta.p}")
    _check_boundary_compat(phi, t, source, target)
    seg = ChartDomain.interval("s", 0.0, t, 5)
    first = -ChartDomain.product(seg, source.manifold).integrate(_pulled_wedges(
        [(c, p.omega, eta) for c, p, eta in terms], pair_map, eta_map))
    integrand = _pulled_wedges([(c, p.gamma, eta) for c, p, eta in terms],
                               pair_map, eta_map)
    second = 0.0
    for face in source.faces:
        second += ChartDomain.product(seg, face).integrate(integrand)
    return first, second


def _operator_I(phi: SmoothMap, t: float, terms, source: RelativeDomain) -> tuple:
    """The first operator on a sum of terms: pairs pulled back along the flow."""
    return _cylinder_pairing(phi, t, terms, source, terms[0][1].domain, phi,
                             _drop_first(source.ambient_dim))


def _operator_II(phi: SmoothMap, t: float, terms, target: RelativeDomain) -> tuple:
    """The second operator on a sum of terms: test forms pulled back along the flow."""
    source = terms[0][1].domain
    return _cylinder_pairing(phi, t, terms, source, target,
                             _drop_first(source.ambient_dim), phi)


def homotopy_TI(phi: SmoothMap, t: float, p: FormPair, eta: Form,
                source: RelativeDomain) -> float:
    """First cylinder operator against a test form on the source.

    The value is -int_{[0,t] x B} phi^*omega ^ pr^*eta plus the boundary
    cylinder integral of phi^*gamma ^ pr^*eta, pr the projection to B.
    """
    first, second = _operator_I(phi, t, [(1.0, p, eta)], source)
    return first + second


def homotopy_TII(phi: SmoothMap, t: float, eta: Form, p: FormPair,
                 target: RelativeDomain) -> tuple:
    """Second cylinder operator: the pair lives on the source of the flow.

    Returns (-int_{[0,t] x B} pr^*omega ^ phi^*eta,
             int_{[0,t] x bB} pr^*gamma ^ phi^*eta).
    """
    return _operator_II(phi, t, [(1.0, p, eta)], target)


def homotopy_defect_I(phi: SmoothMap, t: float, p: FormPair, eta: Form,
                      source: RelativeDomain) -> float:
    """Residual of the first homotopy identity against one test form.

    The operator applied to the differentiated pair, plus (-1)^(k-1) times
    the operator transposed onto d(eta), must equal the difference of the
    endpoint pairings.  Both operators are one cylinder integrand.
    """
    k = p.degree
    sign = 1.0 if (k - 1) % 2 == 0 else -1.0
    first, second = _operator_I(phi, t, [(1.0, pair_d(p), eta), (sign, p, eta.d())],
                                source)
    lhs = first + second
    end = lefschetz_I(pair_pullback(p, slice_map(phi, t), source), eta)
    start = lefschetz_I(pair_pullback(p, slice_map(phi, 0.0), source), eta)
    return abs(lhs - (end - start))


def homotopy_defect_II(phi: SmoothMap, t: float, eta: Form, p: FormPair,
                       target: RelativeDomain) -> float:
    """Residual of the second homotopy identity against one pair.

    With a the pair degree, the identity is
    (-1)^(a+1) T(d eta) + T(eta) on the differentiated pair
    = endpoint pairing difference.  The exponent a+1 is forced by Stokes
    on the two cylinders once the transpositions above are fixed; see the
    sign derivation exercised in the tests.  Both operators are one
    cylinder integrand.
    """
    a = p.degree
    if a + eta.p != p.domain.dim:
        raise DegreeError(
            f"identity needs a degree {p.domain.dim - a} test form, got {eta.p}")
    sign = 1.0 if (a + 1) % 2 == 0 else -1.0
    first, second = _operator_II(phi, t, [(sign, p, eta.d()), (1.0, pair_d(p), eta)],
                                 target)
    lhs = first + second

    def endpoint(s: float) -> float:
        return sum(lefschetz_II(eta.pullback(slice_map(phi, s)), p))

    return abs(lhs - (endpoint(t) - endpoint(0.0)))


# ---------------------------------------------------------------------------
# signed zeros of sections

def _membership(B: ChartDomain):
    """(inside, boundary distance) predicates for the supported chart kinds."""
    def r(x):
        return math.sqrt(sum(v * v for v in x))

    if B.kind == "ball":
        radius = B.bounds[0][1]
        return (lambda x: r(x) < radius), (lambda x: radius - r(x))
    if B.kind == "annulus":
        rin, rout = B.bounds[0]
        return (lambda x: rin < r(x) < rout), (lambda x: min(r(x) - rin, rout - r(x)))
    if B.kind == "box" and B.embed is None:

        def inside(x):
            return all(lo < v < hi for v, (lo, hi) in zip(x, B.bounds))

        def bdist(x):
            return min(min(v - lo, hi - v) for v, (lo, hi) in zip(x, B.bounds))

        return inside, bdist
    raise ChartError(f"no membership test for domain kind {B.kind!r}")


def _rows(vals, count: int):
    """Point-block values (floats or length-``count`` arrays) as a (count, k) array."""
    return np.stack([np.broadcast_to(v, (count,)) for v in vals], axis=-1)


def _newton_steps(smap: SmoothMap, x, fx):
    """Newton steps -J^-1 f at the rows of ``x``, one stacked solve.

    Returns (steps, regular): a row whose Jacobian is singular has no step
    and is False in ``regular``.
    """
    count = len(x)
    J = np.stack([_rows(row, count) for row in smap.jacobian(list(x.T))[1]], axis=1)
    try:
        return np.linalg.solve(J, -fx[..., None])[..., 0], np.ones(count, dtype=bool)
    except np.linalg.LinAlgError:
        regular = np.ones(count, dtype=bool)
        steps = np.zeros_like(fx)
        for i in range(count):
            try:
                steps[i] = np.linalg.solve(J[i], -fx[i])
            except np.linalg.LinAlgError:
                regular[i] = False
        return steps, regular


def _newton(smap: SmoothMap, starts):
    """Damped Newton from every row of ``starts`` (S, m), all rows as one block.

    Each start runs to |f| < 1e-12 in at most 60 steps, halving its step up
    to 30 times until |f| decreases.  A start stalls when the halvings run
    out (a NaN residual never decreases), its Jacobian is singular, or the
    steps run out.  Returns (points, converged): the (S, m) last iterates
    and a mask of the starts that converged.
    """
    x = np.array(starts, dtype=float)
    converged = np.zeros(len(x), dtype=bool)
    live = np.arange(len(x))
    fx = _rows(smap(list(x.T)), len(x))
    nrm = np.linalg.norm(fx, axis=1)
    for _ in range(60):
        hit = nrm < 1e-12
        converged[live[hit]] = True
        live, fx, nrm = live[~hit], fx[~hit], nrm[~hit]
        if not len(live):
            break
        step, regular = _newton_steps(smap, x[live], fx)
        live, fx, nrm, step = live[regular], fx[regular], nrm[regular], step[regular]
        xl = x[live]
        lam = np.ones(len(live))
        xn, fn = np.empty_like(xl), np.empty_like(fx)
        # rows still halving their step
        todo = np.arange(len(live))
        for _ in range(30):
            xn[todo] = xl[todo] + lam[todo, None] * step[todo]
            fn[todo] = _rows(smap(list(xn[todo].T)), len(todo))
            todo = todo[~(np.linalg.norm(fn[todo], axis=1) < nrm[todo])]
            if not len(todo):
                break
            lam[todo] *= 0.5
        moved = np.ones(len(live), dtype=bool)
        moved[todo] = False
        live, fx = live[moved], fn[moved]
        x[live] = xn[moved]
        nrm = np.linalg.norm(fx, axis=1)
    return x, converged


def signed_zero_count(section, B: ChartDomain, zeros=None):
    """Zeros of a section over a chart, each signed by its vertical derivative.

    Zeros are polished by damped Newton (:func:`_newton`, every start in
    one block), starting from the explicit list when given and from a
    7-per-axis reference grid otherwise.  A zero closer than 1e-6 to the
    boundary, or with smallest singular value of ds below 1e-6, raises.
    The sign of a zero is the sign of det(ds) in the ambient trivialization,
    so the identity section counts +1.  Returns (total, [(point, sign), ...]).
    """
    m = B.ambient_dim
    smap = SmoothMap(m, m, section)
    inside, bdist = _membership(B)
    if zeros is not None:
        starts = np.array(zeros, dtype=float).reshape(len(zeros), m)
    else:
        axes = [lo + (hi - lo) * (np.arange(7) + 0.5) / 7 for lo, hi in B.bounds]
        grid = [g.ravel() for g in np.meshgrid(*axes, indexing="ij")]
        starts = _rows(B.embedding()(grid), len(grid[0]))
    points, converged = _newton(smap, starts)
    found = []
    for z in points[converged].tolist():
        if any(sum((a - b) ** 2 for a, b in zip(z, w)) < 1e-12 for w, _ in found):
            continue
        margin = bdist(z)
        if abs(margin) < 1e-6:
            raise BoundaryZeroError(
                f"zero at {z} sits on the boundary (margin {margin:.3e})")
        if not inside(z):
            continue
        J = np.asarray(smap.jacobian(z)[1], dtype=float)
        smin = float(np.linalg.svd(J, compute_uv=False)[-1])
        if smin < 1e-6:
            raise TransversalityError(
                f"zero at {z} is degenerate (min singular value {smin:.3e})")
        sign = 1 if float(np.linalg.det(J)) > 0.0 else -1
        found.append((z, sign))
    return sum(s for _, s in found), found


def boundary_winding(section, B: ChartDomain) -> float:
    """Planar winding of a section along the boundary, an independent oracle.

    Integrates (s1 ds2 - s2 ds1) / (2 pi |s|^2) over the boundary faces;
    for a transversal planar section this equals the signed zero count.
    """
    if B.ambient_dim != 2:
        raise ChartError("winding oracle only applies to planar charts")
    smap = SmoothMap(2, 2, section)

    def comps(x):
        (s1, s2), J = smap.jacobian(x)
        den = (s1 * s1 + s2 * s2) * (2.0 * math.pi)
        return [(s1 * J[1][c] - s2 * J[0][c]) / den for c in range(2)]

    w = Form(2, 1, comps)
    return sum(face.integrate(w) for face in B.boundary_faces())
