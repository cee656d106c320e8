"""Compactly supported Thom forms and disk-bundle duality maps.

Everything here lives on trivialized bundle charts whose ambient
coordinates list the fiber block first.  The duality map integrates a
relative pair over the disk and sphere fibers; its inverses are built
from curvature transgressions, even rank through the tautological
section split and odd rank through the rank-one extension transferred
back by the stereographic chart.  The compactly supported representative
interpolates the two with a radial bump profile.
"""

from __future__ import annotations

import random

import numpy as np

from . import dual
from .bundles import (AssociatedBundles, OddRankTriple, TrivializedBundle,
                      section_splitting_connection, section_transgression,
                      total_connection)
from .chern_weil import Connection, pf_form, secondary_transgression, transgression
from .errors import (BumpError, ClosednessError, ConfigError, RankError,
                     SignConventionError)
from .forms import Form, SmoothMap, as_block, form_sup, sup_abs
from .geometry import ChartDomain, FiberBundleDomain
from .relative import FormPair, RelativeDomain

# Calibrated once against the unit pairing over a point: with the split
# connection first the bare transgression pair integrates to +1/2, and the
# transfer chart covers half the extended sphere, hence the factor two.
# Swapping the endpoints negates both slots and the pairing with them.
ODD_SCALE = 2.0
# Largest |d eta| at a sampled base point for a test form fed to a dual pair.
CLOSED_TOL = 1e-8
# Largest closedness defect of the bare odd-rank pair that nu_inverse_odd accepts.
PAIR_TOL = 1e-5
# Sample points per unit-sphere piece for the slice checks of the odd pair.
SLICE_POINTS = 6


class BumpProfile:
    """Smooth radial cutoff: identically 1 on [0,1], identically 0 from 2 on.

    The value is a dual-friendly callable so the profile can sit inside
    forms that get differentiated; the slope is its forward-mode
    derivative.  Construction validates the plateau, the support,
    flatness near 0 and the range.
    """

    def __init__(self, value, label: str = "bump"):
        self.value = value
        self.label = label
        self._validate()

    def __call__(self, r):
        return self.value(r)

    def slope(self, r):
        return dual.deriv(self.value(dual.Dual(r, 1.0)))

    def _validate(self):
        for r in (0.0, 0.25, 0.5, 1.0):
            if not abs(self.value(r) - 1.0) <= 1e-12:
                raise BumpError(f"{self.label}: value is not 1 at r={r}")
        for r in (2.0, 2.5, 10.0):
            if not abs(self.value(r)) <= 1e-12:
                raise BumpError(f"{self.label}: support leaks past 2 at r={r}")
        for r in (0.0, 0.3, 0.9):
            if not abs(self.slope(r)) <= 1e-12:
                raise BumpError(f"{self.label}: slope does not vanish at r={r}")
        for r in (1.1, 1.3, 1.5, 1.7, 1.9):
            v = self.value(r)
            if not -1e-12 <= v <= 1.0 + 1e-12:
                raise BumpError(f"{self.label}: value {v} out of range at r={r}")

    @staticmethod
    def exponential(sharpness: float = 1.0) -> "BumpProfile":
        """Quotient-of-exponentials step on [1,2]; sharpness rescales the tails."""
        c = float(sharpness)

        # Each branch is evaluated on every node, so the arguments of the
        # step are clamped to an interior point where it is not selected.
        # A NaN radius fails every comparison and stays NaN.
        def psi(u):
            off = dual.real(u) <= 0.0
            return dual.where(off, 0.0, dual.exp(-c / dual.where(off, 1.0, u)))

        def value(r):
            rr = dual.real(r)
            low, high = rr <= 1.0, rr >= 2.0
            rc = dual.where(low | high, 1.5, r)
            f, g = psi(2.0 - rc), psi(rc - 1.0)
            return dual.where(low, 1.0, dual.where(high, 0.0, f / (f + g)))

        return BumpProfile(value, f"exp-bump-{c:g}")


def _scaled_comps(omega: Form, rho: BumpProfile, fiber_dim: int):
    def comps(x):
        r2 = 0.0
        for i in range(fiber_dim):
            r2 = r2 + x[i] * x[i]
        # rho is identically 1 well below the step, where sqrt(r2) may be 0
        core = dual.real(r2) < 0.64
        scale = dual.where(core, 1.0, rho(dual.sqrt(dual.where(core, 1.0, r2))))
        return [scale * c for c in omega.comps(x)]

    return comps


def _slope_dr(rho: BumpProfile, fiber_dim: int, n: int) -> Form:
    """rho'(r) dr as an ambient one-form; vanishes off the radial step."""

    def comps(x):
        r2 = 0.0
        for i in range(fiber_dim):
            r2 = r2 + x[i] * x[i]
        rr2 = dual.real(r2)
        step = (1.0 < rr2) & (rr2 < 4.0)
        r = dual.sqrt(dual.where(step, r2, 2.25))
        s = rho.slope(r)
        return [dual.where(step, s * x[i] / r, 0.0) if i < fiber_dim else 0.0
                for i in range(n)]

    return Form(n, 1, comps)


def mu(omega: Form, gamma: Form, rho: BumpProfile, fiber_dim: int) -> Form:
    """rho(r)·omega - rho'(r) dr ^ gamma, supported in the radius-2 tube.

    The slots are the halves of a relative pair on the bundle chart and
    its punctured complement; r is the radius of the leading fiber block.
    The slope factor vanishes near r = 0, which keeps the product smooth
    even though gamma may blow up at the zero section.
    """
    first = Form(omega.n, omega.p, _scaled_comps(omega, rho, fiber_dim))
    return first - _slope_dr(rho, fiber_dim, omega.n).wedge(gamma)


def thom_form(conn: Connection, rho: BumpProfile | None = None,
              t_order: int | None = None) -> Form:
    """Closed compactly supported form with unit fiber integrals.

    Interpolates the pulled-back Pfaffian against the transgression of
    its tautological-section split: rho(r)·Pf + rho'(r) dr ^ TPf.
    ``t_order`` is passed to :func:`transgression`; by default its exact rule.
    """
    if conn.rank % 2:
        raise RankError("unit fiber classes need even rank")
    if rho is None:
        rho = BumpProfile.exponential()
    m = conn.rank
    tot = total_connection(conn, m)
    split = section_splitting_connection(tot, lambda x: list(x[:m]))
    tpf = transgression(split, tot, t_order=t_order)
    return mu(pf_form(tot), tpf.smul(-1.0), rho, m)


def support_pieces(fiber_dim: int, order: int = 24):
    """Radius-2 tube split at the bump knot r = 1.

    Gauss rules straddling the knot converge slowly because the profile
    stops being analytic there; on each piece separately they converge at
    the usual spectral rate.
    """
    inner = ChartDomain.ball(fiber_dim, radius=1.0, order=order,
                             name="suppCore")
    outer = ChartDomain.annulus(1.0, 2.0, fiber_dim, order=order,
                                name="suppStep")
    return inner, outer


def fiber_integral(form: Form, base: ChartDomain, fiber_dim: int,
                   order: int = 24) -> Form:
    """Fiber integrals of a compactly supported form over the radius-2 tube."""
    inner, outer = support_pieces(fiber_dim, order)
    core = FiberBundleDomain(inner, base, "suppIn").fiber_integrate(form)
    step = FiberBundleDomain(outer, base, "suppOut").fiber_integrate(form)
    return core + step


class ThomScenario:
    """Bundle plus the disk and sphere charts its duality maps live on."""

    def __init__(self, bundle: TrivializedBundle, fiber_order: int = 16):
        self.bundle = bundle
        self.rank = bundle.rank
        self.base = bundle.base
        m = self.rank
        self.parity = "odd" if m % 2 else "even"
        if self.parity == "even":
            self.assoc = AssociatedBundles(bundle, fiber_order)
            self.triple = None
            self.pi_connection = total_connection(bundle.connection, m)
        else:
            self.triple = OddRankTriple(bundle, fiber_order)
            self.assoc = self.triple.assoc
            self.pi_connection = None
        self.de, self.se = self.assoc.de, self.assoc.se

        def defect(x, m=m):
            return sum(x[i] * x[i] for i in range(m)) - 1.0

        self.relative = RelativeDomain(self.de.total,
                                       faces=[se.total for se in self.se],
                                       boundary_defect=defect)

    def pair(self, omega: Form, gamma: Form) -> FormPair:
        return FormPair(self.relative, omega, gamma)


def nu(scenario: ThomScenario, p: FormPair) -> Form:
    """Disk fiber integral of the first slot plus sphere fiber integral of the second.

    The sphere part sums the fiber integrals over the pieces of SE.
    """
    de_part = scenario.de.fiber_integrate(p.omega)
    parts = [se.fiber_integrate(p.gamma) for se in scenario.se]
    return de_part + sum(parts[1:], parts[0])


def _require_closed(eta: Form, base: ChartDomain, tol: float):
    pts = base.sample_ambient_points(random.Random(11), 8)
    # one row per coefficient, one column per point; np.max keeps a NaN
    deta = np.broadcast_arrays(np.zeros(len(pts)), *eta.d()(as_block(pts)))
    worst = np.max(np.abs(deta), axis=0)
    for x, w in zip(pts, worst):
        if not w <= tol:
            raise ClosednessError(
                f"test form is not closed: |d eta| = {w:.3e} at {x}")


def nu_inverse_even(scenario: ThomScenario, eta: Form) -> FormPair:
    """Dual pair (Pf ^ eta, -TPf ^ eta) of the tautological-section split.

    The disk slot integrates to zero along fibers (the pulled-back
    Pfaffian has no fiber components) and the sphere slot integrates to
    +eta, so the pair inverts the fiber-integration map.
    """
    if scenario.parity != "even":
        raise RankError("even-rank dual pair requested on an odd-rank bundle")
    _require_closed(eta, scenario.base, CLOSED_TOL)
    m = scenario.rank
    eta_t = eta.pullback(scenario.de.projection())
    pf_t = pf_form(scenario.pi_connection)
    tpf = section_transgression(scenario.pi_connection,
                                scenario.assoc.tautological_section())
    return scenario.pair(pf_t.wedge(eta_t), tpf.wedge(eta_t).smul(-1.0))


def _odd_core(scenario: ThomScenario):
    """Edge and triangle transgressions on the extended sphere chart."""
    tri = scenario.triple
    t12 = transgression(tri.split, tri.ambient)
    q = secondary_transgression(tri.split, tri.ambient, tri.plane_split)
    return t12, q


def odd_dual_pair(scenario: ThomScenario):
    """Bare transgression pair on (DE, SE), before scaling and wedging.

    The disk slot is the rank-extension transgression pulled back through
    the stereographic chart; the sphere slot is the three-connection
    transgression carried in through the equator inclusion.
    """
    m, nb = scenario.rank, scenario.base.ambient_dim
    t12, q = _odd_core(scenario)
    inc = SmoothMap(m + nb, 1 + m + nb, lambda x: [0.0] + list(x))
    return (t12.pullback(scenario.assoc.stereo).smul(-1.0),
            q.pullback(inc).smul(-1.0))


def _se_sample_points(scenario: ThomScenario, rng: random.Random, count: int):
    return [x for se in scenario.se
            for x in se.total.sample_ambient_points(rng, count)]


def _equator_samples(scenario: ThomScenario, piece: ChartDomain,
                     rng: random.Random, count: int):
    """Reference points for an equator chart: piece angles, then base coords."""
    return [[lo + rng.random() * (hi - lo) for lo, hi in piece.bounds] + list(b)
            for b in scenario.base.sample_ambient_points(rng, count)]


def odd_pair_residual(scenario: ThomScenario) -> float:
    """Closedness defect of the bare dual pair, at four points per piece.

    Two ingredients.  The edge transgression is closed on the whole
    extended chart because both endpoint connections are reducible and
    have vanishing Pfaffians; that is checked in ambient coordinates.
    The triangle differential cancels the edge only along the equator
    and only tangentially, so that part is pulled back through each
    equator chart first (at rank 1 over a point the two equator points
    carry no degree-1 components and contribute nothing).
    """
    t12, q = _odd_core(scenario)
    tri = scenario.triple
    rng = random.Random(23)
    pts = [[0.0] + list(p)
           for p in _se_sample_points(scenario, rng, 4)]
    sups = [form_sup(t12.d(), pts)]
    for piece, inc in tri.equators:
        sups.append(form_sup((t12 + q.d()).pullback(inc),
                             _equator_samples(scenario, piece, rng, 4)))
    return sup_abs(sups)


def parallel_pair_residuals(scenario: ThomScenario) -> dict:
    """Pointwise size of the two plane-comparison transgressions on the slice.

    The plane splitting is only geometric on the unit-sphere slice, so both
    comparisons are restricted there: connections are pulled back through
    the slice inclusion and transgressed on the slice chart.  Each vanishes
    because one section stays parallel along the whole affine path, the
    tautological section against the tautological splitting and the constant
    first basis vector against the plain extension.  Keys the worst
    coefficient magnitude by comparison.
    """
    if scenario.parity != "odd":
        raise RankError("plane-comparison vanishing needs an odd-rank bundle")
    tri = scenario.triple
    rng = random.Random(37)
    out = {}
    for key, first in (("tautological", tri.split), ("ambient", tri.ambient)):
        sups = []
        for piece, inc in tri.equators:
            t = transgression(first.pullback(inc), tri.plane_split.pullback(inc))
            sups.append(form_sup(t, _equator_samples(scenario, piece, rng,
                                                     SLICE_POINTS)))
        out[key] = sup_abs(sups)
    return out


def _parallel_defect(conn: Connection, section, x):
    """Largest component of the covariant derivative of a section at x (or a block).

    Returned with the section's values there, read from the same lifted pass.
    """
    vals, J = SmoothMap(conn.n, conn.rank, section).jacobian(x)
    A = conn.A.eval(list(x))
    defects = []
    for j in range(conn.n):
        for a in range(conn.rank):
            tot = J[a][j]
            for b in range(conn.rank):
                tot = tot + A[a][b][j] * vals[b]
            defects.append(tot)
    return sup_abs(defects), vals


def persistent_section_residual(scenario: ThomScenario) -> float:
    """Worst parallelism defect of the persistent sections at slice points.

    Audits the mechanism behind the slice vanishing in ambient coordinates,
    where nothing collapses for degree reasons: the normalized tautological
    section is parallel for the tautological splitting, the normalized fiber
    part for the plane splitting, the constant first basis vector for both
    the plain extension and the plane splitting, and the first two sections
    agree on the slice, so each affine path keeps a parallel section there.
    """
    if scenario.parity != "odd":
        raise RankError("plane-comparison vanishing needs an odd-rank bundle")
    tri = scenario.triple
    m1 = tri.total_rank
    e0, fiber_part = tri.plane_frame

    def taut(x):
        v = list(x[:m1])
        norm = dual.sqrt(sum(c * c for c in v))
        return [c / norm for c in v]

    x = as_block([[0.0] + list(p) for p in
                  _se_sample_points(scenario, random.Random(41), SLICE_POINTS)])
    taut_defect, taut_vals = _parallel_defect(tri.split, taut, x)
    fiber_defect, fiber_vals = _parallel_defect(tri.plane_split, fiber_part, x)
    values = [taut_defect, fiber_defect,
              _parallel_defect(tri.plane_split, e0, x)[0],
              _parallel_defect(tri.ambient, e0, x)[0]]
    values += [a - b for a, b in zip(taut_vals, fiber_vals)]
    return sup_abs(values)


def nu_inverse_odd(scenario: ThomScenario, eta: Form) -> FormPair:
    """Odd-rank dual pair, scaled so the unit pairing comes back as +1."""
    if scenario.parity != "odd":
        raise RankError("odd-rank dual pair requested on an even-rank bundle")
    _require_closed(eta, scenario.base, CLOSED_TOL)
    residual = odd_pair_residual(scenario)
    if not residual <= PAIR_TOL:
        raise SignConventionError(
            f"dual pair is not closed along the equator: residual {residual:.3e}")
    w, g = odd_dual_pair(scenario)
    eta_t = eta.pullback(scenario.de.projection())
    return scenario.pair(w.wedge(eta_t).smul(ODD_SCALE),
                         g.wedge(eta_t).smul(ODD_SCALE))


def cgb_defect(manifold: ChartDomain, faces, conn: Connection,
               chi_expected, boundary_connection: Connection | None = None
               ) -> float:
    """Curvature integral minus boundary transgression minus the Euler number.

    The expected Euler number is scenario data; the certificate is the
    absolute value of the returned defect.
    """
    if chi_expected is None:
        raise ConfigError("scenario must supply the expected Euler number")
    if conn.rank % 2:
        raise RankError("curvature integrand needs even rank")
    total = manifold.integrate(pf_form(conn))
    faces = list(faces)
    if faces:
        if boundary_connection is None:
            raise ConfigError("boundary faces need a comparison connection")
        tpf = transgression(boundary_connection, conn)
        total -= sum(face.integrate(tpf) for face in faces)
    return total - float(chi_expected)
