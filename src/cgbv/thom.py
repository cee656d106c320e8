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

from . import dual
from .bundles import (AssociatedBundles, OddRankTriple, TrivializedBundle,
                      section_transgression, total_connection)
from .chern_weil import Connection, pf_form, secondary_transgression, transgression
from .errors import (BumpError, ClosednessError, ConfigError, RankError,
                     SignConventionError)
from .forms import Form, SmoothMap, ZeroForm, lift_point, sup_abs
from .geometry import ChartDomain, FiberBundleDomain, sphere_bounds
from .relative import FormPair, RelativeDomain

# Calibrated once against the unit pairing over a point: with the split
# connection first the bare transgression pair integrates to +1/2, and the
# transfer chart covers half the extended sphere, hence the factor two.
ODD_ORDERING = "split-first"
ODD_SCALE = 2.0


class BumpProfile:
    """Smooth radial cutoff: identically 1 on [0,1], identically 0 from 2 on.

    Value and slope are separate dual-friendly callables so the profile
    can sit inside forms that get differentiated.  Construction validates
    the plateau, the support, flatness near 0, the range, and that the
    declared slope matches a forward-mode derivative of the value.
    """

    def __init__(self, value, slope, label: str = "bump"):
        self.value = value
        self.slope = slope
        self.label = label
        self._validate()

    def __call__(self, r):
        return self.value(r)

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
            forward = dual.deriv(self.value(dual.Dual(r, 1.0)))
            if not abs(forward - self.slope(r)) <= 1e-9:
                raise BumpError(
                    f"{self.label}: slope {self.slope(r)} disagrees with the "
                    f"value derivative {forward} at r={r}")

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

        def psi_slope(u):
            off = dual.real(u) <= 0.0
            uc = dual.where(off, 1.0, u)
            return dual.where(off, 0.0, dual.exp(-c / uc) * (c / (uc * uc)))

        def value(r):
            rr = dual.real(r)
            low, high = rr <= 1.0, rr >= 2.0
            rc = dual.where(low | high, 1.5, r)
            f, g = psi(2.0 - rc), psi(rc - 1.0)
            return dual.where(low, 1.0, dual.where(high, 0.0, f / (f + g)))

        def slope(r):
            rr = dual.real(r)
            off = (rr <= 1.0) | (rr >= 2.0)
            rc = dual.where(off, 1.5, r)
            f, g = psi(2.0 - rc), psi(rc - 1.0)
            fp, gp = -psi_slope(2.0 - rc), psi_slope(rc - 1.0)
            den = f + g
            return dual.where(off, 0.0, (fp * g - f * gp) / (den * den))

        return BumpProfile(value, slope, f"exp-bump-{c:g}")


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


def mu(omega: Form, gamma: Form | None, rho: BumpProfile, fiber_dim: int) -> Form:
    """rho(r)·omega - rho'(r) dr ^ gamma, supported in the radius-2 tube.

    The slots are the halves of a relative pair on the bundle chart and
    its punctured complement; r is the radius of the leading fiber block.
    The slope factor vanishes near r = 0, which keeps the product smooth
    even though gamma may blow up at the zero section.
    """
    first = Form(omega.n, omega.p, _scaled_comps(omega, rho, fiber_dim))
    if gamma is None:
        return first
    return first - _slope_dr(rho, fiber_dim, omega.n).wedge(gamma)


def thom_form(conn: Connection, rho: BumpProfile | None = None,
              t_order: int = 16) -> Form:
    """Closed compactly supported form with unit fiber integrals.

    Interpolates the pulled-back Pfaffian against the transgression of
    its tautological-section split: rho(r)·Pf + rho'(r) dr ^ TPf.
    """
    if conn.rank % 2:
        raise RankError("unit fiber classes need even rank")
    if rho is None:
        rho = BumpProfile.exponential()
    m = conn.rank
    tot = total_connection(conn, m)
    tpf = section_transgression(tot, lambda x: list(x[:m]), t_order=t_order)
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

        faces = ([self.se.total] if self.se.total is not None
                 else self.de.total.boundary_faces())
        self.relative = RelativeDomain(self.de.total, faces=faces,
                                       boundary_defect=defect)

    def pair(self, omega: Form, gamma: Form | None) -> FormPair:
        return FormPair(self.relative, omega, gamma)


def nu(scenario: ThomScenario, p: FormPair) -> Form:
    """Disk fiber integral of the first slot plus sphere fiber integral of the second."""
    de_part = scenario.de.fiber_integrate(p.omega)
    if p.gamma is None:
        return de_part
    se_part = scenario.se.fiber_integrate(p.gamma)
    if isinstance(de_part, ZeroForm) and isinstance(se_part, ZeroForm):
        return de_part
    return de_part + se_part


def _require_closed(eta: Form, base: ChartDomain, tol: float):
    deta = eta.d()
    rng = random.Random(11)
    for x in base.sample_ambient_points(rng, 8):
        worst = sup_abs(deta(x))
        if not worst <= tol:
            raise ClosednessError(
                f"test form is not closed: |d eta| = {worst:.3e} at {x}")


def nu_inverse_even(scenario: ThomScenario, eta: Form, t_order: int = 16,
                    closed_tol: float = 1e-8) -> FormPair:
    """Dual pair (Pf ^ eta, -TPf ^ eta) of the tautological-section split.

    The disk slot integrates to zero along fibers (the pulled-back
    Pfaffian has no fiber components) and the sphere slot integrates to
    +eta, so the pair inverts the fiber-integration map.
    """
    if scenario.parity != "even":
        raise RankError("even-rank dual pair requested on an odd-rank bundle")
    _require_closed(eta, scenario.base, closed_tol)
    m = scenario.rank
    eta_t = eta.pullback(scenario.de.projection())
    pf_t = pf_form(scenario.pi_connection)
    tpf = section_transgression(scenario.pi_connection,
                                scenario.assoc.tautological_section(),
                                t_order=t_order)
    return scenario.pair(pf_t.wedge(eta_t), tpf.wedge(eta_t).smul(-1.0))


def _odd_core(scenario: ThomScenario, ordering: str, t_order: int):
    """Edge and triangle transgressions on the extended sphere chart."""
    tri = scenario.triple
    c1, c2 = tri.ordered_pair(ordering)
    t12 = transgression(c1, c2, t_order=t_order)
    q = secondary_transgression(c1, c2, tri.plane_split, order=t_order)
    return t12, q


def odd_dual_pair(scenario: ThomScenario, ordering: str = ODD_ORDERING,
                  t_order: int = 16):
    """Bare transgression pair on (DE, SE), before scaling and wedging.

    The disk slot is the rank-extension transgression pulled back through
    the stereographic chart; the sphere slot is the three-connection
    transgression carried in through the equator inclusion.
    """
    m, nb = scenario.rank, scenario.base.ambient_dim
    t12, q = _odd_core(scenario, ordering, t_order)
    inc = SmoothMap(m + nb, 1 + m + nb, lambda x: [0.0] + list(x))
    return (t12.pullback(scenario.assoc.stereo).smul(-1.0),
            q.pullback(inc).smul(-1.0))


def _se_sample_points(scenario: ThomScenario, rng: random.Random, count: int):
    if scenario.se.total is not None:
        return scenario.se.total.sample_ambient_points(rng, count)
    base_pts = scenario.base.sample_ambient_points(rng, max(count, 1))
    return [list(vpt) + list(b)
            for _, vpt in scenario.se.fiber.point_entries for b in base_pts]


def _equator_samples(scenario: ThomScenario, rng: random.Random, count: int):
    """Reference points for the equator chart: sphere angles, then base coords."""
    m = scenario.rank
    base_pts = scenario.base.sample_ambient_points(rng, count)
    out = []
    for b in base_pts:
        ang = [lo + rng.random() * (hi - lo) for lo, hi in sphere_bounds(m)]
        out.append(ang + list(b))
    return out


def odd_pair_residual(scenario: ThomScenario, ordering: str = ODD_ORDERING,
                      t_order: int = 16, check_points: int = 4) -> float:
    """Closedness defect of the bare dual pair.

    Two ingredients.  The edge transgression is closed on the whole
    extended chart because both endpoint connections are reducible and
    have vanishing Pfaffians; that is checked in ambient coordinates.
    The triangle differential cancels the edge only along the equator
    and only tangentially, so that part is pulled back through the
    equator chart first (rank 1 has no equator chart and contributes
    nothing).
    """
    t12, q = _odd_core(scenario, ordering, t_order)
    tri = scenario.triple
    rng = random.Random(23)
    pts = [[0.0] + list(p)
           for p in _se_sample_points(scenario, rng, check_points)]
    d_edge = t12.d()
    values = [v for x in pts for v in d_edge(x)]
    if tri.equator is not None:
        defect = (t12 + q.d()).pullback(tri.equator)
        values += [v for x in _equator_samples(scenario, rng, check_points)
                   for v in defect(x)]
    return sup_abs(values)


def _slice_inclusions(scenario: ThomScenario):
    """Inclusion charts of the unit-sphere slice into the extended chart.

    Rank one has no angle chart; its slice is the pair of points (0, +-1)
    over the base, included one point at a time.
    """
    tri = scenario.triple
    if tri.equator is not None:
        return [tri.equator]
    nb = scenario.base.ambient_dim
    return [SmoothMap(nb, 2 + nb, lambda x, s=sign: [0.0, s] + list(x))
            for sign in (1.0, -1.0)]


def parallel_pair_residuals(scenario: ThomScenario, t_order: int = 16,
                       check_points: int = 6) -> dict:
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
        values = []
        for inc in _slice_inclusions(scenario):
            t = transgression(first.pullback(inc),
                              tri.plane_split.pullback(inc), t_order=t_order)
            pts = (_equator_samples(scenario, rng, check_points)
                   if tri.equator is not None
                   else scenario.base.sample_ambient_points(rng, check_points))
            for y in pts:
                values.extend(t(y))
        out[key] = sup_abs(values)
    return out


def _parallel_defect(conn: Connection, section, x) -> float:
    """Largest component of the covariant derivative of a section at x."""
    vals = section(list(x))
    A = conn.A.eval(list(x))
    defects = []
    for j in range(conn.n):
        lifted = section(lift_point(x, j))
        for a in range(conn.rank):
            tot = dual.deriv(lifted[a])
            for b in range(conn.rank):
                tot += A[a][b][j] * vals[b]
            defects.append(tot)
    return sup_abs(defects)


def persistent_section_residual(scenario: ThomScenario,
                              check_points: int = 6) -> float:
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

    rng = random.Random(41)
    values = []
    for p in _se_sample_points(scenario, rng, check_points):
        x = [0.0] + list(p)
        values += [_parallel_defect(tri.split, taut, x),
                   _parallel_defect(tri.plane_split, fiber_part, x),
                   _parallel_defect(tri.plane_split, e0, x),
                   _parallel_defect(tri.ambient, e0, x)]
        values += [a - b for a, b in zip(taut(x), fiber_part(x))]
    return sup_abs(values)


def nu_inverse_odd(scenario: ThomScenario, eta: Form, t_order: int = 16,
                   closed_tol: float = 1e-8, pair_tol: float = 1e-5,
                   check_points: int = 4) -> FormPair:
    """Odd-rank dual pair, scaled so the unit pairing comes back as +1."""
    if scenario.parity != "odd":
        raise RankError("odd-rank dual pair requested on an even-rank bundle")
    _require_closed(eta, scenario.base, closed_tol)
    residual = odd_pair_residual(scenario, ODD_ORDERING, t_order, check_points)
    if not residual <= pair_tol:
        other = odd_pair_residual(scenario, "ambient-first", t_order,
                                  check_points)
        raise SignConventionError(
            f"dual pair is not closed along the equator: residual "
            f"{residual:.3e} ({ODD_ORDERING}), {other:.3e} (ambient-first)")
    w, g = odd_dual_pair(scenario, ODD_ORDERING, t_order)
    eta_t = eta.pullback(scenario.de.projection())
    return scenario.pair(w.wedge(eta_t).smul(ODD_SCALE),
                         g.wedge(eta_t).smul(ODD_SCALE))


def resolve_odd_ordering(scenario: ThomScenario, t_order: int = 16,
                         tol: float = 1e-3):
    """Calibrate which connection ordering produces the unit pairing.

    Evaluates the scaled bare pair against the constant test form for
    both documented orderings; exactly one must come back as +1.
    Returns (ordering, {ordering: value}).
    """
    rng = random.Random(29)
    b0 = scenario.base.sample_ambient_points(rng, 1)[0]
    values = {}
    for ordering in ("split-first", "ambient-first"):
        w, g = odd_dual_pair(scenario, ordering, t_order)
        total = scenario.de.fiber_integrate(w)(b0)[0]
        total += scenario.se.fiber_integrate(g)(b0)[0]
        values[ordering] = ODD_SCALE * total
    hits = [o for o, v in values.items() if abs(v - 1.0) <= tol]
    if len(hits) != 1:
        raise SignConventionError(
            f"orderings do not single out a unit pairing: {values}")
    return hits[0], values


def cgb_defect(manifold: ChartDomain, faces, conn: Connection,
               chi_expected, boundary_connection: Connection | None = None,
               t_order: int = 16) -> float:
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
        tpf = transgression(boundary_connection, conn, t_order=t_order)
        total -= sum(face.integrate(tpf) for face in faces)
    return total - float(chi_expected)
