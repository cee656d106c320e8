"""Named verification scenarios: registry, execution, and line-item reports.

A scenario pairs a runner with the values it must reproduce.  Every
expected value carries a provenance tag: ``paper`` for quantities asserted
by the theorem under test, ``derived`` for oracles computed independently
of the code (closed-form volumes, hand counts, calibrated signs), and
``trivial`` for identities that hold by definition.  Each entry fixes its
quadrature orders, tolerances and bundle rank; a scenario that checks a
second rank is a second entry.  Runners are pure functions of a
:class:`Config`, which carries only the seed and the sample count, so a
fixed seed and count reproduce every digit and reports can be diffed.
"""

from __future__ import annotations

import math
import random
import time
from dataclasses import dataclass

import numpy as np

from . import dual
from .bundles import (TrivializedBundle, _skew, make_bundle,
                      section_splitting_connection, section_transgression)
from .chern_weil import (Connection, MatrixForm, gauge_residual,
                         pf_form, pfaffian, secondary_transgression,
                         symmetry_check, transgression, loop_transgression)
from .discrete import (MESH_REGISTRY, betti, dirichlet_betti, les_check,
                       make_mesh, mapping_cone)
from .errors import ConfigError, ShapeError
from .forms import Form, SmoothMap, combos, form_sup, sup_abs
from .geometry import ChartDomain, FiberBundleDomain, stokes_residual
from .relative import (FormPair, RelativeDomain, boundary_winding,
                       homotopy_defect_I, homotopy_defect_II, lefschetz_I,
                       pair_d, signed_zero_count)
from .thom import (ThomScenario, cgb_defect, fiber_integral, mu, nu,
                   nu_inverse_even, nu_inverse_odd, odd_pair_residual,
                   parallel_pair_residuals, persistent_section_residual, thom_form,
                   BumpProfile)

TWO_PI = 2.0 * math.pi

PROVENANCE_TAGS = ("paper", "trivial", "derived")


@dataclass(frozen=True)
class Expected:
    """One line item a runner must reproduce, with its origin on record."""

    identity: str
    value: float
    tol: float
    provenance: str

    def __post_init__(self):
        if self.provenance not in PROVENANCE_TAGS:
            raise ConfigError(
                f"provenance {self.provenance!r} not one of {PROVENANCE_TAGS}")


@dataclass(frozen=True)
class Config:
    """The two run-time settings shared by every scenario.

    ``seed`` feeds the per-scenario generators and ``count`` sizes the
    random-input families.  Quadrature orders, tolerances and bundle ranks
    are fixed in the registry.
    """

    seed: int = 0
    count: int = 50

    def __post_init__(self):
        if self.count < 1:
            raise ConfigError(f"count must be at least 1, got {self.count}")


@dataclass(frozen=True)
class Item:
    identity: str
    computed: float
    expected: float
    error: float
    tol: float
    provenance: str
    passed: bool

    @property
    def margin(self) -> float | None:
        """error / tol, the share of the tolerance used; None when undefined.

        A zero tolerance gives 0.0 for an exact result and None otherwise,
        as does an error that is not finite.
        """
        if not math.isfinite(self.error):
            return None
        if self.tol == 0.0:
            return 0.0 if self.error == 0.0 else None
        return self.error / self.tol


@dataclass(frozen=True)
class ScenarioReport:
    name: str
    items: tuple
    wall_ms: float

    @property
    def passed(self) -> bool:
        return all(item.passed for item in self.items)


@dataclass(frozen=True)
class Scenario:
    """Registry entry: what runs, what it must produce, where values came from."""

    name: str
    description: str
    modules: tuple
    runner: object
    expected: tuple


def run_scenario(scenario: Scenario, config: Config | None = None) -> ScenarioReport:
    """Execute one scenario and grade every line item against its tolerance."""
    config = config or Config()
    start = time.perf_counter()
    computed = scenario.runner(config)
    wall_ms = (time.perf_counter() - start) * 1000.0
    items = []
    for exp in scenario.expected:
        if exp.identity not in computed:
            raise ConfigError(
                f"runner for {scenario.name!r} produced no value "
                f"for {exp.identity!r}")
        value = float(computed[exp.identity])
        error = abs(value - exp.value)
        items.append(Item(exp.identity, value, exp.value, error, exp.tol,
                          exp.provenance, error <= exp.tol))
    return ScenarioReport(scenario.name, tuple(items), wall_ms)


# ---------------------------------------------------------------------------
# seeded random inputs

def _rng(config: Config, label: str) -> random.Random:
    return random.Random(f"{config.seed}:{label}")


def _draw_polynomial(n: int, p: int, rng: random.Random) -> list:
    """Per coefficient of a p-form on R^n: four (c, exponents) terms of degree <= 3."""
    monos = []
    for _ in range(len(combos(n, p))):
        terms = []
        for _ in range(4):
            expo = [rng.randint(0, 3) for _ in range(n)]
            while sum(expo) > 3:
                expo = [rng.randint(0, 3) for _ in range(n)]
            terms.append((rng.uniform(-1.0, 1.0), tuple(expo)))
        monos.append(terms)
    return monos


def _draw(shapes, rng: random.Random) -> list:
    """One draw: a :func:`_draw_polynomial` per (n, p) of ``shapes``, in order."""
    return [_draw_polynomial(n, p, rng) for n, p in shapes]


def _families(shapes, draws: list) -> list:
    """R draws of ``shapes`` as one family of p-forms on R^n per (n, p), width 2R."""
    # at width R the blocks of first-order family integrands fill the entry
    # budget and their arrays raise the peak RSS of a registry run; 2R halves them
    return [Form(n, p, _polynomials(list(col)), 2 * len(draws))
            for (n, p), col in zip(shapes, zip(*draws))]


def _polynomials(draws: list):
    """Closure x -> values of drawn polynomials, grouped by exponents.

    A draw lists (c, exponents) terms per polynomial (:func:`_draw_polynomial`).
    One draw has float coefficients and takes any point.  R > 1 draws are a
    family on the leading draw axis: on a block of k axes a coefficient has
    shape (R,) + (1,) * (k - 1), so draw r meets row r of an (R, P) block
    and every row of a (1, N) one; any other point raises
    :class:`ShapeError`.  Each distinct monomial is computed once per
    evaluation, as a lower monomial times one coordinate, and every term is
    its coefficient times its monomial.
    """
    R = len(draws)
    monos = []
    for c in range(len(draws[0])):
        groups = {}
        for r, draw in enumerate(draws):
            for coef, expo in draw[c]:
                groups.setdefault(expo, [0.0] * R)[r] += coef
        monos.append([(cs[0] if R == 1 else np.array(cs), expo)
                      for expo, cs in groups.items()])
    # each monomial x^e a term needs is x^lower * x_k, k the last nonzero
    # exponent, so it multiplies left to right; by degree, lower ones first
    steps = {}
    for terms in monos:
        for _, expo in terms:
            while any(expo) and expo not in steps:
                k = max(i for i, e in enumerate(expo) if e)
                lower = expo[:k] + (expo[k] - 1,) + expo[k + 1:]
                steps[expo] = (lower, k)
                expo = lower
    steps = [(expo, *steps[expo]) for expo in sorted(steps, key=sum)]
    shaped = {1: monos}  # coefficients per number of block axes

    def comps(x):
        axes = 1
        if R > 1:
            shape = np.broadcast_shapes(*(np.shape(dual.real(xk)) for xk in x))
            if shape[:1] not in ((1,), (R,)):
                raise ShapeError(f"a family of {R} draws is evaluated on a block of shape {shape}")
            axes = len(shape)
            if axes not in shaped:
                lead = (R,) + (1,) * (axes - 1)
                shaped[axes] = [[(c.reshape(lead), e) for c, e in terms] for terms in monos]
        mono = {}
        for expo, lower, k in steps:
            mono[expo] = mono[lower] * x[k] if lower in mono else x[k]
        out = []
        for terms in shaped[axes]:
            acc = 0.0
            for c, expo in terms:
                acc = acc + (c * mono[expo] if expo in mono else c)
            out.append(acc)
        return out

    return comps


def _random_skew_connection(n: int, m: int, rng: random.Random) -> Connection:
    """Skew potential whose entries are degree <= 2 polynomial 1-forms."""
    coefs = [[[[rng.uniform(-1.0, 1.0) for _ in range(3)]
               for _ in range(n)] for _ in range(m)] for _ in range(m)]

    def ev(x):
        return _skew(m, n, lambda i, j: [a + b * x[0] + q * x[0] * x[-1]
                                         for a, b, q in coefs[i][j]])

    return Connection(m, MatrixForm(n, 1, m, ev))


def _disk_domain(order: int) -> RelativeDomain:
    ball = ChartDomain.ball(2, order=order)
    return RelativeDomain(ball,
                          boundary_defect=lambda x: x[0] ** 2 + x[1] ** 2 - 1.0)


def _twist_flow() -> SmoothMap:
    """Disk self-flow rotating by s*(2 - r^2); rotation by s on the circle."""

    def fn(z):
        s, x, y = z
        ang = s * (2.0 - (x * x + y * y))
        c, sn = dual.cos(ang), dual.sin(ang)
        return [c * x - sn * y, sn * x + c * y]

    return SmoothMap(3, 2, fn)


# ---------------------------------------------------------------------------
# geometry scenarios

def _run_quadrature_volumes(cfg: Config) -> dict:
    o = 16
    area = Form(2, 2, lambda x: [1.0])
    flux = Form(3, 2, lambda x: [x[2], -x[1], x[0]])
    vol4 = Form(4, 4, lambda x: [1.0])
    return {
        "ball2-area": ChartDomain.ball(2, order=o).integrate(area),
        "sphere2-flux": ChartDomain.sphere(3, order=o).integrate(flux),
        "annulus-area": ChartDomain.annulus(1.0, 2.0, order=o).integrate(area),
        "ball4-volume": ChartDomain.ball(4, order=10).integrate(vol4),
    }


def _run_boundary_orientation(cfg: Config) -> dict:
    reps = min(cfg.count, 12)
    curved = 16
    flat = 8
    domains = (
        ("stokes-ball2", ChartDomain.ball(2, order=curved)),
        ("stokes-annulus2", ChartDomain.annulus(0.5, 1.5, order=curved)),
        ("stokes-box3", ChartDomain.box("K3", [(0.0, 1.0)] * 3, [flat] * 3)),
        ("stokes-product3", ChartDomain.product(
            ChartDomain.interval("t", 0.0, 1.0, flat),
            ChartDomain.box("Q2", [(0.0, 1.0), (-1.0, 1.0)], [flat, flat]))),
    )
    out = {}
    for key, dom in domains:
        rng = _rng(cfg, f"boundary-orientation:{key}")
        shapes = ((dom.ambient_dim, dom.dim - 1),)
        family, = _families(shapes, [_draw(shapes, rng) for _ in range(reps)])
        out[key] = sup_abs([stokes_residual(family, dom)])
    return out


def _run_stokes_convention(cfg: Config) -> dict:
    o = 6
    seg = ChartDomain.interval("t", 0.0, 1.0, o)
    sq = ChartDomain.box("B", [(0.0, 1.0), (0.0, 1.0)], [o, o])
    cyl = ChartDomain.product(seg, sq)
    rng = _rng(cfg, "stokes-convention")
    family, = _families(((3, 2),), [_draw(((3, 2),), rng) for _ in range(cfg.count)])
    return {"cylinder-stokes-sup": sup_abs(
        [stokes_residual(family, cyl, cylinder=True)])}


def _run_fiber_projection(cfg: Config) -> dict:
    fiber = ChartDomain.sphere(2, order=16)
    base = ChartDomain.box("Q", [(0.0, 1.0), (-0.5, 0.5)], [8] * 2)
    fb = FiberBundleDomain(fiber, base)
    rng = _rng(cfg, "fiber-projection")
    shapes = ((4, 2), (2, 1))
    alpha, beta = _families(shapes, [_draw(shapes, rng)
                                     for _ in range(min(cfg.count, 10))])
    lhs = fb.total.integrate(alpha.wedge(beta.pullback(fb.projection())))
    rhs = base.integrate(fb.fiber_integrate(alpha).wedge(beta))
    return {"projection-formula": sup_abs([lhs - rhs])}


# ---------------------------------------------------------------------------
# forms scenarios

def _calculus_families(rng: random.Random, reps: int, per: int = 4):
    """Families a, b of 1-forms and phi of maps u -> c0 + c4 u0 u2 + c1 u0 +
    c2 u1 + c3 u2 on R^3, and their per-draw points, reps rows of ``per``;
    each repetition draws a, b, c0 ... c4 per component of phi, then its
    points."""
    expos = ((0, 0, 0), (1, 0, 1), (1, 0, 0), (0, 1, 0), (0, 0, 1))
    draws, phi, pts = [], [], []
    for _ in range(reps):
        draws.append(_draw(((3, 1), (3, 1)), rng))
        rows = [[rng.uniform(-0.4, 0.4) for _ in range(5)] for _ in range(3)]
        phi.append([list(zip([c[0], c[4], c[1], c[2], c[3]], expos)) for c in rows])
        pts.append([[rng.uniform(-1.0, 1.0) for _ in range(3)] for _ in range(per)])
    a, b = _families(((3, 1), (3, 1)), draws)
    return a, b, SmoothMap(3, 3, _polynomials(phi)), pts


def _run_forms_calculus(cfg: Config) -> dict:
    a, b, phi, pts = _calculus_families(_rng(cfg, "forms-calculus"), min(cfg.count, 25))
    dd = a.d().d()
    natural = a.d().pullback(phi) - a.pullback(phi).d()
    product = a.wedge(b).d() - a.d().wedge(b) + a.wedge(b.d())
    return {"d-squared-sup": form_sup(dd, pts),
            "pullback-naturality-sup": form_sup(natural, pts),
            "leibniz-sup": form_sup(product, pts)}


# ---------------------------------------------------------------------------
# chern_weil scenarios

def _scalar_pfaffian(M):
    """Pfaffians of a stack (R, m, m) of plain skew matrices via the 0-form
    matrix route: an entry is its array over the stack, a diagonal the
    literal 0.0, and one evaluation gives the R Pfaffians."""
    m = M.shape[-1]
    entries = [[[0.0] if i == j else [M[:, i, j]] for j in range(m)] for i in range(m)]
    return pfaffian(MatrixForm(1, 0, m, lambda x: entries))([0.0])[0]


def _run_pfaffian_identities(cfg: Config) -> dict:
    rng = _rng(cfg, "pfaffian-identities")
    norms, Ms, Gs = [], {2: [], 4: [], 6: []}, {2: [], 4: [], 6: []}
    for _ in range(min(cfg.count, 25)):
        a = rng.uniform(-2.0, 2.0)
        norms.append([[0.0, a], [-a, 0.0]])
        for m in Ms:
            M = np.zeros((m, m))
            for i in range(m):
                for j in range(i + 1, m):
                    M[i, j] = rng.uniform(-1.0, 1.0)
                    M[j, i] = -M[i, j]
            Ms[m].append(M)
            Gs[m].append([[rng.gauss(0.0, 1.0) for _ in range(m)] for _ in range(m)])
    N = np.array(norms)
    norm, sq, rot, refl = [_scalar_pfaffian(N) - N[:, 0, 1]], [], [], []
    for m in Ms:
        M = np.array(Ms[m])
        pf = _scalar_pfaffian(M)
        sq.append(pf * pf - np.linalg.det(M))
        R, _ = np.linalg.qr(np.array(Gs[m]))
        R[np.linalg.det(R) < 0.0, :, 0] *= -1.0
        rot.append(_scalar_pfaffian(R.transpose(0, 2, 1) @ M @ R) - pf)
        S = R.copy()
        S[:, :, 0] = -S[:, :, 0]
        refl.append(_scalar_pfaffian(S.transpose(0, 2, 1) @ M @ S) + pf)
    return {"pfaffian-normalization": sup_abs(norm),
            "pfaffian-square-det": sup_abs(sq),
            "pfaffian-rotation-invariance": sup_abs(rot),
            "pfaffian-reflection-sign": sup_abs(refl)}


def _run_transgression_derivative(cfg: Config) -> dict:
    out = {}
    for n, m, key in ((2, 2, "rank2"), (4, 4, "rank4")):
        rng = _rng(cfg, f"transgression-derivative:{key}")
        c1 = _random_skew_connection(n, m, rng)
        c2 = _random_skew_connection(n, m, rng)
        dT = transgression(c1, c2).d()
        pf1, pf2 = pf_form(c1), pf_form(c2)
        pts = [[rng.uniform(-1.0, 1.0) for _ in range(n)] for _ in range(cfg.count)]
        out[f"transgression-derivative-{key}"] = form_sup(dT - pf2 + pf1, pts)
    return out


def _trig_skew_connection(m: int, rng: random.Random) -> Connection:
    """Rank-m skew potential with one-harmonic entries, periodic on the circle."""
    coefs = [[[rng.uniform(-1.0, 1.0) for _ in range(3)]
              for _ in range(m)] for _ in range(m)]

    def ev(x):
        c, s = dual.cos(x[0]), dual.sin(x[0])
        return _skew(m, 1, lambda i, j: [coefs[i][j][0] + coefs[i][j][1] * c
                                         + coefs[i][j][2] * s])

    return Connection(m, MatrixForm(1, 1, m, ev))


def _run_secondary_transgression(cfg: Config) -> dict:
    rng = _rng(cfg, "secondary-transgression")
    cs = [_trig_skew_connection(2, rng) for _ in range(3)]
    dQ = secondary_transgression(*cs).d()
    edges = [transgression(cs[0], cs[1]), transgression(cs[1], cs[2]),
             transgression(cs[2], cs[0])]
    pts = [[rng.uniform(0.0, TWO_PI)] for _ in range(cfg.count)]
    total = form_sup(dQ + edges[0] + edges[1] + edges[2], pts)
    const = secondary_transgression(cs[0], cs[0], cs[0])
    flat = form_sup(const, [[rng.uniform(0.0, TWO_PI)] for _ in range(8)])
    return {"secondary-sum-rule": total,
            "secondary-constant-family": flat}


def _run_loop_transgression(cfg: Config) -> dict:
    rng = _rng(cfg, "loop-transgression")
    base = ChartDomain.interval("x", -1.0, 1.0, 8)
    a0, b0, c0 = (rng.uniform(-1.0, 1.0) for _ in range(3))

    def loop_eval(tx):
        t, x = tx[0], tx[1]
        val = (a0 + b0 * dual.cos(TWO_PI * t)
               + c0 * dual.sin(TWO_PI * t)) * (1.0 + 0.3 * x)
        return [[[0.0, 0.0], [0.0, val]], [[0.0, -val], [0.0, 0.0]]]

    def ext_eval(zx):
        z1, z2, x = zx[0], zx[1], zx[2]
        val = (a0 + b0 * z1 + c0 * z2) * (1.0 + 0.3 * x)
        zero = [0.0, 0.0, 0.0]
        return [[list(zero), [0.0, 0.0, val]], [[0.0, 0.0, -val], list(zero)]]

    loop = Connection(2, MatrixForm(2, 1, 2, loop_eval), "loop")
    ext = Connection(2, MatrixForm(3, 1, 2, ext_eval), "extension")
    T, P = loop_transgression(loop, ext, base)
    pts = [[rng.uniform(-0.95, 0.95)] for _ in range(cfg.count)]
    return {"loop-primitive-sup": form_sup(P.d() + T, pts)}


def _run_symmetry_rotation(cfg: Config) -> dict:
    bundle = make_bundle("tangent-s2")
    pf = pf_form(bundle.connection)
    rot = SmoothMap(2, 2, lambda x: [x[0], x[1] + 0.7])
    eye = [[1.0, 0.0], [0.0, 1.0]]
    rng = _rng(cfg, "symmetry-rotation")
    pts = bundle.base.sample_ambient_points(rng, 10)
    return {"rotation-invariance": symmetry_check(pf, bundle.connection,
                                                  rot, eye, pts)}


# ---------------------------------------------------------------------------
# curvature-versus-boundary scenarios

def _run_cgb_sphere(cfg: Config) -> dict:
    bundle = make_bundle("tangent-s2")
    return {"euler-number-s2": bundle.base.integrate(pf_form(bundle.connection))}


def _run_cgb_disk(cfg: Config) -> dict:
    disk = ChartDomain.ball(2, order=20, name="D2")
    flat = Connection.flat(2, 2, "flat")
    nsplit = section_splitting_connection(flat, lambda x: [x[0], x[1]])
    defect = cgb_defect(disk, disk.boundary_faces(), flat, 1,
                        boundary_connection=nsplit)
    return {"euler-number-disk": 1.0 + defect}


def _run_cgb_caps(cfg: Config) -> dict:
    conn = make_bundle("tangent-s2").connection
    bconn = section_splitting_connection(conn, lambda x: [1.0, 0.0])
    out = {}
    for theta0, key in ((math.pi / 6, "cap30"), (math.pi / 2, "cap90"),
                        (2.0 * math.pi / 3, "cap120")):
        cap = ChartDomain.box(f"cap{key}", [(0.0, theta0), (0.0, TWO_PI)],
                              [16, 24])
        rim = cap.boundary_faces()[0]
        defect = cgb_defect(cap, [rim], conn, 1, boundary_connection=bconn)
        out[f"euler-number-{key}"] = 1.0 + defect
    return out


# ---------------------------------------------------------------------------
# thom scenarios

def _run_parallel_vanishing(cfg: Config) -> dict:
    out = {}
    for name, key in (("odd-rank1-point", "rank1"), ("odd-rank3-point", "rank3")):
        sc = ThomScenario(make_bundle(name), fiber_order=12)
        res = parallel_pair_residuals(sc)
        out[f"slice-vanishing-taut-{key}"] = res["tautological"]
        out[f"slice-vanishing-ambient-{key}"] = res["ambient"]
        out[f"persistent-sections-{key}"] = persistent_section_residual(sc)
    return out


def _run_thom_fiber(cfg: Config) -> dict:
    bundle = make_bundle("random-rank2-disk")
    tau = thom_form(bundle.connection)
    fi = fiber_integral(tau, bundle.base, 2, 24)
    rng = _rng(cfg, "thom-fiber-integral")
    pts = bundle.base.sample_ambient_points(rng, 20)
    worst = form_sup(fi - Form(fi.n, 0, lambda x: [1.0]), pts)
    closed = []
    for _ in range(12):
        r = rng.uniform(0.1, 2.3)
        t = rng.uniform(0.0, TWO_PI)
        y = bundle.base.sample_ambient_points(rng, 1)[0]
        closed.append([r * math.cos(t), r * math.sin(t)] + list(y))
    return {"fiber-normalization-sup": worst,
            "thom-closedness-sup": form_sup(tau.d(), closed)}


def _run_nu_roundtrip(cfg: Config) -> dict:
    sc = ThomScenario(make_bundle("tangent-s2"), fiber_order=16)
    rng = _rng(cfg, "nu-roundtrip-even")
    pts = sc.base.sample_ambient_points(rng, 4)
    out = {}
    for key, eta in (("constant", Form(2, 0, lambda x: [1.0])),
                     ("area", Form(2, 2, lambda x: [dual.sin(x[0])]))):
        back = nu(sc, nu_inverse_even(sc, eta))
        out[f"nu-roundtrip-{key}"] = form_sup(back - eta, pts)
    return out


def _odd_rank_point(rank: int, order: int):
    """Runner for the unit pairing of the rank-``rank`` odd pair over a point."""

    def run(cfg: Config) -> dict:
        sc = ThomScenario(make_bundle(f"odd-rank{rank}-point"), fiber_order=order)
        one = Form(0, 0, lambda x: [1.0])
        val = nu(sc, nu_inverse_odd(sc, one))([])[0]
        resid = odd_pair_residual(sc)
        return {f"unit-pairing-rank{rank}": val,
                f"dual-pair-closedness-rank{rank}": resid}

    return run


def _run_symmetry_reflection(cfg: Config) -> dict:
    """Axis-flip symmetry of the odd-rank comparison transgressions.

    The flip negates the extension coordinate on the chart and the first
    gauge direction on the bundle, so the gauge part has determinant -1.
    All three comparison connections are preserved, and the Pfaffian's
    conjugation law then forces every transgression built from them to
    change sign rather than stay fixed; the checks assert that odd parity
    exactly.  The pair whose affine path keeps a parallel section dies
    pointwise, and on the parameter cylinder the two surviving edges push
    forward to opposite unit values.
    """
    tri = ThomScenario(make_bundle("odd-rank3-point"),
                       fiber_order=12).triple
    conns = (tri.split, tri.ambient, tri.plane_split)
    phi = SmoothMap(4, 4, lambda x: [-x[0], x[1], x[2], x[3]])
    psi = [[-1.0, 0.0, 0.0, 0.0], [0.0, 1.0, 0.0, 0.0],
           [0.0, 0.0, 1.0, 0.0], [0.0, 0.0, 0.0, 1.0]]
    t12 = transgression(tri.split, tri.ambient)
    t23 = transgression(tri.ambient, tri.plane_split)
    t31 = transgression(tri.plane_split, tri.split)
    sec = secondary_transgression(tri.split, tri.ambient, tri.plane_split)
    rng = _rng(cfg, "symmetry-reflection")
    pts = ChartDomain.sphere(4, order=4).sample_ambient_points(rng, 8)
    out = {
        "connection-preservation": sup_abs(
            gauge_residual(conn, phi, psi, pts) for conn in conns),
        "transgression-parity": form_sup(t31.pullback(phi) + t31, pts),
        "secondary-parity": form_sup(sec.pullback(phi) + sec, pts),
        "parallel-pair-vanishing": form_sup(t23, pts),
    }

    # analytic polar parametrization of the doubled sphere chart keeps
    # every integrand smooth up to the ends of the parameter interval
    o = 10
    cyl = ChartDomain.product(
        ChartDomain.interval("theta", 0.0, math.pi, order=o),
        ChartDomain.sphere(3, order=o))

    def polar(x):
        c, s = dual.cos(x[0]), dual.sin(x[0])
        return [c, s * x[1], s * x[2], s * x[3]]

    bl = SmoothMap(4, 4, polar)
    i12 = cyl.integrate(t12.pullback(bl))
    i31 = cyl.integrate(t31.pullback(bl))
    out["pushforward-cancellation"] = i12 + i31
    out["pushforward-magnitude"] = i31
    return out


# ---------------------------------------------------------------------------
# relative scenarios

def _run_zero_set(cfg: Config) -> dict:
    dom = _disk_domain(40)
    conn = Connection.flat(2, 2)
    pf = pf_form(conn)
    one = Form.constant(2, 0, [1.0])
    sections = (
        ("identity", lambda x: [x[0], x[1]]),
        ("conjugate", lambda x: [x[0], -x[1]]),
        ("square", lambda x: [x[0] * x[0] - x[1] * x[1] - 0.25,
                              2.0 * x[0] * x[1]]),
    )
    out = {}
    oracle, winding = [], []
    for key, section in sections:
        p = FormPair(dom, pf, section_transgression(conn, section).smul(-1.0))
        value = lefschetz_I(p, one)
        out[f"zero-count-{key}"] = value
        total, _ = signed_zero_count(section, dom.manifold)
        oracle.append(value - float(total))
        winding.append(boundary_winding(section, dom.manifold) - value)
    out["zero-count-oracle-gap"] = sup_abs(oracle)
    out["zero-count-winding-gap"] = sup_abs(winding)
    return out


def _run_homotopy_operators(cfg: Config) -> dict:
    dom = _disk_domain(22)
    phi = _twist_flow()
    rng = _rng(cfg, "homotopy-operators")
    # draw i: a pair (omega, gamma) of degree k = 1 + i % 2 and a test form eta
    shapes = {k: ((2, k), (2, k - 1), (2, 2 - k)) for k in (1, 2)}
    draws = [_draw(shapes[1 + i % 2], rng) for i in range(cfg.count)]
    first, second = [], []
    for k in (1, 2)[:cfg.count]:
        omega, gamma, eta = _families(shapes[k], draws[k - 1::2])
        p = FormPair(dom, omega, gamma)
        first.append(homotopy_defect_I(phi, 0.6, p, eta, dom))
        second.append(homotopy_defect_II(phi, 0.6, eta, p, dom))
    return {"homotopy-defect-absolute": sup_abs(first),
            "homotopy-defect-relative": sup_abs(second)}


def _run_chain_sign_laws(cfg: Config) -> dict:
    dom = _disk_domain(28)
    rng = _rng(cfg, "chain-sign-laws")
    # six points are drawn to keep the rng stream; three are checked
    head = dom.manifold.sample_ambient_points(rng, 6)[:3]

    # draw i: a pair of degree k = i % 2, a companion only for k = 1, and
    # a test form eta
    shapes = (((2, 0), (2, 1)), ((2, 1), (2, 0), (2, 0)))
    draws = [_draw(shapes[i % 2], rng) for i in range(cfg.count)]
    dd, transpose = [], []
    for k in (0, 1)[:cfg.count]:
        omega, *gamma, eta = _families(shapes[k], draws[k::2])
        p = FormPair(dom, omega, gamma[0] if k else None)
        ddp = pair_d(pair_d(p))
        dd += [form_sup(ddp.omega, head), form_sup(ddp.gamma, head)]
        sign = -1.0 if k else 1.0
        lhs = lefschetz_I(pair_d(p), eta)
        rhs = sign * lefschetz_I(p, eta.d())
        transpose.append(lhs - rhs)

    # fiber collapse: pushing the cone differential below commutes with d
    # up to the sign set by the fiber dimension
    collapse = []
    for m in (1, 2):
        base = ChartDomain.box("B2", [(0.0, 1.0), (-0.5, 0.5)], [10, 10])
        sc = ThomScenario(TrivializedBundle(
            m, base, Connection.flat(m, 2, "flat"), "flat-collapse"))
        sign = 1.0 if m % 2 else -1.0
        n = m + 2
        # draw: a degree k, a pair of that degree, then three base points
        groups = {}
        for _ in range(min(cfg.count, 12)):
            k = rng.randint(1, m + 1)
            shapes = ((n, k), (n, k - 1))
            draws, pts = groups.setdefault(shapes, ([], []))
            draws.append(_draw(shapes, rng))
            pts.append(sc.base.sample_ambient_points(rng, 3))
        for shapes, (draws, pts) in groups.items():
            p = sc.pair(*_families(shapes, draws))
            lhs = nu(sc, pair_d(p))
            collapse.append(form_sup(lhs - nu(sc, p).d().smul(sign), pts))

    # cutoff interpolation: mu of the cone differential is -d of mu
    rho = BumpProfile.exponential()
    cutoff = []
    mu_pts = []
    while len(mu_pts) < 6:
        x = [rng.uniform(-2.3, 2.3) for _ in range(3)]
        if math.hypot(x[0], x[1]) > 0.05:
            mu_pts.append(x)
    groups = {}
    for _ in range(min(cfg.count, 20)):
        k = rng.randint(1, 2)
        shapes = ((3, k), (3, k - 1))
        groups.setdefault(shapes, []).append(_draw(shapes, rng))
    for shapes, draws in groups.items():
        om, ga = _families(shapes, draws)
        lhs = mu(om.d().smul(-1.0), om + ga.d(), rho, 2)
        rhs = mu(om, ga, rho, 2).d().smul(-1.0)
        cutoff.append(form_sup(lhs - rhs, mu_pts))

    return {"pair-d-squared-sup": sup_abs(dd),
            "weak-transposition-sup": sup_abs(transpose),
            "fiber-collapse-sign-sup": sup_abs(collapse),
            "cutoff-chain-sup": sup_abs(cutoff)}


# ---------------------------------------------------------------------------
# discrete scenarios

def _run_discrete_duality(cfg: Config) -> dict:
    cone_gap, reversal, euler = [], [], []
    for name in MESH_REGISTRY:
        mesh = make_mesh(name)
        cm, cb, r = mesh.complexes()
        cone = mapping_cone(cm, cb, r)
        bc, bm = betti(cone), betti(cm)
        bd = dirichlet_betti(cm, cb, r, bc)
        # each complex spans degrees 0..n, so the three lists align
        cone_gap.extend(c - d for c, d in zip(bc, bd, strict=True))
        reversal.extend(c - m for c, m in zip(bc, reversed(bm), strict=True))
        euler.append(cone.euler() - (cm.euler() - cb.euler()))
    return {"cone-dirichlet-gap": float(sup_abs(cone_gap)),
            "betti-reversal-gap": float(sup_abs(reversal)),
            "euler-additivity-gap": float(sup_abs(euler))}


def _run_mesh_les(cfg: Config) -> dict:
    failures = 0
    for name in MESH_REGISTRY:
        report = les_check(*make_mesh(name).complexes())
        failures += len(report.failures())
    return {"les-exactness-failures": float(failures)}


# ---------------------------------------------------------------------------
# registry

def _zero(identity: str, tol: float, provenance: str) -> Expected:
    return Expected(identity, 0.0, tol, provenance)


_SCENARIOS = (
    Scenario(
        "quadrature-volumes",
        "closed-form areas and volumes of the reference charts",
        ("geometry",),
        _run_quadrature_volumes,
        (Expected("ball2-area", math.pi, 1e-10, "derived"),
         Expected("sphere2-flux", 4.0 * math.pi, 1e-10, "derived"),
         Expected("annulus-area", 3.0 * math.pi, 1e-10, "derived"),
         Expected("ball4-volume", math.pi ** 2 / 2.0, 1e-10, "derived")),
    ),
    Scenario(
        "boundary-orientation",
        "Stokes residuals on balls, shells, boxes, and products",
        ("geometry",),
        _run_boundary_orientation,
        (_zero("stokes-ball2", 1e-8, "derived"),
         _zero("stokes-annulus2", 1e-8, "derived"),
         _zero("stokes-box3", 1e-8, "derived"),
         _zero("stokes-product3", 1e-8, "derived")),
    ),
    Scenario(
        "stokes-convention",
        "parameter-cylinder Stokes: slices minus lateral face",
        ("geometry",),
        _run_stokes_convention,
        (_zero("cylinder-stokes-sup", 1e-8, "paper"),),
    ),
    Scenario(
        "fiber-projection",
        "fiber integration against pulled-back factors",
        ("geometry",),
        _run_fiber_projection,
        (_zero("projection-formula", 1e-8, "derived"),),
    ),
    Scenario(
        "forms-calculus",
        "d squared, pullback naturality, and the graded Leibniz rule",
        ("forms",),
        _run_forms_calculus,
        (_zero("d-squared-sup", 1e-10, "trivial"),
         _zero("pullback-naturality-sup", 1e-10, "trivial"),
         _zero("leibniz-sup", 1e-10, "trivial")),
    ),
    Scenario(
        "pfaffian-identities",
        "normalization, square-equals-determinant, conjugation signs",
        ("chern_weil",),
        _run_pfaffian_identities,
        (_zero("pfaffian-normalization", 1e-12, "trivial"),
         _zero("pfaffian-square-det", 1e-8, "derived"),
         _zero("pfaffian-rotation-invariance", 1e-8, "derived"),
         _zero("pfaffian-reflection-sign", 1e-8, "derived")),
    ),
    Scenario(
        "transgression-derivative",
        "d of the transgression equals the Pfaffian difference",
        ("chern_weil",),
        _run_transgression_derivative,
        (_zero("transgression-derivative-rank2", 1e-7, "paper"),
         _zero("transgression-derivative-rank4", 1e-7, "paper")),
    ),
    Scenario(
        "secondary-transgression",
        "triangle form against the sum of its three edges",
        ("chern_weil",),
        _run_secondary_transgression,
        (_zero("secondary-sum-rule", 1e-6, "paper"),
         _zero("secondary-constant-family", 1e-12, "trivial")),
    ),
    Scenario(
        "loop-transgression",
        "closed-loop transgression admits the disk primitive",
        ("chern_weil",),
        _run_loop_transgression,
        (_zero("loop-primitive-sup", 1e-6, "paper"),),
    ),
    Scenario(
        "cgb-sphere",
        "curvature integral over the round two-sphere",
        ("chern_weil", "geometry", "bundles"),
        _run_cgb_sphere,
        (Expected("euler-number-s2", 2.0, 1e-8, "paper"),),
    ),
    Scenario(
        "cgb-disk",
        "flat disk: boundary transgression carries the whole Euler number",
        ("chern_weil", "geometry", "bundles"),
        _run_cgb_disk,
        (Expected("euler-number-disk", 1.0, 1e-6, "derived"),),
    ),
    Scenario(
        "cgb-caps",
        "spherical caps: curvature minus rim transgression",
        ("chern_weil", "geometry", "bundles"),
        _run_cgb_caps,
        (Expected("euler-number-cap30", 1.0, 1e-6, "derived"),
         Expected("euler-number-cap90", 1.0, 1e-6, "derived"),
         Expected("euler-number-cap120", 1.0, 1e-6, "derived")),
    ),
    Scenario(
        "persistent-section-vanishing",
        "plane-comparison transgressions die on the unit-sphere slice",
        ("thom", "bundles"),
        _run_parallel_vanishing,
        (_zero("slice-vanishing-taut-rank1", 1e-8, "paper"),
         _zero("slice-vanishing-ambient-rank1", 1e-8, "paper"),
         _zero("persistent-sections-rank1", 1e-9, "derived"),
         _zero("slice-vanishing-taut-rank3", 1e-8, "paper"),
         _zero("slice-vanishing-ambient-rank3", 1e-8, "paper"),
         _zero("persistent-sections-rank3", 1e-9, "derived")),
    ),
    Scenario(
        "thom-fiber-integral",
        "compact vertical class: unit fiber integrals and closedness",
        ("thom", "bundles", "geometry"),
        _run_thom_fiber,
        (_zero("fiber-normalization-sup", 1e-6, "paper"),
         _zero("thom-closedness-sup", 1e-7, "paper")),
    ),
    Scenario(
        "nu-roundtrip-even",
        "fiber integration inverts the curvature dual pair",
        ("thom", "relative", "bundles"),
        _run_nu_roundtrip,
        (_zero("nu-roundtrip-constant", 1e-6, "paper"),
         _zero("nu-roundtrip-area", 1e-6, "paper")),
    ),
    Scenario(
        "odd-rank-point",
        "odd-rank unit pairing over a point, rank 1",
        ("thom", "bundles"),
        _odd_rank_point(1, 16),
        (Expected("unit-pairing-rank1", 1.0, 1e-8, "derived"),
         _zero("dual-pair-closedness-rank1", 1e-6, "paper")),
    ),
    Scenario(
        "odd-rank3-point",
        "odd-rank unit pairing over a point, rank 3",
        ("thom", "bundles"),
        _odd_rank_point(3, 12),
        (Expected("unit-pairing-rank3", 1.0, 1e-4, "derived"),
         _zero("dual-pair-closedness-rank3", 1e-6, "paper")),
    ),
    Scenario(
        "zero-set-duality",
        "curvature pairing counts section zeros with signs",
        ("relative", "chern_weil", "bundles"),
        _run_zero_set,
        (Expected("zero-count-identity", 1.0, 1e-6, "derived"),
         Expected("zero-count-conjugate", -1.0, 1e-6, "derived"),
         Expected("zero-count-square", 2.0, 1e-6, "derived"),
         _zero("zero-count-oracle-gap", 1e-6, "derived"),
         _zero("zero-count-winding-gap", 1e-6, "derived")),
    ),
    Scenario(
        "homotopy-operators",
        "cylinder operators mediate pullback minus identity",
        ("relative",),
        _run_homotopy_operators,
        (_zero("homotopy-defect-absolute", 1e-6, "paper"),
         _zero("homotopy-defect-relative", 1e-6, "derived")),
    ),
    Scenario(
        "chain-sign-laws",
        "cone differential squares to zero and transposes with signs",
        ("relative", "thom"),
        _run_chain_sign_laws,
        (_zero("pair-d-squared-sup", 1e-10, "trivial"),
         _zero("weak-transposition-sup", 1e-7, "paper"),
         _zero("fiber-collapse-sign-sup", 1e-7, "derived"),
         _zero("cutoff-chain-sup", 1e-7, "paper")),
    ),
    Scenario(
        "discrete-duality",
        "exact Betti identities on the simplicial registry",
        ("discrete",),
        _run_discrete_duality,
        (_zero("cone-dirichlet-gap", 0.0, "paper"),
         _zero("betti-reversal-gap", 0.0, "paper"),
         _zero("euler-additivity-gap", 0.0, "trivial")),
    ),
    Scenario(
        "mesh-les",
        "long exact sequence of every registry mesh pair",
        ("discrete",),
        _run_mesh_les,
        (_zero("les-exactness-failures", 0.0, "derived"),),
    ),
    Scenario(
        "symmetry-rotation",
        "curvature form survives the azimuthal rotation",
        ("chern_weil", "bundles"),
        _run_symmetry_rotation,
        (_zero("rotation-invariance", 1e-8, "paper"),),
    ),
    Scenario(
        "symmetry-reflection",
        "axis flip negates transgressions; cylinder edges cancel",
        ("chern_weil", "thom", "bundles"),
        _run_symmetry_reflection,
        (_zero("connection-preservation", 1e-8, "paper"),
         _zero("transgression-parity", 1e-8, "derived"),
         _zero("secondary-parity", 1e-8, "derived"),
         _zero("parallel-pair-vanishing", 1e-8, "paper"),
         _zero("pushforward-cancellation", 1e-6, "derived"),
         Expected("pushforward-magnitude", 1.0, 1e-6, "derived")),
    ),
)

_BY_NAME = {s.name: s for s in _SCENARIOS}


def all_scenarios() -> tuple:
    """Every registered scenario, in registry order."""
    return _SCENARIOS


def scenarios_for(module: str | None) -> tuple:
    """Scenarios exercising ``module``; all of them when module is None."""
    if module is None:
        return _SCENARIOS
    return tuple(s for s in _SCENARIOS if module in s.modules)


def get_scenario(name: str) -> Scenario:
    try:
        return _BY_NAME[name]
    except KeyError:
        raise ConfigError(f"unknown scenario {name!r}") from None
