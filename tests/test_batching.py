"""Node-block quadrature against a per-node scalar oracle.

``ChartDomain.integrate`` evaluates each form closure once per block of
nodes, with (1, N) coordinate arrays in place of floats, the draw axis of
a family leading; the block length N is at most ``forms.BLOCK``, whatever
the form.  The oracle below
walks the chart's own rule (``nodes()``) one float node at a time and calls
the same closures there, so any closure that branches on values, or a
block loop that drops, repeats or misweights a node, shows up as a
disagreement.  The sums
are taken in a different order, hence agreement to 1e-13 relative rather
than bit for bit.  Zero-dimensional charts (S^0 among them, as the two
signed faces of the interval) and a NaN at a single node of a block are
pinned too, as is the sharing of one read-only rule by every chart with
the same axis rules.

``FiberBundleDomain.fiber_integrate`` is a chart integral over the fiber:
its oracle below walks the fiber rule node by node with the Jacobian minors
written out, at a float base point, inside a base chart integral (where the
base arrives as a block), and at a dual base point (``.d()``).

Sampled checks stack their sample points into one block as well; each
batched checker is compared with a per-point loop over float points, and
the values of the sampled scenarios are pinned by a golden file,
``sampled_seed3``.  A second golden file, ``integral_seed3``, pins the
scenarios that reach ``SmoothMap.jacobian`` through ``integrate`` and
``fiber_integrate``.  A third, ``report_seed0``, pins every item of the
registry at seed 0 and count 50.  All three were recorded when the seeded
stream last changed on purpose: exponents drawn with one ``rng.choice``
from the admissible tuple, random potentials drawn on their upper
triangle only, and every family drawn whole, one after another.

Each golden file is ``{"config": {...}, "computed": {scenario: {identity:
value}}}``.  It is recorded by running, at the code it guards,
``run_scenario(get_scenario(name), Config(**config))`` for each scenario
and storing ``item.computed`` per ``item.identity``, written with
``json.dump(..., indent=2)``.  A change that should not move any value
must leave these files as they are.
"""

import json
import math
import os
import random

import numpy as np
import pytest

from cgbv import dual, forms, scenarios
from cgbv.bundles import make_bundle, section_transgression
from cgbv.chern_weil import (Connection, MatrixForm, gauge_pullback_potential,
                             gauge_residual, pf_form, pfaffian,
                             secondary_transgression, symmetry_check,
                             transgression)
from cgbv.errors import ClosednessError, ShapeError, VanishingSectionError
from cgbv.forms import BLOCK, Form, SmoothMap, as_block, combo_index, combos
from cgbv.geometry import ChartDomain, FiberBundleDomain, stokes_residual
from cgbv.relative import FormPair, homotopy_defect_I, homotopy_defect_II
from cgbv.scenarios import Config, get_scenario, run_scenario
from cgbv.thom import (ThomScenario, _equator_samples,
                       _parallel_defect, _require_closed, _se_sample_points,
                       odd_pair_residual, persistent_section_residual, thom_form)

from skew_oracle import random_skew
from test_chern_weil import round_sphere_connection
from test_forms import exponents, random_polynomial_form

REL = 1e-13


def per_node_rule(domain: ChartDomain):
    """(reference point, weight) pairs of the chart's own rule, one float
    node at a time."""
    coords, weights = domain.nodes()
    for i, w in enumerate(weights):
        yield [float(c[i]) for c in coords], float(w)


def per_node_integral(domain: ChartDomain, form: Form) -> float:
    """Integral as a running sum over single float nodes."""
    pulled = form.pullback(domain.embed) if domain.embed is not None else form
    total = 0.0
    for pt, w in per_node_rule(domain):
        total += w * pulled.comps(pt)[0]
    return domain.orientation * total


def per_node_fiber_integral(bundle: FiberBundleDomain, form: Form) -> Form:
    """Fiber integral as running sums over single fiber nodes, minors by hand."""
    fiber = bundle.fiber
    fa, fd, nb = fiber.ambient_dim, fiber.dim, bundle.base.ambient_dim
    emb = fiber.embedding()
    idx = combo_index(fa + nb, form.p)
    bases = combos(nb, form.p - fd)

    def comps(y):
        out = [0.0] * len(bases)
        for u, w in per_node_rule(fiber):
            J = np.array(emb.jacobian(u)[1], dtype=float).reshape(fa, fd)
            vals = form.comps(emb(u) + list(y))
            for iI, I in enumerate(bases):
                for K in combos(fa, fd):
                    minor = float(np.linalg.det(J[list(K)])) if fd else 1.0
                    iM = idx[K + tuple(i + fa for i in I)]
                    out[iI] = out[iI] + fiber.orientation * w * minor * vals[iM]
        return out

    return Form(nb, form.p - fd, comps)


def smooth_form(n: int, p: int, seed: int) -> Form:
    """Polynomial coefficients times transcendental factors of the coordinates."""
    poly = random_polynomial_form(n, p, random.Random(seed))

    def comps(x):
        wave = dual.sin(x[0]) * dual.exp(0.3 * x[-1]) + dual.atan(x[0] * x[-1])
        return [c * wave for c in poly.comps(x)]

    return Form(n, p, comps)


def square() -> ChartDomain:
    return ChartDomain.box("sq", [(0.0, 1.0), (-1.0, 2.0)], [9, 7])


def cube() -> ChartDomain:
    return ChartDomain.box("cube", [(0.0, 1.0)] * 3, [5, 6, 7])


CHARTS = {
    "ball2": lambda: [ChartDomain.ball(2, order=12)],
    "ball3": lambda: [ChartDomain.ball(3, radius=1.5, order=8)],
    "sphere3": lambda: [ChartDomain.sphere(3, order=11)],
    "annulus2": lambda: [ChartDomain.annulus(0.5, 1.5, order=13)],
    "product": lambda: [ChartDomain.product(
        ChartDomain.interval("t", -1.0, 0.5, 5), ChartDomain.sphere(2, order=9))],
    "box-faces": lambda: square().boundary_faces() + cube().boundary_faces(),
    "zero-sphere": lambda: ChartDomain.ball(1).boundary_faces(),
}


@pytest.mark.parametrize("name", sorted(CHARTS))
@pytest.mark.parametrize("derived", [False, True])
def test_blocks_match_per_node_sum(name, derived):
    for domain in CHARTS[name]():
        n, p = domain.ambient_dim, domain.dim
        # d of a (p-1)-form drives lift_point and the Jacobian through arrays
        form = (smooth_form(n, p - 1, 7).d() if derived and p > 0
                else smooth_form(n, p, 3))
        want = per_node_integral(domain, form)
        assert domain.integrate(form) == pytest.approx(want, rel=REL)


def test_partial_last_block():
    ball = ChartDomain.ball(4, order=10)
    form = smooth_form(4, 4, 11)
    assert integrate_blocks(ball, form) == [BLOCK] * 19 + [10000 - 19 * BLOCK]
    assert ball.integrate(form) == pytest.approx(per_node_integral(ball, form), rel=REL)


def test_thom_form_bump_branches_inside_one_batch():
    # radius 2 puts nodes in the core (r < 0.8), on the plateau and on the
    # step, and some blocks straddle r = 0.8 and r = 1
    tau = thom_form(Connection.flat(2, 0, "flat2"))
    ball = ChartDomain.ball(2, radius=2.0, order=24)
    radii = ball.nodes()[0][0]
    assert integrate_blocks(ball, tau) == [BLOCK, 576 - BLOCK]
    blocks = [radii[s:s + BLOCK] for s in range(0, len(radii), BLOCK)]
    for knot in (0.8, 1.0):
        assert any((b < knot).any() and (b > knot).any() for b in blocks)
    want = per_node_integral(ball, tau)
    assert ball.integrate(tau) == pytest.approx(want, rel=REL)


def spied(form: Form):
    """``form``, and the node counts its evaluations see."""
    seen = []

    def comps(x):
        seen.append(np.shape(dual.real(x[0]))[-1])
        return form.comps(x)

    return Form(form.n, form.p, comps), seen


def integrate_blocks(domain: ChartDomain, form: Form) -> list:
    """Nodes per closure evaluation of ``form`` while ``domain`` integrates it."""
    spy, seen = spied(form)
    domain.integrate(spy)
    return seen


class TestBlockSizes:
    """Blocks hold at most ``BLOCK`` nodes, whatever the form: they follow
    from the rule alone, never from a run or a machine."""

    def test_first_order_pullback_takes_full_blocks(self):
        # the cylinder integrand of homotopy-operators (4840 nodes): a
        # polynomial form pulled back along a flow, wedged with a pulled-back
        # 1-form
        flow = SmoothMap(3, 2, lambda z: [z[1] * dual.cos(z[0]) - z[2] * dual.sin(z[0]),
                                          z[1] * dual.sin(z[0]) + z[2] * dual.cos(z[0])])
        drop = SmoothMap(3, 2, lambda z: [z[1], z[2]])
        rng = random.Random(2)
        omega = random_polynomial_form(2, 2, rng).pullback(flow)
        eta = random_polynomial_form(2, 1, rng).pullback(drop)
        cyl = ChartDomain.product(ChartDomain.interval("s", 0.0, 0.6, 10),
                                  ChartDomain.ball(2, order=22))
        assert integrate_blocks(cyl, omega.wedge(eta)) == [BLOCK] * 9 + [4840 - 9 * BLOCK]

    def test_reflection_transgression_takes_full_blocks(self):
        # symmetry-reflection's cylinder integrand (1000 nodes): the 4 x 4
        # transgression of the split and ambient connections, pulled back
        # through the polar map, in the blocks a plain closure gets
        tri = ThomScenario(make_bundle("odd-rank3-point"), fiber_order=12).triple
        t12 = transgression(tri.split, tri.ambient)
        polar = SmoothMap(4, 4, lambda x: [dual.cos(x[0]), dual.sin(x[0]) * x[1],
                                           dual.sin(x[0]) * x[2], dual.sin(x[0]) * x[3]])
        cyl = ChartDomain.product(ChartDomain.interval("theta", 0.0, math.pi, 10),
                                  ChartDomain.sphere(3, order=10))
        assert integrate_blocks(cyl, t12.pullback(polar)) == [512, 488]
        plain = Form(4, 3, lambda x: [x[0], x[1], x[2], x[3]])
        assert integrate_blocks(cyl, plain) == [512, 488]


class TestZeroDimensionalCharts:
    def test_empty_box_integrates_a_zero_form_to_its_value(self):
        pt = ChartDomain.box("pt", [])
        assert pt.integrate(Form.scalar(0, lambda x: 2.5)) == 2.5
        assert pt.reorient(-1).integrate(Form.scalar(0, lambda x: 2.5)) == -2.5

    def test_interval_faces_evaluate_at_the_ends(self):
        f = Form.scalar(1, lambda x: x[0] ** 2 + 1.0)
        faces = ChartDomain.interval("t", 0.0, 2.0).boundary_faces()
        assert [face.integrate(f) for face in faces] == [5.0, -1.0]

    def test_reoriented_interval_faces_keep_their_signs(self):
        # the ends of a segment embedded from (0, 2) to (1, 0.5)
        seg = ChartDomain.box("seg", [(0.0, 1.0)], embed=SmoothMap(
            1, 2, lambda t: [t[0], 2.0 - 1.5 * t[0]]))
        ends = seg.boundary_faces()
        f = Form.scalar(2, lambda x: 3.0 * x[0] + x[1])
        assert [face.orientation for face in ends] == [1, -1]
        assert sum(face.integrate(f) for face in ends) == pytest.approx(3.5 - 2.0)
        assert sum(face.reorient(-1).integrate(f) for face in ends) == pytest.approx(
            -(3.5 - 2.0))

    def test_point_faces_lift_no_point(self, monkeypatch):
        lifted = []
        real = forms.lift_point
        monkeypatch.setattr(forms, "lift_point",
                            lambda x, dirs: lifted.append(len(dirs)) or real(x, dirs))
        f = Form.scalar(2, lambda x: 3.0 * x[0] + x[1])
        seg = ChartDomain.box("seg", [(0.0, 1.0)], embed=SmoothMap(
            1, 2, lambda t: [t[0], 2.0 - 1.5 * t[0]]))
        ends = seg.boundary_faces() + ChartDomain.interval("t", 0.0, 2.0).boundary_faces()
        assert [face.dim for face in ends] == [0, 0, 0, 0]
        assert sum(face.integrate(f) for face in ends[:2]) == pytest.approx(3.5 - 2.0)
        assert [face.integrate(Form.scalar(1, lambda x: x[0])) for face in ends[2:]] == [
            2.0, 0.0]
        assert lifted == []
        # an edge of a square is a composed map with one source direction
        edge = ChartDomain.box("sq", [(0.0, 1.0)] * 2).boundary_faces()[0]
        edge.integrate(Form(2, 1, lambda x: [x[1], x[0]]))
        assert lifted and set(lifted) == {1}


class TestSharedNodeRules:
    """Each tensor rule is built once per tuple of axis rules, read-only."""

    def test_equal_bounds_and_orders_share_one_rule(self):
        # a ball's boundary sphere and a sphere built alone have the same
        # axis rules; a disk and an annulus from radius 0 do not, since a
        # ball's radius takes Gauss-Jacobi and an annulus's Gauss-Legendre
        (bc, bw) = ChartDomain.ball(3, order=9).boundary_faces()[0].nodes()
        (sc, sw) = ChartDomain.sphere(3, order=9, name="other").nodes()
        assert bw is sw and all(a is b for a, b in zip(bc, sc))
        assert not bw.flags.writeable
        ball = ChartDomain.ball(2, order=9).nodes()
        shell = ChartDomain.annulus(0.0, 1.0, order=9).nodes()
        assert ball[1] is not shell[1]
        assert not np.array_equal(ball[0][0], shell[0][0])
        other = ChartDomain.ball(2, order=10).nodes()
        assert other[1] is not ball[1] and len(other[1]) == 100

    def test_a_closure_cannot_write_into_its_block(self):
        sq = square()
        coords, weights = sq.nodes()
        assert not weights.flags.writeable
        assert not any(c.flags.writeable for c in coords)

        def writes(x):
            x[0] *= 2.0
            return [x[0] * x[1]]

        with pytest.raises(ValueError, match="read-only"):
            sq.integrate(Form(2, 2, writes))
        form = Form(2, 2, lambda x: [x[0] * x[1] + 1.0])
        assert sq.integrate(form) == pytest.approx(per_node_integral(sq, form), rel=REL)


def nan_at(t, node: float):
    """NaN where the coordinate t equals node, 1.0 elsewhere, without warnings."""
    return dual.where(abs(dual.real(t) - node) < 1e-12, math.nan, 1.0)


class TestNaNInsideABatch:
    seg = ChartDomain.interval("t", 0.0, 1.0, order=16)

    def node(self, i: int) -> float:
        return float(self.seg.nodes()[0][0][i])

    def test_section_nan_at_one_node_raises(self):
        conn = Connection.flat(2, 1, "flat")
        bad = self.node(5)

        def section(x):
            return [dual.cos(x[0]) * nan_at(x[0], bad), dual.sin(x[0])]

        healthy = section_transgression(conn, lambda x: [dual.cos(x[0]), dual.sin(x[0])])
        assert math.isfinite(self.seg.integrate(healthy))
        with pytest.raises(VanishingSectionError, match="nan"):
            self.seg.integrate(section_transgression(conn, section))

    def test_integrand_nan_at_one_node_gives_nan(self):
        bad = self.node(11)
        form = Form(1, 1, lambda x: [x[0] * nan_at(x[0], bad)])
        assert math.isnan(self.seg.integrate(form))
        assert math.isfinite(self.seg.integrate(Form(1, 1, lambda x: [x[0]])))


def unit_square() -> ChartDomain:
    return ChartDomain.box("xy", [(0.0, 1.0), (-0.5, 0.5)], [5, 4])


FIBERS = {
    # 256 fiber nodes, the longest rule here; the fiber that spans two
    # blocks is test_fiber_rule_spans_several_blocks's own
    "ball2-long": lambda: ChartDomain.ball(2, order=16),
    "sphere2": lambda: ChartDomain.sphere(3, order=7),
    # the -1 end of S^0 = ball(1).boundary_faces(): a reoriented 0-dim
    # fiber whose embedding is the constant -1
    "zero-sphere": lambda: ChartDomain.ball(1).boundary_faces()[1],
    "reoriented-annulus": lambda: ChartDomain.annulus(0.5, 1.5, order=7).reorient(-1),
    "point": lambda: ChartDomain.box("pt", []),
}


def fiber_cases(top: int = 2):
    """(bundle, degree) for each fiber and base degree 0..top of the result."""
    for name in sorted(FIBERS):
        bundle = FiberBundleDomain(FIBERS[name](), unit_square())
        fd = bundle.fiber.dim
        for p in range(fd, fd + top + 1):
            yield pytest.param(bundle, p, id=f"{name}-p{p}")


def total_form(bundle: FiberBundleDomain, p: int) -> Form:
    return smooth_form(bundle.fiber.ambient_dim + 2, p, 5 + p)


def fiber_blocks(bundle: FiberBundleDomain, w: Form, base) -> list:
    """Fiber nodes per closure evaluation of ``w`` in its fiber integral at ``base``."""
    spy, seen = spied(w)
    bundle.fiber_integrate(spy)(base)
    return seen


class TestFiberIntegralAgainstPerNodeSums:
    def test_fiber_rule_spans_several_blocks(self):
        # 576 fiber nodes: blocks of 512 and 64 at a float base point, at a
        # block of base points and at a dual base point alike
        bundle = FiberBundleDomain(ChartDomain.ball(2, order=24), unit_square())
        w = total_form(bundle, 3)
        pts = [[0.3, -0.2], [0.1, 0.4]]
        want = [per_node_fiber_integral(bundle, w)(y) for y in pts]
        assert fiber_blocks(bundle, w, pts[0]) == [512, 64]
        assert bundle.fiber_integrate(w)(pts[0]) == pytest.approx(want[0], rel=REL, abs=1e-14)
        assert fiber_blocks(bundle, w, as_block(pts)) == [512, 64]
        got = bundle.fiber_integrate(w)(as_block(pts))
        for i, y in enumerate(want):
            assert [c[i] for c in got] == pytest.approx(y, rel=REL, abs=1e-14)
        got = bundle.fiber_integrate(w).d()(pts[0])
        want = per_node_fiber_integral(bundle, w).d()(pts[0])
        assert got == pytest.approx(want, rel=REL, abs=1e-14)

    def test_fiber_blocks_ignore_the_base_block(self):
        bundle = FiberBundleDomain(ChartDomain.ball(2, order=64), unit_square())
        w = smooth_form(4, 2, 5)
        assert fiber_blocks(bundle, w, [0.3, -0.2]) == [BLOCK] * 8
        base = as_block([[0.01 * i, -0.2] for i in range(64)])
        assert fiber_blocks(bundle, w, base) == [BLOCK] * 8

    @pytest.mark.parametrize("bundle, p", fiber_cases())
    def test_float_base_point(self, bundle, p):
        w = total_form(bundle, p)
        y = [0.3, -0.2]
        got = bundle.fiber_integrate(w)(y)
        want = per_node_fiber_integral(bundle, w)(y)
        assert all(isinstance(v, float) for v in got)
        assert got == pytest.approx(want, rel=REL, abs=1e-14)

    @pytest.mark.parametrize("bundle, p", fiber_cases())
    def test_base_block(self, bundle, p):
        # integrating over the base chart hands the fiber integral a block
        w = total_form(bundle, p)
        base = bundle.base
        eta = smooth_form(2, 2 - (p - bundle.fiber.dim), 9)
        got = base.integrate(bundle.fiber_integrate(w).wedge(eta))
        want = per_node_integral(base, per_node_fiber_integral(bundle, w).wedge(eta))
        assert got == pytest.approx(want, rel=REL, abs=1e-14)

    # below top degree on the base, where d is not the empty zero form
    @pytest.mark.parametrize("bundle, p", fiber_cases(top=1))
    def test_dual_base_point(self, bundle, p):
        w = total_form(bundle, p)
        y = [0.3, -0.2]
        got = bundle.fiber_integrate(w).d()(y)
        want = per_node_fiber_integral(bundle, w).d()(y)
        assert got == pytest.approx(want, rel=REL, abs=1e-14)

    @pytest.mark.parametrize("name", sorted(FIBERS))
    def test_duals_over_arrays(self, name):
        # d of a fiber integral over the base chart: duals whose slots are blocks
        # polynomial in the base coordinates, so the base rule makes Stokes exact
        bundle = FiberBundleDomain(FIBERS[name](), unit_square())
        p = bundle.fiber.dim + 1
        poly = random_polynomial_form(bundle.fiber.ambient_dim + 2, p, random.Random(p))
        assert stokes_residual(bundle.fiber_integrate(poly), bundle.base) <= 1e-12
        w = total_form(bundle, p)
        got = bundle.base.integrate(bundle.fiber_integrate(w).d())
        want = per_node_integral(bundle.base, per_node_fiber_integral(bundle, w).d())
        assert got == pytest.approx(want, rel=REL, abs=1e-14)

    def test_reoriented_fiber_flips_the_sign(self):
        bundle = FiberBundleDomain(FIBERS["reoriented-annulus"](), unit_square())
        upright = FiberBundleDomain(bundle.fiber.reorient(-1), bundle.base)
        w = total_form(bundle, 3)
        y = [0.1, 0.4]
        flipped, kept = bundle.fiber_integrate(w)(y), upright.fiber_integrate(w)(y)
        assert flipped == [-v for v in kept]
        assert any(v != 0.0 for v in kept)

    def test_point_fiber_returns_the_form(self):
        bundle = FiberBundleDomain(FIBERS["point"](), unit_square())
        w = total_form(bundle, 1)
        assert bundle.fiber_integrate(w)([0.3, -0.2]) == w([0.3, -0.2])

    def test_fiber_and_base_shapes_meet_inside_d(self):
        # on a base block, a coefficient of the fiber coordinates alone is an
        # (F,) array and one of the base alone (B, 1); d adds them up
        bundle = FiberBundleDomain(FIBERS["ball2-long"](), unit_square())
        w = Form(4, 1, lambda x: [x[2] * x[3], x[0] * x[1], x[0] * x[3], x[1] * x[2]])
        eta = smooth_form(2, 2, 9)
        got = bundle.base.integrate(bundle.fiber_integrate(w.d()).wedge(eta))
        want = per_node_integral(bundle.base,
                                 per_node_fiber_integral(bundle, w.d()).wedge(eta))
        assert got == pytest.approx(want, rel=REL, abs=1e-14)

    def test_nan_at_one_fiber_node_gives_nan(self):
        fiber = ChartDomain.interval("t", 0.0, 1.0, order=16)
        bundle = FiberBundleDomain(fiber, unit_square())
        bad = float(fiber.nodes()[0][0][7])
        healthy = Form(3, 2, lambda x: [x[0] * x[1], x[0] + x[2], x[1] * x[2]])
        poisoned = Form(3, 2, lambda x: [v * nan_at(x[0], bad) for v in healthy.comps(x)])
        got = bundle.fiber_integrate(poisoned)([0.3, -0.2])
        assert all(math.isnan(v) for v in got)
        assert all(math.isfinite(v) for v in bundle.fiber_integrate(healthy)([0.3, -0.2]))
        eta = Form(2, 1, lambda x: [1.0, x[0]])
        assert math.isnan(bundle.base.integrate(bundle.fiber_integrate(poisoned).wedge(eta)))


def per_point_sup(values_at, pts) -> float:
    """Largest |v| over ``values_at(x)`` for each float point x; NaN wins."""
    worst = 0.0
    for x in pts:
        for v in values_at(x):
            if math.isnan(v):
                return math.nan
            worst = max(worst, abs(v))
    return worst


def nan_at_point(x, pt):
    """NaN at the sample point pt, 1.0 at the other points of a block."""
    return dual.where(abs(dual.real(x[0]) - pt[0]) < 1e-12, math.nan, 1.0)


class TestSampledChecks:
    """Each checker evaluates its points as one block; the oracles loop."""

    # not a symmetry of either connection, so the residuals are sizeable
    phi = SmoothMap(2, 2, lambda x: [x[0] + 0.1 * x[1], x[1] + 0.7])
    rot = SmoothMap(2, 2, lambda x: [x[0], x[1] + 0.7])
    eye = [[1.0, 0.0], [0.0, 1.0]]
    pts = [[0.5, 1.0], [1.2, 2.0], [2.0, 5.5], [0.9, 0.3], [0.3, -0.8]]

    @pytest.mark.parametrize("conn, psi", [
        (round_sphere_connection(), [[math.cos(0.3), -math.sin(0.3)],
                                     [math.sin(0.3), math.cos(0.3)]]),
        (random_skew(2, 3, random.Random(4)),
         [[0.0, 1.0, 0.0], [1.0, 0.0, 0.0], [0.0, 0.0, -1.0]]),
    ], ids=["round-s2", "skew-rank3"])
    def test_gauge_residual(self, conn, psi):
        transformed = gauge_pullback_potential(conn, self.phi, psi)

        def entries(x):
            return [a - b for got, want in zip(transformed.eval(x), conn.A.eval(x))
                    for g, w in zip(got, want) for a, b in zip(g, w)]

        want = per_point_sup(entries, self.pts)
        assert want > 0.1
        got = gauge_residual(conn, self.phi, psi, self.pts)
        assert got == pytest.approx(want, abs=1e-12)

    def test_symmetry_check(self):
        conn = round_sphere_connection()
        form = pf_form(conn) + Form(2, 2, lambda x: [dual.sin(x[0]) * dual.cos(x[1])])
        pulled = form.pullback(self.rot)
        want = per_point_sup(lambda x: [a - b for a, b in zip(pulled(x), form(x))],
                             self.pts)
        assert want > 0.1
        got = symmetry_check(form, conn, self.rot, self.eye, self.pts)
        assert got == pytest.approx(want, abs=1e-12)

    def test_nan_at_the_middle_point_gives_nan(self):
        good = round_sphere_connection()
        middle = self.pts[2]

        def A_eval(x):
            poison = nan_at_point(x, middle)
            return [[[c * poison for c in entry] for entry in row]
                    for row in good.A.eval(x)]

        poisoned = Connection(2, MatrixForm(2, 1, 2, A_eval), "poisoned")
        assert math.isnan(gauge_residual(poisoned, self.rot, self.eye, self.pts))
        form = Form(2, 2, lambda x: [dual.cos(x[0]) * nan_at_point(x, middle)])
        assert math.isnan(symmetry_check(form, good, self.rot, self.eye, self.pts))

    def test_odd_pair_residual(self):
        sc = ThomScenario(make_bundle("odd-rank1-point"))
        tri = sc.triple
        t12 = transgression(tri.split, tri.ambient)
        q = secondary_transgression(tri.split, tri.ambient, tri.plane_split)
        rng = random.Random(23)
        pts = [[0.0] + list(p) for p in _se_sample_points(sc, rng, 4)]
        want = per_point_sup(t12.d(), pts)
        for piece, inc in tri.equators:
            defect = (t12 + q.d()).pullback(inc)
            want = max(want, per_point_sup(defect, _equator_samples(sc, piece, rng, 4)))
        assert odd_pair_residual(sc) == pytest.approx(want, abs=1e-12)

    def test_persistent_section_residual(self):
        sc = ThomScenario(make_bundle("odd-rank3-point"))
        tri = sc.triple
        e0, fiber_part = tri.plane_frame
        pts = [[0.0] + list(p) for p in _se_sample_points(sc, random.Random(41), 6)]

        def taut(x):
            v = list(x[:tri.total_rank])
            norm = dual.sqrt(sum(c * c for c in v))
            return [c / norm for c in v]

        want = per_point_sup(lambda x: [
            _parallel_defect(tri.split, taut, x)[0],
            _parallel_defect(tri.plane_split, fiber_part, x)[0],
            _parallel_defect(tri.plane_split, e0, x)[0],
            _parallel_defect(tri.ambient, e0, x)[0],
            *(a - b for a, b in zip(taut(x), fiber_part(x)))], pts)
        assert persistent_section_residual(sc) == pytest.approx(want, abs=1e-12)
        # e0 is not parallel for the tautological splitting
        want = per_point_sup(lambda x: [_parallel_defect(tri.split, e0, x)[0]], pts)
        assert want > 0.1
        got, _ = _parallel_defect(tri.split, e0, as_block(pts))
        assert got == pytest.approx(want, abs=1e-12)


def test_sampled_check_at_large_count_takes_fixed_blocks(monkeypatch):
    # transgression-derivative draws --count points, BLOCK of them a block
    # whatever the rank
    lengths = {2: [], 4: []}
    make = scenarios.random_skew_connection

    def spied(n, m, rng, basis):
        A = make(n, m, rng, basis).A

        def eval_fn(x):
            lengths[m].append(np.shape(dual.real(x[0]))[-1])
            return A.eval(x)

        return Connection(m, MatrixForm(n, 1, m, eval_fn))

    monkeypatch.setattr(scenarios, "random_skew_connection", spied)
    cfg = Config(seed=1, count=600)
    report = run_scenario(get_scenario("transgression-derivative"), cfg)
    assert sorted(set(lengths[2])) == sorted(set(lengths[4])) == [88, BLOCK]
    # one block of every point: the same sups, bit for bit
    monkeypatch.setattr(forms, "BLOCK", cfg.count)
    one_block = run_scenario(get_scenario("transgression-derivative"), cfg)
    assert [i.computed for i in report.items] == [i.computed for i in one_block.items]


class TestRequireClosed:
    base = ChartDomain.box("B2", [(0.0, 1.0), (-1.0, 1.0)], [4, 4])
    # the eight points _require_closed draws
    pts = base.sample_ambient_points(random.Random(11), 8)

    def test_closed_form_passes(self):
        eta = Form.scalar(2, lambda x: x[0] * dual.sin(x[1])).d()
        _require_closed(eta, self.base, 1e-8)

    def test_names_the_first_point_over_tolerance(self):
        # d eta = -2 y dx ^ dy, so the defect changes from point to point
        eta = Form(2, 1, lambda x: [x[1] * x[1], 0.0])
        sizes = [per_point_sup(eta.d(), [x]) for x in self.pts]
        tol = sorted(sizes)[4]
        first = next(i for i, v in enumerate(sizes) if not v <= tol)
        assert first > 0
        with pytest.raises(ClosednessError) as err:
            _require_closed(eta, self.base, tol)
        assert str(err.value) == (f"test form is not closed: |d eta| = "
                                  f"{sizes[first]:.3e} at {self.pts[first]}")

    def test_nan_at_the_middle_point_raises(self):
        middle = self.pts[4]
        eta = Form(2, 1, lambda x: [x[1] * nan_at_point(x, middle), x[0]])
        with pytest.raises(ClosednessError) as err:
            _require_closed(eta, self.base, 1e-8)
        assert str(err.value) == (f"test form is not closed: |d eta| = "
                                  f"nan at {middle}")


GOLDEN = ["sampled_seed3", "integral_seed3"]


@pytest.mark.parametrize("golden_file", GOLDEN)
def test_sampled_scenarios_match_golden_values(golden_file):
    with open(os.path.join(os.path.dirname(__file__), "data", golden_file + ".json")) as fh:
        golden = json.load(fh)
    cfg = Config(**golden["config"])
    for name, values in golden["computed"].items():
        report = run_scenario(get_scenario(name), cfg)
        got = {item.identity: item.computed for item in report.items}
        assert got.keys() == values.keys()
        for identity, want in values.items():
            assert abs(got[identity] - want) <= 1e-12, (name, identity)


def test_registry_matches_report_seed0():
    """Every item of the registry at seed 0 and count 50 against its record.

    Items graded at tolerance 0 (the discrete integers) must agree exactly,
    every other item to 1e-12.  A failure lists each moved value as
    scenario, identity, old and new value.
    """
    with open(os.path.join(os.path.dirname(__file__), "data", "report_seed0.json")) as fh:
        golden = json.load(fh)
    cfg = Config(**golden["config"])
    assert list(golden["computed"]) == [s.name for s in scenarios.all_scenarios()]
    moved = []
    for name, values in golden["computed"].items():
        report = run_scenario(get_scenario(name), cfg)
        assert [item.identity for item in report.items] == list(values)
        for item in report.items:
            old = values[item.identity]
            if not abs(item.computed - old) <= (0.0 if item.tol == 0.0 else 1e-12):
                moved.append(f"{name} {item.identity}: {old!r} -> {item.computed!r}")
    assert not moved, "moved values:\n" + "\n".join(moved)


class TestRandomFamilies:
    """A family of R random draws is one form on the leading draw axis.

    Each family is drawn whole before the next.  ``forms-calculus`` draws
    its a and b families, then its maps and points, and checks every
    repetition in one evaluation of an (R, P) block, draw r at the points
    of row r; the integral scenarios integrate each family over (1, N)
    node blocks, every draw at the same nodes; ``pfaffian-identities``
    draws and stacks its matrices per size.  The oracles draw from a
    second generator of the same seed in the same order, build one form
    per draw and evaluate or integrate it alone, or loop over the matrices
    one at a time.  A family sums each coefficient's terms grouped by
    exponents across all its draws, in another order than one draw does,
    so forms agree to 1e-15 of each coefficient's sup and integrated
    residuals, differences of integrals of order one, to 1e-14; the stacked
    Pfaffians run the same operations per matrix and agree exactly.
    """

    reps, per = 25, 4

    @staticmethod
    def oracle_map(rng):
        coefs = [[rng.uniform(-0.4, 0.4) for _ in range(5)] for _ in range(3)]

        def fn(u):
            out = []
            for row in coefs:
                acc = row[0] + row[-1] * u[0] * u[-1]
                for c, ui in zip(row[1:-1], u):
                    acc = acc + c * ui
                out.append(acc)
            return out

        return SmoothMap(3, 3, fn)

    def oracle_draws(self, rng):
        # every a, then every b, every map and every draw's points
        a = [random_polynomial_form(3, 1, rng) for _ in range(self.reps)]
        b = [random_polynomial_form(3, 1, rng) for _ in range(self.reps)]
        phi = [self.oracle_map(rng) for _ in range(self.reps)]
        pts = [[[rng.uniform(-1.0, 1.0) for _ in range(3)] for _ in range(self.per)]
               for _ in range(self.reps)]
        return list(zip(a, b, phi, pts))

    @pytest.mark.parametrize("n, size", [(1, 4), (2, 10), (3, 20), (4, 35)])
    def test_admissible_exponents_match_an_independent_enumeration(self, n, size):
        # the order matters too: rng.choice picks by position
        assert scenarios._exponents(n) == tuple(exponents(n))
        assert len(set(exponents(n))) == size

    @pytest.mark.parametrize("seed", [0, 1])
    def test_family_matches_each_draw_and_keeps_the_stream(self, seed):
        rng, oracle_rng = random.Random(seed), random.Random(seed)
        a, b, phi, pts = scenarios._calculus_families(rng, self.reps, self.per)
        draws = self.oracle_draws(oracle_rng)
        assert rng.random() == oracle_rng.random()
        assert pts == [p for *_, p in draws]
        # one (R, P) array per coordinate, draw r's points in row r
        block = list(np.moveaxis(np.array(pts), -1, 0))
        built = (lambda a, b, phi: a, lambda a, b, phi: a.d(),
                 lambda a, b, phi: a.pullback(phi), lambda a, b, phi: a.wedge(b))
        for build in built:
            # each draw's form at its own points, coefficient by coefficient
            singles = [build(ar, br, phir)(as_block(pr)) for ar, br, phir, pr in draws]
            for got, want in zip(build(a, b, phi)(block), zip(*singles)):
                want = np.stack(want)
                assert got.shape == want.shape == (self.reps, self.per)
                assert np.max(np.abs(got - want)) <= 1e-15 * np.max(np.abs(want))

    @pytest.mark.parametrize("seed", [0, 1])
    def test_homotopy_families_match_each_draw(self, seed):
        cfg = Config(seed=seed, count=4)
        dom, phi = scenarios._disk_domain(22), scenarios._twist_flow()
        oracle_rng = scenarios._rng(cfg, "homotopy-operators")
        # per degree k = 1, 2: every omega, every gamma, every test form eta
        want = {}
        for k in (1, 2):
            forms_k = [[random_polynomial_form(2, p, oracle_rng) for _ in range(2)]
                       for p in (k, k - 1, 2 - k)]
            want[k] = []
            for omega, gamma, eta in zip(*forms_k):
                p = FormPair(dom, omega, gamma)
                want[k].append((homotopy_defect_I(phi, 0.6, p, eta, dom),
                                homotopy_defect_II(phi, 0.6, eta, p, dom)))
        rng = scenarios._rng(cfg, "homotopy-operators")
        families = {k: scenarios._families(((2, k), (2, k - 1), (2, 2 - k)), 2, rng)
                    for k in (1, 2)}
        assert rng.random() == oracle_rng.random()
        for k, (omega, gamma, eta) in families.items():
            p = FormPair(dom, omega, gamma)
            got = (homotopy_defect_I(phi, 0.6, p, eta, dom),
                   homotopy_defect_II(phi, 0.6, eta, p, dom))
            for g, w in zip(got, zip(*want[k])):
                assert g.shape == (2,)
                assert np.max(np.abs(g - np.array(w))) <= 1e-14
        out = scenarios._run_homotopy_operators(cfg)
        for identity, values in zip(("homotopy-defect-absolute",
                                     "homotopy-defect-relative"), zip(*want[1] + want[2])):
            assert abs(out[identity] - max(values)) <= 1e-14

    @pytest.mark.parametrize("seed", [0, 1])
    def test_projection_family_matches_each_draw(self, seed):
        cfg = Config(seed=seed, count=4)
        fb = FiberBundleDomain(ChartDomain.sphere(2, order=16),
                               ChartDomain.box("Q", [(0.0, 1.0), (-0.5, 0.5)], [8] * 2))
        oracle_rng = scenarios._rng(cfg, "fiber-projection")
        # every alpha, then every beta
        alphas = [random_polynomial_form(4, 2, oracle_rng) for _ in range(cfg.count)]
        betas = [random_polynomial_form(2, 1, oracle_rng) for _ in range(cfg.count)]
        want = []
        for alpha, beta in zip(alphas, betas):
            want.append(fb.total.integrate(alpha.wedge(beta.pullback(fb.projection())))
                        - fb.base.integrate(fb.fiber_integrate(alpha).wedge(beta)))
        rng = scenarios._rng(cfg, "fiber-projection")
        alpha, beta = scenarios._families(((4, 2), (2, 1)), cfg.count, rng)
        assert rng.random() == oracle_rng.random()
        got = (fb.total.integrate(alpha.wedge(beta.pullback(fb.projection())))
               - fb.base.integrate(fb.fiber_integrate(alpha).wedge(beta)))
        assert got.shape == (cfg.count,)
        assert np.max(np.abs(got - np.array(want))) <= 1e-14
        out = scenarios._run_fiber_projection(cfg)
        assert abs(out["projection-formula"] - forms.sup_abs(want)) <= 1e-14

    def test_each_monomial_is_computed_once(self):
        products = []

        class Coord:
            """A float coordinate that records each product of two coordinates."""

            def __init__(self, v):
                self.v = v

            def __mul__(self, other):
                if isinstance(other, Coord):
                    products.append(1)
                    return Coord(self.v * other.v)
                return Coord(self.v * other)

            __rmul__ = __mul__

            def __add__(self, other):
                return Coord(self.v + (other.v if isinstance(other, Coord) else other))

            __radd__ = __add__

        # x0 x1 x2 takes two products and x0^2 one, however many terms use them
        draw = [[(0.5, (1, 1, 1)), (2.0, (2, 0, 0))],
                [(1.5, (1, 1, 1)), (-0.75, (0, 1, 0))],
                [(-1.0, (2, 0, 0)), (0.25, (0, 0, 0))]]
        x = [0.3, -0.7, 1.1]
        got = scenarios._polynomials([draw])([Coord(v) for v in x])
        assert len(products) == 3
        want = [0.5 * x[0] * x[1] * x[2] + 2.0 * x[0] * x[0],
                1.5 * x[0] * x[1] * x[2] - 0.75 * x[1],
                -x[0] * x[0] + 0.25]
        assert [g.v for g in got] == pytest.approx(want, rel=1e-15)

    def test_family_refuses_a_leading_axis_other_than_one_or_its_draws(self):
        a, b, phi, pts = scenarios._calculus_families(random.Random(0), 3, 2)
        per_draw = list(np.moveaxis(np.array(pts), -1, 0))
        for form in (a, a.d(), a.pullback(phi)):
            # a float point has no draw axis; 2 rows are neither 1 nor 3 draws
            for block in ([0.1, 0.2, 0.3], [c[:2] for c in per_draw]):
                with pytest.raises(ShapeError):
                    form(block)
            # every draw at its own row, or all draws at one shared row
            for block in (per_draw, [c[:1] for c in per_draw]):
                assert len(form(block)) == len(combos(3, form.p))

    @pytest.mark.parametrize("seed", range(4))
    def test_batched_pfaffian_identities_equal_the_matrix_loop(self, seed):
        def pfaff(M):
            m = len(M)
            entries = [[[float(M[i][j])] for j in range(m)] for i in range(m)]
            return pfaffian(MatrixForm(1, 0, m, lambda x: entries))([0.0])[0]

        rng = random.Random(f"{seed}:pfaffian-identities")
        norm, sq, rot, refl = [], [], [], []
        for _ in range(25):
            a = rng.uniform(-2.0, 2.0)
            norm.append(pfaff([[0.0, a], [-a, 0.0]]) - a)
        # per size every skew matrix, then every Gaussian matrix
        for m in (2, 4, 6):
            Ms = []
            for _ in range(25):
                M = np.zeros((m, m))
                for i in range(m):
                    for j in range(i + 1, m):
                        M[i, j] = rng.uniform(-1.0, 1.0)
                        M[j, i] = -M[i, j]
                Ms.append(M)
            Gs = [np.array([[rng.gauss(0.0, 1.0) for _ in range(m)] for _ in range(m)])
                  for _ in range(25)]
            for M, G in zip(Ms, Gs):
                pf = pfaff(M.tolist())
                sq.append(pf * pf - float(np.linalg.det(M)))
                R, _ = np.linalg.qr(G)
                if np.linalg.det(R) < 0.0:
                    R[:, 0] = -R[:, 0]
                rot.append(pfaff((R.T @ M @ R).tolist()) - pf)
                S = R.copy()
                S[:, 0] = -S[:, 0]
                refl.append(pfaff((S.T @ M @ S).tolist()) + pf)
        want = {"pfaffian-normalization": forms.sup_abs(norm),
                "pfaffian-square-det": forms.sup_abs(sq),
                "pfaffian-rotation-invariance": forms.sup_abs(rot),
                "pfaffian-reflection-sign": forms.sup_abs(refl)}
        assert scenarios._run_pfaffian_identities(Config(seed=seed)) == want
