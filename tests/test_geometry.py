"""Quadrature, orientation, boundary, and fiber integration checks.

Frozen values: circle circumference 2*pi through the angular form, sphere
area 4*pi through the normal contraction of the volume form, ball volumes
pi and 4*pi/3.  Stokes residuals are checked for random polynomial forms
on every domain kind.
"""

import math
import os
import random
import subprocess
import sys

import numpy as np
import numpy.polynomial.legendre
import pytest

from cgbv import forms
from cgbv.dual import Dual, deriv, value
from cgbv.errors import ChartError, DegreeError, ShapeError
from cgbv.forms import Form, SmoothMap, combos, det, lift_point
from cgbv.geometry import (ChartDomain, FiberBundleDomain, _leggauss,
                           stokes_residual as residual_op, unit_sphere_point)

from test_forms import random_polynomial_form


def stokes_residual(domain: ChartDomain, form: Form) -> float:
    inner = domain.integrate(form.d())
    edge = sum(face.integrate(form) for face in domain.boundary_faces())
    return abs(inner - edge)


class TestVolumes:
    def test_circle_circumference(self):
        w = Form(2, 1, lambda x: [-x[1], x[0]])
        circle = ChartDomain.sphere(2, order=24)
        assert circle.integrate(w) == pytest.approx(2 * math.pi, abs=1e-12)

    def test_sphere_area(self):
        w = Form(3, 2, lambda x: [x[2], -x[1], x[0]])  # z dxdy - y dxdz + x dydz
        sphere = ChartDomain.sphere(3, order=24)
        assert sphere.integrate(w) == pytest.approx(4 * math.pi, abs=1e-9)

    def test_disk_area(self):
        w = Form.constant(2, 2, [1.0])
        disk = ChartDomain.ball(2, order=20)
        assert disk.integrate(w) == pytest.approx(math.pi, abs=1e-10)

    def test_ball_volume(self):
        w = Form.constant(3, 3, [1.0])
        ball = ChartDomain.ball(3, order=16)
        assert ball.integrate(w) == pytest.approx(4 * math.pi / 3, abs=1e-9)

    def test_annulus_area(self):
        w = Form.constant(2, 2, [1.0])
        shell = ChartDomain.annulus(0.5, 1.0, order=16)
        assert shell.integrate(w) == pytest.approx(math.pi * 0.75, abs=1e-10)

    def test_interval_and_radius_scaling(self):
        seg = ChartDomain.interval("t", 0.0, 2.0, order=8)
        assert seg.integrate(Form(1, 1, lambda x: [x[0]])) == pytest.approx(2.0)
        big = ChartDomain.sphere(2, radius=3.0, order=24)
        w = Form(2, 1, lambda x: [-x[1], x[0]])
        assert big.integrate(w) == pytest.approx(2 * math.pi * 9.0, abs=1e-9)


class TestOrientation:
    @pytest.mark.parametrize("m", [2, 3, 4])
    def test_spheres_outward_normal_first(self, m):
        # det[u, du/dtheta_1, ...] > 0 everywhere on the chart
        sphere = ChartDomain.sphere(m)
        rng = random.Random(m)
        for a in sphere.sample_ref_points(rng, 12):
            u = unit_sphere_point(a)
            J = sphere.embed.jacobian(a)[1]
            M = [[u[i]] + J[i] for i in range(m)]
            assert det(M) > 0.0

    def test_sphere2_determinant_is_sin_theta(self):
        sphere = ChartDomain.sphere(3)
        for theta, phi in [(0.4, 1.0), (1.2, 3.3), (2.8, 5.1)]:
            u = unit_sphere_point([theta, phi])
            J = sphere.embed.jacobian([theta, phi])[1]
            M = [[u[i]] + J[i] for i in range(3)]
            assert det(M) == pytest.approx(math.sin(theta), abs=1e-12)

    def test_zero_sphere_signs(self):
        s0 = ChartDomain.ball(1).boundary_faces()
        f = Form.scalar(1, lambda x: x[0] ** 3 + 2.0)
        # f(1) - f(-1) = 3 - 1
        assert sum(piece.integrate(f) for piece in s0) == pytest.approx(2.0)
        with pytest.raises(ChartError, match=r"ball\(1\)\.boundary_faces\(\)"):
            ChartDomain.sphere(1)

    def test_reorient(self):
        circle = ChartDomain.sphere(2, order=20).reorient(-1)
        w = Form(2, 1, lambda x: [-x[1], x[0]])
        assert circle.integrate(w) == pytest.approx(-2 * math.pi, abs=1e-10)


class TestStokes:
    def test_unit_square_green(self):
        square = ChartDomain.box("sq", [(0.0, 1.0), (0.0, 1.0)], [12, 12])
        w = Form(2, 1, lambda x: [0.0, x[0]])  # x dy
        edge = sum(face.integrate(w) for face in square.boundary_faces())
        assert edge == pytest.approx(1.0, abs=1e-12)
        assert square.integrate(w.d()) == pytest.approx(1.0, abs=1e-12)

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_box2(self, seed):
        rng = random.Random(seed)
        box = ChartDomain.box("b2", [(-0.5, 1.0), (0.25, 1.5)], [10, 10])
        w = random_polynomial_form(2, 1, rng)
        assert stokes_residual(box, w) < 1e-11

    @pytest.mark.parametrize("seed", [3, 4])
    def test_box3(self, seed):
        rng = random.Random(seed)
        box = ChartDomain.box("b3", [(0.0, 1.0)] * 3, [8, 8, 8])
        w = random_polynomial_form(3, 2, rng)
        assert stokes_residual(box, w) < 1e-11

    @pytest.mark.parametrize("seed", [5, 6])
    def test_disk(self, seed):
        rng = random.Random(seed)
        disk = ChartDomain.ball(2, order=20)
        w = random_polynomial_form(2, 1, rng)
        assert stokes_residual(disk, w) < 1e-10

    def test_ball3(self):
        rng = random.Random(7)
        ball = ChartDomain.ball(3, order=20)
        w = random_polynomial_form(3, 2, rng)
        assert stokes_residual(ball, w) < 1e-9

    def test_annulus(self):
        rng = random.Random(8)
        shell = ChartDomain.annulus(0.4, 1.2, order=18)
        w = random_polynomial_form(2, 1, rng)
        assert stokes_residual(shell, w) < 1e-10

    def test_cylinder_product(self):
        rng = random.Random(9)
        cyl = ChartDomain.product(ChartDomain.interval("t", 0.0, 1.0, 12),
                                  ChartDomain.sphere(2, order=24))
        w = random_polynomial_form(3, 1, rng)
        assert stokes_residual(cyl, w) < 1e-9

    def test_product_boundary_signs(self):
        # boundary(I x I) must reproduce the square's four signed faces
        seg = ChartDomain.interval("s", 0.0, 1.0, 10)
        prod = ChartDomain.product(seg, ChartDomain.interval("t", 0.0, 1.0, 10))
        square = ChartDomain.box("sq", [(0.0, 1.0), (0.0, 1.0)], [10, 10])
        w = random_polynomial_form(2, 1, random.Random(10))
        edge_prod = sum(f.integrate(w) for f in prod.boundary_faces())
        edge_box = sum(f.integrate(w) for f in square.boundary_faces())
        assert edge_prod == pytest.approx(edge_box, abs=1e-12)

    def test_sphere_has_no_boundary(self):
        assert ChartDomain.sphere(3).boundary_faces() == []


class TestFiberIntegration:
    def test_interval_fiber_hand_value(self):
        # integral over t in [0,1] of t^2 x dt ^ dx = x/3 dx
        fiber = ChartDomain.interval("t", 0.0, 1.0, 8)
        base = ChartDomain.interval("x", -1.0, 1.0, 8)
        bundle = FiberBundleDomain(fiber, base)
        w = Form(2, 2, lambda x: [x[0] ** 2 * x[1]])
        out = bundle.fiber_integrate(w)
        assert out.p == 1
        assert out([0.6])[0] == pytest.approx(0.2, abs=1e-12)

    def test_degree_below_fiber_dimension(self):
        fiber = ChartDomain.interval("t", 0.0, 1.0, 8)
        base = ChartDomain.interval("x", -1.0, 1.0, 8)
        bundle = FiberBundleDomain(fiber, base)
        out = bundle.fiber_integrate(Form.scalar(2, lambda x: x[0]))
        # a 0-form integrated over a 1-dimensional fiber has degree -1
        assert (out.n, out.p) == (1, -1)
        assert out([0.3]) == []
        assert out.d()([0.3]) == [0.0]

    def test_only_front_block_survives(self):
        # dx-only components never contribute to the fiber integral
        fiber = ChartDomain.interval("t", 0.0, 1.0, 8)
        base = ChartDomain.box("xy", [(0.0, 1.0)] * 2, [8, 8])
        bundle = FiberBundleDomain(fiber, base)
        w = Form(3, 2, lambda x: [0.0, 0.0, x[0] * x[1]])  # coefficient on dx^dy
        out = bundle.fiber_integrate(w)
        assert out([0.4, 0.9]) == [0.0, 0.0]

    def test_zero_sphere_fiber(self):
        pieces = ChartDomain.ball(1).boundary_faces()  # two signed points
        base = ChartDomain.interval("x", 0.0, 1.0, 8)

        def over_s0(form, sign=1):
            return sum(FiberBundleDomain(piece.reorient(sign), base)
                       .fiber_integrate(form)([0.7])[0] for piece in pieces)

        w = Form(2, 1, lambda x: [0.0, x[0] ** 2 + x[1]])  # (v^2 + x) dx
        # f(1,x) - f(-1,x) = 0 since even in v
        assert over_s0(w) == pytest.approx(0.0, abs=1e-14)
        w2 = Form(2, 1, lambda x: [0.0, x[0] ** 3 + x[1]])
        assert over_s0(w2) == pytest.approx(2.0, abs=1e-14)
        # the fiber's orientation sign reaches the fiber integral, as in integrate
        assert over_s0(w2, -1) == pytest.approx(-2.0, abs=1e-14)

    @pytest.mark.parametrize("seed", [11, 12])
    def test_projection_formula(self, seed):
        # total integral of w ^ pi*eta equals base integral of (fiber int w) ^ eta
        rng = random.Random(seed)
        fiber = ChartDomain.interval("t", 0.0, 1.0, 10)
        base = ChartDomain.box("xy", [(0.0, 1.0)] * 2, [10, 10])
        bundle = FiberBundleDomain(fiber, base)
        w = random_polynomial_form(3, 2, rng)
        eta = random_polynomial_form(2, 1, rng)
        lhs = bundle.total.integrate(w.wedge(eta.pullback(bundle.projection())))
        rhs = base.integrate(bundle.fiber_integrate(w).wedge(eta))
        assert lhs == pytest.approx(rhs, abs=1e-11)

    def test_disk_fiber_projection_formula(self):
        rng = random.Random(13)
        fiber = ChartDomain.ball(2, order=12)
        base = ChartDomain.interval("x", 0.0, 1.0, 10)
        bundle = FiberBundleDomain(fiber, base)
        w = random_polynomial_form(3, 2, rng)
        eta = random_polynomial_form(1, 1, rng)
        lhs = bundle.total.integrate(w.wedge(eta.pullback(bundle.projection())))
        rhs = base.integrate(bundle.fiber_integrate(w).wedge(eta))
        assert lhs == pytest.approx(rhs, abs=1e-10)

    def test_one_evaluation_per_fiber_block(self):
        # a degree-1 result on a plane base has two coefficients, and the 8
        # nodes of the fiber circle are one block: the total-space closure
        # runs once per base point, not once per coefficient
        calls = []

        def comps(x):
            calls.append(1)
            return [x[0] * x[2], x[1] * x[3], x[0], x[1], x[2] * x[3], x[0] * x[1]]

        fiber = ChartDomain.sphere(2, order=8)
        bundle = FiberBundleDomain(fiber, ChartDomain.box("xy", [(0.0, 1.0)] * 2))
        out = bundle.fiber_integrate(Form(4, 2, comps))
        assert len(out([0.3, 0.6])) == 2
        assert len(calls) == 1
        # and one per block of a (1, N) block of base points
        calls.clear()
        out([np.full((1, 5), 0.3), np.full((1, 5), 0.6)])
        assert len(calls) == 1


def lifted_reference(smap: SmoothMap) -> SmoothMap:
    """The same map without its closed-form Jacobian: one lifted dual pass."""
    return SmoothMap(smap.src_dim, smap.dst_dim, smap.fn)


def paired_slots(a, b) -> list:
    """(slot of a, slot of b) pairs, depth first through duals; a plain
    entry facing a dual stands for a dual whose derivative slots are 0."""
    if isinstance(a, Dual) or isinstance(b, Dual):
        return paired_slots(value(a), value(b)) + paired_slots(deriv(a), deriv(b))
    return [(np.asarray(a, dtype=float), np.asarray(b, dtype=float))]


CLOSED_FORM_CHARTS = {
    "ball2": lambda: ChartDomain.ball(2, order=4),
    "ball3": lambda: ChartDomain.ball(3, order=4),
    "ball4": lambda: ChartDomain.ball(4, order=3),
    "sphere2": lambda: ChartDomain.sphere(2, radius=1.5, order=4),
    "sphere3": lambda: ChartDomain.sphere(3, order=4),
    "sphere4": lambda: ChartDomain.sphere(4, order=3),
    "annulus": lambda: ChartDomain.annulus(0.5, 2.0, order=4),
    "interval-x-ball2": lambda: ChartDomain.product(
        ChartDomain.interval("s", 0.0, 0.7, 4), ChartDomain.ball(2, order=4)),
    "ball2-x-sphere2": lambda: ChartDomain.product(
        ChartDomain.ball(2, order=3), ChartDomain.sphere(2, order=3)),
}


class TestClosedFormJacobians:
    """Chart embeddings give their Jacobians in closed form; those agree
    with one lifted dual pass of the same map."""

    @staticmethod
    def points(chart, kind):
        rng = random.Random(chart.dim)
        pts = chart.sample_ref_points(rng, 5)
        if kind == "float":
            return pts[0]
        block = [np.array([p[i] for p in pts])[None] for i in range(chart.dim)]
        if kind == "block":
            return block
        return lift_point(block, range(chart.dim))

    @pytest.mark.parametrize("kind", ["float", "block", "lifted"])
    @pytest.mark.parametrize("name", sorted(CLOSED_FORM_CHARTS))
    def test_matches_lifted_pass(self, name, kind):
        chart = CLOSED_FORM_CHARTS[name]()
        x = self.points(chart, kind)
        y, J = chart.embed.jacobian(x)
        y_ref, J_ref = lifted_reference(chart.embed).jacobian(x)
        assert len(y) == chart.ambient_dim and len(J) == chart.ambient_dim
        for a, b in zip(y, y_ref):
            assert all(np.array_equal(u, v) for u, v in paired_slots(a, b))
        for row, row_ref in zip(J, J_ref):
            assert len(row) == len(row_ref) == chart.dim
            for a, b in zip(row, row_ref):
                for u, v in paired_slots(a, b):
                    assert np.max(np.abs(u - v), initial=0.0) <= 1e-14

    @pytest.mark.parametrize("name", sorted(CLOSED_FORM_CHARTS))
    def test_values_are_the_embedding(self, name):
        chart = CLOSED_FORM_CHARTS[name]()
        x = self.points(chart, "block")
        y = chart.embed.jacobian(x)[0]
        assert all(np.array_equal(a, b) for a, b in zip(y, chart.embed(x)))

    @pytest.mark.parametrize("name", sorted(CLOSED_FORM_CHARTS))
    def test_integral_lifts_no_point(self, name, monkeypatch):
        chart = CLOSED_FORM_CHARTS[name]()
        calls = []
        lift = forms.lift_point
        monkeypatch.setattr(forms, "lift_point",
                            lambda x, dirs: calls.append(1) or lift(x, dirs))
        n, k = chart.ambient_dim, chart.dim
        w = Form(n, k, lambda x: [x[0] * x[-1] + 1.0] * len(combos(n, k)))
        assert math.isfinite(chart.integrate(w))
        assert calls == []

    def test_product_off_diagonal_blocks_are_structural_zeros(self):
        chart = CLOSED_FORM_CHARTS["ball2-x-sphere2"]()
        J = chart.embed.jacobian(self.points(chart, "block"))[1]
        assert all(J[r][c] == 0.0 and type(J[r][c]) is float
                   for r in range(2) for c in range(2, 3))
        assert all(J[r][c] == 0.0 and type(J[r][c]) is float
                   for r in range(2, 4) for c in range(2))


class TestValidation:
    def test_degree_mismatch(self):
        disk = ChartDomain.ball(2)
        with pytest.raises(DegreeError):
            disk.integrate(Form.scalar(2, lambda x: 1.0))

    def test_ambient_mismatch(self):
        disk = ChartDomain.ball(2)
        with pytest.raises(ChartError):
            disk.integrate(Form.constant(3, 2, [0.0, 0.0, 0.0]))

    @pytest.mark.parametrize("domain", [
        ChartDomain.box("Q", [(0.0, 1.0), (0.0, 1.0)], [4, 4]), ChartDomain.ball(2)])
    def test_integral_checks_coefficient_count(self, domain):
        # a chart without an embedding integrates the caller's form itself
        with pytest.raises(ShapeError):
            domain.integrate(Form(2, 2, lambda x: [1.0, 99.0]))

    def test_fiber_integral_checks_coefficient_count(self):
        bundle = FiberBundleDomain(ChartDomain.interval("t", 0.0, 1.0, 4),
                                   ChartDomain.interval("x", 0.0, 1.0, 4))
        out = bundle.fiber_integrate(Form(2, 1, lambda x: [1.0, 0.0, 0.0]))
        with pytest.raises(ShapeError):
            out([0.5])


class TestStokesResidualModes:
    def test_plain_mode_matches_face_sum(self):
        rng = random.Random(7)
        ball = ChartDomain.ball(2, order=14)
        for _ in range(4):
            w = random_polynomial_form(2, 1, rng)
            assert residual_op(w, ball) == pytest.approx(
                stokes_residual(ball, w), abs=1e-13)

    def test_cylinder_mode_closes_on_box(self):
        rng = random.Random(8)
        cyl = ChartDomain.product(
            ChartDomain.interval("t", 0.0, 1.0, 8),
            ChartDomain.box("B", [(0.0, 1.0), (0.0, 1.0)], [8, 8]))
        for _ in range(5):
            w = random_polynomial_form(3, 2, rng)
            assert residual_op(w, cyl, cylinder=True) <= 1e-12

    def test_cylinder_mode_requires_interval_factor(self):
        rng = random.Random(9)
        with pytest.raises(ChartError):
            residual_op(random_polynomial_form(2, 1, rng),
                        ChartDomain.ball(2), cylinder=True)
        with pytest.raises(ChartError):
            residual_op(random_polynomial_form(3, 1, rng),
                        ChartDomain.product(ChartDomain.sphere(2),
                                            ChartDomain.interval("t", 0, 1)),
                        cylinder=True)


class TestGaussLegendreRule:
    """Golub-Welsch nodes and weights against numpy's rule and exact moments.

    numpy's own weights are off by up to 4.0e-15 at orders up to 40 (held
    against 40-digit values), so they bound the weights to 5e-15; the
    moments hold the rule itself to 1e-15.
    """

    @pytest.mark.parametrize("order", range(1, 41))
    def test_against_numpy(self, order):
        x, w = (np.array(v) for v in _leggauss(order))
        nx, nw = numpy.polynomial.legendre.leggauss(order)
        assert np.max(np.abs(x - nx)) <= 2e-15
        assert np.max(np.abs(w - nw)) <= 5e-15

    @pytest.mark.parametrize("order", range(1, 41))
    def test_exact_moments_and_symmetry(self, order):
        x, w = (np.array(v) for v in _leggauss(order))
        assert np.all(np.diff(x) > 0)
        assert np.array_equal(x, -x[::-1]) and np.array_equal(w, w[::-1])
        for k in range(2 * order):
            exact = 2.0 / (k + 1) if k % 2 == 0 else 0.0
            assert abs(np.sum(w * x ** k) - exact) <= 1e-15

    def test_package_does_not_import_numpy_polynomial(self):
        src = os.path.join(os.path.dirname(os.path.abspath(__file__)), "..", "src")
        code = ("import sys, cgbv.cli, cgbv.geometry as g; g.gauss_nodes(12, 0.0, 1.0); "
                "print('numpy.polynomial' in sys.modules)")
        out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                             env={**os.environ, "PYTHONPATH": src}, check=True)
        assert out.stdout.strip() == "False"
