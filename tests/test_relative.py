import itertools
import math
import random

import numpy as np
import pytest

from cgbv import dual, relative
from cgbv.bundles import section_transgression
from cgbv.chern_weil import Connection, pf_form
from cgbv.errors import (BoundaryZeroError, ChartError, DegreeError,
                         HomotopyError, TransversalityError)
from cgbv.forms import Form, SmoothMap, combos
from cgbv.geometry import ChartDomain
from cgbv.relative import (FormPair, RelativeDomain, boundary_winding,
                           from_boundary, homotopy_TI, homotopy_TII,
                           homotopy_defect_I, homotopy_defect_II, lefschetz_I,
                           lefschetz_II, pair_d, pair_pullback,
                           signed_zero_count, slice_map)
from skew_oracle import random_skew
from test_forms import random_polynomial_form

TWO_PI = 2.0 * math.pi


def disk_domain(order: int = 28) -> RelativeDomain:
    """Unit disk with its boundary circle and the radius-squared defect.

    The azimuth's equally spaced nodes resolve trigonometric degree below
    the order, and the radius rule polynomial degree up to twice it; the
    default is sized for products of two cubic-coefficient forms.
    """
    ball = ChartDomain.ball(2, order=order)
    return RelativeDomain(ball, boundary_defect=lambda x: x[0] ** 2 + x[1] ** 2 - 1.0)


def interval_domain(order: int = 12) -> RelativeDomain:
    seg = ChartDomain.interval("I", 0.0, 1.0, order)
    return RelativeDomain(seg, boundary_defect=lambda x: x[0] * (x[0] - 1.0))


def random_pair(domain: RelativeDomain, k: int, rng: random.Random) -> FormPair:
    n = domain.ambient_dim
    gamma = None if k == 0 else random_polynomial_form(n, k - 1, rng)
    return FormPair(domain, random_polynomial_form(n, k, rng), gamma)


def affine_form(n: int, p: int, rng: random.Random) -> Form:
    """Form with affine coefficients; keeps oscillatory pullbacks low order."""
    coefs = [[rng.uniform(-1.0, 1.0) for _ in range(n + 1)]
             for _ in range(len(combos(n, p)))]

    def comps(x):
        return [row[0] + sum(c * xi for c, xi in zip(row[1:], x)) for row in coefs]

    return Form(n, p, comps)


def affine_pair(domain: RelativeDomain, k: int, rng: random.Random) -> FormPair:
    n = domain.ambient_dim
    gamma = None if k == 0 else affine_form(n, k - 1, rng)
    return FormPair(domain, affine_form(n, k, rng), gamma)


def max_abs(values) -> float:
    return max([abs(v) for v in values], default=0.0)


def twist_flow() -> SmoothMap:
    """Disk self-flow rotating by s*(2 - r^2); restricts to rotation by s on the circle."""

    def fn(z):
        s, x, y = z
        ang = s * (2.0 - (x * x + y * y))
        c, sn = dual.cos(ang), dual.sin(ang)
        return [c * x - sn * y, sn * x + c * y]

    return SmoothMap(3, 2, fn)


class TestPairCalculus:
    def test_differential_squares_to_zero(self):
        rng = random.Random(101)
        dom = disk_domain()
        pts = dom.manifold.sample_ambient_points(rng, 10)
        for k in (0, 1, 2):
            for _ in range(34):
                dd = pair_d(pair_d(random_pair(dom, k, rng)))
                for x in pts:
                    assert max_abs(dd.omega(x)) <= 1e-10
                    assert max_abs(dd.gamma(x)) <= 1e-10

    def test_closed_first_slot(self):
        rng = random.Random(102)
        dom = disk_domain()
        p = FormPair(dom, Form.constant(2, 1, [0.7, -0.3]),
                     random_polynomial_form(2, 0, rng))
        out = pair_d(p)
        for x in dom.manifold.sample_ambient_points(rng, 10):
            assert max_abs(out.omega(x)) <= 1e-12

    def test_slot_degrees_are_enforced(self):
        dom = disk_domain()
        with pytest.raises(DegreeError):
            FormPair(dom, Form.constant(2, 0, [1.0]), Form.constant(2, 0, [1.0]))
        with pytest.raises(DegreeError):
            FormPair(dom, Form.constant(2, 1, [1.0, 0.0]), None)
        with pytest.raises(DegreeError):
            FormPair(dom, Form.constant(2, 1, [1.0, 0.0]),
                     Form.constant(2, 1, [0.0, 1.0]))
        with pytest.raises(ChartError):
            FormPair(dom, Form.constant(3, 1, [1.0, 0.0, 0.0]),
                     Form.constant(3, 0, [1.0]))

    def test_boundary_inclusion_chain_map(self):
        # the inclusion gamma -> (0, gamma) intertwines d with pair_d
        rng = random.Random(103)
        dom = disk_domain()
        gamma = random_polynomial_form(2, 0, rng)
        left = pair_d(from_boundary(dom, gamma))
        right = from_boundary(dom, gamma.d())
        for x in dom.manifold.sample_ambient_points(rng, 10):
            assert max_abs(left.omega(x)) <= 1e-12
            diff = [a - b for a, b in zip(left.gamma(x), right.gamma(x))]
            assert max_abs(diff) <= 1e-12

    def test_projection_anticommutes(self):
        rng = random.Random(104)
        dom = disk_domain()
        p = random_pair(dom, 1, rng)
        left = pair_d(p).omega
        right = p.omega.d().smul(-1.0)
        for x in dom.manifold.sample_ambient_points(rng, 10):
            diff = [a - b for a, b in zip(left(x), right(x))]
            assert max_abs(diff) <= 1e-12

    def test_curvature_transgression_pair_is_closed(self):
        """(Pfaffian, -transgression of a nonvanishing split) has zero differential."""
        rng = random.Random(105)
        dom = disk_domain()
        conn = random_skew(2, 2, rng)
        tp = section_transgression(conn, lambda x: [1.0, 0.0])
        p = FormPair(dom, pf_form(conn), tp.smul(-1.0))
        out = pair_d(p)
        for x in dom.manifold.sample_ambient_points(rng, 12):
            assert max_abs(out.omega(x)) <= 1e-7
            assert max_abs(out.gamma(x)) <= 1e-7


class TestLefschetzI:
    def test_degree_guard(self):
        rng = random.Random(110)
        dom = disk_domain()
        with pytest.raises(DegreeError):
            lefschetz_I(random_pair(dom, 1, rng), random_polynomial_form(2, 2, rng))

    def test_boundary_only_pair(self):
        rng = random.Random(111)
        dom = disk_domain()
        gamma = random_polynomial_form(2, 0, rng)
        eta = random_polynomial_form(2, 1, rng)
        direct = dom.integrate_boundary(gamma.wedge(eta))
        assert abs(lefschetz_I(from_boundary(dom, gamma), eta) - direct) <= 1e-12

    @pytest.mark.parametrize("k", [0, 1])
    def test_weak_transposition_disk(self, k):
        # pairing the differentiated pair equals (-1)^k pairing against d(eta)
        rng = random.Random(112 + k)
        dom = disk_domain()
        sign = -1.0 if k % 2 else 1.0
        for _ in range(25):
            p = random_pair(dom, k, rng)
            eta = random_polynomial_form(2, dom.dim - k - 1, rng)
            lhs = lefschetz_I(pair_d(p), eta)
            rhs = sign * lefschetz_I(p, eta.d())
            assert abs(lhs - rhs) <= 1e-7

    def test_weak_transposition_interval(self):
        rng = random.Random(114)
        dom = interval_domain()
        for _ in range(25):
            p = random_pair(dom, 0, rng)
            eta = random_polynomial_form(1, 0, rng)
            lhs = lefschetz_I(pair_d(p), eta)
            rhs = lefschetz_I(p, eta.d())
            assert abs(lhs - rhs) <= 1e-7

    @pytest.mark.parametrize("section,expected", [
        (lambda x: [x[0], x[1]], 1.0),
        (lambda x: [x[0], -x[1]], -1.0),
        (lambda x: [x[0] * x[0] - x[1] * x[1] - 0.25, 2.0 * x[0] * x[1]], 2.0),
    ])
    def test_flat_disk_counts_section_zeros(self, section, expected):
        """Pairing (Pf, -TPf) with 1 returns the signed zero count of the split section.

        The doubling section's normalized split has a pole just outside
        the unit circle, so its boundary integrand converges slowly and
        needs a high order.
        """
        dom = disk_domain(order=40)
        conn = Connection.flat(2, 2)
        p = FormPair(dom, pf_form(conn), section_transgression(conn, section).smul(-1.0))
        value = lefschetz_I(p, Form.constant(2, 0, [1.0]))
        assert abs(value - expected) <= 1e-6


class TestLefschetzII:
    def test_componentwise_values(self):
        rng = random.Random(120)
        dom = disk_domain()
        p = random_pair(dom, 1, rng)
        eta = random_polynomial_form(2, 1, rng)
        first, second = lefschetz_II(eta, p)
        assert abs(first - dom.integrate(p.omega.wedge(eta))) <= 1e-12
        assert abs(second - dom.integrate_boundary(p.gamma.wedge(eta))) <= 1e-12

    def test_degree_guard(self):
        rng = random.Random(121)
        dom = disk_domain()
        with pytest.raises(DegreeError):
            lefschetz_II(random_polynomial_form(2, 2, rng), random_pair(dom, 1, rng))

    @pytest.mark.parametrize("k", [0, 1])
    def test_weak_differential_law(self, k):
        # evaluating on the differentiated pair equals (-1)^k evaluation of d(eta)
        rng = random.Random(122 + k)
        dom = disk_domain()
        sign = -1.0 if k % 2 else 1.0
        for _ in range(25):
            p = random_pair(dom, k, rng)
            eta = random_polynomial_form(2, dom.dim - k - 1, rng)
            lhs = sum(lefschetz_II(eta, pair_d(p)))
            rhs = sign * sum(lefschetz_II(eta.d(), p))
            assert abs(lhs - rhs) <= 1e-7

    def test_dual_zero_set_pairing(self):
        """Curvature pairing of closed exact pairs matches the core-circle evaluation.

        Over the disk bundle on a circle both numbers are independently
        forced to vanish: the boundary term cancels the interior term by
        Stokes, and the core integral is a loop integral of an exact form.
        """
        rng = random.Random(124)
        ball = ChartDomain.ball(2, order=24)
        circle = ChartDomain.sphere(2, order=24)
        total = ChartDomain.product(ball, circle)
        dom = RelativeDomain(total,
                             boundary_defect=lambda x: x[0] ** 2 + x[1] ** 2 - 1.0)
        conn = random_skew(4, 2, rng)
        pf = pf_form(conn)
        core = ChartDomain.box(
            "core", [(0.0, TWO_PI)], [12],
            SmoothMap(1, 4, lambda a: [0.0, 0.0, dual.cos(a[0]), dual.sin(a[0])]))
        for _ in range(3):
            g = affine_form(4, 0, rng)
            closed = FormPair(dom, g.d(), g.smul(-1.0))
            curvature_side = sum(lefschetz_II(pf, closed))
            zero_set_side = core.integrate(g.d())
            assert abs(curvature_side) <= 1e-6
            assert abs(zero_set_side) <= 1e-6
            assert abs(curvature_side - zero_set_side) <= 1e-6


class TestHomotopyOperators:
    def test_zero_time_vanishes(self):
        rng = random.Random(130)
        dom = disk_domain(order=8)
        phi = twist_flow()
        p = random_pair(dom, 2, rng)
        eta = random_polynomial_form(2, 0, rng)
        assert homotopy_TI(phi, 0.0, pair_d(p), eta, dom) == 0.0
        first, second = homotopy_TII(phi, 0.0, eta.d(), p, dom)
        assert first == 0.0 and second == 0.0

    def test_time_independent_flow_drops_out(self):
        # a constant-in-s flow gives vanishing operators and equal endpoints
        rng = random.Random(131)
        dom = disk_domain(order=10)
        swap = SmoothMap(3, 2, lambda z: [z[2], z[1]])
        p = random_pair(dom, 1, rng)
        eta = random_polynomial_form(2, 1, rng)
        assert abs(homotopy_TI(swap, 0.8, pair_d(p), eta, dom)) <= 1e-12
        assert homotopy_defect_I(swap, 0.8, p, eta, dom) <= 1e-10
        assert homotopy_defect_II(swap, 0.8, eta, p, dom) <= 1e-10

    @pytest.mark.parametrize("k", [1, 2])
    def test_first_identity_twist_flow(self, k):
        rng = random.Random(132 + k)
        dom = disk_domain(order=20)
        phi = twist_flow()
        for _ in range(3):
            p = affine_pair(dom, k, rng)
            eta = affine_form(2, dom.dim - k, rng)
            assert homotopy_defect_I(phi, 0.6, p, eta, dom) <= 1e-6

    @pytest.mark.parametrize("a", [1, 2])
    def test_second_identity_twist_flow(self, a):
        rng = random.Random(134 + a)
        dom = disk_domain(order=20)
        phi = twist_flow()
        for _ in range(3):
            p = affine_pair(dom, a, rng)
            eta = affine_form(2, dom.dim - a, rng)
            assert homotopy_defect_II(phi, 0.6, eta, p, dom) <= 1e-6

    @pytest.mark.parametrize("identity", ["I", "II"])
    def test_one_flow_jacobian_per_cylinder_block(self, identity):
        # at order 3, [0,t] x disk has 90 nodes and [0,t] x circle 30, one
        # block each: both operators of an identity share one integrand per
        # cylinder, so the flow's Jacobian runs once per cylinder chart
        class CountingMap(SmoothMap):
            def __init__(self, inner):
                super().__init__(inner.src_dim, inner.dst_dim, inner.fn)
                self.calls = 0

            def jacobian(self, x):
                self.calls += 1
                return super().jacobian(x)

        rng = random.Random(139)
        dom = disk_domain(order=3)
        phi = CountingMap(twist_flow())
        p = affine_pair(dom, 1, rng)
        eta = affine_form(2, 1, rng)
        if identity == "I":
            homotopy_defect_I(phi, 0.6, p, eta, dom)
        else:
            homotopy_defect_II(phi, 0.6, eta, p, dom)
        assert phi.calls == 1 + len(dom.faces)

    def test_second_identity_sign_has_teeth(self):
        # flipping the transposition sign must break the identity
        rng = random.Random(137)
        dom = disk_domain(order=20)
        phi = twist_flow()
        p = affine_pair(dom, 1, rng)
        eta = affine_form(2, 1, rng)
        t = 0.6
        lhs1 = sum(homotopy_TII(phi, t, eta.d(), p, dom))
        lhs2 = sum(homotopy_TII(phi, t, eta, pair_d(p), dom))

        def endpoint(s):
            return sum(lefschetz_II(eta.pullback(slice_map(phi, s)), p))

        rhs = endpoint(t) - endpoint(0.0)
        assert abs(lhs1) > 1e-3
        assert abs(lhs1 + lhs2 - rhs) <= 1e-6
        assert abs(-lhs1 + lhs2 - rhs) > 1e-3

    def test_first_identity_interval_flow(self):
        rng = random.Random(138)
        dom = interval_domain(order=10)
        phi = SmoothMap(2, 1, lambda z: [z[1] + 0.4 * z[0] * z[1] * (1.0 - z[1])])
        for _ in range(5):
            p = random_pair(dom, 1, rng)
            eta = random_polynomial_form(1, 0, rng)
            assert homotopy_defect_I(phi, 0.9, p, eta, dom) <= 1e-6

    def test_point_faces_match_box_faces(self):
        # faces handed over explicitly, each a signed 0-dim box, give the same
        # operator as the faces the domain derives itself
        rng = random.Random(139)
        box_dom = interval_domain(order=10)
        pts_dom = RelativeDomain(
            box_dom.manifold,
            faces=ChartDomain.interval("x", 0.0, 1.0).boundary_faces(),
            boundary_defect=box_dom.boundary_defect)
        phi = SmoothMap(2, 1, lambda z: [z[1] + 0.4 * z[0] * z[1] * (1.0 - z[1])])
        p = random_pair(box_dom, 1, rng)
        eta = random_polynomial_form(1, 0, rng)
        a = homotopy_TI(phi, 0.9, p, eta.d(), box_dom)
        b = homotopy_TI(phi, 0.9, FormPair(pts_dom, p.omega, p.gamma), eta.d(), pts_dom)
        assert abs(a - b) <= 1e-12

    def test_boundary_violation_raises(self):
        rng = random.Random(140)
        dom = disk_domain(order=8)
        shrink = SmoothMap(3, 2, lambda z: [(1.0 - 0.3 * z[0]) * z[1],
                                            (1.0 - 0.3 * z[0]) * z[2]])
        p = random_pair(dom, 1, rng)
        eta = random_polynomial_form(2, 1, rng)
        with pytest.raises(HomotopyError) as err:
            homotopy_TI(shrink, 0.5, p, eta.d(), dom)
        # the shrink leaves the circle further the later the time
        assert str(err.value).startswith("flow leaves the boundary at s=0.500: ")

    def test_boundary_check_one_block_per_face_per_pairing(self):
        # each cylinder pairing checks its flow once, four samples per face at
        # three times evaluated as one block per face; an identity applies
        # both of its operators as one pairing
        rng = random.Random(145)
        blocks = []

        def counted(defect):
            def fn(x):
                blocks.append(len(x[0]))
                return defect(x)
            return fn

        dom = RelativeDomain(ChartDomain.ball(2, order=8),
                             boundary_defect=counted(lambda x: x[0] ** 2 + x[1] ** 2 - 1.0))
        phi = twist_flow()
        p = random_pair(dom, 1, rng)
        eta = random_polynomial_form(2, 1, rng)
        homotopy_defect_I(phi, 0.5, p, eta, dom)
        assert blocks == [12]
        homotopy_defect_II(phi, 0.5, eta, p, dom)
        assert blocks == [12] * 2
        homotopy_TI(phi, 0.5, p, eta.d(), dom)
        assert blocks == [12] * 3
        # the interval's two point faces, a block each
        blocks.clear()
        seg = interval_domain(order=10)
        seg = RelativeDomain(seg.manifold, boundary_defect=counted(seg.boundary_defect))
        flow = SmoothMap(2, 1, lambda z: [z[1] + 0.4 * z[0] * z[1] * (1.0 - z[1])])
        homotopy_defect_I(flow, 0.9, random_pair(seg, 1, rng),
                          random_polynomial_form(1, 0, rng), seg)
        assert blocks == [12, 12]

    def test_boundary_violation_after_a_pass_raises(self):
        # the shrink stays on the circle at time 0 only; neither that pass nor
        # a pass of another flow at the same time covers it at time 0.5
        rng = random.Random(146)
        dom = disk_domain(order=8)
        shrink = SmoothMap(3, 2, lambda z: [(1.0 - 0.3 * z[0]) * z[1],
                                            (1.0 - 0.3 * z[0]) * z[2]])
        p = random_pair(dom, 1, rng)
        eta = random_polynomial_form(2, 1, rng)
        homotopy_TI(shrink, 0.0, p, eta.d(), dom)
        homotopy_TI(twist_flow(), 0.5, p, eta.d(), dom)
        for _ in range(2):
            with pytest.raises(HomotopyError):
                homotopy_TI(shrink, 0.5, p, eta.d(), dom)

    def test_boundary_violation_on_point_face_raises(self):
        # the flow keeps x = 1 fixed but drags x = 0 into the interior
        rng = random.Random(143)
        box_dom = interval_domain(order=10)
        pts_dom = RelativeDomain(
            box_dom.manifold,
            faces=ChartDomain.interval("x", 0.0, 1.0).boundary_faces(),
            boundary_defect=box_dom.boundary_defect)
        drift = SmoothMap(2, 1, lambda z: [z[1] + 0.3 * z[0] * (1.0 - z[1])])
        p = random_pair(pts_dom, 1, rng)
        eta = random_polynomial_form(1, 0, rng)
        with pytest.raises(HomotopyError):
            homotopy_TI(drift, 0.5, p, eta.d(), pts_dom)

    def test_nan_flow_at_one_sample_raises(self):
        # the twist keeps the circle on the circle; NaN at the middle time of
        # one boundary sample only, inside the one block the check evaluates
        rng = random.Random(144)
        dom = disk_domain(order=8)
        t = 0.5
        bad = dom.faces[0].sample_ambient_points(random.Random(7), 4)[2]
        twist = twist_flow()

        def fn(z):
            hit = ((abs(dual.real(z[0]) - 0.81 * t) < 1e-12)
                   & (abs(dual.real(z[1]) - bad[0]) < 1e-12)
                   & (abs(dual.real(z[2]) - bad[1]) < 1e-12))
            return [dual.where(hit, math.nan, 1.0) * v for v in twist.fn(z)]

        p = random_pair(dom, 1, rng)
        eta = random_polynomial_form(2, 1, rng)
        homotopy_TI(twist, t, p, eta.d(), dom)
        with pytest.raises(HomotopyError) as err:
            homotopy_TI(SmoothMap(3, 2, fn), t, p, eta.d(), dom)
        assert str(err.value) == "flow leaves the boundary at s=0.405: defect nan"

    def test_missing_defect_raises(self):
        rng = random.Random(141)
        bare = RelativeDomain(ChartDomain.ball(2, order=8))
        p = random_pair(bare, 1, rng)
        with pytest.raises(ChartError):
            homotopy_TI(twist_flow(), 0.5, p, random_polynomial_form(2, 2, rng), bare)

    def test_degree_guard(self):
        rng = random.Random(142)
        dom = disk_domain(order=8)
        p = random_pair(dom, 1, rng)
        with pytest.raises(DegreeError):
            homotopy_TI(twist_flow(), 0.5, p, random_polynomial_form(2, 0, rng), dom)


def doubling_section(x):
    return [x[0] * x[0] - x[1] * x[1] - 0.25, 2.0 * x[0] * x[1]]


class TestSignedZeroCount:
    def test_identity_section(self):
        total, zeros = signed_zero_count(lambda x: [x[0], x[1]],
                                         ChartDomain.ball(2, order=8))
        assert total == 1
        assert len(zeros) == 1
        assert max_abs(zeros[0][0]) <= 1e-9

    def test_reflection_section(self):
        total, _ = signed_zero_count(lambda x: [x[0], -x[1]],
                                     ChartDomain.ball(2, order=8))
        assert total == -1

    def test_doubling_section_grid_and_explicit(self):
        B = ChartDomain.ball(2, order=8)
        total, zeros = signed_zero_count(doubling_section, B)
        assert total == 2
        assert sorted(round(z[0], 6) for z, _ in zeros) == [-0.5, 0.5]
        explicit, _ = signed_zero_count(doubling_section, B,
                                        zeros=[[0.5, 0.0], [-0.5, 0.0]])
        assert explicit == 2

    def test_positive_rescaling_invariance(self):
        B = ChartDomain.ball(2, order=8)
        scaled, zeros = signed_zero_count(
            lambda x: [3.0 * v for v in doubling_section(x)], B)
        assert scaled == 2
        assert all(s == 1 for _, s in zeros)

    def test_degenerate_zero_raises(self):
        with pytest.raises(TransversalityError):
            signed_zero_count(lambda x: [x[0] * x[0], x[1]],
                              ChartDomain.ball(2, order=8), zeros=[[0.0, 0.0]])

    def test_boundary_zero_raises(self):
        with pytest.raises(BoundaryZeroError):
            signed_zero_count(lambda x: [x[0] - 1.0, x[1]],
                              ChartDomain.ball(2, order=8), zeros=[[1.0, 0.0]])

    def test_unsupported_chart_raises(self):
        with pytest.raises(ChartError):
            signed_zero_count(lambda x: [x[0], x[1]], ChartDomain.sphere(3))

    def test_box_and_annulus_membership(self):
        box = ChartDomain.box("sq", [(-1.0, 1.0), (-1.0, 1.0)], [4, 4])
        total, _ = signed_zero_count(lambda x: [x[0] - 0.2, x[1] + 0.1], box)
        assert total == 1
        ring = ChartDomain.annulus(0.25, 1.0, order=8)
        total, zeros = signed_zero_count(doubling_section, ring)
        assert total == 2 and len(zeros) == 2

    @pytest.mark.parametrize("section,expected", [
        (lambda x: [x[0], x[1]], 1),
        (lambda x: [x[0], -x[1]], -1),
        (doubling_section, 2),
    ])
    def test_winding_oracle_agrees(self, section, expected):
        B = ChartDomain.ball(2, order=40)
        total, _ = signed_zero_count(section, B)
        assert total == expected
        assert abs(boundary_winding(section, B) - expected) <= 1e-6


def scalar_newton(smap: SmoothMap, x0):
    """Per-start oracle: damped Newton on one float point, None if it stalls."""
    x = np.asarray(x0, dtype=float)
    fx = np.asarray(smap(list(x)), dtype=float)
    for _ in range(60):
        nrm = float(np.linalg.norm(fx))
        if nrm < 1e-12:
            return x
        J = np.asarray(smap.jacobian(list(x))[1], dtype=float)
        try:
            step = np.linalg.solve(J, -fx)
        except np.linalg.LinAlgError:
            return None
        lam = 1.0
        for _ in range(30):
            xn = x + lam * step
            fn = np.asarray(smap(list(xn)), dtype=float)
            if float(np.linalg.norm(fn)) < nrm:
                break
            lam *= 0.5
        else:
            return None
        x, fx = xn, fn
    return None


def grid_starts(B: ChartDomain) -> list:
    """The 7-per-axis reference grid, embedded one float point at a time."""
    emb = B.embedding()
    axes = [[lo + (hi - lo) * (i + 0.5) / 7 for i in range(7)] for lo, hi in B.bounds]
    return [emb(list(p)) for p in itertools.product(*axes)]


def oracle_zeros(section, B: ChartDomain) -> list:
    """Distinct interior zeros of the per-start loop over the grid, in start order."""
    smap = SmoothMap(2, 2, section)
    inside, _ = relative._membership(B)
    found = []
    for x0 in grid_starts(B):
        z = scalar_newton(smap, x0)
        if z is None or any(float(np.sum((z - w) ** 2)) < 1e-12 for w in found):
            continue
        if inside(list(z)):
            found.append(z)
    return found


ZERO_CHARTS = {
    "ball": lambda: ChartDomain.ball(2, order=8),
    "annulus": lambda: ChartDomain.annulus(0.25, 1.0, order=8),
    "box": lambda: ChartDomain.box("sq", [(-1.0, 1.0)] * 2, [4, 4]),
}

# the three sections of the zero-set-duality scenario ("square" is
# doubling_section), doubling_section rescaled, and a cubic whose full
# Newton step overshoots from starts near its turning points: the line
# search halves there, and which zero a start reaches depends on it
ZERO_SECTIONS = {
    "identity": lambda x: [x[0], x[1]],
    "conjugate": lambda x: [x[0], -x[1]],
    "square": doubling_section,
    "doubling-times-3": lambda x: [3.0 * v for v in doubling_section(x)],
    "damped": lambda x: [4.0 * x[0] ** 3 - x[0] + 0.1 * x[1], x[1] - 0.2 * x[0]],
}


class TestBlockNewton:
    """``relative._newton`` runs every start as one block; the oracle runs
    the same damped Newton loop one float start at a time."""

    @pytest.mark.parametrize("section", sorted(ZERO_SECTIONS))
    @pytest.mark.parametrize("chart", sorted(ZERO_CHARTS))
    def test_matches_per_start_loop(self, chart, section, monkeypatch):
        B = ZERO_CHARTS[chart]()
        smap = SmoothMap(2, 2, ZERO_SECTIONS[section])
        starts = grid_starts(B)
        points, converged = relative._newton(smap, starts)
        for x0, z, ok in zip(starts, points, converged):
            want = scalar_newton(smap, x0)
            assert ok == (want is not None), x0
            if ok:
                assert float(np.max(np.abs(z - want))) <= 1e-12, x0
        passed = []
        newton = relative._newton

        def recorded(smap, block):
            passed.append(block)
            return newton(smap, block)

        monkeypatch.setattr(relative, "_newton", recorded)
        _, zeros = signed_zero_count(ZERO_SECTIONS[section], B)
        # the grid reaches Newton as one block, in the oracle's start order
        assert len(passed) == 1
        assert float(np.max(np.abs(passed[0] - np.array(starts)))) <= 1e-15
        want = oracle_zeros(ZERO_SECTIONS[section], B)
        assert len(zeros) == len(want)
        for (z, _), w in zip(zeros, want):
            assert float(np.max(np.abs(np.array(z) - w))) <= 1e-12

    def test_singular_jacobian_drops_only_its_start(self):
        # ds = diag(2 x0, 1) is exactly singular on the grid column x0 = 0
        box = ZERO_CHARTS["box"]()
        smap = SmoothMap(2, 2, lambda x: [x[0] * x[0] - 0.04, x[1]])
        starts = grid_starts(box)
        singular = [i for i, x0 in enumerate(starts) if x0[0] == 0.0]
        assert len(singular) == 7
        with pytest.raises(np.linalg.LinAlgError):
            np.linalg.solve(np.array([smap.jacobian(x0)[1] for x0 in starts]),
                            np.ones((len(starts), 2, 1)))
        points, converged = relative._newton(smap, starts)
        assert np.flatnonzero(~converged).tolist() == singular
        assert all(scalar_newton(smap, starts[i]) is None for i in singular)
        total, zeros = signed_zero_count(smap.fn, box)
        assert total == 0
        assert sorted(round(z[0], 9) for z, _ in zeros) == [-0.2, 0.2]

    def test_nan_starts_drop_without_raising(self):
        def section(x):
            bad = dual.where(dual.real(x[0]) > 0.6, math.nan, 1.0)
            return [(x[0] - 0.1) * bad, x[1] * bad]

        box = ZERO_CHARTS["box"]()
        smap = SmoothMap(2, 2, section)
        starts = grid_starts(box)
        nan_rows = [i for i, x0 in enumerate(starts) if x0[0] > 0.6]
        assert len(nan_rows) == 7
        points, converged = relative._newton(smap, starts)
        assert np.flatnonzero(~converged).tolist() == nan_rows
        assert all(scalar_newton(smap, starts[i]) is None for i in nan_rows)
        total, zeros = signed_zero_count(section, box)
        assert total == 1
        assert max_abs([zeros[0][0][0] - 0.1, zeros[0][0][1]]) <= 1e-12
