import math
import random

import numpy as np
import pytest

from cgbv import chern_weil, dual
from cgbv.chern_weil import (Connection, connection_path, gauge_pullback_potential,
                             gauge_residual, loop_transgression,
                             pf_form, pfaffian, secondary_transgression,
                             simplex_family, symmetry_check, transgression,
                             transgression_forms_of_family)
from cgbv.errors import (ConsistencyError, DegreeError, ShapeError,
                         SymmetryPreconditionError)
from cgbv.forms import Form, MatrixForm, SmoothMap, det
from cgbv.geometry import ChartDomain, FiberBundleDomain, gauss_nodes
from skew_oracle import random_skew

TWO_PI = 2.0 * math.pi


def round_sphere_connection() -> Connection:
    def A_eval(x):
        c = -dual.cos(x[0])
        return [[[0.0, 0.0], [0.0, c]], [[0.0, -c], [0.0, 0.0]]]

    return Connection(2, MatrixForm(2, 1, 2, A_eval), "round-s2")


def polar_sphere_chart(order: int = 24) -> ChartDomain:
    return ChartDomain.box("s2-polar", [(0.0, math.pi), (0.0, TWO_PI)],
                           [order, order])


class TestPfaffian:
    def test_two_by_two_definition(self):
        M = MatrixForm(2, 2, 2, lambda x: [[[0.0], [3.0]], [[-3.0], [0.0]]])
        assert pfaffian(M)([0.1, 0.2]) == [3.0]

    def test_block_multiplicativity(self):
        # diag(J(a), J(b)) with a = 2 dx0^dx1, b = 5 dx2^dx3 on R^4
        def entries(x):
            z = [0.0] * 6
            a = [2.0, 0.0, 0.0, 0.0, 0.0, 0.0]
            b = [0.0, 0.0, 0.0, 0.0, 0.0, 5.0]
            na = [-v for v in a]
            nb = [-v for v in b]
            return [[z, a, z, z], [na, z, z, z], [z, z, z, b], [z, z, nb, z]]

        pf = pfaffian(MatrixForm(4, 2, 4, entries))
        # a^b = 10 dx0^dx1^dx2^dx3
        assert pf([0.0] * 4) == [10.0]

    def test_square_is_determinant(self):
        rng = random.Random(7)
        for _ in range(20):
            vals = [[0.0] * 4 for _ in range(4)]
            for i in range(4):
                for j in range(i + 1, 4):
                    vals[i][j] = rng.uniform(-2.0, 2.0)
                    vals[j][i] = -vals[i][j]
            M = MatrixForm(1, 0, 4, lambda x, v=vals: [[[v[i][j]] for j in range(4)]
                                                       for i in range(4)])
            pf = pfaffian(M)([0.0])[0]
            assert pf * pf == pytest.approx(det(vals), abs=1e-10)

    def test_odd_size_rejected(self):
        with pytest.raises(ShapeError):
            pfaffian(MatrixForm.zero(2, 2, 3))

    def test_odd_degree_rejected(self):
        with pytest.raises(DegreeError):
            pfaffian(MatrixForm.zero(2, 1, 2))


class TestCurvature:
    def test_flat(self):
        F = Connection.flat(2, 3).curvature()
        assert all(v == 0.0 for row in F.eval([0.1, 0.2, 0.3]) for e in row for v in e)

    def test_abelian_curvature_is_dA(self):
        rng = random.Random(1)
        conn = random_skew(2, 2, rng)
        F = conn.curvature()
        dA = conn.A.d()
        for _ in range(10):
            x = [rng.uniform(-1, 1), rng.uniform(-1, 1)]
            a, b = F.eval(x), dA.eval(x)
            worst = max(abs(p - q) for r1, r2 in zip(a, b)
                        for e1, e2 in zip(r1, r2) for p, q in zip(e1, e2))
            assert worst < 1e-12

    def test_equals_d_plus_wedge_bit_for_bit(self):
        # A and dA from one lifted pass, whose value slots are the plain values
        conn = random_skew(3, 4, random.Random(3))
        for x in ([0.2, -0.4, 0.7],
                  [np.array([0.2, 0.5]), np.array([-0.4, 0.1]), np.array([0.7, -0.3])]):
            got = conn.curvature().eval(x)
            want = (conn.A.d() + conn.A.wedge(conn.A)).eval(x)
            assert all(np.array_equal(a, b) for r1, r2 in zip(got, want)
                       for e1, e2 in zip(r1, r2) for a, b in zip(e1, e2))

    def test_round_sphere_curvature(self):
        F = round_sphere_connection().curvature()
        for th, ph in [(0.7, 1.3), (1.1, 4.0), (2.5, 0.2)]:
            F12 = F.eval([th, ph])[0][1]
            assert F12[0] == pytest.approx(math.sin(th), abs=1e-12)

    def test_curvature_skew(self):
        rng = random.Random(2)
        conn = random_skew(2, 4, rng)
        F = conn.curvature()
        x = [0.3, -0.5]
        A = F.eval(x)
        for i in range(4):
            for j in range(4):
                for a, b in zip(A[i][j], A[j][i]):
                    assert abs(a + b) < 1e-12


class TestPfForm:
    def test_flat_vanishes(self):
        pf = pf_form(Connection.flat(2, 2))
        assert all(v == 0.0 for v in pf([0.2, 0.4]))

    def test_closedness(self):
        rng = random.Random(3)
        for conn in (random_skew(2, 2, rng),
                     random_skew(3, 4, rng),
                     round_sphere_connection()):
            dpf = pf_form(conn).d()
            pts = [[rng.uniform(0.2, 1.0) for _ in range(conn.n)] for _ in range(100)]
            worst = max(max((abs(v) for v in dpf(x)), default=0.0) for x in pts)
            assert worst < 1e-9

    def test_sphere_integral_is_two(self):
        val = polar_sphere_chart(24).integrate(pf_form(round_sphere_connection()))
        assert val == pytest.approx(2.0, abs=1e-8)

    def test_sphere_integral_requadrature(self):
        # the orthonormal-frame potential is radius-independent; the integral
        # must survive re-quadrature at a different order
        val = polar_sphere_chart(16).integrate(pf_form(round_sphere_connection()))
        assert val == pytest.approx(2.0, abs=1e-8)


class TestTransgression:
    def test_same_connection_vanishes(self):
        rng = random.Random(4)
        conn = random_skew(2, 2, rng)
        T = transgression(conn, conn)
        assert all(abs(v) < 1e-14 for v in T([0.3, 0.1]))

    @pytest.mark.parametrize("n,m", [(2, 2), (4, 4)])
    def test_differential_law(self, n, m):
        rng = random.Random(100 + m)
        c1 = random_skew(n, m, rng)
        c2 = random_skew(n, m, rng)
        dT = transgression(c1, c2).d()
        pf1, pf2 = pf_form(c1), pf_form(c2)
        for _ in range(100):
            x = [rng.uniform(-1, 1) for _ in range(n)]
            lhs = dT(x)
            rhs = [b - a for a, b in zip(pf1(x), pf2(x))]
            assert max(abs(a - b) for a, b in zip(lhs, rhs)) < 1e-7

    def test_degenerate_degree_is_zero(self):
        # rank 4 over a 2-dimensional chart: degree 3 form has no components
        rng = random.Random(5)
        c1 = random_skew(2, 4, rng)
        c2 = random_skew(2, 4, rng)
        T = transgression(c1, c2)
        assert T([0.1, 0.2]) == []
        assert all(abs(v) < 1e-15 for v in T.d()([0.1, 0.2]))

    # rank 4 puts a curvature factor into T; rank 2 has none; rank 6 puts
    # two and runs the node loop of the kernel's exact rule
    @pytest.mark.parametrize("n,m,t_order", [(2, 2, 16), (3, 4, 8), (5, 6, 4)])
    def test_generic_cylinder_route_agrees(self, n, m, t_order):
        rng = random.Random(6)
        c1 = random_skew(n, m, rng)
        c2 = random_skew(n, m, rng)
        fast = transgression(c1, c2)
        base = ChartDomain.box("b", [(-1.0, 1.0)] * n, [4] * n)
        generic = transgression_forms_of_family(connection_path(c1, c2), base,
                                                t_order=t_order)
        for _ in range(10):
            x = [rng.uniform(-1, 1) for _ in range(n)]
            assert max(abs(a - b) for a, b in zip(fast(x), generic(x))) < 1e-12

    def test_path_endpoints(self):
        rng = random.Random(7)
        c1 = random_skew(2, 2, rng)
        c2 = random_skew(2, 2, rng)
        path = connection_path(c1, c2)
        x = [0.4, -0.2]
        for t, ref in ((0.0, c1), (1.0, c2)):
            got = path.A.eval([t] + x)
            want = ref.A.eval(x)
            for i in range(2):
                for j in range(2):
                    assert got[i][j][0] == pytest.approx(0.0, abs=1e-15)
                    for a, b in zip(got[i][j][1:], want[i][j]):
                        assert a == pytest.approx(b, abs=1e-15)

    def test_antisymmetry_on_closed_cycles(self):
        # TPf(1,2) + TPf(2,1) is exact, so it integrates to zero over the
        # boundary circles of an annulus
        rng = random.Random(8)
        c1 = random_skew(2, 2, rng)
        c2 = random_skew(2, 2, rng)
        s = transgression(c1, c2) + transgression(c2, c1)
        annulus = ChartDomain.annulus(0.5, 1.5, order=20)
        for cycle in annulus.boundary_faces():
            assert abs(cycle.integrate(s)) < 1e-7

    def test_rank_mismatch(self):
        with pytest.raises(ShapeError):
            transgression(Connection.flat(2, 2), Connection.flat(4, 2))


class TestSecondaryTransgression:
    def test_constant_family_vanishes(self):
        rng = random.Random(9)
        c = random_skew(1, 2, rng)
        Q = secondary_transgression(c, c, c)
        assert all(abs(v) < 1e-14 for v in Q([0.3]))

    @pytest.mark.parametrize("n", [1, 2])
    def test_sum_rule(self, n):
        rng = random.Random(10 + n)
        cs = [random_skew(n, 2, rng) for _ in range(3)]
        dQ = secondary_transgression(*cs).d()
        t12 = transgression(cs[0], cs[1])
        t23 = transgression(cs[1], cs[2])
        t31 = transgression(cs[2], cs[0])
        for _ in range(100):
            x = [rng.uniform(-1, 1) for _ in range(n)]
            lhs = [-v for v in dQ(x)]
            rhs = [a + b + c for a, b, c in zip(t12(x), t23(x), t31(x))]
            assert max(abs(a - b) for a, b in zip(lhs, rhs)) < 1e-6

    def test_sum_rule_rank4(self):
        rng = random.Random(13)
        cs = [random_skew(3, 4, rng) for _ in range(3)]
        dQ = secondary_transgression(*cs).d()
        ts = [transgression(cs[0], cs[1]), transgression(cs[1], cs[2]),
              transgression(cs[2], cs[0])]
        x = [0.3, -0.4, 0.2]
        lhs = [-v for v in dQ(x)]
        rhs = [a + b + c for a, b, c in zip(*(t(x) for t in ts))]
        assert max(abs(a - b) for a, b in zip(lhs, rhs)) < 1e-6

    def test_edge_restriction_matches_paths(self):
        # edges of the parameter triangle: (s,0), (1-u,u), (0,1-u)
        rng = random.Random(11)
        cs = [random_skew(2, 2, rng) for _ in range(3)]
        fam = simplex_family(*cs)
        paths = [connection_path(cs[0], cs[1]), connection_path(cs[1], cs[2]),
                 connection_path(cs[2], cs[0])]
        edges = [lambda u: (u, 0.0), lambda u: (1.0 - u, u), lambda u: (0.0, 1.0 - u)]
        for edge, path in zip(edges, paths):
            for u in (0.0, 0.25, 0.7, 1.0):
                s, t = edge(u)
                x = [rng.uniform(-1, 1), rng.uniform(-1, 1)]
                got = fam.A.eval([s, t] + x)
                want = path.A.eval([u] + x)
                for i in range(2):
                    for j in range(2):
                        # compare base-direction coefficients
                        for a, b in zip(got[i][j][2:], want[i][j][1:]):
                            assert a == pytest.approx(b, abs=1e-8)

    # at rank 2 the secondary vanishes identically; ranks 4 and 6 do not
    @pytest.mark.parametrize("n,m,t_order", [(2, 2, 16), (3, 4, 8), (5, 6, 4)])
    def test_generic_simplex_route_agrees(self, n, m, t_order):
        rng = random.Random(12)
        cs = [random_skew(n, m, rng) for _ in range(3)]
        fast = secondary_transgression(*cs)
        base = ChartDomain.box("b", [(-1.0, 1.0)] * n, [4] * n)
        generic = transgression_forms_of_family(simplex_family(*cs), base,
                                                t_order=t_order)
        for _ in range(5):
            x = [rng.uniform(-1, 1) for _ in range(n)]
            assert max(abs(a - b) for a, b in zip(fast(x), generic(x))) < 1e-10


class TestExactSimplexRule:
    """The kernel integrates its degree 2(k - q) integrand with k - q + 1
    Gauss nodes per simplex axis unless an order is given."""

    @staticmethod
    def build(kind, n, m, rng, order=None):
        if kind == "path":
            c1, c2 = (random_skew(n, m, rng) for _ in range(2))
            return transgression(c1, c2, t_order=order)
        cs = [random_skew(n, m, rng) for _ in range(3)]
        return secondary_transgression(*cs, order=order)

    @staticmethod
    def recorded_orders(monkeypatch, build):
        orders = []

        def recording(order, lo, hi):
            orders.append(order)
            return gauss_nodes(order, lo, hi)

        monkeypatch.setattr(chern_weil, "gauss_nodes", recording)
        build()
        return orders

    @pytest.mark.parametrize("kind,n,m,order", [
        ("path", 2, 2, 1), ("path", 3, 4, 2), ("triangle", 3, 4, 1),
        ("path", 5, 6, 3), ("triangle", 5, 6, 2)])
    def test_node_count_follows_rank(self, monkeypatch, kind, n, m, order):
        rng = random.Random(15)
        got = self.recorded_orders(monkeypatch, lambda: self.build(kind, n, m, rng))
        assert got == [order]

    @pytest.mark.parametrize("kind", ["path", "triangle"])
    def test_explicit_order_is_honoured(self, monkeypatch, kind):
        rng = random.Random(16)
        got = self.recorded_orders(monkeypatch,
                                   lambda: self.build(kind, 3, 4, rng, order=12))
        assert got == [12]

    @pytest.mark.parametrize("kind,n,m", [
        ("path", 2, 2), ("path", 3, 4), ("triangle", 3, 4)])
    def test_affine_integrand_takes_one_pseudo_node(self, monkeypatch, kind, n, m):
        # with k - q <= 1 a node's block is affine in its weights, so the
        # order-12 rule costs what the exact rule costs and gives its values
        calls = []
        for name in ("wedge_coeffs", "_wedges"):
            fn = getattr(chern_weil, name)
            monkeypatch.setattr(chern_weil, name,
                                lambda *a, fn=fn: calls.append(1) or fn(*a))
        x = [0.3, -0.4, 0.7][:n]
        counts, values = [], []
        for order in (None, 12):
            form = self.build(kind, n, m, random.Random(19), order=order)
            calls.clear()
            values.append(form(x))
            counts.append(len(calls))
        assert counts[0] == counts[1]
        assert max(abs(a - b) for a, b in zip(*values)) <= 1e-15

    @pytest.mark.parametrize("kind,dense", [("path", 16), ("triangle", 12)])
    def test_rank6_exact_rule_matches_a_dense_rule(self, kind, dense):
        exact = self.build(kind, 5, 6, random.Random(17))
        ref = self.build(kind, 5, 6, random.Random(17), order=dense)
        rng = random.Random(18)
        for _ in range(3):
            x = [rng.uniform(-1, 1) for _ in range(5)]
            assert max(abs(a - b) for a, b in zip(exact(x), ref(x))) <= 1e-14

    def test_tetrahedron_has_no_rule(self):
        # four rank-6 vertices on R^4: q = 3 <= k, so the kernel needs a rule
        # on the 3-simplex, which it does not have
        rng = random.Random(20)
        cs = [random_skew(4, 6, rng) for _ in range(4)]
        with pytest.raises(ShapeError, match="3-simplex"):
            chern_weil._simplex_transgression(cs, None)

    def test_rank6_one_node_fewer_is_not_exact(self):
        short = self.build("path", 5, 6, random.Random(17), order=2)
        exact = self.build("path", 5, 6, random.Random(17))
        rng = random.Random(18)
        gaps = []
        for _ in range(3):
            x = [rng.uniform(-1, 1) for _ in range(5)]
            gaps += [abs(a - b) for a, b in zip(short(x), exact(x))]
        assert max(gaps) > 1e-3


def _loop_pair(rng: random.Random, reparam=None):
    """Random loop A + cos(2 pi t) B + sin(2 pi t) C and its disk extension."""
    mats = []
    for _ in range(3):
        entries = [[0.0, rng.uniform(-1.0, 1.0)], [0.0, 0.0]]
        entries[1][0] = -entries[0][1]
        mats.append(entries)
    A, B, C = mats

    def loop_eval(tx):
        t = tx[0]
        if reparam is not None:
            t = reparam(t)
        c, s = dual.cos(TWO_PI * t), dual.sin(TWO_PI * t)
        x = tx[1]
        out = [[[0.0, 0.0], [0.0, 0.0]], [[0.0, 0.0], [0.0, 0.0]]]
        for i in range(2):
            for j in range(2):
                val = (A[i][j] + c * B[i][j] + s * C[i][j]) * (1.0 + 0.3 * x)
                out[i][j] = [0.0, val]
        return out

    def ext_eval(zx):
        z1, z2, x = zx[0], zx[1], zx[2]
        out = [[[0.0, 0.0, 0.0], [0.0, 0.0, 0.0]], [[0.0, 0.0, 0.0], [0.0, 0.0, 0.0]]]
        for i in range(2):
            for j in range(2):
                val = (A[i][j] + z1 * B[i][j] + z2 * C[i][j]) * (1.0 + 0.3 * x)
                out[i][j] = [0.0, 0.0, val]
        return out

    loop = Connection(2, MatrixForm(2, 1, 2, loop_eval), "loop")
    ext = Connection(2, MatrixForm(3, 1, 2, ext_eval), "ext")
    return loop, ext


class TestLoopTransgression:
    def test_constant_loop(self):
        base = ChartDomain.interval("x", -1.0, 1.0, 8)
        conn = Connection.flat(2, 2)
        ext = Connection.flat(2, 3)
        T, P = loop_transgression(conn, ext, base)
        assert all(abs(v) < 1e-14 for v in T([0.3]))
        assert all(abs(v) < 1e-14 for v in P([0.3]))

    def test_random_loop_exactness(self):
        rng = random.Random(14)
        base = ChartDomain.interval("x", -1.0, 1.0, 8)
        loop, ext = _loop_pair(rng)
        T, P = loop_transgression(loop, ext, base)
        dP = P.d()
        for x in (-0.7, -0.2, 0.4, 0.9):
            lhs = dP([x])
            rhs = [-v for v in T([x])]
            assert max(abs(a - b) for a, b in zip(lhs, rhs)) < 1e-6

    def test_forward_back_cancellation(self):
        # reparametrized by sin^2(pi t): runs the same path out and back
        rng = random.Random(15)
        base = ChartDomain.interval("x", -1.0, 1.0, 8)

        def out_and_back(t):
            return dual.sin(math.pi * t) ** 2

        loop, _ = _loop_pair(rng, reparam=out_and_back)
        fiber = ChartDomain.interval("t", 0.0, 1.0, 32)
        T = FiberBundleDomain(fiber, base).fiber_integrate(pf_form(loop))
        assert all(abs(v) < 1e-8 for v in T([0.4]))

    def test_boundary_mismatch_raises(self):
        rng = random.Random(16)
        base = ChartDomain.interval("x", -1.0, 1.0, 8)
        loop, _ = _loop_pair(rng)
        bad_ext = Connection.flat(2, 3)
        with pytest.raises(ConsistencyError):
            loop_transgression(loop, bad_ext, base)


def _random_polynomial_map(src: int, dst: int, rng: random.Random) -> SmoothMap:
    coefs = [[rng.uniform(-0.4, 0.4) for _ in range(src + 1)] for _ in range(dst)]

    def fn(u):
        out = []
        for row in coefs:
            val = row[0]
            for j in range(src):
                val = val + row[j + 1] * u[j]
            out.append(val)
        return out

    return SmoothMap(src, dst, fn)


def _edge_maps():
    """Counterclockwise boundary edges of the parameter triangle."""
    return [SmoothMap(1, 2, lambda u: [u[0], 0.0]),
            SmoothMap(1, 2, lambda u: [1.0 - u[0], u[0]]),
            SmoothMap(1, 2, lambda u: [0.0, 1.0 - u[0]])]


class TestHomotopyLemma:
    """Simplex-parameter Stokes law for pulled-back forms.

    integral_simplex H*(dw) + (-1)^(m-1) d integral_simplex H*(w)
        = integral_boundary H*(w), for m in {1, 2}.
    """

    @pytest.mark.parametrize("m", [1, 2])
    def test_simplex_homotopy_formula(self, m):
        from test_forms import random_polynomial_form
        rng = random.Random(20 + m)
        nb, n_dst = 2, 3
        base = ChartDomain.box("b", [(-1.0, 1.0), (-1.0, 1.0)], [6, 6])
        if m == 1:
            fiber = ChartDomain.interval("t", 0.0, 1.0, 12)
        else:
            duffy = SmoothMap(2, 2, lambda uv: [uv[0] * (1.0 - uv[1]), uv[0] * uv[1]])
            fiber = ChartDomain.box("simplex", [(0.0, 1.0), (0.0, 1.0)], [12, 12],
                                    embed=duffy)
        bundle = FiberBundleDomain(fiber, base)
        for trial in range(5):
            H = _random_polynomial_map(m + nb, n_dst, rng)
            w = random_polynomial_form(n_dst, m, rng)
            lhs1 = bundle.fiber_integrate(w.d().pullback(H))
            sign = 1.0 if (m - 1) % 2 == 0 else -1.0
            lhs2 = bundle.fiber_integrate(w.pullback(H)).d()
            if m == 1:
                # boundary of the interval: endpoint slices
                def slice_map(t):
                    return SmoothMap(nb, m + nb, lambda x, tv=t: [tv] + list(x))
                rhs = (w.pullback(H.compose(slice_map(1.0)))
                       - w.pullback(H.compose(slice_map(0.0))))
            else:
                rhs = None
                for edge in _edge_maps():
                    def edge_total(x, e=edge):
                        return list(e([x[0]])) + list(x[1:])
                    lift = SmoothMap(1 + nb, 2 + nb, edge_total)
                    efiber = ChartDomain.interval("u", 0.0, 1.0, 12)
                    term = FiberBundleDomain(efiber, base).fiber_integrate(
                        w.pullback(H.compose(lift)))
                    rhs = term if rhs is None else rhs + term
            for _ in range(5):
                x = [rng.uniform(-1, 1), rng.uniform(-1, 1)]
                l1, l2, r = lhs1(x), lhs2(x), rhs(x)
                resid = max(abs(a + sign * b - c) for a, b, c in zip(l1, l2, r))
                assert resid < 1e-6


class TestSymmetry:
    def test_rotation_invariance_on_sphere(self):
        conn = round_sphere_connection()
        pf = pf_form(conn)
        rot = SmoothMap(2, 2, lambda x: [x[0], x[1] + 0.7])
        eye = [[1.0, 0.0], [0.0, 1.0]]
        pts = [[0.5, 1.0], [1.2, 2.0], [2.0, 5.5], [0.9, 0.3]]
        assert symmetry_check(pf, conn, rot, eye, pts) < 1e-8

    def test_identity_isomorphism(self):
        rng = random.Random(21)
        conn = random_skew(2, 2, rng)
        pf = pf_form(conn)
        ident = SmoothMap.identity(2)
        eye = [[1.0, 0.0], [0.0, 1.0]]
        pts = [[0.2, -0.4], [0.5, 0.8]]
        assert symmetry_check(pf, conn, ident, eye, pts) < 1e-14

    def test_precondition_violation_raises(self):
        conn = round_sphere_connection()
        pf = pf_form(conn)
        rot = SmoothMap(2, 2, lambda x: [x[0], x[1] + 0.7])
        flip = [[1.0, 0.0], [0.0, -1.0]]  # conjugation negates the potential
        with pytest.raises(SymmetryPreconditionError):
            symmetry_check(pf, conn, rot, flip, [[0.5, 1.0]])

    def test_nan_after_finite_sample_is_not_swallowed(self):
        # finite at the first sample point, NaN at the second: a running
        # max(worst, v) would report 0.0 here
        conn = round_sphere_connection()
        form = Form(2, 2, lambda x: [dual.where(dual.real(x[0]) > 1.0, math.nan, 1.0)])
        rot = SmoothMap(2, 2, lambda x: [x[0], x[1] + 0.7])
        eye = [[1.0, 0.0], [0.0, 1.0]]
        pts = [[0.5, 1.0], [1.2, 2.0]]
        assert not math.isfinite(symmetry_check(form, conn, rot, eye, pts))

    def test_gauge_map_from_a_smaller_chart_is_refused(self):
        # the pullback along R^3 -> R^4 has no dx_3 coefficient; pairing its
        # coefficient lists with the potential's would drop that slot
        conn = Connection.flat(2, 4)
        phi = SmoothMap(3, 4, lambda x: [x[0], x[1], x[2], 0.0])
        eye = [[1.0, 0.0], [0.0, 1.0]]
        assert gauge_pullback_potential(conn, phi, eye).n == 3
        with pytest.raises(ShapeError):
            gauge_residual(conn, phi, eye, [[0.1, 0.2, 0.3]])

    def test_nan_connection_fails_precondition(self):
        good = round_sphere_connection()

        def A_eval(x):
            bad = dual.real(x[0]) > 1.0
            return [[[dual.where(bad, math.nan, c) for c in entry] for entry in row]
                    for row in good.A.eval(x)]

        conn = Connection(2, MatrixForm(2, 1, 2, A_eval), "poisoned")
        pf = pf_form(good)
        rot = SmoothMap(2, 2, lambda x: [x[0], x[1] + 0.7])
        eye = [[1.0, 0.0], [0.0, 1.0]]
        with pytest.raises(SymmetryPreconditionError):
            symmetry_check(pf, conn, rot, eye, [[0.5, 1.0], [1.2, 2.0]])
