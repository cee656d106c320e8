import math
import random

import numpy as np
import pytest

from cgbv import dual
from cgbv.bundles import (AssociatedBundles, ODD_REGISTRY, OddRankTriple,
                          POLYNOMIAL_BASIS, REGISTRY, Subbundle,
                          TrivializedBundle, frame_split_connection,
                          make_bundle, point_base, projected_connection,
                          random_skew_connection, rank_extension,
                          section_splitting_connection, section_transgression,
                          stereographic, stereographic_total, total_connection)
from cgbv.chern_weil import Connection, transgression
from cgbv.errors import (ChartError, NonFiniteError, ProjectorError, RankError,
                         ShapeError, VanishingSectionError)
from cgbv.forms import MatrixForm, SmoothMap, as_block, form_sup, is_zero
from cgbv.geometry import ChartDomain
from skew_oracle import random_skew

TWO_PI = 2.0 * math.pi


def max_entry(A) -> float:
    return max((abs(v) for row in A for e in row for v in e), default=0.0)


def mat_diff(A, B) -> float:
    return max(abs(a - b) for r1, r2 in zip(A, B)
               for e1, e2 in zip(r1, r2) for a, b in zip(e1, e2))


class TestProjectedConnection:
    def test_circle_line_potential(self):
        # projecting the flat plane bundle over S^1 onto the rotating line
        # span(cos, sin) gives exactly the angular potential J dpsi
        conn = Connection.flat(2, 1)
        sub = Subbundle(2, lambda x: [
            [dual.cos(x[0]) ** 2, dual.cos(x[0]) * dual.sin(x[0])],
            [dual.cos(x[0]) * dual.sin(x[0]), dual.sin(x[0]) ** 2]])
        split = projected_connection(conn, sub)
        for psi in (0.0, 0.4, 1.9, 4.4):
            A = split.A.eval([psi])
            assert A[0][0][0] == pytest.approx(0.0, abs=1e-12)
            assert A[1][1][0] == pytest.approx(0.0, abs=1e-12)
            assert A[0][1][0] == pytest.approx(1.0, abs=1e-12)
            assert A[1][0][0] == pytest.approx(-1.0, abs=1e-12)

    def test_identity_projector_returns_connection(self):
        conn = random_skew(2, 2, random.Random(30))
        eye = Subbundle(2, lambda x: [[1.0, 0.0], [0.0, 1.0]])
        out = projected_connection(conn, eye)
        for x in ([0.3, 0.1], [-0.5, 0.9]):
            assert mat_diff(out.A.eval(x), conn.A.eval(x)) < 1e-12

    def test_constant_projector_on_flat_is_flat(self):
        conn = Connection.flat(3, 2)
        sub = Subbundle(3, lambda x: [[1.0, 0.0, 0.0], [0.0, 1.0, 0.0],
                                      [0.0, 0.0, 0.0]])
        out = projected_connection(conn, sub)
        assert max_entry(out.A.eval([0.2, -0.7])) == 0.0

    def test_projector_defect_raises(self):
        conn = Connection.flat(2, 1)
        bad = Subbundle(2, lambda x: [[0.9, 0.0], [0.0, 0.0]], "bad")
        with pytest.raises(ProjectorError):
            bad.check([[0.0]])

    def test_nan_after_finite_point_raises(self):
        def proj(x):
            v = dual.where(x[0] == 0.0, 1.0, math.nan)
            return [[v, 0.0], [0.0, 0.0]]

        with pytest.raises(ProjectorError):
            Subbundle(2, proj, "nan").check([[0.0], [1.0]])

    def test_rank_mismatch(self):
        with pytest.raises(ShapeError):
            projected_connection(Connection.flat(2, 1),
                                 Subbundle(3, lambda x: [[1.0] * 3] * 3))


class TestSectionSplitting:
    def test_scale_invariance(self):
        conn = random_skew(2, 2, random.Random(31))
        s1 = lambda x: [dual.cos(x[0]), dual.sin(x[0] + x[1])]
        s3 = lambda x: [3.0 * v for v in s1(x)]
        a = section_splitting_connection(conn, s1)
        b = section_splitting_connection(conn, s3)
        for x in ([0.3, 0.1], [1.0, -0.4]):
            assert mat_diff(a.A.eval(x), b.A.eval(x)) < 1e-12

    def test_constant_section_on_flat_is_flat(self):
        conn = Connection.flat(2, 2)
        out = section_splitting_connection(conn, lambda x: [1.0, 0.0])
        assert max_entry(out.A.eval([0.5, 0.5])) == 0.0

    def test_vanishing_at_evaluation(self):
        conn = Connection.flat(2, 1)
        out = section_splitting_connection(conn, lambda x: [x[0], 0.0])
        with pytest.raises(VanishingSectionError):
            out.A.eval([0.0])

    def test_vanishing_at_check_points(self):
        conn = Connection.flat(2, 1)
        out = section_splitting_connection(conn, lambda x: [x[0], 0.0])
        with pytest.raises(VanishingSectionError):
            out.A.eval(as_block([[1.0], [1e-12]]))

    @staticmethod
    def _nan_at_one(x):
        return [1.0, dual.where(dual.real(x[0]) > 0.5, math.nan, 0.0)]

    def test_nan_after_finite_check_point_raises(self):
        # min(1.0, nan) == 1.0 would let the NaN length pass the check
        conn = Connection.flat(2, 1)
        out = section_splitting_connection(conn, self._nan_at_one)
        with pytest.raises(VanishingSectionError):
            out.A.eval(as_block([[0.0], [1.0]]))

    def test_nan_at_evaluation_raises(self):
        conn = Connection.flat(2, 1)
        out = section_splitting_connection(conn, self._nan_at_one)
        with pytest.raises(VanishingSectionError):
            out.A.eval([1.0])

    def test_circle_winding_transgression(self):
        # the unit section winding once around the plane bundle over [0, 2pi]
        # transgresses to total winding -1
        base = ChartDomain.interval("psi", 0.0, TWO_PI, 16)
        conn = Connection.flat(2, 1)
        T = section_transgression(conn, lambda x: [dual.cos(x[0]), dual.sin(x[0])])
        assert base.integrate(T) == pytest.approx(-1.0, abs=1e-10)


class TestFrameSplit:
    def test_full_constant_frame_trivializes(self):
        conn = random_skew(2, 3, random.Random(32))
        frames = [lambda x: [1.0, 0.0, 0.0], lambda x: [0.0, 1.0, 0.0],
                  lambda x: [0.0, 0.0, 1.0]]
        out = frame_split_connection(conn, frames)
        assert max_entry(out.A.eval([0.4, -0.2])) == 0.0

    def test_plane_frame_is_orthonormal(self):
        # the only frame the package splits along; frame_split_connection
        # takes it as orthonormal without checking
        tri = OddRankTriple(make_bundle("odd-rank3-point"), fiber_order=6)
        rng = random.Random(33)
        pts = as_block([[rng.uniform(-1.0, 1.0) for _ in range(4)]
                        for _ in range(16)])
        F = [f(pts) for f in tri.plane_frame]
        for a in range(2):
            for b in range(2):
                gram = sum(F[a][i] * F[b][i] for i in range(4))
                assert np.all(np.abs(gram - (a == b)) <= 1e-14)

    def test_single_frame_matches_section_split_on_flat(self):
        # over a flat bundle both constructions reduce to the projector terms
        conn = Connection.flat(2, 1)
        u = lambda x: [dual.cos(x[0]), dual.sin(x[0])]
        a = frame_split_connection(conn, [u])
        b = section_splitting_connection(conn, u)
        for psi in (0.1, 2.2):
            A, B = a.A.eval([psi]), b.A.eval([psi])
            # both make u parallel: compare the compressed so(2) block
            assert A[0][1][0] == pytest.approx(B[0][1][0], abs=1e-10)


def projected_oracle(conn: Connection, projector) -> MatrixForm:
    """P dP + P A P + Q dQ + Q A Q with Q = 1 - P, by plain nested loops.

    P and its partials come from SmoothMap.jacobian; every product and sum
    is written out, structural zeros included.
    """
    n, m = conn.n, conn.rank
    flat = SmoothMap(n, m * m, lambda y: [v for row in projector(y) for v in row])

    def ev(x):
        vals, J = flat.jacobian(x)
        P = [[vals[i * m + j] for j in range(m)] for i in range(m)]
        dP = [[J[i * m + j] for j in range(m)] for i in range(m)]
        Q = [[(1.0 if i == j else 0.0) - P[i][j] for j in range(m)] for i in range(m)]
        dQ = [[[-v for v in dP[i][j]] for j in range(m)] for i in range(m)]
        A = conn.A.eval(x)
        out = [[[0.0] * n for _ in range(m)] for _ in range(m)]
        for i in range(m):
            for j in range(m):
                for k in range(n):
                    acc = 0.0
                    for a in range(m):
                        acc = acc + P[i][a] * dP[a][j][k] + Q[i][a] * dQ[a][j][k]
                        for b in range(m):
                            acc = (acc + P[i][a] * A[a][b][k] * P[b][j]
                                   + Q[i][a] * A[a][b][k] * Q[b][j])
                    out[i][j][k] = acc
        return out

    return MatrixForm(n, 1, m, ev)


def frame_oracle(conn: Connection, frames) -> MatrixForm:
    """sum_a f_a df_a^T + Q dQ + Q A Q with Q = 1 - sum_a f_a f_a^T, by plain loops.

    The frame's span is parallel, so its block is sum_a f_a df_a^T in place
    of P dP + P A P.
    """
    n, m, r = conn.n, conn.rank, len(frames)
    fmap = SmoothMap(n, r * m, lambda y: [v for f in frames for v in f(y)])

    def ev(x):
        vals, J = fmap.jacobian(x)
        f = [vals[a * m:(a + 1) * m] for a in range(r)]
        df = [J[a * m:(a + 1) * m] for a in range(r)]
        Q = [[(1.0 if i == j else 0.0) - sum(f[a][i] * f[a][j] for a in range(r))
              for j in range(m)] for i in range(m)]
        dQ = [[[-sum(df[a][i][k] * f[a][j] + f[a][i] * df[a][j][k] for a in range(r))
                for k in range(n)] for j in range(m)] for i in range(m)]
        A = conn.A.eval(x)
        out = [[[0.0] * n for _ in range(m)] for _ in range(m)]
        for i in range(m):
            for j in range(m):
                for k in range(n):
                    acc = 0.0
                    for a in range(r):
                        acc = acc + f[a][i] * df[a][j][k]
                    for a in range(m):
                        acc = acc + Q[i][a] * dQ[a][j][k]
                        for b in range(m):
                            acc = acc + Q[i][a] * A[a][b][k] * Q[b][j]
                    out[i][j][k] = acc
        return out

    return MatrixForm(n, 1, m, ev)


def oracle_conns(n: int, m: int) -> list:
    """A nonzero polynomial potential and the flat one, whose entries are literal zeros."""
    return [random_skew_connection(n, m, random.Random(41), POLYNOMIAL_BASIS),
            Connection.flat(m, n)]


@pytest.mark.parametrize("n, m, basis", [
    (2, 2, POLYNOMIAL_BASIS), (3, 4, POLYNOMIAL_BASIS),
    (1, 3, (lambda x: 1.0, lambda x: dual.cos(x[0]), lambda x: dual.sin(x[0])))])
def test_random_potential_draws_only_its_upper_triangle(n, m, basis):
    rng, ahead, oracle = (random.Random(5) for _ in range(3))
    conn = random_skew_connection(n, m, rng, basis)
    for _ in range(m * (m - 1) // 2 * n * len(basis)):
        ahead.random()
    assert rng.random() == ahead.random()
    # per entry i < j in row order, per coefficient, one uniform per basis function
    x = [0.3, -0.6, 0.9][:n]
    vals = [f(x) for f in basis]
    A = conn.A.eval(x)
    for i in range(m):
        assert all(is_zero(v) for v in A[i][i])
        for j in range(i + 1, m):
            for c in range(n):
                want = sum(oracle.uniform(-1.0, 1.0) * v for v in vals)
                assert A[i][j][c] == pytest.approx(want, rel=1e-15)
                assert A[j][i][c] == -A[i][j][c]


def oracle_block(n: int, seed: int) -> list:
    rng = random.Random(seed)
    return as_block([[rng.uniform(-0.9, 0.9) for _ in range(n)] for _ in range(6)])


def block_gap(A, B) -> float:
    return max(float(np.max(np.abs(a - b))) for r1, r2 in zip(A, B)
               for e1, e2 in zip(r1, r2) for a, b in zip(e1, e2))


class TestSplitOracles:
    """Split connections and their d against the defining formulas, written out."""

    @staticmethod
    def section(x):
        return [1.0 + x[0] * x[0], x[1] - 0.3, 0.5 * x[0] * x[1] + 0.2]

    @staticmethod
    def frames():
        # orthonormal, varying, with literal zeros in the second vector
        return [lambda x: [dual.cos(x[0]) * dual.cos(x[1]),
                           dual.sin(x[0]) * dual.cos(x[1]), dual.sin(x[1])],
                lambda x: [-dual.sin(x[0]), dual.cos(x[0]), 0.0]]

    @pytest.mark.parametrize("which", [0, 1], ids=["polynomial", "flat"])
    def test_section_split_matches_formula(self, which):
        conn = oracle_conns(3, 3)[which]
        split = section_splitting_connection(conn, self.section)

        def projector(x):
            s = self.section(x)
            norm2 = sum(v * v for v in s)
            return [[s[i] * s[j] / norm2 for j in range(3)] for i in range(3)]

        oracle = projected_oracle(conn, projector)
        x = oracle_block(3, 42)
        assert block_gap(split.A.eval(x), oracle.eval(x)) <= 1e-13
        assert block_gap(split.A.d().eval(x), oracle.d().eval(x)) <= 1e-13

    @pytest.mark.parametrize("which", [0, 1], ids=["polynomial", "flat"])
    def test_frame_split_matches_formula(self, which):
        conn = oracle_conns(2, 3)[which]
        split = frame_split_connection(conn, self.frames())
        oracle = frame_oracle(conn, self.frames())
        x = oracle_block(2, 43)
        assert block_gap(split.A.eval(x), oracle.eval(x)) <= 1e-13
        assert block_gap(split.A.d().eval(x), oracle.d().eval(x)) <= 1e-13

    def test_nan_in_potential_reaches_transgression_sup(self):
        conn = oracle_conns(3, 4)[0]
        pts = [[0.1 * k - 0.3, 0.2, 0.05 * k + 0.1] for k in range(6)]

        def poisoned_ev(x):
            A = conn.A.eval(x)
            hit = np.asarray(dual.real(x[0])) == pts[4][0]
            A[0][1][2] = dual.where(hit, math.nan, A[0][1][2])
            return A

        poisoned = Connection(4, MatrixForm(3, 1, 4, poisoned_ev))
        split = section_splitting_connection(
            poisoned, lambda x: [1.0 + x[0] * x[0], x[1], 0.0, x[2]])
        assert form_sup(transgression(split, poisoned), pts[:4]) < math.inf
        assert math.isnan(form_sup(transgression(split, poisoned), pts))

    def test_nan_in_frame_raises(self):
        # every matching of the ambient/plane-split transgression meets the
        # literal zeros of the parallel e0 row, so a NaN in the frame would
        # drop out of it; the frame refuses it instead
        tri = OddRankTriple(make_bundle("odd-rank3-point"), fiber_order=6)
        pts = sphere_points(4, 6, 44)
        f_const, f_fiber = tri.plane_frame

        def poisoned(x):
            f = f_fiber(x)
            hit = np.asarray(dual.real(x[1])) == pts[2][1]
            return [f[0], dual.where(hit, math.nan, f[1])] + f[2:]

        plane = frame_split_connection(tri.ambient, (f_const, poisoned))
        T = transgression(tri.ambient, plane)
        assert form_sup(T, pts[:2] + pts[3:]) == 0.0
        with pytest.raises(VanishingSectionError):
            form_sup(T, pts)

    def test_split_d_dual_products_stay_low(self, monkeypatch):
        # one evaluation of d of the section-split connection of the rank-4
        # triple on a fixed block: 1632 dual products before structural zeros
        # were skipped and (P - Q) dP formed once, 352 after, and 169 since
        # the potential is built from its upper triangle and the projector
        # from one reciprocal
        dA = OddRankTriple(make_bundle("odd-rank3-point"), fiber_order=6).split.A.d()
        rng = random.Random(7)
        x = as_block([[rng.uniform(0.2, 1.0) * rng.choice((-1, 1)) for _ in range(4)]
                      for _ in range(8)])
        calls = [0]
        mul = dual.Dual.__mul__

        def counting(a, b):
            calls[0] += 1
            return mul(a, b)

        monkeypatch.setattr(dual.Dual, "__mul__", counting)
        monkeypatch.setattr(dual.Dual, "__rmul__", counting)
        dA.eval(x)
        assert calls[0] <= 169


class TestStereographic:
    def test_pinned_values(self):
        st = stereographic(3)
        assert st([0.0, 0.0, 0.0]) == pytest.approx([1.0, 0.0, 0.0, 0.0])
        assert st([1.0, 0.0, 0.0]) == pytest.approx([0.0, 1.0, 0.0, 0.0])
        assert st([2.0, 0.0, 0.0]) == pytest.approx([-0.6, 0.8, 0.0, 0.0])

    def test_unit_norm(self):
        st = stereographic(2)
        rng = random.Random(33)
        for _ in range(20):
            v = [rng.uniform(-3, 3), rng.uniform(-3, 3)]
            w = st(v)
            assert sum(x * x for x in w) == pytest.approx(1.0, abs=1e-12)

    def test_total_chart_passes_base_through(self):
        st = stereographic_total(2, 2)
        out = st([0.0, 0.0, 0.7, -0.3])
        assert out == pytest.approx([1.0, 0.0, 0.0, 0.7, -0.3])


class TestLifts:
    def test_total_connection_shifts_coefficients(self):
        conn = random_skew(2, 2, random.Random(34))
        lifted = total_connection(conn, 3)
        x = [9.0, 9.0, 9.0, 0.3, 0.4]  # fiber coords must be ignored
        A = lifted.A.eval(x)
        B = conn.A.eval([0.3, 0.4])
        for i in range(2):
            for j in range(2):
                assert A[i][j][:3] == [0.0, 0.0, 0.0]
                assert A[i][j][3:] == pytest.approx(B[i][j])

    def test_rank_extension_blocks(self):
        conn = random_skew(2, 2, random.Random(35))
        ext = rank_extension(conn)
        assert ext.rank == 3
        x = [0.2, -0.6]
        A = ext.A.eval(x)
        B = conn.A.eval(x)
        assert all(v == 0.0 for v in A[0][0] + A[0][1] + A[1][0])
        for i in range(2):
            for j in range(2):
                assert A[i + 1][j + 1] == pytest.approx(B[i][j])


class TestAssociatedBundles:
    def test_chart_dimensions(self):
        assoc = AssociatedBundles(make_bundle("tangent-s2"))
        (se,) = assoc.se
        assert se.fiber.dim == 1 and se.fiber.ambient_dim == 2
        assert assoc.de.fiber.dim == 2 and assoc.de.fiber.ambient_dim == 2
        assert assoc.sre.fiber.dim == 2 and assoc.sre.fiber.ambient_dim == 3

    def test_tautological_section(self):
        assoc = AssociatedBundles(make_bundle("tangent-s2"))
        s = assoc.tautological_section()
        assert s([0.3, 0.4, 9.0, 9.0]) == [0.3, 0.4]


def sphere_points(m: int, count: int, seed: int):
    """Random unit vectors in R^m."""
    rng = random.Random(seed)
    out = []
    while len(out) < count:
        v = [rng.gauss(0.0, 1.0) for _ in range(m)]
        r = math.sqrt(sum(x * x for x in v))
        if r > 0.3:
            out.append([x / r for x in v])
    return out


class TestOddRankTriple:
    def test_even_rank_rejected(self):
        with pytest.raises(RankError):
            OddRankTriple(make_bundle("flat-rank2-disk"))

    def test_connections_are_skew(self):
        tri = OddRankTriple(make_bundle("odd-rank3-point"))
        pts = sphere_points(4, 8, 36)
        for conn in (tri.ambient, tri.split, tri.plane_split):
            assert conn.skew_residual(pts) < 1e-12

    def test_split_potentials_are_exactly_skew(self):
        # built from the strict upper triangle: the lower one is its exact
        # negative and the diagonal is structural zeros
        tri = OddRankTriple(make_bundle("odd-rank3-point"), fiber_order=6)
        conn = random_skew_connection(3, 3, random.Random(37), POLYNOMIAL_BASIS)
        curved = section_splitting_connection(
            conn, lambda x: [1.0 + x[0] * x[0], x[1], x[2]])
        rng = random.Random(38)
        base_pts = [[rng.uniform(-1.0, 1.0) for _ in range(3)] for _ in range(8)]
        cases = ((tri.split, sphere_points(4, 8, 36)),
                 (tri.plane_split, sphere_points(4, 8, 36)), (curved, base_pts))
        for split, pts in cases:
            assert split.skew_residual(pts) == 0.0
            A = split.A.eval(as_block(pts))
            assert all(is_zero(v) for i in range(split.rank) for v in A[i][i])

    def test_nan_in_base_potential_raises(self):
        # the ambient/plane-split transgression meets the base potential only
        # through structural zeros, so a NaN in it would drop out; the
        # potential is checked where it enters the triple instead
        base_conn = random_skew(2, 3, random.Random(39))
        pts = [v + [0.1 * k - 0.3, 0.05 * k]
               for k, v in enumerate(sphere_points(4, 6, 40))]

        def poisoned_ev(x):
            A = base_conn.A.eval(x)
            hit = np.asarray(dual.real(x[0])) == pts[2][4]
            A[0][1][0] = dual.where(hit, math.nan, A[0][1][0])
            return A

        poisoned = Connection(3, MatrixForm(2, 1, 3, poisoned_ev), "poisoned")
        tri = OddRankTriple(TrivializedBundle(3, ChartDomain.ball(2, order=4), poisoned),
                            fiber_order=6)
        T = transgression(tri.ambient, tri.plane_split)
        assert form_sup(T, pts[:2] + pts[3:]) < math.inf
        with pytest.raises(NonFiniteError):
            form_sup(T, pts)

    def test_rank1_split_is_angular_potential(self):
        tri = OddRankTriple(make_bundle("odd-rank1-point"))
        for a in (0.3, 1.1, 2.8, 5.0):
            c, s = math.cos(a), math.sin(a)
            A = tri.split.A.eval([c, s])
            assert A[0][1] == pytest.approx([-s, c], abs=1e-12)
            assert A[1][0] == pytest.approx([s, -c], abs=1e-12)
            assert max(abs(v) for v in A[0][0] + A[1][1]) < 1e-12

    def test_equator_restrictions_agree(self):
        # restricted to the equator sphere, the section splitting and the
        # plane splitting produce the same potential
        tri = OddRankTriple(make_bundle("odd-rank3-point"))
        ((_, equator),) = tri.equators
        r1 = tri.split.pullback(equator)
        r3 = tri.plane_split.pullback(equator)
        for pt in ([0.5, 1.0], [1.2, 2.0], [2.4, 5.1], [0.9, 0.1]):
            assert mat_diff(r1.A.eval(pt), r3.A.eval(pt)) < 1e-10

    def test_rank1_equators_are_the_two_end_points(self):
        # S^0 = ball(1).boundary_faces(): +1 with sign +1, then -1 with sign -1
        tri = OddRankTriple(make_bundle("odd-rank1-point"))
        assert [(piece.dim, piece.orientation) for piece, _ in tri.equators] == [
            (0, 1), (0, -1)]
        assert [inc([]) for _, inc in tri.equators] == [[0.0, 1.0], [0.0, -1.0]]

    def test_ambient_plane_transgression_vanishes_on_equator(self):
        # the constant frame vector stays parallel for both endpoints, so
        # the transgression vanishes as an ambient form along |u| = 1, x0 = 0
        tri = OddRankTriple(make_bundle("odd-rank3-point"))
        T = transgression(tri.ambient, tri.plane_split)
        for u in sphere_points(3, 6, 37):
            vals = T([0.0] + u)
            assert max(abs(v) for v in vals) < 1e-8

    def test_restricted_transgressions_degenerate(self):
        # on the equator chart the transgression degree exceeds the
        # dimension; the restrictions are empty zero forms
        tri = OddRankTriple(make_bundle("odd-rank3-point"))
        for other in (tri.split, tri.ambient):
            T = transgression(other, tri.plane_split)
            restricted = T.pullback(tri.equators[0][1])
            assert restricted([0.5, 1.0]) == []

    def test_rank1_transgression_vanishes_at_equator_points(self):
        tri = OddRankTriple(make_bundle("odd-rank1-point"))
        T = transgression(tri.ambient, tri.plane_split)
        for u in (1.0, -1.0):
            assert max(abs(v) for v in T([0.0, u])) < 1e-12

    def test_rank1_sre_integral(self):
        tri = OddRankTriple(make_bundle("odd-rank1-point"))
        T = transgression(tri.split, tri.ambient)
        val = tri.assoc.sre.fiber_integrate(T)([])
        assert val[0] == pytest.approx(-1.0, abs=1e-10)

    def test_pole_sections_agree_over_base(self):
        # along the poles u = (+-1, 0, ..., 0) the tautological projector is
        # constant, so split and ambient potentials restrict identically
        base = ChartDomain.interval("x", -1.0, 1.0, 8)
        conn = random_skew(1, 3, random.Random(38))
        tri = OddRankTriple(TrivializedBundle(3, base, conn, "line-test"))
        for sign in (1.0, -1.0):
            pole = SmoothMap(1, 5, lambda b, s=sign: [s, 0.0, 0.0, 0.0, b[0]])
            a = tri.split.pullback(pole)
            b = tri.ambient.pullback(pole)
            for x in ([0.3], [-0.8]):
                assert mat_diff(a.A.eval(x), b.A.eval(x)) < 1e-10


class TestRegistry:
    def test_all_entries_construct(self):
        for name in REGISTRY:
            bundle = make_bundle(name)
            assert bundle.label == name or bundle.label

    def test_unknown_name(self):
        with pytest.raises(ChartError):
            make_bundle("klein-bottle")

    def test_odd_registry_builds_triples(self):
        for name in ODD_REGISTRY:
            tri = OddRankTriple(make_bundle(name))
            assert tri.total_rank % 2 == 0

    def test_point_base(self):
        pt = point_base()
        assert pt.dim == 0 and pt.ambient_dim == 0
