"""Compactly supported Thom forms, the fiber-integration duality, and defects."""

import math
import random

import pytest

import cgbv.dual as dual
from cgbv import thom
from cgbv.bundles import (TrivializedBundle, make_bundle,
                          section_splitting_connection)
from cgbv.chern_weil import Connection, MatrixForm, pf_form, transgression
from cgbv.errors import (BumpError, ClosednessError, ConfigError, RankError,
                         SignConventionError)
from cgbv.forms import Form, combos
from cgbv.geometry import ChartDomain, FiberBundleDomain
from cgbv.relative import pair_d
from cgbv.thom import (ODD_SCALE, BumpProfile, ThomScenario, cgb_defect,
                       fiber_integral, mu, nu, nu_inverse_even, nu_inverse_odd,
                       odd_dual_pair, odd_pair_residual, parallel_pair_residuals,
                       persistent_section_residual, support_pieces, thom_form)

from test_forms import random_polynomial_form


def affine_form(n, p, rng):
    rows = [[rng.uniform(-1.0, 1.0) for _ in range(n + 1)]
            for _ in combos(n, p)]

    def comps(x):
        return [row[0] + sum(c * xi for c, xi in zip(row[1:], x))
                for row in rows]

    return Form(n, p, comps)


def box_base():
    return ChartDomain.box("B2", [(0.0, 1.0), (-0.5, 0.5)], [10, 10])


def flat_scenario(rank, base=None):
    base = base or box_base()
    conn = Connection.flat(rank, base.ambient_dim, "flat")
    return ThomScenario(TrivializedBundle(rank, base, conn, "flat-test"))


def max_comp(form, x):
    return max((abs(v) for v in form(x)), default=0.0)


class TestBumpProfile:
    def test_plateau_support_and_slope(self):
        rho = BumpProfile.exponential()
        assert rho(0.0) == 1.0
        assert rho(1.0) == 1.0
        assert rho(2.0) == 0.0
        assert rho(3.0) == 0.0
        assert 0.0 < rho(1.5) < 1.0
        assert rho.slope(0.5) == 0.0
        assert rho.slope(1.5) < 0.0

    def test_slope_matches_dual_derivative(self):
        # the quotient rule on psi(2 - r) / (psi(2 - r) + psi(r - 1)), by hand
        def psi(u):
            return math.exp(-1.0 / u)

        def psi_slope(u):
            return math.exp(-1.0 / u) / (u * u)

        rho = BumpProfile.exponential()
        for r in (1.05, 1.2, 1.5, 1.8, 1.95):
            f, g = psi(2.0 - r), psi(r - 1.0)
            fp, gp = -psi_slope(2.0 - r), psi_slope(r - 1.0)
            assert abs((fp * g - f * gp) / (f + g) ** 2 - rho.slope(r)) <= 1e-10

    def test_alternate_sharpness_passes(self):
        rho = BumpProfile.exponential(2.0)
        assert rho(1.5) == pytest.approx(0.5)
        assert rho.slope(1.5) == pytest.approx(-4.0)

    def test_plateau_violation_raises(self):
        with pytest.raises(BumpError):
            BumpProfile(lambda r: 0.99, "flat99")

    def test_support_leak_raises(self):
        ref = BumpProfile.exponential()
        with pytest.raises(BumpError):
            BumpProfile(lambda r: ref.value(r * 0.5), "wide")

    # "slope": a NaN on the step (1, 2), where the slope is the value's derivative
    @pytest.mark.parametrize("part", ["plateau", "tail", "slope"])
    def test_nan_profile_raises(self, part):
        ref = BumpProfile.exponential()
        nan_where = {"plateau": lambda r: dual.real(r) <= 1.0,
                     "tail": lambda r: dual.real(r) >= 2.0,
                     "slope": lambda r: 1.0 < dual.real(r) < 2.0}[part]
        value = lambda r: math.nan if nan_where(r) else ref.value(r)
        with pytest.raises(BumpError):
            BumpProfile(value, f"nan-{part}")


class TestMu:
    def test_equals_first_slot_inside_unit_ball(self):
        rng = random.Random(1)
        rho = BumpProfile.exponential()
        om = affine_form(2, 1, rng)
        ga = affine_form(2, 0, rng)
        out = mu(om, ga, rho, 2)
        for r, t in ((0.1, 0.3), (0.5, 2.0), (0.95, 4.0)):
            x = [r * math.cos(t), r * math.sin(t)]
            assert max(abs(a - b) for a, b in zip(out(x), om(x))) == 0.0

    def test_vanishes_outside_support(self):
        rng = random.Random(2)
        rho = BumpProfile.exponential()
        out = mu(affine_form(2, 1, rng), affine_form(2, 0, rng), rho, 2)
        for t in (0.0, 1.0, 2.5):
            x = [2.2 * math.cos(t), 2.2 * math.sin(t)]
            assert max_comp(out, x) == 0.0

    # at k = 0 the companion is the degree -1 zero space, drawn from nothing
    @pytest.mark.parametrize("k", [0, 1, 2])
    def test_chain_law(self, k):
        """mu of the cone differential equals -d of mu, pointwise."""
        rng = random.Random(3 + k)
        rho = BumpProfile.exponential()
        pts = []
        while len(pts) < 12:
            x = [rng.uniform(-2.3, 2.3) for _ in range(3)]
            if math.hypot(x[0], x[1]) > 1e-3:
                pts.append(x)
        for _ in range(20):
            om = affine_form(3, k, rng)
            ga = affine_form(3, k - 1, rng)
            lhs = mu(om.d().smul(-1.0), om + ga.d(), rho, 2)
            rhs = mu(om, ga, rho, 2).d().smul(-1.0)
            for x in pts:
                assert max(abs(a - b)
                           for a, b in zip(lhs(x), rhs(x))) <= 1e-7


class TestThomForm:
    def test_odd_rank_rejected(self):
        with pytest.raises(RankError):
            thom_form(Connection.flat(3, 0, "odd"))

    def test_point_base_fiber_integral(self):
        tau = thom_form(Connection.flat(2, 0, "flat2"))
        base0 = ChartDomain.box("pt", [])
        val = fiber_integral(tau, base0, 2, 24)([])[0]
        assert abs(val - 1.0) <= 1e-6

    def test_flat_disk_per_fiber(self):
        conn = Connection.flat(2, 2, "flatD")
        tau = thom_form(conn)
        disk = ChartDomain.ball(2, order=16, name="B")
        fi = fiber_integral(tau, disk, 2, 24)
        rng = random.Random(5)
        for b in disk.sample_ambient_points(rng, 20):
            assert abs(fi(b)[0] - 1.0) <= 1e-6

    def test_round_sphere_per_fiber(self):
        bundle = make_bundle("tangent-s2")
        tau = thom_form(bundle.connection)
        fi = fiber_integral(tau, bundle.base, 2, 24)
        rng = random.Random(9)
        for b in bundle.base.sample_ambient_points(rng, 4):
            assert abs(fi(b)[0] - 1.0) <= 1e-6

    def test_closedness_pointwise(self):
        rng = random.Random(11)
        flat_tau = thom_form(Connection.flat(2, 0, "flat2"))
        dflat = flat_tau.d()
        for _ in range(30):
            t = rng.uniform(0.0, 2.0 * math.pi)
            r = rng.uniform(0.05, 2.4)
            assert max_comp(dflat, [r * math.cos(t), r * math.sin(t)]) <= 1e-8
        round_tau = thom_form(make_bundle("tangent-s2").connection)
        dround = round_tau.d()
        for _ in range(10):
            x = [rng.uniform(-0.9, 0.9), rng.uniform(-0.9, 0.9),
                 rng.uniform(0.3, 2.8), rng.uniform(0.3, 6.0)]
            if math.hypot(x[0], x[1]) < 1e-2:
                x[0] = 0.5
            assert max_comp(dround, x) <= 1e-8

    def test_alternate_profile_same_integral(self):
        """The fiber class does not depend on which admissible cutoff is used."""
        base0 = ChartDomain.box("pt", [])
        conn = Connection.flat(2, 0, "flat2")
        for rho in (BumpProfile.exponential(), BumpProfile.exponential(2.0)):
            val = fiber_integral(thom_form(conn, rho), base0, 2, 24)([])[0]
            assert abs(val - 1.0) <= 1e-6


class TestSupportPieces:
    def test_split_at_unit_radius(self):
        inner, outer = support_pieces(2)
        assert inner.bounds[0] == (0.0, 1.0)
        assert outer.bounds[0] == (1.0, 2.0)

    def test_split_rule_beats_single_chart(self):
        """A single Gauss panel across the knot keeps visible error."""
        tau = thom_form(Connection.flat(2, 0, "flat2"))
        base0 = ChartDomain.box("pt", [])
        split_err = abs(fiber_integral(tau, base0, 2, 24)([])[0] - 1.0)
        single = ChartDomain.ball(2, radius=2.0, order=24)
        single_err = abs(single.integrate(tau) - 1.0)
        assert split_err <= 1e-6
        assert single_err > 10.0 * split_err


class TestNu:
    def test_normalized_fiber_volume(self):
        sc = flat_scenario(2)
        vol = Form(4, 2, lambda x: [1.0 / math.pi if a == 0 else 0.0
                                    for a in range(len(combos(4, 2)))])
        zero1 = Form(4, 1, lambda x: [0.0] * 4)
        out = nu(sc, sc.pair(vol, zero1))
        rng = random.Random(13)
        for b in sc.base.sample_ambient_points(rng, 5):
            assert abs(out(b)[0] - 1.0) <= 1e-12

    def test_below_fiber_degree_is_flagged_zero(self):
        sc = flat_scenario(2)
        rng = random.Random(17)
        p = sc.pair(affine_form(4, 1, rng), affine_form(4, 0, rng))
        out = nu(sc, p)
        # a 1-form over the 2-disk fiber integrates to the zero (-1)-form
        assert out.p == -1
        assert out([0.1, 0.2]) == []
        # a degree-zero pair, its companion the zero space of degree -1
        out = nu(sc, sc.pair(affine_form(4, 0, rng), Form.zero(4, -1)))
        assert out.p == -2
        assert out([0.1, 0.2]) == []

    @pytest.mark.parametrize("m", [1, 2])
    def test_relative_faces_are_the_sphere_bundle(self, m):
        """The boundary of the relative domain is SE at every rank.

        Over a base with boundary the lateral faces D^m x boundary(B) are not
        part of it, so the boundary integral is the SE fiber integral
        integrated over the base.
        """
        base = box_base()
        sc = ThomScenario(TrivializedBundle(
            m, base, Connection.flat(m, 2, "flat"), "flat-faces"), fiber_order=10)
        gamma = random_polynomial_form(m + 2, m + 1, random.Random(5))
        want = sum(base.integrate(se.fiber_integrate(gamma)) for se in sc.se)
        assert sc.relative.integrate_boundary(gamma) == pytest.approx(want, abs=1e-12)

    @pytest.mark.parametrize("rank,sign", [(1, 1.0), (2, -1.0)])
    def test_chain_law_sign(self, rank, sign):
        """nu(pair_d p) = (-1)^(m-1) d nu(p); one sign per fiber dimension dropped."""
        sc = flat_scenario(rank)
        n = rank + 2
        rng = random.Random(19 + rank)
        for k in range(1, rank + 2):
            for _ in range(3):
                p = sc.pair(affine_form(n, k, rng), affine_form(n, k - 1, rng))
                lhs = nu(sc, pair_d(p))
                rhs = nu(sc, p).d()
                for x in sc.base.sample_ambient_points(rng, 4):
                    L, R = lhs(x), rhs(x)
                    assert max(abs(a - sign * b)
                               for a, b in zip(L, R)) <= 1e-7

    def test_chain_law_sign_teeth(self):
        """The flipped sign visibly fails at degree 2 over rank 2."""
        sc = flat_scenario(2)
        rng = random.Random(23)
        p = sc.pair(affine_form(4, 2, rng), affine_form(4, 1, rng))
        lhs = nu(sc, pair_d(p))
        rhs = nu(sc, p).d()
        worst = 0.0
        for x in sc.base.sample_ambient_points(rng, 4):
            worst = max(worst, max(abs(a - b)
                                   for a, b in zip(lhs(x), rhs(x))))
        assert worst > 1e-2


class TestNuInverseEven:
    def test_unit_round_trip_over_point(self):
        sc = ThomScenario(TrivializedBundle(
            2, ChartDomain.box("pt", []), Connection.flat(2, 0, "pt"), "triv"))
        one = Form(0, 0, lambda x: [1.0])
        val = nu(sc, nu_inverse_even(sc, one))([])[0]
        assert abs(val - 1.0) <= 1e-8

    def test_pair_is_closed(self):
        sc = ThomScenario(make_bundle("tangent-s2"))
        one = Form(2, 0, lambda x: [1.0])
        p = nu_inverse_even(sc, one)
        dp = pair_d(p)
        rng = random.Random(29)
        for x in sc.de.total.sample_ambient_points(rng, 8):
            assert max_comp(dp.omega, x) <= 1e-7
            assert max_comp(dp.gamma, x) <= 1e-7

    def test_zero_input_gives_zero_pair(self):
        sc = flat_scenario(2)
        zero = Form(2, 0, lambda x: [0.0])
        p = nu_inverse_even(sc, zero)
        rng = random.Random(31)
        for x in sc.de.total.sample_ambient_points(rng, 5):
            assert max_comp(p.omega, x) == 0.0
            assert max_comp(p.gamma, x) == 0.0

    def test_odd_rank_rejected(self):
        sc = ThomScenario(make_bundle("odd-rank1-point"))
        with pytest.raises(RankError):
            nu_inverse_even(sc, Form(0, 0, lambda x: [1.0]))

    def test_non_closed_input_rejected(self):
        sc = flat_scenario(2)
        crooked = Form(2, 1, lambda x: [x[1], 0.0])
        with pytest.raises(ClosednessError):
            nu_inverse_even(sc, crooked)

    def test_nan_input_rejected(self):
        sc = flat_scenario(2)
        broken = Form(2, 1, lambda x: [x[0] * math.nan, 0.0])
        with pytest.raises(ClosednessError):
            nu_inverse_even(sc, broken)

    @pytest.mark.parametrize("label", ["constant", "area"])
    def test_round_trip_on_sphere(self, label):
        sc = ThomScenario(make_bundle("tangent-s2"))
        if label == "constant":
            eta = Form(2, 0, lambda x: [1.0])
        else:
            eta = Form(2, 2, lambda x: [dual.sin(x[0])])
        back = nu(sc, nu_inverse_even(sc, eta))
        rng = random.Random(37)
        for x in sc.base.sample_ambient_points(rng, 6):
            got, want = back(x), eta(x)
            assert max(abs(g - w) for g, w in zip(got, want)) <= 1e-6


class TestNuInverseOdd:
    def test_rank_one_unit_pairing(self):
        sc = ThomScenario(make_bundle("odd-rank1-point"))
        one = Form(0, 0, lambda x: [1.0])
        val = nu(sc, nu_inverse_odd(sc, one))([])[0]
        assert abs(val - 1.0) <= 1e-8

    def test_zero_input_gives_zero_pair(self):
        sc = ThomScenario(make_bundle("odd-rank1-point"))
        zero = Form(0, 0, lambda x: [0.0])
        p = nu_inverse_odd(sc, zero)
        for x in ([0.3], [-0.7]):
            assert max_comp(p.omega, x) == 0.0
            assert max_comp(p.gamma, x) == 0.0

    def test_even_rank_rejected(self):
        sc = flat_scenario(2, ChartDomain.box("pt", []))
        with pytest.raises(RankError):
            nu_inverse_odd(sc, Form(0, 0, lambda x: [1.0]))

    def test_open_pair_is_rejected_with_its_residual(self, monkeypatch):
        # the genuine residual sits at roundoff, so the error branch is
        # driven by an impossible tolerance
        monkeypatch.setattr(thom, "PAIR_TOL", -1.0)
        sc = ThomScenario(make_bundle("odd-rank1-point"))
        one = Form(0, 0, lambda x: [1.0])
        with pytest.raises(SignConventionError, match="residual"):
            nu_inverse_odd(sc, one)

    def test_split_first_is_the_unit_orientation(self):
        # calibration of ODD_SCALE: the shipped pair pairs to +1 and the
        # swapped endpoints to -1; at rank 1 the triangle slot vanishes,
        # so the swapped pairing is the disk slot alone
        sc = ThomScenario(make_bundle("odd-rank1-point"))
        tri = sc.triple
        w, g = odd_dual_pair(sc)
        shipped = sc.de.fiber_integrate(w)([])[0]
        shipped += sum(se.fiber_integrate(g)([])[0] for se in sc.se)
        swapped = transgression(tri.ambient, tri.split)
        swapped = swapped.pullback(sc.assoc.stereo).smul(-1.0)
        assert abs(ODD_SCALE * shipped - 1.0) <= 1e-10
        assert abs(ODD_SCALE * sc.de.fiber_integrate(swapped)([])[0] + 1.0) <= 1e-10

    def test_bare_pair_scales_to_half(self):
        """The transfer chart covers half the extended sphere."""
        sc = ThomScenario(make_bundle("odd-rank1-point"))
        w, g = odd_dual_pair(sc)
        disk = sc.de.fiber_integrate(w)([])[0]
        assert abs(disk - 0.5) <= 1e-10

    def test_rank_three_residual(self):
        sc = ThomScenario(make_bundle("odd-rank3-point"), fiber_order=12)
        assert odd_pair_residual(sc) <= 1e-6

    def test_rank_three_unit_pairing(self):
        """D3/S2 fiber quadrature at order 12; the slow spot of the suite."""
        sc = ThomScenario(make_bundle("odd-rank3-point"), fiber_order=12)
        one = Form(0, 0, lambda x: [1.0])
        val = nu(sc, nu_inverse_odd(sc, one))([])[0]
        assert abs(val - 1.0) <= 1e-4


def cap_chart(theta0):
    return ChartDomain.box(f"cap{theta0:.2f}",
                           [(0.0, theta0), (0.0, 2.0 * math.pi)], [16, 24])


def round_s2_connection():
    def A_eval(x):
        c = -dual.cos(x[0])
        return [[[0.0, 0.0], [0.0, c]], [[0.0, -c], [0.0, 0.0]]]

    return Connection(2, MatrixForm(2, 1, 2, A_eval), "round-s2")


class TestCgbDefect:
    def test_round_sphere(self):
        b = make_bundle("tangent-s2")
        assert abs(cgb_defect(b.base, [], b.connection, 2)) <= 1e-8

    def test_flat_disk(self):
        disk = ChartDomain.ball(2, order=20, name="D2")
        flat = Connection.flat(2, 2, "flat")
        nsplit = section_splitting_connection(flat, lambda x: [x[0], x[1]])
        d = cgb_defect(disk, disk.boundary_faces(), flat, 1,
                       boundary_connection=nsplit)
        assert abs(d) <= 1e-7

    @pytest.mark.parametrize("theta0",
                             [math.pi / 6, math.pi / 2, 2 * math.pi / 3])
    def test_polar_caps(self, theta0):
        """Geodesic caps; only the rim is a geometric boundary face."""
        cap = cap_chart(theta0)
        conn = round_s2_connection()
        bconn = section_splitting_connection(conn, lambda x: [1.0, 0.0])
        rim = cap.boundary_faces()[0]
        d = cgb_defect(cap, [rim], conn, 1, boundary_connection=bconn)
        assert abs(d) <= 1e-6

    def test_missing_euler_number_rejected(self):
        b = make_bundle("tangent-s2")
        with pytest.raises(ConfigError):
            cgb_defect(b.base, [], b.connection, None)

    def test_faces_without_comparison_rejected(self):
        disk = ChartDomain.ball(2, order=16)
        with pytest.raises(ConfigError):
            cgb_defect(disk, disk.boundary_faces(),
                       Connection.flat(2, 2, "flat"), 1)

    def test_odd_rank_rejected(self):
        with pytest.raises(RankError):
            cgb_defect(ChartDomain.ball(2, order=16), [],
                       Connection.flat(3, 2, "odd"), 1)


class TestFiberCollapse:
    """Integrating the cutoff interpolation over fibers recovers the pairing."""

    def test_collapse_matches_nu_on_dual_pair(self):
        sc = flat_scenario(2, ChartDomain.ball(2, order=12, name="Bb"))
        one = Form(2, 0, lambda x: [1.0])
        p = nu_inverse_even(sc, one)
        rho = BumpProfile.exponential()
        collapsed = fiber_integral(mu(p.omega, p.gamma, rho, 2),
                                   sc.base, 2, 24)
        target = nu(sc, p)
        rng = random.Random(41)
        for x in sc.base.sample_ambient_points(rng, 4):
            assert max(abs(a - b)
                       for a, b in zip(collapsed(x), target(x))) <= 1e-6

    def test_collapse_matches_nu_on_exact_pair(self):
        """With base-dependent slots the match holds up to an exact term.

        Fiber Stokes on the cutoff tube leaves the differential of the
        cutoff-weighted tube average; adding it back closes the identity.
        """
        sc = flat_scenario(2, ChartDomain.ball(2, order=12, name="Bb"))
        rng = random.Random(43)
        q = sc.pair(affine_form(4, 2, rng), affine_form(4, 1, rng))
        p = pair_d(q)
        rho = BumpProfile.exponential()
        collapsed = fiber_integral(mu(p.omega, p.gamma, rho, 2),
                                   sc.base, 2, 24)
        target = nu(sc, p)
        tube = FiberBundleDomain(ChartDomain.annulus(1.0, 2.0, 2, order=24),
                                 sc.base, "tube")
        correction = tube.fiber_integrate(mu(p.gamma, Form.zero(4, 1), rho, 2)).d()
        for x in sc.base.sample_ambient_points(rng, 4):
            assert max(abs(a - b + c)
                       for a, b, c in zip(collapsed(x), target(x),
                                          correction(x))) <= 1e-6


class TestPerspars:
    """Both plane-splitting comparisons vanish on the unit-sphere slice."""

    @pytest.mark.parametrize("name", ["odd-rank1-point", "odd-rank3-point"])
    def test_slice_transgressions_vanish(self, name):
        sc = ThomScenario(make_bundle(name))
        res = parallel_pair_residuals(sc)
        assert res["tautological"] <= 1e-8
        assert res["ambient"] <= 1e-8

    @pytest.mark.parametrize("name", ["odd-rank1-point", "odd-rank3-point"])
    def test_section_residual_small(self, name):
        sc = ThomScenario(make_bundle(name))
        assert persistent_section_residual(sc) <= 1e-9

    @pytest.mark.parametrize("name", ["odd-rank1-point", "odd-rank3-point"])
    def test_ambient_comparison_vanishes_ambiently(self, name):
        # the constant first basis vector is parallel for both endpoints on
        # the whole chart, so this comparison needs no slice restriction
        sc = ThomScenario(make_bundle(name))
        tri = sc.triple
        t23 = transgression(tri.ambient, tri.plane_split)
        m = sc.rank
        pts = [[0.0, 1.0] + [0.0] * (m - 1),
               [0.3, 0.7] + [0.5] * (m - 1),
               [-0.4, -0.6] + [0.3] * (m - 1)]
        for x in pts:
            assert max_comp(t23, x) <= 1e-12

    def test_tautological_comparison_needs_the_slice(self):
        # ambient evaluation is genuinely nonzero: the slice restriction in
        # parallel_pair_residuals is doing real work, not reporting a blanket zero
        sc = ThomScenario(make_bundle("odd-rank1-point"))
        tri = sc.triple
        t13 = transgression(tri.split, tri.plane_split)
        assert max_comp(t13, [0.0, 1.0]) == pytest.approx(1.0 / (2.0 * math.pi))

    def test_even_rank_rejected(self):
        sc = flat_scenario(2)
        with pytest.raises(RankError):
            parallel_pair_residuals(sc)
        with pytest.raises(RankError):
            persistent_section_residual(sc)
