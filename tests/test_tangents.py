"""Vector tangents: every chart direction in one dual pass.

``forms.lift_point`` seeds all directions at once on a leading axis of the
derivative slots, so ``Form.d``, ``MatrixForm.d`` and ``SmoothMap.jacobian``
call their closure once per evaluation, nested levels included.  Values and
first derivatives come from that one lifted pass: ``SmoothMap.jacobian``
and ``MatrixForm.eval_with_d`` return the values from its value slots, bit
for bit those of a plain call, so a pullback, a split connection and a
parallel-transport check run their map, projector, frames or section once
per evaluation, and a curvature or a transgression each potential.  The oracle
below is the per-direction scheme they replace: one pass per direction j
with scalar seeds ``Dual(x_k, 1.0 if k == j else 0.0)``.  Both run the same
arithmetic entry by entry, so the values must agree exactly, and direction
extraction must hand back the oracle's types and shapes: floats at float
points, (B,) arrays on a block of B points, and no leftover singleton axis
in any slot of a nested ``d``.
"""

import random
from types import SimpleNamespace

import numpy as np
import pytest

from cgbv import dual, thom
from cgbv.bundles import (Subbundle, frame_split_connection, make_bundle,
                          projected_connection, stereographic)
from cgbv.chern_weil import Connection, secondary_transgression, transgression
from cgbv.dual import Dual, deriv
from cgbv.forms import (Form, MatrixForm, SmoothMap, as_block, combos, contract,
                        d_table, lift_point, minors, zero_coeffs)
from cgbv.thom import ThomScenario, _parallel_defect, persistent_section_residual


class Counted:
    """Closure wrapper counting its calls."""

    def __init__(self, fn):
        self.fn = fn
        self.calls = 0

    def __call__(self, x):
        self.calls += 1
        return self.fn(x)


def generic_form(n: int, p: int, seed: int) -> Form:
    """Form whose every coefficient depends on every coordinate."""
    rng = random.Random(seed)
    params = [([rng.uniform(-1, 1) for _ in range(n)],
               [rng.uniform(-0.5, 0.5) for _ in range(n)])
              for _ in combos(n, p)]

    def comps(x):
        out = []
        for a, b in params:
            s = sum(ak * xk for ak, xk in zip(a, x))
            t = sum(bk * xk for bk, xk in zip(b, x))
            out.append(dual.sin(s) * dual.exp(t) + s * t * t)
        return out

    return Form(n, p, comps)


def generic_map(src: int, dst: int, seed: int) -> SmoothMap:
    rng = random.Random(seed)
    rows = [[rng.uniform(-1, 1) for _ in range(src)] for _ in range(dst)]

    def fn(u):
        return [dual.cos(sum(r * uk for r, uk in zip(row, u))) + u[i % src] * u[0]
                for i, row in enumerate(rows)]

    return SmoothMap(src, dst, fn)


def scalar_lift(x, j):
    return [Dual(xk, 1.0 if k == j else 0.0) for k, xk in enumerate(x)]


def oracle_d(form: Form) -> Form:
    n, p = form.n, form.p
    table = d_table(n, p)

    def comps(x):
        out = zero_coeffs(n, p + 1)
        for j in range(n):
            vals = form.comps(scalar_lift(x, j))
            for iI, iK, sign in table[j]:
                out[iK] = out[iK] + sign * deriv(vals[iI])
        return out

    return Form(n, p + 1, comps)


def oracle_matrix_d(mf: MatrixForm) -> MatrixForm:
    n, p, m = mf.n, mf.p, mf.m
    table = d_table(n, p)

    def eval_fn(x):
        out = [[zero_coeffs(n, p + 1) for _ in range(m)] for _ in range(m)]
        for j in range(n):
            A = mf.eval(scalar_lift(x, j))
            for r in range(m):
                for c in range(m):
                    for iI, iK, sign in table[j]:
                        out[r][c][iK] = out[r][c][iK] + sign * deriv(A[r][c][iI])
        return out

    return MatrixForm(n, p + 1, m, eval_fn)


def oracle_jacobian(phi: SmoothMap, x):
    cols = [[deriv(c) for c in phi.fn(scalar_lift(x, j))] for j in range(phi.src_dim)]
    return [[cols[j][i] for j in range(phi.src_dim)] for i in range(phi.dst_dim)]


def oracle_pullback(form: Form, phi: SmoothMap) -> Form:
    """Pullback in positive degree through the minors of the oracle Jacobian."""
    def comps(u):
        table = minors(oracle_jacobian(phi, u), form.p, form.n, phi.src_dim)
        return contract(table, form.comps(phi(u)))
    return Form(phi.src_dim, form.p, comps)


def assert_identical(got, want):
    """Equal values of equal types; arrays also of equal shapes."""
    if isinstance(want, list):
        assert isinstance(got, list) and len(got) == len(want)
        for g, w in zip(got, want):
            assert_identical(g, w)
    elif isinstance(want, Dual):
        assert isinstance(got, Dual)
        assert_identical(got.a, want.a)
        assert_identical(got.b, want.b)
    elif isinstance(want, np.ndarray):
        assert isinstance(got, np.ndarray) and got.shape == want.shape
        assert np.array_equal(got, want)
    else:
        assert type(got) is type(want) and got == want


def slots(v):
    if isinstance(v, Dual):
        yield from slots(v.a)
        yield from slots(v.b)
    else:
        yield v


N = 4
POINT = [0.3, -0.7, 0.45, 0.2]
BLOCK = as_block([[0.3, -0.7, 0.45, 0.2], [0.1, 0.5, -0.2, 0.8],
                  [-0.6, 0.25, 0.9, -0.35], [0.05, -0.15, 0.4, 0.6],
                  [0.7, 0.1, -0.5, -0.9]])


class TestOneClosureCall:
    @pytest.mark.parametrize("x", [POINT, BLOCK], ids=["point", "block"])
    def test_form_d(self, x):
        comps = Counted(generic_form(N, 1, 1).comps)
        Form(N, 1, comps).d()(x)
        assert comps.calls == 1

    @pytest.mark.parametrize("x", [POINT, BLOCK], ids=["point", "block"])
    def test_matrix_form_d(self, x):
        forms = [[generic_form(N, 1, 10 * i + j) for j in range(3)] for i in range(3)]
        ev = Counted(MatrixForm.from_forms(forms).eval)
        MatrixForm(N, 1, 3, ev).d().eval(x)
        assert ev.calls == 1

    @pytest.mark.parametrize("x", [POINT, BLOCK], ids=["point", "block"])
    def test_jacobian(self, x):
        fn = Counted(generic_map(N, 3, 2).fn)
        SmoothMap(N, 3, fn).jacobian(x)
        assert fn.calls == 1

    def test_nested_d(self):
        comps = Counted(generic_form(N, 0, 3).comps)
        Form(N, 0, comps).d().d()(BLOCK)
        assert comps.calls == 1

    def test_pullback_under_d(self):
        phi = generic_map(3, N, 4)
        fn = Counted(phi.fn)
        generic_form(N, 1, 5).pullback(SmoothMap(3, N, fn)).d()(BLOCK[:3])
        # the point and the Jacobian come from the same dual pass
        assert fn.calls == 1

    def test_split_connection_d_evaluates_the_projector_once_per_use(self):
        # P and dP of the potential P dP + P A P + Q dQ + Q A Q come from one
        # lifted pass of the projector; differentiating the potential once
        # more adds no pass
        def projector(x):
            s = [dual.cos(x[0]) + x[1], dual.sin(x[2]) - x[3], 1.0 + x[0] * x[3]]
            norm2 = sum(v * v for v in s)
            return [[s[i] * s[j] / norm2 for j in range(3)] for i in range(3)]

        proj = Counted(projector)
        split = projected_connection(Connection.flat(3, N), Subbundle(3, proj))
        split.A.eval(BLOCK)
        assert proj.calls == 1
        proj.calls = 0
        split.A.d().eval(BLOCK)
        assert proj.calls == 1

    def test_frame_split_connection_evaluates_each_frame_once_per_use(self):
        def unit(x):
            return [0.0, dual.cos(x[0]), dual.sin(x[0]) * dual.cos(x[1]),
                    dual.sin(x[0]) * dual.sin(x[1])]

        frames = [Counted(lambda x: [1.0, 0.0, 0.0, 0.0]), Counted(unit)]
        split = frame_split_connection(Connection.flat(4, N), frames)
        split.A.eval(BLOCK)
        assert [f.calls for f in frames] == [1, 1]
        for f in frames:
            f.calls = 0
        split.A.d().eval(BLOCK)
        assert [f.calls for f in frames] == [1, 1]

    @pytest.mark.parametrize("x", [POINT, BLOCK], ids=["point", "block"])
    def test_curvature_and_transgressions_run_each_potential_once(self, x):
        # A and dA come from one lifted pass (MatrixForm.eval_with_d)
        evs = [Counted(MatrixForm.from_forms(
            [[generic_form(N, 1, 100 * k + 4 * i + j) for j in range(4)]
             for i in range(4)]).eval) for k in range(3)]
        conns = [Connection(4, MatrixForm(N, 1, 4, ev)) for ev in evs]
        for form, calls in ((conns[0].curvature().eval, [1, 0, 0]),
                            (transgression(*conns[:2]), [1, 1, 0]),
                            (secondary_transgression(*conns), [1, 1, 1])):
            for ev in evs:
                ev.calls = 0
            form(x)
            assert [ev.calls for ev in evs] == calls

    def test_parallel_defect_evaluates_the_section_once(self):
        section = Counted(lambda x: [dual.cos(x[0]), dual.sin(x[0]), 0.0])
        _, vals = _parallel_defect(Connection.flat(3, N), section, BLOCK)
        assert section.calls == 1
        # the values it hands back are those of a plain call, bit for bit
        assert_identical(vals, section.fn(BLOCK))

    def test_persistent_section_residual_evaluates_each_section_once(self, monkeypatch):
        # the slice comparison of the tautological section and the fiber
        # part reads the values of their parallelism checks; e0 is checked
        # against two connections, so it runs once for each
        sc = ThomScenario(make_bundle("odd-rank3-point"))
        want = persistent_section_residual(sc)
        frame = tuple(Counted(f) for f in sc.triple.plane_frame)
        monkeypatch.setattr(sc.triple, "plane_frame", frame)
        # the tautological section is a local closure; its one sqrt counts it
        sqrt = Counted(dual.sqrt)
        monkeypatch.setattr(thom, "dual", SimpleNamespace(**{**vars(dual), "sqrt": sqrt}))
        assert persistent_section_residual(sc) == want
        assert [f.calls for f in frame] == [2, 1]
        assert sqrt.calls == 1


class TestAgainstScalarSeeds:
    @pytest.mark.parametrize("p", [0, 1, 2])
    def test_d_at_a_float_point(self, p):
        form = generic_form(N, p, 20 + p)
        got = form.d()(POINT)
        assert all(type(v) is float for v in got)
        assert_identical(got, oracle_d(form)(POINT))

    @pytest.mark.parametrize("p", [0, 1, 2])
    def test_d_on_a_block(self, p):
        form = generic_form(N, p, 30 + p)
        got = form.d()(BLOCK)
        assert all(v.shape == (5,) for v in got)
        assert_identical(got, oracle_d(form)(BLOCK))

    @pytest.mark.parametrize("x", [POINT, BLOCK], ids=["point", "block"])
    def test_jacobian(self, x):
        phi = generic_map(N, 3, 40)
        got = phi.jacobian(x)[1]
        want = oracle_jacobian(phi, x)
        assert_identical(got, want)
        if x is POINT:
            assert all(type(v) is float for row in got for v in row)
        else:
            assert all(v.shape == (5,) for row in got for v in row)

    @pytest.mark.parametrize("x", [POINT[:2], BLOCK[:2], lift_point(BLOCK[:2], range(2))],
                             ids=["point", "block", "lifted"])
    def test_jacobian_values_are_the_plain_values(self, x):
        phi = stereographic(2)
        assert_identical(phi.jacobian(x)[0], phi(x))

    def test_constant_directions_stay_floats(self):
        # a linear map has a constant Jacobian, a float per entry on a block
        phi = SmoothMap(2, 2, lambda u: [u[0] + 2.0 * u[1], -u[0]])
        got = phi.jacobian(as_block([[0.1, 0.2], [0.3, 0.4]]))[1]
        assert_identical(got, [[1.0, 2.0], [-1.0, 0.0]])

    @pytest.mark.parametrize("x", [POINT, BLOCK], ids=["point", "block"])
    def test_matrix_form_d(self, x):
        forms = [[generic_form(N, 1, 50 + 3 * i + j) for j in range(3)] for i in range(3)]
        mf = MatrixForm.from_forms(forms)
        assert_identical(mf.d().eval(x), oracle_matrix_d(mf).eval(x))

    @pytest.mark.parametrize("x", [POINT, BLOCK], ids=["point", "block"])
    def test_nested_d(self, x):
        f, g = generic_form(N, 1, 60), generic_form(N, 1, 61)
        got = f.d().wedge(g).d()(x)
        assert_identical(got, oracle_d(oracle_d(f).wedge(g))(x))

    @pytest.mark.parametrize("x", [POINT, BLOCK], ids=["point", "block"])
    def test_d_of_a_pullback(self, x):
        f, phi = generic_form(3, 1, 70), generic_map(N, 3, 71)
        got = f.d().pullback(phi).d()(x)
        want = oracle_d(oracle_pullback(oracle_d(f), phi))(x)
        assert_identical(got, want)

    @pytest.mark.parametrize("x", [POINT, BLOCK], ids=["point", "block"])
    def test_nested_d_leaves_no_singleton_axis(self, x):
        # the inner d as an outer d sees it: at a point lifted one level up
        form = generic_form(N, 1, 80)
        lifted = lift_point(x, range(N))
        got = form.d()(lifted)
        want = oracle_d(form)(scalar_lift(x, 2))
        shapes = [(), (N,)] if x is POINT else [(5,), (N, 5)]
        for v, w in zip(got, want):
            assert isinstance(v, Dual)
            assert [np.shape(s) for s in slots(v)] == shapes
            assert_identical(v.a, w.a)
            assert_identical(dual.directions(v.b, N)[2], w.b)

    def test_matrix_d_at_a_lifted_point_matches_per_direction(self):
        forms = [[generic_form(N, 0, 90 + 2 * i + j) for j in range(2)] for i in range(2)]
        mf = MatrixForm.from_forms(forms)
        got = mf.d().eval(lift_point(BLOCK, range(N)))
        got_dirs = [[[dual.directions(v.b, N) for v in e] for e in row] for row in got]
        for j in range(N):
            want = oracle_matrix_d(mf).eval(scalar_lift(BLOCK, j))
            for r in range(2):
                for c in range(2):
                    for v, dirs, w in zip(got[r][c], got_dirs[r][c], want[r][c]):
                        assert_identical(v.a, w.a)
                        assert_identical(dirs[j], w.b)


def test_lift_point_seeds_are_built_once():
    a, b = lift_point(BLOCK, range(N)), lift_point(BLOCK, range(N))
    assert all(u.b is v.b for u, v in zip(a, b))
    assert a[1].b.shape == (N, 1)
    assert list(a[1].b[:, 0]) == [0.0, 1.0, 0.0, 0.0]
    assert not a[1].b.flags.writeable
    # a nested lift puts the new axis in front of the inner one and the nodes
    assert lift_point(a, range(N))[0].b.shape == (N, 1, 1)


def per_j_direction(x, j: int, levels: int = 0):
    """Direction j alone: the per-j read that ``dual.directions`` replaces,
    kept as its oracle."""
    return _per_j(x, j, levels, 0)


def _per_j(x, j, drop, above):
    if isinstance(x, Dual):
        return Dual(_per_j(x.a, j, drop, above + 1),
                    _per_j(x.b, j, min(drop, above), above + 1))
    if not isinstance(x, np.ndarray):
        return x
    v = x[j]
    if v.size == 1:
        return v.item()
    while drop and v.shape[0] == 1:
        v = v[0]
        drop -= 1
    return v


class TestDirections:
    """``dual.directions`` reads every direction in one walk, as the per-j reads do."""

    @staticmethod
    def tangents(x):
        return [deriv(v) for v in generic_form(N, 1, 95)(lift_point(x, range(N)))]

    @pytest.mark.parametrize("x", [POINT, BLOCK, lift_point(POINT, range(N)),
                                   lift_point(BLOCK, range(N))],
                             ids=["point", "block", "lifted-point", "lifted-block"])
    def test_equals_per_j_reads(self, x):
        levels = max(dual.depth(v) for v in x)
        for t in self.tangents(x):
            got = dual.directions(t, N, levels)
            assert len(got) == N
            for j in range(N):
                assert_identical(got[j], per_j_direction(t, j, levels))

    def test_size_one_rows_become_floats(self):
        # at a float point each direction of a first-order tangent is one entry
        for t in self.tangents(POINT):
            assert all(type(v) is float for v in dual.directions(t, N))

    def test_singleton_axes_are_dropped(self):
        # one level below, the seed leaves a singleton axis in front of the
        # nodes in the value slot of the outer tangent: (N, 1, 5) -> (5,)
        t = self.tangents(lift_point(BLOCK, range(N)))[0]
        assert t.a.shape == (N, 1, 5)
        got = dual.directions(t, N, 1)
        assert [np.shape(s) for s in slots(got[2])] == [(5,), (N, 5)]

    def test_constants_repeat(self):
        assert dual.directions(0.0, 3) == [0.0, 0.0, 0.0]
        got = dual.directions(Dual(2.0, np.arange(3.0)), 3)
        assert_identical(got, [Dual(2.0, 0.0), Dual(2.0, 1.0), Dual(2.0, 2.0)])
