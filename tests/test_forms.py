"""Exterior algebra identities at explicit points, plus frozen hand values."""

import math
import random

import numpy as np
import pytest

from cgbv.chern_weil import Connection, pf_form
from cgbv.dual import Dual
from cgbv.errors import ShapeError
from cgbv.forms import (BLOCK, Form, MatrixForm, SmoothMap, as_block, combo_index,
                        combos, det, form_sup, is_zero, mat_mul_wedge, merge_sign,
                        minus, plus, sup_abs, times, wedge_coeffs, wedge_table,
                        zero_coeffs)


def exponents(n: int) -> list:
    """Exponents of the monomials of degree <= 3 on R^n, in lexicographic order."""
    if n == 0:
        return [()]
    return [(e,) + rest for e in range(4) for rest in exponents(n - 1)
            if e + sum(rest) <= 3]


def random_polynomial_form(n: int, p: int, rng: random.Random) -> Form:
    """Form whose coefficients are degree <= 3 polynomials, coeffs in [-1, 1].

    Per coefficient, four terms, each its exponents (one ``rng.choice`` of
    :func:`exponents`) and then its coefficient.
    """
    ncomp = len(combos(n, p))
    expos = exponents(n)
    monos = []
    for _ in range(ncomp):
        terms = []
        for _ in range(4):
            expo = rng.choice(expos)
            terms.append((rng.uniform(-1, 1), expo))
        monos.append(terms)

    def comps(x):
        out = []
        for terms in monos:
            acc = 0.0
            for c, expo in terms:
                t = c
                for xi, e in zip(x, expo):
                    for _ in range(e):
                        t = t * xi
                acc = acc + t
            out.append(acc)
        return out

    return Form(n, p, comps)


class TestTables:
    def test_combos_lexicographic(self):
        assert combos(3, 2) == ((0, 1), (0, 2), (1, 2))
        assert combos(4, 0) == ((),)

    def test_merge_sign(self):
        assert merge_sign((0,), (1,)) == 1
        assert merge_sign((1,), (0,)) == -1
        assert merge_sign((0, 2), (1, 3)) == -1  # one inversion: 2 before 1

    def test_wedge_anticommutes_on_basis(self):
        # dx ^ dy = -(dy ^ dx) in R^2
        a = [1.0, 0.0]
        b = [0.0, 1.0]
        assert wedge_coeffs(2, 1, 1, a, b) == [1.0]
        assert wedge_coeffs(2, 1, 1, b, a) == [-1.0]

    SHAPES = [(4, 1, 1), (4, 1, 2), (4, 2, 2), (5, 2, 1), (3, 0, 2), (4, 2, 0)]

    @pytest.mark.parametrize("n, p, q", SHAPES)
    def test_grouped_table_is_the_flat_table_in_order(self, n, p, q):
        grouped = [(iI, iJ, iK, sign) for iI, row in wedge_table(n, p, q)
                   for iJ, iK, sign in row]
        assert grouped == flat_wedge_table(n, p, q)

    @pytest.mark.parametrize("n, p, q", SHAPES)
    def test_grouped_wedge_is_bit_identical_to_the_table_loop(self, n, p, q):
        rng = random.Random(7 * n + 3 * p + q)

        def coeff():
            kind = rng.randrange(4)
            if kind == 0:
                return 0.0  # a structural zero
            if kind == 1:
                return rng.uniform(-1, 1)
            arr = np.array([rng.uniform(-1, 1) for _ in range(3)])
            return arr if kind == 2 else Dual(arr, rng.uniform(-1, 1) * arr)

        for _ in range(20):
            a = [coeff() for _ in combos(n, p)]
            b = [coeff() for _ in combos(n, q)]
            got, want = wedge_coeffs(n, p, q, a, b), table_wedge(n, p, q, a, b)
            for g, w in zip(got, want):
                assert type(g) is type(w)
                for u, v in zip((g.a, g.b) if isinstance(g, Dual) else (g,),
                                (w.a, w.b) if isinstance(w, Dual) else (w,)):
                    assert np.array_equal(u, v)


def flat_wedge_table(n: int, p: int, q: int) -> list:
    """Entries (iI, iJ, iK, sign) with dx_I ^ dx_J = sign * dx_K, ungrouped."""
    idx = combo_index(n, p + q)
    return [(iI, iJ, idx[tuple(sorted(I + J))], merge_sign(I, J))
            for iI, I in enumerate(combos(n, p))
            for iJ, J in enumerate(combos(n, q)) if not set(I) & set(J)]


def table_wedge(n: int, p: int, q: int, a: list, b: list) -> list:
    """a ^ b by one loop over the flat table: the kernel the grouped one replaces."""
    out = zero_coeffs(n, p + q)
    live_a = [not is_zero(v) for v in a]
    live_b = [not is_zero(v) for v in b]
    for iI, iJ, iK, sign in flat_wedge_table(n, p, q):
        if live_a[iI] and live_b[iJ]:
            t = a[iI] * b[iJ]
            out[iK] = plus(out[iK], t) if sign > 0 else minus(out[iK], t)
    return out


class TestFormOperations:
    def test_d_of_function(self):
        # d(x^2 y) = 2xy dx + x^2 dy, at (1, 2): (4, 1)
        f = Form.scalar(2, lambda x: x[0] ** 2 * x[1])
        vals = f.d()([1.0, 2.0])
        assert vals[0] == pytest.approx(4.0, abs=1e-14)
        assert vals[1] == pytest.approx(1.0, abs=1e-14)

    def test_wedge_hand_value(self):
        # (x dy) ^ (y dx) = -xy dx^dy
        a = Form(2, 1, lambda x: [0.0, x[0]])
        b = Form(2, 1, lambda x: [x[1], 0.0])
        vals = a.wedge(b)([3.0, 5.0])
        assert vals[0] == pytest.approx(-15.0, abs=1e-13)

    def test_d_squared_is_zero(self):
        rng = random.Random(7)
        for n, p in [(2, 0), (3, 0), (3, 1), (4, 1), (4, 2)]:
            w = random_polynomial_form(n, p, rng)
            ddw = w.d().d()
            for _ in range(5):
                x = [rng.uniform(-1, 1) for _ in range(n)]
                assert all(abs(v) < 1e-12 for v in ddw(x))

    def test_graded_commutativity(self):
        rng = random.Random(13)
        for n, p, q in [(3, 1, 1), (4, 1, 2), (4, 2, 2), (5, 1, 3)]:
            a = random_polynomial_form(n, p, rng)
            b = random_polynomial_form(n, q, rng)
            sign = (-1) ** (p * q)
            lhs = a.wedge(b)
            rhs = b.wedge(a)
            for _ in range(5):
                x = [rng.uniform(-1, 1) for _ in range(n)]
                for u, v in zip(lhs(x), rhs(x)):
                    assert u == pytest.approx(sign * v, abs=1e-12)

    def test_leibniz_rule(self):
        # d(a^b) = da^b + (-1)^p a^db, checked at random points
        rng = random.Random(29)
        for n, p, q in [(3, 1, 1), (4, 1, 2), (4, 2, 1)]:
            a = random_polynomial_form(n, p, rng)
            b = random_polynomial_form(n, q, rng)
            lhs = a.wedge(b).d()
            rhs = a.d().wedge(b) + a.wedge(b.d()).smul((-1.0) ** p)
            for _ in range(5):
                x = [rng.uniform(-1, 1) for _ in range(n)]
                for u, v in zip(lhs(x), rhs(x)):
                    assert u == pytest.approx(v, abs=1e-11)

    def test_top_degree_d_is_zero_object(self):
        w = random_polynomial_form(3, 3, random.Random(1))
        dw = w.d()
        assert dw.p == 4
        assert dw([0.2, 0.3, 0.4]) == []

    def test_degree_validation(self):
        with pytest.raises(ShapeError):
            Form(2, 1, lambda x: [0.0])([0.0, 0.0])
        # degrees below 0 or above the chart dimension are the zero space:
        # no components, and a closure that returns some still raises
        assert Form(2, 3, lambda x: [])([0.1, 0.2]) == []
        below = Form(2, -1, lambda x: [])
        assert below.p == -1 and below([0.1, 0.2]) == []
        with pytest.raises(ShapeError):
            Form(2, -1, lambda x: [0.0])([0.1, 0.2])
        # d of the zero space below degree 0 is the zero 0-form
        d = below.d()
        assert (d.n, d.p) == (2, 0) and d([0.1, 0.2]) == [0.0]


class TestPullback:
    def test_circle_angular_form(self):
        # phi(t) = (cos t, sin t) pulls x dy - y dx back to dt
        from cgbv.dual import cos as dcos, sin as dsin
        phi = SmoothMap(1, 2, lambda t: [dcos(t[0]), dsin(t[0])])
        w = Form(2, 1, lambda x: [-x[1], x[0]])
        pulled = w.pullback(phi)
        for t0 in (0.0, 0.9, 2.4, -1.1):
            assert pulled([t0])[0] == pytest.approx(1.0, abs=1e-13)

    def test_pullback_commutes_with_d(self):
        from cgbv.dual import cos as dcos, sin as dsin
        rng = random.Random(3)
        phi = SmoothMap(2, 3, lambda u: [u[0] * u[1], dsin(u[0]), u[1] ** 2 + dcos(u[1])])
        for p in (0, 1):
            w = random_polynomial_form(3, p, rng)
            lhs = w.d().pullback(phi)
            rhs = w.pullback(phi).d()
            for _ in range(5):
                u = [rng.uniform(-1, 1), rng.uniform(-1, 1)]
                for a, b in zip(lhs(u), rhs(u)):
                    assert a == pytest.approx(b, abs=1e-11)

    def test_pullback_respects_wedge(self):
        rng = random.Random(31)
        phi = SmoothMap(3, 3, lambda u: [u[0] + u[1] * u[2], u[1] - u[0] ** 2, u[2]])
        a = random_polynomial_form(3, 1, rng)
        b = random_polynomial_form(3, 1, rng)
        lhs = a.wedge(b).pullback(phi)
        rhs = a.pullback(phi).wedge(b.pullback(phi))
        for _ in range(5):
            u = [rng.uniform(-0.5, 0.5) for _ in range(3)]
            for x, y in zip(lhs(u), rhs(u)):
                assert x == pytest.approx(y, abs=1e-11)

    def test_degree_above_source_dimension_vanishes(self):
        phi = SmoothMap(1, 3, lambda t: [t[0], t[0] ** 2, t[0] ** 3])
        w = random_polynomial_form(3, 2, random.Random(5))
        pulled = w.pullback(phi)
        assert all(v == 0.0 for v in pulled([0.37]))


class TestSmoothMap:
    def test_jacobian_hand_value(self):
        phi = SmoothMap(2, 2, lambda u: [u[0] * u[1], u[0] + 3.0 * u[1]])
        J = phi.jacobian([2.0, 5.0])[1]
        assert J == [[5.0, 2.0], [1.0, 3.0]]

    def test_compose(self):
        f = SmoothMap(1, 2, lambda t: [t[0], t[0] ** 2])
        g = SmoothMap(2, 1, lambda u: [u[0] + u[1]])
        h = g.compose(f)
        assert h([3.0])[0] == pytest.approx(12.0)
        assert h.jacobian([3.0])[1][0][0] == pytest.approx(7.0)

    def test_values_from_jac_alone(self):
        phi = SmoothMap(1, 2, jac=lambda t: ([t[0], 2.0 * t[0]], [[1.0], [2.0]]))
        assert phi([1.5]) == [1.5, 3.0]
        assert phi.compose(SmoothMap.identity(1))([1.5]) == [1.5, 3.0]
        with pytest.raises(TypeError):
            SmoothMap(1, 2)


class TestDeterminant:
    @pytest.mark.parametrize("size", [1, 2, 3, 4, 5])
    def test_against_numpy(self, size):
        import numpy as np
        rng = random.Random(size)
        M = [[rng.uniform(-2, 2) for _ in range(size)] for _ in range(size)]
        assert det(M) == pytest.approx(float(np.linalg.det(np.array(M))), rel=1e-10)


class TestMatrixForm:
    def test_wedge_is_matrix_product(self):
        # constant matrices of 0-forms multiply like plain matrices
        A = MatrixForm(2, 0, 2, lambda x: [[[1.0], [2.0]], [[3.0], [4.0]]])
        B = MatrixForm(2, 0, 2, lambda x: [[[0.0], [1.0]], [[1.0], [0.0]]])
        C = A.wedge(B).eval([0.0, 0.0])
        assert [[c[0] for c in row] for row in C] == [[2.0, 1.0], [4.0, 3.0]]

    def test_d_matches_entrywise(self):
        rng = random.Random(17)
        forms = [[random_polynomial_form(3, 1, rng) for _ in range(2)] for _ in range(2)]
        A = MatrixForm.from_forms(forms)
        dA = A.d()
        for _ in range(4):
            x = [rng.uniform(-1, 1) for _ in range(3)]
            whole = dA.eval(x)
            for i in range(2):
                for j in range(2):
                    single = forms[i][j].d()(x)
                    for u, v in zip(whole[i][j], single):
                        assert u == pytest.approx(v, abs=1e-12)

    def test_pullback_entrywise(self):
        from cgbv.dual import sin as dsin
        phi = SmoothMap(2, 2, lambda u: [u[0] ** 2, dsin(u[1])])
        rng = random.Random(23)
        forms = [[random_polynomial_form(2, 1, rng) for _ in range(2)] for _ in range(2)]
        A = MatrixForm.from_forms(forms)
        pulled = A.pullback(phi)
        for _ in range(3):
            u = [rng.uniform(-1, 1), rng.uniform(-1, 1)]
            whole = pulled.eval(u)
            for i in range(2):
                for j in range(2):
                    single = forms[i][j].pullback(phi)(u)
                    for a, b in zip(whole[i][j], single):
                        assert a == pytest.approx(b, abs=1e-12)

    @pytest.mark.parametrize("m, p", [(2, 1), (2, 2), (3, 1), (3, 2)])
    def test_pullback_builds_one_minors_table(self, m, p, monkeypatch):
        # one table of the map's minors, each determinant taken once, serves
        # all m * m entries, bit for bit the entries' own pullbacks
        from cgbv import forms as forms_module
        from cgbv.dual import sin as dsin
        phi = SmoothMap(3, 3, lambda u: [u[0] * u[1], dsin(u[2]), u[1] + u[2] ** 2])
        rng = random.Random(29 + m + p)
        grid = [[random_polynomial_form(3, p, rng) for _ in range(m)] for _ in range(m)]
        pulled = MatrixForm.from_forms(grid).pullback(phi)
        u = [0.3, -0.4, 0.8]
        singles = [[f.pullback(phi)(u) for f in row] for row in grid]
        dets = []
        det_fn = forms_module.det
        monkeypatch.setattr(forms_module, "det", lambda M: dets.append(1) or det_fn(M))
        assert pulled.eval(u) == singles
        assert len(dets) == len(combos(3, p)) ** 2
        tables = []
        minors = forms_module.minors
        monkeypatch.setattr(forms_module, "minors",
                            lambda *args: tables.append(1) or minors(*args))
        pulled.eval(u)
        assert len(tables) == 1


def test_sup_abs_keeps_non_finite_values():
    assert sup_abs([]) == 0.0
    assert sup_abs([0.5, -2.0, 1.0]) == 2.0
    assert math.isnan(sup_abs([0.0, 3.0, math.nan, 1.0]))
    assert sup_abs([1.0, -math.inf, 2.0]) == math.inf


def test_sup_abs_reduces_arrays_entry_by_entry():
    assert sup_abs([np.array([0.5, -3.0]), 1.0]) == 3.0
    assert isinstance(sup_abs([np.array([0.5, -3.0])]), float)
    assert sup_abs([np.array([])]) == 0.0
    assert sup_abs([2.0, np.array([]), -1.0]) == 2.0
    # NaN after finite entries of the same array, and after a finite float
    assert math.isnan(sup_abs([4.0, np.array([1.0, 2.0, math.nan]), 0.5]))
    assert sup_abs([np.array([1.0, -math.inf]), 2.0]) == math.inf


class Untouchable:
    """A coefficient that fails the test if it is ever multiplied."""

    def __mul__(self, other):
        raise AssertionError("a structural zero was multiplied")

    __rmul__ = __mul__


def zero_forms(S):
    """A scalar matrix as a matrix of 0-forms."""
    return [[[s] for s in row] for row in S]


class TestStructuralZeros:
    def test_only_the_literal_float_counts(self):
        assert is_zero(0.0) and is_zero(-0.0)
        assert not is_zero(np.zeros(3))
        assert not is_zero(Dual(0.0, 0.0))
        assert not is_zero(1e-300)
        assert not is_zero(math.nan)

    def test_sum_with_zero_returns_the_other_operand(self):
        a = Dual(np.ones(3), np.ones(3))
        assert plus(0.0, a) is a and plus(a, 0.0) is a and minus(a, 0.0) is a
        assert np.array_equal(minus(0.0, a).a, -np.ones(3))
        assert times(0.0, Untouchable()) == 0.0 and times(Untouchable(), 0.0) == 0.0

    def test_products_skip_zero_in_either_factor(self):
        U = Untouchable()
        assert wedge_coeffs(2, 1, 1, [0.0, 0.0], [U, U]) == [0.0]
        assert wedge_coeffs(2, 1, 1, [U, U], [0.0, 0.0]) == [0.0]
        assert wedge_coeffs(2, 1, 1, [2.0, 0.0], [U, 3.0]) == [6.0]
        # scalars as 0-forms, on either side of the product
        assert mat_mul_wedge(2, 0, 1, [[[0.0]]], [[[U, U]]]) == [[[0.0, 0.0]]]
        assert mat_mul_wedge(2, 0, 1, [[[U]]], [[[0.0, 0.0]]]) == [[[0.0, 0.0]]]
        assert mat_mul_wedge(1, 1, 0, [[[U]]], [[[0.0]]]) == [[[0.0]]]
        assert mat_mul_wedge(1, 1, 0, [[[0.0]]], [[[U]]]) == [[[0.0]]]

    def test_zero_matrix_product_multiplies_nothing(self, monkeypatch):
        calls = [0]
        mul = Dual.__mul__

        def counting(a, b):
            calls[0] += 1
            return mul(a, b)

        monkeypatch.setattr(Dual, "__mul__", counting)
        monkeypatch.setattr(Dual, "__rmul__", counting)
        S0 = zero_forms([[Dual(np.ones(2), np.ones(2)) for _ in range(3)] for _ in range(3)])
        M = [[[0.0, 0.0] for _ in range(3)] for _ in range(3)]
        assert mat_mul_wedge(2, 0, 1, S0, M) == M
        assert mat_mul_wedge(2, 1, 0, M, S0) == M
        assert calls[0] == 0

    def test_scalar_products_match_an_explicit_sum_bit_for_bit(self):
        rng = np.random.default_rng(3)

        def entry():
            return Dual(rng.uniform(-1, 1, 4), rng.uniform(-1, 1, (3, 4)))

        # three or more live terms per entry, so that the summation order shows
        m, n, p = 4, 3, 1
        S = [[0.0 if (i + j) % 4 == 0 else entry() for j in range(m)] for i in range(m)]
        M = [[[0.0 if (i + j + c) % 5 == 1 else entry() for c in range(n)]
              for j in range(m)] for i in range(m)]

        def explicit(term):
            # sum_j term(i, j, k, c) in ascending j, structural zeros skipped
            out = [[[0.0] * n for _ in range(m)] for _ in range(m)]
            for i in range(m):
                for k in range(m):
                    for j in range(m):
                        for c in range(n):
                            out[i][k][c] = plus(out[i][k][c], term(i, j, k, c))
            return out

        left = explicit(lambda i, j, k, c: times(S[i][j], M[j][k][c]))
        right = explicit(lambda i, j, k, c: times(M[i][j][c], S[j][k]))
        for got, ref in ((mat_mul_wedge(n, 0, p, zero_forms(S), M), left),
                         (mat_mul_wedge(n, p, 0, M, zero_forms(S)), right)):
            for u, v in ((u, v) for r1, r2 in zip(got, ref) for e1, e2 in zip(r1, r2)
                         for u, v in zip(e1, e2)):
                assert type(u) is type(v)
                if isinstance(u, Dual):
                    assert np.array_equal(u.a, v.a) and np.array_equal(u.b, v.b)
                else:
                    assert u == v == 0.0

    def test_nan_in_a_live_factor_survives(self):
        v = np.array([1.0, math.nan])
        (w,) = wedge_coeffs(2, 1, 1, [v, 0.0], [0.0, v])
        assert w[0] == 1.0 and math.isnan(w[1])


class TestEvalWithD:
    def test_values_bit_for_bit_and_d_from_one_pass(self):
        rng = random.Random(19)
        forms = [[random_polynomial_form(3, 1, rng) for _ in range(2)] for _ in range(2)]
        A = MatrixForm.from_forms(forms)
        calls = []
        counted = MatrixForm(3, 1, 2, lambda x: calls.append(1) or A.eval(x))
        x = as_block([[rng.uniform(-1, 1) for _ in range(3)] for _ in range(5)])
        vals, dA = counted.eval_with_d(x)
        assert len(calls) == 1
        plain = A.eval(x)
        assert all(np.array_equal(u, v) for r1, r2 in zip(vals, plain)
                   for e1, e2 in zip(r1, r2) for u, v in zip(e1, e2))
        ref = A.d().eval(x)
        assert all(np.array_equal(u, v) for r1, r2 in zip(dA, ref)
                   for e1, e2 in zip(r1, r2) for u, v in zip(e1, e2))

    def test_closed_form_d_goes_through_eval_and_is_count_checked(self):
        calls = []

        def ev(x, with_d=False):
            calls.append(with_d)
            A = [[[0.0, x[0]], [x[1], 0.0]], [[-x[1], 0.0], [0.0, -x[0]]]]
            return (A, [[[1.0], [-1.0]], [[1.0], [-1.0]]]) if with_d else A

        A = MatrixForm(2, 1, 2, ev, closed_d=True)
        vals, dA = A.eval_with_d([0.5, 0.25])
        assert calls == [True] and vals == ev([0.5, 0.25])
        assert A.d().eval([0.5, 0.25]) == dA
        bad = MatrixForm(2, 1, 2, lambda x, with_d=False: (ev(x), ev(x)) if with_d
                         else ev(x), closed_d=True)
        with pytest.raises(ShapeError):
            bad.eval_with_d([0.5, 0.25])

    def test_top_degree_has_zero_d(self):
        A = MatrixForm(2, 2, 2, lambda x: [[[x[0]], [1.0]], [[2.0], [x[1]]]])
        vals, dA = A.eval_with_d([0.5, 0.25])
        assert vals == [[[0.5], [1.0]], [[2.0], [0.25]]]
        assert dA == [[[], []], [[], []]]


class TestFormSup:
    """``form_sup`` reduces every coefficient over the points, block by block."""

    pts = [[0.01 * i, 1.0] for i in range(2 * BLOCK + 1)]

    def spied(self, lengths):
        def comps(x):
            lengths.append(x[0].shape[-1])
            return [x[0], -2.0 * x[0]]
        return Form(2, 1, comps)

    def test_blocks_hold_at_most_BLOCK_points(self):
        lengths = []
        assert form_sup(self.spied(lengths), self.pts) == 2.0 * self.pts[-1][0]
        assert lengths == [512, 512, 1]
        lengths.clear()
        form_sup(self.spied(lengths), self.pts[:BLOCK])
        assert lengths == [BLOCK]

    def test_nan_in_a_later_block_gives_nan(self):
        def comps(x):
            return [np.where(x[0] == self.pts[0][0], math.nan, x[0])]
        # the first two blocks are finite and hold the larger values; the
        # NaN is the one point of the last block
        assert math.isnan(form_sup(Form(2, 0, comps), self.pts[::-1]))

    def test_no_points_give_zero_without_evaluating(self):
        def comps(x):
            raise AssertionError("evaluated")
        assert form_sup(Form(2, 0, comps), []) == 0.0

    def test_degree_mismatch_raises_before_evaluating(self):
        lengths = []
        zero = Form(2, 0, lambda x: [0.0])
        with pytest.raises(ShapeError):
            form_sup(self.spied(lengths) - zero, self.pts)
        assert lengths == []

    def test_operand_with_extra_coefficients_raises(self):
        # a pairing of coefficient lists would drop the third one silently
        extra = Form(2, 1, lambda x: [x[0], x[0], x[0]])
        with pytest.raises(ShapeError):
            form_sup(extra - self.spied([]), self.pts)


class TestOperandCounts:
    """Wedge, d and pullback read an operand through its count check, so a
    closure that returns too many coefficients raises instead of being cut."""

    extra = Form(3, 1, lambda x: [1.0, 2.0, 3.0, 99.0])
    x = [0.1, 0.2, 0.3]

    def test_wedge_raises(self):
        b = Form(3, 1, lambda x: [1.0, 0.0, 0.0])
        with pytest.raises(ShapeError):
            self.extra.wedge(b)(self.x)
        with pytest.raises(ShapeError):
            b.wedge(self.extra)(self.x)

    def test_d_raises(self):
        with pytest.raises(ShapeError):
            self.extra.d()(self.x)

    def test_pullback_raises(self):
        with pytest.raises(ShapeError):
            self.extra.pullback(SmoothMap.identity(3))(self.x)


def potential_on_r3(entry01) -> MatrixForm:
    """2 x 2 matrix of 1-forms on R^3 whose entry (0, 1) returns ``entry01``."""
    return MatrixForm(3, 1, 2, lambda x: [[[0.0, 0.0, 0.0], list(entry01)],
                                          [[-1.0, -2.0, -3.0], [0.0, 0.0, 0.0]]])


class TestMatrixOperandCounts:
    """A matrix form's stored ``eval`` checks its rows, entries and
    coefficients, so no operation reads past or drops part of an entry."""

    x = [0.1, 0.2, 0.3]
    extra = potential_on_r3([1.0, 2.0, 3.0, 99.0])

    def test_sum_raises(self):
        with pytest.raises(ShapeError):
            (self.extra + MatrixForm.zero(3, 1, 2)).eval(self.x)

    def test_d_raises(self):
        with pytest.raises(ShapeError):
            self.extra.d().eval(self.x)

    def test_eval_with_d_raises(self):
        with pytest.raises(ShapeError):
            self.extra.eval_with_d(self.x)

    def test_curvature_raises(self):
        with pytest.raises(ShapeError):
            Connection(2, self.extra).curvature().eval(self.x)

    def test_pf_form_raises(self):
        with pytest.raises(ShapeError):
            pf_form(Connection(2, self.extra))(self.x)

    def test_missing_rows_entries_and_coefficients_raise(self):
        for A in ([[[0.0] * 3, [0.0] * 3]],
                  [[[0.0] * 3], [[0.0] * 3, [0.0] * 3]],
                  [[[0.0] * 3, [0.0] * 2], [[0.0] * 3, [0.0] * 3]]):
            with pytest.raises(ShapeError):
                MatrixForm(3, 1, 2, lambda x, A=A: A).eval(self.x)

    def test_right_counts_pass_and_eval_stays_rebindable(self):
        a = potential_on_r3([1.0, 2.0, 3.0])
        assert a.eval(self.x)[0][1] == [1.0, 2.0, 3.0]
        inner = a.eval
        a.eval = lambda x: inner(x)
        assert (a + MatrixForm.zero(3, 1, 2)).eval(self.x)[1][0] == [-1.0, -2.0, -3.0]


def test_as_block_gives_one_full_length_array_per_coordinate():
    block = as_block([[0.0, 1.0], [0.0, 2.5], [0.0, -1.0]])
    assert [c.tolist() for c in block] == [[0.0, 0.0, 0.0], [1.0, 2.5, -1.0]]
    # a block of points evaluates as each point does
    f = Form(2, 1, lambda x: [x[0] * x[1], 2.0])
    assert f(block)[0].tolist() == [f(x)[0] for x in ([0.0, 1.0], [0.0, 2.5], [0.0, -1.0])]
    assert as_block([[], []]) == []
