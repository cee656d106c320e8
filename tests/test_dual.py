"""Dual number arithmetic against hand-differentiated values."""

import math
import operator
import random

import numpy as np
import pytest

from cgbv.dual import Dual, atan, cos, deriv, exp, log, real, sin, sqrt, where


def df(f, x: float) -> float:
    return deriv(f(Dual(x, 1.0)))


class TestFirstDerivatives:
    def test_polynomial(self):
        # f(x) = 3x^3 - 2x + 7, f'(2) = 36 - 2 = 34
        f = lambda x: 3 * x ** 3 - 2 * x + 7
        assert df(f, 2.0) == pytest.approx(34.0, abs=1e-14)

    def test_quotient(self):
        # f(x) = (x^2+1)/(x-3), f'(x) = (x^2-6x-1)/(x-3)^2
        f = lambda x: (x ** 2 + 1) / (x - 3.0)
        x0 = 1.25
        expect = (x0 ** 2 - 6 * x0 - 1) / (x0 - 3.0) ** 2
        assert df(f, x0) == pytest.approx(expect, rel=1e-13)

    def test_rdiv(self):
        f = lambda x: 5.0 / x
        assert df(f, 2.0) == pytest.approx(-1.25, abs=1e-14)

    def test_quotient_value_is_plain_division(self):
        # 3.0 * (1 / 10.0) is 0.30000000000000004; 3.0 / 10.0 is 0.3
        q = Dual(3.0, 1.0) / Dual(10.0, 0.0)
        assert type(q.a) is float and q.a == 3.0 / 10.0
        num, den = np.array([3.0, 1.0, 7.0]), np.array([10.0, 3.0, 10.0])
        q = Dual(num, 1.0) / Dual(den, 0.0)
        assert np.array_equal(q.a, num / den)

    @pytest.mark.parametrize("fn,dfn", [
        (sin, math.cos),
        (cos, lambda t: -math.sin(t)),
        (exp, math.exp),
        (sqrt, lambda t: 0.5 / math.sqrt(t)),
        (log, lambda t: 1.0 / t),
        (atan, lambda t: 1.0 / (1.0 + t * t)),
    ])
    def test_elementary(self, fn, dfn):
        rng = random.Random(11)
        for _ in range(20):
            x0 = rng.uniform(0.2, 2.5)
            assert df(fn, x0) == pytest.approx(dfn(x0), rel=1e-12)

    def test_negative_integer_power(self):
        f = lambda x: x ** -2
        assert df(f, 2.0) == pytest.approx(-2.0 / 8.0, abs=1e-14)


class TestNesting:
    def test_second_derivative(self):
        # f = sin(x^2): f'' = 2cos(x^2) - 4x^2 sin(x^2)
        x0 = 0.7
        inner = Dual(Dual(x0, 1.0), 1.0)
        val = sin(inner * inner)
        second = deriv(deriv(val))
        expect = 2 * math.cos(x0 ** 2) - 4 * x0 ** 2 * math.sin(x0 ** 2)
        assert second == pytest.approx(expect, rel=1e-12)

    def test_mixed_partial(self):
        # g(x,y) = exp(x*y): d2g/dxdy at (0.5, -0.3) = (1+xy) e^{xy}
        x0, y0 = 0.5, -0.3
        x = Dual(Dual(x0, 0.0), 1.0)
        y = Dual(Dual(y0, 1.0), 0.0)
        g = exp(x * y)
        mixed = deriv(deriv(g))
        expect = (1 + x0 * y0) * math.exp(x0 * y0)
        assert mixed == pytest.approx(expect, rel=1e-12)

    def test_real_strips_all_levels(self):
        z = Dual(Dual(Dual(4.0, 1.0), 2.0), 3.0)
        assert real(z) == 4.0


class TestBranching:
    def test_ordering_raises(self):
        # value branches go through where, which serves node blocks too
        with pytest.raises(TypeError):
            Dual(1.0, 1.0) < 2.0

    @pytest.mark.parametrize("op", [operator.lt, operator.le, operator.gt, operator.ge])
    def test_ordering_a_node_block_raises(self, op):
        with pytest.raises(TypeError):
            op(Dual(np.array([1.0, 3.0]), np.ones(2)), 2.0)


class TestArraySlots:
    def test_functions_match_per_entry_values(self):
        xs = [0.3, 1.1, 2.5]
        for f in (sin, cos, exp, sqrt, log, atan):
            g = lambda x: f(x * x + 0.5) * x
            v = g(Dual(np.array(xs), 1.0))
            # numpy and math may round the last bit differently
            assert list(real(v)) == pytest.approx(
                [real(g(Dual(x, 1.0))) for x in xs], rel=1e-15)
            assert list(deriv(v)) == pytest.approx(
                [deriv(g(Dual(x, 1.0))) for x in xs], rel=1e-15)

    def test_array_on_the_left_defers_to_dual(self):
        v = np.array([1.0, 2.0]) * Dual(np.array([3.0, 4.0]), 1.0)
        assert isinstance(v, Dual)
        assert list(v.b) == [1.0, 2.0]

    def test_where_selects_slots_through_nested_duals(self):
        x = Dual(Dual(np.array([-1.0, 2.0]), 1.0), 1.0)
        v = where(real(x) > 0.0, x * x, 0.0)
        assert list(real(v)) == [0.0, 4.0]
        assert list(v.b.b) == [0.0, 2.0]  # second derivative of x^2
        assert where(True, x, 0.0) is x
        assert where(False, x, 0.0) == 0.0

