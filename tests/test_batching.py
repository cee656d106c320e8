"""Node-block quadrature against a per-node scalar oracle.

``ChartDomain.integrate`` evaluates each form closure once per block of
nodes, with 1-D coordinate arrays in place of floats.  The oracle below
rebuilds the tensor Gauss-Legendre rule itself and calls the same closures
with one float point at a time, so any closure that branches on values, or
a reduction that reorders the rule, shows up as a disagreement.  The sums
are taken in a different order, hence agreement to 1e-13 relative rather
than bit for bit.  Zero-dimensional charts, signed point sets and a NaN at
a single node of a block are pinned too.
"""

import itertools
import math
import random

import numpy as np
import pytest

from cgbv import dual
from cgbv.bundles import section_transgression
from cgbv.chern_weil import Connection
from cgbv.errors import VanishingSectionError
from cgbv.forms import Form
from cgbv.geometry import BLOCK, ChartDomain
from cgbv.thom import thom_form

from test_forms import random_polynomial_form

REL = 1e-13


def per_node_integral(domain: ChartDomain, form: Form) -> float:
    """Integral as a running sum over single float nodes."""
    pulled = form.pullback(domain.embed) if domain.embed is not None else form
    if domain.kind == "points":
        total = sum(sign * pulled.comps([float(v) for v in pt])[0]
                    for sign, pt in domain.point_entries)
        return domain.orientation * total
    rules = [np.polynomial.legendre.leggauss(o) for o in domain.orders]
    total = 0.0
    for idx in itertools.product(*(range(o) for o in domain.orders)):
        pt, w = [], 1.0
        for (lo, hi), (xs, ws), i in zip(domain.bounds, rules, idx):
            half = 0.5 * (hi - lo)
            pt.append(0.5 * (lo + hi) + half * float(xs[i]))
            w *= half * float(ws[i])
        total += w * pulled.comps(pt)[0]
    return domain.orientation * total


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
    "zero-sphere": lambda: [ChartDomain.sphere(1)],
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
    assert math.prod(ball.orders) % BLOCK != 0
    form = smooth_form(4, 4, 11)
    assert ball.integrate(form) == pytest.approx(per_node_integral(ball, form), rel=REL)


def test_thom_form_bump_branches_inside_one_batch():
    # radius 2 puts nodes in the core (r < 0.8), on the plateau and on the
    # step, and some blocks straddle r = 0.8 and r = 1
    tau = thom_form(Connection.flat(2, 0, "flat2"))
    ball = ChartDomain.ball(2, radius=2.0, order=24)
    radii = ball.nodes()[0][0]
    blocks = [radii[s:s + BLOCK] for s in range(0, len(radii), BLOCK)]
    for knot in (0.8, 1.0):
        assert any((b < knot).any() and (b > knot).any() for b in blocks)
    want = per_node_integral(ball, tau)
    assert ball.integrate(tau) == pytest.approx(want, rel=REL)


class TestZeroDimensionalCharts:
    def test_empty_box_integrates_a_zero_form_to_its_value(self):
        pt = ChartDomain.box("pt", [])
        assert pt.integrate(Form.scalar(0, lambda x: 2.5)) == 2.5
        assert pt.reorient(-1).integrate(Form.scalar(0, lambda x: 2.5)) == -2.5

    def test_interval_faces_evaluate_at_the_ends(self):
        f = Form.scalar(1, lambda x: x[0] ** 2 + 1.0)
        faces = ChartDomain.interval("t", 0.0, 2.0).boundary_faces()
        assert [face.integrate(f) for face in faces] == [5.0, -1.0]

    def test_reoriented_point_set_keeps_its_signs(self):
        ends = ChartDomain.points("ends", [(1, [1.0, 0.5]), (-1, [0.0, 2.0])])
        f = Form.scalar(2, lambda x: 3.0 * x[0] + x[1])
        assert ends.integrate(f) == pytest.approx(3.5 - 2.0)
        assert ends.reorient(-1).integrate(f) == pytest.approx(-(3.5 - 2.0))


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
