"""Smaller builds of the two slowest scenarios, from the public functions.

``thom-fiber-integral`` and ``symmetry-reflection`` take 71 s and 40 s at
their registry size, longer than one run of the benchmark.  These builds
keep the same bundles, forms, quadrature orders and tolerances and cut
only the number of sample points, plus the cylinder order of the
reflection (6 instead of 10; order 5 misses the cancellation tolerance).
Each returns identity -> computed value, named as in the registry.  The
package functions are looked up through their modules at call time, so a
tracer that rebinds them sees these calls too.
"""

from __future__ import annotations

import math
import random

from cgbv import bundles, chern_weil, dual, thom
from cgbv.forms import SmoothMap, sup_abs
from cgbv.geometry import ChartDomain

FIBER_POINTS = 1        # registry: 20
CLOSEDNESS_POINTS = 12  # as in the registry
REFLECTION_POINTS = 2   # registry: 8
CYLINDER_ORDER = 6      # registry: 10


def _rng(seed: int, label: str) -> random.Random:
    return random.Random(f"perfbench:{seed}:{label}")


def thom_fiber_integral(seed: int) -> dict:
    """Unit fiber integral and closedness of the Thom form of a rank-2 disk bundle."""
    bundle = bundles.make_bundle("random-rank2-disk")
    tau = thom.thom_form(bundle.connection, t_order=10)
    fi = thom.fiber_integral(tau, bundle.base, 2, 24)
    rng = _rng(seed, "thom-fiber-integral")
    pts = bundle.base.sample_ambient_points(rng, FIBER_POINTS)
    dtau = tau.d()
    closed = []
    for _ in range(CLOSEDNESS_POINTS):
        r = rng.uniform(0.1, 2.3)
        t = rng.uniform(0.0, 2.0 * math.pi)
        y = bundle.base.sample_ambient_points(rng, 1)[0]
        closed.extend(dtau([r * math.cos(t), r * math.sin(t)] + list(y)))
    return {
        "fiber-normalization-sup": sup_abs(fi(x)[0] - 1.0 for x in pts),
        "thom-closedness-sup": sup_abs(closed),
    }


def symmetry_reflection(seed: int) -> dict:
    """Odd parity of the comparison transgressions under the axis flip,
    and the two unit cylinder edges that cancel."""
    tri = thom.ThomScenario(bundles.make_bundle("odd-rank3-point"),
                            fiber_order=12).triple
    conns = (tri.split, tri.ambient, tri.plane_split)
    phi = SmoothMap(4, 4, lambda x: [-x[0], x[1], x[2], x[3]])
    psi = [[-1.0, 0.0, 0.0, 0.0], [0.0, 1.0, 0.0, 0.0],
           [0.0, 0.0, 1.0, 0.0], [0.0, 0.0, 0.0, 1.0]]
    t12 = chern_weil.transgression(tri.split, tri.ambient, t_order=12)
    t23 = chern_weil.transgression(tri.ambient, tri.plane_split, t_order=12)
    t31 = chern_weil.transgression(tri.plane_split, tri.split, t_order=12)
    sec = chern_weil.secondary_transgression(
        tri.split, tri.ambient, tri.plane_split, order=12)
    rng = _rng(seed, "symmetry-reflection")
    pts = ChartDomain.sphere(4, order=4).sample_ambient_points(
        rng, REFLECTION_POINTS)

    def sup(form) -> float:
        return sup_abs(v for x in pts for v in form(x))

    def polar(x):
        c, s = dual.cos(x[0]), dual.sin(x[0])
        return [c, s * x[1], s * x[2], s * x[3]]

    o = CYLINDER_ORDER
    cyl = ChartDomain.product(
        ChartDomain.interval("theta", 0.0, math.pi, order=o),
        ChartDomain.sphere(3, order=o))
    bl = SmoothMap(4, 4, polar)
    i12 = cyl.integrate(t12.pullback(bl))
    i31 = cyl.integrate(t31.pullback(bl))
    return {
        "connection-preservation": sup_abs(
            chern_weil.gauge_residual(conn, phi, psi, pts) for conn in conns),
        "transgression-parity": sup(t31.pullback(phi) + t31),
        "secondary-parity": sup(sec.pullback(phi) + sec),
        "parallel-pair-vanishing": sup(t23),
        "pushforward-cancellation": i12 + i31,
        "pushforward-magnitude": i31,
    }


RUNNERS = {
    "thom-fiber-integral": thom_fiber_integral,
    "symmetry-reflection": symmetry_reflection,
}
