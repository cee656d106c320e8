"""The three workloads: which scenarios each runs, and at what size.

Every scenario of the registry belongs to exactly one workload.  ``cli``
scenarios run through ``cgb-verify run`` one at a time; ``reduced`` ones
are too slow for a run of the benchmark at their registry size (71 s and
40 s on a 2-core machine) and are rebuilt from the public functions at a
smaller size by :mod:`reduced`, graded against the same closed forms.
"""

from __future__ import annotations

from dataclasses import dataclass


@dataclass(frozen=True)
class Workload:
    cli: tuple
    count: int
    reduced: tuple = ()

    @property
    def scenarios(self) -> tuple:
        return self.cli + self.reduced


WORKLOADS = {
    # ChartDomain.integrate over tensor Gauss grids, with first-order duals
    # through SmoothMap.jacobian: node batching acts here.
    "quadrature": Workload(
        cli=("homotopy-operators", "chain-sign-laws", "zero-set-duality",
             "quadrature-volumes", "boundary-orientation",
             "stokes-convention", "fiber-projection", "cgb-sphere",
             "cgb-disk", "cgb-caps"),
        count=2),
    # transgressions of section-split and frame-split connections: second
    # order nested duals, integrated by fiber_integrate and over a cylinder.
    "thom": Workload(
        cli=("nu-roundtrip-even", "odd-rank-point",
             "persistent-section-vanishing", "loop-transgression"),
        count=10,
        reduced=("thom-fiber-integral", "symmetry-reflection")),
    # identities at scattered points plus exact rational algebra; never
    # calls ChartDomain.integrate, so node batching bypasses it.
    "pointwise": Workload(
        cli=("forms-calculus", "pfaffian-identities",
             "transgression-derivative", "secondary-transgression",
             "symmetry-rotation", "discrete-duality", "mesh-les"),
        count=100),
}
