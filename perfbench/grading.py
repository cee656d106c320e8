"""Expected values and tolerances for every line item, kept apart from the program.

The values are the closed forms the paper and elementary geometry give:
Euler numbers (chi(S^2) = 2, chi(D^2) = 1, one for every cap), areas and
volumes (pi, 4 pi, 3 pi, pi^2 / 2), signed zero counts (1, -1, 2), unit
pairings and pushforward magnitudes (1), and 0 for every residual.  The
discrete gaps are exact rational computations, so their tolerance is 0.
The tolerances are the suite's published ones, written out here so that
a change to the registry in ``src/cgbv/scenarios.py`` cannot loosen them.
"""

from __future__ import annotations

import math

PI = math.pi

# scenario -> identity -> (expected value, tolerance)
EXPECTED = {
    # quadrature workload
    "quadrature-volumes": {
        "ball2-area": (PI, 1e-10),
        "sphere2-flux": (4.0 * PI, 1e-10),
        "annulus-area": (3.0 * PI, 1e-10),
        "ball4-volume": (PI ** 2 / 2.0, 1e-10),
    },
    "boundary-orientation": {
        "stokes-ball2": (0.0, 1e-8),
        "stokes-annulus2": (0.0, 1e-8),
        "stokes-box3": (0.0, 1e-8),
        "stokes-product3": (0.0, 1e-8),
    },
    "stokes-convention": {"cylinder-stokes-sup": (0.0, 1e-8)},
    "fiber-projection": {"projection-formula": (0.0, 1e-8)},
    "cgb-sphere": {"euler-number-s2": (2.0, 1e-8)},
    "cgb-disk": {"euler-number-disk": (1.0, 1e-6)},
    "cgb-caps": {
        "euler-number-cap30": (1.0, 1e-6),
        "euler-number-cap90": (1.0, 1e-6),
        "euler-number-cap120": (1.0, 1e-6),
    },
    "zero-set-duality": {
        "zero-count-identity": (1.0, 1e-6),
        "zero-count-conjugate": (-1.0, 1e-6),
        "zero-count-square": (2.0, 1e-6),
        "zero-count-oracle-gap": (0.0, 1e-6),
        "zero-count-winding-gap": (0.0, 1e-6),
    },
    "homotopy-operators": {
        "homotopy-defect-absolute": (0.0, 1e-6),
        "homotopy-defect-relative": (0.0, 1e-6),
    },
    "chain-sign-laws": {
        "pair-d-squared-sup": (0.0, 1e-10),
        "weak-transposition-sup": (0.0, 1e-7),
        "fiber-collapse-sign-sup": (0.0, 1e-7),
        "cutoff-chain-sup": (0.0, 1e-7),
    },
    # thom workload
    "thom-fiber-integral": {
        "fiber-normalization-sup": (0.0, 1e-6),
        "thom-closedness-sup": (0.0, 1e-7),
    },
    "symmetry-reflection": {
        "connection-preservation": (0.0, 1e-8),
        "transgression-parity": (0.0, 1e-8),
        "secondary-parity": (0.0, 1e-8),
        "parallel-pair-vanishing": (0.0, 1e-8),
        "pushforward-cancellation": (0.0, 1e-6),
        "pushforward-magnitude": (1.0, 1e-6),
    },
    "nu-roundtrip-even": {
        "nu-roundtrip-constant": (0.0, 1e-6),
        "nu-roundtrip-area": (0.0, 1e-6),
    },
    "odd-rank-point": {
        "unit-pairing-rank1": (1.0, 1e-8),
        "dual-pair-closedness-rank1": (0.0, 1e-6),
    },
    "persistent-section-vanishing": {
        "slice-vanishing-taut-rank1": (0.0, 1e-8),
        "slice-vanishing-ambient-rank1": (0.0, 1e-8),
        "persistent-sections-rank1": (0.0, 1e-9),
        "slice-vanishing-taut-rank3": (0.0, 1e-8),
        "slice-vanishing-ambient-rank3": (0.0, 1e-8),
        "persistent-sections-rank3": (0.0, 1e-9),
    },
    "loop-transgression": {"loop-primitive-sup": (0.0, 1e-6)},
    # pointwise workload
    "forms-calculus": {
        "d-squared-sup": (0.0, 1e-10),
        "pullback-naturality-sup": (0.0, 1e-10),
        "leibniz-sup": (0.0, 1e-10),
    },
    "pfaffian-identities": {
        "pfaffian-normalization": (0.0, 1e-12),
        "pfaffian-square-det": (0.0, 1e-8),
        "pfaffian-rotation-invariance": (0.0, 1e-8),
        "pfaffian-reflection-sign": (0.0, 1e-8),
    },
    "transgression-derivative": {
        "transgression-derivative-rank2": (0.0, 1e-7),
        "transgression-derivative-rank4": (0.0, 1e-7),
    },
    "secondary-transgression": {
        "secondary-sum-rule": (0.0, 1e-6),
        "secondary-constant-family": (0.0, 1e-12),
    },
    "symmetry-rotation": {"rotation-invariance": (0.0, 1e-8)},
    "discrete-duality": {
        "cone-dirichlet-gap": (0.0, 0.0),
        "betti-reversal-gap": (0.0, 0.0),
        "euler-additivity-gap": (0.0, 0.0),
    },
    "mesh-les": {"les-exactness-failures": (0.0, 0.0)},
}


def item_count(scenarios) -> int:
    """Number of line items the given scenarios must produce."""
    return sum(len(EXPECTED[name]) for name in scenarios)


def grade(computed: dict, scenarios) -> list:
    """Failures of one round as (scenario, identity, reason) triples.

    ``computed`` maps scenario -> identity -> value.  An item fails when it
    is missing, not finite, or farther from its expected value than its
    tolerance.  An empty list means every item passed.
    """
    failures = []
    for name in scenarios:
        got = computed.get(name, {})
        for identity, (value, tol) in EXPECTED[name].items():
            if identity not in got:
                failures.append((name, identity, "missing"))
                continue
            v = got[identity]
            if not isinstance(v, (int, float)) or not math.isfinite(v):
                failures.append((name, identity, f"not finite: {v!r}"))
            elif abs(v - value) > tol:
                failures.append((name, identity,
                                 f"computed {v!r}, expected {value!r} "
                                 f"within {tol:g}"))
    return failures
