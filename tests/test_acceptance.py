"""Acceptance checklist: one test and one printed verdict per criterion.

Each test replays the relevant registry scenarios at the tolerances the
package promises and prints a single PASS/FAIL line, so a full run reads
as a checklist.  Wall-clock budgets are asserted on the scenario runs
themselves, not on interpreter start-up.

Criterion 13 checks rotation invariance of the sphere's curvature form,
odd reflection parity of the odd-rank comparison transgressions (the
axis flip acts on the gauge frame with determinant -1, so the Pfaffian's
conjugation law makes them change sign), and the cancellation of the two
surviving cylinder edges, each of which has unit magnitude on its own.
"""

from cgbv.scenarios import Config, get_scenario, run_scenario


def _verdict(capsys, num: int, label: str, ok: bool, detail: str) -> None:
    with capsys.disabled():
        status = "PASS" if ok else "FAIL"
        print(f"criterion {num:02d} {status}  {label} ({detail})")


def _item(report, identity: str):
    for item in report.items:
        if item.identity == identity:
            return item
    raise AssertionError(f"{report.name} has no item {identity!r}")


def _max_error(*reports) -> float:
    return max(item.error for rep in reports for item in rep.items)


def test_criterion_01_sphere_normalization(capsys):
    rep = run_scenario(get_scenario("cgb-sphere"), Config())
    err = _max_error(rep)
    ok = err <= 1e-8 and rep.wall_ms < 1000.0
    _verdict(capsys, 1, "sphere curvature normalization", ok,
             f"err {err:.2e}, {rep.wall_ms:.0f} ms")
    assert err <= 1e-8
    assert rep.wall_ms < 1000.0


def test_criterion_02_boundary_defects(capsys):
    disk = run_scenario(get_scenario("cgb-disk"), Config())
    caps = run_scenario(get_scenario("cgb-caps"), Config())
    err = _max_error(disk, caps)
    wall = disk.wall_ms + caps.wall_ms
    ok = err <= 1e-6 and wall < 5000.0
    _verdict(capsys, 2, "boundary defect on the disk and three caps", ok,
             f"err {err:.2e}, {wall:.0f} ms")
    assert err <= 1e-6
    assert wall < 5000.0


def test_criterion_03_transgression_derivative(capsys):
    rep = run_scenario(get_scenario("transgression-derivative"),
                       Config(count=100))
    err = _max_error(rep)
    ok = err <= 1e-7
    _verdict(capsys, 3, "transgression derivative, ranks 2 and 4", ok,
             f"err {err:.2e} at 100 points")
    assert err <= 1e-7


def test_criterion_04_secondary_transgression(capsys):
    rep = run_scenario(get_scenario("secondary-transgression"),
                       Config(count=100))
    err = _max_error(rep)
    ok = err <= 1e-6
    _verdict(capsys, 4, "secondary transgression sum rule", ok,
             f"err {err:.2e} at 100 points")
    assert err <= 1e-6


def test_criterion_05_persistent_section_vanishing(capsys):
    rep = run_scenario(get_scenario("persistent-section-vanishing"), Config())
    err = _max_error(rep)
    ok = err <= 1e-8
    _verdict(capsys, 5, "parallel-section transgression vanishing", ok,
             f"sup {err:.2e} over both odd bundles")
    assert err <= 1e-8


def test_criterion_06_even_rank_duality(capsys):
    fiber = run_scenario(get_scenario("thom-fiber-integral"), Config())
    round_trip = run_scenario(get_scenario("nu-roundtrip-even"), Config())
    err = _max_error(fiber, round_trip)
    wall = fiber.wall_ms + round_trip.wall_ms
    ok = err <= 1e-6 and wall < 60000.0
    _verdict(capsys, 6, "even-rank fiber normalization and round trip", ok,
             f"err {err:.2e}, {wall / 1000.0:.1f} s")
    assert err <= 1e-6
    assert wall < 60000.0


def test_criterion_07_odd_rank_pairings(capsys):
    rank1 = run_scenario(get_scenario("odd-rank-point"), Config())
    rank3 = run_scenario(get_scenario("odd-rank3-point"), Config())
    pair1 = _item(rank1, "unit-pairing-rank1")
    pair3 = _item(rank3, "unit-pairing-rank3")
    closed = max(_item(rank1, "dual-pair-closedness-rank1").error,
                 _item(rank3, "dual-pair-closedness-rank3").error)
    wall = rank1.wall_ms + rank3.wall_ms
    ok = (pair1.error <= 1e-8 and pair3.error <= 1e-4
          and closed <= 1e-6 and wall < 120000.0)
    _verdict(capsys, 7, "odd-rank point pairings", ok,
             f"rank1 {pair1.error:.2e}, rank3 {pair3.error:.2e}, "
             f"closedness {closed:.2e}, {wall / 1000.0:.1f} s")
    assert pair1.error <= 1e-8
    assert pair3.error <= 1e-4
    assert closed <= 1e-6
    assert wall < 120000.0


def test_criterion_08_zero_set_counts(capsys):
    rep = run_scenario(get_scenario("zero-set-duality"), Config())
    counts = {key: _item(rep, f"zero-count-{key}")
              for key in ("identity", "conjugate", "square")}
    assert [counts[k].expected for k in ("identity", "conjugate", "square")] \
        == [1.0, -1.0, 2.0]
    err = max(item.error for item in counts.values())
    ok = err <= 1e-6
    _verdict(capsys, 8, "signed zero counts from the boundary pairing", ok,
             f"err {err:.2e} for counts +1, -1, +2")
    assert err <= 1e-6


def test_criterion_09_homotopy_operators(capsys):
    rep = run_scenario(get_scenario("homotopy-operators"), Config(count=50))
    err = _max_error(rep)
    ok = err <= 1e-6
    _verdict(capsys, 9, "homotopy operator identities", ok,
             f"err {err:.2e} over 50 random pairs")
    assert err <= 1e-6


def test_criterion_10_stokes_convention(capsys):
    rep = run_scenario(get_scenario("stokes-convention"), Config(count=50))
    err = _max_error(rep)
    ok = err <= 1e-8
    _verdict(capsys, 10, "cylinder Stokes convention", ok,
             f"err {err:.2e} over 50 random forms")
    assert err <= 1e-8


def test_criterion_11_chain_sign_laws(capsys):
    rep = run_scenario(get_scenario("chain-sign-laws"), Config(count=50))
    err = _max_error(rep)
    ok = err <= 1e-7
    _verdict(capsys, 11, "pair differential and sign laws", ok,
             f"err {err:.2e} over 50 random inputs")
    assert err <= 1e-7


def test_criterion_12_discrete_duality(capsys):
    betti = run_scenario(get_scenario("discrete-duality"), Config())
    les = run_scenario(get_scenario("mesh-les"), Config())
    err = _max_error(betti, les)
    wall = betti.wall_ms + les.wall_ms
    ok = err == 0.0 and wall < 1000.0
    _verdict(capsys, 12, "exact simplicial dualities", ok,
             f"gap {err:g}, {wall:.0f} ms")
    assert err == 0.0
    assert wall < 1000.0


def test_criterion_13_symmetries(capsys):
    rotation = run_scenario(get_scenario("symmetry-rotation"), Config())
    reflection = run_scenario(get_scenario("symmetry-reflection"), Config())
    rot = _item(rotation, "rotation-invariance")
    preserved, parity, secondary, parallel, edges, edge = (
        _item(reflection, key) for key in (
            "connection-preservation", "transgression-parity",
            "secondary-parity", "parallel-pair-vanishing",
            "pushforward-cancellation", "pushforward-magnitude"))
    bounds = [(rot, 1e-8), (preserved, 1e-8), (parity, 1e-8),
              (secondary, 1e-8), (parallel, 1e-8), (edges, 1e-6), (edge, 1e-6)]
    # "not <=" so that a NaN error counts as a failure
    problems = [f"{item.identity} off by {item.error:.3e} (tol {tol:g})"
                for item, tol in bounds if not item.error <= tol]
    wall = rotation.wall_ms + reflection.wall_ms
    _verdict(capsys, 13, "rotation invariance and odd reflection parity",
             not problems,
             f"rotation {rot.error:.2e}, odd parity {parity.error:.2e}/"
             f"{secondary.error:.2e}, edge integral {edge.computed:.6f}, "
             f"edge sum {edges.computed:.2e}, {wall / 1000.0:.1f} s")
    assert not problems, "; ".join(problems)
