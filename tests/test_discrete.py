"""Exact mapping-cone cohomology on the mesh registry."""

import random
from fractions import Fraction

import pytest

from cgbv import discrete
from cgbv.discrete import (CochainComplex, Mesh, MESH_REGISTRY, _cohomology_data,
                           _induced_map, _kernel_basis, _rank, _rref, _solve, betti,
                           dirichlet_betti, les_check, make_mesh,
                           mapping_cone, moebius_mesh)
from cgbv.errors import (ChainMapError, ComplexError, ConsistencyError,
                         SurjectivityError)

M_BETTI = {
    "interval": [1, 0],
    "circle": [1, 1],
    "disk": [1, 0, 0],
    "annulus": [1, 1, 0],
    "cylinder": [1, 1, 0],
}

MESH_DIMS = {
    "interval": ([3, 2], [2]),
    "circle": ([4, 4], [0]),
    "disk": ([5, 8, 4], [4, 4]),
    "annulus": ([8, 16, 8], [8, 8]),
    "cylinder": ([6, 12, 6], [6, 6]),
}

CONE_BETTI = {
    "interval": [0, 1],
    "circle": [1, 1],
    "disk": [0, 0, 1],
    "annulus": [0, 1, 1],
    "cylinder": [0, 1, 1],
}


class TestCochainComplex:
    def test_shape_mismatch_rejected(self):
        with pytest.raises(ComplexError):
            CochainComplex([2, 2], [[[1, 0]]], "bad-shape")

    def test_differential_count_rejected(self):
        with pytest.raises(ComplexError):
            CochainComplex([2, 2], [], "missing-d")

    def test_non_complex_rejected_by_betti(self):
        # d compose d = identity on one generator
        c = CochainComplex([1, 1, 1], [[[1]], [[1]]], "not-a-complex")
        with pytest.raises(ComplexError):
            betti(c)

    def test_euler_from_dims(self):
        c = make_mesh("disk").complex()
        assert c.euler() == 5 - 8 + 4 == 1


class TestMeshRegistry:
    @pytest.mark.parametrize("name", sorted(MESH_REGISTRY))
    def test_constructs_and_is_a_complex(self, name):
        mesh = make_mesh(name)
        cm, cb, r = mesh.complexes()
        cm.check()
        cb.check()
        mapping_cone(cm, cb, r).check()

    def test_euler_characteristics(self):
        chis = {name: make_mesh(name).complex().euler()
                for name in MESH_REGISTRY}
        assert chis == {"interval": 1, "circle": 0, "disk": 1,
                        "annulus": 0, "cylinder": 0}

    def test_unknown_name_rejected(self):
        with pytest.raises(ComplexError):
            make_mesh("torus")

    def test_moebius_band_rejected(self):
        with pytest.raises(ConsistencyError):
            moebius_mesh()

    @pytest.mark.parametrize("name", sorted(MESH_DIMS))
    def test_derived_complex_dims(self, name):
        cm, cb, r = make_mesh(name).complexes()
        assert (cm.dims, cb.dims) == MESH_DIMS[name]
        # one matrix per degree of M, boundary rows by M columns, none on top
        assert [(len(m), len(m[0]) if m else 0) for m in r] == \
            [(b, n if b else 0) for b, n in zip(cb.dims + [0], cm.dims)]

    def test_duplicate_edge_rejected(self):
        with pytest.raises(ComplexError, match="share a vertex set"):
            Mesh("dup", [(0, 1), (0, 1)])
        with pytest.raises(ComplexError, match="share a vertex set"):
            Mesh("reversed", [(0, 1, 2), (1, 3, 2), (2, 1, 0)])

    def test_repeated_vertex_rejected(self):
        with pytest.raises(ComplexError, match="repeats a vertex"):
            Mesh("loop", [(0, 0), (0, 1)])

    @pytest.mark.parametrize("tops", [[(0, 1, 2), (2, 3)], [(0,), (1,)], []],
                             ids=["mixed", "points", "empty"])
    def test_mixed_top_sizes_rejected(self, tops):
        with pytest.raises(ComplexError, match="one size"):
            Mesh("mixed", tops)

    def test_overused_edge_rejected(self):
        with pytest.raises(ComplexError):
            Mesh("fan", [(0, 1, 2), (0, 1, 3), (0, 1, 4)])

    def test_incoherent_orientation_rejected(self):
        # second triangle deliberately flipped
        tris = [(0, 1, 4), (2, 1, 4), (2, 3, 4), (3, 0, 4)]
        with pytest.raises(ConsistencyError):
            Mesh("flipped", tris)


class TestBetti:
    @pytest.mark.parametrize("name", sorted(M_BETTI))
    def test_mesh_betti(self, name):
        assert betti(make_mesh(name).complex()) == M_BETTI[name]

    def test_boundary_betti(self):
        assert betti(make_mesh("interval").boundary_complex()) == [2]
        assert betti(make_mesh("disk").boundary_complex()) == [1, 1]
        assert betti(make_mesh("annulus").boundary_complex()) == [2, 2]
        assert betti(make_mesh("cylinder").boundary_complex()) == [2, 2]


class TestMappingCone:
    @pytest.mark.parametrize("name", sorted(CONE_BETTI))
    def test_cone_betti(self, name):
        cm, cb, r = make_mesh(name).complexes()
        assert betti(mapping_cone(cm, cb, r)) == CONE_BETTI[name]

    def test_empty_boundary_keeps_betti(self):
        cm, cb, r = make_mesh("circle").complexes()
        assert betti(mapping_cone(cm, cb, r)) == betti(cm)

    def test_cone_of_identity_is_acyclic(self):
        cm = make_mesh("circle").complex()
        ident = [
            [[Fraction(int(i == j)) for j in range(n)] for i in range(n)]
            for n in cm.dims
        ]
        cone = mapping_cone(cm, cm, ident)
        assert betti(cone) == [0] * len(cone.dims)

    def test_chain_map_violation_rejected(self):
        mesh = make_mesh("disk")
        cm, cb, r = mesh.complexes()
        r[1][0][0] = Fraction(-1)  # flip one edge restriction
        with pytest.raises(ChainMapError):
            mapping_cone(cm, cb, r)

    def test_wrong_arity_rejected(self):
        cm, cb, r = make_mesh("disk").complexes()
        with pytest.raises(ChainMapError):
            mapping_cone(cm, cb, r[:2])


class TestLesCheck:
    def test_disk_exact_everywhere(self):
        cm, cb, r = make_mesh("disk").complexes()
        report = les_check(cm, cb, r)
        assert report.all_exact
        assert report.failures() == []
        assert len(report.spots) >= 6

    @pytest.mark.parametrize("name", sorted(MESH_REGISTRY))
    def test_registry_exact_everywhere(self, name):
        cm, cb, r = make_mesh(name).complexes()
        assert les_check(cm, cb, r).all_exact

    def test_empty_boundary_gives_isomorphisms(self):
        cm, cb, r = make_mesh("circle").complexes()
        report = les_check(cm, cb, r)
        assert report.all_exact
        for spot in report.spots:
            if spot.label.startswith("H") and "(M)" in spot.label:
                assert spot.rank_in == spot.dim

    def test_annulus_connecting_rank(self):
        cm, cb, r = make_mesh("annulus").complexes()
        report = les_check(cm, cb, r)
        spot = next(s for s in report.spots if s.label == "H^1(cone)")
        assert spot.rank_in == 1

    @pytest.mark.parametrize("public", [dirichlet_betti, les_check, mapping_cone])
    def test_one_restriction_check_per_call(self, public, monkeypatch):
        calls = []
        check = discrete._check_chain_map

        def counted(*args):
            calls.append(1)
            return check(*args)

        monkeypatch.setattr(discrete, "_check_chain_map", counted)
        public(*make_mesh("annulus").complexes())
        assert len(calls) == 1


class TestDirichlet:
    @pytest.mark.parametrize("name", sorted(CONE_BETTI))
    def test_matches_cone(self, name):
        cm, cb, r = make_mesh(name).complexes()
        assert dirichlet_betti(cm, cb, r) == CONE_BETTI[name]

    def test_empty_boundary_equals_mesh_betti(self):
        cm, cb, r = make_mesh("circle").complexes()
        assert dirichlet_betti(cm, cb, r) == betti(cm)

    def test_non_surjective_restriction_rejected(self):
        cm, cb, _ = make_mesh("interval").complexes()
        bad = [[[1, 0, 0], [1, 0, 0]], []]
        with pytest.raises(SurjectivityError):
            dirichlet_betti(cm, cb, bad)

    def test_wrong_kernel_betti_fails_the_gap_item(self, monkeypatch):
        """The scenario, not dirichlet_betti, grades the gap to the cone."""
        from cgbv import scenarios

        def off_by_one(c):
            out = betti(c)
            if c.label.startswith("ker("):
                out[-1] += 1
            return out

        monkeypatch.setattr(discrete, "betti", off_by_one)
        report = scenarios.run_scenario(scenarios.get_scenario("discrete-duality"))
        items = {item.identity: item for item in report.items}
        assert items["cone-dirichlet-gap"].computed == 1.0
        assert not items["cone-dirichlet-gap"].passed
        assert items["betti-reversal-gap"].passed
        assert items["euler-additivity-gap"].passed

    def test_duality_scenario_builds_one_cone_per_mesh(self, monkeypatch):
        from cgbv import scenarios
        built = []

        def counted(*args):
            built.append(args)
            return mapping_cone(*args)

        monkeypatch.setattr(discrete, "mapping_cone", counted)
        monkeypatch.setattr(scenarios, "mapping_cone", counted)
        report = scenarios.run_scenario(scenarios.get_scenario("discrete-duality"))
        assert report.passed
        assert len(built) == len(MESH_REGISTRY)


class TestDuality:
    @pytest.mark.parametrize("name", ["interval", "disk", "annulus",
                                      "cylinder"])
    def test_cone_betti_reverses_mesh_betti(self, name):
        """Relative degree k pairs with absolute degree n-k, exactly."""
        cm, cb, r = make_mesh(name).complexes()
        cone = betti(mapping_cone(cm, cb, r))
        assert cone == list(reversed(M_BETTI[name]))

    @pytest.mark.parametrize("name", sorted(MESH_REGISTRY))
    def test_euler_additivity(self, name):
        cm, cb, r = make_mesh(name).complexes()
        cone = mapping_cone(cm, cb, r)
        assert cone.euler() == cm.euler() - cb.euler()


# Kuhn's six tetrahedra of the unit cube around its diagonal 0-7 (vertex
# i at the bits of i), and a solid torus: a ring of three triangular prisms
# (layers 012, 345, 678, glued back to 012), each cut into three tetrahedra.
SOLIDS = {
    "kuhn-cube": ([(0, 1, 3, 7), (1, 0, 5, 7), (2, 0, 3, 7), (0, 2, 6, 7),
                   (0, 4, 5, 7), (4, 0, 6, 7)],
                  ([8, 19, 18, 6], [8, 18, 12]),
                  ([1, 0, 0, 0], [1, 0, 1], [0, 0, 0, 1])),
    "solid-torus": ([(0, 1, 2, 5), (1, 0, 4, 5), (0, 3, 4, 5), (3, 4, 5, 8),
                     (4, 3, 7, 8), (3, 6, 7, 8), (6, 7, 8, 2), (7, 6, 1, 2),
                     (6, 0, 1, 2)],
                    ([9, 27, 27, 9], [9, 27, 18]),
                    ([1, 1, 0, 0], [1, 2, 1], [0, 0, 1, 1])),
}


class TestThreeDimensional:
    """Lefschetz duality on 3-manifolds with boundary, given by their tetrahedra."""

    @pytest.mark.parametrize("name", sorted(SOLIDS))
    def test_duality(self, name):
        tops, dims, (bm, bb, bc) = SOLIDS[name]
        cm, cb, r = Mesh(name, tops).complexes()
        assert (cm.dims, cb.dims) == dims
        assert betti(cm) == bm
        assert betti(cb) == bb
        cone = betti(mapping_cone(cm, cb, r))
        assert cone == bc
        assert dirichlet_betti(cm, cb, r) == bc
        # b^k(M, bdry M) = b_(3-k)(M)
        assert cone == list(reversed(bm))
        assert les_check(cm, cb, r).failures() == []

    def test_flipped_tetrahedron_rejected(self):
        tops = SOLIDS["kuhn-cube"][0]
        a, b, c, d = tops[0]
        with pytest.raises(ConsistencyError):
            Mesh("flipped-cube", [(b, a, c, d)] + tops[1:])


# ---------------------------------------------------------------------------
# oracles for the one-elimination bases and solves

def greedy_cohomology_data(c, k):
    """Boundary and representative bases, one rank test per candidate vector."""
    cycles = _kernel_basis(c.diff(k), c.dims[k])
    d_in = c.diff(k - 1) if k > 0 else []
    boundaries = []
    if d_in:
        for j in range(len(d_in[0])):
            col = [d_in[i][j] for i in range(len(d_in))]
            trial = boundaries + [col]
            if _rank([[v[i] for v in trial] for i in range(len(col))]) == len(trial):
                boundaries.append(col)
    reps = []
    span = list(boundaries)
    for v in cycles:
        trial = span + [v]
        if _rank([[u[i] for u in trial] for i in range(len(v))]) == len(trial):
            span.append(v)
            reps.append(v)
    return boundaries, reps


def solve_one(columns, target):
    """Coordinates of one target in the span of ``columns``, by its own elimination."""
    if not columns:
        if any(target):
            raise ComplexError("vector outside the expected span")
        return []
    aug = [[col[i] for col in columns] + [target[i]] for i in range(len(target))]
    red, pivots = _rref(aug)
    coords = [0] * len(columns)
    for r, pc in enumerate(pivots):
        if pc == len(columns):
            raise ComplexError("vector outside the expected span")
        coords[pc] = red[r][len(columns)]
    return coords


def oracle_induced_map(src_data, dst_data, matrix):
    dst_bound, dst_reps = dst_data
    out = [[0] * len(src_data[1]) for _ in dst_reps]
    if not dst_reps:
        return out
    for j, v in enumerate(src_data[1]):
        img = [sum(a * b for a, b in zip(row, v)) for row in matrix]
        coords = solve_one(dst_bound + dst_reps, img)
        for i in range(len(dst_reps)):
            out[i][j] = coords[len(dst_bound) + i]
    return out


def mm(A, B):
    return [[sum(a * b for a, b in zip(row, col)) for col in zip(*B)] for row in A]


def unimodular(n, rng):
    """Random integer matrix of determinant +-1 and its exact inverse."""
    P = [[int(i == j) for j in range(n)] for i in range(n)]
    Pinv = [row[:] for row in P]
    for _ in range(n):
        i, j = rng.randrange(n), rng.randrange(n)
        if i == j:
            P[i] = [-v for v in P[i]]
            for row in Pinv:
                row[i] = -row[i]
        else:
            c = rng.choice([-3, -2, 2, 3])
            P[i] = [a + c * b for a, b in zip(P[i], P[j])]
            for row in Pinv:
                row[j] -= c * row[i]
    assert mm(P, Pinv) == [[int(i == j) for j in range(n)] for i in range(n)]
    return P, Pinv


def scrambled(name, seed):
    """A registry mesh in random integer bases: d'_k = P_(k+1) d_k P_k^-1.

    The boundary complex and the restriction change basis alike, so every
    Betti number, cone and exact sequence is the registry mesh's.
    """
    rng = random.Random(seed)
    cm, cb, r = make_mesh(name).complexes()
    P = [unimodular(n, rng) for n in cm.dims]
    Q = [unimodular(n, rng) for n in cb.dims]
    dm = [mm(mm(P[k + 1][0], d), P[k][1]) for k, d in enumerate(cm.diffs)]
    db = [mm(mm(Q[k + 1][0], d), Q[k][1]) for k, d in enumerate(cb.diffs)]
    rr = [mm(mm(Q[k][0], m), P[k][1]) if k < len(Q) else m
          for k, m in enumerate(r)]
    return (CochainComplex(cm.dims, dm, cm.label),
            CochainComplex(cb.dims, db, cb.label), rr)


def triples():
    for name in sorted(MESH_REGISTRY):
        yield name, make_mesh(name).complexes()
        for seed in range(3):
            yield f"{name}-scrambled{seed}", scrambled(name, seed)


TRIPLES = list(triples())
IDS = [name for name, _ in TRIPLES]


def induced_maps(cm, cb, r):
    """Every (source data, target data, matrix) that les_check reads."""
    cone = mapping_cone(cm, cb, r)
    data = {tag: [_cohomology_data(c, k) for k in range(len(c.dims))]
            for tag, c in (("m", cm), ("b", cb), ("c", cone))}
    out = []
    for k in range(len(cm.dims)):
        proj = [[int(i == j) for j in range(cone.dims[k])]
                for i in range(cm.dims[k])]
        out.append((data["c"][k], data["m"][k], proj))
        if k < len(cb.dims):
            out.append((data["m"][k], data["b"][k], r[k]))
    for k in range(len(cb.dims)):
        if k + 1 < len(cone.dims):
            shift = cm.dims[k + 1] if k + 1 < len(cm.dims) else 0
            incl = [[int(i == shift + j) for j in range(cb.dims[k])]
                    for i in range(cone.dims[k + 1])]
            out.append((data["b"][k], data["c"][k + 1], incl))
    return out


def entries(obj):
    if isinstance(obj, (list, tuple)):
        for x in obj:
            yield from entries(x)
    else:
        yield obj


class TestOneElimination:
    @pytest.mark.parametrize("name,triple", TRIPLES, ids=IDS)
    def test_bases_match_the_greedy_oracle(self, name, triple):
        cm, cb, r = triple
        for c in (cm, cb, mapping_cone(cm, cb, r)):
            for k in range(len(c.dims)):
                assert _cohomology_data(c, k) == greedy_cohomology_data(c, k)

    @pytest.mark.parametrize("name,triple", TRIPLES, ids=IDS)
    def test_induced_maps_match_per_target_solves(self, name, triple):
        for src, dst, matrix in induced_maps(*triple):
            assert _induced_map(src, dst, matrix) == \
                oracle_induced_map(src, dst, matrix)

    @pytest.mark.parametrize("name,triple", TRIPLES, ids=IDS)
    def test_every_answer_survives_a_change_of_basis(self, name, triple):
        cm, cb, r = triple
        mesh = name.split("-")[0]
        assert betti(cm) == M_BETTI[mesh]
        assert betti(mapping_cone(cm, cb, r)) == CONE_BETTI[mesh]
        assert dirichlet_betti(cm, cb, r) == CONE_BETTI[mesh]
        assert les_check(cm, cb, r).all_exact

    def test_scrambled_pivots_need_fractions(self):
        reduced = [_rref(d)[0] for _, (cm, _, _) in TRIPLES for d in cm.diffs]
        assert any(isinstance(v, Fraction) for v in entries(reduced))

    def test_one_cohomology_query_is_at_most_three_eliminations(self, monkeypatch):
        calls = []

        def counted(rows):
            calls.append(1)
            return _rref(rows)

        cm, cb, r = make_mesh("annulus").complexes()
        cone = mapping_cone(cm, cb, r)
        monkeypatch.setattr(discrete, "_rref", counted)
        for c in (cm, cb, cone):
            for k in range(len(c.dims)):
                calls.clear()
                _cohomology_data(c, k)
                # the kernel, then boundaries and representatives together
                assert len(calls) <= 2

    def test_solve_reads_every_target_from_one_elimination(self):
        columns = [[1, 0, 2], [0, 3, 0]]
        assert _solve(columns, [[2, 3, 4], [0, -1, 0]]) == \
            [[2, 0], [1, Fraction(-1, 3)]]
        with pytest.raises(ComplexError, match="outside the expected span"):
            _solve(columns, [[1, 0, 2], [0, 0, 1]])
        with pytest.raises(ComplexError, match="outside the expected span"):
            _solve([], [[0, 0], [0, 1]])


def exact(obj):
    return all(type(v) in (int, Fraction) for v in entries(obj))


class TestExactEntries:
    def test_non_unit_pivot(self):
        assert betti(CochainComplex([1, 1], [[[2]]])) == [0, 0]

    @pytest.mark.parametrize("half", [Fraction(1, 2), 0.5], ids=["fraction", "float"])
    @pytest.mark.parametrize("name", sorted(MESH_REGISTRY))
    def test_halved_entries_read_exactly(self, name, half):
        cm, cb, r = make_mesh(name).complexes()

        def halved(c):
            return CochainComplex(c.dims, [[[half * v for v in row] for row in d]
                                           for d in c.diffs], c.label)

        hm, hb = halved(cm), halved(cb)
        for c, h in ((cm, hm), (cb, hb),
                     (mapping_cone(cm, cb, r), mapping_cone(hm, hb, r))):
            assert betti(h) == betti(c)
        assert dirichlet_betti(hm, hb, r) == dirichlet_betti(cm, cb, r)
        assert les_check(hm, hb, r).all_exact

        def restriction_maps(m, b):
            return [_induced_map(_cohomology_data(m, k), _cohomology_data(b, k), r[k])
                    for k in range(len(b.dims))]

        # halving d moves no pivot column and no kernel vector, so the
        # representatives, and the restriction in their coordinates, are
        # those of the integer complexes
        got = restriction_maps(hm, hb)
        assert got == restriction_maps(cm, cb)
        assert exact(got) and exact([hm.diffs, hb.diffs])

    @pytest.mark.parametrize("name,triple", TRIPLES, ids=IDS)
    def test_no_float_reaches_a_basis_map_or_solve(self, name, triple):
        cm, cb, r = triple
        for c in (cm, cb, mapping_cone(cm, cb, r)):
            for k in range(len(c.dims)):
                assert exact(_kernel_basis(c.diff(k), c.dims[k]))
                boundaries, reps = _cohomology_data(c, k)
                assert exact([boundaries, reps])
                # every column of d lies in the span of the boundary basis
                d_in = c.diff(k - 1) if k > 0 else []
                assert exact(_solve(boundaries, [list(col) for col in zip(*d_in)]))
        assert exact([_induced_map(*m) for m in induced_maps(cm, cb, r)])
