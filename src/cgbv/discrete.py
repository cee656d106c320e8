"""Exact-arithmetic mapping-cone cohomology on small simplicial meshes.

A mesh of any dimension n is given by its oriented top simplices; its
lower simplices, its boundary (the closure of the faces that lie in one top
simplex only) and the restriction to that boundary are derived, and one
builder turns the cell levels of M and of its boundary into cochain
complexes spanning degrees 0..n and 0..n-1.

Everything runs over rationals: ranks, kernels, and induced maps come from
row reduction whose entries stay Python ints until a pivot other than +-1
forces a ``Fraction``, so Betti-level duality statements are integer
equalities rather than tolerance checks.  Each basis and each solve is one
elimination: bases are read off its pivot columns.
"""

from __future__ import annotations

import itertools
from fractions import Fraction

from .errors import (ChainMapError, ComplexError, ConsistencyError,
                     SurjectivityError)


def _exact(v):
    """``v`` read exactly: an int when integral, else a ``Fraction``."""
    if type(v) is int:
        return v
    q = Fraction(v)
    return q.numerator if q.denominator == 1 else q


def _to_fraction_matrix(rows):
    return [[_exact(v) for v in row] for row in rows]


def _mat_mul(A, B):
    if not A or not B:
        return []
    n, k, m = len(A), len(B), len(B[0]) if B else 0
    out = [[0] * m for _ in range(n)]
    for i in range(n):
        for j in range(k):
            a = A[i][j]
            if a:
                for c in range(m):
                    out[i][c] += a * B[j][c]
    return out


def _apply(mat, v):
    return [sum(a * b for a, b in zip(row, v) if a) for row in mat]


def _rref(rows):
    """Reduced row echelon form, zero entries skipped; returns (rows, pivot columns).

    A pivot row is negated at a -1 pivot and divided by ``Fraction`` only at
    a pivot other than +-1, so integer input stays integer as far as it can.
    """
    mat = [list(r) for r in rows]
    pivots = []
    r = 0
    ncols = len(mat[0]) if mat else 0
    for c in range(ncols):
        pivot = next((i for i in range(r, len(mat)) if mat[i][c]), None)
        if pivot is None:
            continue
        mat[r], mat[pivot] = mat[pivot], mat[r]
        p = mat[r][c]
        if p == -1:
            mat[r] = [-v for v in mat[r]]
        elif p != 1:
            inv = Fraction(1) / p
            mat[r] = [v * inv if v else v for v in mat[r]]
        for i in range(len(mat)):
            if i != r and mat[i][c]:
                f = mat[i][c]
                mat[i] = [a - f * b if b else a for a, b in zip(mat[i], mat[r])]
        pivots.append(c)
        r += 1
        if r == len(mat):
            break
    return mat, pivots


def _rank(mat):
    if not mat or not mat[0]:
        return 0
    return len(_rref(mat)[1])


def _kernel_basis(mat, ncols):
    """Columns spanning the null space of ``mat`` acting on Q^ncols."""
    if ncols == 0:
        return []
    if not mat:
        return [[int(i == j) for i in range(ncols)] for j in range(ncols)]
    red, pivots = _rref(mat)
    pivot_set = set(pivots)
    free = [c for c in range(ncols) if c not in pivot_set]
    basis = []
    for f in free:
        vec = [0] * ncols
        vec[f] = 1
        for r, pc in enumerate(pivots):
            vec[pc] = -red[r][f]
        basis.append(vec)
    return basis


def _solve(columns, targets):
    """Coordinates of every target in the span of ``columns``, by one elimination.

    Returns a len(columns) x len(targets) matrix X with columns . X = targets.
    A target outside the span raises ComplexError: the first one is a pivot.
    """
    m = len(columns)
    n = len(targets[0]) if targets else 0
    red, pivots = _rref([[col[i] for col in columns] + [t[i] for t in targets]
                         for i in range(n)])
    if pivots and pivots[-1] >= m:
        raise ComplexError("vector outside the expected span")
    coords = [[0] * len(targets) for _ in range(m)]
    for r, pc in enumerate(pivots):
        coords[pc] = red[r][m:]
    return coords


class CochainComplex:
    """Finite complex of rational cochain spaces with explicit differentials.

    ``dims[k]`` is the dimension in degree k; ``diffs[k]`` maps degree k to
    degree k+1 and has shape dims[k+1] x dims[k].
    """

    def __init__(self, dims, diffs, label: str = ""):
        self.dims = list(dims)
        self.diffs = [_to_fraction_matrix(d) for d in diffs]
        self.label = label
        if len(self.diffs) != max(len(self.dims) - 1, 0):
            raise ComplexError(
                f"{label}: expected {max(len(self.dims) - 1, 0)} "
                f"differentials, got {len(self.diffs)}")
        for k, d in enumerate(self.diffs):
            rows, cols = len(d), len(d[0]) if d else 0
            if rows != self.dims[k + 1] or (rows and cols != self.dims[k]):
                raise ComplexError(
                    f"{label}: differential {k} has shape {rows}x{cols}, "
                    f"wanted {self.dims[k + 1]}x{self.dims[k]}")

    @property
    def top(self) -> int:
        return len(self.dims) - 1

    def diff(self, k):
        """Differential out of degree k, as a rows x dims[k] matrix."""
        if 0 <= k < len(self.diffs):
            return self.diffs[k]
        return []

    def check(self):
        for k in range(len(self.diffs) - 1):
            square = _mat_mul(self.diffs[k + 1], self.diffs[k])
            if any(any(v for v in row) for row in square):
                raise ComplexError(
                    f"{self.label}: d compose d is nonzero out of degree {k}")

    def euler(self) -> int:
        return sum((-1) ** k * n for k, n in enumerate(self.dims))


def betti(c: CochainComplex):
    """Rational Betti numbers by exact rank-nullity."""
    c.check()
    # ranks[k] is the rank of the differential into degree k
    ranks = [0] + [_rank(d) for d in c.diffs] + [0]
    return [n - ranks[k] - ranks[k + 1] for k, n in enumerate(c.dims)]


def _check_chain_map(cm: CochainComplex, cb: CochainComplex, r):
    if len(r) != len(cm.dims):
        raise ChainMapError(
            f"restriction needs {len(cm.dims)} matrices, got {len(r)}")
    r = [_to_fraction_matrix(m) for m in r]
    for k, mat in enumerate(r):
        want_rows = cb.dims[k] if k < len(cb.dims) else 0
        rows = len(mat)
        if rows != want_rows or (rows and len(mat[0]) != cm.dims[k]):
            raise ChainMapError(f"restriction {k} has the wrong shape")
    for k in range(len(cm.dims) - 1):
        lhs = _mat_mul(r[k + 1], cm.diff(k)) if k + 1 < len(r) else []
        rhs = _mat_mul(cb.diff(k), r[k]) if k < len(cb.dims) else []
        flat_l = [v for row in lhs for v in row]
        flat_r = [v for row in rhs for v in row]
        if len(flat_l) != len(flat_r) or any(
                a != b for a, b in zip(flat_l, flat_r)):
            raise ChainMapError(
                f"restriction does not commute with d at degree {k}")
    return r


def mapping_cone(cm: CochainComplex, cb: CochainComplex, r) -> CochainComplex:
    """Cone of the restriction: degree k holds (omega_k, gamma_{k-1}).

    The differential sends (omega, gamma) to (-d omega, r omega + d gamma).
    """
    return _cone(cm, cb, _check_chain_map(cm, cb, r))


def _cone(cm: CochainComplex, cb: CochainComplex, r) -> CochainComplex:
    """:func:`mapping_cone` of a restriction ``_check_chain_map`` returned."""
    top = max(cm.top, cb.top + 1)
    bdim = lambda k: cb.dims[k] if 0 <= k < len(cb.dims) else 0
    mdim = lambda k: cm.dims[k] if 0 <= k < len(cm.dims) else 0
    dims = [mdim(k) + bdim(k - 1) for k in range(top + 1)]
    diffs = []
    for k in range(top):
        rows = mdim(k + 1) + bdim(k)
        cols = mdim(k) + bdim(k - 1)
        block = [[0] * cols for _ in range(rows)]
        dm = cm.diff(k)
        for i in range(len(dm)):
            for j in range(mdim(k)):
                block[i][j] = -dm[i][j]
        rk = r[k] if k < len(r) else []
        for i in range(len(rk)):
            for j in range(mdim(k)):
                block[mdim(k + 1) + i][j] = rk[i][j]
        db = cb.diff(k - 1)
        for i in range(len(db)):
            for j in range(bdim(k - 1)):
                block[mdim(k + 1) + i][mdim(k) + j] = db[i][j]
        diffs.append(block)
    cone = CochainComplex(dims, diffs, f"cone({cm.label}|{cb.label})")
    cone.check()
    return cone


def _cohomology_data(c: CochainComplex, k: int):
    """(boundary basis, representative basis) for H^k.

    One reduction of [columns of d_in | cycles]: its pivot columns are the
    vectors a greedy pass keeps, boundaries first, then representatives.
    """
    cycles = _kernel_basis(c.diff(k), c.dims[k])
    d_in = c.diff(k - 1) if k > 0 else []
    nb = len(d_in[0]) if d_in else 0
    _, pivots = _rref([(d_in[i] if d_in else []) + [v[i] for v in cycles]
                       for i in range(c.dims[k])])
    boundaries = [[row[j] for row in d_in] for j in pivots if j < nb]
    return boundaries, [cycles[j - nb] for j in pivots if j >= nb]


def _induced_map(src_data, dst_data, matrix):
    """Matrix of a chain map on cohomology, in representative coordinates."""
    _, src_reps = src_data
    dst_bound, dst_reps = dst_data
    if not src_reps or not dst_reps:
        return [[0] * len(src_reps) for _ in dst_reps]
    images = [_apply(matrix, v) for v in src_reps]
    return _solve(dst_bound + dst_reps, images)[len(dst_bound):]


class ExactnessSpot:
    def __init__(self, label, dim, rank_in, rank_out, composite_zero):
        self.label = label
        self.dim = dim
        self.rank_in = rank_in
        self.rank_out = rank_out
        self.composite_zero = composite_zero
        self.exact = composite_zero and (rank_in + rank_out == dim)

    def __repr__(self):
        flag = "exact" if self.exact else "NOT EXACT"
        return (f"<{self.label}: dim {self.dim} = {self.rank_in} in + "
                f"{self.rank_out} out [{flag}]>")


class ExactnessReport:
    def __init__(self, spots):
        self.spots = spots

    @property
    def all_exact(self) -> bool:
        return all(s.exact for s in self.spots)

    def failures(self):
        return [s for s in self.spots if not s.exact]


def les_check(cm: CochainComplex, cb: CochainComplex, r) -> ExactnessReport:
    """Exactness of ... -> H^k(cone) -> H^k(M) -> H^k(bdry) -> H^(k+1)(cone) -> ...

    The three maps are the cone projection, the restriction, and the
    inclusion of the boundary summand; exactness at each spot is decided
    by exact rank bookkeeping on induced matrices.
    """
    r = _check_chain_map(cm, cb, r)
    cone = _cone(cm, cb, r)
    bdim = lambda k: cb.dims[k] if 0 <= k < len(cb.dims) else 0
    mdim = lambda k: cm.dims[k] if 0 <= k < len(cm.dims) else 0
    cdim = lambda k: cone.dims[k] if 0 <= k < len(cone.dims) else 0

    m_data = {k: _cohomology_data(cm, k) for k in range(len(cm.dims))}
    b_data = {k: _cohomology_data(cb, k) for k in range(len(cb.dims))}
    c_data = {k: _cohomology_data(cone, k) for k in range(len(cone.dims))}

    def proj_matrix(k):
        # cone^k -> M^k, drop the boundary summand
        return [[int(i == j) for j in range(cdim(k))]
                for i in range(mdim(k))]

    def incl_matrix(k):
        # bdry^k -> cone^(k+1), land in the boundary summand
        rows = cdim(k + 1)
        out = [[0] * bdim(k) for _ in range(rows)]
        for i in range(bdim(k)):
            out[mdim(k + 1) + i][i] = 1
        return out

    maps = {}
    for k in range(len(cone.dims)):
        if k < len(cm.dims):
            maps[("b", k)] = _induced_map(c_data[k], m_data[k],
                                          proj_matrix(k))
        if k < len(cm.dims) and k < len(cb.dims):
            maps[("r", k)] = _induced_map(m_data[k], b_data[k], r[k])
        if k < len(cb.dims) and k + 1 < len(cone.dims):
            maps[("a", k)] = _induced_map(b_data[k], c_data[k + 1],
                                          incl_matrix(k))

    def h(cdata):
        return len(cdata[1])

    ranks = {key: _rank(mat) for key, mat in maps.items()}

    def rank_of(key):
        return ranks.get(key, 0)

    def composite_zero(first_key, second_key):
        A, B = maps.get(second_key), maps.get(first_key)
        if not A or not B:
            return True
        prod = _mat_mul(A, B)
        return not any(any(v for v in row) for row in prod)

    spots = []
    for k in range(len(cone.dims)):
        # spot H^k(cone): in = a at k-1, out = b at k
        spots.append(ExactnessSpot(
            f"H^{k}(cone)", h(c_data[k]),
            rank_of(("a", k - 1)), rank_of(("b", k)),
            composite_zero(("a", k - 1), ("b", k))))
        if k < len(cm.dims):
            spots.append(ExactnessSpot(
                f"H^{k}(M)", h(m_data[k]),
                rank_of(("b", k)), rank_of(("r", k)),
                composite_zero(("b", k), ("r", k))))
        if k < len(cb.dims):
            spots.append(ExactnessSpot(
                f"H^{k}(bdry)", h(b_data[k]),
                rank_of(("r", k)), rank_of(("a", k)),
                composite_zero(("r", k), ("a", k))))
    return ExactnessReport(spots)


def dirichlet_betti(cm: CochainComplex, cb: CochainComplex, r, cone_betti):
    """Betti numbers of the kernel subcomplex of the restriction.

    Demands degreewise surjectivity (the partition-of-unity analog); the
    result is checked against ``cone_betti``, the list
    ``betti(mapping_cone(cm, cb, r))``, before it is returned, since their
    equality is the point of the construction.  The caller ranks the cone,
    which it needs for its own comparisons too.
    """
    r = _check_chain_map(cm, cb, r)
    kernels = [_kernel_basis(r[k], n) for k, n in enumerate(cm.dims)]
    for k in range(len(cb.dims)):
        # the rank of r[k] is dims[k] minus its nullity
        if cm.dims[k] - len(kernels[k]) != cb.dims[k]:
            raise SurjectivityError(
                f"restriction is not onto in degree {k}")
    dims = [len(kb) for kb in kernels]
    diffs = [_solve(kernels[k + 1], [_apply(cm.diff(k), v) for v in kernels[k]])
             for k in range(len(cm.dims) - 1)]
    sub = CochainComplex(dims, diffs, f"ker({cm.label})")
    out = betti(sub)
    padded = out + [0] * (len(cone_betti) - len(out))
    if padded != cone_betti:
        raise ConsistencyError(
            f"kernel subcomplex Betti {out} disagrees with cone {cone_betti}")
    return padded


def _faces(simplex):
    """Codimension-one faces of an ordered simplex, each sorted, with its sign.

    Dropping vertex i carries (-1)^i, times the sign of the permutation that
    sorts what is left, so a sorted simplex has the alternating signs.
    """
    for i in range(len(simplex)):
        face = simplex[:i] + simplex[i + 1:]
        swaps = sum(a > b for a, b in itertools.combinations(face, 2))
        yield tuple(sorted(face)), (-1) ** (i + swaps)


def _closure(simplices, size):
    """Sorted vertex tuples of 1..size vertices under ``simplices``, one list per size."""
    return [sorted({c for s in simplices for c in itertools.combinations(sorted(s), k)})
            for k in range(1, size + 1)]


def _cochain_complex(levels, label):
    """Complex with one basis cell per entry of ``levels[k]`` in degree k.

    Row s of the differential into degree k + 1 holds the signed faces of
    the cell s, so d is the transpose of the simplicial boundary.
    """
    diffs = []
    for lower, upper in zip(levels, levels[1:]):
        index = {c: i for i, c in enumerate(lower)}
        d = [[0] * len(lower) for _ in upper]
        for row, s in zip(d, upper):
            for face, sign in _faces(s):
                row[index[face]] += sign
        diffs.append(d)
    return CochainComplex([len(c) for c in levels], diffs, label)


class Mesh:
    """Oriented simplicial n-manifold with boundary, given by its top simplices.

    Each top simplex is a tuple of n + 1 distinct vertices, n >= 1, whose
    order is its orientation; every lower simplex is a sorted vertex tuple.
    The boundary is the closure of the faces that lie in exactly one top
    simplex.  Construction rejects a repeated vertex, top simplices of
    different sizes or on one vertex set, and top simplices that cannot be
    coherently oriented.
    """

    def __init__(self, name: str, tops):
        self.name = name
        self.tops = [tuple(t) for t in tops]
        sizes = {len(t) for t in self.tops}
        if len(sizes) != 1 or min(sizes) < 2:
            raise ComplexError(
                f"{name}: top simplices need one size of at least two "
                f"vertices, got sizes {sorted(sizes)}")
        for t in self.tops:
            if len(set(t)) != len(t):
                raise ComplexError(f"{name}: top simplex {t} repeats a vertex")
        if len({frozenset(t) for t in self.tops}) != len(self.tops):
            raise ComplexError(f"{name}: two top simplices share a vertex set")
        self.dim = len(self.tops[0]) - 1
        signs = {}
        for t in self.tops:
            for face, sign in _faces(t):
                signs.setdefault(face, []).append(sign)
        # the top simplices keep their listed orientation, so coherence is:
        # at most two per face, inducing opposite signs on it
        for face, used in signs.items():
            if len(used) > 2:
                raise ComplexError(
                    f"{name}: face {face} borders {len(used)} top simplices")
            if len(used) == 2 and used[0] == used[1]:
                raise ConsistencyError(
                    f"{name}: both top simplices at face {face} induce the "
                    f"same sign on it; flip one of them")
        self.cells = _closure(self.tops, self.dim) + [self.tops]
        self.boundary_cells = _closure(
            [f for f, used in signs.items() if len(used) == 1], self.dim)

    def complex(self) -> CochainComplex:
        return _cochain_complex(self.cells, self.name)

    def boundary_complex(self) -> CochainComplex:
        return _cochain_complex(self.boundary_cells, f"bdry({self.name})")

    def restriction(self):
        """Chain map matrices picking out boundary simplices, one per degree of M."""
        out = []
        for cells, bcells in zip(self.cells, self.boundary_cells + [[]]):
            index = {c: i for i, c in enumerate(cells)}
            out.append([[int(j == index[b]) for j in range(len(cells))]
                        for b in bcells])
        return out

    def complexes(self):
        return self.complex(), self.boundary_complex(), self.restriction()


def _interval() -> Mesh:
    return Mesh("interval", [(0, 1), (1, 2)])


def _circle() -> Mesh:
    return Mesh("circle", [(0, 1), (1, 2), (2, 3), (3, 0)])


def _disk() -> Mesh:
    return Mesh("disk", [(0, 1, 4), (1, 2, 4), (2, 3, 4), (3, 0, 4)])


def _annulus() -> Mesh:
    return Mesh("annulus", [(0, 1, 5), (0, 5, 4), (1, 2, 6), (1, 6, 5),
                            (2, 3, 7), (2, 7, 6), (3, 0, 4), (3, 4, 7)])


def _cylinder() -> Mesh:
    return Mesh("cylinder", [(0, 1, 4), (0, 4, 3), (1, 2, 5), (1, 5, 4),
                             (2, 0, 3), (2, 3, 5)])


def moebius_mesh() -> Mesh:
    """Minimal five-vertex band with a half twist; construction must fail."""
    return Mesh("moebius", [(0, 1, 2), (1, 2, 3), (2, 3, 4), (3, 4, 0),
                            (4, 0, 1)])


MESH_REGISTRY = {
    "interval": _interval,
    "circle": _circle,
    "disk": _disk,
    "annulus": _annulus,
    "cylinder": _cylinder,
}


def make_mesh(name: str) -> Mesh:
    try:
        factory = MESH_REGISTRY[name]
    except KeyError:
        raise ComplexError(f"unknown mesh {name!r}") from None
    return factory()
