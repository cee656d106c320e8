"""Exterior calculus on coordinate charts with explicit coefficient lists.

A degree-p form on an n-dimensional chart is a callable returning the list
of coefficients against the lexicographic basis ``dx_I``, ``|I| = p``.
Coefficients can be plain floats, 1-D arrays over a block of quadrature
nodes, or :class:`~cgbv.dual.Dual` numbers over either, so the same closures
serve integration and differentiation.  Exterior derivatives
are exact (forward-mode duals, one direction at a time), never finite
differences.
"""

from __future__ import annotations

import itertools
import math
from functools import lru_cache

from .dual import Dual, deriv
from .errors import DegreeError, ShapeError


@lru_cache(maxsize=None)
def combos(n: int, p: int) -> tuple:
    """Sorted index tuples of length p drawn from range(n), lexicographic."""
    return tuple(itertools.combinations(range(n), p))


@lru_cache(maxsize=None)
def combo_index(n: int, p: int) -> dict:
    return {I: i for i, I in enumerate(combos(n, p))}


def merge_sign(I: tuple, J: tuple) -> int:
    """Sign of sorting the concatenation of two sorted disjoint tuples."""
    inversions = 0
    for a in I:
        for b in J:
            if b < a:
                inversions += 1
    return -1 if inversions % 2 else 1


@lru_cache(maxsize=None)
def wedge_table(n: int, p: int, q: int) -> tuple:
    """Entries (iI, iJ, iK, sign) with dx_I ^ dx_J = sign * dx_K."""
    idx = combo_index(n, p + q)
    table = []
    for iI, I in enumerate(combos(n, p)):
        setI = set(I)
        for iJ, J in enumerate(combos(n, q)):
            if setI & set(J):
                continue
            K = tuple(sorted(I + J))
            table.append((iI, iJ, idx[K], merge_sign(I, J)))
    return tuple(table)


@lru_cache(maxsize=None)
def d_table(n: int, p: int) -> tuple:
    """Per direction j: entries (iI, iK, sign) with dx_j ^ dx_I = sign dx_K."""
    idx = combo_index(n, p + 1)
    per_dir = []
    for j in range(n):
        entries = []
        for iI, I in enumerate(combos(n, p)):
            if j in I:
                continue
            K = tuple(sorted((j,) + I))
            entries.append((iI, idx[K], merge_sign((j,), I)))
        per_dir.append(tuple(entries))
    return tuple(per_dir)


def zero_coeffs(n: int, p: int) -> list:
    return [0.0] * len(combos(n, p))


def add_coeffs(a: list, b: list) -> list:
    return [x + y for x, y in zip(a, b)]


def sub_coeffs(a: list, b: list) -> list:
    return [x - y for x, y in zip(a, b)]


def scale_coeffs(c, a: list) -> list:
    return [c * x for x in a]


def sup_abs(values) -> float:
    """Largest |v| over values, 0.0 when empty; NaN as soon as any v is NaN.

    The running ``max(worst, v)`` idiom drops a NaN that follows a finite
    value, since ``max(0.0, nan) == 0.0``; residual sups go through this
    instead so a non-finite sample cannot grade as zero.  Infinities need
    no special case: they win every comparison.
    """
    worst = 0.0
    for v in values:
        a = abs(v)
        if math.isnan(a):
            return a
        worst = max(worst, a)
    return worst


def wedge_coeffs(n: int, p: int, q: int, a: list, b: list) -> list:
    out = zero_coeffs(n, p + q)
    for iI, iJ, iK, sign in wedge_table(n, p, q):
        out[iK] += sign * a[iI] * b[iJ]
    return out


def lift_point(x, j: int) -> list:
    """Embed a point one dual level up, seeding direction j."""
    return [Dual(xk, 1.0 if k == j else 0.0) for k, xk in enumerate(x)]


def det(M) -> float:
    """Determinant of a small square matrix of generic ring elements."""
    s = len(M)
    if s == 0:
        return 1.0
    if s == 1:
        return M[0][0]
    if s == 2:
        return M[0][0] * M[1][1] - M[0][1] * M[1][0]
    if s == 3:
        return (M[0][0] * (M[1][1] * M[2][2] - M[1][2] * M[2][1])
                - M[0][1] * (M[1][0] * M[2][2] - M[1][2] * M[2][0])
                + M[0][2] * (M[1][0] * M[2][1] - M[1][1] * M[2][0]))
    # Laplace along the first row; matrices here never exceed size 6
    total = 0.0
    for c in range(s):
        if isinstance(M[0][c], float) and M[0][c] == 0.0:
            continue
        minor = [[M[r][cc] for cc in range(s) if cc != c] for r in range(1, s)]
        term = M[0][c] * det(minor)
        total = total + term if c % 2 == 0 else total - term
    return total


def submatrix(M, rows, cols):
    return [[M[r][c] for c in cols] for r in rows]


def pullback_coeffs(p: int, J, coeffs: list, n_dst: int, n_src: int) -> list:
    """Transform coefficients of a p-form through a Jacobian J (dst x src)."""
    if p == 0:
        return list(coeffs)
    out = []
    for K in combos(n_src, p):
        acc = 0.0
        for iI, I in enumerate(combos(n_dst, p)):
            aI = coeffs[iI]
            if isinstance(aI, float) and aI == 0.0:
                continue
            acc = acc + aI * det(submatrix(J, I, K))
        out.append(acc)
    return out


class SmoothMap:
    """Map between charts given by a plain callable on coordinate lists.

    The callable must accept Dual entries; every Jacobian in the package is
    extracted from it by forward-mode differentiation.
    """

    def __init__(self, src_dim: int, dst_dim: int, fn):
        self.src_dim = src_dim
        self.dst_dim = dst_dim
        self.fn = fn

    def __call__(self, x):
        y = self.fn(list(x))
        if len(y) != self.dst_dim:
            raise ShapeError(f"map returned {len(y)} components, expected {self.dst_dim}")
        return y

    def jacobian(self, x):
        """dst_dim x src_dim matrix of partials at x, one dual pass per column."""
        cols = []
        for j in range(self.src_dim):
            yj = self.fn(lift_point(x, j))
            cols.append([deriv(c) for c in yj])
        return [[cols[j][i] for j in range(self.src_dim)] for i in range(self.dst_dim)]

    def compose(self, inner: "SmoothMap") -> "SmoothMap":
        if inner.dst_dim != self.src_dim:
            raise ShapeError("composition dimensions do not line up")
        return SmoothMap(inner.src_dim, self.dst_dim, lambda x: self.fn(inner.fn(list(x))))

    @staticmethod
    def identity(n: int) -> "SmoothMap":
        return SmoothMap(n, n, lambda x: list(x))


class Form:
    """Differential form of degree p on an n-dimensional chart.

    Parameters
    ----------
    n : int
        Chart dimension.
    p : int
        Form degree.  Degrees above n are legal and carry an empty
        coefficient list: that space is zero, and representing it keeps
        degree bookkeeping uniform (d always raises degree by one).
    comps : callable
        Point -> list of coefficients aligned with ``combos(n, p)``.
    """

    __slots__ = ("n", "p", "comps")

    def __init__(self, n: int, p: int, comps):
        if p < 0:
            raise DegreeError(f"negative degree {p}")
        self.n = n
        self.p = p
        self.comps = comps

    def evaluate(self, x) -> list:
        vals = self.comps(list(x))
        if len(vals) != len(combos(self.n, self.p)):
            raise ShapeError(
                f"form returned {len(vals)} coefficients, expected {len(combos(self.n, self.p))}")
        return vals

    __call__ = evaluate

    @staticmethod
    def zero(n: int, p: int) -> "Form":
        return Form(n, p, lambda x: zero_coeffs(n, p))

    @staticmethod
    def constant(n: int, p: int, values) -> "Form":
        vals = list(values)
        if len(vals) != len(combos(n, p)):
            raise ShapeError("constant coefficient list has wrong length")
        return Form(n, p, lambda x: list(vals))

    @staticmethod
    def scalar(n: int, fn) -> "Form":
        """0-form from a plain scalar function of the coordinates."""
        return Form(n, 0, lambda x: [fn(x)])

    def __add__(self, other: "Form") -> "Form":
        self._compat(other)
        return Form(self.n, self.p, lambda x: add_coeffs(self.comps(x), other.comps(x)))

    def __sub__(self, other: "Form") -> "Form":
        self._compat(other)
        return Form(self.n, self.p, lambda x: sub_coeffs(self.comps(x), other.comps(x)))

    def __neg__(self) -> "Form":
        return Form(self.n, self.p, lambda x: [-v for v in self.comps(x)])

    def smul(self, c) -> "Form":
        """Multiply by a constant scalar."""
        return Form(self.n, self.p, lambda x: scale_coeffs(c, self.comps(x)))

    def __mul__(self, c):
        return self.smul(c)

    __rmul__ = __mul__

    def wedge(self, other: "Form") -> "Form":
        if other.n != self.n:
            raise ShapeError("wedge of forms on charts of different dimension")
        if self.p + other.p > self.n:
            return ZeroForm(self.n, self.p + other.p)
        n, p, q = self.n, self.p, other.p
        return Form(n, p + q, lambda x: wedge_coeffs(n, p, q, self.comps(x), other.comps(x)))

    def d(self) -> "Form":
        """Exterior derivative via one dual-number pass per direction.

        The derivative of a form at or above top degree vanishes; it is
        returned as the empty zero form one degree up.
        """
        if self.p >= self.n:
            return ZeroForm(self.n, self.p + 1)
        n, p = self.n, self.p
        table = d_table(n, p)

        def comps(x):
            out = zero_coeffs(n, p + 1)
            for j in range(n):
                vals = self.comps(lift_point(x, j))
                for iI, iK, sign in table[j]:
                    out[iK] += sign * deriv(vals[iI])
            return out

        return Form(n, p + 1, comps)

    def pullback(self, phi: SmoothMap) -> "Form":
        """Pull back along phi, landing on the source chart of phi.

        When the degree exceeds the source dimension the pullback vanishes
        identically and is returned as the empty zero form.
        """
        if phi.dst_dim != self.n:
            raise ShapeError("pullback target dimension mismatch")
        n_src, n_dst, p = phi.src_dim, self.n, self.p
        if p > n_src:
            return ZeroForm(n_src, p)

        def comps(u):
            y = phi(u)
            vals = self.comps(y)
            if p == 0:
                return vals
            J = phi.jacobian(u)
            return pullback_coeffs(p, J, vals, n_dst, n_src)

        return Form(n_src, p, comps)

    def _compat(self, other: "Form"):
        if (self.n, self.p) != (other.n, other.p):
            raise ShapeError(
                f"incompatible forms: ({self.n},{self.p}) vs ({other.n},{other.p})")


class ZeroForm(Form):
    """Identically zero form, flagging a degenerate operation.

    Returned where a construction collapses for degree reasons, e.g. a
    fiber integral of a form whose degree is below the fiber dimension.
    Behaves as an ordinary zero form everywhere else.
    """

    __slots__ = ()

    def __init__(self, n: int, p: int):
        count = len(combos(n, p))
        super().__init__(n, p, lambda x: [0.0] * count)


class MatrixForm:
    """Square matrix of degree-p forms evaluated as one batch per point.

    Evaluation returns an m x m nested list whose entries are coefficient
    lists aligned with ``combos(n, p)``.  Batching the whole matrix into one
    closure keeps dual-number differentiation passes proportional to the
    chart dimension rather than to the number of entries.
    """

    __slots__ = ("n", "p", "m", "eval")

    def __init__(self, n: int, p: int, m: int, eval_fn):
        if p < 0:
            raise DegreeError(f"negative degree {p}")
        self.n = n
        self.p = p
        self.m = m
        self.eval = eval_fn

    @staticmethod
    def zero(n: int, p: int, m: int) -> "MatrixForm":
        def eval_fn(x):
            return [[zero_coeffs(n, p) for _ in range(m)] for _ in range(m)]
        return MatrixForm(n, p, m, eval_fn)

    @staticmethod
    def from_forms(grid) -> "MatrixForm":
        m = len(grid)
        n, p = grid[0][0].n, grid[0][0].p
        for row in grid:
            for f in row:
                if (f.n, f.p) != (n, p):
                    raise ShapeError("matrix entries must share chart and degree")
        return MatrixForm(n, p, m, lambda x: [[f.comps(list(x)) for f in row] for row in grid])

    def __add__(self, other: "MatrixForm") -> "MatrixForm":
        self._compat(other)
        def eval_fn(x):
            A, B = self.eval(x), other.eval(x)
            return [[add_coeffs(A[i][j], B[i][j]) for j in range(self.m)] for i in range(self.m)]
        return MatrixForm(self.n, self.p, self.m, eval_fn)

    def __sub__(self, other: "MatrixForm") -> "MatrixForm":
        self._compat(other)
        def eval_fn(x):
            A, B = self.eval(x), other.eval(x)
            return [[sub_coeffs(A[i][j], B[i][j]) for j in range(self.m)] for i in range(self.m)]
        return MatrixForm(self.n, self.p, self.m, eval_fn)

    def __neg__(self) -> "MatrixForm":
        return self.smul(-1.0)

    def smul(self, c) -> "MatrixForm":
        def eval_fn(x):
            A = self.eval(x)
            return [[scale_coeffs(c, A[i][j]) for j in range(self.m)] for i in range(self.m)]
        return MatrixForm(self.n, self.p, self.m, eval_fn)

    def wedge(self, other: "MatrixForm") -> "MatrixForm":
        """Matrix product with entrywise wedge."""
        if other.n != self.n or other.m != self.m:
            raise ShapeError("matrix wedge dimension mismatch")
        n, p, q, m = self.n, self.p, other.p, self.m
        def eval_fn(x):
            A, B = self.eval(x), other.eval(x)
            return mat_mul_wedge(n, p, q, A, B)
        return MatrixForm(n, p + q, m, eval_fn)

    def d(self) -> "MatrixForm":
        if self.p >= self.n:
            return MatrixForm.zero(self.n, self.p + 1, self.m)
        n, p, m = self.n, self.p, self.m
        table = d_table(n, p)
        def eval_fn(x):
            out = [[zero_coeffs(n, p + 1) for _ in range(m)] for _ in range(m)]
            for j in range(n):
                A = self.eval(lift_point(x, j))
                tj = table[j]
                for r in range(m):
                    for c in range(m):
                        row = A[r][c]
                        dst = out[r][c]
                        for iI, iK, sign in tj:
                            dst[iK] += sign * deriv(row[iI])
            return out
        return MatrixForm(n, p + 1, m, eval_fn)

    def pullback(self, phi: SmoothMap) -> "MatrixForm":
        if phi.dst_dim != self.n:
            raise ShapeError("pullback target dimension mismatch")
        n_src, n_dst, p, m = phi.src_dim, self.n, self.p, self.m
        def eval_fn(u):
            y = phi(u)
            A = self.eval(y)
            if p == 0:
                return A
            J = phi.jacobian(u)
            return [[pullback_coeffs(p, J, A[i][j], n_dst, n_src)
                     for j in range(m)] for i in range(m)]
        return MatrixForm(n_src, p, m, eval_fn)

    def _compat(self, other: "MatrixForm"):
        if (self.n, self.p, self.m) != (other.n, other.p, other.m):
            raise ShapeError("incompatible matrix forms")


def mat_mul_wedge(n: int, p: int, q: int, A, B):
    """Raw matrix product with entrywise wedge on coefficient lists."""
    m = len(A)
    table = wedge_table(n, p, q)
    size = len(combos(n, p + q))
    out = [[[0.0] * size for _ in range(m)] for _ in range(m)]
    for i in range(m):
        Ai = A[i]
        for k in range(m):
            acc = out[i][k]
            for j in range(m):
                a = Ai[j]
                b = B[j][k]
                for iI, iJ, iK, sign in table:
                    acc[iK] += sign * a[iI] * b[iJ]
    return out


def _smul_mat(S, M):
    """Scalar matrix times matrix of coefficient lists."""
    m = len(S)
    ncomp = len(M[0][0])
    out = [[[0.0] * ncomp for _ in range(m)] for _ in range(m)]
    for i in range(m):
        for a in range(m):
            s = S[i][a]
            if isinstance(s, float) and s == 0.0:
                continue
            row = M[a]
            dst = out[i]
            for j in range(m):
                src = row[j]
                d = dst[j]
                for c in range(ncomp):
                    d[c] = d[c] + s * src[c]
    return out


def _mul_smat(M, S):
    m = len(S)
    ncomp = len(M[0][0])
    out = [[[0.0] * ncomp for _ in range(m)] for _ in range(m)]
    for i in range(m):
        for j in range(m):
            d = out[i][j]
            for a in range(m):
                s = S[a][j]
                if isinstance(s, float) and s == 0.0:
                    continue
                src = M[i][a]
                for c in range(ncomp):
                    d[c] = d[c] + src[c] * s
    return out
