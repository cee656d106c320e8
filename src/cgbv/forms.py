"""Exterior calculus on coordinate charts with explicit coefficient lists.

A degree-p form on an n-dimensional chart is a callable returning the list
of coefficients against the lexicographic basis ``dx_I``, ``|I| = p``.
Coefficients can be plain floats, arrays over a block of quadrature nodes
or of sample points, or :class:`~cgbv.dual.Dual` numbers over either, so
the same closures serve integration, sampled checks and differentiation.
A block leads with a draw axis, of length 1 or of the R draws of a random
family, and keeps its node or point axis last.  Exterior derivatives and
Jacobians are exact (forward-mode duals), never finite differences:
:func:`lift_point` seeds every chart direction at once on a leading axis
of the derivative slots, so ``d``, a matrix ``d`` and a Jacobian run their
closure once per evaluation and read every direction back in one walk
(:func:`cgbv.dual.directions`).  :meth:`SmoothMap.jacobian` returns values
and first derivatives from that one lifted pass, the values read from its
value slots; a map built from ``jac`` alone returns both in closed form
instead (the chart embeddings of :mod:`cgbv.geometry`), as a
:class:`MatrixForm` built with ``closed_d`` returns its ``d`` (the split
connections of :mod:`cgbv.bundles`).  Every pullback in positive degree,
of a form, a matrix form, a chart integrand or a cylinder integrand, takes
one :func:`minors` table per Jacobian and pulls coefficients back through
it with :func:`contract`.  Sums are ``a = a + b``: an in-place
``+=`` cannot widen (B, 1) base points against F fiber nodes, nor one draw
against R.

Every evaluation over many nodes or points takes them in blocks of at most
:data:`BLOCK`, whatever the form, so blocks depend only on the rule or the
point count and sum in the same order on every run and machine.

A sampled identity lhs = rhs is one form, ``lhs - rhs``, built with the
arithmetic below, and :func:`form_sup` reduces it over the sample points in
those blocks; the check itself pairs no coefficient lists.

A closure returns the literal float ``0.0`` for a coefficient that vanishes
identically, such as the dt slot of a path potential or every entry of a
flat connection: that is a structural zero (:func:`is_zero`).  Only the
literal float counts, never an array or a dual, whatever it holds, so which
products run depends on how a form is built and not on the data.  Every
product of coefficient lists runs through one wedge kernel, a scalar
factor (a frame entry, a constant gauge, a simplex weight) being the
0-form ``[s]``.  It skips a structural zero in either factor, testing a
left factor once per row of its table and a right factor once per term,
and a sum with a structural zero returns the other operand (:func:`plus`,
:func:`minus`, :func:`times`).  A NaN reaches every term it takes part in;
a term whose other factor is a structural zero is zero without reading it.
"""

from __future__ import annotations

import itertools
import math
from functools import lru_cache

import numpy as np

from .dual import Dual, depth, deriv, directions, value
from .errors import DegreeError, ShapeError


# Nodes or sample points per closure evaluation, for every form.  Shorter
# blocks pay more Python overhead per numpy call (at 256 the wide 4 x 4
# transgressions of symmetry-reflection ran about 20% slower); longer ones
# hold more arrays at once (at 1024 a registry run peaked about 1 MB higher)
# and the registry as a whole ran no faster.
BLOCK = 512


@lru_cache(maxsize=None)
def combos(n: int, p: int) -> tuple:
    """Sorted index tuples of length p drawn from range(n), lexicographic; none for p < 0."""
    return tuple(itertools.combinations(range(n), p)) if p >= 0 else ()


@lru_cache(maxsize=None)
def combo_index(n: int, p: int) -> dict:
    return {I: i for i, I in enumerate(combos(n, p))}


def merge_sign(I: tuple, J: tuple) -> int:
    """Sign of sorting the concatenation of two sorted disjoint tuples."""
    inversions = sum(1 for a in I for b in J if b < a)
    return -1 if inversions % 2 else 1


@lru_cache(maxsize=None)
def wedge_table(n: int, p: int, q: int) -> tuple:
    """Per left index iI in order, the entries (iJ, iK, sign) with
    dx_I ^ dx_J = sign * dx_K: a tuple of (iI, entries), empty rows left out."""
    idx = combo_index(n, p + q)
    table = []
    for iI, I in enumerate(combos(n, p)):
        row = tuple((iJ, idx[tuple(sorted(I + J))], merge_sign(I, J))
                    for iJ, J in enumerate(combos(n, q)) if not set(I) & set(J))
        if row:
            table.append((iI, row))
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


def is_zero(v) -> bool:
    """Whether v is a structural zero: the literal float 0.0, never an array or a dual."""
    return type(v) is float and v == 0.0


# plus, minus and times run once per term of every product; they repeat
# the test of is_zero inline, which halves their cost on plain floats.
def plus(a, b):
    """a + b, the other operand itself when one is a structural zero."""
    if type(a) is float and a == 0.0:
        return b
    if type(b) is float and b == 0.0:
        return a
    return a + b


def minus(a, b):
    """a - b, ``a`` itself or ``-b`` when the other is a structural zero."""
    if type(b) is float and b == 0.0:
        return a
    if type(a) is float and a == 0.0:
        return -b
    return a - b


def times(a, b):
    """a * b, a structural zero when either factor is one."""
    if (type(a) is float and a == 0.0) or (type(b) is float and b == 0.0):
        return 0.0
    return a * b


def zero_coeffs(n: int, p: int) -> list:
    return [0.0] * len(combos(n, p))


def add_coeffs(a: list, b: list) -> list:
    return [plus(x, y) for x, y in zip(a, b)]


def sub_coeffs(a: list, b: list) -> list:
    return [minus(x, y) for x, y in zip(a, b)]


def scale_coeffs(c, a: list) -> list:
    return [times(c, x) for x in a]


def as_block(points) -> list:
    """Equal-length points as one block: a full-length float array per coordinate."""
    return [np.array(c, dtype=float) for c in zip(*points)]


def sup_abs(values) -> float:
    """Largest |v| over values, 0.0 when empty; NaN as soon as any v is NaN.

    A value may be an array, each entry counting.  The running
    ``max(worst, v)`` idiom drops a NaN that follows a finite value, since
    ``max(0.0, nan) == 0.0``; residual sups go through this instead so a
    non-finite sample cannot grade as zero.  Infinities need no special
    case: they win every comparison.
    """
    worst = 0.0
    for v in values:
        if isinstance(v, np.ndarray):
            # np.max propagates NaN
            a = float(np.max(np.abs(v))) if v.size else 0.0
        else:
            a = abs(v)
        if math.isnan(a):
            return a
        worst = max(worst, a)
    return worst


def form_sup(form: Form, points) -> float:
    """:func:`sup_abs` of every coefficient of a form over the points.

    ``points`` lists P points shared by every draw, or R lists of P, one
    per draw of a family; they are evaluated as (1, P) or (R, P) blocks of
    at most :data:`BLOCK` points per row.  A sup does not depend on
    the order it is taken in, so this is the value one block of every
    point gives, without holding all their arrays at once.  A sampled
    identity lhs = rhs is checked as ``form_sup(lhs - rhs, points)``: a
    degree mismatch raises :class:`ShapeError` when the difference is
    built, before anything is evaluated.
    """
    if not len(points):
        return 0.0
    pts = np.asarray(points, dtype=float)
    # one array per coordinate, (n, R, P), R = 1 for shared points
    coords = np.moveaxis(pts if pts.ndim == 3 else pts[None], -1, 0).copy()
    return sup_abs(sup_abs(form(list(coords[..., s:s + BLOCK])))
                   for s in range(0, coords.shape[-1], BLOCK))


def wedge_coeffs(n: int, p: int, q: int, a: list, b: list) -> list:
    return _wedge_into(zero_coeffs(n, p + q), wedge_table(n, p, q), a, b)


def _wedge_into(out: list, table, a: list, b: list) -> list:
    """Add a ^ b to ``out`` term by term, skipping structural zeros.

    A structural zero of ``a`` skips its whole row of the table.  The sign
    of a table entry picks ``plus`` or ``minus``: multiplying a dual by +-1
    would cost as much as a product and change nothing.
    """
    for iI, row in table:
        x = a[iI]
        if type(x) is float and x == 0.0:
            continue
        for iJ, iK, sign in row:
            y = b[iJ]
            if type(y) is float and y == 0.0:
                continue
            t = x * y
            out[iK] = plus(out[iK], t) if sign > 0 else minus(out[iK], t)
    return out


def _wedges(out: list, table, lefts, rights) -> list:
    """Add sum_k lefts[k] ^ rights[k] to ``out`` in place, k ascending."""
    for a, b in zip(lefts, rights):
        _wedge_into(out, table, a, b)
    return out


def lift_point(x, dirs) -> list:
    """Embed a point one dual level up, seeding every direction in ``dirs``.

    Coordinate k gets the derivative slot one-hot at the positions i with
    ``dirs[i] == k``, an array of shape ``(len(dirs),) + (1,) * r`` where r
    is the largest ndim among the slots of x: the new direction axis leads,
    and the axes of inner levels and of the nodes broadcast behind it.  The
    seeds are built once per shape and are read-only.
    """
    r = max((_ndim(xk) for xk in x), default=0)
    return [Dual(xk, s) for xk, s in zip(x, _seeds(len(x), tuple(dirs), r))]


@lru_cache(maxsize=None)
def _seeds(n: int, dirs: tuple, r: int) -> tuple:
    seeds = []
    for k in range(n):
        s = np.zeros((len(dirs),) + (1,) * r)
        for i, d in enumerate(dirs):
            if d == k:
                s[i] = 1.0
        s.flags.writeable = False
        seeds.append(s)
    return tuple(seeds)


def _ndim(v) -> int:
    if isinstance(v, Dual):
        return max(_ndim(v.a), _ndim(v.b))
    return v.ndim if isinstance(v, np.ndarray) else 0


def _d_coeffs(n: int, p: int, lifted: list, levels: int) -> list:
    """Coefficients of d from the coefficients of a p-form at a lifted point."""
    table = d_table(n, p)
    dirs = [None if is_zero(t) else directions(t, n, levels)
            for t in (deriv(v) for v in lifted)]
    out = zero_coeffs(n, p + 1)
    for j in range(n):
        for iI, iK, sign in table[j]:
            if dirs[iI] is not None:
                t = dirs[iI][j]
                out[iK] = plus(out[iK], t) if sign > 0 else minus(out[iK], t)
    return out


def _levels(x) -> int:
    """Dual levels in a point, the ``levels`` of :func:`cgbv.dual.directions`."""
    return max((depth(xk) for xk in x), default=0)


def det(M) -> float:
    """Determinant of a small square matrix of generic ring elements."""
    s = len(M)
    if s == 0:
        return 1.0
    if s == 1:
        return M[0][0]
    if s == 2:
        return minus(times(M[0][0], M[1][1]), times(M[0][1], M[1][0]))
    # Laplace along the first row; matrices here never exceed size 6
    total = 0.0
    for c in range(s):
        if is_zero(M[0][c]):
            continue
        minor = [[M[r][cc] for cc in range(s) if cc != c] for r in range(1, s)]
        term = times(M[0][c], det(minor))
        total = plus(total, term) if c % 2 == 0 else minus(total, term)
    return total


def minors(J, p: int, n_dst: int, n_src: int) -> list:
    """The p x p minors of a Jacobian J (dst x src), built once per J.

    Row k lists det J[I, K] for the k-th K of ``combos(n_src, p)``, one
    entry per I of ``combos(n_dst, p)``; :func:`contract` pulls any number
    of coefficient lists back through one table.
    """
    return [[det([[J[r][c] for c in K] for r in I]) for I in combos(n_dst, p)]
            for K in combos(n_src, p)]


def contract(table, coeffs: list) -> list:
    """Pulled-back coefficients: per row of a :func:`minors` table, the sum
    over I of ``coeffs[I]`` times its minor, I ascending."""
    out = []
    for row in table:
        acc = 0.0
        for a, minor in zip(coeffs, row):
            acc = plus(acc, times(a, minor))
        out.append(acc)
    return out


class SmoothMap:
    """Map between charts given by a plain callable on coordinate lists.

    The callable must accept Dual entries.  Its Jacobian comes from
    forward-mode differentiation, unless ``jac`` gives it in closed form:
    ``jac(x)`` returns the values and the dst_dim x src_dim matrix of
    partials (the chart embeddings of :mod:`cgbv.geometry`), as
    ``closed_d`` does for a :class:`MatrixForm`.  A map built from ``jac``
    alone takes its values from ``jac(x)[0]``; ``fn`` may be omitted only
    then.
    """

    def __init__(self, src_dim: int, dst_dim: int, fn=None, jac=None):
        if fn is None:
            if jac is None:
                raise TypeError("SmoothMap needs fn or jac")
            def fn(x):
                return jac(x)[0]
        self.src_dim = src_dim
        self.dst_dim = dst_dim
        self.fn = fn
        self.jac = jac

    def __call__(self, x):
        y = self.fn(list(x))
        if len(y) != self.dst_dim:
            raise ShapeError(f"map returned {len(y)} components, expected {self.dst_dim}")
        return y

    def jacobian(self, x):
        """Values at x and the dst_dim x src_dim matrix of partials.

        A map built with ``jac`` evaluates it.  Otherwise every column rides
        on the leading direction axis of the derivative slots of one dual
        pass, so the map runs once whatever the source dimension, and the
        value slots of that pass are the values.  A map with no source
        directions (the point faces of intervals and boxes) returns its
        values and the empty Jacobian without that pass.  Either way
        ``jacobian(x)[0]`` equals ``self(x)``.  This is the one place a map
        is lifted for its first derivatives.
        """
        if self.jac is not None:
            y, J = self.jac(list(x))
            if len(y) != self.dst_dim:
                raise ShapeError(f"map returned {len(y)} components, expected {self.dst_dim}")
            return y, J
        if self.src_dim == 0:
            y = self(x)
            return y, [[] for _ in y]
        levels = _levels(x)
        y = self(lift_point(x, range(self.src_dim)))
        return ([value(c) for c in y],
                [directions(deriv(c), self.src_dim, levels) for c in y])

    def compose(self, inner: "SmoothMap") -> "SmoothMap":
        if inner.dst_dim != self.src_dim:
            raise ShapeError("composition dimensions do not line up")
        return SmoothMap(inner.src_dim, self.dst_dim, lambda x: self.fn(inner.fn(list(x))))

    @staticmethod
    def identity(n: int) -> "SmoothMap":
        eye = tuple(tuple(1.0 if i == j else 0.0 for j in range(n)) for i in range(n))
        return SmoothMap(n, n, jac=lambda x: (list(x), eye))


class Form:
    """Differential form of degree p on an n-dimensional chart.

    Parameters
    ----------
    n : int
        Chart dimension.
    p : int
        Form degree.  Degrees below 0 or above n are legal and carry an
        empty coefficient list: that space is zero, and representing it
        keeps degree bookkeeping uniform (d always raises degree by one, a
        fiber integral always lowers it by the fiber dimension).
    comps : callable
        Point -> list of coefficients aligned with ``combos(n, p)``.
    """

    __slots__ = ("n", "p", "comps")

    def __init__(self, n: int, p: int, comps):
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

    # Sums, wedges, d and pullbacks evaluate each operand through its count
    # check, so a closure that returns too many coefficients raises rather
    # than being cut short.
    def __add__(self, other: "Form") -> "Form":
        self._compat(other)
        return Form(self.n, self.p, lambda x: add_coeffs(self(x), other(x)))

    def __sub__(self, other: "Form") -> "Form":
        self._compat(other)
        return Form(self.n, self.p, lambda x: sub_coeffs(self(x), other(x)))

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
        if min(self.p, other.p) < 0 or self.p + other.p > self.n:
            return Form.zero(self.n, self.p + other.p)
        n, p, q = self.n, self.p, other.p
        return Form(n, p + q, lambda x: wedge_coeffs(n, p, q, self(x), other(x)))

    def d(self) -> "Form":
        """Exterior derivative from one dual pass carrying every direction.

        The derivative of a form outside degrees 0..n-1 vanishes; it is
        returned as the zero form one degree up.
        """
        if not 0 <= self.p < self.n:
            return Form.zero(self.n, self.p + 1)
        n, p = self.n, self.p

        def comps(x):
            return _d_coeffs(n, p, self(lift_point(x, range(n))), _levels(x))

        return Form(n, p + 1, comps)

    def pullback(self, phi: SmoothMap) -> "Form":
        """Pull back along phi, landing on the source chart of phi.

        Outside degrees 0..source dimension the pullback vanishes
        identically and is returned as the empty zero form.
        """
        if phi.dst_dim != self.n:
            raise ShapeError("pullback target dimension mismatch")
        n_src, n_dst, p = phi.src_dim, self.n, self.p
        if not 0 <= p <= n_src:
            return Form.zero(n_src, p)

        def comps(u):
            if p == 0:
                return self(phi(u))
            y, J = phi.jacobian(u)
            return contract(minors(J, p, n_dst, n_src), self(y))

        return Form(n_src, p, comps)

    def _compat(self, other: "Form"):
        if (self.n, self.p) != (other.n, other.p):
            raise ShapeError(
                f"incompatible forms: ({self.n},{self.p}) vs ({other.n},{other.p})")


class MatrixForm:
    """Square matrix of degree-p forms evaluated as one batch per point.

    Evaluation returns an m x m nested list whose entries are coefficient
    lists aligned with ``combos(n, p)``.  Batching the whole matrix into one
    closure, with every direction on the leading axis of the derivative
    slots, makes ``d`` a single closure call whatever the number of entries
    or the chart dimension.
    The stored ``eval`` raises :class:`ShapeError` unless the closure returns
    m rows of m lists of ``len(combos(n, p))`` coefficients.

    With ``closed_d`` the closure also takes ``with_d=True`` and then
    returns the values and the matrix of their ``d``, both count-checked;
    :meth:`eval_with_d` takes that path instead of a lifted pass.
    """

    __slots__ = ("n", "p", "m", "eval", "closed_d")

    def __init__(self, n: int, p: int, m: int, eval_fn, closed_d: bool = False):
        if p < 0:
            raise DegreeError(f"negative degree {p}")
        self.n = n
        self.p = p
        self.m = m
        self.closed_d = closed_d

        def check(A, q):
            count = len(combos(n, q))
            if (len(A) != m or {len(r) for r in A} - {m}
                    or {len(e) for r in A for e in r} - {count}):
                raise ShapeError(f"matrix form needs {m} x {m} entries of {count} coefficients")
            return A

        def checked(x, with_d=False):
            if not with_d:
                return check(eval_fn(x), p)
            A, dA = eval_fn(x, with_d=True)
            return check(A, p), check(dA, p + 1)

        self.eval = checked

    @staticmethod
    def zero(n: int, p: int, m: int) -> "MatrixForm":
        def eval_fn(x, with_d=False):
            z = [[zero_coeffs(n, p) for _ in range(m)] for _ in range(m)]
            if not with_d:
                return z
            return z, [[zero_coeffs(n, p + 1) for _ in range(m)] for _ in range(m)]
        return MatrixForm(n, p, m, eval_fn, closed_d=True)

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

    def eval_with_d(self, x):
        """Values at x and the matrix of their ``d``, from one lifted pass.

        As in :meth:`SmoothMap.jacobian`, every direction rides the leading
        axis of the derivative slots, and the values are read from the value
        slots of that pass: ``eval_with_d(x)[0]`` equals ``self.eval(x)``.
        The pass goes through the instance's ``eval``, like any evaluation;
        a form built with ``closed_d`` evaluates both there in closed form.
        """
        n, p, m = self.n, self.p, self.m
        if p >= n:
            return self.eval(x), [[zero_coeffs(n, p + 1) for _ in range(m)] for _ in range(m)]
        if self.closed_d:
            return self.eval(x, with_d=True)
        levels = _levels(x)
        L = self.eval(lift_point(x, range(n)))
        return ([[[value(v) for v in L[r][c]] for c in range(m)] for r in range(m)],
                [[_d_coeffs(n, p, L[r][c], levels) for c in range(m)] for r in range(m)])

    def d(self) -> "MatrixForm":
        if self.p >= self.n:
            return MatrixForm.zero(self.n, self.p + 1, self.m)
        return MatrixForm(self.n, self.p + 1, self.m, lambda x: self.eval_with_d(x)[1])

    def pullback(self, phi: SmoothMap) -> "MatrixForm":
        if phi.dst_dim != self.n:
            raise ShapeError("pullback target dimension mismatch")
        n_src, n_dst, p, m = phi.src_dim, self.n, self.p, self.m
        def eval_fn(u):
            if p == 0:
                return self.eval(phi(u))
            y, J = phi.jacobian(u)
            table = minors(J, p, n_dst, n_src)
            return [[contract(table, e) for e in row] for row in self.eval(y)]
        return MatrixForm(n_src, p, m, eval_fn)

    def _compat(self, other: "MatrixForm"):
        if (self.n, self.p, self.m) != (other.n, other.p, other.m):
            raise ShapeError("incompatible matrix forms")


def mat_mul_wedge(n: int, p: int, q: int, A, B):
    """Raw matrix product with entrywise wedge on coefficient lists.

    A scalar matrix S enters as the 0-form matrix ``[[[s] for s in row]
    for row in S]``, on either side, with p or q equal to 0.
    """
    m = len(A)
    table = wedge_table(n, p, q)
    cols = [[row[k] for row in B] for k in range(m)]
    return [[_wedges(zero_coeffs(n, p + q), table, A[i], cols[k]) for k in range(m)]
            for i in range(m)]
