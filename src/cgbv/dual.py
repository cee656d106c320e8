"""Forward-mode dual numbers, nestable for repeated differentiation.

A :class:`Dual` carries a value ``a`` and a derivative ``b``.  Both slots may
themselves hold duals, so second derivatives fall out of running the same
code twice.  All derivative extraction in this package goes through these
numbers: no finite differences anywhere.

A slot may also hold a numpy array whose last axis runs over quadrature
nodes, so the same code evaluates one point or a block; value selection goes
through :func:`where` instead of ``if``, and a dual defines no ordering.

A derivative slot may hold every chart direction at once, on a leading axis
of each of its arrays (:func:`cgbv.forms.lift_point` seeds them), so one
pass through a closure yields all directions; :func:`directions` reads
them back in one walk.  An inner level's direction axis broadcasts behind
the outer one, and the node axis stays last.
"""

from __future__ import annotations

import math

import numpy as np


class Dual:
    """Number of the form a + b*eps with eps*eps = 0."""

    __slots__ = ("a", "b")
    # numpy defers binary operators with an array on the left to Dual
    __array_ufunc__ = None

    def __init__(self, a, b=0.0):
        self.a = a
        self.b = b

    def __repr__(self):
        return f"Dual({self.a!r}, {self.b!r})"

    def __add__(self, other):
        if isinstance(other, Dual):
            return Dual(self.a + other.a, self.b + other.b)
        return Dual(self.a + other, self.b)

    __radd__ = __add__

    def __sub__(self, other):
        if isinstance(other, Dual):
            return Dual(self.a - other.a, self.b - other.b)
        return Dual(self.a - other, self.b)

    def __rsub__(self, other):
        return Dual(other - self.a, -self.b)

    def __mul__(self, other):
        if isinstance(other, Dual):
            return Dual(self.a * other.a, self.a * other.b + self.b * other.a)
        return Dual(self.a * other, self.b * other)

    __rmul__ = __mul__

    def __truediv__(self, other):
        if isinstance(other, Dual):
            va = self.a / other.a
            if not isinstance(other.a, Dual):
                inv = 1.0 / other.a
                return Dual(va, (self.b * other.a - self.a * other.b) * inv * inv)
            return Dual(va, (self.b - va * other.b) / other.a)
        return Dual(self.a / other, self.b / other)

    def __rtruediv__(self, other):
        # other / self with other a plain number
        va = other / self.a
        return Dual(va, -va * self.b / self.a)

    def __neg__(self):
        return Dual(-self.a, -self.b)

    def __pos__(self):
        return self

    def __pow__(self, n):
        if not isinstance(n, int):
            raise TypeError("dual powers support integer exponents only")
        if n == 0:
            return Dual(self.a * 0 + 1.0, self.b * 0)
        if n < 0:
            return 1.0 / (self ** (-n))
        return Dual(self.a ** n, n * self.a ** (n - 1) * self.b)


def real(x):
    """Strip all derivative information, returning the underlying float."""
    while isinstance(x, Dual):
        x = x.a
    return x


def value(x):
    """Value slot of ``x``, one level down; ``x`` itself when it is an ordinary number."""
    return x.a if isinstance(x, Dual) else x


def deriv(x):
    """Derivative slot of ``x``; zero when ``x`` is an ordinary number."""
    return x.b if isinstance(x, Dual) else 0.0


def depth(x) -> int:
    """Number of dual levels nested in ``x``; 0 for a float or an array."""
    if isinstance(x, Dual):
        return 1 + max(depth(x.a), depth(x.b))
    return 0


def directions(x, n: int, levels: int = 0) -> list:
    """The n directions of a derivative slot seeded by
    :func:`cgbv.forms.lift_point`, read in one walk.

    Axis 0 of every array slot runs over the directions; entry j of the
    result is direction j.  ``levels`` counts the dual levels of the point
    that was lifted: broadcasting against the seed leaves a singleton axis
    for each of them in front of an array, up to the first derivative slot
    of a lower level, and those are dropped.  An array left with a single
    entry becomes a float, as a constant derivative is with one pass per
    direction.
    """
    return _directions(x, n, levels, 0)


def _directions(x, n, drop, above):
    if isinstance(x, Dual):
        return [Dual(u, w) for u, w in zip(_directions(x.a, n, drop, above + 1),
                                           _directions(x.b, n, min(drop, above), above + 1))]
    if not isinstance(x, np.ndarray):
        return [x] * n
    if x[0].size == 1:
        return [x[j].item() for j in range(n)]
    while drop and x.shape[1] == 1:
        x = x[:, 0]
        drop -= 1
    return [x[j] for j in range(n)]


def where(cond, a, b):
    """``a`` where ``cond`` holds, else ``b``, slot by slot through nested duals.

    A plain boolean picks one operand whole; a boolean array selects node by
    node.  Both operands are evaluated, so callers clamp the arguments of a
    branch that would be invalid on the nodes it does not serve.
    """
    if not isinstance(cond, np.ndarray):
        return a if cond else b
    if isinstance(a, Dual) or isinstance(b, Dual):
        return Dual(where(cond, value(a), value(b)), where(cond, deriv(a), deriv(b)))
    return np.where(cond, a, b)


def trailing(x):
    """``x`` with a new last axis on every array slot, so nodes broadcast."""
    if isinstance(x, Dual):
        return Dual(trailing(x.a), trailing(x.b))
    return x[..., None] if isinstance(x, np.ndarray) else x


def node_sum(w, x):
    """Sum of ``w * x`` over the last (node) axis, slot by slot; a sum of
    shape () or (1,), one draw, gives a float."""
    if isinstance(x, Dual):
        return Dual(node_sum(w, x.a), node_sum(w, x.b))
    s = np.sum(w * x, axis=-1)
    return s.item() if s.shape in ((), (1,)) else s


def sin(x):
    if isinstance(x, Dual):
        return Dual(sin(x.a), x.b * cos(x.a))
    return np.sin(x) if isinstance(x, np.ndarray) else math.sin(x)


def cos(x):
    if isinstance(x, Dual):
        return Dual(cos(x.a), -x.b * sin(x.a))
    return np.cos(x) if isinstance(x, np.ndarray) else math.cos(x)


def exp(x):
    if isinstance(x, Dual):
        e = exp(x.a)
        return Dual(e, x.b * e)
    return np.exp(x) if isinstance(x, np.ndarray) else math.exp(x)


def sqrt(x):
    if isinstance(x, Dual):
        r = sqrt(x.a)
        return Dual(r, x.b / (2.0 * r))
    return np.sqrt(x) if isinstance(x, np.ndarray) else math.sqrt(x)


def log(x):
    if isinstance(x, Dual):
        return Dual(log(x.a), x.b / x.a)
    return np.log(x) if isinstance(x, np.ndarray) else math.log(x)


def atan(x):
    if isinstance(x, Dual):
        return Dual(atan(x.a), x.b / (1.0 + x.a * x.a))
    return np.arctan(x) if isinstance(x, np.ndarray) else math.atan(x)
