"""Forward-mode dual numbers, nestable for repeated differentiation.

A :class:`Dual` carries a value ``a`` and a derivative ``b`` along one chosen
direction.  Both slots may themselves hold duals, so second derivatives fall
out of running the same code twice.  All derivative extraction in this
package goes through these numbers: no finite differences anywhere.

A slot may also hold a 1-D numpy array, one entry per quadrature node, so
the same code evaluates one point or a block; value selection goes through
:func:`where` instead of ``if``.
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
            inv = 1.0 / other.a if not isinstance(other.a, Dual) else None
            if inv is not None:
                return Dual(self.a * inv, (self.b * other.a - self.a * other.b) * inv * inv)
            va = self.a / other.a
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

    def __abs__(self):
        return where(real(self) >= 0.0, self, -self)

    # Branching compares real parts only: derivative info never changes
    # control flow, matching the piecewise-smooth functions we evaluate.
    def __lt__(self, other):
        return real(self) < real(other)

    def __le__(self, other):
        return real(self) <= real(other)

    def __gt__(self, other):
        return real(self) > real(other)

    def __ge__(self, other):
        return real(self) >= real(other)

    def __eq__(self, other):
        return real(self) == real(other)

    def __ne__(self, other):
        return real(self) != real(other)

    def __hash__(self):
        return hash(real(self))


def real(x):
    """Strip all derivative information, returning the underlying float."""
    while isinstance(x, Dual):
        x = x.a
    return x


def deriv(x):
    """Derivative slot of ``x``; zero when ``x`` is an ordinary number."""
    return x.b if isinstance(x, Dual) else 0.0


def where(cond, a, b):
    """``a`` where ``cond`` holds, else ``b``, slot by slot through nested duals.

    A plain boolean picks one operand whole; a boolean array selects node by
    node.  Both operands are evaluated, so callers clamp the arguments of a
    branch that would be invalid on the nodes it does not serve.
    """
    if not isinstance(cond, np.ndarray):
        return a if cond else b
    if isinstance(a, Dual) or isinstance(b, Dual):
        return Dual(where(cond, _value(a), _value(b)), where(cond, deriv(a), deriv(b)))
    return np.where(cond, a, b)


def _value(x):
    return x.a if isinstance(x, Dual) else x


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


def atan2(y, x):
    if isinstance(y, Dual) or isinstance(x, Dual):
        ya, xa = (y.a if isinstance(y, Dual) else y), (x.a if isinstance(x, Dual) else x)
        yb, xb = deriv(y), deriv(x)
        denom = xa * xa + ya * ya
        return Dual(atan2(ya, xa), (yb * xa - ya * xb) / denom)
    return math.atan2(y, x)
