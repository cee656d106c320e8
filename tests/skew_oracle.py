"""Random skew connections for tests, built without the package's builders.

``random_skew(n, m, rng)`` draws a + b x_0 + c x_0 x_(n-1) for every
coefficient of all m * m entries, in row order, three uniforms in [-1, 1]
each, then keeps the strict upper triangle and mirrors it with the
opposite sign in a plain loop.  It shares no code with
``cgbv.bundles.random_skew_connection``, so tests can hold one against the
other.  The file name has no ``test_`` prefix, so pytest does not collect it.
"""

import random

from cgbv.chern_weil import Connection
from cgbv.forms import MatrixForm


def random_skew(n: int, m: int, rng: random.Random) -> Connection:
    """Skew potential on R^n with polynomial entries of total degree <= 2."""
    coefs = [[[[rng.uniform(-1.0, 1.0) for _ in range(3)]
               for _ in range(n)] for _ in range(m)] for _ in range(m)]

    def ev(x):
        out = [[[0.0] * n for _ in range(m)] for _ in range(m)]
        for i in range(m):
            for j in range(i + 1, m):
                for c in range(n):
                    a, b, cc = coefs[i][j][c]
                    val = a + b * x[0] + cc * x[0] * x[-1]
                    out[i][j][c] = val
                    out[j][i][c] = -val
        return out

    return Connection(m, MatrixForm(n, 1, m, ev))
