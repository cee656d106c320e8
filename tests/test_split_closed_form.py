"""Split connections and their d in closed form, held to their definitions.

``frame_split_connection`` makes an orthonormal frame f_1..f_r parallel and
compresses A to the complement.  With v_a = df_a + A f_a and
c_ab = f_a . v_b it builds

    A' = A + sum_a (f_a v_a^T - v_a f_a^T) + sum_{a != b} c_ab f_a f_b^T

and its d entry by entry, from one first-order pass over the frame;
``section_splitting_connection`` is the one-vector frame s/|s|.  The checks:

* the defining properties A' f_a = -df_a and A' w = P dP w + Q A w for
  w = Q e_k (P the projector onto the span, Q = 1 - P), for r = 1 and
  r = 2, over a flat and a random potential;
* for r = 1, ``projected_connection`` along u u^T, u = s/|s|;
* the closed-form d against the lifted pass of ``MatrixForm(n, 1, m,
  A.eval)`` at a float point, on a (1, N) block and at a lifted point;
* a negative control: the property checks reject the formula with the
  sign of the c_ab term or of the v_a f_a^T term flipped.
"""

import random

import numpy as np
import pytest

from cgbv import dual
from cgbv.bundles import (Subbundle, frame_split_connection, projected_connection,
                          section_splitting_connection)
from cgbv.chern_weil import Connection
from cgbv.dual import Dual
from cgbv.forms import MatrixForm, SmoothMap, as_block, lift_point
from skew_oracle import random_skew

N, M = 4, 4
POINTS = [[0.3, -0.7, 0.45, 0.2], [1.1, 0.4, -0.3, 0.8], [-0.6, 0.9, 1.3, -0.4],
          [0.05, -1.2, 0.7, 1.0], [0.8, 0.6, -0.9, -0.1]]
BLOCK = as_block(POINTS)            # (5,) arrays
ROW = [c[None, :] for c in BLOCK]   # a (1, N) block


def section(x):
    return [dual.cos(x[0]) + x[1], dual.sin(x[2]) - x[3], 1.0 + x[0] * x[3],
            x[1] * x[2] - 0.5]


def unit(x):
    s = section(x)
    r = 1.0 / dual.sqrt(sum(v * v for v in s))
    return [v * r for v in s]


def second(x):
    """Gram-Schmidt of a second vector field against ``unit``."""
    u = unit(x)
    b = [x[0] * x[1] + 0.3, 1.0 - x[2], dual.sin(x[3]), 0.5 + x[0]]
    dot = sum(bi * ui for bi, ui in zip(b, u))
    w = [bi - dot * ui for bi, ui in zip(b, u)]
    r = 1.0 / dual.sqrt(sum(v * v for v in w))
    return [v * r for v in w]


FRAMES = {1: (unit,), 2: (unit, second)}


def base(which: str) -> Connection:
    return Connection.flat(M, N) if which == "flat" else random_skew(N, M, random.Random(5))


def dense(mat, size: int) -> np.ndarray:
    """m x m entries of coefficient lists as one float array, (m, m, c, B)."""
    return np.array([[[np.broadcast_to(np.asarray(v, dtype=float), (size,)) for v in e]
                      for e in row] for row in mat])


def frame_arrays(frames):
    """F (r, m, B) and dF (r, m, n, B) of the frames on the block."""
    fmap = SmoothMap(N, len(frames) * M, lambda x: [v for f in frames for v in f(x)])
    vals, jac = fmap.jacobian(BLOCK)
    B = len(POINTS)
    F = np.array([np.broadcast_to(v, (B,)) for v in vals]).reshape(len(frames), M, B)
    dF = np.array([[np.broadcast_to(v, (B,)) for v in row] for row in jac])
    return F, dF.reshape(len(frames), M, N, B)


def property_defects(Ap, A, F, dF) -> tuple:
    """Largest |A' f_a + df_a| and |A' Q - (P dP Q + Q A Q)| over the block."""
    parallel = np.einsum("ijcB,ajB->aicB", Ap, F) + dF
    P = np.einsum("aiB,ajB->ijB", F, F)
    dP = np.einsum("aicB,ajB->ijcB", dF, F) + np.einsum("aiB,ajcB->ijcB", F, dF)
    Q = np.eye(M)[:, :, None] - P
    got = np.einsum("ikcB,kjB->ijcB", Ap, Q)
    want = (np.einsum("ikB,kqcB,qjB->ijcB", P, dP, Q)
            + np.einsum("ikB,kqcB,qjB->ijcB", Q, A, Q))
    return np.max(np.abs(parallel)), np.max(np.abs(got - want))


def dense_split(A, F, dF, c_sign=1.0, vf_sign=1.0):
    """The closed form in numpy, with optional sign flips for the control."""
    V = dF + np.einsum("ikcB,akB->aicB", A, F)
    C = np.einsum("aiB,bicB->abcB", F, V)
    Ap = (A + np.einsum("aiB,ajcB->ijcB", F, V)
          - vf_sign * np.einsum("aicB,ajB->ijcB", V, F))
    r = F.shape[0]
    for a in range(r):
        for b in range(r):
            if a != b:
                Ap = Ap + c_sign * np.einsum("cB,iB,jB->ijcB", C[a, b], F[a], F[b])
    return Ap


@pytest.mark.parametrize("which", ["flat", "random"])
@pytest.mark.parametrize("r", [1, 2])
class TestDefiningProperties:
    def test_frame_split(self, r, which):
        conn = base(which)
        F, dF = frame_arrays(FRAMES[r])
        Ap = dense(frame_split_connection(conn, FRAMES[r]).A.eval(BLOCK), len(POINTS))
        A = dense(conn.A.eval(BLOCK), len(POINTS))
        assert np.all(np.swapaxes(Ap, 0, 1) == -Ap)
        assert max(property_defects(Ap, A, F, dF)) < 1e-13

    def test_numpy_formula_matches_and_sign_flips_fail(self, r, which):
        conn = base(which)
        F, dF = frame_arrays(FRAMES[r])
        A = dense(conn.A.eval(BLOCK), len(POINTS))
        Ap = dense(frame_split_connection(conn, FRAMES[r]).A.eval(BLOCK), len(POINTS))
        assert np.max(np.abs(dense_split(A, F, dF) - Ap)) < 1e-13
        flipped = [dense_split(A, F, dF, vf_sign=-1.0)]
        if r == 2:
            flipped.append(dense_split(A, F, dF, c_sign=-1.0))
        for bad in flipped:
            assert max(property_defects(bad, A, F, dF)) > 1e-2


@pytest.mark.parametrize("which", ["flat", "random"])
def test_section_split_matches_projected_connection(which):
    conn = base(which)
    split = section_splitting_connection(conn, section)

    def projector(x):
        u = unit(x)
        return [[ui * uj for uj in u] for ui in u]

    oracle = projected_connection(conn, Subbundle(M, projector))
    got, want = (dense(c.A.eval(BLOCK), len(POINTS)) for c in (split, oracle))
    assert np.max(np.abs(got - want)) < 1e-13


def assert_close(v, w, tol):
    """Slot by slot through nested duals; shapes must agree up to floats."""
    if isinstance(v, Dual) or isinstance(w, Dual):
        assert_close(dual.value(v), dual.value(w), tol)
        assert_close(dual.deriv(v), dual.deriv(w), tol)
        return
    if np.ndim(v) and np.ndim(w):
        assert np.shape(v) == np.shape(w)
    assert np.max(np.abs(np.asarray(v) - np.asarray(w))) <= tol


def matrices_close(got, want, tol):
    for rg, rw in zip(got, want):
        for eg, ew in zip(rg, rw):
            assert len(eg) == len(ew)
            for v, w in zip(eg, ew):
                assert_close(v, w, tol)


@pytest.mark.parametrize("which", ["flat", "random"])
@pytest.mark.parametrize("r", [1, 2])
@pytest.mark.parametrize("x", [POINTS[0], ROW, lift_point(ROW, range(N))],
                         ids=["point", "row", "lifted"])
def test_closed_form_d_matches_lifted_pass(r, which, x):
    split = frame_split_connection(base(which), FRAMES[r]).A
    assert split.closed_d
    lifted = MatrixForm(N, 1, M, split.eval)
    got, want = split.eval_with_d(x), lifted.eval_with_d(x)
    matrices_close(got[0], want[0], 0.0)
    matrices_close(got[1], want[1], 1e-12)


def test_section_split_d_matches_lifted_pass():
    split = section_splitting_connection(base("random"), section).A
    got = split.eval_with_d(ROW)[1]
    matrices_close(got, MatrixForm(N, 1, M, split.eval).eval_with_d(ROW)[1], 1e-12)
