"""Dense polar-factor kernels.

The orthonormalized momentum update replaces a momentum matrix M by its
polar factor: the nearest matrix with orthonormal columns, i.e. P @ Q.T
where M = P diag(sigma) Q.T is the thin SVD restricted to the nonzero
singular values.  Two routes are provided:

* :func:`svd_polar` - exact, via a dense SVD.  Serves as the oracle.
* :func:`newton_schulz_polar` - iterative and SVD-free.  Each matrix is
  first scaled by the power of two that brings its largest entry into
  [0.5, 1), which is exact and keeps the norms clear of underflow and
  overflow, then divided by min(||M||_F, sqrt(||M||_1 * ||M||_inf)); both
  factors bound the spectral norm from above, and the second is exact for
  scaled orthonormal matrices, so those are genuine fixed points of the
  iteration.  Each sweep then applies a fixed odd polynomial in M M^T
  that pushes every singular value toward 1.  The polynomial is the
  order-5 truncation of the inverse-square-root series

      p(B) = 1 + B/2 + 3B^2/8 + 5B^3/16 + 35B^4/128,   B = I - X^T X,

  whose degree-2 truncation is the classical cubic iteration
  X <- 1.5 X - 0.5 X X^T X.  Each sweep maps a singular value t to
  t * p(1 - t^2), which satisfies t <= t*p(1-t^2) <= 1 on [0, 1]: the
  error decreases monotonically and never overshoots.  The higher order
  is needed to lift small singular values fast enough; the cubic map only
  grows them by 1.5x per sweep and cannot reach 1e-6 in 10 sweeps at
  condition number 100.

  The sweeps run in buffers allocated once per call: each product is
  written with ``np.matmul(..., out=)`` and each ``c_k I`` of the Horner
  scheme is added in place.  The first Horner step is ``c_4 B + c_3 I``,
  since ``B @ (c_4 I)`` has one nonzero term per entry and equals
  ``c_4 B`` exactly.  Every buffer is in C order and the Gram product
  reads ``X.mT`` as a view: an F-order target (which ``np.empty_like``
  of a transposed wide input would give) or a C-order copy of ``X.mT``
  changes the last bits against fresh products.
"""

from __future__ import annotations

import numpy as np

# coefficients of the order-5 truncated series of (1 - b)^(-1/2)
_INV_SQRT_COEFFS = (1.0, 1.0 / 2.0, 3.0 / 8.0, 5.0 / 16.0, 35.0 / 128.0)
RANK_TOL = 1e-12  # svd_polar drops singular values below RANK_TOL * sigma_max


class DegenerateMatrixError(ValueError):
    """Raised when a polar factor is requested for an (effectively) zero matrix."""


def _as_matrix(M, max_ndim: int = 3) -> np.ndarray:
    A = np.asarray(M, dtype=float)
    if A.ndim == 1:
        A = A[:, None]
    if not 2 <= A.ndim <= max_ndim or A.size == 0:
        raise ValueError(f"expected a nonempty array of 1 to {max_ndim} dims, got shape {np.shape(M)}")
    if not np.all(np.isfinite(A)):
        raise ValueError("matrix entries must be finite")
    return A


def svd_polar(M) -> np.ndarray:
    """Exact polar factor via SVD, truncated to the numerical rank.

    Singular values below ``RANK_TOL * sigma_max`` are dropped, so the
    result O satisfies O.T @ O = I on the retained rank-r subspace and
    has Frobenius norm sqrt(r).  An (N, m, n) stack is factored matrix by
    matrix, each truncated to its own rank.  Raises
    :class:`DegenerateMatrixError` if any matrix is all zero.
    """
    A = _as_matrix(M)
    U, s, Vt = np.linalg.svd(A, full_matrices=False)
    if np.any(s[..., 0] <= 0.0):
        raise DegenerateMatrixError("cannot orthonormalize the zero matrix")
    keep = s > RANK_TOL * s[..., :1]
    return (U * keep[..., None, :]) @ Vt


def newton_schulz_polar(M, iters: int = 10) -> np.ndarray:
    """Iterative polar factor: ``iters`` polynomial sweeps after norm pre-scaling.

    At the default ``iters=10`` the result agrees with :func:`svd_polar`
    to well below 1e-6 in Frobenius norm for desk-scale matrices (up to
    64x64) with condition number <= 100; the spectral norm of the output
    never exceeds 1 + 1e-8.  Wide matrices are handled by transposing,
    iterating, and transposing back (polar(M.T) = polar(M).T).  An
    (N, m, n) stack gives, bit for bit, the N results of the matrices
    taken one at a time.
    """
    if int(iters) != iters or iters < 1:
        raise ValueError(f"iters must be a positive integer, got {iters}")
    A = _as_matrix(M)
    peak = np.abs(A).max(axis=(-2, -1), keepdims=True)
    if not np.all(peak > 0.0):
        raise DegenerateMatrixError("cannot orthonormalize the zero matrix")
    # exact power-of-two rescale to a largest entry in [0.5, 1): the norms below
    # neither underflow nor overflow, and a normal-range input keeps its bits
    A = np.ascontiguousarray(np.ldexp(A, -np.frexp(peak)[1]))
    # sum each matrix in memory order, as np.linalg.norm does, before a wide one is transposed
    flat = A.reshape(A.shape[:-2] + (-1,))
    fro = np.sqrt(np.vecdot(flat, flat))[..., None, None]
    wide = A.shape[-2] < A.shape[-1]
    A = A.mT if wide else A
    col_sums = np.abs(A).sum(axis=-2, keepdims=True).max(axis=-1, keepdims=True)
    row_sums = np.abs(A).sum(axis=-1, keepdims=True).max(axis=-2, keepdims=True)
    X = A / np.minimum(fro, np.sqrt(col_sums * row_sums))
    eye = np.eye(A.shape[-1])
    c_top, *c_rest = _INV_SQRT_COEFFS[::-1]
    c_eyes = [c * eye for c in c_rest]
    # C-order buffers and a view of X.mT keep the bits of fresh products (module docstring)
    gram = X.shape[:-2] + eye.shape
    B, P, Q = np.empty(gram), np.empty(gram), np.empty(gram)
    bufs = np.empty(X.shape), np.empty(X.shape)
    for k in range(int(iters)):
        np.matmul(X.mT, X, out=B)
        np.subtract(eye, B, out=B)
        # B @ (c_top I) has one nonzero term per entry, so it equals c_top * B exactly
        np.multiply(B, c_top, out=P)
        P += c_eyes[0]
        for c_eye in c_eyes[1:]:
            np.matmul(B, P, out=Q)
            Q += c_eye
            P, Q = Q, P
        X = np.matmul(X, P, out=bufs[k % 2])
    return X.mT if wide else X


def orthonormality_defect(O, r: int) -> float:
    """Frobenius distance of O.T @ O from the identity on its top-r eigenspace.

    Equals sqrt(sum_i (lambda_i - 1)^2) over the r largest eigenvalues of
    O.T @ O; zero iff the corresponding columns behave orthonormally.
    """
    A = _as_matrix(O, max_ndim=2)
    if int(r) != r or r < 1 or r > min(A.shape):
        raise ValueError(f"r must lie in [1, {min(A.shape)}], got {r}")
    lam = np.linalg.eigvalsh(A.T @ A)[::-1]  # descending
    return float(np.sqrt(np.sum((lam[: int(r)] - 1.0) ** 2)))
