import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fedminimax.linalg import (
    DegenerateMatrixError,
    newton_schulz_polar,
    newton_schulz_polars,
    orthonormality_defect,
    svd_polar,
)


def random_with_cond(rng, m, n, smin=0.01, smax=1.0):
    """Matrix with singular values spanning [smin, smax] (cond = smax/smin)."""
    k = min(m, n)
    s = np.exp(rng.uniform(np.log(smin), np.log(smax), size=k))
    s[0] = smax
    if k > 1:
        s[1] = smin
    U = np.linalg.qr(rng.standard_normal((m, k)))[0]
    V = np.linalg.qr(rng.standard_normal((n, k)))[0]
    return (U * s) @ V.T


def test_svd_polar_identity():
    assert np.allclose(svd_polar(np.eye(3)), np.eye(3))


def test_svd_polar_positive_diagonal():
    assert np.allclose(svd_polar(np.diag([2.0, 0.5])), np.eye(2))


def test_svd_polar_scaled_rotation():
    # closed-form 2x2 oracle: M = 3*R(90deg), polar factor is the rotation itself
    M = np.array([[0.0, -3.0], [3.0, 0.0]])
    expect = np.array([[0.0, -1.0], [1.0, 0.0]])
    assert np.allclose(svd_polar(M), expect, atol=1e-12)
    # independent check: O^T M is symmetric positive definite
    O = svd_polar(M)
    H = O.T @ M
    assert np.allclose(H, H.T, atol=1e-12)
    assert np.all(np.linalg.eigvalsh(H) > 0)


def test_svd_polar_zero_matrix_degenerate():
    with pytest.raises(DegenerateMatrixError):
        svd_polar(np.zeros((3, 2)))


def test_svd_polar_rank_deficient():
    rng = np.random.default_rng(0)
    U = np.linalg.qr(rng.standard_normal((5, 3)))[0]
    V = np.linalg.qr(rng.standard_normal((3, 3)))[0]
    M = (U * np.array([2.0, 1.0, 0.0])) @ V.T  # rank 2
    O = svd_polar(M)
    assert O.shape == (5, 3)
    assert abs(np.linalg.norm(O) - math.sqrt(2.0)) < 1e-10  # ||O||_F = sqrt(rank)


def test_newton_schulz_identity_fixed_point():
    assert np.allclose(newton_schulz_polar(np.eye(4), 1), np.eye(4), atol=1e-12)


def test_newton_schulz_scalar_multiple_of_identity():
    for c in (0.3, 5.0, 123.0):
        assert np.allclose(newton_schulz_polar(c * np.eye(3), 10), np.eye(3), atol=1e-6)


def test_newton_schulz_matches_svd_oracle():
    rng = np.random.default_rng(42)
    M = random_with_cond(rng, 4, 3, smin=0.1)
    # scales whose squared norms underflow or overflow a double
    for scale in (1.0, 1e-170, 1e170, 1e-300, 1e300):
        assert np.linalg.norm(newton_schulz_polar(scale * M, 10) - svd_polar(scale * M)) <= 1e-6


def test_newton_schulz_zero_matrix():
    with pytest.raises(DegenerateMatrixError):
        newton_schulz_polar(np.zeros((2, 2)), 10)
    with pytest.raises(ValueError):
        newton_schulz_polar(np.eye(2), 0)


def test_column_vector_reduces_to_l2_normalization():
    rng = np.random.default_rng(1)
    u = rng.standard_normal((7, 1)) * 4.2
    want = u / np.linalg.norm(u)
    assert np.linalg.norm(svd_polar(u) - want) <= 1e-8
    for iters in (5, 10):
        assert np.linalg.norm(newton_schulz_polar(u, iters) - want) <= 1e-8


def test_frobenius_norm_bound():
    rng = np.random.default_rng(2)
    for _ in range(20):
        m = int(rng.integers(1, 9))
        n = int(rng.integers(1, 9))
        M = random_with_cond(rng, m, n)
        for O in (svd_polar(M), newton_schulz_polar(M, 10)):
            assert np.linalg.norm(O) <= math.sqrt(n) + 1e-8


def test_spectral_norm_at_most_one():
    rng = np.random.default_rng(3)
    for _ in range(10):
        M = random_with_cond(rng, 6, 4)
        O = newton_schulz_polar(M, 10)
        assert np.linalg.norm(O, 2) <= 1.0 + 1e-8


def test_orthogonal_invariance():
    rng = np.random.default_rng(4)
    M = random_with_cond(rng, 5, 5, smin=0.05)
    W = np.linalg.qr(rng.standard_normal((5, 5)))[0]
    assert np.linalg.norm(svd_polar(W @ M) - W @ svd_polar(M)) <= 1e-8
    assert np.linalg.norm(newton_schulz_polar(W @ M, 10) - W @ newton_schulz_polar(M, 10)) <= 1e-8


def test_newton_schulz_error_monotone_in_iters():
    rng = np.random.default_rng(5)
    for _ in range(5):
        M = random_with_cond(rng, 8, 6, smin=0.01)  # cond = 100
        oracle = svd_polar(M)
        errs = [np.linalg.norm(newton_schulz_polar(M, k) - oracle) for k in range(1, 11)]
        for a, b in zip(errs, errs[1:]):
            assert b <= a + 1e-12


def test_orthonormality_defect_identity():
    assert orthonormality_defect(np.eye(3), 3) == 0.0


def test_orthonormality_defect_scaled_identity():
    # eigenvalues of (2I)^T (2I) are all 4, so defect = ||3*I_2||_F = 3*sqrt(2)
    assert orthonormality_defect(2.0 * np.eye(2), 2) == pytest.approx(3.0 * math.sqrt(2.0))


def test_orthonormality_defect_of_polar_output():
    rng = np.random.default_rng(6)
    M = random_with_cond(rng, 5, 3, smin=0.2)
    assert orthonormality_defect(svd_polar(M), 3) <= 1e-10


def test_orthonormality_defect_range_check():
    with pytest.raises(ValueError):
        orthonormality_defect(np.eye(3), 4)
    with pytest.raises(ValueError):
        orthonormality_defect(np.eye(3), 0)


# ---------------------------------------------------------------------------
# the buffered kernel against the plain one it replaced


def reference_newton_schulz_polar(M, iters):
    """The Newton-Schulz kernel before its sweeps moved into preallocated buffers.

    Kept verbatim from the pre-scale on, with a fresh array for every
    product; input checks are dropped, as the inputs below are valid.
    """
    coeffs = (1.0, 1.0 / 2.0, 3.0 / 8.0, 5.0 / 16.0, 35.0 / 128.0)
    A = np.asarray(M, dtype=float)
    peak = np.abs(A).max(axis=(-2, -1), keepdims=True)
    A = np.ascontiguousarray(np.ldexp(A, -np.frexp(peak)[1]))
    flat = A.reshape(A.shape[:-2] + (-1,))
    fro = np.sqrt(np.vecdot(flat, flat))[..., None, None]
    wide = A.shape[-2] < A.shape[-1]
    A = A.mT if wide else A
    col_sums = np.abs(A).sum(axis=-2, keepdims=True).max(axis=-1, keepdims=True)
    row_sums = np.abs(A).sum(axis=-1, keepdims=True).max(axis=-2, keepdims=True)
    X = A / np.minimum(fro, np.sqrt(col_sums * row_sums))
    eye = np.eye(A.shape[-1])
    for _ in range(int(iters)):
        B = eye - X.mT @ X
        P = coeffs[-1] * eye
        for coeff in coeffs[-2::-1]:
            P = coeff * eye + B @ P
        X = X @ P
    return X.mT if wide else X


@st.composite
def polar_input(draw, side=None):
    """Tall, square or wide, 2-D or an (N, m, n) stack, the smaller side ``side`` or up to 40, scaled by 2^k."""
    kind = draw(st.sampled_from(["tall", "square", "wide"]))
    a = draw(st.integers(1, 40)) if side is None else side
    b = draw(st.integers(a, 48))
    dims = {"tall": (b, a), "square": (a, a), "wide": (a, b)}[kind]
    lead = draw(st.sampled_from([(), (1,), (3,)]))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    # columns of unequal length give condition numbers well above those of a Gaussian matrix
    M = rng.standard_normal(lead + dims) * np.exp2(rng.integers(-4, 5, size=dims[-1]))
    return np.ldexp(M, draw(st.integers(-40, 40)))


@settings(max_examples=150, deadline=None)
@given(M=polar_input(), iters=st.integers(1, 12))
def test_newton_schulz_equals_unbuffered_kernel(M, iters):
    out = newton_schulz_polar(M, iters)
    want = reference_newton_schulz_polar(M, iters)
    assert out.shape == want.shape and out.tobytes() == want.tobytes()


@st.composite
def polar_stacks(draw):
    """1-3 stacks drawn by ``polar_input``, sharing one Gram side or each drawing its own."""
    side = draw(st.none() | st.integers(1, 40))
    return draw(st.lists(polar_input(side), min_size=1, max_size=3))


@settings(max_examples=100, deadline=None)
@given(stacks=polar_stacks(), iters=st.integers(1, 12))
def test_newton_schulz_polars_equal_each_stack_alone(stacks, iters):
    out = newton_schulz_polars(stacks, iters)
    assert len(out) == len(stacks)
    for O, M in zip(out, stacks):
        want = reference_newton_schulz_polar(M, iters)
        assert O.shape == want.shape and O.tobytes() == want.tobytes()
