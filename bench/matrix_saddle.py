"""Matrix-shaped bilinear saddle for the ``muon-polar`` workload.

Per client n, with X an m-by-k matrix and Y a c-by-k matrix,

    f_n(X, Y) = <X, A_n Y> + <C_n, X> + (lam/2) ||X||^2 - (mu/2) ||Y||^2,

so the inner maximizer y*(X) = mean(A)^T X / mu and the envelope gradient
grad phi(X) = mean(C) + lam X + mean(A) mean(A)^T X / mu are closed form.
Both blocks have more than one column, so ``muon-da`` runs the polar
kernel on genuine matrices and its bounds carry the sqrt(cols) factor.
Built from the package's public ``MinimaxProblem`` and ``Shape`` only.
"""

from __future__ import annotations

import numpy as np

import fedminimax as fm


def _unit(a: np.ndarray) -> np.ndarray:
    return a / np.linalg.norm(a)


def make_matrix_saddle(n_clients: int = 8, m: int = 32, k: int = 16, c: int = 16,
                       mu: float = 1.0, lam: float = 1.0, hetero: float = 0.5,
                       seed: int = 0) -> fm.MinimaxProblem:
    rng = np.random.default_rng(seed)
    A0 = rng.standard_normal((m, c))
    A0 /= np.linalg.norm(A0, 2)
    C0 = _unit(rng.standard_normal((m, k)))
    A = np.stack([A0 + hetero * _unit(rng.standard_normal((m, c))) for _ in range(n_clients)])
    C = np.stack([C0 + hetero * _unit(rng.standard_normal((m, k))) for _ in range(n_clients)])
    A_mean, C_mean = A.mean(axis=0), C.mean(axis=0)
    # Hessian blocks [[lam I, A_n], [A_n^T, -mu I]]: spectral norm <= max(lam, mu) + ||A_n||_2
    L_f = max(lam, mu) + max(np.linalg.norm(a, 2) for a in A)

    def grad_x(n, X, Y):
        return A[n] @ Y + C[n] + lam * X

    def grad_y(n, X, Y):
        return A[n].T @ X - mu * Y

    def stoch_grad(n, X, Y, rng_):
        # no intrinsic randomness: heavy-tailed noise is added by the engine
        return grad_x(n, X, Y), grad_y(n, X, Y)

    def f_value(X, Y):
        coupling = np.mean([np.sum(X * (A[n] @ Y)) for n in range(n_clients)])
        return float(coupling + np.sum(C_mean * X) + 0.5 * lam * np.sum(X * X)
                     - 0.5 * mu * np.sum(Y * Y))

    def y_star(X):
        return A_mean.T @ X / mu

    def phi_grad(X):
        return C_mean + lam * X + A_mean @ (A_mean.T @ X) / mu

    return fm.MinimaxProblem(
        n_clients=n_clients,
        shape_x=fm.Shape.matrix(m, k),
        shape_y=fm.Shape.matrix(c, k),
        smooth=fm.SmoothnessInfo(L_f=float(L_f), mu=mu),
        grad_x=grad_x,
        grad_y=grad_y,
        stoch_grad=stoch_grad,
        f_value=f_value,
        y_star=y_star,
        phi_grad=phi_grad,
    )


def check_matrix_saddle(problem: fm.MinimaxProblem, seed: int) -> list:
    """Exactness checks that keep ``final_grad_phi`` exact; returns failure messages.

    At a random X: the averaged dual gradient at y*(X) vanishes, and the
    closed-form envelope gradient equals the averaged primal gradient at
    y*(X), both to 1e-10.
    """
    X = np.random.default_rng(seed).standard_normal(problem.shape_x.dims)
    Y = problem.y_star(X)
    errors = []
    dual = float(np.linalg.norm(problem.mean_grad_y(X, Y)))
    if not dual <= 1e-10:
        errors.append(f"matrix saddle: |mean grad_y(X, y*(X))| = {dual:.3e} > 1e-10")
    gap = float(np.linalg.norm(problem.phi_grad(X) - problem.mean_grad_x(X, Y)))
    if not gap <= 1e-10:
        errors.append(f"matrix saddle: |phi_grad - mean grad_x(X, y*(X))| = {gap:.3e} > 1e-10")
    return errors
