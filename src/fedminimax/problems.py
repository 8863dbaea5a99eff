"""Minimax problem oracles.

Two desk-scale problem families are provided:

* ``make_saddle_problem`` - a synthetic nonconvex-strongly-concave saddle
  with per-client heterogeneity and closed-form inner maximizer, so the
  primal envelope and its gradient are exact.  The per-client objective is

      f_n(x, y) = amp * sum_j sin(x_j + phase_n_j)
                  + x^T B_n y - (mu/2) ||y||^2 + shift_n^T x,

  nonconvex in x through the sinusoid and strongly concave (hence
  gradient-dominated) in y.

* ``make_auc_problem`` - pairwise-ranking (AUC) maximization on labeled
  shards with a linear scoring model, written as a minimax problem over
  the primal block (w, w1, w2) and the scalar dual w3.  The loss is
  quadratic, so exact smoothness constants and the exact inner maximizer
  are available.

Problem oracles are immutable after construction; gradient evaluation is
safe from concurrent clients.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from .core import Shape, SmoothnessInfo
from .metrics import auc_score


@dataclass(frozen=True)
class Dataset:
    """Labeled feature vectors; labels are +1/-1."""

    features: np.ndarray  # (n, dim)
    labels: np.ndarray  # (n,)

    def __post_init__(self):
        feats = np.asarray(self.features, dtype=float)
        labs = np.asarray(self.labels, dtype=int)
        if feats.ndim != 2 or feats.shape[0] == 0:
            raise ValueError(f"features must be a nonempty (n, dim) array, got {feats.shape}")
        if labs.shape != (feats.shape[0],):
            raise ValueError("labels must be one per feature row")
        if not np.all(np.isin(labs, (-1, 1))):
            raise ValueError("labels must be +1 or -1")
        object.__setattr__(self, "features", feats)
        object.__setattr__(self, "labels", labs)

    def __len__(self) -> int:
        return self.features.shape[0]

    @property
    def positive_ratio(self) -> float:
        return float(np.mean(self.labels == 1))


def save_dataset_csv(dataset: Dataset, path) -> None:
    """Write a dataset as CSV: feature columns then a label column, with header."""
    dim = dataset.features.shape[1]
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow([f"f{i}" for i in range(dim)] + ["label"])
        for row, lab in zip(dataset.features, dataset.labels):
            writer.writerow([f"{v:.17g}" for v in row] + [str(int(lab))])


def load_dataset_csv(path) -> Dataset:
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        header = next(reader, None)
        if header is None or header[-1] != "label":
            raise ValueError(f"{path}: expected a header ending in 'label'")
        feats, labs = [], []
        for row in reader:
            feats.append([float(v) for v in row[:-1]])
            labs.append(int(row[-1]))
    return Dataset(np.array(feats), np.array(labs))


@dataclass(frozen=True)
class MinimaxProblem:
    """Oracle bundle for min_x max_y (1/N) sum_n f_n(x, y).

    ``grad_x(n, x, y)`` and ``grad_y(n, x, y)`` are the deterministic
    per-client gradients; ``stoch_grad(n, x, y, rng)`` returns one
    stochastic gradient pair drawn with the given stream (minibatch
    subsampling, for instance).  The stream is valid only during the
    call: the engine resets the same generator to the next client's
    stream afterwards, and draws its heavy-tailed noise from the stream
    after ``stoch_grad`` returns.  ``y_star``/``phi_grad`` are the
    closed-form inner maximizer and envelope gradient, or None: then
    ``phi_value_and_grad`` ascends the dual or takes ``mean_grad_x`` at y*.
    """

    n_clients: int
    shape_x: Shape
    shape_y: Shape
    smooth: SmoothnessInfo
    grad_x: Callable
    grad_y: Callable
    stoch_grad: Callable
    f_value: Callable
    y_star: Optional[Callable] = None
    phi_grad: Optional[Callable] = None
    auc_eval: Optional[Callable] = None

    def _client_mean(self, grad, x, y) -> np.ndarray:
        total = grad(0, x, y)
        for n in range(1, self.n_clients):
            total = total + grad(n, x, y)
        return total / self.n_clients

    def mean_grad_x(self, x, y) -> np.ndarray:
        return self._client_mean(self.grad_x, x, y)

    def mean_grad_y(self, x, y) -> np.ndarray:
        return self._client_mean(self.grad_y, x, y)


def _raise_all(errors: list) -> None:
    if errors:
        raise ValueError("; ".join(errors))


def _unit(v: np.ndarray) -> np.ndarray:
    nrm = np.linalg.norm(v)
    return v if nrm == 0.0 else v / nrm


def saddle_errors(n_clients, d_x, d_y, mu, amp, seed) -> list:
    """Every rule ``make_saddle_problem`` puts on these arguments, one "name: ..." message each."""
    rules = (
        ("n_clients", n_clients >= 1, f"must be >= 1, got {n_clients}"),
        ("d_x", d_x >= 1, f"must be >= 1, got {d_x}"),
        ("d_y", d_y >= 1, f"must be >= 1, got {d_y}"),
        ("mu", mu > 0, f"must be positive, got {mu}"),
        ("amp", amp >= 0, f"must be >= 0, got {amp}"),
        ("seed", seed >= 0, f"must be >= 0, got {seed}"),
    )
    return [f"{name}: {want}" for name, ok, want in rules if not ok]


def make_saddle_problem(
    n_clients: int,
    d_x: int,
    d_y: int,
    mu: float = 1.0,
    amp: float = 1.0,
    hetero: float = 0.0,
    seed: int = 0,
    base_coupling: np.ndarray | None = None,
    base_shift: np.ndarray | None = None,
    base_phase: np.ndarray | None = None,
) -> MinimaxProblem:
    """Synthetic heterogeneous saddle with exact envelope gradient.

    Per-client parameters are drawn as base + hetero * unit perturbation;
    no bounded-heterogeneity condition is imposed anywhere.  The base
    coupling/shift/phase can be pinned explicitly (handy for hand
    calculations), otherwise they are drawn from ``seed``.  The reported
    constants are L_f = amp + ||B_mean||_2 + mu (an upper bound for the
    averaged objective) and the exact dual curvature mu.
    """
    _raise_all(saddle_errors(n_clients, d_x, d_y, mu, amp, seed))
    rng = np.random.default_rng(seed)

    B0 = np.asarray(base_coupling, dtype=float) if base_coupling is not None else None
    if B0 is None:
        G = rng.standard_normal((d_x, d_y))
        B0 = G / np.linalg.norm(G, 2)
    c0 = np.asarray(base_shift, dtype=float) if base_shift is not None else _unit(rng.standard_normal(d_x))
    ph0 = np.asarray(base_phase, dtype=float) if base_phase is not None else rng.uniform(0.0, 2.0 * np.pi, d_x)
    if B0.shape != (d_x, d_y) or c0.shape != (d_x,) or ph0.shape != (d_x,):
        raise ValueError("base parameter shapes do not match (d_x, d_y)")

    B = np.stack([B0 + hetero * _unit(rng.standard_normal((d_x, d_y))) for _ in range(n_clients)])
    c = np.stack([c0 + hetero * _unit(rng.standard_normal(d_x)) for _ in range(n_clients)])
    phase = np.stack([ph0 + hetero * rng.standard_normal(d_x) for _ in range(n_clients)])
    B_mean = B.mean(axis=0)
    c_mean = c.mean(axis=0)

    smooth = SmoothnessInfo(L_f=amp + np.linalg.norm(B_mean, 2) + mu, mu=mu)

    def grad_x(n, x, y):
        return amp * np.cos(x + phase[n]) + B[n] @ y + c[n]

    def grad_y(n, x, y):
        return B[n].T @ x - mu * y

    def stoch_grad(n, x, y, rng_):
        # intrinsic randomness none; the engine adds the heavy-tailed noise
        return grad_x(n, x, y), grad_y(n, x, y)

    def f_value(x, y):
        vals = amp * np.sin(x[None, :] + phase).sum(axis=1)
        vals = vals + np.einsum("i,nij,j->n", x, B, y) + c @ x
        return float(vals.mean() - 0.5 * mu * np.dot(y, y))

    def y_star(x):
        return B_mean.T @ x / mu

    def phi_grad(x):
        return amp * np.cos(x[None, :] + phase).mean(axis=0) + c_mean + B_mean @ (B_mean.T @ x) / mu

    return MinimaxProblem(
        n_clients=n_clients,
        shape_x=Shape.vector(d_x),
        shape_y=Shape.vector(d_y),
        smooth=smooth,
        grad_x=grad_x,
        grad_y=grad_y,
        stoch_grad=stoch_grad,
        f_value=f_value,
        y_star=y_star,
        phi_grad=phi_grad,
    )


def auc_loss(w_out: float, w1: float, w2: float, w3: float, label: int, p_ratio: float) -> float:
    """Pairwise-ranking surrogate loss for one scored example.

    ``w_out`` is the model's raw score h, ``label`` the example's class in
    {+1, -1}, and ``p_ratio`` the positive-class ratio of the
    distribution.  Concave quadratic in the dual scalar ``w3`` with
    curvature -2 * p_ratio * (1 - p_ratio).
    """
    if not (0.0 < p_ratio < 1.0):
        raise ValueError(f"p_ratio must lie in (0, 1), got {p_ratio}")
    if label not in (1, -1):
        raise ValueError(f"label must be +1 or -1, got {label}")
    h, p = float(w_out), float(p_ratio)
    pos, neg = label == 1, label == -1
    loss = (1.0 - p) * (h - w1) ** 2 * pos + p * (h - w2) ** 2 * neg
    loss += 2.0 * (1.0 + w3) * (p * h * neg - (1.0 - p) * h * pos)
    loss -= p * (1.0 - p) * w3**2
    return float(loss)


def _auc_batch_grads(A, b, x, w3, p):
    """Gradient pair of the mean loss over a batch (features A, labels b)."""
    d = A.shape[1]
    w, w1, w2 = x[:d], x[d], x[d + 1]
    h = A @ w
    pos = b == 1
    neg = ~pos
    coeff = np.where(pos, 2.0 * (1.0 - p) * (h - w1) - 2.0 * (1.0 + w3) * (1.0 - p),
                     2.0 * p * (h - w2) + 2.0 * (1.0 + w3) * p)
    gw = A.T @ coeff / len(b)
    g1 = float(np.mean(-2.0 * (1.0 - p) * (h - w1) * pos))
    g2 = float(np.mean(-2.0 * p * (h - w2) * neg))
    g3 = float(np.mean(2.0 * (p * h * neg - (1.0 - p) * h * pos))) - 2.0 * p * (1.0 - p) * w3
    gx = np.concatenate([gw, [g1, g2]])
    return gx, np.array([g3])


def auc_errors(batch_size) -> list:
    """Every rule ``make_auc_problem`` puts on its minibatch size."""
    return [] if batch_size is None or batch_size >= 1 else [f"batch_size: must be >= 1, got {batch_size}"]


def make_auc_problem(
    data_shards: list,
    model_dim: int,
    batch_size: int | None = 64,
    pooled_ratio: bool = False,
    test_data: Dataset | None = None,
) -> MinimaxProblem:
    """Federated AUC maximization over one shard per client.

    The primal block is (w, w1, w2) in R^(model_dim + 2) with a linear
    score h = w . a; the dual is the scalar w3.  Each client uses its own
    positive ratio, or the pooled ratio when ``pooled_ratio`` is set (the
    i.i.d. protocol).  ``stoch_grad`` draws a size-``batch_size``
    minibatch from the client's shard with replacement, which keeps the
    minibatch gradient exactly unbiased; ``batch_size=None`` makes it the
    deterministic full-shard gradient.  When ``test_data`` is given the
    problem exposes ``auc_eval(x)``: the exact pairwise AUC of the linear
    score on that set.
    """
    _raise_all(auc_errors(batch_size))
    if len(data_shards) == 0:
        raise ValueError("need at least one data shard")
    for k, shard in enumerate(data_shards):
        if len(shard) == 0:
            raise ValueError(f"shard {k} is empty")
        if shard.features.shape[1] != model_dim:
            raise ValueError(
                f"shard {k} has feature dim {shard.features.shape[1]}, expected {model_dim}")
        if not (0.0 < shard.positive_ratio < 1.0):
            raise ValueError(f"shard {k} contains a single class")

    N = len(data_shards)
    d = int(model_dim)
    pooled = float(np.mean(np.concatenate([s.labels for s in data_shards]) == 1))
    ratios = np.full(N, pooled) if pooled_ratio else np.array([s.positive_ratio for s in data_shards])
    feats = [s.features for s in data_shards]
    labs = [s.labels for s in data_shards]

    # exact quadratic Hessians give the true smoothness constant per client
    L = 0.0
    for n in range(N):
        A, b, p = feats[n], labs[n], ratios[n]
        m = len(b)
        pos = b == 1
        H = np.zeros((d + 3, d + 3))
        wpos = 2.0 * (1.0 - p) * pos / m
        wneg = 2.0 * p * (~pos) / m
        H[:d, :d] = A.T @ (A * (wpos + wneg)[:, None])
        apos = A.T @ wpos
        aneg = A.T @ wneg
        H[:d, d] = H[d, :d] = -apos
        H[:d, d + 1] = H[d + 1, :d] = -aneg
        H[d, d] = wpos.sum()
        H[d + 1, d + 1] = wneg.sum()
        cross = aneg - apos  # d/dw d/dw3 of 2(1+w3)(p h 1_neg - (1-p) h 1_pos)
        H[:d, d + 2] = H[d + 2, :d] = cross
        H[d + 2, d + 2] = -2.0 * p * (1.0 - p)
        L = max(L, float(np.max(np.abs(np.linalg.eigvalsh(H)))))
    mu = float(np.mean(2.0 * ratios * (1.0 - ratios)))
    smooth = SmoothnessInfo(L_f=L, mu=mu)

    def grad_x(n, x, y):
        return _auc_batch_grads(feats[n], labs[n], x, float(y[0]), ratios[n])[0]

    def grad_y(n, x, y):
        return _auc_batch_grads(feats[n], labs[n], x, float(y[0]), ratios[n])[1]

    def stoch_grad(n, x, y, rng):
        if batch_size is None:
            return grad_x(n, x, y), grad_y(n, x, y)
        idx = rng.integers(0, len(labs[n]), size=batch_size)
        return _auc_batch_grads(feats[n][idx], labs[n][idx], x, float(y[0]), ratios[n])

    def f_value(x, y):
        w, w1, w2, w3 = x[:d], x[d], x[d + 1], float(y[0])
        total = 0.0
        for n in range(N):
            h = feats[n] @ w
            pos = labs[n] == 1
            p = ratios[n]
            vals = (1.0 - p) * (h - w1) ** 2 * pos + p * (h - w2) ** 2 * (~pos)
            vals = vals + 2.0 * (1.0 + w3) * (p * h * (~pos) - (1.0 - p) * h * pos)
            total += float(vals.mean()) - p * (1.0 - p) * w3**2
        return total / N

    def y_star(x):
        # exact maximizer of the averaged concave quadratic in w3
        w = x[:d]
        num = 0.0
        for n in range(N):
            h = feats[n] @ w
            pos = labs[n] == 1
            p = ratios[n]
            num += float(np.mean(p * h * (~pos) - (1.0 - p) * h * pos))
        return np.array([num / np.sum(ratios * (1.0 - ratios))])

    auc_eval = None
    if test_data is not None:
        tf, tl = test_data.features, test_data.labels

        def auc_eval(x):
            return auc_score(tf @ x[:d], tl)

    return MinimaxProblem(
        n_clients=N,
        shape_x=Shape.vector(d + 2),
        shape_y=Shape.vector(1),
        smooth=smooth,
        grad_x=grad_x,
        grad_y=grad_y,
        stoch_grad=stoch_grad,
        f_value=f_value,
        y_star=y_star,
        auc_eval=auc_eval,
    )


def _positives(ratio: float, n: int) -> int:
    return int(round(ratio * n))


def imbalanced_data_errors(n_per_client, ratios, dim, seed) -> list:
    """Every rule ``gen_imbalanced_data`` puts on these arguments, one "name: ..." message each.

    The sample counts are checked once the sizes and ratios are valid.
    """
    errors = [f"{name}: must be >= 1, got {v}"
              for name, v in (("n_per_client", n_per_client), ("dim", dim)) if v < 1]
    if len(ratios) == 0:
        errors.append("ratios: need one ratio per client, got none")
    distinct = list(dict.fromkeys(ratios))
    errors += [f"ratios: each must lie in (0, 1), got {r}" for r in distinct if not 0.0 < r < 1.0]
    if not errors:
        if n_per_client * min(ratios) < 2:
            errors.append(f"n_per_client: must give at least 2 positives at ratio {min(ratios)}, "
                          f"got {n_per_client} * {min(ratios)} < 2")
        for r in distinct:
            n_pos = _positives(r, n_per_client)
            if not 1 <= n_pos <= n_per_client - 1:
                errors.append(f"ratios: {r} of {n_per_client} samples gives {n_pos} positives and "
                              f"{n_per_client - n_pos} negatives; need at least one of each")
    if seed < 0:
        errors.append(f"seed: must be >= 0, got {seed}")
    return errors


def gen_imbalanced_data(
    n_per_client: int,
    ratios: list,
    dim: int,
    separation: float,
    seed: int = 0,
    spread: float = 0.5,
) -> list:
    """Synthetic imbalanced shards: two Gaussians split along a common axis.

    Per client, round(ratio * n_per_client) positives are drawn at
    +separation/2 and the rest at -separation/2 along coordinate 0, all
    with isotropic standard deviation ``spread``.  Positives are dropped
    per client after partitioning, so each shard matches its ratio to the
    nearest integer.
    """
    _raise_all(imbalanced_data_errors(n_per_client, ratios, dim, seed))
    rng = np.random.default_rng(seed)
    shards = []
    for r in ratios:
        n_pos = _positives(r, n_per_client)
        n_neg = n_per_client - n_pos
        X = spread * rng.standard_normal((n_per_client, dim))
        X[:n_pos, 0] += separation / 2.0
        X[n_pos:, 0] -= separation / 2.0
        y = np.concatenate([np.ones(n_pos, dtype=int), -np.ones(n_neg, dtype=int)])
        order = rng.permutation(n_per_client)
        shards.append(Dataset(X[order], y[order]))
    return shards
