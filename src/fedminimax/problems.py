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

The oracle contract (``MinimaxProblem``): all N clients' gradients come
from one batched call, ``grad(X, Y, batch)``, over ``(N,) + dims``
client stacks, and ``draw(n, rng, x, y)`` makes one client's random
choices (the AUC minibatch) on that client's stream.  Row n of a batched
result equals, bit for bit, the per-client formula evaluated on client n
alone: stacked products are matmuls (``B @ Y[..., None]``), never einsum,
and per-client means reduce along each row.  A mean over clients adds
the rows one at a time in client-index order, never with
``.sum(axis=0)``, which may add them pairwise.  Problems are immutable
after construction.
"""

from __future__ import annotations

import csv
import functools
import operator
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


def _rows(a, n: int) -> np.ndarray:
    """``n`` stacked copies of one block: every client at the same point."""
    return np.repeat(np.asarray(a, dtype=float)[None], n, axis=0)


def _no_draw(n, rng, x, y):
    return None


def _derived(fn) -> bool:
    """True for an oracle a MinimaxProblem derived from its other form (a bound method of one)."""
    return isinstance(getattr(fn, "__self__", None), MinimaxProblem)


@dataclass(frozen=True)
class MinimaxProblem:
    """Oracle bundle for min_x max_y (1/N) sum_n f_n(x, y).

    ``grad(X, Y, batch) -> (GX, GY)`` is the batched gradient oracle:
    X and Y are ``(N,) + dims`` client stacks, row n is client n's
    iterate, and row n of GX/GY is client n's gradient there.
    ``draw(n, rng, x, y)`` makes client n's own random choices for one
    stochastic gradient at its iterates (x, y), on its stream ``rng``;
    ``batch`` is the list of the N clients' draws.  A None batch, or a
    None entry, asks for that client's deterministic gradient.  The
    stream is valid only during ``draw``: the engine draws its
    heavy-tailed noise from the same stream right after it.  A problem
    without ``draw`` draws nothing.

    A problem may instead be given by per-client callables
    ``grad_x(n, x, y)``, ``grad_y(n, x, y)`` and ``stoch_grad(n, x, y, rng)``;
    they are wrapped once into ``grad``/``draw`` with a Python loop over
    the clients (``draw`` then calls ``stoch_grad`` and keeps its pair).
    A problem given by ``grad`` gets the per-client callables as views of
    ``grad``/``draw``.  A derived form is derived again by
    ``dataclasses.replace``, so it never goes stale.

    ``y_star``/``phi_grad`` are the closed-form inner maximizer and
    envelope gradient, or None: then ``phi_value_and_grad`` ascends the
    dual or takes the primal half of ``mean_grad`` at y*.
    """

    n_clients: int
    shape_x: Shape
    shape_y: Shape
    smooth: SmoothnessInfo
    f_value: Callable
    grad: Optional[Callable] = None
    draw: Optional[Callable] = None
    grad_x: Optional[Callable] = None
    grad_y: Optional[Callable] = None
    stoch_grad: Optional[Callable] = None
    y_star: Optional[Callable] = None
    phi_grad: Optional[Callable] = None
    auc_eval: Optional[Callable] = None

    def __post_init__(self):
        def given(name):
            fn = getattr(self, name)
            return fn is not None and not _derived(fn)

        views = {"grad_x": self._view_grad_x, "grad_y": self._view_grad_y,
                 "stoch_grad": self._view_stoch_grad}
        if given("grad"):
            derived = {name: view for name, view in views.items() if not given(name)}
            if self.draw is None:
                derived["draw"] = _no_draw
        elif all(given(name) for name in views):
            derived = {"grad": self._clients_grad, "draw": self._clients_draw}
        else:
            raise ValueError("a problem needs the batched grad, or grad_x, grad_y and stoch_grad")
        for name, fn in derived.items():
            object.__setattr__(self, name, fn)

    def _clients_draw(self, n, rng, x, y):
        return self.stoch_grad(n, x, y, rng)

    def _clients_grad(self, X, Y, batch=None):
        pairs = [(self.grad_x(n, X[n], Y[n]), self.grad_y(n, X[n], Y[n])) if pair is None else pair
                 for n, pair in enumerate([None] * self.n_clients if batch is None else batch)]
        return (np.array([gx for gx, _ in pairs], dtype=float),
                np.array([gy for _, gy in pairs], dtype=float))

    def _client_view(self, n, x, y, entry=None) -> tuple:
        """Client n's gradient pair at (x, y): row n of ``grad`` with every client there."""
        batch = None if entry is None else [entry if k == n else None for k in range(self.n_clients)]
        GX, GY = self.grad(_rows(x, self.n_clients), _rows(y, self.n_clients), batch)
        return GX[n], GY[n]

    def _view_grad_x(self, n, x, y) -> np.ndarray:
        return self._client_view(n, x, y)[0]

    def _view_grad_y(self, n, x, y) -> np.ndarray:
        return self._client_view(n, x, y)[1]

    def _view_stoch_grad(self, n, x, y, rng) -> tuple:
        return self._client_view(n, x, y, self.draw(n, rng, x, y))

    def mean_grad(self, x, y) -> tuple:
        """(1/N) sum_n of the deterministic client gradients at (x, y), both blocks from one call.

        The rows are added one at a time in client-index order
        (``np.add.accumulate``): ``.sum(axis=0)`` may add them pairwise,
        which rounds differently.
        """
        N = self.n_clients
        GX, GY = self.grad(_rows(x, N), _rows(y, N), None)
        return np.add.accumulate(GX)[-1] / N, np.add.accumulate(GY)[-1] / N

    def mean_grad_x(self, x, y) -> np.ndarray:
        return self.mean_grad(x, y)[0]

    def mean_grad_y(self, x, y) -> np.ndarray:
        return self.mean_grad(x, y)[1]


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

    def grad(X, Y, batch=None):
        # no intrinsic randomness: the engine adds the heavy-tailed noise
        GX = amp * np.cos(X + phase) + (B @ Y[..., None])[..., 0] + c
        GY = (B.mT @ X[..., None])[..., 0] - mu * Y
        return GX, GY

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
        f_value=f_value,
        grad=grad,
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


def _auc_grads(A, pos, X, Y, p):
    """Gradient pairs of each client's mean loss over its batch, one client per row.

    A (K, B, dim) holds the batches' features and pos (K, B) their
    positive-label masks; X (K, dim+2) and Y (K, 1) are the iterates and
    p (K, 1) the positive ratios.  Returns (K, dim+2) and (K, 1).
    """
    d = A.shape[-1]
    w1, w2, w3 = X[:, d, None], X[:, d + 1, None], Y[:, :1]
    h = (A @ X[:, :d, None])[..., 0]
    neg = ~pos
    coeff = np.where(pos, 2.0 * (1.0 - p) * (h - w1) - 2.0 * (1.0 + w3) * (1.0 - p),
                     2.0 * p * (h - w2) + 2.0 * (1.0 + w3) * p)
    gw = (A.mT @ coeff[..., None])[..., 0] / pos.shape[1]
    g1 = np.mean(-2.0 * (1.0 - p) * (h - w1) * pos, axis=1)
    g2 = np.mean(-2.0 * p * (h - w2) * neg, axis=1)
    g3 = np.mean(2.0 * (p * h * neg - (1.0 - p) * h * pos), axis=1) - (2.0 * p * (1.0 - p) * w3)[:, 0]
    return np.column_stack([gw, g1, g2]), g3[:, None]


def _sum_in_order(terms: np.ndarray) -> float:
    """0.0 + t_0 + t_1 + ..., one term at a time (np.sum adds pairwise, Python 3.12's sum() compensates)."""
    return functools.reduce(operator.add, terms.tolist(), 0.0)


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
    i.i.d. protocol).  ``draw`` picks a size-``batch_size`` minibatch
    from the client's shard with replacement, which keeps the minibatch
    gradient exactly unbiased; ``batch_size=None`` makes every gradient
    the deterministic full-shard one.  Shards of one size are evaluated as
    one stack; shards may differ in size.  When ``test_data`` is given the
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
    sizes = [len(shard) for shard in data_shards]
    # the shards of one size are held once, as one (K, m, dim) stack with
    # its positive-label masks, positive ratios and client indices
    by_size: dict = {}
    for n, m in enumerate(sizes):
        by_size.setdefault(m, []).append(n)
    groups = [(np.array(rows), np.stack([data_shards[n].features for n in rows]),
               np.stack([data_shards[n].labels == 1 for n in rows]), ratios[rows, None])
              for rows in by_size.values()]

    # exact quadratic Hessians give the true smoothness constant per client
    L = 0.0
    for rows, F, POS, P in groups:
        for A, pos, p in zip(F, POS, P[:, 0]):
            m = len(pos)
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

    def draw(n, rng, x, y):
        return None if batch_size is None else rng.integers(0, sizes[n], size=batch_size)

    def grad(X, Y, batch=None):
        picks = [None] * N if batch is None else batch
        GX, GY = np.empty((N, d + 2)), np.empty((N, 1))
        for rows, F, POS, P in groups:
            drawn = [picks[n] is not None for n in rows]
            # one stacked call per group, or one per client if only some of it drew
            parts = [slice(None)] if all(drawn) or not any(drawn) else [
                slice(k, k + 1) for k in range(len(rows))]
            for part in parts:
                r, A, pos = rows[part], F[part], POS[part]
                if picks[r[0]] is not None:
                    k, idx = np.arange(len(r))[:, None], np.stack([picks[n] for n in r])
                    A, pos = A[k, idx], pos[k, idx]
                GX[r], GY[r] = _auc_grads(A, pos, X[r], Y[r], P[part])
        return GX, GY

    def f_value(x, y):
        w, w1, w2, w3 = x[:d], x[d], x[d + 1], float(y[0])
        terms = np.empty(N)
        for rows, F, POS, P in groups:
            h = F @ w
            vals = (1.0 - P) * (h - w1) ** 2 * POS + P * (h - w2) ** 2 * (~POS)
            vals = vals + 2.0 * (1.0 + w3) * (P * h * (~POS) - (1.0 - P) * h * POS)
            terms[rows] = np.mean(vals, axis=1) - (P * (1.0 - P))[:, 0] * w3**2
        return _sum_in_order(terms) / N

    def y_star(x):
        # exact maximizer of the averaged concave quadratic in w3
        w = x[:d]
        terms = np.empty(N)
        for rows, F, POS, P in groups:
            h = F @ w
            terms[rows] = np.mean(P * h * (~POS) - (1.0 - P) * h * POS, axis=1)
        return np.array([_sum_in_order(terms) / np.sum(ratios * (1.0 - ratios))])

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
        f_value=f_value,
        grad=grad,
        draw=draw,
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
