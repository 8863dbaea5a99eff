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

The oracle contract (``MinimaxProblem``): the gradients of every client
of a whole stack of K runs come from one batched call,
``grad(X, Y, batch)``, over ``(K*N,) + dims`` row stacks, row r being
client r mod N; ``draw(n, rng, x, y)`` makes one client's random choices
(the AUC minibatch) on that client's stream.  Row r of a batched result
equals, bit for bit, the per-client formula evaluated on its client
alone: stacked products are batched matrix-vector products
(``B @ Y[..., None]``), never one matrix-matrix product, and per-client
means reduce along each row.  ``round_metrics(X, Y)`` gives the engine
the exact metrics of S points, one per run, in one call: at each point
phi(x), its gradient, f(x, y) and both halves of ``mean_grad(x, y)``,
each point's values the bits of the one-point calls.  By default it
loops ``phi_value_and_grad``, ``f_value`` and ``mean_grad`` over the
points; the saddle gives its own, one pass over all the points, and the
AUC problem one that scores the shards once per point for all of them.
Problems are immutable after construction.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from .core import Shape, SmoothnessInfo
from .metrics import auc_score, phi_value_and_grad


@dataclass(frozen=True)
class Dataset:
    """Labeled feature vectors; labels are +1/-1."""

    features: np.ndarray  # (n, dim)
    labels: np.ndarray  # (n,)

    def __post_init__(self):
        feats = np.asarray(self.features, dtype=float)
        labs = np.asarray(self.labels)  # checked as given, before the cast to int could truncate
        if feats.ndim != 2 or feats.shape[0] == 0:
            raise ValueError(f"features must be a nonempty (n, dim) array, got {feats.shape}")
        if labs.shape != (feats.shape[0],):
            raise ValueError("labels must be one per feature row")
        if not np.all(np.isin(labs, (-1, 1))):
            raise ValueError("labels must be +1 or -1")
        object.__setattr__(self, "features", feats)
        object.__setattr__(self, "labels", labs.astype(int))

    def __len__(self) -> int:
        return self.features.shape[0]

    @property
    def positive_ratio(self) -> float:
        return float(np.mean(self.labels == 1))


def _rows(a, n: int) -> np.ndarray:
    """``n`` stacked copies of one block: every client at the same point."""
    return np.repeat(np.asarray(a, dtype=float)[None], n, axis=0)


def _no_draw(n, rng, x, y):
    return None


def _by_point(rows) -> tuple:
    """The metric tuples of S points as (S,) values and (S,) + dims blocks, entry s from row s."""
    return tuple(np.array(column, dtype=float) for column in zip(*rows))


def _derived(fn) -> bool:
    """True for an oracle a MinimaxProblem derived from its other form (a bound method of one)."""
    return isinstance(getattr(fn, "__self__", None), MinimaxProblem)


@dataclass(frozen=True)
class MinimaxProblem:
    """Oracle bundle for min_x max_y (1/N) sum_n f_n(x, y).

    ``grad(X, Y, batch) -> (GX, GY)`` is the batched gradient oracle:
    X and Y are ``(K*N,) + dims`` row stacks of K runs' N clients each,
    row r is client r mod N's iterate, and row r of GX/GY is that
    client's gradient there.  ``draw(n, rng, x, y)`` makes client n's own
    random choices for one stochastic gradient at its iterates (x, y), on
    its stream ``rng``; ``batch`` is the list of the K*N rows' draws.  A
    None batch, or a None entry, asks for that row's deterministic
    gradient.  The
    stream is valid only during ``draw``: the engine draws its
    heavy-tailed noise from the same stream right after it.  A problem
    without ``draw`` draws nothing.

    A problem may instead be given by per-client callables
    ``grad_x(n, x, y)``, ``grad_y(n, x, y)`` and ``stoch_grad(n, x, y, rng)``;
    they are wrapped once into ``grad``/``draw`` with a Python loop over
    the rows (``draw`` then calls ``stoch_grad`` and keeps its pair).
    A problem given by ``grad`` gets the per-client callables as views of
    ``grad``/``draw``.  A derived form is derived again by
    ``dataclasses.replace``, so it never goes stale.

    ``y_star(x)`` is the closed-form inner maximizer, which every problem
    must give; the exact metrics take the envelope phi(x) = f(x, y*(x))
    from it.  ``phi_grad`` is the closed-form envelope gradient, or None:
    then ``phi_value_and_grad`` takes the primal half of ``mean_grad`` at
    (x, y*(x)).

    ``round_metrics(X, Y) -> (phi, grad_phi, f, mean_gx, mean_gy)`` is
    every exact metric of a round of S runs in one call: X and Y are
    ``(S,) + dims`` stacks of points, and entry s of each result is
    ``phi_value_and_grad`` at X[s], ``f_value(X[s], Y[s])`` or
    ``mean_grad(X[s], Y[s])``, as (S,) values and (S,) + dims blocks.  By
    default it makes exactly those calls, point by point.  A problem may
    give a faster version with the same bits; it names the callables it
    reproduces in its ``made_for``
    attribute, the tuple (grad, f_value, y_star, phi_grad).  It is kept
    only while those are the problem's own: a ``dataclasses.replace`` of
    any of them, or a version without ``made_for``, gets the default.
    """

    n_clients: int
    shape_x: Shape
    shape_y: Shape
    smooth: SmoothnessInfo
    f_value: Callable
    y_star: Callable
    grad: Optional[Callable] = None
    draw: Optional[Callable] = None
    grad_x: Optional[Callable] = None
    grad_y: Optional[Callable] = None
    stoch_grad: Optional[Callable] = None
    phi_grad: Optional[Callable] = None
    auc_eval: Optional[Callable] = None
    round_metrics: Optional[Callable] = None

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
        made_for = (derived.get("grad", self.grad), self.f_value, self.y_star, self.phi_grad)
        if getattr(self.round_metrics, "made_for", None) != made_for:
            derived["round_metrics"] = self._round_metrics
        for name, fn in derived.items():
            object.__setattr__(self, name, fn)

    @property
    def draws(self) -> bool:
        """False for a problem given without ``draw``, which makes no random choices."""
        return self.draw is not _no_draw

    def _round_metrics(self, X, Y) -> tuple:
        def at(x, y):
            phi, grad_phi = phi_value_and_grad(self, x)
            return (phi, grad_phi, float(self.f_value(x, y))) + self.mean_grad(x, y)

        return _by_point([at(x, y) for x, y in zip(X, Y)])

    def _clients_draw(self, n, rng, x, y):
        return self.stoch_grad(n, x, y, rng)

    def _clients_grad(self, X, Y, batch=None):
        N = self.n_clients
        pairs = [(self.grad_x(r % N, X[r], Y[r]), self.grad_y(r % N, X[r], Y[r])) if pair is None
                 else pair for r, pair in enumerate([None] * len(X) if batch is None else batch)]
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
        """(1/N) sum_n of the deterministic client gradients at (x, y), both blocks from one call."""
        N = self.n_clients
        GX, GY = self.grad(_rows(x, N), _rows(y, N), None)
        return GX.sum(axis=0) / N, GY.sum(axis=0) / N

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
) -> MinimaxProblem:
    """Synthetic heterogeneous saddle with exact envelope gradient.

    Per-client parameters are drawn as base + hetero * unit perturbation;
    no bounded-heterogeneity condition is imposed anywhere.  The base
    coupling and shift can be pinned (handy for hand calculations);
    otherwise they, like the phase, are drawn from ``seed``.  The reported
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
    ph0 = rng.uniform(0.0, 2.0 * np.pi, d_x)
    if B0.shape != (d_x, d_y) or c0.shape != (d_x,):
        raise ValueError("base parameter shapes do not match (d_x, d_y)")

    B = np.stack([B0 + hetero * _unit(rng.standard_normal((d_x, d_y))) for _ in range(n_clients)])
    c = np.stack([c0 + hetero * _unit(rng.standard_normal(d_x)) for _ in range(n_clients)])
    phase = np.stack([ph0 + hetero * rng.standard_normal(d_x) for _ in range(n_clients)])
    B_mean = B.mean(axis=0)
    c_mean = c.mean(axis=0)

    smooth = SmoothnessInfo(L_f=amp + np.linalg.norm(B_mean, 2) + mu, mu=mu)

    def grad(X, Y, batch=None):
        # no intrinsic randomness: the engine adds the heavy-tailed noise; K runs' rows
        # are viewed as (K, N, d) so the (N, ...) parameters broadcast
        X3, Y3 = X.reshape(-1, n_clients, d_x), Y.reshape(-1, n_clients, d_y)
        GX = amp * np.cos(X3 + phase) + (B @ Y3[..., None])[..., 0] + c
        GY = (B.mT @ X3[..., None])[..., 0] - mu * Y3
        return GX.reshape(X.shape), GY.reshape(Y.shape)

    def f_values(X, *Ys):
        """For each (S,) + dims dual stack Y, f at the points (X[s], Y[s]), (S,).

        Point s has the same bits in a stack of any size: the coupling x^T B_n y is two
        batched matrix-vector products (an einsum over the stack rounds apart on some
        shapes), and the client mean is the sum over the client axis divided by N.
        """
        sines, shift = amp * np.sin(X[:, None, :] + phase).sum(axis=2), (c @ X[..., None])[..., 0]

        def at(Y):
            coupling = ((B @ Y[:, None, :, None])[..., 0] @ X[..., None])[..., 0]
            return (sines + coupling + shift).sum(axis=1) / n_clients - 0.5 * mu * np.vecdot(Y, Y)

        return [at(Y) for Y in Ys]

    def f_value(x, y):
        return float(f_values(x[None], y[None])[0][0])

    def envelope(X):
        # y*(x) and grad phi(x) at each point of an (S, d_x) stack, as batched matrix-vector
        # products, so each point has the same bits in a stack of any size
        BX = B_mean.T @ X[..., None]
        grad_phi = (amp * (np.cos(X[:, None, :] + phase).sum(axis=1) / n_clients) + c_mean
                    + (B_mean @ BX)[..., 0] / mu)
        return BX[..., 0] / mu, grad_phi

    def y_star(x):
        return envelope(x[None])[0][0]

    def phi_grad(x):
        return envelope(x[None])[1][0]

    def round_metrics(X, Y):
        Y_star, grad_phi = envelope(X)
        GX, GY = grad(np.repeat(X, n_clients, axis=0), np.repeat(Y, n_clients, axis=0))
        phi, f = f_values(X, Y_star, Y)
        return (phi, grad_phi, f, GX.reshape(-1, n_clients, d_x).sum(axis=1) / n_clients,
                GY.reshape(-1, n_clients, d_y).sum(axis=1) / n_clients)

    round_metrics.made_for = (grad, f_value, y_star, phi_grad)

    return MinimaxProblem(
        n_clients=n_clients,
        shape_x=Shape.vector(d_x),
        shape_y=Shape.vector(d_y),
        smooth=smooth,
        f_value=f_value,
        grad=grad,
        y_star=y_star,
        phi_grad=phi_grad,
        round_metrics=round_metrics,
    )


class _AucTerms:
    """The AUC loss of K clients over their batches at one primal point, one client per row.

    A (K, B, dim) holds the batches' features, pos (K, B) their
    positive-label masks and p (K, 1) the positive ratios; h (K, B) are
    the scores w . a at the primal point (w, w1, w2), with w1 and w2
    scalars or (K, 1) columns.  The terms that do not depend on the dual
    w3 are computed on first use and kept, so the losses and gradients
    at several duals share them.
    """

    def __init__(self, A, pos, p, h, w1, w2):
        self.A, self.pos, self.neg, self.p, self.h, self.w1, self.w2 = A, pos, ~pos, p, h, w1, w2

    @functools.cached_property
    def hw(self):
        """(h - w1, h - w2)."""
        return self.h - self.w1, self.h - self.w2

    @functools.cached_property
    def lin(self):
        """p h 1_neg - (1-p) h 1_pos, the part of the loss that 2(1 + w3) multiplies."""
        p, h = self.p, self.h
        return p * h * self.neg - (1.0 - p) * h * self.pos

    @functools.cached_property
    def sq(self):
        """(1-p) (h-w1)^2 1_pos + p (h-w2)^2 1_neg, the part of the loss free of w3."""
        (hw1, hw2), p = self.hw, self.p
        return (1.0 - p) * hw1 ** 2 * self.pos + p * hw2 ** 2 * self.neg

    @functools.cached_property
    def primal(self):
        """2(1-p)(h-w1), 2p(h-w2), the gradient entries g1 and g2, and g3 less its w3 term."""
        (hw1, hw2), p, pos, neg = self.hw, self.p, self.pos, self.neg
        g1 = np.mean(-2.0 * (1.0 - p) * hw1 * pos, axis=1)
        g2 = np.mean(-2.0 * p * hw2 * neg, axis=1)
        g3 = np.mean(2.0 * self.lin, axis=1)
        return 2.0 * (1.0 - p) * hw1, 2.0 * p * hw2, g1, g2, g3

    def losses(self, w3: float) -> np.ndarray:
        """Each client's mean loss at the dual w3, (K,)."""
        vals = self.sq + 2.0 * (1.0 + w3) * self.lin
        return np.mean(vals, axis=1) - (self.p * (1.0 - self.p))[:, 0] * w3**2

    def grads(self, w3) -> tuple:
        """Each client's gradient pair at the dual w3, a scalar or (K, 1): (K, dim+2), (K, 1)."""
        a, b, g1, g2, g3 = self.primal
        p, pos = self.p, self.pos
        coeff = np.where(pos, a - 2.0 * (1.0 + w3) * (1.0 - p), b + 2.0 * (1.0 + w3) * p)
        gw = (self.A.mT @ coeff[..., None])[..., 0] / pos.shape[1]
        g3 = g3 - (2.0 * p * (1.0 - p) * w3)[:, 0]
        return np.column_stack([gw, g1, g2]), g3[:, None]


def _auc_grads(A, pos, X, Y, p):
    """Gradient pairs of each client's mean loss over its batch at its own iterates.

    X (K, dim+2) and Y (K, 1) are the iterates, one client per row; the
    rest is as in ``_AucTerms``.  Returns (K, dim+2) and (K, 1).
    """
    d = A.shape[-1]
    h = (A @ X[:, :d, None])[..., 0]
    return _AucTerms(A, pos, p, h, X[:, d, None], X[:, d + 1, None]).grads(Y[:, :1])


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
    w3_weight = np.sum(ratios * (1.0 - ratios))  # minus the w3^2 coefficient of the summed losses
    smooth = SmoothnessInfo(L_f=L, mu=mu)

    def draw(n, rng, x, y):
        return None if batch_size is None else rng.integers(0, sizes[n], size=batch_size)

    def grad(X, Y, batch=None):
        GX, GY = np.empty((len(X), d + 2)), np.empty((len(X), 1))
        for run in range(0, len(X), N):  # one run's N clients at a time
            picks = [None] * N if batch is None else batch[run:run + N]
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
                    GX[run + r], GY[run + r] = _auc_grads(A, pos, X[run + r], Y[run + r], P[part])
        return GX, GY

    def scored(x):
        """Every shard group's loss terms at x, each group's scores F @ w computed once."""
        return [(rows, _AucTerms(F, POS, P, F @ x[:d], x[d], x[d + 1]))
                for rows, F, POS, P in groups]

    def value(groups_at, w3):
        terms = np.empty(N)
        for rows, terms_at in groups_at:
            terms[rows] = terms_at.losses(w3)
        return float(terms.sum(axis=0)) / N

    def dual_max(groups_at):
        # exact maximizer of the averaged concave quadratic in w3
        terms = np.empty(N)
        for rows, terms_at in groups_at:
            terms[rows] = np.mean(terms_at.lin, axis=1)
        return np.array([terms.sum(axis=0) / w3_weight])

    def mean_grad_at(groups_at, w3):
        GX, GY = np.empty((N, d + 2)), np.empty((N, 1))
        for rows, terms_at in groups_at:
            GX[rows], GY[rows] = terms_at.grads(w3)
        return GX.sum(axis=0) / N, GY.sum(axis=0) / N

    def f_value(x, y):
        return value(scored(x), float(y[0]))

    def y_star(x):
        return dual_max(scored(x))

    def point_metrics(x, y):
        # phi at y*(x), f at y and the two client means share one scoring of the shards
        groups_at = scored(x)
        w3_star = dual_max(groups_at)[0]
        phi, grad_phi = value(groups_at, float(w3_star)), mean_grad_at(groups_at, w3_star)[0]
        return (phi, grad_phi, value(groups_at, float(y[0]))) + mean_grad_at(groups_at, y[0])

    def round_metrics(X, Y):
        return _by_point([point_metrics(x, y) for x, y in zip(X, Y)])

    round_metrics.made_for = (grad, f_value, y_star, None)

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
        round_metrics=round_metrics,
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
