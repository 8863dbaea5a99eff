"""Property tests: the batched problem oracle equals its per-client formulas bit for bit.

Every row of ``grad(X, Y, batch)`` must equal the per-client reference
formula below evaluated on that client alone, and ``mean_grad`` must equal
the client-order sum ``g_0 + g_1 + ...`` of those references divided by N
(a pairwise ``.sum(axis=0)`` differs in the last bits).  The references
are written out here, independent of the package's stacked arithmetic.
"""

import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import fedminimax as fm

SEEDS = st.integers(0, 2**32 - 1)


def _unit(v):
    nrm = np.linalg.norm(v)
    return v if nrm == 0.0 else v / nrm


def reference_saddle(n_clients, d_x, d_y, mu, amp, hetero, seed):
    """Per-client gradient pairs of ``make_saddle_problem``'s instance, its parameters drawn in its order."""
    rng = np.random.default_rng(seed)
    G = rng.standard_normal((d_x, d_y))
    B0 = G / np.linalg.norm(G, 2)
    c0 = _unit(rng.standard_normal(d_x))
    ph0 = rng.uniform(0.0, 2.0 * np.pi, d_x)
    B = [B0 + hetero * _unit(rng.standard_normal((d_x, d_y))) for _ in range(n_clients)]
    c = [c0 + hetero * _unit(rng.standard_normal(d_x)) for _ in range(n_clients)]
    phase = [ph0 + hetero * rng.standard_normal(d_x) for _ in range(n_clients)]

    def pair(n, x, y):
        return amp * np.cos(x + phase[n]) + B[n] @ y + c[n], B[n].T @ x - mu * y

    return pair


def reference_auc(A, b, x, w3, p):
    """Gradient pair of one client's mean AUC loss over a batch (features A, labels b)."""
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
    return np.concatenate([gw, [g1, g2]]), np.array([g3])


def client_order_mean(grads):
    total = grads[0]
    for g in grads[1:]:
        total = total + g
    return total / len(grads)


def assert_rows_and_mean(problem, pair, X, Y, batch=None):
    """Rows of ``grad`` equal ``pair(n, x_n, y_n)``; ``mean_grad`` at X[0], Y[0] equals the client-order mean."""
    N = problem.n_clients
    GX, GY = problem.grad(X, Y, batch)
    for n in range(N):
        gx, gy = pair(n, X[n], Y[n], None if batch is None else batch[n])
        assert np.array_equal(GX[n], gx) and np.array_equal(GY[n], gy), f"client {n}"
    refs = [pair(n, X[0], Y[0], None) for n in range(N)]
    mean_x, mean_y = problem.mean_grad(X[0], Y[0])
    assert np.array_equal(mean_x, client_order_mean([gx for gx, _ in refs]))
    assert np.array_equal(mean_y, client_order_mean([gy for _, gy in refs]))


@settings(max_examples=60, deadline=None)
@given(n_clients=st.integers(1, 8), d_x=st.integers(1, 12), d_y=st.sampled_from([1, 1, 2, 5, 11]),
       hetero=st.sampled_from([0.0, 0.5, 2.0]), seed=SEEDS)
def test_saddle_grad_rows_match_reference(n_clients, d_x, d_y, hetero, seed):
    problem = fm.make_saddle_problem(n_clients, d_x, d_y, mu=0.7, amp=1.3, hetero=hetero, seed=seed % 1000)
    pair = reference_saddle(n_clients, d_x, d_y, 0.7, 1.3, hetero, seed % 1000)
    rng = np.random.default_rng(seed)
    X = 3.0 * rng.standard_normal((n_clients, d_x))
    Y = 3.0 * rng.standard_normal((n_clients, d_y))
    assert_rows_and_mean(problem, lambda n, x, y, entry: pair(n, x, y), X, Y)
    assert problem.draw(0, rng, X[0], Y[0]) is None  # the saddle draws nothing
    assert_rows_and_mean(problem, lambda n, x, y, entry: pair(n, x, y), X, Y, [None] * n_clients)


def auc_shards(n_clients, sizes, dim, seed):
    ratios = [0.1 + 0.3 * k / max(n_clients - 1, 1) for k in range(n_clients)]
    full = fm.gen_imbalanced_data(max(sizes), ratios, dim=dim, separation=2.0, seed=seed)
    shards = []
    for shard, m in zip(full, sizes):
        # m rows of the shard: its first positive, its last negative and m - 2 others
        order = np.argsort(-shard.labels, kind="stable")
        keep = np.sort(np.concatenate([order[:1], order[-1:], order[1:-1][:m - 2]]))
        shards.append(fm.Dataset(shard.features[keep], shard.labels[keep]))
    return shards


@settings(max_examples=60, deadline=None)
@given(n_clients=st.integers(1, 8), dim=st.integers(1, 6), equal=st.booleans(),
       batch_size=st.sampled_from([None, 1, 3, 16]), pooled=st.booleans(),
       partial=st.booleans(), seed=SEEDS)
def test_auc_grad_rows_match_reference(n_clients, dim, equal, batch_size, pooled, partial, seed):
    rng = np.random.default_rng(seed)
    sizes = [40] * n_clients if equal else rng.integers(20, 60, size=n_clients).tolist()
    shards = auc_shards(n_clients, sizes, dim, seed % 1000)
    problem = fm.make_auc_problem(shards, dim, batch_size=batch_size, pooled_ratio=pooled)
    pooled_p = float(np.mean(np.concatenate([s.labels for s in shards]) == 1))
    ratios = [pooled_p if pooled else s.positive_ratio for s in shards]
    X = rng.standard_normal((n_clients, dim + 2))
    Y = rng.standard_normal((n_clients, 1))

    batch = []
    for n in range(n_clients):
        stream = np.random.default_rng([seed, n])
        batch.append(problem.draw(n, stream, X[n], Y[n]))
        if batch_size is not None:  # the minibatch is the stream's first draw
            expect = np.random.default_rng([seed, n]).integers(0, len(shards[n]), size=batch_size)
            assert np.array_equal(batch[n], expect)
        else:
            assert batch[n] is None
    if partial:  # some clients ask for their full-shard gradient
        batch = [None if rng.random() < 0.5 else entry for entry in batch]

    def pair(n, x, y, idx):
        s = shards[n]
        A, b = (s.features, s.labels) if idx is None else (s.features[idx], s.labels[idx])
        return reference_auc(A, b, x, float(y[0]), ratios[n])

    assert_rows_and_mean(problem, pair, X, Y, batch)
    assert_rows_and_mean(problem, pair, X, Y)


def test_auc_dual_mean_is_client_order_sum():
    # eight one-entry dual rows: the case where a pairwise sum rounds differently
    shards = fm.gen_imbalanced_data(50, [0.1, 0.12, 0.15, 0.2, 0.22, 0.25, 0.3, 0.4], dim=3,
                                    separation=1.0, seed=4)
    problem = fm.make_auc_problem(shards, 3, batch_size=None)
    rng = np.random.default_rng(11)
    for _ in range(200):
        x, y = rng.standard_normal(5), rng.standard_normal(1)
        refs = [reference_auc(s.features, s.labels, x, float(y[0]), s.positive_ratio) for s in shards]
        mean_x, mean_y = problem.mean_grad(x, y)
        assert np.array_equal(mean_y, client_order_mean([gy for _, gy in refs]))
        assert np.array_equal(mean_x, client_order_mean([gx for gx, _ in refs]))


def reference_auc_f_and_y_star(shards, x, y):
    """The AUC objective and dual maximizer, summed client by client from 0.0."""
    d = shards[0].features.shape[1]
    w, w1, w2, w3 = x[:d], x[d], x[d + 1], float(y[0])
    total, num = 0.0, 0.0
    for s in shards:
        h, pos, p = s.features @ w, s.labels == 1, s.positive_ratio
        vals = (1.0 - p) * (h - w1) ** 2 * pos + p * (h - w2) ** 2 * (~pos)
        vals = vals + 2.0 * (1.0 + w3) * (p * h * (~pos) - (1.0 - p) * h * pos)
        total += float(vals.mean()) - p * (1.0 - p) * w3**2
        num += float(np.mean(p * h * (~pos) - (1.0 - p) * h * pos))
    ratios = np.array([s.positive_ratio for s in shards])
    return total / len(shards), np.array([num / np.sum(ratios * (1.0 - ratios))])


@settings(max_examples=40, deadline=None)
@given(n_clients=st.integers(1, 8), equal=st.booleans(), seed=SEEDS)
def test_auc_f_value_and_y_star_match_reference(n_clients, equal, seed):
    rng = np.random.default_rng(seed)
    sizes = [40] * n_clients if equal else rng.integers(20, 60, size=n_clients).tolist()
    shards = auc_shards(n_clients, sizes, 3, seed % 1000)
    problem = fm.make_auc_problem(shards, 3)
    x, y = rng.standard_normal(5), rng.standard_normal(1)
    f_ref, y_ref = reference_auc_f_and_y_star(shards, x, y)
    assert problem.f_value(x, y) == f_ref
    assert np.array_equal(problem.y_star(x), y_ref)


def per_client_matrix_problem(n_clients=3, seed=0):
    rng = np.random.default_rng(seed)
    A = rng.standard_normal((n_clients, 4, 3))

    def grad_x(n, X, Y):
        return A[n] @ Y + X

    def grad_y(n, X, Y):
        return A[n].T @ X - Y

    def stoch_grad(n, X, Y, stream):
        return grad_x(n, X, Y) + stream.standard_normal(X.shape), grad_y(n, X, Y)

    return fm.MinimaxProblem(
        n_clients=n_clients, shape_x=fm.Shape.matrix(4, 2), shape_y=fm.Shape.matrix(3, 2),
        smooth=fm.SmoothnessInfo(L_f=4.0, mu=1.0), f_value=lambda X, Y: 0.0,
        grad_x=grad_x, grad_y=grad_y, stoch_grad=stoch_grad)


def test_per_client_callables_are_wrapped_into_the_batched_oracle():
    problem = per_client_matrix_problem()
    rng = np.random.default_rng(3)
    X, Y = rng.standard_normal((3, 4, 2)), rng.standard_normal((3, 3, 2))
    GX, GY = problem.grad(X, Y)
    for n in range(3):
        assert np.array_equal(GX[n], problem.grad_x(n, X[n], Y[n]))
        assert np.array_equal(GY[n], problem.grad_y(n, X[n], Y[n]))
    # draw runs stoch_grad on the stream at the client's iterates; grad stacks its pairs
    batch = [problem.draw(n, np.random.default_rng(n), X[n], Y[n]) for n in range(3)]
    GX, GY = problem.grad(X, Y, batch)
    for n in range(3):
        gx, gy = problem.stoch_grad(n, X[n], Y[n], np.random.default_rng(n))
        assert np.array_equal(GX[n], gx) and np.array_equal(GY[n], gy)


def test_derived_forms_follow_dataclasses_replace():
    base = fm.make_saddle_problem(2, 3, 2, hetero=0.5, seed=1)
    x, y = np.ones(3), np.ones(2)

    def doubled(X, Y, batch=None):
        GX, GY = base.grad(X, Y, batch)
        return 2.0 * GX, 2.0 * GY

    twice = dataclasses.replace(base, grad=doubled)
    assert np.array_equal(twice.grad_x(1, x, y), 2.0 * base.grad_x(1, x, y))
    assert np.array_equal(twice.mean_grad(x, y)[1], 2.0 * base.mean_grad(x, y)[1])

    wrapped = per_client_matrix_problem()
    calls = []

    def counting(n, X, Y):
        calls.append(n)
        return wrapped.grad_x(n, X, Y)

    counted = dataclasses.replace(wrapped, grad_x=counting)
    counted.grad(np.zeros((3, 4, 2)), np.zeros((3, 3, 2)))
    assert calls == [0, 1, 2]


def test_problem_needs_a_gradient_oracle():
    with pytest.raises(ValueError, match="needs the batched grad"):
        fm.MinimaxProblem(n_clients=1, shape_x=fm.Shape.vector(1), shape_y=fm.Shape.vector(1),
                          smooth=fm.SmoothnessInfo(L_f=1.0, mu=1.0), f_value=lambda x, y: 0.0,
                          grad_x=lambda n, x, y: x)
