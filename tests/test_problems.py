import numpy as np
import pytest

from fedminimax import Shape
from fedminimax.problems import (
    Dataset,
    gen_imbalanced_data,
    make_auc_problem,
    make_saddle_problem,
)


def central_diff(fn, x, eps=1e-6):
    """Independent finite-difference gradient oracle."""
    x = np.asarray(x, dtype=float)
    g = np.zeros_like(x)
    for i in range(x.size):
        hi = x.copy(); hi[i] += eps
        lo = x.copy(); lo[i] -= eps
        g[i] = (fn(hi) - fn(lo)) / (2 * eps)
    return g


# ---------------------------------------------------------------------------
# saddle problem


def test_saddle_pinned_instance_y_star_and_phi_grad():
    # N=1, amp=0, B=I, c=0, mu=1: y*(x) = x and grad phi(x) = x
    prob = make_saddle_problem(
        1, 2, 2, mu=1.0, amp=0.0, hetero=0.0, seed=0,
        base_coupling=np.eye(2), base_shift=np.zeros(2))
    x = np.array([1.0, 1.0])
    assert np.allclose(prob.y_star(x), x)
    assert np.allclose(prob.phi_grad(x), x)


def test_saddle_phi_grad_matches_finite_differences():
    prob = make_saddle_problem(4, 3, 4, mu=0.7, amp=1.0, hetero=0.5, seed=11)
    rng = np.random.default_rng(0)
    x0 = rng.standard_normal(3)

    def phi(x):
        return prob.f_value(x, prob.y_star(x))  # inner max in closed form

    fd = central_diff(phi, x0)
    assert np.linalg.norm(fd - prob.phi_grad(x0)) <= 1e-5 * max(1.0, np.linalg.norm(fd))


def test_saddle_gradient_consistency_with_f_value():
    prob = make_saddle_problem(3, 4, 3, mu=1.2, amp=0.8, hetero=0.4, seed=5)
    rng = np.random.default_rng(1)
    for _ in range(10):
        x = rng.standard_normal(4)
        y = rng.standard_normal(3)
        fd_x = central_diff(lambda z: prob.f_value(z, y), x)
        fd_y = central_diff(lambda z: prob.f_value(x, z), y)
        assert np.linalg.norm(fd_x - prob.mean_grad_x(x, y)) <= 1e-5 * max(1.0, np.linalg.norm(fd_x))
        assert np.linalg.norm(fd_y - prob.mean_grad_y(x, y)) <= 1e-5 * max(1.0, np.linalg.norm(fd_y))


def test_saddle_grad_y_vanishes_at_y_star():
    prob = make_saddle_problem(5, 3, 3, mu=2.0, amp=1.0, hetero=0.7, seed=2)
    rng = np.random.default_rng(3)
    for _ in range(5):
        x = rng.standard_normal(3)
        assert np.linalg.norm(prob.mean_grad_y(x, prob.y_star(x))) <= 1e-8


def test_saddle_gradient_dominance_is_exact():
    # quadratic-in-y structure: ||grad_y f||^2 = 2*mu*(f(x, y*) - f(x, y))
    mu = 1.5
    prob = make_saddle_problem(3, 4, 4, mu=mu, amp=1.0, hetero=0.5, seed=8)
    rng = np.random.default_rng(4)
    for _ in range(5):
        x = rng.standard_normal(4)
        y = rng.standard_normal(4)
        lhs = np.linalg.norm(prob.mean_grad_y(x, y)) ** 2
        rhs = 2 * mu * (prob.f_value(x, prob.y_star(x)) - prob.f_value(x, y))
        assert lhs >= rhs - 1e-8
        assert lhs == pytest.approx(rhs, rel=1e-9)


def test_saddle_rejects_bad_mu():
    with pytest.raises(ValueError):
        make_saddle_problem(2, 2, 2, mu=0.0)
    with pytest.raises(ValueError, match="d_x: must be >= 1, got 0; mu: must be positive"):
        make_saddle_problem(2, 0, 2, mu=0.0)  # every broken rule at once


# ---------------------------------------------------------------------------
# auc data and problem


def test_dataset_rejects_labels_that_are_not_exactly_plus_or_minus_one():
    with pytest.raises(ValueError, match=r"labels must be \+1 or -1"):
        Dataset(np.ones((2, 3)), [1.9, -1.5])  # an int cast would truncate these to 1 and -1
    ds = Dataset(np.ones((2, 3)), [1.0, -1.0])
    assert ds.labels.dtype.kind == "i" and ds.labels.tolist() == [1, -1]


def two_point_problem():
    # one shard holding {(h=1, b=-1), (h=1, b=+1)} under a unit feature
    ds = Dataset(np.array([[1.0], [1.0]]), np.array([-1, 1]))
    return make_auc_problem([ds], 1, batch_size=2)


def test_auc_w3_star_two_point_dataset():
    prob = two_point_problem()
    x = np.array([1.0, 0.0, 0.0])  # w=1 so h=1 on both points
    assert prob.y_star(x) == pytest.approx(np.array([0.0]))


def test_auc_w3_star_zero_outputs():
    prob = two_point_problem()
    assert prob.y_star(np.zeros(3)) == pytest.approx(np.array([0.0]))


def test_auc_w3_star_matches_grid_search():
    shards = gen_imbalanced_data(60, [0.2, 0.35], dim=3, separation=1.0, seed=21)
    prob = make_auc_problem(shards, 3, batch_size=16)
    rng = np.random.default_rng(7)
    x = rng.standard_normal(5)
    grid = np.arange(-10.0, 10.0, 1e-4)

    def argmax(w3s):
        return int(np.argmax([prob.f_value(x, np.array([w3])) for w3 in w3s]))

    # f is strictly concave in w3, so the grid's maximizer lies within one
    # coarse step of the coarse subgrid's
    step = 100
    k = step * argmax(grid[::step])
    near = grid[max(k - step, 0):k + step + 1]
    best = near[argmax(near)]
    assert abs(float(prob.y_star(x)[0]) - best) <= 1e-3


def test_auc_gradient_consistency_with_f_value():
    shards = gen_imbalanced_data(40, [0.25, 0.4], dim=2, separation=1.5, seed=3)
    prob = make_auc_problem(shards, 2, batch_size=8)
    rng = np.random.default_rng(2)
    for _ in range(10):
        x = rng.standard_normal(4)
        y = rng.standard_normal(1)
        fd_x = central_diff(lambda z: prob.f_value(z, y), x)
        fd_y = central_diff(lambda z: prob.f_value(x, z), y)
        assert np.linalg.norm(fd_x - prob.mean_grad_x(x, y)) <= 1e-5 * max(1.0, np.linalg.norm(fd_x))
        assert np.linalg.norm(fd_y - prob.mean_grad_y(x, y)) <= 1e-5 * max(1.0, np.linalg.norm(fd_y))


def test_auc_minibatch_gradient_unbiased():
    # averaging the gradient over every size-1 minibatch recovers full batch
    shards = gen_imbalanced_data(30, [0.3], dim=2, separation=1.0, seed=9)
    prob = make_auc_problem(shards, 2, batch_size=1)
    x = np.array([0.3, -0.2, 0.1, 0.4])
    y = np.array([0.2])
    full_x = prob.grad_x(0, x, y)
    full_y = prob.grad_y(0, x, y)

    class OneIndex:
        def __init__(self, i):
            self.i = i

        def integers(self, lo, hi, size):
            return np.full(size, self.i)

    n = len(shards[0])
    acc_x = np.zeros_like(full_x)
    acc_y = np.zeros_like(full_y)
    for i in range(n):
        gx, gy = prob.stoch_grad(0, x, y, OneIndex(i))
        acc_x += gx
        acc_y += gy
    assert np.linalg.norm(acc_x / n - full_x) <= 1e-10
    assert np.linalg.norm(acc_y / n - full_y) <= 1e-10


def test_auc_problem_shapes_and_validation():
    shards = gen_imbalanced_data(20, [0.2, 0.3], dim=4, separation=1.0, seed=0)
    prob = make_auc_problem(shards, 4)
    assert prob.shape_x == Shape.vector(6)
    assert prob.shape_y == Shape.vector(1)
    with pytest.raises(ValueError):
        make_auc_problem([], 4)
    single_class = Dataset(np.ones((3, 4)), np.array([1, 1, 1]))
    with pytest.raises(ValueError):
        make_auc_problem([single_class], 4)


def test_auc_grad_y_vanishes_at_w3_star_heterogeneous():
    shards = gen_imbalanced_data(50, [0.1, 0.3, 0.45], dim=3, separation=1.0, seed=17)
    prob = make_auc_problem(shards, 3, batch_size=8)
    rng = np.random.default_rng(5)
    for _ in range(5):
        x = rng.standard_normal(5)
        assert np.linalg.norm(prob.mean_grad_y(x, prob.y_star(x))) <= 1e-8


# ---------------------------------------------------------------------------
# data generation


def test_gen_data_homogeneous_counts():
    shards = gen_imbalanced_data(640, [0.1] * 8, dim=5, separation=2.0, seed=1)
    assert len(shards) == 8
    for s in shards:
        assert len(s) == 640
        assert int(np.sum(s.labels == 1)) == 64


def test_gen_data_heterogeneous_counts():
    ratios = [0.05, 0.05, 0.08, 0.1, 0.12, 0.15, 0.2, 0.25]
    shards = gen_imbalanced_data(640, ratios, dim=5, separation=2.0, seed=1)
    for s, r in zip(shards, ratios):
        assert int(np.sum(s.labels == 1)) == round(r * 640)
        assert s.positive_ratio == pytest.approx(r, abs=1.0 / 640)


def test_gen_data_zero_separation_has_chance_auc():
    from fedminimax.metrics import auc_score

    shards = gen_imbalanced_data(4000, [0.5], dim=4, separation=0.0, seed=3)
    ds = shards[0]
    # best fixed linear scorer on indistinguishable classes stays near 0.5
    w = np.linalg.lstsq(ds.features, ds.labels.astype(float), rcond=None)[0]
    assert abs(auc_score(ds.features @ w, ds.labels) - 0.5) <= 0.05


def test_gen_data_degenerate_counts_rejected():
    with pytest.raises(ValueError):
        gen_imbalanced_data(10, [0.1], dim=2, separation=1.0)  # 1 positive < 2
    with pytest.raises(ValueError):
        gen_imbalanced_data(100, [0.5, 1.2], dim=2, separation=1.0)
    with pytest.raises(ValueError, match="0.99 of 10 samples gives 10 positives and 0 negatives"):
        gen_imbalanced_data(10, [0.99], dim=2, separation=1.0)
