"""Property tests: the batched problem oracle equals its per-client formulas bit for bit.

Every row of ``grad(X, Y, batch)`` must equal the per-client reference
formula below evaluated on that client alone, and ``mean_grad`` must equal
the server's ``.sum(axis=0)`` of those reference rows divided by N.  The
references are written out here, independent of the package's stacked
arithmetic.
"""

import dataclasses

import numpy as np
import pytest
from hypothesis import example, given, settings
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


def server_mean(rows):
    """The client mean as ``server_round`` takes it: the stacked rows summed over axis 0, over N."""
    return np.stack(rows).sum(axis=0) / len(rows)


def assert_rows_and_mean(problem, pair, X, Y, batch=None):
    """Rows of ``grad`` equal ``pair(n, x_n, y_n)``; ``mean_grad`` at X[0], Y[0] is their server mean."""
    N = problem.n_clients
    GX, GY = problem.grad(X, Y, batch)
    for n in range(N):
        gx, gy = pair(n, X[n], Y[n], None if batch is None else batch[n])
        assert np.array_equal(GX[n], gx) and np.array_equal(GY[n], gy), f"client {n}"
    refs = [pair(n, X[0], Y[0], None) for n in range(N)]
    mean_x, mean_y = problem.mean_grad(X[0], Y[0])
    assert np.array_equal(mean_x, server_mean([gx for gx, _ in refs]))
    assert np.array_equal(mean_y, server_mean([gy for _, gy in refs]))


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
    assert problem.minibatch is None and not problem.draws_per_client  # the saddle draws nothing


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
       batch_size=st.sampled_from([None, 1, 3, 16]), pooled=st.booleans(), seed=SEEDS)
def test_auc_grad_rows_match_reference(n_clients, dim, equal, batch_size, pooled, seed):
    rng = np.random.default_rng(seed)
    sizes = [40] * n_clients if equal else rng.integers(20, 60, size=n_clients).tolist()
    shards = auc_shards(n_clients, sizes, dim, seed % 1000)
    problem = fm.make_auc_problem(shards, dim, batch_size=batch_size, pooled_ratio=pooled)
    pooled_p = float(np.mean(np.concatenate([s.labels for s in shards]) == 1))
    ratios = [pooled_p if pooled else s.positive_ratio for s in shards]
    X = rng.standard_normal((n_clients, dim + 2))
    Y = rng.standard_normal((n_clients, 1))

    batch = None
    if batch_size is None:
        assert problem.minibatch is None
    else:  # each client's minibatch: shard indices drawn with replacement, the first draw of its stream
        assert problem.minibatch == (tuple(len(s) for s in shards), batch_size)
        batch = np.stack([np.random.default_rng([seed, n]).integers(0, len(shards[n]), size=batch_size)
                          for n in range(n_clients)])

    def pair(n, x, y, idx):
        s = shards[n]
        A, b = (s.features, s.labels) if idx is None else (s.features[idx], s.labels[idx])
        return reference_auc(A, b, x, float(y[0]), ratios[n])

    assert_rows_and_mean(problem, pair, X, Y, batch)
    for n in range(n_clients):  # a client's stoch_grad draws its minibatch on the stream it is given
        gx, gy = problem.stoch_grad(n, X[n], Y[n], np.random.default_rng([seed, n]))
        want_x, want_y = pair(n, X[n], Y[n], None if batch is None else batch[n])
        assert np.array_equal(gx, want_x) and np.array_equal(gy, want_y), f"client {n}"
    assert_rows_and_mean(problem, pair, X, Y)


AUC_RATIOS = [0.1, 0.12, 0.15, 0.2, 0.22, 0.25, 0.3, 0.4]


@pytest.mark.parametrize("algorithm", fm.ALGORITHMS)
def test_exact_metrics_add_clients_as_the_server_does(algorithm):
    # with beta = 1, p = 1 and no noise the server's momentum is the client mean
    # of the round-start gradients, so each grad_err is that mean less itself;
    # eight one-entry dual rows are where a differently ordered sum would round apart
    saddle = fm.make_saddle_problem(8, 10, 1, hetero=0.5, seed=3)
    auc = fm.make_auc_problem(fm.gen_imbalanced_data(50, AUC_RATIOS, dim=3, separation=1.0, seed=4),
                              3, batch_size=None)
    hp = fm.HyperParams(gamma_x=0.05, gamma_y=0.5, eta_x=0.01, eta_y=0.01, beta_x=1.0, beta_y=1.0,
                        p=1, T=200, N=8)
    for problem in (saddle, auc):
        trace = fm.run(algorithm, problem, hp, seed=1)
        assert not trace.diverged
        assert [(r.grad_err_x, r.grad_err_y) for r in trace.records] == [(0.0, 0.0)] * hp.T


def reference_auc_f_and_y_star(shards, x, y):
    """The AUC objective and dual maximizer, the per-client terms summed as the server sums."""
    d = shards[0].features.shape[1]
    w, w1, w2, w3 = x[:d], x[d], x[d + 1], float(y[0])
    losses, lins = [], []
    for s in shards:
        h, pos, p = s.features @ w, s.labels == 1, s.positive_ratio
        vals = (1.0 - p) * (h - w1) ** 2 * pos + p * (h - w2) ** 2 * (~pos)
        vals = vals + 2.0 * (1.0 + w3) * (p * h * (~pos) - (1.0 - p) * h * pos)
        losses.append(float(vals.mean()) - p * (1.0 - p) * w3**2)
        lins.append(float(np.mean(p * h * (~pos) - (1.0 - p) * h * pos)))
    ratios = np.array([s.positive_ratio for s in shards])
    return (np.array(losses).sum(axis=0) / len(shards),
            np.array([np.array(lins).sum(axis=0) / np.sum(ratios * (1.0 - ratios))]))


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

    A_mean = A.mean(axis=0)
    return fm.MinimaxProblem(
        n_clients=n_clients, shape_x=fm.Shape.matrix(4, 2), shape_y=fm.Shape.matrix(3, 2),
        smooth=fm.SmoothnessInfo(L_f=4.0, mu=1.0), f_value=lambda X, Y: 0.0,
        y_star=lambda X: A_mean.T @ X, grad_x=grad_x, grad_y=grad_y, stoch_grad=stoch_grad)


def test_per_client_callables_are_wrapped_into_the_batched_oracle():
    problem = per_client_matrix_problem()
    rng = np.random.default_rng(3)
    X, Y = rng.standard_normal((3, 4, 2)), rng.standard_normal((3, 3, 2))
    GX, GY = problem.grad(X, Y)
    for n in range(3):
        assert np.array_equal(GX[n], problem.grad_x(n, X[n], Y[n]))
        assert np.array_equal(GY[n], problem.grad_y(n, X[n], Y[n]))
    # the engine runs stoch_grad on each client's stream at its iterates; grad stacks those pairs
    assert problem.draws_per_client
    batch = [problem.stoch_grad(n, X[n], Y[n], np.random.default_rng(n)) for n in range(3)]
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
    common = dict(n_clients=1, shape_x=fm.Shape.vector(1), shape_y=fm.Shape.vector(1),
                  smooth=fm.SmoothnessInfo(L_f=1.0, mu=1.0), f_value=lambda x, y: 0.0)
    with pytest.raises(ValueError, match="needs the batched grad"):
        fm.MinimaxProblem(**common, y_star=lambda x: x, grad_x=lambda n, x, y: x)
    with pytest.raises(TypeError, match="y_star"):  # the exact metrics need the inner maximizer
        fm.MinimaxProblem(**common, grad=lambda X, Y, batch=None: (X, -Y))
    batched = dict(common, y_star=lambda x: x, grad=lambda X, Y, batch=None: (X, -Y))
    for minibatch in (((3, 4), 2), ((3,), 0), ((0,), 2)):  # one shard size >= 1 per client, a batch >= 1
        with pytest.raises(ValueError, match="minibatch: need one shard size"):
            fm.MinimaxProblem(**batched, minibatch=minibatch)
    assert fm.MinimaxProblem(**batched, minibatch=([np.int64(3)], 2)).minibatch == ((3,), 2)
    with pytest.raises(ValueError, match="minibatch: a problem given by per-client callables"):
        fm.MinimaxProblem(**common, y_star=lambda x: x, grad_x=lambda n, x, y: x, grad_y=lambda n, x, y: -y,
                          stoch_grad=lambda n, x, y, rng: (x, -y), minibatch=((3,), 2))


def same_bits(a, b):
    a, b = np.asarray(a), np.asarray(b)
    return a.shape == b.shape and a.dtype == b.dtype and a.tobytes() == b.tobytes()


def assert_metrics_are_the_separate_calls(problem, X, Y):
    """``round_metrics(X, Y)`` on K points is, at each point, phi_value_and_grad(x), f_value(x, y) and
    mean_grad(x, y), bit for bit."""
    phi, grad_phi, f, mean_gx, mean_gy = problem.round_metrics(X, Y)
    assert phi.shape == f.shape == (len(X),)
    assert grad_phi.shape == mean_gx.shape == X.shape and mean_gy.shape == Y.shape
    for k, (x, y) in enumerate(zip(X, Y)):
        phi_ref, grad_phi_ref = fm.phi_value_and_grad(problem, x)
        mean_gx_ref, mean_gy_ref = problem.mean_grad(x, y)
        assert same_bits(phi[k], phi_ref), f"point {k}"
        assert same_bits(grad_phi[k], grad_phi_ref), f"point {k}"
        assert same_bits(f[k], float(problem.f_value(x, y))), f"point {k}"
        assert same_bits(mean_gx[k], mean_gx_ref) and same_bits(mean_gy[k], mean_gy_ref), f"point {k}"


@settings(max_examples=60, deadline=None)
@given(n_clients=st.integers(1, 8), dim=st.integers(1, 6), equal=st.booleans(),
       batch_size=st.sampled_from([None, 1, 16]), pooled=st.booleans(),
       point=st.sampled_from(["random", "at y*", "warm"]), seed=SEEDS)
def test_auc_round_metrics_are_the_separate_calls(n_clients, dim, equal, batch_size, pooled, point,
                                                  seed):
    rng = np.random.default_rng(seed)
    sizes = [40] * n_clients if equal else rng.integers(20, 60, size=n_clients).tolist()
    shards = auc_shards(n_clients, sizes, dim, seed % 1000)
    problem = fm.make_auc_problem(shards, dim, batch_size=batch_size, pooled_ratio=pooled)
    assert problem.round_metrics.made_for == (problem.grad, problem.f_value, problem.y_star, None)
    if point == "warm":  # the iterates a short run reaches
        hp = fm.theorem1_schedule(n_clients, 2, 3, problem.smooth)
        state = fm.run("nsgda-m", problem, hp, seed=seed % 1000).final_state
        x, y = state.x, state.y
    else:
        x = rng.standard_normal(dim + 2)
        y = problem.y_star(x) if point == "at y*" else rng.standard_normal(1)
    assert_metrics_are_the_separate_calls(problem, x[None], y[None])


def test_default_round_metrics_are_the_separate_calls():
    rng = np.random.default_rng(5)
    base = fm.make_saddle_problem(3, 4, 2, hetero=0.5, seed=2)
    saddle = dataclasses.replace(base, f_value=lambda x, y: base.f_value(x, y))  # not the one made for
    adapter = per_client_matrix_problem()
    assert base.round_metrics.made_for == (base.grad, base.f_value, base.y_star, base.phi_grad)
    assert saddle.round_metrics == saddle._round_metrics
    assert adapter.round_metrics == adapter._round_metrics
    for points in (1, 3, 5):
        assert_metrics_are_the_separate_calls(
            saddle, rng.standard_normal((points, 4)), rng.standard_normal((points, 2)))
        assert_metrics_are_the_separate_calls(
            adapter, rng.standard_normal((points, 4, 2)), rng.standard_normal((points, 3, 2)))


def test_auc_round_metrics_never_outlive_the_callables_they_reproduce():
    shards = fm.gen_imbalanced_data(60, [0.2, 0.3, 0.4], dim=3, separation=1.0, seed=2)
    base = fm.make_auc_problem(shards, 3, batch_size=8)
    rng = np.random.default_rng(3)
    x, y = rng.standard_normal(5), rng.standard_normal(1)

    def doubled_grad(X, Y, batch=None):
        GX, GY = base.grad(X, Y, batch)
        return 2.0 * GX, 2.0 * GY

    replaced = {
        "grad": doubled_grad,
        "f_value": lambda x, y: 2.0 * base.f_value(x, y),
        "y_star": lambda x: base.y_star(x) + 0.5,
        "phi_grad": lambda x: np.ones_like(x),
    }
    for name, fn in replaced.items():
        problem = dataclasses.replace(base, **{name: fn})
        assert problem.round_metrics == problem._round_metrics, name
        assert_metrics_are_the_separate_calls(problem, x[None], y[None])
    # so run records what the new callables give: f doubles, the iterates stay
    hp = fm.theorem1_schedule(3, 2, 4, base.smooth)
    trace = fm.run("nsgda-m", base, hp, seed=1)
    twice = fm.run("nsgda-m", dataclasses.replace(base, f_value=replaced["f_value"]), hp, seed=1)
    assert [r.f_value for r in twice.records] == [2.0 * r.f_value for r in trace.records]
    assert all(np.array_equal(a.x, b.x) for a, b in zip(trace.records, twice.records))
    # a replace of a field the metrics do not read keeps the one-pass version
    assert dataclasses.replace(base, auc_eval=None).round_metrics is base.round_metrics
    # one given without made_for is not trusted either
    unnamed = dataclasses.replace(base, round_metrics=lambda x, y: None)
    assert unnamed.round_metrics == unnamed._round_metrics


def stack_problem(kind, n_clients, dim, batch_size, pooled, equal, seed):
    if kind == "adapter":
        return per_client_matrix_problem(n_clients, seed)
    if kind.startswith("saddle"):
        d_y = 1 if kind == "saddle-dy1" else 2 + seed % 9
        return fm.make_saddle_problem(n_clients, dim, d_y, mu=0.7, amp=1.3, hetero=0.5, seed=seed)
    rng = np.random.default_rng(seed)
    sizes = [40] * n_clients if equal else rng.integers(20, 60, size=n_clients).tolist()
    dim = 1 + dim % 6
    return fm.make_auc_problem(auc_shards(n_clients, sizes, dim, seed), dim, batch_size=batch_size,
                               pooled_ratio=pooled)


@settings(max_examples=120, deadline=None)
@example(kind="saddle", runs=3, n_clients=1, dim=2, batch_size=None, pooled=False, equal=False,
         partial=False, seed=1)  # where an einsum over the stack rounded f apart from the one-point call
@given(kind=st.sampled_from(["saddle-dy1", "saddle", "auc", "adapter"]), runs=st.integers(1, 6),
       n_clients=st.integers(1, 6), dim=st.integers(1, 12), batch_size=st.sampled_from([None, 1, 7]),
       pooled=st.booleans(), equal=st.booleans(), partial=st.booleans(), seed=SEEDS)
def test_stacked_oracle_and_metrics_are_the_per_run_calls(kind, runs, n_clients, dim, batch_size, pooled,
                                                         equal, partial, seed):
    """``grad`` on K runs' (K*N,) rows is the per-run calls on each run's N rows, and
    ``round_metrics`` on K points is the one-point calls at each point, bit for bit."""
    problem = stack_problem(kind, n_clients, dim, batch_size, pooled, equal, seed % 1000)
    rng = np.random.default_rng(seed)
    dims_x, dims_y = problem.shape_x.dims, problem.shape_y.dims
    X = 3.0 * rng.standard_normal((runs * n_clients,) + dims_x)
    Y = 3.0 * rng.standard_normal((runs * n_clients,) + dims_y)
    batch = None
    if problem.draws_per_client:  # row r draws as client r mod N, on a stream of its own
        batch = [problem.stoch_grad(r % n_clients, X[r], Y[r], np.random.default_rng([seed, r]))
                 for r in range(len(X))]
        if partial:  # some rows ask for their deterministic gradient
            batch = [None if rng.random() < 0.5 else entry for entry in batch]
    elif problem.minibatch is not None:  # row r's minibatch from client r mod N's shard
        sizes, count = problem.minibatch
        batch = np.stack([np.random.default_rng([seed, r]).integers(0, sizes[r % n_clients], size=count)
                          for r in range(len(X))])
    GX, GY = problem.grad(X, Y, batch)
    for k in range(runs):
        rows = slice(k * n_clients, (k + 1) * n_clients)
        gx, gy = problem.grad(X[rows], Y[rows], None if batch is None else batch[rows])
        assert same_bits(GX[rows], gx) and same_bits(GY[rows], gy), f"run {k}"
    points_x, points_y = X[::n_clients], Y[::n_clients]
    if kind != "adapter":  # a point at its own y*(x), where phi = f
        points_y[0] = problem.y_star(points_x[0])
    assert_metrics_are_the_separate_calls(problem, points_x, points_y)


def test_run_stack_makes_one_oracle_call_per_step_and_one_metrics_call_per_round():
    base = fm.make_saddle_problem(3, 4, 2, hetero=0.5, seed=2)
    calls = {}

    def grad(X, Y, batch=None):
        calls["grad"] += 1
        return base.grad(X, Y, batch)

    def round_metrics(X, Y):
        calls["round_metrics"] += 1
        return base.round_metrics(X, Y)

    round_metrics.made_for = (grad, base.f_value, base.y_star, base.phi_grad)
    problem = dataclasses.replace(base, grad=grad, round_metrics=round_metrics)
    assert problem.round_metrics is round_metrics
    hp = fm.theorem1_schedule(3, 3, 6, problem.smooth)
    noise = fm.NoiseModel(s=1.5, sigma=1.0, family="symmetrized-pareto")
    algorithms = ["nsgda-m", "local-sgda-m", "sgda-clip", "muon-da", "nsgda-m"]
    for runs in (1, 5):
        calls.update(grad=0, round_metrics=0)
        specs = [fm.RunSpec(algorithm, hp, noise, seed) for seed, algorithm in enumerate(algorithms[:runs])]
        traces = fm.run_stack(problem, specs)
        assert all(isinstance(trace, fm.RunTrace) and not trace.diverged for trace in traces)
        assert calls == {"grad": hp.p * hp.T, "round_metrics": hp.T}, runs
