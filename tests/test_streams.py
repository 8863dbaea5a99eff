"""Property tests: bulk-derived streams and stacked noise equal their one-at-a-time references.

``stream_states`` must give, draw for draw, the generator ``derive_stream``
builds for the same key, over the whole seed and key domain; so must
``round_states``, which derives the streams of several seeds at once, and
the chunks of rounds a stack of runs derives its streams in.  The noise
``client_round`` injects must equal, bit for bit, a per-client reference:
the one-client ``stoch_grad`` on that client's ``derive_stream`` stream,
at the iterates the batched ``grad`` saw, then one increment per block
from the per-client sampler below, for every noise family, vector and
matrix blocks and AUC minibatches.
"""

import dataclasses
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import fedminimax as fm
from fedminimax import fedopt
from fedminimax.fedopt import RunSpec, ServerState, client_round
from fedminimax.noise import (STREAM_CHUNK, _pareto_scale, _student_t_scale, derive_stream, round_states,
                              sample, stream_states)

SEEDS = st.sampled_from([0, 1, 2**32 - 1, 2**32, 2**64 - 1]) | st.integers(0, 2**64 - 1)
KEY = st.tuples(*(st.sampled_from([0, 1, 2**32 - 1]) | st.integers(0, 2**32 - 1) for _ in range(3)))


def reference_sample(model, shape, stream):
    """One client's increment, drawn and scaled on its own (the loop form of ``sample``)."""
    if model is None or model.family == "none" or model.sigma == 0.0:
        return np.zeros(shape.dims)
    direction = stream.standard_normal(shape.size)
    nrm = np.linalg.norm(direction)
    if nrm == 0.0:
        direction[0] = 1.0
        nrm = 1.0
    direction /= nrm
    if model.family == "symmetrized-pareto":
        radius = _pareto_scale(model) * (1.0 + stream.pareto(model.tail_exponent))
    elif model.family == "student-t":
        radius = _student_t_scale(model) * abs(stream.standard_t(model.tail_exponent))
    else:
        radius = model.sigma * abs(stream.standard_normal())
    return (radius * direction).reshape(shape.dims)


@settings(max_examples=200, deadline=None)
@given(seed=SEEDS, keys=st.lists(KEY, min_size=1, max_size=6))
def test_stream_states_match_derive_stream(seed, keys):
    rng = np.random.default_rng(0)
    for key, state in zip(keys, stream_states(seed, keys)):
        ref = derive_stream(seed, *key)
        assert state == ref.bit_generator.state
        rng.bit_generator.state = state
        assert rng.integers(0, 2**63, size=3).tolist() == ref.integers(0, 2**63, size=3).tolist()
        assert np.array_equal(rng.standard_normal(4), ref.standard_normal(4))


NOISES = {
    "symmetrized-pareto": fm.NoiseModel(s=1.5, sigma=1.0, family="symmetrized-pareto"),
    "student-t": fm.NoiseModel(s=1.5, sigma=0.7, family="student-t", tail_exponent=1.8),
    "gaussian": fm.NoiseModel(s=2.0, sigma=1.3, family="gaussian"),
    "none": fm.NoiseModel(family="none"),
}


@pytest.mark.parametrize("family", sorted(NOISES))
@settings(max_examples=40, deadline=None)
@given(key=KEY, seed=SEEDS, shape=st.sampled_from([fm.Shape.vector(1), fm.Shape.vector(7),
                                                   fm.Shape.matrix(3, 4)]))
def test_sample_matches_reference(family, key, seed, shape):
    got = sample(NOISES[family], shape, derive_stream(seed, *key))
    assert np.array_equal(got, reference_sample(NOISES[family], shape, derive_stream(seed, *key)))


def matrix_problem(n_clients=3, m=3, k=2, c=2, mu=1.0):
    """Bilinear matrix saddle: X is m-by-k, Y is c-by-k."""
    rng = np.random.default_rng(5)
    A = rng.standard_normal((n_clients, m, c))
    C = rng.standard_normal((n_clients, m, k))

    def grad_x(n, X, Y):
        return A[n] @ Y + C[n]

    def grad_y(n, X, Y):
        return A[n].T @ X - mu * Y

    A_mean = A.mean(axis=0)
    return fm.MinimaxProblem(
        n_clients=n_clients, shape_x=fm.Shape.matrix(m, k), shape_y=fm.Shape.matrix(c, k),
        smooth=fm.SmoothnessInfo(L_f=float(np.linalg.norm(A_mean, 2)) + mu, mu=mu),
        y_star=lambda X: A_mean.T @ X / mu, grad_x=grad_x, grad_y=grad_y,
        stoch_grad=lambda n, X, Y, rng_: (grad_x(n, X, Y), grad_y(n, X, Y)),
        f_value=lambda X, Y: 0.0,
    )


PROBLEMS = {
    "vector": fm.make_saddle_problem(3, 4, 3, hetero=0.5, seed=1),
    "matrix": matrix_problem(),
    "auc-minibatch": fm.make_auc_problem(
        fm.gen_imbalanced_data(40, [0.2, 0.3, 0.25], dim=3, separation=2.0, seed=2), 3, batch_size=5),
}


@pytest.mark.parametrize("family", sorted(NOISES))
@pytest.mark.parametrize("kind", sorted(PROBLEMS))
@settings(max_examples=15, deadline=None)
@given(seed=SEEDS, round_idx=st.sampled_from([0, 2**32 - 1]) | st.integers(0, 2**32 - 1),
       p=st.integers(1, 3), data=st.data())
def test_client_round_noise_matches_per_client_reference(kind, family, seed, round_idx, p, data):
    base, noise = PROBLEMS[kind], NOISES[family]
    N, sx, sy = base.n_clients, base.shape_x, base.shape_y
    calls = []

    def recording(X, Y, batch=None):
        calls.append((X.copy(), Y.copy()))
        return base.grad(X, Y, batch)

    problem = dataclasses.replace(base, grad=recording)
    x0 = data.draw(st.lists(st.floats(-2, 2), min_size=sx.size, max_size=sx.size))
    server = ServerState(np.reshape(x0, (1,) + sx.dims),  # a stack of one run
                         *(np.zeros((1,) + shape.dims) for shape in (sy, sx, sy, sx, sy)), round_idx)
    hp = fm.HyperParams(gamma_x=0.1, gamma_y=0.1, eta_x=0.05, eta_y=0.05, beta_x=0.5,
                        beta_y=0.5, p=p, T=1, N=N)
    _, _, G_x, G_y, *_ = client_round(server, np.zeros((N,) + sx.dims), np.zeros((N,) + sy.dims),
                                      problem, [RunSpec("nsgda-m", hp, noise, seed)],
                                      round_states([seed], N, p, round_idx, 1))

    assert len(calls) == p  # one batched call per local step
    assert G_x.shape == (N,) + sx.dims and G_y.shape == (N,) + sy.dims
    sum_x, sum_y = np.zeros((N,) + sx.dims), np.zeros((N,) + sy.dims)
    for step, (X, Y) in enumerate(calls):
        assert X.shape == (N,) + sx.dims and Y.shape == (N,) + sy.dims
        for n in range(N):
            rng = derive_stream(seed, n, round_idx, step)
            gx, gy = base.stoch_grad(n, X[n], Y[n], rng)
            gx, gy = gx + reference_sample(noise, sx, rng), gy + reference_sample(noise, sy, rng)
            sum_x[n] += gx
            sum_y[n] += gy
    assert np.array_equal(G_x, sum_x / p) and np.array_equal(G_y, sum_y / p)


def test_run_rejects_seed_outside_stream_domain():
    problem = PROBLEMS["vector"]
    hp = fm.theorem1_schedule(3, 1, 2, problem.smooth)
    for seed in (-1, 2**64, 1.5):
        with pytest.raises(ValueError, match=r"seed: must be an integer in \[0, 2\*\*64\)"):
            fm.run("nsgda-m", problem, hp, seed=seed)
    trace = fm.run("nsgda-m", problem, hp, seed=2**64 - 1)
    assert len(trace.records) == 2 and math.isfinite(trace.records[-1].grad_phi_norm)


@settings(max_examples=40, deadline=None)
@given(seeds=st.lists(SEEDS, min_size=1, max_size=3),
       first_round=st.sampled_from([0, 2**32 - 3]) | st.integers(0, 2**32 - 3),
       rounds=st.integers(1, 3), clients=st.integers(1, 3), steps=st.integers(1, 2))
def test_round_states_layout_matches_derive_stream(seeds, first_round, rounds, clients, steps):
    states = round_states(seeds, clients, steps, first_round, rounds)
    assert len(states) == rounds * steps * len(seeds) * clients
    k = 0
    for r in range(rounds):
        for i in range(steps):
            for seed in seeds:
                for n in range(clients):
                    assert states[k] == derive_stream(seed, n, first_round + r, i).bit_generator.state
                    k += 1
    assert list(states[1:]) == [states[k] for k in range(1, len(states))]
    with pytest.raises(ValueError, match="keys"):
        round_states(seeds, clients, steps, 2**32 - rounds + 1, rounds)


@settings(max_examples=20, deadline=None)
@given(seeds=st.lists(st.sampled_from([0, 2**64 - 1]) | st.integers(0, 2**64 - 1), min_size=1, max_size=3),
       chunk=st.sampled_from([1, 5, 12, STREAM_CHUNK]), T=st.integers(1, 7))
def test_run_stack_streams_cross_chunk_boundaries(seeds, chunk, T):
    """Every client_round of a stack gets, state for state, its runs' derive_stream states."""
    problem = fm.make_saddle_problem(2, 2, 2, hetero=0.5, seed=1)
    hp = fm.HyperParams(gamma_x=0.1, gamma_y=0.1, eta_x=0.05, eta_y=0.05, beta_x=0.5, beta_y=0.5,
                        p=2, T=T, N=2)
    seen = []

    def recording(server, G_prev_x, G_prev_y, problem, specs, states):
        seen.append((server.round, [spec.seed for spec in specs], states))
        return client_round(server, G_prev_x, G_prev_y, problem, specs, states)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(fedopt, "STREAM_CHUNK", chunk)
        mp.setattr(fedopt, "client_round", recording)
        fedopt.run_stack(problem, [RunSpec("nsgda-m", hp, NOISES["gaussian"], seed) for seed in seeds])
    assert [t for t, _, _ in seen] == list(range(T))
    for t, stacked, states in seen:
        want = [derive_stream(seed, n, t, i).bit_generator.state
                for i in range(2) for seed in stacked for n in range(2)]
        assert list(states) == want
