"""Property tests: bulk-derived streams and stacked noise equal their one-at-a-time references.

The bulk derivation (``_states`` on a seed's ``seed_pools``, read through
``state_dicts``) must give, draw for draw, the generator ``derive_stream``
builds for the same key, over the whole seed and key domain; so must
``round_states``, which derives the streams of several seeds at once, and
the chunks of rounds a stack of runs derives its draws in.  The noise
``client_round`` injects must equal, bit for bit, a per-client reference:
the one-client ``stoch_grad`` on that client's ``derive_stream`` stream,
at the iterates the batched ``grad`` saw, then one increment per block
from the per-client sampler below, for every noise family, vector and
matrix blocks and AUC minibatches.  The pass's PCG64 outputs and states
must equal PCG64 stepped on Python integers.  The variates
``stream_variates`` gives for many streams at once, drawn in one pass that
resolves every rejected ziggurat draw itself, must equal each stream's own
draws; the ziggurat tables it ships are checked against the installed
numpy, and its first-use check must catch a table that changes variates.
"""

import dataclasses
import importlib.util
import math
import weakref
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import fedminimax as fm
from fedminimax import fedopt
from fedminimax.fedopt import RunSpec, ServerState, client_round, rate_table
from fedminimax import noise
from fedminimax._ziggurat import _BLOCK, _SLACK, _advanced, _deltas, _outputs
from fedminimax.noise import (STREAM_CHUNK, _pareto_scale, _states, _student_t_scale, chunk_draws, chunk_rounds,
                              derive_stream, round_states, sample, seed_pools, state_dicts, stream_variates)

ROOT = Path(__file__).resolve().parents[1]

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
def test_bulk_states_match_derive_stream(seed, keys):
    rng = np.random.default_rng(0)
    words = np.array(keys, dtype=np.uint32).T  # (client, round, step) rows
    for key, state in zip(keys, state_dicts(_states(seed_pools([seed]), words))):
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
    draws, = chunk_draws([seed], [noise], N, p, round_idx, 1, sx.size, sy.size, problem.minibatch,
                         problem.stoch_grad if problem.draws_per_client else None)
    _, _, G_x, G_y, *_ = client_round(server, np.zeros((N,) + sx.dims), np.zeros((N,) + sy.dims),
                                      problem, [RunSpec("nsgda-m", hp, noise, seed)],
                                      rate_table([hp], len(sx.dims), len(sy.dims)), draws)

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
    states = list(state_dicts(round_states(seeds, clients, steps, first_round, rounds)))
    assert len(states) == rounds * steps * len(seeds) * clients
    k = 0
    for r in range(rounds):
        for i in range(steps):
            for seed in seeds:
                for n in range(clients):
                    assert states[k] == derive_stream(seed, n, first_round + r, i).bit_generator.state
                    k += 1
    with pytest.raises(ValueError, match="keys"):
        round_states(seeds, clients, steps, 2**32 - rounds + 1, rounds)


@settings(max_examples=20, deadline=None)
@given(seeds=st.lists(st.sampled_from([0, 2**64 - 1]) | st.integers(0, 2**64 - 1), min_size=1, max_size=3),
       chunk=st.sampled_from([1, 5, 12, STREAM_CHUNK]), T=st.integers(1, 7), minibatch=st.booleans())
def test_run_stack_streams_cross_chunk_boundaries(seeds, chunk, T, minibatch):
    """Every step of every client_round of a stack gets, increment for increment and index for index, its
    runs' derive_stream draws, on the saddle and on an AUC problem whose minibatch shrinks the chunk."""
    if minibatch:
        shards = [fm.gen_imbalanced_data(20 + 9 * n, [0.3], dim=2, separation=2.0, seed=n)[0] for n in range(2)]
        problem = fm.make_auc_problem(shards, 2, batch_size=3)
    else:
        problem = fm.make_saddle_problem(2, 2, 2, hetero=0.5, seed=1)
    hp = fm.HyperParams(gamma_x=0.1, gamma_y=0.1, eta_x=0.05, eta_y=0.05, beta_x=0.5, beta_y=0.5,
                        p=2, T=T, N=2)
    seen = []

    def recording(server, G_prev_x, G_prev_y, problem, specs, rates, draws):
        steps = []

        def seen_draws(i, X, Y):
            steps.append(draws(i, X, Y))
            return steps[-1]

        seen.append((server.round, [spec.seed for spec in specs], steps))
        return client_round(server, G_prev_x, G_prev_y, problem, specs, rates, seen_draws)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(noise, "STREAM_CHUNK", chunk)
        mp.setattr(fedopt, "client_round", recording)
        fedopt.run_stack(problem, [RunSpec("nsgda-m", hp, NOISES["gaussian"], seed) for seed in seeds])
    assert [t for t, _, _ in seen] == list(range(T))
    for t, stacked, steps in seen:
        assert len(steps) == 2
        for i, (picks, noisy, inc_x, inc_y) in enumerate(steps):
            streams = [derive_stream(seed, n, t, i) for seed in stacked for n in range(2)]
            if minibatch:
                assert picks.tobytes() == np.stack([stream.integers(0, len(shards[k % 2]), size=3)
                                                    for k, stream in enumerate(streams)]).tobytes()
            else:
                assert picks is None
            assert noisy == slice(None)
            want = [reference_sample(NOISES["gaussian"], shape, stream) for stream in streams
                    for shape in (problem.shape_x, problem.shape_y)]
            assert inc_x.tobytes() + inc_y.tobytes() == np.concatenate(want[0::2] + want[1::2]).tobytes()


SAMPLED = [fm.NoiseModel(s=2.0, sigma=1.3, family="gaussian"),
           fm.NoiseModel(s=1.5, sigma=1.0, family="symmetrized-pareto"),
           fm.NoiseModel(s=1.2, sigma=0.5, family="symmetrized-pareto", tail_exponent=1.3),
           fm.NoiseModel(s=1.8, sigma=2.0, family="symmetrized-pareto", tail_exponent=7.5)]


def stream_draws(model, size_x, size_y, stream) -> np.ndarray:
    """One stream's raw variates as ``sample`` on an x then a y block draws them, drawn on their own."""
    def radius():
        if model.family == "gaussian":
            return abs(stream.standard_normal())
        if model.family == "student-t":
            return abs(stream.standard_t(model.tail_exponent))
        return 1.0 + stream.pareto(model.tail_exponent)
    return np.concatenate([stream.standard_normal(size_x), [radius()], stream.standard_normal(size_y), [radius()]])


def sampled(states, models, size_x, size_y) -> tuple:
    """The one-pass sampler's (variates, first variate left to numpy, state words there) for every stream."""
    tails = np.resize(np.array([noise._sampled_tail(model) for model in models]), len(states))
    return noise._sample(states, size_x, size_y, tails, noise.ziggurat_tables())


STATE128 = st.sampled_from([0, 2**128 - 1]) | st.integers(0, 2**128 - 1)
INC128 = st.sampled_from([1, 2**128 - 1]) | st.integers(0, 2**127 - 1).map(lambda v: 2 * v + 1)


@settings(max_examples=100, deadline=None)
@given(streams=st.lists(st.tuples(STATE128, INC128), min_size=1, max_size=4), first=st.integers(0, _BLOCK + _SLACK - 1))
def test_the_pass_steps_each_stream_as_pcg64_does(streams, first):
    """The pass's outputs and after-states at every offset from 0 to BLOCK + SLACK, s + B_j * D from one
    D = (MULT - 1) * s + inc per stream, are those of PCG64 stepped on Python integers: state = state * MULT
    + inc mod 2**128, then the XSL-RR output of the new state.  A later first offset gives the same rows."""
    span, top = _BLOCK + _SLACK, 2**64 - 1
    s_hi, s_lo = noise._halves([state for state, _ in streams])
    deltas = _deltas(s_hi, s_lo, *noise._halves([inc for _, inc in streams]))
    outputs = _outputs(s_hi, s_lo, deltas, 0, span)
    assert outputs[first:].tobytes() == _outputs(s_hi, s_lo, deltas, first, span - first).tobytes()
    hi, lo = _advanced(s_hi, s_lo, deltas, np.arange(span + 1)[:, None])
    for m, (state, inc) in enumerate(streams):
        for j in range(span + 1):
            assert int(hi[j, m]) << 64 | int(lo[j, m]) == state, f"stream {m}, state after {j} steps"
            state = (state * noise._PCG_MULT + inc) & noise._MASK128
            x, rot = (state >> 64 ^ state) & top, state >> 122
            assert j == span or int(outputs[j, m]) == (x >> rot | x << (64 - rot)) & top, f"stream {m}, output {j}"


@settings(max_examples=60, deadline=None)
@given(seeds=st.lists(SEEDS, min_size=1, max_size=3), clients=st.integers(1, 3), steps=st.integers(1, 2),
       first_round=st.integers(0, 2**32 - 2),
       sizes=st.tuples(*[st.integers(1, 64) | st.sampled_from([200, 257])] * 2),
       picks=st.lists(st.sampled_from(SAMPLED), min_size=9, max_size=9))
@example(seeds=[0, 2**64 - 1], clients=3, steps=2, first_round=0, sizes=(200, 257), picks=(SAMPLED * 3)[:9])
@example(seeds=[5], clients=1, steps=1, first_round=2**32 - 2, sizes=(1, 1), picks=(SAMPLED * 3)[:9])
@example(seeds=[6, 13], clients=3, steps=2, first_round=0, sizes=(64, 64), picks=(SAMPLED * 3)[:9])
@example(seeds=[44, 51], clients=3, steps=2, first_round=0, sizes=(64, 64), picks=(SAMPLED * 3)[:9])
@example(seeds=[1, 101], clients=3, steps=2, first_round=0, sizes=(30, 31), picks=(SAMPLED[1:] * 3)[:9])
@example(seeds=[1, 101], clients=3, steps=2, first_round=0, sizes=(31, 31), picks=(SAMPLED[1:] * 3)[:9])
@example(seeds=[1, 101], clients=3, steps=2, first_round=0, sizes=(31, 32), picks=(SAMPLED[1:] * 3)[:9])
def test_stream_variates_match_each_stream_drawn_alone(seeds, clients, steps, first_round, sizes, picks):
    """Pareto (three tails) and Gaussian streams of stacks of seeds, on blocks of 1 to 64 and of 200 or more.

    The examples hold up to 11 rejected draws in one stream (200 + 257), a wedge test that fails twice in
    a row and a normal tail whose first pair of uniforms fails (seeds 6 and 13), and an exponential tail
    (seeds 44 and 51); every stream is drawn whole in the pass.  Rows of 63, 64 and 65 Pareto variates
    (seeds 1 and 101) reject draws inside the first block: at 63 a stream reads the extra outputs past
    offset 64, at 64 and 65 the rest of a row goes on in a second, short block with its own extra outputs.
    """
    size_x, size_y = sizes
    models = picks[:len(seeds) * clients]  # one per (run, client)
    assert noise._sampler_agrees()  # the first-use check passes: the variates are drawn in one pass
    states = round_states(seeds, clients, steps, first_round, 2)
    drawn, start, _ = sampled(states, models, size_x, size_y)
    assert (start == size_x + size_y + 2).all()
    got = stream_variates(states, models, size_x, size_y)
    assert got.tobytes() == drawn.tobytes()
    k = 0
    for r in range(2):
        for i in range(steps):
            for seed in seeds:
                for n in range(clients):
                    want = stream_draws(models[k % len(models)], size_x, size_y,
                                        derive_stream(seed, n, first_round + r, i))
                    assert got[k].tobytes() == want.tobytes()
                    k += 1


def test_stream_variates_leave_student_t_to_numpy_and_silent_rows_zero():
    models = [None, fm.NoiseModel(family="none"), NOISES["student-t"], SAMPLED[1]]
    states = round_states([3], 4, 2, 0, 1)
    _, start, _ = sampled(states, models, 5, 5)
    assert start.tolist() == [0, 0, 0, 12, 0, 0, 0, 12]  # the Pareto streams are drawn whole
    got = stream_variates(states, models, 5, 5)
    for k in range(8):
        model = models[k % 4]
        want = np.zeros(12) if k % 4 < 2 else stream_draws(model, 5, 5, derive_stream(3, k % 4, 0, k // 4))
        assert got[k].tobytes() == want.tobytes()


def assert_minibatch_streams_match(states, models, bounds, count, size_x, size_y, streams):
    """Each stream's index row and variates from ``stream_variates`` are its own generator's minibatch
    indices, then its raw variates (zero for a silent model), drawn on their own."""
    picks, got = stream_variates(states, models, size_x, size_y, (bounds, count))
    assert picks.shape == (len(states), count) and picks.dtype == np.int64
    for k, stream in enumerate(streams):
        model = models[k % len(models)]
        assert picks[k].tobytes() == stream.integers(0, bounds[k % len(bounds)], size=count).tobytes(), f"stream {k}"
        want = np.zeros(size_x + size_y + 2) if noise.is_silent(model) else stream_draws(model, size_x, size_y, stream)
        assert got[k].tobytes() == want.tobytes(), f"stream {k}"


BOUNDS = [2, 3, 577, 640, 2**31 + 7, 2**32 - 1]  # 2**31 + 7: about half of its words fall below the threshold


@settings(max_examples=40, deadline=None)
@given(seeds=st.lists(SEEDS, min_size=1, max_size=2), clients=st.integers(1, 3),
       bounds=st.lists(st.sampled_from(BOUNDS + [1, 2**32, 2**33]), min_size=3, max_size=3),
       count=st.sampled_from([1, 2, 63, 64, 65]), sizes=st.tuples(st.integers(1, 6), st.integers(1, 6)),
       noises=st.lists(st.sampled_from(SAMPLED + [NOISES["student-t"], NOISES["none"], None]), min_size=6,
                       max_size=6))
@example(seeds=[1, 2], clients=3, bounds=[640, 577, 3], count=65, sizes=(3, 2), noises=[
    SAMPLED[1], SAMPLED[0], NOISES["student-t"], None, SAMPLED[2], NOISES["none"]])
@example(seeds=[3], clients=2, bounds=[640, 577, 3], count=300, sizes=(3, 2), noises=SAMPLED[:2] * 3)
def test_stream_variates_draw_minibatch_indices_then_variates(seeds, clients, bounds, count, sizes, noises):
    """Each stream's index row is its ``derive_stream`` generator's ``integers(0, m, size=b)`` and its
    variates what that generator draws next, bit for bit: odd b drops a half, the pass hands Pareto and
    Gaussian streams on to the ziggurats, Student-t streams to numpy after their indices, and every stream
    with a word below its threshold, or an m that takes no 32-bit path (1, 2**33), whole to numpy.  The
    example's b = 300 takes 150 outputs, more than one block of them."""
    models, bounds = noises[:len(seeds) * clients], bounds[:clients]
    states = round_states(seeds, clients, 1, 7, 2)
    streams = [derive_stream(seed, n, 7 + r, 0) for r in range(2) for seed in seeds for n in range(clients)]
    assert_minibatch_streams_match(states, models, bounds, count, *sizes, streams)


@pytest.mark.parametrize("bound", BOUNDS)
def test_a_word_below_lemires_threshold_leaves_the_pass(bound):
    """Crafted streams whose first word lands just below and just at Lemire's threshold (2**32 - m) % m: numpy
    draws another word after the first, so that stream leaves the pass and numpy draws it whole; it keeps
    the second, which the pass reads as numpy does.  Both match numpy, whose generator starts at the state."""
    threshold = (2**32 - bound) % bound
    below, at = noise._lemire_words(bound)
    words = [below, at] if threshold else [at]  # a power of two has threshold 0: no word falls below it
    assert [(w * bound) % 2**32 < threshold for w in words] == [True, False][-len(words):]
    assert (at * bound) % 2**32 == threshold
    crafted = np.stack(noise._halves([noise._crafted_state((2**32 - 1) << 32 | w) for w in words])
                       + noise._halves([1] * len(words)), axis=1)
    models = [NOISES["gaussian"]]
    _, _, left = noise._indices(crafted, np.full(len(words), bound, dtype=np.uint64), 3)
    assert left.tolist() == [True, False][-len(words):]
    streams = []
    for state in state_dicts(crafted):
        stream = np.random.Generator(np.random.PCG64(0))
        stream.bit_generator.state = state
        streams.append(stream)
    assert_minibatch_streams_match(crafted, models, [bound], 3, 2, 2, streams)


@pytest.mark.parametrize("mistake", ["high half first", "threshold inclusive"])
def test_the_first_use_check_rejects_a_wrong_minibatch_reading(mistake, monkeypatch, fresh_check):
    """The check's crafted words at Lemire's thresholds catch an index pass that reads a word's halves in
    the wrong order, or that rejects a word at its threshold, which numpy keeps."""
    right = noise._indices

    def wrong(states, bounds, count):
        picks, after, left = right(states, bounds, count)
        if mistake == "high half first":
            pairs = picks[:, :count - count % 2].reshape(len(states), -1, 2)
            picks[:, :count - count % 2] = pairs[:, :, ::-1].reshape(len(states), -1)
        else:
            s_hi, s_lo, i_hi, i_lo = states.T
            r = _outputs(s_hi, s_lo, _deltas(s_hi, s_lo, i_hi, i_lo), 0, 1)[0]
            left |= ((r & 0xFFFFFFFF) * bounds.astype(np.uint64) & 0xFFFFFFFF) == (2**32 - bounds) % bounds
        return picks, after, left

    assert fresh_check()
    monkeypatch.setattr(noise, "_indices", wrong)
    fresh_check.cache_clear()
    assert not fresh_check()


@pytest.mark.parametrize("step, rejected", [(86, 3), (48, 4)], ids=["normal", "exponential"])
def test_the_pass_draws_a_stream_on_past_its_first_rejected_draw(step, rejected):
    """Stream (7, 0, 0, step) under Pareto noise on 4 + 4 entries: the first output that numpy's ziggurat
    rejects is that of variate ``rejected``, a normal (3) or the x radius, an exponential (4).  The pass
    resolves that draw with the outputs after it, as numpy does, and draws the rest of the row itself."""
    model, size = SAMPLED[1], 4
    states = round_states([7], 1, step + 1, 0, 1)[step:]  # the stream of client 0 at step ``step`` of round 0
    ref = derive_stream(7, 0, 0, step)
    ref.standard_normal(min(rejected, size))
    if rejected > size:
        ref.pareto(model.tail_exponent)
    before = ref.bit_generator.state["state"]
    one_step = (before["state"] * noise._PCG_MULT + before["inc"]) & noise._MASK128
    ref.pareto(model.tail_exponent) if rejected == size else ref.standard_normal()
    assert ref.bit_generator.state["state"]["state"] != one_step  # that draw takes more than one output
    drawn, start, resume = sampled(states, [model], size, size)
    want = stream_draws(model, size, size, derive_stream(7, 0, 0, step))
    assert start.tolist() == [2 * size + 2] and resume.tobytes() == states.tobytes()  # nothing left to numpy
    assert drawn.tobytes() == want.tobytes() == stream_variates(states, [model], size, size).tobytes()


PCG64_STATE = np.random.PCG64.state


class CountingPCG64(np.random.PCG64):
    """PCG64 counting the assignments to its state (named as numpy's, whose state setter checks the name)."""

    sets = 0

    @property
    def state(self):
        return PCG64_STATE.__get__(self)

    @state.setter
    def state(self, value):
        CountingPCG64.sets += 1
        PCG64_STATE.__set__(self, value)


CountingPCG64.__name__ = "PCG64"


def test_client_round_resets_numpy_only_for_problems_that_draw(monkeypatch):
    """On a problem given by ``grad``, ``stream_variates`` draws every Pareto and Gaussian stream whole in
    its pass, minibatch indices first on the AUC problem, and ``client_round`` never resets numpy's
    generator: not on a saddle stack at d=10 and at d=200, whose pass resets it for none of its streams,
    and not on the AUC problem, whose pass resets it for its Student-t streams only.  On a problem given
    by per-client callables, whose ``stoch_grad`` draws on the stream, a round resets it once per stream."""
    problem = fm.make_saddle_problem(8, 10, 10, hetero=0.5, seed=3)
    hp = fm.theorem1_schedule(8, 4, 6, problem.smooth)
    specs = [RunSpec("nsgda-m", hp, model, seed) for seed, model in enumerate(SAMPLED * 2)]
    assert noise._sampler_agrees()  # the first-use check resets its own generator, before any count
    sets, left, round_sets = [], [], []

    def counting_variates(states, models, size_x, size_y, minibatch=None):
        CountingPCG64.sets = 0
        out = stream_variates(states, models, size_x, size_y, minibatch)
        sets.append(CountingPCG64.sets)
        if minibatch is None:
            left.append(int(np.count_nonzero(sampled(states, models, size_x, size_y)[1] < size_x + size_y + 2)))
        return out

    def counting_round(server, G_prev_x, G_prev_y, problem, specs, rates, draws):
        CountingPCG64.sets = 0
        out = client_round(server, G_prev_x, G_prev_y, problem, specs, rates, draws)
        round_sets.append((len(specs), CountingPCG64.sets))
        return out

    monkeypatch.setattr(np.random, "PCG64", CountingPCG64)
    monkeypatch.setattr(noise, "stream_variates", counting_variates)
    monkeypatch.setattr(fedopt, "client_round", counting_round)
    traces = fedopt.run_stack(problem, specs)
    assert round_sets == [(len(specs), 0)] * 6
    wide = fm.make_saddle_problem(2, 200, 200, hetero=0.5, seed=3)
    fedopt.run_stack(wide, [RunSpec("nsgda-m", fm.theorem1_schedule(2, 2, 2, wide.smooth), model, seed)
                            for seed, model in enumerate(SAMPLED)])
    assert sets == left == [0] * 4  # 3 chunks of the d=10 stack, 1 of the d=200 one: no stream left to numpy
    auc = PROBLEMS["auc-minibatch"]
    round_sets.clear()
    hp = fm.theorem1_schedule(3, 2, 4, auc.smooth)
    fedopt.run_stack(auc, [RunSpec("nsgda-m", hp, model, seed)
                           for seed, model in enumerate([None, NOISES["student-t"], SAMPLED[1]])])
    assert round_sets == [(3, 0)] * 4
    assert sets[4:] == [2 * 3 * 4]  # one chunk: the Student-t run's p * N streams of each of its 4 rounds
    per_client = matrix_problem()
    round_sets.clear()
    hp = fm.theorem1_schedule(3, 2, 3, per_client.smooth)
    fedopt.run_stack(per_client, [RunSpec("nsgda-m", hp, model, seed) for seed, model in enumerate(SAMPLED[:2])])
    assert round_sets == [(2, 2 * 2 * 3)] * 3  # p * S * N
    monkeypatch.setattr(noise, "_sampler_agrees", lambda: False)  # every stream on numpy's generator
    for spec, trace in zip(specs, traces):
        solo = fm.run(spec.algorithm, problem, spec.hp, spec.noise, spec.seed)
        assert [r.x.tobytes() + r.y.tobytes() for r in trace.records] == [
            r.x.tobytes() + r.y.tobytes() for r in solo.records]


def test_client_round_scales_noise_once_per_chunk_unless_the_problem_draws(monkeypatch):
    """On a problem given by ``grad`` every step's variates are drawn before the chunk of rounds, and
    ``chunk_draws`` scales the noisy rows of all its rounds' p steps in one ``scale_rows`` call, with silent
    runs in the stack or without, over chunks of several rounds and of one; on a problem given by per-client
    callables the variates are drawn inside each step, which scales its own."""
    calls = []
    scale_rows = noise.scale_rows

    def counting(rows, size_x, scale):
        calls.append(len(rows))
        return scale_rows(rows, size_x, scale)

    monkeypatch.setattr(noise, "scale_rows", counting)
    N, p, T = 3, 4, 3
    for problem, models, chunk in (
            (PROBLEMS["vector"], SAMPLED[:2], STREAM_CHUNK), (PROBLEMS["vector"], [SAMPLED[0], None, SAMPLED[1]], 80),
            (PROBLEMS["auc-minibatch"], [None, SAMPLED[1]], STREAM_CHUNK), (matrix_problem(), [SAMPLED[0], None], 8)):
        calls.clear()
        monkeypatch.setattr(noise, "STREAM_CHUNK", chunk)
        hp = fm.theorem1_schedule(N, p, T, problem.smooth)
        fedopt.run_stack(problem, [RunSpec("nsgda-m", hp, model, seed) for seed, model in enumerate(models)])
        rows = N * sum(model is not None for model in models)
        rounds = chunk_rounds(p * N * len(models), problem.shape_x.size, problem.shape_y.size, problem.minibatch)
        per_chunk = [p * rows * min(rounds, T - t) for t in range(0, T, rounds)]
        assert calls == ([rows] * (p * T) if problem.draws_per_client else per_chunk)
        assert problem.draws_per_client or (len(per_chunk) == 1) == (chunk == STREAM_CHUNK)


def test_run_stack_frees_a_chunks_draws_before_the_next_pass(monkeypatch):
    """On a problem given by ``grad`` a stack holds one chunk of rounds' draws at a time: every increment
    an earlier chunk scaled is freed by the time the next chunk's ``scale_rows`` call starts."""
    problem = fm.make_saddle_problem(4, 10, 10, hetero=0.5, seed=1)
    hp = fm.theorem1_schedule(4, 2, 9, problem.smooth)
    outputs, alive = [], []
    scale_rows = noise.scale_rows

    def tracking(rows, size_x, scale):
        alive.append(sum(ref() is not None for ref in outputs))
        out = scale_rows(rows, size_x, scale)
        outputs.extend(weakref.ref(inc) for inc in out)
        return out

    monkeypatch.setattr(noise, "scale_rows", tracking)
    monkeypatch.setattr(noise, "STREAM_CHUNK", 16)  # 2 rounds of 2 steps x 4 clients: 5 chunks over T = 9
    assert chunk_rounds(2 * 4, problem.shape_x.size, problem.shape_y.size) == 2
    fedopt.run_stack(problem, [RunSpec("nsgda-m", hp, SAMPLED[0], 1)])
    assert alive == [0] * 5


@pytest.fixture
def fresh_check():
    """The first-use sampler check, run again after the test on the tables then in place."""
    check = noise._sampler_agrees
    yield check
    check.cache_clear()


@pytest.mark.parametrize("table, layer, value", [("ki", 1, 2**52), ("ke", 96, 0)])
def test_a_corrupt_ziggurat_table_falls_back_to_numpy(table, layer, value, monkeypatch, fresh_check):
    """ki[1] = 2**52 accepts every first output of normal layer 1, which numpy always rejects; ke[96] = 0
    rejects every one of exponential layer 96, a layer the check's streams draw and numpy mostly accepts."""
    problem = fm.make_saddle_problem(4, 10, 10, hetero=0.5, seed=1)
    hp = fm.theorem1_schedule(4, 4, 8, problem.smooth)
    specs = [RunSpec(algorithm, hp, model, seed) for seed, model in enumerate(SAMPLED)
             for algorithm in ("nsgda-m", "muon-da")]
    want = fedopt.run_stack(problem, specs)
    good = noise.ziggurat_tables()
    bad = {name: entries.copy() for name, entries in good.items()}
    bad[table][layer] = value
    monkeypatch.setattr(noise, "ziggurat_tables", lambda: bad)
    fresh_check.cache_clear()
    assert not fresh_check()
    streams = round_states([1, 2], 4, 4, 0, 2)
    fallback = stream_variates(streams, SAMPLED * 2, 10, 10)  # every row drawn on numpy's generator
    got = fedopt.run_stack(problem, specs)
    for a, b in zip(got, want):
        assert [r.x.tobytes() + r.y.tobytes() for r in a.records] == [r.x.tobytes() + r.y.tobytes()
                                                                       for r in b.records]
        assert a.final_state.u.tobytes() == b.final_state.u.tobytes()
    monkeypatch.setattr(noise, "_sampler_agrees", lambda: True)
    monkeypatch.setattr(noise, "ziggurat_tables", lambda: good)
    assert fallback.tobytes() == stream_variates(streams, SAMPLED * 2, 10, 10).tobytes()
    if table == "ki":  # without the check, the corrupt table would change the variates
        monkeypatch.setattr(noise, "ziggurat_tables", lambda: bad)
        assert stream_variates(streams, SAMPLED * 2, 10, 10).tobytes() != fallback.tobytes()


def next_float(v):
    return np.nextafter(v, np.inf)


def relative(factor):
    return lambda v: v * factor


@pytest.mark.parametrize("table, layer, change", [
    ("ke", 1, lambda v: 2**53), ("ke", 0, lambda v: v + 1), ("ke", 255, lambda v: v + 1),
    ("ki", 0, lambda v: v - 1), ("ki", 37, lambda v: v + 1), ("ke", 96, lambda v: v - 1), ("ke", 200, lambda v: v + 1),
    ("wi", 5, next_float), ("wi", 255, next_float), ("we", 0, next_float), ("we", 9, next_float),
    ("we", 128, next_float), ("fi", 0, relative(1 + 1e-9)), ("fi", 200, relative(1 - 1e-9)),
    ("fe", 1, relative(1 + 1e-9)), ("fe", 254, relative(1 - 1e-9)), ("nor_r", None, next_float),
    ("exp_r", None, next_float),
], ids=["ke1=2**53", "ke0+1", "ke255+1", "ki0-1", "ki37+1", "ke96-1", "ke200+1", "wi5+ulp", "wi255+ulp", "we0+ulp",
        "we9+ulp", "we128+ulp", "fi0*(1+1e-9)", "fi200*(1-1e-9)", "fe1*(1+1e-9)", "fe254*(1-1e-9)", "nor_r+ulp",
        "exp_r+ulp"])
def test_the_first_use_check_rejects_a_table_that_changes_variates(table, layer, change, monkeypatch, fresh_check):
    """One entry off: an accepted output numpy rejects (ke[1] = 2**53 accepts every first output of
    exponential layer 1, ke[0] + 1 accepts numpy's first rejected value of layer 0), a rejected one numpy
    accepts, a variate 1 ulp off (we[9] and we[128] too: a crafted exponential's tail keeps its radius
    from absorbing the change), a wedge density off by a relative 1e-9, or a tail's start 1 ulp off.  The
    crafted streams try every layer's limits and wedge thresholds, so no layer slips through."""
    assert fresh_check()
    bad = {name: entries.copy() for name, entries in noise.ziggurat_tables().items()}
    if layer is None:
        bad[table] = change(bad[table])
    else:
        bad[table][layer] = change(bad[table][layer])
    monkeypatch.setattr(noise, "ziggurat_tables", lambda: bad)
    fresh_check.cache_clear()
    assert not fresh_check()


def test_shipped_ziggurat_tables_match_the_installed_numpy(monkeypatch, capsys):
    spec = importlib.util.spec_from_file_location("ziggurat_tables", ROOT / "tools" / "ziggurat_tables.py")
    tool = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tool)
    assert tool.main() == 0
    out = capsys.readouterr().out
    assert "1024 of 1024 ziggurat entries match" in out and "1020 of 1020 wedge probes agree" in out
    assert "nor_r and exp_r re-derived; 1 of the 17 doubles within 8 ulps of nor_inv_r fit" in out
    good = noise.ziggurat_tables()
    for name, layer, change in (("ke", 7, lambda v: v + 1), ("fi", 200, relative(1 + 1e-9)), ("fe", 5, relative(1 - 1e-11)),
                                ("nor_r", None, next_float), ("exp_r", None, next_float), ("nor_inv_r", None, next_float)):
        bad = {name: entries.copy() for name, entries in good.items()}
        if layer is None:
            bad[name] = change(bad[name])
        else:
            bad[name][layer] = change(bad[name][layer])
        monkeypatch.setattr(noise, "ziggurat_tables", lambda: bad)
        assert tool.main() == 1
        assert f"\n{name}{'' if layer is None else f'[{layer}]'}:" in "\n" + capsys.readouterr().out
