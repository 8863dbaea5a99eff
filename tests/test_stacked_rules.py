"""Property tests: a client stack gives, bit for bit, the results of its slices.

Every step rule takes an (N,) + block stack, (N, d) for a vector block and
(N, m, n) for a matrix; the polar kernels take (N, m, n) stacks.  Running
one on the whole stack must equal running it on each one-client slice
alone, for vector, column, tall, square and wide blocks, including
clients whose momentum is exactly zero or holds an inf or nan entry.  A step rule on an (N, d) stack
must also equal, bit for bit, the same rule on its (N, d, 1) columns, and
the engine's muon-da step on both blocks at once must equal one
``muon_step`` per block.  What the engine forms once per round must equal
its per-step form byte for byte: the momentum given a (1 - beta) u term
formed once, the normalized step's path for rounds where no client stays
put, and one ``scale_rows`` call over the noisy rows of the p stacked steps
of each round of a chunk.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from fedminimax.fedopt import (
    ZERO_MOMENTUM_TOL,
    _momentum,
    _momentum_norms,
    _muon_steps,
    _normalized,
    _signed,
    clip_step,
    local_momentum,
    muon_step,
    normalized_step,
)
from fedminimax.linalg import newton_schulz_polar, svd_polar
from fedminimax.noise import scale_rows

# a non-finite momentum row makes inf * 0 in the normalized and clipped steps
pytestmark = pytest.mark.filterwarnings("ignore:invalid value encountered:RuntimeWarning")

# nonzero entries stay far above the zero-momentum tolerance and below overflow
ENTRY = st.just(0.0) | st.floats(1e-3, 100.0) | st.floats(-100.0, -1e-3)


@st.composite
def block_dims(draw):
    kind = draw(st.sampled_from(["vector", "column", "tall", "square", "wide"]))
    a = draw(st.integers(1, 6))
    b = draw(st.integers(a, 7))
    return {"vector": (b,), "column": (b, 1), "tall": (b, a), "square": (a, a),
            "wide": (a, b)}[kind]


VECTOR_DIMS = st.integers(1, 9).map(lambda d: (d,))


# one column or one row: the polar factor is M / ||M||_F
RANK_ONE_DIMS = st.integers(1, 9).flatmap(lambda d: st.sampled_from([(d, 1), (1, d)]))


@st.composite
def client_stack(draw, zero_rows=True, dims=block_dims(), non_finite_rows=True, clients=st.integers(1, 5)):
    """(N,) + block stack with entries spanning several magnitudes; some rows may be all zero, one non-finite."""
    n_clients = draw(clients)
    dims = draw(dims)
    S = draw(arrays(float, (n_clients,) + dims, elements=ENTRY))
    S *= 10.0 ** draw(arrays(float, (n_clients,) + (1,) * len(dims), elements=st.floats(-3.0, 3.0)))
    if zero_rows:
        S[draw(arrays(bool, n_clients))] = 0.0
    row = draw(st.none() | st.integers(0, n_clients - 1)) if non_finite_rows else None
    if row is not None:  # one entry of that row: inf, -inf or nan
        S[row].flat[draw(st.integers(0, S[row].size - 1))] = draw(st.sampled_from([np.inf, -np.inf, np.nan]))
    return S


def per_slice(fn, *stacks):
    """fn run on each client's one-client slice alone, restacked."""
    return np.concatenate([fn(*(S[n:n + 1] for S in stacks)) for n in range(len(stacks[0]))])


def same(a, b):
    return np.array_equal(a, b, equal_nan=True)


def zero_clients(S):
    """Mask of the clients whose block is all zero."""
    return ~np.any(S, axis=tuple(range(1, S.ndim)))


@st.composite
def step_inputs(draw, dims=block_dims()):
    M = draw(client_stack(dims=dims))
    Z = draw(arrays(float, M.shape, elements=ENTRY))
    return Z, M


STEP_RULES = {
    "normalized": lambda Z, M: normalized_step(Z, M, 0.1, "descend"),
    "muon-iterative": lambda Z, M: muon_step(Z, M, 0.1, "ascend", ns_mode="iterative"),
    "muon-exact-svd": lambda Z, M: muon_step(Z, M, 0.1, "descend", ns_mode="exact-svd"),
    "clip": lambda Z, M: clip_step(Z, M, 0.1, 2.0, "ascend"),
}


@pytest.mark.parametrize("rule", sorted(STEP_RULES))
@settings(max_examples=60, deadline=None)
@given(inputs=step_inputs())
def test_step_rule_stack_equals_slices(rule, inputs):
    Z, M = inputs
    step = STEP_RULES[rule]
    out = step(Z, M)
    assert same(out, per_slice(step, Z, M))
    zero = zero_clients(M)
    if rule != "clip":  # zero momentum leaves that client where it was
        assert same(out[zero], Z[zero])


@pytest.mark.parametrize("ns_mode", ["iterative", "exact-svd"])
@settings(max_examples=60, deadline=None)
@given(M=client_stack(dims=RANK_ONE_DIMS), data=st.data())
def test_muon_step_on_rank_one_blocks_is_normalized_step(ns_mode, M, data):
    Z = data.draw(arrays(float, M.shape, elements=ENTRY))
    for direction in ("descend", "ascend"):
        out = muon_step(Z, M, 0.1, direction, ns_mode=ns_mode)
        assert out.tobytes() == normalized_step(Z, M, 0.1, direction).tobytes()
    zero = zero_clients(M)
    assert same(out[zero], Z[zero])  # a zero-momentum client stays in place


# tall, square and wide blocks with at least two rows and two columns: they take a genuine polar factor
MATRIX_DIMS = st.integers(2, 6).flatmap(
    lambda a: st.integers(a, 7).flatmap(lambda b: st.sampled_from([(b, a), (a, a), (a, b)])))


@pytest.mark.parametrize("ns_mode", ["iterative", "exact-svd"])
@settings(max_examples=80, deadline=None)
@given(data=st.data())
def test_paired_muon_step_equals_one_block_steps(ns_mode, data):
    """The engine's muon-da step on the x and y blocks at once equals one ``muon_step`` per block."""
    clients = st.just(data.draw(st.integers(1, 5)))
    blocks = []
    for eta, direction in ((0.1, "descend"), (0.3, "ascend")):
        M = data.draw(client_stack(dims=MATRIX_DIMS | block_dims(), clients=clients))
        Z = data.draw(arrays(float, M.shape, elements=ENTRY))
        blocks.append((Z, M, eta, direction))
    paired = _muon_steps([(Z, M, _signed(eta, direction)) for Z, M, eta, direction in blocks], ns_mode)
    for out, block in zip(paired, blocks):
        assert out.tobytes() == muon_step(*block, ns_mode=ns_mode).tobytes()


@pytest.mark.parametrize("rule", sorted(STEP_RULES))
@settings(max_examples=60, deadline=None)
@given(inputs=step_inputs(dims=VECTOR_DIMS))
def test_step_rule_on_vectors_equals_column_blocks(rule, inputs):
    Z, M = inputs
    step = STEP_RULES[rule]
    out = step(Z, M)
    assert out.shape == Z.shape
    assert out.tobytes() == step(Z[..., None], M[..., None]).tobytes()


@settings(max_examples=60, deadline=None)
@given(G=client_stack(dims=VECTOR_DIMS), data=st.data())
def test_local_momentum_on_vectors_equals_column_blocks(G, data):
    G_prev = data.draw(arrays(float, G.shape, elements=ENTRY))
    g_global, u_global = (data.draw(arrays(float, G.shape[1:], elements=ENTRY)) for _ in range(2))
    out = local_momentum(G, g_global, G_prev, u_global, 0.3)
    column = local_momentum(G[..., None], g_global[:, None], G_prev[..., None], u_global[:, None], 0.3)
    assert out.shape == G.shape and out.tobytes() == column.tobytes()


@settings(max_examples=60, deadline=None)
@given(G=client_stack(), data=st.data())
def test_local_momentum_stack_equals_slices(G, data):
    G_prev = data.draw(arrays(float, G.shape, elements=ENTRY))
    g_global, u_global = (data.draw(arrays(float, G.shape[1:], elements=ENTRY)) for _ in range(2))

    def momentum(G, G_prev):
        return local_momentum(G, g_global, G_prev, u_global, 0.3)

    assert same(momentum(G, G_prev), per_slice(momentum, G, G_prev))


@settings(max_examples=60, deadline=None)
@given(G=client_stack(), stacked=st.booleans(), beta=st.sampled_from([0.3, 1.0]) | st.floats(1e-3, 1.0),
       data=st.data())
def test_momentum_with_its_global_term_formed_once_is_local_momentum(G, stacked, beta, data):
    """The engine forms (1 - beta) u once per round and reuses it at every local step; u is a block or a stack."""
    dims = G.shape if stacked else G.shape[1:]
    g_global, u_global = (data.draw(arrays(float, dims, elements=ENTRY)) for _ in range(2))
    kept = (1.0 - beta) * u_global
    for _ in range(2):  # two local steps, one kept term
        G_prev = data.draw(arrays(float, G.shape, elements=ENTRY))
        assert (_momentum(G, g_global, G_prev, kept, beta).tobytes()
                == local_momentum(G, g_global, G_prev, u_global, beta).tobytes())
        G = G[::-1].copy()


@settings(max_examples=80, deadline=None)
@given(inputs=step_inputs(), step=st.sampled_from([-0.1, 0.3]), data=st.data())
def test_normalized_step_path_without_resting_clients_picks_the_where_form(inputs, step, data):
    """With no client at or below the tolerance ``_normalized`` skips both np.where calls; its values are
    theirs, with clients whose momentum is zero, at, below or just above the tolerance, nan or inf."""
    Z, M = inputs
    row = data.draw(st.none() | st.integers(0, len(M) - 1))
    if row is not None:  # one client's momentum a single entry at the tolerance's scale
        M[row] = 0.0
        M[row].flat[0] = data.draw(st.sampled_from([ZERO_MOMENTUM_TOL, 0.5 * ZERO_MOMENTUM_TOL,
                                                    2.0 * ZERO_MOMENTUM_TOL, -ZERO_MOMENTUM_TOL]))
    nrm, low = _momentum_norms(M)
    where_form = np.where(low, Z, Z + step / np.where(low, 1.0, nrm) * M)
    assert _normalized(Z, M, step).tobytes() == where_form.tobytes()


@settings(max_examples=80, deadline=None)
@given(rounds=st.integers(1, 3), p=st.integers(1, 4), runs=st.lists(st.booleans(), min_size=1, max_size=3),
       N=st.integers(1, 3), size_x=st.integers(1, 5), size_y=st.integers(1, 5), data=st.data())
def test_scale_rows_over_stacked_steps_equals_one_call_per_step(rounds, p, runs, N, size_x, size_y, data):
    """The noise of a chunk of rounds is scaled in one call over the noisy rows of all its rounds' p steps,
    the radius scale repeated rounds * p times; each step's R rows equal that step's own call, all-zero
    normals (the measure-zero guard) included, and with silent runs (R < S*N) as without."""
    SN, C, steps = len(runs) * N, size_x + size_y + 2, rounds * p
    streams = data.draw(arrays(float, (steps * SN, C), elements=st.floats(-4.0, 4.0)))
    zero_x, zero_y = (data.draw(arrays(bool, steps * SN)) for _ in range(2))
    streams[zero_x, :size_x] = 0.0
    streams[zero_y, size_x + 1:-1] = 0.0
    rows = np.flatnonzero(np.repeat(runs, N))
    R = rows.size
    noisy = rows if R < SN else slice(None)
    scale = np.repeat(data.draw(arrays(float, len(runs), elements=st.floats(0.1, 10.0)))[np.array(runs)], N)
    drawn = streams if R == SN else streams[(np.arange(steps)[:, None] * SN + rows).ravel()]
    once = scale_rows(drawn, size_x, np.tile(scale, steps))
    for i in range(steps):
        per_step = scale_rows(streams[i * SN:i * SN + SN][noisy], size_x, scale)
        for whole, part in zip(once, per_step):
            assert whole[i * R:i * R + R].tobytes() == part.tobytes()


@pytest.mark.parametrize("polar", [lambda M: newton_schulz_polar(M, 10), svd_polar],
                         ids=["newton-schulz", "svd"])
@settings(max_examples=60, deadline=None)
@given(M=client_stack(zero_rows=False, dims=block_dims().filter(lambda dims: len(dims) == 2),
                     non_finite_rows=False))
def test_polar_stack_equals_slices(polar, M):
    M[zero_clients(M)] = 1.0  # the kernels reject an all-zero matrix
    assert same(polar(M), per_slice(polar, M))
