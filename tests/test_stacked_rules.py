"""Property tests: a client stack gives, bit for bit, the results of its slices.

Every step rule takes an (N,) + block stack, (N, d) for a vector block and
(N, m, n) for a matrix; the polar kernels take (N, m, n) stacks.  Running
one on the whole stack must equal running it on each one-client slice
alone, for vector, column, tall, square and wide blocks, including
clients whose momentum is exactly zero.  A step rule on an (N, d) stack
must also equal, bit for bit, the same rule on its (N, d, 1) columns.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from fedminimax.fedopt import (
    clip_step,
    local_momentum,
    muon_step,
    normalized_step,
)
from fedminimax.linalg import newton_schulz_polar, svd_polar

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
def client_stack(draw, zero_rows=True, dims=block_dims()):
    """(N,) + block stack with entries spanning several magnitudes; some rows may be all zero."""
    n_clients = draw(st.integers(1, 5))
    dims = draw(dims)
    S = draw(arrays(float, (n_clients,) + dims, elements=ENTRY))
    S *= 10.0 ** draw(arrays(float, (n_clients,) + (1,) * len(dims), elements=st.floats(-3.0, 3.0)))
    if zero_rows:
        S[draw(arrays(bool, n_clients))] = 0.0
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


@pytest.mark.parametrize("polar", [lambda M: newton_schulz_polar(M, 10), svd_polar],
                         ids=["newton-schulz", "svd"])
@settings(max_examples=60, deadline=None)
@given(M=client_stack(zero_rows=False, dims=block_dims().filter(lambda dims: len(dims) == 2)))
def test_polar_stack_equals_slices(polar, M):
    M[zero_clients(M)] = 1.0  # the kernels reject an all-zero matrix
    assert same(polar(M), per_slice(polar, M))
