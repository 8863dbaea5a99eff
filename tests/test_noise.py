import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from fedminimax import NoiseModel, Shape
from fedminimax.noise import (_states, derive_stream, empirical_moment, radius_sampler, radius_scale, sample,
                             scale_draw, scale_draws, seed_errors, seed_pools, state_dicts)


def draws(model, shape, n, seed=0, start_step=0, chunk=10_000):
    """(n,) + dims increments, the k-th drawn on stream (seed, 0, 0, start_step + k).

    The states come from the bulk derivation (``_states`` on the seed's
    ``seed_pools``) into one reused generator, and
    each chunk's raw variates are scaled at once; the values equal
    ``sample`` on ``derive_stream`` (``test_draws_match_derive_stream``).
    """
    rng = np.random.Generator(np.random.PCG64(0))
    radius = radius_sampler(model, rng)
    out = np.empty((n, shape.size))
    radii = np.empty(n)
    for lo in range(0, n, chunk):
        steps = np.arange(start_step + lo, start_step + min(lo + chunk, n))
        words = np.stack([np.zeros_like(steps), np.zeros_like(steps), steps]).astype(np.uint32)
        for k, state in enumerate(state_dicts(_states(seed_pools([seed]), words)), start=lo):
            rng.bit_generator.state = state
            rng.standard_normal(out=out[k])
            radii[k] = radius()
    return scale_draws(out, radii, radius_scale(model)).reshape((n,) + shape.dims)


def test_draws_match_derive_stream():
    for model, shape in ((NoiseModel(s=1.5, sigma=1.0, family="symmetrized-pareto", tail_exponent=1.55),
                          Shape.vector(5)),
                         (NoiseModel(s=1.5, sigma=0.7, family="student-t", tail_exponent=1.8),
                          Shape.matrix(2, 3))):
        got = draws(model, shape, 40, seed=7, start_step=3, chunk=16)
        ref = [sample(model, shape, derive_stream(7, 0, 0, 3 + k)) for k in range(40)]
        assert np.array_equal(got, np.stack(ref))


ENTRY = st.floats(-1e100, 1e100) | st.sampled_from([0.0, -0.0, 1e-170, -3e-200, 5e-324])


@settings(max_examples=300, deadline=None)
@given(direction=st.lists(ENTRY, min_size=1, max_size=12), radius=st.floats(0.0, 1e6), scale=st.floats(1e-3, 1e3))
@example(direction=[0.0, -0.0, 0.0], radius=2.5, scale=0.7)  # a zero row: the guard's first unit vector
@example(direction=[1e-170, -3e-200], radius=1.25, scale=3.0)  # squares that underflow: a zero norm all the same
def test_one_row_scaling_matches_scale_draws(direction, radius, scale):
    """``sample``'s one-row path (``scale_draw``) keeps the bits of the stacked ``scale_draws``, guard included."""
    row = np.array(direction)
    got = scale_draw(row.copy(), radius, scale)
    assert got.tobytes() == scale_draws(row, np.float64(radius), scale).tobytes()
    assert got.tobytes() == scale_draws(row[None], np.array([radius]), scale)[0].tobytes()


def test_zero_sigma_gives_zero_vector():
    model = NoiseModel(family="none")
    delta = sample(model, Shape.vector(4), derive_stream(0, 0, 0, 0))
    assert np.array_equal(delta, np.zeros(4))


def test_sample_shape_matches_request():
    model = NoiseModel(s=1.5, sigma=1.0, family="symmetrized-pareto")
    assert sample(model, Shape.vector(7), derive_stream(0, 1, 2, 3)).shape == (7,)
    assert sample(model, Shape.matrix(3, 4), derive_stream(0, 1, 2, 3)).shape == (3, 4)


def test_determinism_per_key_and_independence_of_order():
    model = NoiseModel(s=1.5, sigma=1.0, family="symmetrized-pareto")
    shape = Shape.vector(5)
    keys = [(3, 0, 1), (0, 7, 2), (5, 5, 5)]
    first = [sample(model, shape, derive_stream(11, *k)) for k in keys]
    second = [sample(model, shape, derive_stream(11, *k)) for k in reversed(keys)]
    for a, b in zip(first, reversed(second)):
        assert np.array_equal(a, b)
    # different key, different draw
    other = sample(model, shape, derive_stream(11, 3, 0, 2))
    assert not np.array_equal(first[0], other)


def test_pareto_mean_near_zero():
    model = NoiseModel(s=1.5, sigma=1.0, family="symmetrized-pareto", tail_exponent=1.75)
    deltas = draws(model, Shape.vector(5), 100_000, seed=7)
    mean = np.mean(deltas, axis=0)
    assert np.linalg.norm(mean) <= 0.05


def test_pareto_s_moment_matches_sigma():
    model = NoiseModel(s=1.5, sigma=1.0, family="symmetrized-pareto", tail_exponent=1.75)
    deltas = draws(model, Shape.vector(5), 100_000, seed=3)
    moment = empirical_moment(deltas, 1.5)
    assert 0.8 <= moment <= 1.2  # sigma^s = 1


def test_gaussian_second_moment():
    model = NoiseModel(s=2.0, sigma=1.3, family="gaussian")
    deltas = draws(model, Shape.vector(4), 100_000, seed=5)
    moment = empirical_moment(deltas, 2.0)
    assert abs(moment - 1.3**2) <= 0.05 * 1.3**2


def test_student_t_s_moment_matches_sigma():
    model = NoiseModel(s=1.5, sigma=0.7, family="student-t", tail_exponent=1.8)
    deltas = draws(model, Shape.vector(3), 100_000, seed=9)
    moment = empirical_moment(deltas, 1.5)
    target = 0.7**1.5
    assert 0.8 * target <= moment <= 1.2 * target


def test_heavier_exponent_moment_diverges_with_sample_size():
    # with tail exponent t < 2 the 1.9-moment is infinite: its empirical
    # average must keep growing as draws accumulate
    model = NoiseModel(s=1.5, sigma=1.0, family="symmetrized-pareto", tail_exponent=1.55)
    grew = 0
    for seed in range(1, 6):
        all_draws = draws(model, Shape.vector(5), 100_000, seed=seed)
        small = empirical_moment(all_draws[:1000], 1.9)
        large = empirical_moment(all_draws, 1.9)
        grew += large >= 2.0 * small
    assert grew >= 4


def test_empirical_moment_trivial_values():
    assert empirical_moment([np.zeros(3), np.zeros(3)], 1.5) == 0.0
    assert empirical_moment([np.array([3.0, 4.0])], 2.0) == pytest.approx(25.0)
    assert empirical_moment([np.array([3.0, 4.0])], 1.5) == pytest.approx(5.0**1.5)
    assert empirical_moment([np.array([3.0, 4.0])], 1.5) == pytest.approx(11.180339887498949)


def test_empirical_moment_validation():
    with pytest.raises(ValueError):
        empirical_moment([], 1.5)
    with pytest.raises(ValueError):
        empirical_moment([np.ones(2)], 2.5)
    with pytest.raises(ValueError):
        empirical_moment([np.ones(2)], 0.0)


# first four integers(0, 2**63) of three streams, recorded before the bulk
# derivation existed: a change to the stream values fails here, not silently
GOLDEN_STREAMS = {
    (0, 0, 0, 0): [5559497400832831700, 5319243380202163349,
                   4284948988431154913, 9053553078124443997],
    (1, 7, 3, 2): [7354674379010511847, 4808886400161139935,
                   7594756992112294527, 1609052557669763687],
    (2**64 - 1, 2**32 - 1, 5, 2**32 - 1): [8057538238234968545, 4435766393609865387,
                                           6834760521326595751, 6497040509415681221],
}


@pytest.mark.parametrize("key", sorted(GOLDEN_STREAMS))
def test_derive_stream_golden_values(key):
    assert derive_stream(*key).integers(0, 2**63, size=4).tolist() == GOLDEN_STREAMS[key]
    rng = np.random.default_rng(0)
    rng.bit_generator.state, = state_dicts(_states(seed_pools([key[0]]), np.array([key[1:]], dtype=np.uint32).T))
    assert rng.integers(0, 2**63, size=4).tolist() == GOLDEN_STREAMS[key]


def test_seed_and_key_domain():
    assert seed_errors(0) == [] and seed_errors(np.uint64(2**64 - 1)) == []
    for bad in (-1, 2**64, 1.0, True, "3"):
        assert seed_errors(bad) == [f"seed: must be an integer in [0, 2**64), got {bad!r}"]
        with pytest.raises(ValueError, match="seed"):
            seed_pools([bad])
