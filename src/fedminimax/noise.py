"""Heavy-tailed gradient noise with exact control of the s-th moment.

A sample is radius * direction with the direction uniform on the unit
sphere of the flattened parameter block and the radius drawn from the
model's family, rescaled analytically so that E[radius^s] = sigma^s holds
with equality.  Mean zero follows from the spherical symmetry of the
direction.  For the Pareto family with tail exponent t < 2 the variance
of the sample norm is infinite while every moment of order <= s stays
finite: exactly a bounded-s-th-moment noise source and nothing stronger.

Every draw comes from a stream keyed by (master seed, client, round,
step).  :func:`derive_stream` builds one such stream; :func:`stream_states`
gives the PCG64 states of many keys in one vectorized pass, so a caller
can reset a single reused Generator to each key instead of building one
per key.  :func:`round_states` does the same for every stream of a stack
of runs, one master seed each, over as many rounds as ``STREAM_CHUNK``
streams hold.  Both return a list of PCG64 state dicts.  Sampling is
split the same way: a client's variates are its normals, then the radius
variate that :func:`radius_sampler` draws, and :func:`scale_draws` turns
the stacked variates of many clients, each row with its own
:func:`radius_scale`, into noise increments at once; :func:`sample` is
the one-client case.
"""

from __future__ import annotations

import math
import numbers

import numpy as np

from .core import NoiseModel, Shape

SEED_LIMIT = 2**64  # master seeds lie in [0, SEED_LIMIT)
KEY_LIMIT = 2**32  # client, round and step lie in [0, KEY_LIMIT)
STREAM_CHUNK = 512  # streams one round_states pass derives, rounded to whole rounds (at least one)


def seed_errors(seed) -> list:
    """The stream rule a master seed breaks, as one "seed: ..." message, or no message."""
    if isinstance(seed, bool) or not isinstance(seed, numbers.Integral) or not 0 <= seed < SEED_LIMIT:
        return [f"seed: must be an integer in [0, 2**64), got {seed!r}"]
    return []


def derive_stream(master_seed: int, client: int, round_idx: int, step: int) -> np.random.Generator:
    """Independent random stream keyed by (master seed, client, round, step).

    The stream is ``default_rng(SeedSequence(master_seed, spawn_key=(client,
    round_idx, step)))``.  Streams for distinct keys are statistically
    independent and do not depend on the order in which they are created;
    :func:`stream_states` derives the same streams in bulk.
    """
    key = np.random.SeedSequence(entropy=int(master_seed), spawn_key=(int(client), int(round_idx), int(step)))
    return np.random.default_rng(key)


# numpy's SeedSequence hash: the multipliers its hashmix steps through,
# starting from INIT_A (entropy mixing) or INIT_B (state generation)
_INIT_A, _MULT_A, _INIT_B, _MULT_B = 0x43B0D7E5, 0x931E8875, 0x8B51F9DD, 0x58F38DED
_MIX_MULT_L, _MIX_MULT_R = np.uint32(0xCA01F9DD), np.uint32(0x4973F715)
_PCG_MULT = (2549297995355413924 << 64) + 4865540595714422341
_MASK128 = (1 << 128) - 1


def _hash_chain(init: int, mult: int, count: int) -> np.ndarray:
    chain = [init]
    for _ in range(count):
        chain.append(chain[-1] * mult & 0xFFFFFFFF)
    return np.array(chain, dtype=np.uint32)


# hashmix call k xors with multiplier k and multiplies by multiplier k + 1; the
# 4-word pool takes calls 0-15, spawn word j mixes into pool word d at call 16 + 4j + d
_ENTROPY_HASH = _hash_chain(_INIT_A, _MULT_A, 28)
_SPAWN_XOR, _SPAWN_MUL = _ENTROPY_HASH[16:28].reshape(3, 4, 1), _ENTROPY_HASH[17:29].reshape(3, 4, 1)
_STATE_HASH = _hash_chain(_INIT_B, _MULT_B, 8)[:, None]  # generate_state(4, uint64): 8 words


def _shift_xor(v: np.ndarray) -> np.ndarray:
    return v ^ (v >> np.uint32(16))


def _seed_pools(seeds) -> np.ndarray:
    """The 4-word entropy pool SeedSequence hashes each master seed into, one column per seed."""
    errors = [e for seed in seeds for e in seed_errors(seed)]
    if errors:
        raise ValueError("; ".join(errors))
    return np.array([np.random.SeedSequence(int(seed)).pool for seed in seeds], dtype=np.uint32).T


def _states(pool: np.ndarray, words: np.ndarray) -> list:
    """The PCG64 state dicts of the (client, round, step) columns of the (3, K) uint32 ``words``.

    Column k is hashed on top of column k of the (4, K) or (4, 1) ``pool``.
    """
    for j in range(3):  # the client, round and step words, in spawn-key order
        hashed = _shift_xor((words[j] ^ _SPAWN_XOR[j]) * _SPAWN_MUL[j])
        pool = _shift_xor(_MIX_MULT_L * pool - _MIX_MULT_R * hashed)
    out = _shift_xor((pool[[0, 1, 2, 3, 0, 1, 2, 3]] ^ _STATE_HASH[:-1]) * _STATE_HASH[1:]).astype(np.uint64)
    seed_hi, seed_lo, seq_hi, seq_lo = (out[0::2] | out[1::2] << np.uint64(32)).tolist()  # little-endian pairs
    states = []
    for sh, sl, qh, ql in zip(seed_hi, seed_lo, seq_hi, seq_lo):
        # pcg_setseq_128_srandom_r: state 0, one step, add the seed, one more step
        inc = ((qh << 64 | ql) << 1 | 1) & _MASK128
        state = ((inc + (sh << 64 | sl)) * _PCG_MULT + inc) & _MASK128
        states.append({"bit_generator": "PCG64", "state": {"state": state, "inc": inc},
                       "has_uint32": 0, "uinteger": 0})
    return states


def stream_states(master_seed: int, keys) -> list:
    """PCG64 states of :func:`derive_stream` for every (client, round, step) row of ``keys``.

    Row k's state, assigned to ``generator.bit_generator.state``, makes the
    generator draw exactly what ``derive_stream(master_seed, *keys[k])``
    draws.  The seed must lie in [0, 2**64) and every key entry in
    [0, 2**32): there SeedSequence hashes the seed into its 4-word pool
    before the spawn words, and each spawn word is one 32-bit word, so the
    spawn words of all keys mix in with fixed hash constants, as (4, K)
    arrays.
    """
    pool = _seed_pools([master_seed])
    K = np.asarray(keys)
    if K.ndim != 2 or K.shape[1] != 3 or not np.issubdtype(K.dtype, np.integer):
        raise ValueError(f"keys must be a (K, 3) integer array, got {K.dtype} {K.shape}")
    if K.size and (K.min() < 0 or K.max() >= KEY_LIMIT):
        raise ValueError("keys must lie in [0, 2**32)")
    return _states(pool, K.T.astype(np.uint32))


def round_states(seeds, clients: int, steps: int, first_round: int, rounds: int) -> list:
    """The states of a stack of runs, one master seed each, over ``rounds`` rounds from ``first_round``.

    Item ((r * steps + i) * len(seeds) + s) * clients + n is the stream of
    run s's client n at step i of round first_round + r; all come from
    one vectorized pass, as in :func:`stream_states`.
    """
    if not 0 <= first_round <= first_round + rounds <= KEY_LIMIT:
        raise ValueError("keys must lie in [0, 2**32)")
    r, i, s, n = np.indices((rounds, steps, len(seeds), clients), dtype=np.uint32).reshape(4, -1)
    return _states(_seed_pools(seeds)[:, s], np.stack([n, r + np.uint32(first_round), i]))


def _pareto_scale(model: NoiseModel) -> float:
    # E[X^s] = t / (t - s) for a classical Pareto(t) with x_min = 1
    t = model.tail_exponent
    return model.sigma * ((t - model.s) / t) ** (1.0 / model.s)


def _student_t_scale(model: NoiseModel) -> float:
    # E|T_nu|^s = nu^(s/2) * Gamma((s+1)/2) * Gamma((nu-s)/2) / (sqrt(pi) * Gamma(nu/2))
    nu, s = model.tail_exponent, model.s
    log_m = (
        0.5 * s * math.log(nu)
        + math.lgamma((s + 1.0) / 2.0)
        + math.lgamma((nu - s) / 2.0)
        - 0.5 * math.log(math.pi)
        - math.lgamma(nu / 2.0)
    )
    return model.sigma * math.exp(-log_m / s)


def is_silent(model) -> bool:
    """True when the model adds nothing: no model, family "none" or sigma 0."""
    return model is None or model.family == "none" or model.sigma == 0.0


def radius_scale(model: NoiseModel) -> float:
    """The factor that makes a ``radius_sampler`` variate a radius with E[radius^s] = sigma^s."""
    if model.family == "symmetrized-pareto":
        return _pareto_scale(model)
    if model.family == "student-t":
        return _student_t_scale(model)
    return model.sigma  # gaussian


def radius_sampler(model: NoiseModel, stream: np.random.Generator):
    """A callable drawing the model's radius variate from ``stream``: 1 + Pareto(t), |t(nu)| or |N(0, 1)|."""
    tail = model.tail_exponent
    if model.family == "symmetrized-pareto":
        return lambda: 1.0 + stream.pareto(tail)
    if model.family == "student-t":
        return lambda: abs(stream.standard_t(tail))
    if model.family == "gaussian":
        return lambda: abs(stream.standard_normal())
    raise ValueError(f"noise family {model.family!r} draws nothing")


def scale_draws(directions: np.ndarray, radii, scale) -> np.ndarray:
    """Noise increments from stacked normals (..., size) and radius variates (...), e.g. one row per client.

    Each row is normalized by its own norm (an all-zero row, of measure
    zero, becomes the first unit vector) and scaled to the radius
    ``scale * radii``, where ``scale`` is one ``radius_scale`` or one per
    row; every row equals, bit for bit, the increment of that row alone.
    """
    nrm = np.sqrt(np.vecdot(directions, directions))
    if np.count_nonzero(nrm) < nrm.size:  # measure-zero guard
        zero = nrm == 0.0
        directions = np.where(zero[..., None] & (np.arange(directions.shape[-1]) == 0), 1.0, directions)
        nrm = np.where(zero, 1.0, nrm)
    return (scale * radii)[..., None] * (directions / nrm[..., None])


def sample(model: NoiseModel, shape: Shape, stream: np.random.Generator) -> np.ndarray:
    """Draw one noise increment of the given shape from the model."""
    if is_silent(model):
        return np.zeros(shape.dims)
    direction = stream.standard_normal(shape.size)
    radius = np.float64(radius_sampler(model, stream)())
    return scale_draws(direction, radius, radius_scale(model)).reshape(shape.dims)


def empirical_moment(samples, s: float) -> float:
    """Average of norm(delta)^s over a list of noise samples."""
    if not (0.0 < s <= 2.0):
        raise ValueError(f"moment order s must lie in (0, 2], got {s}")
    if len(samples) == 0:
        raise ValueError("empirical_moment needs at least one sample")
    total = 0.0
    for delta in samples:
        total += float(np.linalg.norm(np.asarray(delta))) ** s
    return total / len(samples)
