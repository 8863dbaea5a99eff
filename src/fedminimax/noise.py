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
gives the PCG64 state dicts of many keys from one vectorized pass, and
:func:`round_states` the state words of every stream of a stack of runs,
one master seed each, over as many rounds as ``STREAM_CHUNK`` streams
hold; :func:`state_dicts` turns words into the dicts a reused Generator
can be reset to.  A client's variates are its normals, then the radius
variate that :func:`radius_sampler` draws, and :func:`scale_draws` turns
the stacked variates of many clients, each row with its own
:func:`radius_scale`, into noise increments at once (:func:`scale_rows`
those of x and y from rows of :func:`stream_variates`); :func:`sample` is
the one-client case.

:func:`stream_variates` returns the raw variates of many streams, one
complete row each.  Pareto and Gaussian streams are drawn in one pass:
each 128-bit PCG64 state is stepped ahead to all its draws in uint64
halves and the outputs go through numpy's normal and exponential
ziggurats, bit for bit numpy's (the Pareto radius takes ``math.expm1``,
libm's, as numpy's C code does; ``np.expm1`` rounds 1 ulp apart on some
inputs).  One finisher draws everything else on numpy's generator, reset
to the stream's state: the rest of a stream from its first draw a
ziggurat rejects, Student-t streams, and every stream when the tables
fail the first-use check.  The four tables ship as constants
(``_ziggurat_tables``, re-derived from numpy by
``tools/ziggurat_tables.py``); the check runs the pass on streams crafted
to output chosen words at every layer of both ziggurats, against the
finisher drawing from variate 0.  A problem with its own ``draw`` draws
from each stream's state dict, then :func:`draw_rest` its noise.
"""

from __future__ import annotations

import base64
import functools
import math
import numbers

import numpy as np

from . import _ziggurat_tables
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
_PCG_MULT_INV = pow(_PCG_MULT, -1, 1 << 128)  # the multiplier is odd
_PCG_MULT_HALVES = np.uint64(_PCG_MULT >> 64), np.uint64(_PCG_MULT & 0xFFFFFFFFFFFFFFFF)
_LOW32 = np.uint64(0xFFFFFFFF)
_BLOCK = 64  # draw columns one sampling pass steps at a time


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


def _mulhi(a, b):
    """The high 64 bits of the 128-bit products of uint64 arrays a and b, from their 32-bit halves."""
    a0, a1, b0, b1 = a & _LOW32, a >> 32, b & _LOW32, b >> 32
    mid = a1 * b0 + (a0 * b0 >> 32)  # every sum stays below (2**32 - 1)**2 + 2**33 < 2**64
    return a1 * b1 + (mid >> 32) + (a0 * b1 + (mid & _LOW32) >> 32)


def _mul128(a_hi, a_lo, b_hi, b_lo) -> tuple:
    """(hi, lo) of a * b mod 2**128, for 128-bit numbers held as uint64 halves."""
    return _mulhi(a_lo, b_lo) + a_hi * b_lo + a_lo * b_hi, a_lo * b_lo


def _add128(a_hi, a_lo, b_hi, b_lo) -> tuple:
    lo = a_lo + b_lo
    return a_hi + b_hi + (lo < a_lo), lo


def _halves(values) -> tuple:
    return (np.array([v >> 64 for v in values], dtype=np.uint64),
            np.array([v & 0xFFFFFFFFFFFFFFFF for v in values], dtype=np.uint64))


def _states(pool: np.ndarray, words: np.ndarray) -> np.ndarray:
    """The PCG64 states of the (client, round, step) columns of the (3, K) uint32 ``words``.

    Column k is hashed on top of column k of the (4, K) or (4, 1) ``pool``.
    Returns the (K, 4) uint64 rows of state high and low words and
    increment high and low words, seeded as ``pcg_setseq_128_srandom_r``
    seeds them.
    """
    for j in range(3):  # the client, round and step words, in spawn-key order
        hashed = _shift_xor((words[j] ^ _SPAWN_XOR[j]) * _SPAWN_MUL[j])
        pool = _shift_xor(_MIX_MULT_L * pool - _MIX_MULT_R * hashed)
    out = _shift_xor((pool[[0, 1, 2, 3, 0, 1, 2, 3]] ^ _STATE_HASH[:-1]) * _STATE_HASH[1:]).astype(np.uint64)
    seed_hi, seed_lo, seq_hi, seq_lo = out[0::2] | out[1::2] << 32  # little-endian pairs
    inc = seq_hi << 1 | seq_lo >> 63, seq_lo << 1 | 1
    # state 0, one step, add the seed, one more step
    state = _add128(*_mul128(*_add128(*inc, seed_hi, seed_lo), *_PCG_MULT_HALVES), *inc)
    return np.stack(state + inc, axis=1)


def state_dicts(states: np.ndarray):
    """The numpy state dict of each (state high, low, increment high, low) row of the uint64 ``states``.

    Assigned to ``generator.bit_generator.state``, dict k makes the
    generator draw what the ``derive_stream`` generator of stream k draws.
    The dicts are built one at a time, as they are iterated.
    """
    return ({"bit_generator": "PCG64", "has_uint32": 0, "uinteger": 0,
             "state": {"state": state_hi << 64 | state_lo, "inc": inc_hi << 64 | inc_lo}}
            for state_hi, state_lo, inc_hi, inc_lo in states.tolist())


def stream_states(master_seed: int, keys) -> list:
    """PCG64 state dicts of :func:`derive_stream` for every (client, round, step) row of ``keys``.

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
    return list(state_dicts(_states(pool, K.T.astype(np.uint32))))


def round_states(seeds, clients: int, steps: int, first_round: int, rounds: int) -> np.ndarray:
    """The state words of a stack of runs, one master seed each, over ``rounds`` rounds from ``first_round``.

    Row ((r * steps + i) * len(seeds) + s) * clients + n holds the state
    high, low, increment high and low uint64 words of run s's client n at
    step i of round first_round + r; all come from one vectorized pass, as
    in :func:`stream_states`.
    """
    if not 0 <= first_round <= first_round + rounds <= KEY_LIMIT:
        raise ValueError("keys must lie in [0, 2**32)")
    r, i, s, n = np.indices((rounds, steps, len(seeds), clients), dtype=np.uint32).reshape(4, -1)
    return _states(_seed_pools(seeds)[:, s], np.stack([n, r + np.uint32(first_round), i]))


# ---------------------------------------------------------------------------
# every stream's raw variates: PCG64 jumped ahead through numpy's ziggurats, numpy's generator for the rest


@functools.cache
def ziggurat_tables() -> dict:
    """numpy's ziggurat tables: normal ``wi`` and ``ki``, exponential ``we`` and ``ke``, 256 entries each."""
    words = {name: np.frombuffer(base64.b64decode("".join(getattr(_ziggurat_tables, name.upper()))), "<u8")
             for name in ("wi", "ki", "we", "ke")}
    return {"wi": words["wi"].view("<f8"), "ki": words["ki"], "we": words["we"].view("<f8"), "ke": words["ke"]}


@functools.cache
def _jumps() -> np.ndarray:
    """(4, BLOCK) halves of MULT**j and sum(MULT**i for i < j), j = 1..BLOCK: j steps as one affine map."""
    a, b, rows = 1, 0, []
    for _ in range(_BLOCK):
        a, b = a * _PCG_MULT & _MASK128, (b * _PCG_MULT + 1) & _MASK128
        rows.append((a, b))
    a, b = zip(*rows)
    return np.stack(_halves(a) + _halves(b))


def _outputs(s_hi, s_lo, i_hi, i_lo, width: int) -> tuple:
    """The next ``width`` PCG64 (XSL-RR) outputs of M streams, (width, M), and the state words after each."""
    a_hi, a_lo, b_hi, b_lo = _jumps()[:, :width, None]
    # output j is that of the state after j steps, MULT**j * state + sum(MULT**i for i < j) * inc
    hi, lo = _add128(*_mul128(a_hi, a_lo, s_hi, s_lo), *_mul128(b_hi, b_lo, i_hi, i_lo))
    x, rot = hi ^ lo, hi >> 58
    return x >> rot | x << (-rot & 63), hi, lo


def _normals(r, tables) -> tuple:
    """numpy's normal ziggurat on outputs r: the variates and where the first output is accepted."""
    layer = (r & 0xFF).astype(np.intp)
    rabs = r >> 9 & 0xFFFFFFFFFFFFF
    x = rabs.view(np.int64) * tables["wi"][layer]  # both exact: rabs < 2**52
    x.view(np.uint64)[...] ^= (r & 0x100) << 55  # bit 8 is the sign
    return x, rabs < tables["ki"][layer]


def _radii(r, normal, accepted, tails, tables) -> tuple:
    """The radius variates of outputs r (columns, M): |normal| for a stream's tail 0, else 1 + Pareto(tail)."""
    pareto = np.flatnonzero(tails)
    r = r[:, pareto]
    ri, layer = r >> 11, (r >> 3 & 0xFF).astype(np.intp)
    radius, accepted = np.abs(normal), accepted.copy()
    accepted[:, pareto] = ri < tables["ke"][layer]
    # numpy's pareto is libm's expm1 of a standard exponential over the tail; np.expm1 rounds apart
    exps = (ri.view(np.int64) * tables["we"][layer] / tails[pareto]).ravel().tolist()
    radius[:, pareto] = 1.0 + np.fromiter(map(math.expm1, exps), float, len(exps)).reshape(ri.shape)
    return radius, accepted


def _sample(states: np.ndarray, size_x: int, size_y: int, tails: np.ndarray, tables: dict) -> tuple:
    """The raw variates of the streams whose ``tails`` are not nan, up to their first draw a ziggurat rejects.

    Stream m's variates are ``size_x`` normals, its radius variate
    (:func:`_sampled_tail`), ``size_y`` normals and its radius variate: C
    columns, drawn in blocks of ``_BLOCK``.  Returns the (K, C) variates
    (zero for a stream with tail nan; not numpy's from a stream's first
    rejected draw on), the (K,) index of that draw (C when none is
    rejected; 0 for a stream with tail nan) and the (K, 4) state and
    increment words before it (a stream's own words when there is none).
    A stream leaves at its first rejected draw, so a block only steps the
    streams still in.
    """
    K = len(states)
    drawn, start, resume = variate_rows(K, size_x, size_y), np.zeros(K, dtype=np.intp), states.copy()
    C = drawn.shape[1]
    live = np.flatnonzero(~np.isnan(tails))
    start[live] = C
    s_hi, s_lo, i_hi, i_lo = states[live].T
    for c0 in range(0, C, _BLOCK):
        width = min(_BLOCK, C - c0)
        r, hi, lo = _outputs(s_hi, s_lo, i_hi, i_lo, width)
        x, accepted = _normals(r, tables)
        radii = [col - c0 for col in (size_x, C - 1) if c0 <= col < c0 + width]
        if radii:
            x[radii], accepted[radii] = _radii(r[radii], x[radii], accepted[radii], tails[live], tables)
        drawn[live, c0:c0 + width] = x.T
        rejected = ~accepted
        out = rejected.any(axis=0)
        if out.any():
            first = rejected[:, out].argmax(axis=0)
            gone = live[out]
            start[gone] = c0 + first
            # the state before draw `first` is the one after `first` outputs
            before, rows = np.maximum(first - 1, 0), np.flatnonzero(out)
            resume[gone, 0] = np.where(first > 0, hi[before, rows], s_hi[out])
            resume[gone, 1] = np.where(first > 0, lo[before, rows], s_lo[out])
            stay = ~out
            live, s_hi, s_lo, i_hi, i_lo = live[stay], hi[-1, stay], lo[-1, stay], i_hi[stay], i_lo[stay]
        else:
            s_hi, s_lo = hi[-1], lo[-1]
        if not live.size:
            break
    return drawn, start, resume


def _sampled_tail(model) -> float:
    """The tail of the radius :func:`_sample` draws: 0 for |N(0, 1)|, t for 1 + Pareto(t), else nan."""
    if is_silent(model):
        return math.nan
    return {"symmetrized-pareto": model.tail_exponent, "gaussian": 0.0}.get(model.family, math.nan)


def variate_rows(count: int, size_x: int, size_y: int) -> np.ndarray:
    """``count`` zero rows of raw variates for an x block of ``size_x`` entries and a y block of ``size_y``."""
    return np.zeros((count, size_x + size_y + 2))  # the x normals, their radius, the y normals, theirs


def draw_rest(rng: np.random.Generator, radius, row: np.ndarray, start: int, size_x: int) -> None:
    """Draw a stream's ``row`` of variates from variate ``start`` on, in the order of :func:`stream_variates`."""
    if start < size_x:
        rng.standard_normal(out=row[start:size_x])
    if start <= size_x:
        row[size_x] = radius()
        rng.standard_normal(out=row[size_x + 1:-1])
    elif start < len(row) - 1:
        rng.standard_normal(out=row[start:-1])
    row[-1] = radius()


def _finish(drawn: np.ndarray, start: np.ndarray, states: np.ndarray, models: list, size_x: int) -> None:
    """Draw every noisy row k of ``drawn`` on numpy's generator from variate ``start[k]`` on, at ``states[k]``.

    Row k's noise model is ``models[k % len(models)]``; a silent row, or
    one whose ``start`` is past its last variate, is left as it is.
    """
    rng = np.random.Generator(np.random.PCG64(0))
    bits = rng.bit_generator
    radii = [None if is_silent(model) else radius_sampler(model, rng) for model in models]
    rows = [row for row in np.flatnonzero(start < drawn.shape[1]).tolist() if radii[row % len(radii)] is not None]
    for row, begin, state in zip(rows, start[rows].tolist(), state_dicts(states[rows])):
        bits.state = state
        draw_rest(rng, radii[row % len(radii)], drawn[row], begin, size_x)


def stream_variates(states: np.ndarray, models: list, size_x: int, size_y: int) -> np.ndarray:
    """The raw noise variates of every stream of the (K, 4) state words ``states``, one row each.

    Stream k's noise model is ``models[k % len(models)]``, e.g. one per
    (run, client) row of a step in the order of :func:`round_states`.  Its
    row holds what its generator draws for ``sample`` on an x block of
    ``size_x`` entries and then a y block of ``size_y``: the normals, the
    radius variate, the normals, the radius variate (C = size_x + size_y
    + 2 columns); a silent stream's row is zero.  Every Pareto and
    Gaussian stream is stepped ahead and put through numpy's ziggurats in
    one vectorized pass, bit for bit numpy's, up to its first draw a
    ziggurat rejects.  numpy's own generator, reset to a stream's state,
    draws everything else: the rest of such a row, every Student-t row,
    and every row when the first-use check (:func:`_sampler_agrees`)
    finds the tables disagree with numpy.
    """
    tails = np.resize(np.array([_sampled_tail(model) for model in models], dtype=float), len(states))
    if not np.isnan(tails).all() and not _sampler_agrees():
        tails[:] = math.nan  # the tables disagree with numpy's generator, which then draws every row
    drawn, start, resume = _sample(states, size_x, size_y, tails, ziggurat_tables())
    _finish(drawn, start, resume, models, size_x)
    return drawn


def _crafted_state(output: int) -> int:
    """The PCG64 state whose next output, under increment 1, is ``output`` (below 2**64).

    PCG64 steps state -> state * MULT + inc and outputs XSL-RR of the new
    state, which leaves a state with high word 0 as its low word.
    """
    return (output - 1) * _PCG_MULT_INV & _MASK128


@functools.cache
def _sampler_agrees() -> bool:
    """Whether :func:`_sample` draws what numpy's generator draws, checked once, at first use.

    The streams start from crafted states (:func:`_crafted_state`) whose
    first output is a chosen word: for every layer of the normal
    ziggurat, with either sign, and of the exponential one, the value
    parts 1, ``ki - 1`` and ``ki`` (``ke - 1`` and ``ke``) that fit.  The
    pass must accept a first output exactly when numpy's generator takes
    it alone: then numpy's variates from the next one on are those it
    draws from the crafted word itself.  Every variate the pass accepts
    must equal numpy's, which :func:`_finish` draws from variate 0.  A
    normal word leads a Gaussian stream of 1 + 1 + 1 + 1 variates, an
    exponential one a Pareto stream (tails 1.75, 1.3 and 2.5) of 1 + 1 + 1.
    """
    tables = ziggurat_tables()
    normal = [rabs << 9 | sign << 8 | layer for layer, limit in enumerate(tables["ki"].tolist())
              for rabs in sorted({1, limit - 1, limit}) if 0 <= rabs < 2**52 for sign in (0, 1)]
    exponential = [ri << 11 | layer << 3 for layer, limit in enumerate(tables["ke"].tolist())
                   for ri in sorted({1, limit - 1, limit}) if 0 <= ri < 2**53]
    gaussian = [NoiseModel(sigma=1.0, family="gaussian")]
    pareto = [NoiseModel(s=1.2, sigma=1.0, family="symmetrized-pareto", tail_exponent=t) for t in (1.75, 1.3, 2.5)]
    # the normal words of each sign, then the exponential ones: smaller batches keep the check's memory small
    for words, models, size_x in ((normal[0::2], gaussian, 1), (normal[1::2], gaussian, 1), (exponential, pareto, 0)):
        K = len(words)
        inc = np.zeros(K, dtype=np.uint64), np.ones(K, dtype=np.uint64)
        crafted = np.stack(_halves([_crafted_state(r) for r in words]) + inc, axis=1)
        after = np.stack((inc[0], np.array(words, dtype=np.uint64)) + inc, axis=1)  # the crafted words as states
        tails = np.resize(np.array([_sampled_tail(model) for model in models]), K)
        drawn, start, _ = _sample(crafted, size_x, 1, tails, tables)
        numpy, alone = variate_rows(K, size_x, 1), variate_rows(K, size_x, 1)
        _finish(numpy, np.zeros(K, dtype=np.intp), crafted, models, size_x)
        _finish(alone, np.ones(K, dtype=np.intp), after, models, size_x)
        takes_alone = (alone[:, 1:].view(np.uint64) == numpy[:, 1:].view(np.uint64)).all(axis=1)
        differs = drawn.view(np.uint64) != numpy.view(np.uint64)
        if (takes_alone != (start > 0)).any() or (differs & (np.arange(drawn.shape[1]) < start[:, None])).any():
            return False
    return True


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


def scale_rows(rows: np.ndarray, size_x: int, scale) -> tuple:
    """The x and y noise increments of stacked rows of raw variates, as :func:`stream_variates` lays them out."""
    return (scale_draws(rows[:, :size_x], rows[:, size_x], scale),
            scale_draws(rows[:, size_x + 1:-1], rows[:, -1], scale))


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
