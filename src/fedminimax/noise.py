"""Heavy-tailed gradient noise with exact control of the s-th moment.

A sample is radius * direction with the direction uniform on the unit
sphere of the flattened parameter block and the radius drawn from the
model's family, rescaled analytically so that E[radius^s] = sigma^s holds
with equality.  Mean zero follows from the spherical symmetry of the
direction.  For the Pareto family with tail exponent t < 2 the variance
of the sample norm is infinite while every moment of order <= s stays
finite: exactly a bounded-s-th-moment noise source and nothing stronger.

Every draw comes from a stream keyed by (master seed, client, round,
step).  :func:`derive_stream` builds one such stream; :func:`round_states`
gives the PCG64 state words of every stream of a stack of runs, one
master seed each, over a chunk of rounds, from the seeds' pools, which a
stack hashes once (:func:`seed_pools`).  The engine takes its draws from
:func:`chunk_draws` alone: this module sizes the chunk
(:func:`chunk_rounds`), resets numpy's generator wherever a stream is
drawn on it (:func:`_reset_draws`), and scales the noise, once per chunk
of rounds.  A client's variates are its normals, then the radius variate
that :func:`radius_sampler` draws; :func:`scale_draws` turns stacked
variates, each row with its own :func:`radius_scale`, into noise
increments at once, and :func:`sample` is the one-client case.

:func:`stream_variates` returns the raw variates of many streams, one
complete row each.  Pareto and Gaussian streams are drawn whole in one
pass: j steps take a 128-bit PCG64 state s to s + B_j * D, with B_j =
sum(MULT**i for i < j) from a table and D = (MULT - 1) * s + inc formed
once per stream, so each output is one 128-bit product on uint64 halves
and each stream's state after its block is formed once; the outputs go
through numpy's normal and exponential ziggurats, bit for bit numpy's.
A draw whose first output the ziggurat rejects is resolved in the pass
as numpy's C code resolves it: a wedge test on the next output,
restarting after it when the test fails, or layer 0's tail, which shifts
the outputs of the draws after it.  Every
transcendental is libm's through ``math``, one call per value, as numpy's
C code calls it (``np.expm1`` rounds 1 ulp apart on some inputs).  One
finisher draws on numpy's generator, reset to the stream's state, what
the pass does not: Student-t streams, a stream from a wedge test that
falls within rounding of its threshold, and every stream when the tables
fail the first-use check.  The tables and tail constants ship as
constants (``_ziggurat_tables``, re-derived or bounded from numpy by
``tools/ziggurat_tables.py``); the check runs the pass on streams crafted
to output chosen words at every layer of both ziggurats and their wedges
and tails, against the finisher drawing from variate 0.

With a problem's minibatch (sizes, b), a stream draws its client's b
indices first, ``integers(0, m, size=b)``: numpy takes them by Lemire's
method from 32-bit words, the low half and then the high half of each
output, and drops a half left over, so they are the stream's first
ceil(b/2) outputs and the normals start after them.  The pass computes
those outputs for every stream, silent and Student-t ones included, and
hands the state after them on; a stream with a word below Lemire's
threshold, or a size outside [2, 2**32], is drawn whole, indices
included, by the finisher.  The first-use check tries minibatch words
just below and at the threshold too.  A problem given by a per-client
``stoch_grad`` draws on each stream first, inside the step, and the
finisher's reset loop draws its noise after it.
"""

from __future__ import annotations

import functools
import math
import numbers

import numpy as np

from ._ziggurat import _MASK128, _PCG_MULT, _add128, _halves, _indices, _mul128, _sample, ziggurat_tables
from .core import NoiseModel, Shape

SEED_LIMIT = 2**64  # master seeds lie in [0, SEED_LIMIT)
KEY_LIMIT = 2**32  # client, round and step lie in [0, KEY_LIMIT)
STREAM_CHUNK = 512  # streams of variates alone one chunk_draws pass derives (see chunk_rounds)


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
    :func:`round_states` derives the same streams in bulk.
    """
    key = np.random.SeedSequence(entropy=int(master_seed), spawn_key=(int(client), int(round_idx), int(step)))
    return np.random.default_rng(key)


# numpy's SeedSequence hash: the multipliers its hashmix steps through,
# starting from INIT_A (entropy mixing) or INIT_B (state generation)
_INIT_A, _MULT_A, _INIT_B, _MULT_B = 0x43B0D7E5, 0x931E8875, 0x8B51F9DD, 0x58F38DED
_MIX_MULT_L, _MIX_MULT_R = np.uint32(0xCA01F9DD), np.uint32(0x4973F715)
_PCG_MULT_INV = pow(_PCG_MULT, -1, 1 << 128)  # the multiplier is odd
_PCG_MULT_HALVES = np.uint64(_PCG_MULT >> 64), np.uint64(_PCG_MULT & 0xFFFFFFFFFFFFFFFF)
_CHECK_ROWS = 256  # crafted streams the first-use check draws at once
_LEMIRE_SIZES = (3, 640, 2**31 + 7, 2**32 - 1)  # shard sizes whose thresholds the first-use check tries


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


def seed_pools(seeds) -> np.ndarray:
    """The 4-word entropy pool SeedSequence hashes each master seed into, one column per seed."""
    errors = [e for seed in seeds for e in seed_errors(seed)]
    if errors:
        raise ValueError("; ".join(errors))
    return np.array([np.random.SeedSequence(int(seed)).pool for seed in seeds], dtype=np.uint32).T


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


def round_states(seeds, clients: int, steps: int, first_round: int, rounds: int, pools=None) -> np.ndarray:
    """The state words of a stack of runs, one master seed each, over ``rounds`` rounds from ``first_round``.

    Row ((r * steps + i) * len(seeds) + s) * clients + n holds the state
    high, low, increment high and low uint64 words of run s's client n at
    step i of round first_round + r, all from one vectorized pass
    (:func:`_states`).  ``pools``, the seeds' (4, len(seeds))
    :func:`seed_pools`, spares a caller that derives many chunks of rounds
    hashing its seeds again for each.
    """
    if not 0 <= first_round <= first_round + rounds <= KEY_LIMIT:
        raise ValueError("keys must lie in [0, 2**32)")
    r, i, s, n = np.indices((rounds, steps, len(seeds), clients), dtype=np.uint32).reshape(4, -1)
    return _states((seed_pools(seeds) if pools is None else pools)[:, s], np.stack([n, r + np.uint32(first_round), i]))


# ---------------------------------------------------------------------------
# every stream's raw variates: the one pass of ``_ziggurat``, numpy's generator for the rest


def _sampled_tail(model) -> float:
    """The tail of the radius :func:`_sample` draws: 0 for |N(0, 1)|, t for 1 + Pareto(t), else nan."""
    if is_silent(model):
        return math.nan
    return {"symmetrized-pareto": model.tail_exponent, "gaussian": 0.0}.get(model.family, math.nan)


def _model_tails(models) -> tuple:
    """Per model, from one pass over them: the tail :func:`_sampled_tail` gives, and whether it is noisy."""
    kinds = np.array([(_sampled_tail(model), not is_silent(model)) for model in models], dtype=float).reshape(-1, 2)
    return kinds[:, 0], kinds[:, 1] > 0


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


def _reset_draws(drawn: np.ndarray, start, states: np.ndarray, models: list, noisy, size_x: int, rows: list,
                 first=None, rng=None) -> None:
    """Reset numpy's generator ``rng`` (a new one if None) to the stream ``states[k]`` of each row k in ``rows`` in
    turn, and draw on it ``first(k, rng)``, if given, then, where ``noisy[k]``, row k of ``drawn`` from variate
    ``start[k]`` on, in the order of :func:`stream_variates`, with row k's model ``models[k % len(models)]``."""
    rng = np.random.Generator(np.random.PCG64(0)) if rng is None else rng
    n, bits = len(models), rng.bit_generator
    radii = {id(model): radius_sampler(model, rng) for model, on in zip(models, noisy) if on}
    for row, state in zip(rows, state_dicts(states[rows])):
        bits.state = state
        if first is not None:
            first(row, rng)
        if noisy[row]:
            draw_rest(rng, radii[id(models[row % n])], drawn[row], start[row], size_x)


def _finish(drawn: np.ndarray, start: np.ndarray, states: np.ndarray, models: list, noisy: np.ndarray, size_x: int,
            picks=None, bounds=None) -> None:
    """Draw every noisy row k of ``drawn`` on numpy's generator from variate ``start[k]`` on, at ``states[k]``.

    Row k's noise model is ``models[k % len(models)]``, and ``noisy[k]``
    whether it is not silent; a silent row, or one whose ``start`` is past
    its last variate, is left as it is.  A row k with ``bounds[k] > 0``
    first draws its minibatch indices, ``integers(0, bounds[k], size=b)``,
    into row k of the (K, b) ``picks``, silent or not.
    """
    redraw = np.zeros(len(drawn), dtype=bool) if bounds is None else bounds > 0
    rows = np.flatnonzero(noisy & (start < drawn.shape[1]) | redraw).tolist()

    def indices(row, rng):
        if redraw[row]:
            picks[row] = rng.integers(0, int(bounds[row]), size=picks.shape[1])

    if rows:
        _reset_draws(drawn, start.tolist(), states, models, noisy, size_x, rows, indices)


def _cycled(values, count: int) -> np.ndarray:
    """``values`` repeated to ``count`` entries, as ``np.resize`` repeats them; ``np.resize`` concatenates one
    copy per repeat, about 80 us for one model repeated over 512 streams."""
    values = np.asarray(values)
    return np.tile(values, -(-count // max(1, values.size)))[:count]


def _streams(states: np.ndarray, models: list, kinds: tuple, size_x: int, size_y: int, minibatch, tables) -> tuple:
    """:func:`stream_variates`' index rows (None without a ``minibatch``) and variates, and the rows the
    pass left whole to numpy's generator, for ``models`` of :func:`_model_tails` ``kinds``; with ``tables``
    None, numpy's generator draws every row."""
    K = len(states)
    tails, noisy = (_cycled(kind, K) for kind in kinds)
    picks, bounds, after, whole = None, None, states, np.full(K, tables is None)
    if minibatch is not None:
        sizes, count = minibatch
        bounds = _cycled(np.asarray(sizes, dtype=np.uint64), K)
        if tables is None:
            picks = np.empty((K, count), dtype=np.int64)
        else:
            picks, after, whole = _indices(states, bounds, count)
    tails[whole] = math.nan
    drawn, start, resume = _sample(after, size_x, size_y, tails, tables)
    resume[whole] = states[whole]
    _finish(drawn, start, resume, models, noisy, size_x, picks, None if bounds is None else np.where(whole, bounds, 0))
    return picks, drawn, whole


def stream_variates(states: np.ndarray, models: list, size_x: int, size_y: int, minibatch=None):
    """The raw noise variates of every stream of the (K, 4) state words ``states``, one row each.

    Stream k's noise model is ``models[k % len(models)]``, e.g. one per
    (run, client) row of a step in the order of :func:`round_states`.  Its
    row holds what its generator draws for ``sample`` on an x block of
    ``size_x`` entries and then a y block of ``size_y``: the normals, the
    radius variate, the normals, the radius variate (C = size_x + size_y
    + 2 columns); a silent stream's row is zero.  Every Pareto and
    Gaussian stream is stepped ahead and put through numpy's ziggurats in
    one vectorized pass (:func:`_sample`), bit for bit numpy's, rejected
    draws included.  numpy's own generator, reset to a stream's state,
    draws every Student-t row, the rest of a row from a wedge test within
    rounding of its threshold (none in practice), and every row when the
    first-use check (:func:`_sampler_agrees`) finds the tables disagree
    with numpy.

    With a ``minibatch`` (sizes, b), every stream, silent or not, first
    draws its client's minibatch, ``integers(0, sizes[k % len(sizes)],
    size=b)``, and its variates after it; the result is then the (K, b)
    index rows and the (K, C) variates.  The indices take the stream's
    first ceil(b / 2) outputs (:func:`_indices`); numpy's generator draws
    a stream whole, from its indices on, where a word falls below Lemire's
    threshold or the size is outside [2, 2**32].
    """
    kinds = _model_tails(models)
    pass_needed = minibatch is not None or not np.isnan(kinds[0]).all()
    tables = ziggurat_tables() if pass_needed and _sampler_agrees() else None
    picks, drawn, _ = _streams(states, models, kinds, size_x, size_y, minibatch, tables)
    return drawn if minibatch is None else (picks, drawn)


def chunk_rounds(width: int, size_x: int, size_y: int, minibatch=None) -> int:
    """The rounds one :func:`chunk_draws` call derives at ``width`` streams a round, at least one.

    The pass steps as many outputs as ``STREAM_CHUNK`` streams of variates
    alone, C = size_x + size_y + 2 each; a minibatch of b indices takes
    ceil(b / 2) more outputs of every stream.
    """
    C = size_x + size_y + 2
    streams = STREAM_CHUNK if minibatch is None else STREAM_CHUNK * C // (C + (minibatch[1] + 1) // 2)
    return max(1, streams // width)


def chunk_draws(seeds, models: list, clients: int, steps: int, first_round: int, rounds: int, size_x: int,
                size_y: int, minibatch=None, stoch_grad=None, pools=None) -> list:
    """Every draw of a stack of runs over ``rounds`` rounds from ``first_round``, one callable per round.

    Run s has seed ``seeds[s]`` (``pools`` as in :func:`round_states`), noise
    model ``models[s]`` and rows s * clients to s * clients + clients - 1
    of a step.  A round's ``draws(i, X, Y)`` gives step i's (batch, noisy,
    inc_x, inc_y): the ``batch`` of ``grad``, the rows whose noise is
    drawn (indices, or a slice of all) and their noise increments, None if
    every run is silent.  Without ``stoch_grad``, one :func:`stream_variates`
    call draws the chunk and one :func:`scale_rows` call scales its noisy
    rows, row by row as one call per step would.  A problem given by
    per-client callables passes its ``stoch_grad``, which draws on each
    stream first, at the step's X and Y: each step resets one generator to
    its streams in turn (:func:`_reset_draws`), batches the rows'
    ``stoch_grad`` pairs and scales its own noise.
    """
    states = round_states(seeds, clients, steps, first_round, rounds, pools)
    on = np.repeat([not is_silent(model) for model in models], clients)
    width, rows, row_models = on.size, np.flatnonzero(on), [model for model in models for _ in range(clients)]
    R = rows.size
    noisy = rows if R < width else slice(None)
    scale = np.repeat([radius_scale(model) for model in models if not is_silent(model)], clients)
    if stoch_grad is None:
        out = stream_variates(states, row_models, size_x, size_y, minibatch)
        picks, drawn = (None, out) if minibatch is None else out
        incs = (None, None)
        if R:  # step j's R noisy rows at j * R
            kept = drawn if R == width else drawn[(np.arange(rounds * steps)[:, None] * width + rows).ravel()]
            incs = scale_rows(kept, size_x, np.tile(scale, rounds * steps))

        def step(r, i, X, Y):
            j = r * steps + i
            return (None if picks is None else picks[j * width:j * width + width], noisy,
                    *(None if inc is None else inc[j * R:j * R + R] for inc in incs))
    else:
        rng, every, zero = np.random.Generator(np.random.PCG64(0)), list(range(width)), [0] * width

        def step(r, i, X, Y):
            j, batch, drawn = r * steps + i, [], variate_rows(width, size_x, size_y)
            _reset_draws(drawn, zero, states[j * width:j * width + width], row_models, on, size_x, every,
                         lambda k, stream: batch.append(stoch_grad(k % clients, X[k], Y[k], stream)), rng)
            return batch, noisy, *(scale_rows(drawn[noisy], size_x, scale) if R else (None, None))

    return [functools.partial(step, r) for r in range(rounds)]


def _crafted_state(output: int, inc: int = 1) -> int:
    """The PCG64 state whose next output, under increment ``inc``, is ``output`` (below 2**64).

    PCG64 steps state -> state * MULT + inc and outputs XSL-RR of the new
    state, which leaves a state with high word 0 as its low word.  So under
    the increment (second - first * MULT) mod 2**128 the state crafted for
    ``first`` outputs ``first`` and then ``second``.
    """
    return (output - inc) * _PCG_MULT_INV & _MASK128


class _Pareto:
    """A Pareto radius of any tail (a NoiseModel's exceeds 1), for the first-use check's exponential rows."""

    family, sigma = "symmetrized-pareto", 1.0

    def __init__(self, tail_exponent: float):
        self.tail_exponent = tail_exponent


def _wedge_words(w, k, f, bits: int) -> list:
    """(layer, value part, second word) of each layer's wedge test a relative 2**-40 below and above its
    threshold, at the value part midway between ``k`` and 2**bits: the first is accepted, the second
    restarts, and an ``f`` entry off by more than that turns one of them."""
    layer = np.arange(1, 256)
    mid = (k[1:] + np.uint64(2**bits)) // np.uint64(2)
    x = mid.view(np.int64) * w[1:]
    threshold = np.fromiter(map(math.exp, (-0.5 * x * x if bits == 52 else -x).tolist()), float, 255)
    u = (threshold * (1.0 + np.array([[-2.0**-40], [2.0**-40]])) - f[1:]) / (f[:-1] - f[1:])
    # the low 11 bits, which the uniform drops, make the word a normal of layer 255: no tail to resolve
    second = np.minimum(np.maximum(u * 2.0**53, 0.0), 2.0**53 - 1).astype(np.uint64) << np.uint64(11) | np.uint64(0x7FF)
    return list(zip(np.tile(layer, 2).tolist(), np.tile(mid, 2).tolist(), second.ravel().tolist()))


def _lemire_words(m: int) -> list:
    """The 32-bit words w whose w * m leaves low 32 bits just below, then at, Lemire's threshold (2**32 - m) % m.

    Those bits are multiples of m's lowest set bit, as is the threshold:
    numpy draws another word after the first and keeps the second.
    """
    low = m & -m
    span = 2**32 // low
    return [(t // low) * pow(m // low, -1, span) % span for t in ((2**32 - m) % m - low, (2**32 - m) % m)]


@functools.cache
def _sampler_agrees() -> bool:
    """Whether :func:`_sample` draws what numpy's generator draws, checked once, at first use.

    The streams start from crafted states (:func:`_crafted_state`) whose
    first output is a chosen word, or whose first two are: for every layer
    of the normal ziggurat, with either sign, and of the exponential one,
    the value parts 1, ``ki - 1`` and ``ki`` (``ke - 1`` and ``ke``) that
    fit; and, followed by a chosen uniform, a value part inside each
    layer's wedge with uniforms just below and just above its threshold
    (:func:`_wedge_words`), and both tails: the normal one on a first pair that is accepted and on
    one that fails, the exponential one at two uniforms.  Every variate of
    every stream must equal numpy's, which :func:`_finish` draws from
    variate 0, and none may be left to numpy.  Normal words lead Gaussian
    streams of 2 + 1 + 1 + 1 variates, two words a first try accepts
    sharing one, and of 1 + 1 + 1 + 1 after a chosen uniform; an
    exponential word leads a Pareto stream of 1 + 1 + 1 whose tail puts its
    first radius variate 1 + expm1(E / t) at E / t in [32, 64), where a
    1-ulp change of E shows.

    Last, eight Gaussian streams draw a minibatch of 2 first, for four
    shard sizes (``_LEMIRE_SIZES``), from one output whose low word falls
    just below or at Lemire's threshold (:func:`_lemire_words`): their
    indices and variates must equal numpy's, and exactly the streams below
    it must leave the pass.
    """
    tables = ziggurat_tables()
    ki, ke, top = tables["ki"].tolist(), tables["ke"].tolist(), 2**64 - 1
    gaussian = [NoiseModel(sigma=1.0, family="gaussian")]

    def pareto(words):  # E / t in [32, 64) for the exponential E = ri * we of each first word
        tails = [2.0 ** (math.frexp((r >> 11) * tables["we"][r >> 3 & 0xFF])[1] - 6) for r, _ in words]
        models = {t: _Pareto(t) for t in tails}
        return [models[t] for t in tails]

    def batches():  # one at a time, which keeps the check's memory small
        words = [rabs << 9 | sign << 8 | layer for layer, limit in enumerate(ki)
                 for rabs in sorted({1, limit - 1, limit}) if 0 <= rabs < 2**52 for sign in (0, 1)]
        first_try = [word for word in words if word >> 9 < ki[word & 0xFF]]  # two of these share a stream
        yield list(zip(first_try[0::2], first_try[1::2])) + [(first_try[-1], None)] * (len(first_try) % 2), 2
        yield [(word, None) for word in words if word >> 9 >= ki[word & 0xFF]], 2
        yield [(mid << 9 | layer, u) for layer, mid, u in _wedge_words(tables["wi"], tables["ki"], tables["fi"], 52)] + [
            ((2**52 - 1 - bit) << 9, u) for bit in (0, 2**8) for u in (0, top)], 1  # bit 17: the tail's sign
        yield [(ri << 11 | layer << 3, None) for layer, limit in enumerate(ke)
               for ri in sorted({1, limit - 1, limit}) if 0 <= ri < 2**53], 0
        yield [(mid << 11 | layer << 3, u) for layer, mid, u in _wedge_words(tables["we"], tables["ke"], tables["fe"],
                                                                             53)] + [((2**53 - 1) << 11, u) for u in (0, 2**63)], 0

    # the normal words a first try accepts, two to a stream, those it rejects, the two-output ones, then
    # the exponential ones, in even parts of at most _CHECK_ROWS streams
    for words, size_x in ((words[k:k + step], size_x) for words, size_x in batches()
                          for step in [-(-len(words) // -(-len(words) // _CHECK_ROWS))]
                          for k in range(0, len(words), step)):
        K, models = len(words), pareto(words) if size_x == 0 else gaussian
        incs = [1 if second is None else (second - first * _PCG_MULT) & _MASK128 for first, second in words]
        crafted = np.stack(_halves([_crafted_state(first, inc) for (first, _), inc in zip(words, incs)])
                           + _halves(incs), axis=1)
        tails = _cycled(_model_tails(models)[0], K)
        drawn, start, _ = _sample(crafted, size_x, 1, tails, tables)
        numpy = variate_rows(K, size_x, 1)
        _finish(numpy, np.zeros(K, dtype=np.intp), crafted, models, np.ones(K, dtype=bool), size_x)
        if (start < drawn.shape[1]).any() or drawn.tobytes() != numpy.tobytes():
            return False
    # one minibatch word just below and one at Lemire's threshold for each size, then the normals after them
    words = [(m, w) for m in _LEMIRE_SIZES for w in _lemire_words(m)]
    crafted = np.stack(_halves([_crafted_state(0xFFFFFFFF << 32 | w) for _, w in words]) + _halves([1] * len(words)),
                       axis=1)
    minibatch = [m for m, _ in words], 2
    (picks, drawn, whole), (numpy_picks, numpy, _) = (_streams(crafted, gaussian, _model_tails(gaussian), 1, 1,
                                                               minibatch, t) for t in (tables, None))
    return (whole.tolist() == [True, False] * len(_LEMIRE_SIZES) and picks.tobytes() == numpy_picks.tobytes()
            and drawn.tobytes() == numpy.tobytes())


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


def scale_draw(direction: np.ndarray, radius, scale) -> np.ndarray:
    """The increment :func:`scale_draws` makes of one row of normals: the same bits, in fewer numpy calls."""
    nrm = math.sqrt(np.vecdot(direction, direction))
    if nrm == 0.0:  # measure-zero guard
        direction, nrm = np.where(np.arange(direction.size) == 0, 1.0, direction), 1.0
    return (scale * radius) * (direction / nrm)


def scale_rows(rows: np.ndarray, size_x: int, scale) -> tuple:
    """The x and y noise increments of stacked rows of raw variates, as :func:`stream_variates` lays them out."""
    return (scale_draws(rows[:, :size_x], rows[:, size_x], scale),
            scale_draws(rows[:, size_x + 1:-1], rows[:, -1], scale))


def sample(model: NoiseModel, shape: Shape, stream: np.random.Generator) -> np.ndarray:
    """Draw one noise increment of the given shape from the model."""
    if is_silent(model):
        return np.zeros(shape.dims)
    direction = stream.standard_normal(shape.size)
    return scale_draw(direction, radius_sampler(model, stream)(), radius_scale(model)).reshape(shape.dims)


def empirical_moment(samples, s: float) -> float:
    """Average of norm(delta)^s over a list of noise samples of one shape.

    The norms come from one stacked pass; their powers are summed in list
    order, one addition at a time.
    """
    if not (0.0 < s <= 2.0):
        raise ValueError(f"moment order s must lie in (0, 2], got {s}")
    if len(samples) == 0:
        raise ValueError("empirical_moment needs at least one sample")
    flat = np.stack([np.ravel(delta) for delta in samples])
    return float(np.cumsum(np.sqrt(np.vecdot(flat, flat)) ** s)[-1]) / len(samples)
