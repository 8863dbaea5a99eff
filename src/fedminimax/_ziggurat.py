"""The vectorized noise pass: many PCG64 streams stepped ahead at once through numpy's ziggurats.

Each 128-bit PCG64 state s is held as uint64 halves.  j steps take it to
s + B_j * D, with B_j = sum(MULT**i for i < j) from a table (:func:`_jumps`)
and D = (MULT - 1) * s + inc formed once per stream (:func:`_deltas`), so
every output of a block is one 128-bit product (:func:`_outputs`), and
each stream's state after its block is formed once, from the same s and D
(:func:`_advanced`).  The outputs go through numpy's normal and
exponential ziggurats, bit for bit numpy's, including the draws whose
first output the ziggurat rejects, which are resolved as numpy's C code
resolves them (:func:`_pointers`): a wedge test on the next output, a
restart after it when the test fails, or layer 0's tail.  Every
transcendental is libm's through ``math``, one call per value, as numpy's
C code calls it (``np.expm1`` rounds 1 ulp apart on some inputs).  A
stream's minibatch indices, drawn before its variates, come from its first
outputs by Lemire's method (:func:`_indices`).  The tables and tail
constants ship in ``_ziggurat_tables``; ``noise`` checks them against
numpy's generator at first use and draws on that generator what this pass
leaves (:func:`_sample`).
"""

from __future__ import annotations

import base64
import functools
import math

import numpy as np

from . import _ziggurat_tables

_PCG_MULT = (2549297995355413924 << 64) + 4865540595714422341
_MASK128 = (1 << 128) - 1
_PCG_MULT_LESS_ONE = np.uint64((_PCG_MULT - 1) >> 64), np.uint64((_PCG_MULT - 1) & 0xFFFFFFFFFFFFFFFF)
_LOW32 = np.uint64(0xFFFFFFFF)
_BLOCK = 64  # outputs one sampling pass steps at a time
_CELLS = 8192  # outputs computed at once: larger slabs of temporaries are markedly slower per entry
_SLACK = 6  # outputs drawn on for the streams with a rejected draw when a block holds the rest of every row
_TO_DOUBLE = 1.0 / 9007199254740992.0  # numpy's next_double: an output's top 53 bits times 2**-53
_EDGE = 2.0**-46  # a wedge test this close to its threshold (relative) is left to numpy's generator


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


@functools.cache
def ziggurat_tables() -> dict:
    """numpy's ziggurat tables and tail constants.

    The normal ``wi``, ``ki`` and ``fi`` and the exponential ``we``, ``ke``
    and ``fe``, 256 entries each, and the tails' ``nor_r``, ``nor_inv_r``
    and ``exp_r``.
    """
    tables = {name: np.frombuffer(base64.b64decode("".join(getattr(_ziggurat_tables, name.upper()))), "<u8")
              for name in ("wi", "ki", "fi", "we", "ke", "fe")}
    for name in ("wi", "fi", "we", "fe"):
        tables[name] = tables[name].view("<f8")
    for name in ("nor_r", "nor_inv_r", "exp_r"):
        tables[name] = np.float64(getattr(_ziggurat_tables, name.upper()))
    return tables


@functools.cache
def _jumps() -> np.ndarray:
    """(4, BLOCK + SLACK + 1) B_j = sum(MULT**i for i < j), j = 0 to BLOCK + SLACK: its high and low words and the
    low word's low and high 32 bits.

    j steps take state s to MULT**j * s + B_j * inc = s + B_j * D, with
    D = (MULT - 1) * s + inc, since MULT**j = 1 + (MULT - 1) * B_j holds
    mod 2**128 too (Brown's arbitrary-stride jump, on O'Neill's PCG64).
    """
    b, rows = 0, []
    for _ in range(_BLOCK + _SLACK + 1):
        rows.append(b)
        b = (b * _PCG_MULT + 1) & _MASK128
    b_hi, b_lo = _halves(rows)
    return np.stack([b_hi, b_lo, b_lo & _LOW32, b_lo >> 32])


def _deltas(s_hi, s_lo, i_hi, i_lo) -> tuple:
    """D = (MULT - 1) * s + inc of each stream at state s and increment inc: its high and low words and the
    low word's low and high 32 bits, split once per stream."""
    d_hi, d_lo = _add128(*_mul128(s_hi, s_lo, *_PCG_MULT_LESS_ONE), i_hi, i_lo)
    return d_hi, d_lo, d_lo & _LOW32, d_lo >> 32


def _advanced(s_hi, s_lo, deltas, steps) -> tuple:
    """(hi, lo) of each stream's state ``steps`` steps on, s + B_steps * D; B_0 = 0 leaves s itself."""
    b_hi, b_lo = _jumps()[:2, steps]
    return _add128(*_mul128(b_hi, b_lo, *deltas[:2]), s_hi, s_lo)


def _outputs(s_hi, s_lo, deltas, first: int, width: int) -> np.ndarray:
    """PCG64 (XSL-RR) outputs ``first`` to ``first + width - 1`` of M streams at states s, (width, M).

    ``deltas`` are the streams' :func:`_deltas`, and first + width is at
    most BLOCK + SLACK.  Output j is that of the state after j + 1 steps,
    s + B_(j+1) * D: one 128-bit product per output, whose low words' 32-bit
    halves come split from the table and from ``deltas``.  The outputs are
    computed ``_CELLS`` at a time: larger slabs of temporaries are markedly
    slower per entry.
    """
    d_hi, d_lo, d0, d1 = deltas
    r = np.empty((width, s_hi.size), dtype=np.uint64)
    rows = max(1, _CELLS // max(1, s_hi.size))
    for j in range(0, width, rows):
        out = r[j:j + rows]
        b_hi, b_lo, b0, b1 = _jumps()[:, first + j + 1:first + j + 1 + len(out), None]
        mid = b1 * d0  # the high word of B * D: _mulhi on the split halves, in place
        mid += b0 * d0 >> 32
        hi = b1 * d1
        hi += mid >> 32
        mid &= _LOW32
        mid += b0 * d1
        mid >>= 32
        hi += mid
        hi += b_hi * d_lo  # the cross products, mod 2**64
        hi += b_lo * d_hi
        lo = b_lo * d_lo
        lo += s_lo  # plus s
        hi += s_hi
        hi += lo < s_lo
        lo ^= hi  # XSL-RR: the xor of the halves rotated right by the top 6 bits
        hi >>= 58
        np.right_shift(lo, hi, out=out)
        np.negative(hi, out=hi)
        hi &= 63
        lo <<= hi
        out |= lo
    return r


def _indices(states: np.ndarray, bounds: np.ndarray, count: int) -> tuple:
    """numpy's ``integers(0, m, size=count)`` as the first draw of each stream, m = ``bounds[k]`` for stream k.

    numpy draws such indices by Lemire's method on 32-bit words, the low
    half and then the high half of each output, and drops a half left
    over (``next_uint64`` ignores it): word w gives the index w * m >> 32,
    unless the low 32 bits of w * m fall below (2**32 - m) % m, where it
    draws another word.  Returns the (K, count) int64 indices, the (K, 4)
    words after the ceil(count / 2) outputs, and which streams the pass
    cannot follow: those with a word below its threshold, and those whose
    m lies outside [2, 2**32], which numpy draws on another path.  The
    outputs are computed ``_BLOCK`` at a time from each block's state.
    """
    s_hi, s_lo, i_hi, i_lo = states.T
    outputs, blocks = -(-count // 2), []
    for j in range(0, outputs, _BLOCK):
        deltas, width = _deltas(s_hi, s_lo, i_hi, i_lo), min(_BLOCK, outputs - j)
        blocks.append(_outputs(s_hi, s_lo, deltas, 0, width))
        s_hi, s_lo = _advanced(s_hi, s_lo, deltas, width)
    r = blocks[0] if len(blocks) == 1 else np.concatenate(blocks)
    after = np.column_stack([s_hi, s_lo, i_hi, i_lo])
    m = np.clip(bounds, 2, 2**32).astype(np.uint64)
    threshold, left = (2**32 - m) % m, (bounds < 2) | (bounds > 2**32)
    picks = np.empty((len(states), count), dtype=np.int64)
    for half, words in enumerate((r & _LOW32, r[:count // 2] >> 32)):  # index 2j + half, from output j
        words *= m  # below 2**64: both factors are at most 2**32
        left |= ((words & _LOW32) < threshold).any(axis=0)
        words >>= 32
        picks[:, half::2] = words.T
    return picks, after, left


def _normals(r, tables) -> tuple:
    """numpy's normal ziggurat on outputs r: the variates and where the first output is accepted."""
    layer = (r & 0xFF).astype(np.intp)
    rabs = r >> 9 & 0xFFFFFFFFFFFFF
    x = rabs.view(np.int64) * tables["wi"][layer]  # both exact: rabs < 2**52
    x.view(np.uint64)[...] ^= (r & 0x100) << 55  # bit 8 is the sign
    return x, rabs < tables["ki"][layer]


def _exponentials(r, tables) -> tuple:
    """numpy's exponential ziggurat on outputs r: the variates, and where the first output is accepted."""
    ri, layer = r >> 11, (r >> 3 & 0xFF).astype(np.intp)
    return ri.view(np.int64) * tables["we"][layer], ri < tables["ke"][layer]


def _uniform(r):
    """numpy's next_double of outputs r: their top 53 bits times 2**-53."""
    return (r >> 11).astype(float) * _TO_DOUBLE


def _expm1(values) -> np.ndarray:
    """libm's expm1 of each value, one ``math`` call each, as numpy's C code calls it; inf where it overflows."""
    def expm1(v):
        try:
            return math.expm1(v)
        except OverflowError:  # math raises where libm overflows; a valid model's radius stays far below
            return math.inf
    safe = not values.size or values.max() < 700.0
    return np.fromiter(map(math.expm1 if safe else expm1, values.tolist()), float, values.size)


def _wedges(upper, lower, u, exponent) -> tuple:
    """numpy's wedge test of rejected draws with uniforms u, between a layer's densities ``upper`` and
    ``lower``: whether each is accepted, and whether it falls within rounding of its threshold."""
    lhs = (upper - lower) * u + lower
    rhs = np.fromiter(map(math.exp, exponent.tolist()), float, exponent.size)  # libm's, as numpy's C code
    return lhs < rhs, np.abs(lhs - rhs) <= _EDGE * rhs


def _tail_draw(r, q: int, m: int, exponential: bool, tables) -> tuple:
    """Layer 0's tail from output q + 1 on of stream m of the block r (W, M): (the output after it, the variate).

    The exponential tail takes one uniform, the normal one pairs of them
    until a pair is accepted, its sign bit 17 of output q; a tail that needs
    outputs past the block ends at W + 1.
    """
    words = r[q:, m].tolist()
    if exponential:
        return (q + 2, tables["exp_r"] - math.log1p(-(words[1] >> 11) * _TO_DOUBLE)) if len(words) > 1 else (
            len(r) + 1, 0.0)
    for k in range(1, len(words) - 1, 2):
        xx = -tables["nor_inv_r"] * math.log1p(-(words[k] >> 11) * _TO_DOUBLE)
        yy = -math.log1p(-(words[k + 1] >> 11) * _TO_DOUBLE)
        if yy + yy > xx * xx:
            value = tables["nor_r"] + xx
            return q + k + 2, -value if words[0] >> 17 & 1 else value
    return len(r) + 1, 0.0


def _pointers(r, value, ok, tables) -> np.ndarray:
    """Every output of the block r (W, M) read as the start of a normal draw and, for kind 1, an exponential one.

    ``value`` (kinds, W, M) holds each output's variate of either kind at
    first try, and ``ok`` whether that is accepted; the others' variates
    are resolved in ``value``, as numpy draws them.  A draw whose first
    output is rejected takes the next one, a uniform, for its wedge test
    and restarts on the output after that when the test fails, or draws
    layer 0's tail (:func:`_tail_draw`).  Returns, flat over (kind, row,
    stream) with rows 0 to W + 2, the row after each draw, as a flat index
    (row * M + stream): W + 1 when the draw needs outputs past the block,
    W + 2 when its wedge test falls within rounding of its threshold, which
    numpy's generator then decides.  Rows W and W + 1 point to W + 1, and
    row W + 2 to itself.
    """
    kinds, W, M = value.shape
    rows = np.minimum(np.arange(1, W + 4), W + 1)
    rows[-1] = W + 2
    after = np.tile((rows[:, None] * M + np.arange(M)).ravel(), kinds)
    kind, q, m = np.nonzero(~ok)
    if not q.size:
        return after
    o = r[q, m]
    layer = (np.where(kind, o >> 3, o) & 0xFF).astype(np.intp)
    at, end, again = q * M + m, np.full(q.size, W + 1), q[:0]
    v = value.reshape(-1)
    w = np.flatnonzero((layer > 0) & (q + 1 < W))
    if w.size:
        f, kw, lw, vw = np.stack([tables["fi"], tables["fe"]]), kind[w], layer[w], v[kind[w] * W * M + at[w]]
        accept, edge = _wedges(f[kw, lw - 1], f[kw, lw], _uniform(r[q[w] + 1, m[w]]),
                               np.where(kw, -vw, -0.5 * vw * vw))
        end[w] = np.where(edge, W + 2, np.where(accept, q[w] + 2, W + 1))
        again = w[~accept & ~edge]  # these restart on the output after the uniform
    for k in np.flatnonzero(layer == 0).tolist():  # layer 0: the tails
        end[k], v[kind[k] * W * M + at[k]] = _tail_draw(r, int(q[k]), int(m[k]), kind[k] == 1, tables)
    after[kind * (W + 3) * M + at] = end * M + m
    at, values = kind[again] * (W + 3) * M + at[again], kind[again] * W * M + at[again]
    after[at] = -1
    while at.size:  # a restart ends where the draw two outputs on does, once that one is known
        ready = after[at + 2 * M] >= 0
        after[at[ready]], v[values[ready]] = after[at[ready] + 2 * M], v.take(values[ready] + 2 * M, mode="clip")
        at, values = at[~ready], values[~ready]
    return after


def _chain(r, x, accepted, col, tails, size_x: int, C: int, tables) -> tuple:
    """Read the block of outputs r (W, M) of M streams as numpy's generator draws their variates.

    Stream m's next variate is column ``col[m]`` of its row (``tails`` as in
    :func:`_sample`), and ``x``/``accepted`` are :func:`_normals` of r.
    Every output is read as the start of a normal draw and, in a block that
    holds a Pareto stream's radius column, of an exponential one
    (:func:`_pointers`): a variate accepted at first try is its draw's
    wherever it falls, so only the rejected ones are resolved, and each
    output points to the output after its draw.  Then one step per column
    follows those pointers for every stream at once, the exponential ones
    at a Pareto stream's radius columns.  Returns which of the (steps, M)
    draws from column ``col`` on ended inside the block and their variates,
    and per stream the outputs used, its next column, and whether numpy's
    generator draws it from there on: the streams whose next draw has a
    wedge test within rounding of its threshold.  A stream whose next draw
    needs outputs past W stops before it.
    """
    W, M = r.shape
    every = np.arange(M)
    steps = min(int(C - col.min()), W)
    columns = col + np.arange(steps)[:, None]
    radius = (tails > 0) & ((columns == size_x) | (columns == C - 1))
    if radius.any():
        exps, ok = _exponentials(r, tables)
        value, ok = np.stack([x, exps]), np.stack([accepted, ok])
    else:
        value, ok = x[None], accepted[None]
    after = _pointers(r, value, ok, tables)
    at = np.empty((steps + 1, M), dtype=np.int64)
    at[0] = every
    exponential = {step: np.flatnonzero(radius[step]) for step in np.flatnonzero(radius.any(axis=1)).tolist()}
    for step in range(steps):
        after.take(at[step], out=at[step + 1])
        if step in exponential:
            on = exponential[step]
            at[step + 1, on] = after.take(at[step, on] + (W + 3) * M)
    done = (at[1:] < (W + 1) * M) & (columns < C)  # the draws that end inside the block
    count = done.sum(axis=0)
    first = at[count, every]  # where each stream's first draw left starts
    value = value.reshape(-1)
    variates = value.take(at[:steps], mode="clip")
    edge = after.take(first) >= (W + 2) * M
    if len(ok) > 1:
        k, m = np.nonzero(radius)
        variates[k, m] = 1.0 + _expm1(value.take(at[k, m] + W * M, mode="clip") / tails[m])
        edge = np.where(radius[np.minimum(count, steps - 1), every], after.take(first + (W + 3) * M) >= (W + 2) * M,
                        edge)
    return done, variates, first // M, col + count, (count < steps) & (col + count < C) & edge


def _block(words, col, width: int, tails, size_x: int, C: int, tables) -> tuple:
    """Draw the next ``width`` outputs of M streams, at state and increment ``words`` (4, M), as numpy reads them.

    Stream m's next variate is column ``col[m]`` of its row (``tails`` as in
    :func:`_sample`).  A stream whose draws in the block all take one
    output each has each column's variate at its own output; the others
    are read by :func:`_chain`, with ``_SLACK`` outputs more for their
    rejected draws when the block holds the rest of every row.  Returns the
    (steps, M) columns of the block's draws, which of them ended inside it
    and their variates, the outputs each stream used and its state words
    after them, and per stream its next column and whether numpy's
    generator draws it from there on.
    """
    s_hi, s_lo, i_hi, i_lo = words
    deltas = _deltas(s_hi, s_lo, i_hi, i_lo)
    r = _outputs(s_hi, s_lo, deltas, 0, width)
    x, accepted = _normals(r, tables)
    W, M = r.shape
    steps = min(int(C - col.min()), W)
    k = np.arange(steps)[:, None]
    columns, used = col + k, np.minimum(C - col, W)  # used: the outputs of a stream whose draws take one each
    radius = (tails > 0) & ((columns == size_x) | (columns == C - 1))
    rk, rm = np.nonzero(radius)
    exps, ok = _exponentials(r[rk, rm], tables)
    bad = ~accepted[:steps] & (k < used)
    bad[rk, rm] = ~ok
    walk = np.flatnonzero(bad.any(axis=0))
    variates, done, numpy = x[:steps], k < used, np.zeros(M, dtype=bool)
    variates[rk, rm] = 1.0 + _expm1(exps / tails[rm])
    if walk.size:
        r = r.take(walk, axis=1)
        if W < _BLOCK:  # the block holds the rest of every row: room for the extra outputs of rejected draws
            r = np.vstack([r, _outputs(s_hi[walk], s_lo[walk], [d[walk] for d in deltas], W, _SLACK)])
        walk_done, walk_variates, used[walk], next_col, numpy[walk] = _chain(r, *_normals(r, tables), col[walk],
                                                                              tails[walk], size_x, C, tables)
        done[:, walk] = False
        done[:len(walk_done), walk], variates[:len(walk_done), walk] = walk_done, walk_variates
    state = np.stack(_advanced(s_hi, s_lo, deltas, used))
    col = col + used
    if walk.size:
        col[walk] = next_col
    return columns, done, variates, used, state, col, numpy


def _sample(states: np.ndarray, size_x: int, size_y: int, tails: np.ndarray, tables: dict) -> tuple:
    """The raw variates of the streams whose ``tails`` are not nan, bit for bit numpy's.

    Stream m's variates are ``size_x`` normals, its radius variate
    (:func:`_sampled_tail`), ``size_y`` normals and its radius variate: C
    columns, drawn in blocks of up to ``_BLOCK`` outputs (:func:`_block`).
    Returns the (K, C) variates (zero for a stream with tail nan), the (K,)
    index of the first variate the pass left to numpy's generator (C when
    none; 0 for a stream with tail nan), and the (K, 4) state and increment
    words before it (a stream's own words when there is none).  A stream
    leaves the pass at such a variate, which is one whose wedge test falls
    within rounding of its threshold, or one that needs more than a whole
    block of outputs.
    """
    K = len(states)
    drawn, start, resume = np.zeros((K, size_x + size_y + 2)), np.zeros(K, dtype=np.intp), states.copy()
    C = drawn.shape[1]
    cells = drawn.reshape(-1)
    live = np.flatnonzero(~np.isnan(tails))
    start[live] = C
    col, words, width = np.zeros(live.size, dtype=np.intp), states[live].T, min(_BLOCK, C)
    while live.size:
        columns, done, variates, used, state, col, numpy = _block(words, col, width, tails[live], size_x, C, tables)
        if done.all() and (columns[0] == columns[0, 0]).all():  # every stream drew the same columns
            drawn[live, columns[0, 0]:columns[-1, 0] + 1] = variates.T
        else:
            cells[(live * C + columns)[done]] = variates[done]
        words = np.concatenate([state, words[2:]])
        stuck = (used == 0) & (col < C)  # a stream that used no output of a full block goes to numpy
        numpy |= stuck & (width == _BLOCK)
        if numpy.any():
            start[live[numpy]], resume[live[numpy]] = col[numpy], words[:, numpy].T
        stay = (col < C) & ~numpy
        live, col, words = live[stay], col[stay], words[:, stay]
        if live.size:
            width = _BLOCK if stuck.any() else min(_BLOCK, int(C - col.min()))
    gaussian = np.flatnonzero(tails == 0.0)
    drawn[gaussian[:, None], [size_x, C - 1]] = np.abs(drawn[gaussian[:, None], [size_x, C - 1]])
    return drawn, start, resume
