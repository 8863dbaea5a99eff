"""Re-derive or bound numpy's ziggurat tables through its public API and compare them with the shipped ones.

Usage (from the repository root)::

    python tools/ziggurat_tables.py    # exit 0 when every entry matches, else 1 (naming each mismatch)

``fedminimax.noise`` draws the normal and exponential variates of many
streams at once with the ziggurat tables of numpy's ``standard_normal``
(``wi``, ``ki``, ``fi``) and ``standard_exponential`` (``we``, ``ke``,
``fe``) and the three tail constants, which it ships as constants.  This
tool finds ``wi``, ``ki``, ``we`` and ``ke`` again by probing the
installed numpy: it sets the PCG64 state whose next 64-bit output is a
chosen ``r`` (``noise._crafted_state``, the rule the package's first-use
check crafts its streams with), draws one variate, and reads back
whether the draw took that one output or more.

* normal, ``idx = r & 0xff``, ``rabs = (r >> 9) & (2**52 - 1)``: with
  ``rabs = 1`` the variate is ``wi[idx]``; the draw takes one output
  exactly when ``rabs < ki[idx]``, so ``ki[idx]`` is the smallest ``rabs``
  that takes more, found by bisection;
* exponential, ``idx = (r >> 3) & 0xff``, ``ri = r >> 11``: with ``ri = 1``
  the variate is ``we[idx]``; ``ke[idx]`` is the smallest ``ri`` whose draw
  takes more than one output.

A layer whose ``k`` entry is 0 (layer 1 of both) rejects every first
output.  At ``rabs = 1`` (``ri = 1``) numpy's wedge test on the second
output, a uniform, then accepts the same variate ``wi[idx]``
(``we[idx]``) for any uniform not within rounding of 1, and a draw that
took exactly two outputs returned it; a draw that took more raises.

The rest is probed on streams whose first two outputs are chosen (the
increment ``(second - first * MULT) mod 2**128`` makes the output after
``first`` ``second``), the second read as the uniform ``(second >> 11) *
2**-53``:

* ``fi``/``fe``, bounded: for each layer i > 0, a value part an eighth of
  the way into the wedge from either end, and a uniform that puts the
  wedge test ``(f[i-1] - f[i]) * u + f[i] < exp(-x*x/2)`` (``exp(-x)``)
  a relative 2**-40 below its threshold and one 2**-40 above it, as the
  shipped table places it.  numpy must accept the first (the draw takes
  two outputs) and restart on the second.  The end nearer ``x[i]`` leans
  on ``f[i]``, the other on ``f[i-1]``, which is the entry named when
  numpy disagrees; an entry is so bounded to about a relative 2**-40;
* ``nor_r`` and ``exp_r``, re-derived: a layer-0 first output with the
  uniform 0 draws the tail's start itself (the normal tail then needs a
  third output above 0, which the chosen words get);
* ``nor_inv_r``, bounded: on 16 normal tails whose first pair of uniforms
  is accepted, ``nor_r + nor_inv_r * -log1p(-u)`` must be numpy's
  variate; the tool reports how many doubles within 8 ulps of the shipped
  value fit every probe.
"""

from __future__ import annotations

import math
import sys
from pathlib import Path

import numpy as np

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from fedminimax import noise  # noqa: E402


def probe_tables() -> dict:
    """The four tables as numpy's installed ziggurats use them."""
    rng = np.random.Generator(np.random.PCG64(0))
    bits = rng.bit_generator

    def take(r: int, variate) -> tuple:
        """The variate drawn when the next output is ``r``, and how many more outputs it took (0, 1 or 2+)."""
        bits.state = {"bit_generator": "PCG64", "state": {"state": noise._crafted_state(r), "inc": 1},
                      "has_uint32": 0, "uinteger": 0}
        value = variate()
        after = bits.state["state"]["state"]  # r itself when the draw took r alone, one step on per output more
        return value, 0 if after == r else 1 if after == (r * noise._PCG_MULT + 1) & noise._MASK128 else 2

    tables = {}
    families = (
        ("wi", "ki", rng.standard_normal, lambda idx, rabs: rabs << 9 | idx, 2**52),
        ("we", "ke", rng.standard_exponential, lambda idx, ri: ri << 11 | idx << 3, 2**53),
    )
    for w, k, variate, word, top in families:
        tables[w], tables[k] = np.empty(256), np.empty(256, dtype=np.uint64)
        for idx in range(256):
            tables[w][idx], extra = take(word(idx, 1), variate)
            if extra not in (0, 1) or extra == 1 and idx == 0:
                raise RuntimeError(f"{w}[{idx}]: the draw at 1 did not return its first output's variate")
            lo, hi = 0, top  # below lo a draw takes one output; from hi on (unless hi == top) more
            while lo < hi:
                mid = (lo + hi) // 2
                if take(word(idx, mid), variate)[1] == 0:
                    lo = mid + 1
                else:
                    hi = mid
            tables[k][idx] = lo
    return tables


def _two_outputs(first: int, second: int) -> dict:
    """The PCG64 state dict whose next two outputs are ``first`` and ``second``."""
    inc = (second - first * noise._PCG_MULT) & noise._MASK128
    return {"bit_generator": "PCG64", "state": {"state": noise._crafted_state(first, inc), "inc": inc},
            "has_uint32": 0, "uinteger": 0}


def _uniform_word(u: float) -> int:
    """The output whose uniform is the largest multiple of 2**-53 at most ``u`` (in [0, 1))."""
    return min(max(int(u * 2**53), 0), 2**53 - 1) << 11


def probe_wedges(tables: dict) -> list:
    """The ``fi``/``fe`` entries that numpy's wedge tests disagree with, one message each."""
    rng = np.random.Generator(np.random.PCG64(0))
    bits, wrong = rng.bit_generator, []
    families = (("fi", tables["wi"], tables["ki"], 52, 9, rng.standard_normal, lambda x: math.exp(-0.5 * x * x)),
                ("fe", tables["we"], tables["ke"], 53, 11, rng.standard_exponential, lambda x: math.exp(-x)))
    for name, w, k, width, shift, variate, density in families:
        f = tables[name]
        for layer in range(1, 256):
            lo = int(k[layer])
            for part, leans in (((7 * lo + 2**width) // 8, layer - 1), ((lo + 7 * 2**width) // 8, layer)):
                word = part << shift | (layer if shift == 9 else layer << 3)
                threshold = density(part * w[layer])
                for side, accepts in ((-1.0, True), (1.0, False)):
                    u = (threshold * (1.0 + side * 2.0**-40) - f[layer]) / (f[layer - 1] - f[layer])
                    second = _uniform_word(u)
                    bits.state = _two_outputs(word, second)
                    variate()
                    if (bits.state["state"]["state"] == second) != accepts:
                        wrong.append(f"{name}[{leans}]: numpy's wedge test of layer {layer} at value part {part} "
                                     f"{'restarts' if accepts else 'accepts'} at the uniform {second >> 11} * 2**-53")
    return wrong


def probe_tails(tables: dict) -> tuple:
    """(messages for ``nor_r``/``exp_r``/``nor_inv_r`` that numpy disagrees with, doubles that fit ``nor_inv_r``,
    normal-tail probes)."""
    rng = np.random.Generator(np.random.PCG64(0))
    bits, wrong = rng.bit_generator, []
    positive = (2**52 - 1 - 2**8) << 9  # a layer-0 normal word past ki[0]; bit 8 of rabs, the tail's sign, clear
    for name, first, variate in (("nor_r", positive, rng.standard_normal),
                                 ("exp_r", (2**53 - 1) << 11, rng.standard_exponential)):
        bits.state = _two_outputs(first, 0)
        value = variate()
        if value != tables[name]:
            wrong.append(f"{name}: numpy's tail starts at {value!r}, shipped {tables[name]!r}")
    # normal tails at chosen first uniforms, each after a first word (its ignored top three bits and low value
    # bits varied) whose third output gets the first pair accepted, so that the draw takes three outputs
    probes = []
    for spread in np.linspace(1.0, 6.0, 16).tolist():
        second = _uniform_word(-math.expm1(-spread))
        for first in (top << 61 | positive - (j << 10) for top in range(8) for j in range(8)):
            bits.state = _two_outputs(first, second)
            inc = bits.state["state"]["inc"]
            value = rng.standard_normal()
            if bits.state["state"]["state"] == (second * noise._PCG_MULT + inc) & noise._MASK128:
                probes.append((second, value))
                break

    def fits(inv_r) -> bool:
        return all(tables["nor_r"] + -inv_r * math.log1p(-(second >> 11) * 2.0**-53) == value
                   for second, value in probes)

    if not fits(tables["nor_inv_r"]):
        wrong.append(f"nor_inv_r: the shipped {tables['nor_inv_r']!r} misses numpy's variate on a normal tail")
    near = [np.float64(tables["nor_inv_r"])]
    for _ in range(8):
        near = [np.nextafter(near[0], -np.inf)] + near + [np.nextafter(near[-1], np.inf)]
    return wrong, sum(map(fits, near)), len(probes)


def main() -> int:
    probed, shipped = probe_tables(), noise.ziggurat_tables()
    bad = 0
    for name, table in probed.items():
        wrong = np.flatnonzero(table.view(np.uint64) != shipped[name].view(np.uint64))
        for idx in wrong:
            print(f"{name}[{idx}]: numpy {table[idx]!r}, shipped {shipped[name][idx]!r}")
        bad += wrong.size
    print(f"numpy {np.__version__}: {4 * 256 - bad} of {4 * 256} ziggurat entries match the shipped tables")
    wedges = probe_wedges(shipped)
    print("\n".join(wedges + [f"fi, fe: {4 * 255 - len(wedges)} of {4 * 255} wedge probes agree with the shipped "
                               "tables (each entry bounded to a relative 2**-40)"]))
    tails, fit, probes = probe_tails(shipped)
    print("\n".join(tails + [f"tails: nor_r and exp_r {'re-derived' if not tails else 'checked'}; {fit} of the 17 "
                              f"doubles within 8 ulps of nor_inv_r fit all {probes} normal-tail probes"]))
    return 1 if bad or wedges or tails else 0


if __name__ == "__main__":
    sys.exit(main())
