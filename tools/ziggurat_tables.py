"""Re-derive numpy's four ziggurat tables through its public API and compare them with the shipped ones.

Usage (from the repository root)::

    python tools/ziggurat_tables.py    # exit 0 when every entry matches, else 1 (naming each mismatch)

``fedminimax.noise`` draws the normal and exponential variates of many
streams at once with the ziggurat tables of numpy's ``standard_normal``
(``wi``, ``ki``) and ``standard_exponential`` (``we``, ``ke``), which it
ships as constants.  This tool finds each entry again by probing the
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
"""

from __future__ import annotations

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


def main() -> int:
    probed, shipped = probe_tables(), noise.ziggurat_tables()
    bad = 0
    for name, table in probed.items():
        wrong = np.flatnonzero(table.view(np.uint64) != shipped[name].view(np.uint64))
        for idx in wrong:
            print(f"{name}[{idx}]: numpy {table[idx]!r}, shipped {shipped[name][idx]!r}")
        bad += wrong.size
    print(f"numpy {np.__version__}: {4 * 256 - bad} of {4 * 256} ziggurat entries match the shipped tables")
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
