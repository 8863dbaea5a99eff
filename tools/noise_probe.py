"""Per-call cost of the vectorized noise pass at the benchmark workloads' shapes.

Usage (from the repository root)::

    python tools/noise_probe.py [--calls 21] [--src DIR]

For each shape it derives one chunk of stream states as ``run_stack``
does (``round_states``, the seeds' pools hashed once beforehand) and turns
them into raw variates (``stream_variates``, Pareto noise), and it draws
the same rows on numpy's per-stream loop: ``noise._finish`` from variate 0
with every row noisy, which resets one generator to each stream in turn
and draws its minibatch indices, then its variates.  That is the loop the
engine runs for a stream the pass leaves whole, and, with ``stoch_grad``
as the first draw, for a problem given by per-client callables.
The pass's rows must equal the loop's, bit for bit.  Calls alternate, the
pass first on even calls and the loop first on odd ones, and the table
gives the median per-call time in us and the peak of one call's traced
allocations (``tracemalloc``) in KB.  BLAS is pinned to one thread.

The shapes are those of the workloads' chunks: saddle-engine (512 streams
of 22 variates, one seed), cli-sweep (8 seeds, 512 x 22) and auc-metrics
(224 x 25 after 32 index words); three longer rows that no workload
draws: 256 x 402 (d = 200), 32 x 770 (a 32 x 16 and a 16 x 16 block) and
512 x 82 (d = 40); and cli-sweep's rows in a chunk four times
``STREAM_CHUNK``, 2048 x 22.  ``--src`` times the package of another checkout, such
as a parent commit's; one whose ``noise`` has no ``seed_pools`` hashes the
seeds in every ``round_states`` call.
"""

from __future__ import annotations

import os

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
import tracemalloc  # noqa: E402
from pathlib import Path  # noqa: E402

import numpy as np  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
N_CLIENTS, LOCAL_STEPS = 8, 4
# name, seeds, rounds, size_x, size_y, index words (minibatch of twice as many on the AUC problem)
SHAPES = [
    ("saddle-engine", 1, 16, 10, 10, 0),
    ("cli-sweep", 8, 2, 10, 10, 0),
    ("auc-metrics", 1, 7, 22, 1, 32),
    ("rows of 402", 1, 8, 200, 200, 0),
    ("rows of 770", 1, 1, 512, 256, 0),
    ("rows of 82", 1, 16, 40, 40, 0),
    ("chunk of 2048", 8, 8, 10, 10, 0),
]


def numpy_loop(noise, states, models, size_x, size_y, minibatch):
    """Every stream drawn on numpy's generator reset to its state: indices, then variates from variate 0."""
    K = len(states)
    drawn = noise.variate_rows(K, size_x, size_y)
    picks, bounds = None, None
    if minibatch is not None:
        picks = np.empty((K, minibatch[1]), dtype=np.int64)
        bounds = noise._cycled(np.asarray(minibatch[0], dtype=np.uint64), K)
    noise._finish(drawn, np.zeros(K, dtype=np.intp), states, models, np.ones(K, dtype=bool), size_x, picks, bounds)
    return drawn if picks is None else (picks, drawn)


def traced_peak(call) -> float:
    """The peak of one call's traced allocations, in KB."""
    tracemalloc.start()
    try:
        tracemalloc.reset_peak()
        base = tracemalloc.get_traced_memory()[0]
        call()
        return (tracemalloc.get_traced_memory()[1] - base) / 1024
    finally:
        tracemalloc.stop()


def timed(calls: int, *fns) -> list:
    """Median per-call us of each callable over ``calls`` calls each, the one that goes first rotating."""
    times = [[] for _ in fns]
    for i in range(calls):
        for j in np.roll(np.arange(len(fns)), i).tolist():
            start = time.perf_counter()
            fns[j]()
            times[j].append((time.perf_counter() - start) * 1e6)
    return [statistics.median(t) for t in times]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--calls", type=int, default=21, help="alternating calls per shape (default 21)")
    parser.add_argument("--src", type=Path, default=ROOT / "src", help="the package's source directory")
    args = parser.parse_args(argv)
    sys.path.insert(0, str(args.src.resolve()))
    import fedminimax as fm
    from fedminimax import noise

    tails = [fm.NoiseModel(s=s, sigma=1.0, family="symmetrized-pareto") for s in (1.2, 1.8, 1.5)]
    print(f"# numpy {np.__version__}, package {args.src}, {args.calls} alternating calls, one BLAS thread")
    print(f"{'shape':<14} {'streams':>7} {'C':>4} {'states us':>9} {'states KB':>9} {'pass us':>9} {'pass KB':>8} "
          f"{'loop us':>9} {'loop KB':>8} {'pass/loop':>9}")
    for name, seed_count, rounds, size_x, size_y, words in SHAPES:
        seeds = list(range(101, 101 + seed_count))
        models = [tails[k % len(tails)] for k in range(seed_count) for _ in range(N_CLIENTS)]
        minibatch = None if not words else ([96 + 16 * n for n in range(N_CLIENTS)], 2 * words)
        pools = noise.seed_pools(seeds) if hasattr(noise, "seed_pools") else None

        def states_call():
            extra = () if pools is None else (pools,)
            return noise.round_states(seeds, N_CLIENTS, LOCAL_STEPS, 5, rounds, *extra)

        states = states_call()
        pass_call = lambda: noise.stream_variates(states, models, size_x, size_y, minibatch)  # noqa: E731
        loop_call = lambda: numpy_loop(noise, states, models, size_x, size_y, minibatch)  # noqa: E731
        got, want = pass_call(), loop_call()
        if any(a.tobytes() != b.tobytes() for a, b in (zip(got, want) if minibatch else [(got, want)])):
            raise SystemExit(f"{name}: the pass's rows differ from numpy's per-stream loop")
        [states_us], (pass_us, loop_us) = timed(args.calls, states_call), timed(args.calls, pass_call, loop_call)
        print(f"{name:<14} {len(states):>7} {size_x + size_y + 2:>4} {states_us:>9.1f} "
              f"{traced_peak(states_call):>9.1f} {pass_us:>9.1f} {traced_peak(pass_call):>8.1f} {loop_us:>9.1f} "
              f"{traced_peak(loop_call):>8.1f} {pass_us / loop_us:>9.2f}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
