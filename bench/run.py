"""Layered benchmark of fedminimax: four workloads, end-to-end and per-layer metrics.

Usage (from the repository root)::

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Load model: a closed loop of back-to-back passes (one ``run`` or one CLI
sweep each) from one process and one Python thread, with BLAS pinned to
one thread in this process and its children. One untimed warm-up pass
precedes the timed ones. Inputs come from ``--seed`` only.

``--trace 0`` reports the end-to-end metrics: ``setup_s`` (median over
fresh processes of the time from process start to the first timed round),
``round_ms`` (median over timed passes of pass wall time per round; the
table adds the quartiles and the pass count) and ``peak_rss_mb``. Both
times are given at a fixed reference speed of the machine: a shared host
runs the same code up to twice as fast in one minute as in the next, so
a fixed reference kernel (``reference_kernel``) is timed between passes
and around every set-up process, and each time is scaled by the ratio of
the kernel's nominal time to its adjacent measured time. The table also
prints the unscaled median and the speed the kernel saw. The
table also prints ``final_grad_phi`` (mean final-window |grad phi| over
the workload's distinct inputs) and, on ``auc-metrics``, ``final_auc``;
both are fixed by the seed. ``--trace 1`` alternates untraced and traced
passes and reports the per-layer metrics of ``tracing.py``. Every pass is
checked (see ``workloads.py``); failed runs are counted in ``failed``
against ``attempted``. The last line of standard output is one JSON
object; the lines before it are a readable table and the environment the
numbers were taken in.

The package is imported from ``src/`` of the checkout this file sits in;
without it the benchmark exits with code 1 and prints no result.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
import traceback
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src"
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
SETUP_REPEATS = 5
# the end-to-end metrics of the result line; the table also prints the
# quality figures final_grad_phi and final_auc, whose spread over seeds is
# too wide to bound (heavy-tailed noise), and failed_runs, which is 0
END_TO_END = ("round_ms", "setup_s", "peak_rss_mb")
SETUP_TIMEOUT_S = 60
# about the median time of one reference_kernel call on a 2.1 GHz Xeon (2 vCPUs,
# one BLAS thread); times are reported at this speed
REFERENCE_NOMINAL_MS = 2.0
REFERENCE_SHARE = 0.1  # reference time after each pass, as a share of the pass


def prepare() -> None:
    """Pin BLAS to one thread and make ``src/`` importable; exit 1 without it.

    Must run before numpy is imported. One BLAS thread is the measured
    choice on a 2-core box: a 64x64 SVD polar takes about 1.15 ms with one
    thread and 6.7 ms with two, and the thread count changes the last
    digits of a muon-da trace.
    """
    for var in BLAS_THREAD_VARS:
        os.environ[var] = "1"
    if not (SRC / "fedminimax" / "__init__.py").is_file():
        sys.exit(f"benchmark: no package source at {SRC / 'fedminimax'}; "
                 "run from a full checkout")
    sys.path.insert(0, str(SRC))
    import fedminimax

    if Path(fedminimax.__file__).resolve().parent != SRC / "fedminimax":
        sys.exit(f"benchmark: imported fedminimax from {fedminimax.__file__}, not {SRC}")


def blas_threads():
    """Thread count reported by the OpenBLAS numpy ships with, or None."""
    import ctypes

    import numpy as np

    libs = sorted((Path(np.__file__).parent.parent / "numpy.libs").glob("*openblas*.so*"))
    for lib in libs:
        handle = ctypes.CDLL(str(lib))
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            fn = getattr(handle, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return int(fn())
    return None


def git_commit():
    """Commit of the checkout from ``.git`` if there is one (no git process is started)."""
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return None
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    name = ref[5:]
    loose = ROOT / ".git" / name
    if loose.is_file():
        return loose.read_text().strip()
    packed = ROOT / ".git" / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    return None


def environment() -> dict:
    import numpy as np

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": blas_threads(),
        "git_commit": git_commit(),
        "loadavg": [round(v, 2) for v in os.getloadavg()],
    }


def reference_kernel() -> float:
    """A fixed mix of interpreter work, small numpy ops and small BLAS products.

    It resembles a round of the package (10- to 32-sized arrays, a random
    generator, Python-level loops) and never touches the package, so its
    time tracks only the speed the machine gives this process.
    """
    import numpy as np

    rng = np.random.default_rng(12345)
    A = rng.standard_normal((16, 16)) / 4
    B = rng.standard_normal((32, 16)) / 6
    x = rng.standard_normal(16)
    acc, table = 0.0, {}
    for i in range(120):
        y = A @ x + 0.1 * rng.standard_normal(16)
        x = y / np.linalg.norm(y)
        acc += float((B.T @ B)[0, 0]) + float(x @ x)
        table[i % 37] = table.get(i % 37, 0.0) + acc * 1e-9
    return acc + sum(table.values())


def reference_ms(budget_s: float) -> float:
    """Median ms of ``reference_kernel`` calls run for about ``budget_s`` (at least three)."""
    times = []
    deadline = time.perf_counter() + budget_s
    while len(times) < 3 or time.perf_counter() < deadline:
        t0 = time.perf_counter()
        reference_kernel()
        times.append((time.perf_counter() - t0) * 1e3)
    return statistics.median(times)


def measure_setup(workload: str, seed: int, tmp: Path) -> list:
    """Seconds from process start to ready-to-run, for fresh set-up processes.

    Each child prints ``time.monotonic()`` once set up; that clock is
    system-wide, so it compares with the parent's reading taken just
    before the child was started. Returns (seconds, reference ms around
    the child) pairs.
    """
    probe = Path(__file__).with_name("setup_probe.py")
    times = []
    ref_before = reference_ms(0.05)
    for i in range(SETUP_REPEATS):
        work = tmp / f"setup{i}"
        work.mkdir()
        start = time.monotonic()
        done = subprocess.run(
            [sys.executable, str(probe), workload, str(seed), str(work)],
            capture_output=True, text=True, timeout=SETUP_TIMEOUT_S, check=False)
        if done.returncode != 0:
            sys.exit(f"benchmark: set-up of {workload} failed:\n{done.stderr}")
        seconds = float(done.stdout.split()[-1]) - start
        ref_after = reference_ms(0.05)
        times.append((seconds, (ref_before + ref_after) / 2))
        ref_before = ref_after
    return times


class Gate:
    """Runs attempted and failed, with the reason for every failure."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.errors: list = []

    def add(self, attempted: int, failed: int, errors: list) -> None:
        self.attempted += attempted
        self.failed += failed
        self.errors += errors


def timed_passes(wl, gate: Gate, seconds: float, tracer=None) -> dict:
    """Warm up, then run passes until ``seconds`` have elapsed.

    Without a tracer every input is run at least once, so that
    ``final_grad_phi`` is fixed by the seed. With a tracer, passes
    alternate untraced and traced on the same input. After every pass the
    reference kernel runs for a tenth of the pass's time. Returns per-pass
    ms/round of both kinds, the untraced ones also scaled to the reference
    speed by the kernel's times before and after the pass, the traced
    passes' rounds, wall time and count, and the mean time of the gate's
    ``verify_invariants`` calls.
    """
    import fedminimax as fm

    verify_s = []

    def verify(trace, hp):
        t0 = time.perf_counter()
        report = fm.verify_invariants(trace, hp)
        verify_s.append(time.perf_counter() - t0)
        return report

    def one(k, traced):
        t0 = time.perf_counter()
        try:
            if traced:
                with tracer.patched():
                    out = wl.run_pass(k, tracer)
            else:
                out = wl.run_pass(k)
            wall = time.perf_counter() - t0
            failed, errors = wl.check(out, verify)
        except Exception:  # a run that raises is a failed run; measuring goes on
            gate.add(wl.runs_per_pass, wl.runs_per_pass,
                     [f"{wl.name} input {k}:\n{traceback.format_exc()}"])
            return None
        gate.add(wl.runs_per_pass, failed, errors)
        return wall, wl.rounds(out)

    one(0, False)
    res = {"untraced": [], "scaled": [], "traced": [], "traced_rounds": 0, "traced_wall": 0.0,
           "traced_passes": 0}
    alternate = tracer is not None
    i = 0
    min_passes = 2 if alternate else wl.distinct
    ref_before = reference_ms(0.02)
    deadline = time.perf_counter() + seconds
    while time.perf_counter() < deadline or i < min_passes:
        traced = alternate and i % 2 == 1
        done = one((i // 2 if alternate else i) % wl.distinct, traced)
        i += 1
        if done is None:
            continue
        wall, rounds = done
        ref_after = reference_ms(REFERENCE_SHARE * wall)
        res["traced" if traced else "untraced"].append(wall * 1e3 / rounds)
        if traced:
            res["traced_rounds"] += rounds
            res["traced_wall"] += wall
            res["traced_passes"] += 1
        else:
            speed = REFERENCE_NOMINAL_MS / ((ref_before + ref_after) / 2)
            res["scaled"].append(wall * 1e3 / rounds * speed)
        ref_before = ref_after
    res["verify_ms"] = statistics.fmean(verify_s) * 1e3 if verify_s else 0.0
    return res


def quartiles(values: list) -> tuple:
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    prepare()
    import tracing
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; choose from {sorted(WORKLOADS)}")
    (ROOT / ".bench_tmp").mkdir(exist_ok=True)
    tmp = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=ROOT / ".bench_tmp"))
    try:
        env = environment()
        wl = WORKLOADS[args.workload]()
        gate = Gate()
        startup_errors = wl.setup(args.seed, tmp)
        gate.add(0, int(bool(startup_errors)), startup_errors)
        tracer = tracing.Tracer() if args.trace else None
        res = timed_passes(wl, gate, args.seconds, tracer)
        try:
            determinism_errors = wl.determinism()
        except Exception:  # the designated re-run raised: it failed
            determinism_errors = [f"{wl.name} designated re-run:\n{traceback.format_exc()}"]
        gate.add(1, int(bool(determinism_errors)), determinism_errors)
        if not res["untraced"] or (args.trace and not res["traced"]):
            sys.exit("benchmark: no pass succeeded\n" + "\n".join(gate.errors))

        rows = []  # (name, value, unit, note) of every printed metric
        if args.trace:
            overhead = statistics.median(res["traced"]) / statistics.median(res["untraced"])
            layers = tracing.layer_metrics(tracer, res["traced_rounds"], res["traced_passes"],
                                           res["traced_wall"], res["verify_ms"], overhead)
            rows += [(name, layers[name], unit, "") for name, unit in tracing.PER_LAYER_UNITS.items()]
            reported = set(tracing.PER_LAYER_UNITS)
            notes = [f"traced passes {res['traced_passes']}, untraced {len(res['untraced'])}; "
                     f"absent layers: {', '.join(tracer.absent) or 'none'}"]
        else:
            setup = measure_setup(args.workload, args.seed, tmp)
            q1, med, q3 = quartiles(res["scaled"])
            raw = statistics.median(res["untraced"])
            rows += [
                ("setup_s", statistics.median(s * REFERENCE_NOMINAL_MS / ref for s, ref in setup), "s",
                 f"median of {len(setup)} fresh processes at reference speed; unscaled "
                 f"{statistics.median(s for s, _ in setup):.4f}"),
                ("round_ms", med, "ms",
                 f"q1 {q1:.4f}  q3 {q3:.4f}  n={len(res['scaled'])} passes at reference speed; "
                 f"unscaled {raw:.4f}"),
                ("peak_rss_mb", resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB", ""),
                ("final_grad_phi", wl.final_grad_phi(), "1", f"mean over {wl.distinct} inputs"),
            ]
            auc = wl.final_auc()
            if auc is not None:
                rows.append(("final_auc", auc, "1", f"mean over {wl.distinct} inputs"))
            reported = set(END_TO_END)
            notes = []
        notes.append(f"failed_runs {gate.failed}/{gate.attempted}")
        metrics = {name: {"value": value, "unit": unit}
                   for name, value, unit, _ in rows if name in reported}
        for name, value, unit, note in rows:
            print(f"{args.workload:14s} {name:32s} {value:14.6g} {unit:12s} {note}")
        for note in notes:
            print(f"{args.workload:14s} {note}")
        for error in gate.errors:
            print(f"FAILED {error}")
        print("# env " + json.dumps(env))
        print(json.dumps({"correct": gate.failed == 0, "attempted": gate.attempted,
                          "failed": gate.failed, "metrics": metrics}))
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
        with contextlib.suppress(OSError):  # left in place while another run uses it
            tmp.parent.rmdir()
    return 0


if __name__ == "__main__":
    sys.exit(main())
