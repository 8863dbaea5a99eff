"""Alternating parent/change benchmark pairs, written to one JSON record.

Usage (from the repository root)::

    python tools/bench_pairs.py --base HEAD --out BENCH_16.json \
        [--workload cli-sweep ...] [--seeds 901 902]

The working tree (every tracked file as it is on disk, plus the untracked
files git does not ignore) is written as a git tree object through a
temporary index; that tree and ``--base`` are each exported with ``git
archive`` into a temporary directory, so both sides run from clean
checkouts and nothing is fetched.  Each of the ``PAIRS`` pairs runs
``bench/run.py --workload W --seed S --seconds N`` once on each side, one
process at a time, N being ``BENCHMARK.json``'s ``run_seconds``; the side
that goes first alternates from pair to pair, so a drift in machine speed
falls on both sides alike.  Pair i uses seed ``seeds[i % len(seeds)]``.
The workloads default to those ``BENCHMARK.json`` declares.

The record names both sides: the base commit, and the head's tree hash
with the commit it was taken on and the paths that differ from that commit
(``git status --porcelain``).  It holds, per workload and end-to-end
metric, each side's values,
median and quartiles, the pairs the change won (lower is better for every
metric) and the change of the median; each side's failed-run counts; and
the environment the numbers were taken in: ``nproc``, the numpy version
and the BLAS thread count that ``bench/run.py`` reports.
"""

from __future__ import annotations

import argparse
import io
import json
import os
import statistics
import subprocess
import sys
import tarfile
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text())
METRICS = [metric["name"] for metric in BENCHMARK["end_to_end"]]  # every one lower-is-better
SECONDS = BENCHMARK["run_seconds"]
PAIRS = 10


def git(*args, env=None) -> bytes:
    return subprocess.run(["git", *args], cwd=ROOT, check=True, capture_output=True, env=env).stdout


def export_tree(treeish: str, dest: Path) -> None:
    """Extract ``treeish`` (a commit or a tree) into ``dest``."""
    with tarfile.open(fileobj=io.BytesIO(git("archive", "--format=tar", treeish))) as tar:
        tar.extractall(dest, filter="data")


def working_tree() -> dict:
    """The working tree as a git tree object, with the commit it sits on and the paths that differ from it."""
    with tempfile.TemporaryDirectory(prefix="bench-pairs-index-") as tmp:
        env = {**os.environ, "GIT_INDEX_FILE": str(Path(tmp) / "index")}
        git("read-tree", "HEAD", env=env)
        git("add", "--all", env=env)
        tree = git("write-tree", env=env).decode().strip()
    return {"commit": git("rev-parse", "HEAD").decode().strip(), "tree": tree,
            "changed": git("status", "--porcelain").decode().splitlines()}


def bench_once(tree: Path, workload: str, seed: int) -> dict:
    """One ``bench/run.py`` process: its result line and the environment line before it."""
    done = subprocess.run(
        [sys.executable, str(tree / "bench" / "run.py"), "--workload", workload, "--seed", str(seed),
         "--seconds", str(SECONDS)], cwd=tree, capture_output=True, text=True, check=False)
    lines = done.stdout.strip().splitlines()
    if done.returncode != 0 or not lines:
        raise RuntimeError(f"bench/run.py {workload} seed {seed} in {tree} exited with "
                           f"{done.returncode}:\n{done.stderr}")
    env = next((json.loads(line[len("# env "):]) for line in lines if line.startswith("# env ")), {})
    return {"result": json.loads(lines[-1]), "env": env}


def spread(values: list) -> dict:
    q1, median, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else values * 3
    return {"median": median, "q1": q1, "q3": q3, "values": values}


def summarize(pairs: list) -> dict:
    """Per metric: both sides' spreads, the pairs the change won and the relative change of the median."""
    out = {}
    for name in METRICS:
        sides = {side: [run[side]["result"]["metrics"][name]["value"] for run in pairs]
                 for side in ("base", "head")}
        base, head = spread(sides["base"]), spread(sides["head"])
        out[name] = {
            "base": base,
            "head": head,
            "head_wins": sum(h < b for b, h in zip(sides["base"], sides["head"])),
            "pairs": len(pairs),
            "median_change": head["median"] / base["median"] - 1.0,
            "base_iqr": base["q3"] - base["q1"],
        }
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--base", default="HEAD", help="git ref of the parent side (default HEAD)")
    parser.add_argument("--workload", action="append",
                        help="repeatable; default: every workload of BENCHMARK.json")
    parser.add_argument("--seeds", type=int, nargs="+", default=[901])
    parser.add_argument("--out", required=True, help="JSON file to write, e.g. BENCH_<pr>.json")
    args = parser.parse_args(argv)
    workloads = args.workload or [workload["name"] for workload in BENCHMARK["workloads"]]

    base = git("rev-parse", "--verify", f"{args.base}^{{commit}}").decode().strip()
    head = working_tree()
    record = {"base": base, "head": head, "pairs": PAIRS, "seconds": SECONDS,
              "seeds": args.seeds, "workloads": {}}
    with tempfile.TemporaryDirectory(prefix="bench-pairs-") as tmp:
        trees = {"base": Path(tmp) / "base", "head": Path(tmp) / "head"}
        for side, treeish in (("base", base), ("head", head["tree"])):
            trees[side].mkdir()
            export_tree(treeish, trees[side])
        for workload in workloads:
            pairs = []
            for i in range(PAIRS):
                seed = args.seeds[i % len(args.seeds)]
                order = ("base", "head") if i % 2 == 0 else ("head", "base")
                pair = {side: bench_once(trees[side], workload, seed) for side in order}
                pairs.append(pair)
                print(f"{workload} pair {i + 1}/{PAIRS} seed {seed}: " + "  ".join(
                    f"{side} {pair[side]['result']['metrics']['round_ms']['value']:.4f} ms"
                    for side in ("base", "head")), flush=True)
            env = pairs[0]["head"]["env"]
            record["workloads"][workload] = {
                "metrics": summarize(pairs),
                "failed": {side: [run[side]["result"]["failed"] for run in pairs]
                           for side in ("base", "head")},
                "seeds": [args.seeds[i % len(args.seeds)] for i in range(PAIRS)],
                "first": ["base" if i % 2 == 0 else "head" for i in range(PAIRS)],
            }
            record.setdefault("env", {key: env.get(key) for key in (
                "nproc", "cpus_usable", "python", "numpy", "blas", "blas_threads")})
    Path(args.out).write_text(json.dumps(record, indent=1) + "\n")
    for workload, data in record["workloads"].items():
        for name, m in data["metrics"].items():
            print(f"{workload:14s} {name:12s} base {m['base']['median']:.4f} (IQR {m['base_iqr']:.4f})  "
                  f"head {m['head']['median']:.4f}  change {m['median_change']:+.1%}  "
                  f"head wins {m['head_wins']}/{m['pairs']}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
