"""The four workloads of the benchmark.

Each workload builds its inputs from the benchmark seed (``setup``), runs
one pass at a time (``run_pass``, one ``run`` or one CLI sweep), checks
every pass's outputs (``check``) and finally re-runs one designated run
to check that it is byte-identical (``determinism``). All of them use
symmetrized-Pareto noise with sigma = 1 and cycle through a few
(problem seed, run seed) pairs drawn from the benchmark seed.

* ``saddle-engine``: nsgda-m on the vector saddle; the client engine and
  the noise streams dominate, the per-round metrics are cheap.
* ``auc-metrics``: nsgda-m on the CLI-default AUC problem; the exact
  metrics, full-shard oracles and the pairwise AUC dominate.
* ``muon-polar``: muon-da with the iterative polar kernel on a matrix
  saddle; the only workload whose polar inputs have more than one column.
* ``cli-sweep``: ``fedminimax sweep`` over four algorithms and two tail
  indices; the only workload through config parsing, per-cell problem
  builds, the clip and unnormalized rules and result-file writes.
"""

from __future__ import annotations

import contextlib
import csv
import io
import json
import math
import shutil
from dataclasses import dataclass
from pathlib import Path

import numpy as np

import fedminimax as fm
from fedminimax import cli
from matrix_saddle import check_matrix_saddle, make_matrix_saddle

NOISE = {"family": "symmetrized-pareto", "s": 1.5, "sigma": 1.0}
N_CLIENTS, LOCAL_STEPS = 8, 4
UNBOUNDED = ("local-sgda-m",)  # may diverge by design; every other algorithm may not


def derived_seeds(seed: int, count: int) -> list:
    """``count`` (problem seed, run seed) pairs drawn from the benchmark seed."""
    state = np.random.SeedSequence(seed).generate_state(2 * count)
    return [(int(state[2 * i]), int(state[2 * i + 1])) for i in range(count)]


def _record_values(r) -> list:
    return [r.grad_phi_norm, r.f_value, r.grad_err_x, r.grad_err_y, r.max_drift_x,
            r.max_drift_y, r.server_step_x, r.server_step_y, r.potential]


@dataclass
class EngineInput:
    algorithm: str
    problem: fm.MinimaxProblem
    hp: fm.HyperParams
    noise: fm.NoiseModel
    seed: int


def _saddle_inputs(seed: int) -> tuple:
    noise = fm.NoiseModel(**NOISE)
    inputs = []
    for problem_seed, run_seed in derived_seeds(seed, 64):
        problem = fm.make_saddle_problem(N_CLIENTS, 10, 10, hetero=0.5, seed=problem_seed)
        hp = fm.theorem1_schedule(N_CLIENTS, LOCAL_STEPS, 50, problem.smooth)
        inputs.append(EngineInput("nsgda-m", problem, hp, noise, run_seed))
    return inputs, []


def _auc_inputs(seed: int) -> tuple:
    inputs = []
    for problem_seed, run_seed in derived_seeds(seed, 16):
        config = cli.parse_config(json.dumps({
            "algorithm": "nsgda-m", "problem": {"kind": "auc", "seed": problem_seed},
            "T": 60, "noise": NOISE}))
        problem = cli.build_problem(config)
        hp = cli.resolve_hyperparams(config, problem)
        inputs.append(EngineInput("nsgda-m", problem, hp, config.noise, run_seed))
    return inputs, []


def _muon_inputs(seed: int) -> tuple:
    noise = fm.NoiseModel(**NOISE)
    inputs, errors = [], []
    for problem_seed, run_seed in derived_seeds(seed, 32):
        problem = make_matrix_saddle(N_CLIENTS, 32, 16, 16, hetero=0.5, seed=problem_seed)
        errors += check_matrix_saddle(problem, run_seed)
        hp = fm.theorem2_schedule(N_CLIENTS, LOCAL_STEPS, 12, problem.smooth, ns_mode="iterative")
        inputs.append(EngineInput("muon-da", problem, hp, noise, run_seed))
    return inputs, errors


class EngineWorkload:
    """Back-to-back ``fedminimax.run`` calls, one input per pass."""

    runs_per_pass = 1

    def __init__(self, name: str, make_inputs):
        self.name = name
        self._make_inputs = make_inputs

    def setup(self, seed: int, tmp: Path) -> list:
        """Build the inputs; returns the messages of failed start-up checks."""
        self.tmp = tmp
        self.inputs, errors = self._make_inputs(seed)
        self.final = {}  # input index -> summary of its first run
        self.designated = None  # first trace of input 0
        return errors

    @property
    def distinct(self) -> int:
        return len(self.inputs)

    def run_pass(self, k: int, tracer=None):
        inp = self.inputs[k]
        problem, run = inp.problem, fm.run
        if tracer is not None:
            problem, run = tracer.wrap_problem(problem), tracer.wrap("fedopt.run", run)
        return k, run(inp.algorithm, problem, inp.hp, noise=inp.noise, seed=inp.seed)

    def rounds(self, output) -> int:
        return len(output[1].records)

    def check(self, output, verify) -> tuple:
        """(runs failed, failure messages) of one pass."""
        k, trace = output
        inp = self.inputs[k]
        where = f"{self.name} input {k}"
        errors = []
        report = verify(trace, inp.hp)
        if not report.passed:
            errors.append(f"{where}: invariants failed\n{report.summary()}")
        if len(trace.records) != inp.hp.T:
            errors.append(f"{where}: {len(trace.records)} records for T={inp.hp.T}")
        elif inp.algorithm not in UNBOUNDED and (
                trace.diverged or not np.all(np.isfinite([_record_values(r) for r in trace.records]))):
            errors.append(f"{where}: non-finite record from bounded {inp.algorithm}")
        else:
            last = trace.records[-1]
            grad = np.linalg.norm(fm.phi_value_and_grad(inp.problem, last.x)[1])
            if not abs(grad - last.grad_phi_norm) <= 1e-12 * max(1.0, grad):
                errors.append(f"{where}: recorded |grad phi| {last.grad_phi_norm!r} "
                              f"!= {grad!r} recomputed at the recorded iterate")
            if inp.problem.auc_eval is not None and inp.problem.auc_eval(last.x) != last.auc:
                errors.append(f"{where}: recorded AUC differs from the recomputed one")
        if k not in self.final:
            self.final[k] = trace.summary()
            if k == 0:
                self.designated = trace
        return int(bool(errors)), errors

    def final_grad_phi(self) -> float:
        return float(np.mean([s["final_window_grad_phi"] for s in self.final.values()]))

    def final_auc(self):
        aucs = [s["final_auc"] for s in self.final.values()]
        return None if None in aucs else float(np.mean(aucs))

    def determinism(self) -> list:
        inp = self.inputs[0]
        again = fm.run(inp.algorithm, inp.problem, inp.hp, noise=inp.noise, seed=inp.seed)
        first, second = self.tmp / "designated_first.csv", self.tmp / "designated_again.csv"
        fm.trace_to_csv(self.designated, first)
        fm.trace_to_csv(again, second)
        if first.read_bytes() != second.read_bytes():
            return [f"{self.name}: re-run of input 0 is not byte-identical"]
        return []


class CliSweep:
    """Back-to-back ``fedminimax sweep`` invocations through ``cli.main``."""

    name = "cli-sweep"
    AXES = {"algorithm": ["nsgda-m", "muon-da", "sgda-clip", "local-sgda-m"], "s": [1.2, 1.8]}
    T = 20
    runs_per_pass = math.prod(len(v) for v in AXES.values())  # one run per cell

    def setup(self, seed: int, tmp: Path) -> list:
        self.tmp = tmp
        self.configs = []
        for k, (problem_seed, run_seed) in enumerate(derived_seeds(seed, 16)):
            # the base cell equals the sweep's (nsgda-m, s=1.2) cell
            config = {
                "algorithm": "nsgda-m", "N": N_CLIENTS, "p": LOCAL_STEPS, "T": self.T,
                "problem": {"kind": "saddle", "d_x": 10, "d_y": 10, "hetero": 0.5,
                            "seed": problem_seed},
                "seeds": [run_seed], "noise": dict(NOISE, s=1.2),
            }
            path = tmp / f"config{k}.json"
            path.write_text(json.dumps(config))
            self.configs.append((path, run_seed))
        self.axes = tmp / "axes.json"
        self.axes.write_text(json.dumps(self.AXES))
        self.final = {}  # config index -> final-window |grad phi| of each cell
        self.designated_row = None
        return []

    @property
    def distinct(self) -> int:
        return len(self.configs)

    def run_pass(self, k: int, tracer=None):
        out = self.tmp / "sweep"
        main = cli.main if tracer is None else tracer.wrap("cli.main", cli.main)
        argv = ["sweep", "--config", str(self.configs[k][0]), "--axes", f"@{self.axes}",
                "--out", str(out)]
        with contextlib.redirect_stdout(io.StringIO()):
            code = main(argv)
        return k, code, out

    def rounds(self, output) -> int:
        return self.runs_per_pass * self.T

    def check(self, output, verify) -> tuple:
        k, code, out = output
        path = out / "sweep_summary.csv"
        where = f"{self.name} config {k}"
        if code != 0 or not path.is_file():
            return self.runs_per_pass, [f"{where}: exit code {code}"]
        with open(path, newline="") as fh:
            rows = list(csv.DictReader(fh))
        shutil.rmtree(out)
        want = {(a, s) for a in self.AXES["algorithm"] for s in self.AXES["s"]}
        if len(rows) != self.runs_per_pass or {(r["algorithm"], float(r["s"])) for r in rows} != want:
            return self.runs_per_pass, [f"{where}: {len(rows)} rows, want one per cell"]
        errors = []
        for row in rows:
            if row["algorithm"] not in UNBOUNDED and (
                    row["diverged"] != "0" or not math.isfinite(float(row["final_window_grad_phi"]))):
                errors.append(f"{where}: bounded {row['algorithm']} at s={row['s']} diverged")
        if k not in self.final:
            self.final[k] = [float(r["final_window_grad_phi"]) for r in rows]
            if k == 0:
                self.designated_row = next(r for r in rows
                                           if (r["algorithm"], float(r["s"])) == ("nsgda-m", 1.2))
        return len(errors), errors

    def final_grad_phi(self) -> float:
        return float(np.mean([v for k in sorted(self.final) for v in self.final[k]]))

    def final_auc(self):
        return None

    def determinism(self) -> list:
        """Run the designated cell twice with ``fedminimax run`` and compare the traces.

        The trace must also reproduce the sweep's summary row for that cell.
        """
        config, run_seed = self.configs[0]
        traces = []
        for name in ("designated_first", "designated_again"):
            with contextlib.redirect_stdout(io.StringIO()):
                code = cli.main(["run", "--config", str(config), "--out", str(self.tmp / name)])
            if code != 0:
                return [f"{self.name}: designated run exited with code {code}"]
            traces.append(self.tmp / name / cli.trace_filename("nsgda-m", run_seed))
        errors = []
        if traces[0].read_bytes() != traces[1].read_bytes():
            errors.append(f"{self.name}: re-run of the designated cell is not byte-identical")
        summary = fm.trace_from_csv(traces[0]).summary()
        if format(summary["final_window_grad_phi"], ".17g") != self.designated_row["final_window_grad_phi"]:
            errors.append(f"{self.name}: sweep row differs from the designated run's trace")
        return errors


WORKLOADS = {
    "saddle-engine": lambda: EngineWorkload("saddle-engine", _saddle_inputs),
    "auc-metrics": lambda: EngineWorkload("auc-metrics", _auc_inputs),
    "muon-polar": lambda: EngineWorkload("muon-polar", _muon_inputs),
    "cli-sweep": CliSweep,
}
