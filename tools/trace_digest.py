"""Print SHA-256 digests of a fixed set of runs, one line per run.

Each line names a run and gives five digests: of its trace CSV, of its
final server state together with the iterates of its last three records,
of ``verify_invariants(...).rows()`` on the trace in memory, of the same
rows on the trace read back from its CSV, with the column counts filled
in from the problem as ``fedminimax verify`` fills them, and of each
record's in-memory ``(centering_x, centering_y)`` pair.  A sweep line gives the digest of
its ``sweep_summary.csv``.  Two checkouts compute the same traces exactly
when their outputs are equal::

    python tools/trace_digest.py > new.txt    # in each checkout
    diff old.txt new.txt

The package is imported from ``src/`` of the checkout this file sits in,
and ``bench/matrix_saddle.py`` from its ``bench/`` (read only).  BLAS is
pinned to one thread before numpy loads, because the thread count changes
the last bits of a ``muon-da`` trace on matrix blocks.

Runs: the four algorithms on the d=10 and d_y=1 saddles (N=8, p=4, T=40)
under symmetrized-Pareto and Student-t noise with s=1.5, seeds 1 and 2;
the four algorithms on the CLI-default AUC problem (T=25), on it with
per-client ratios 0.05-0.4 with and without the pooled ratio, and on an
unequal-shard full-shard AUC problem built with ``make_auc_problem``; muon-da,
nsgda-m and sgda-clip on the 32x16 / 16x16 matrix saddle under both
``ns_mode`` values (T=12); two mixed stacks of nsgda-m and muon-da runs
under no noise model, family "none", Pareto and Student-t noise, one on
the d=10 saddle (T=40) and one on the CLI-default AUC problem (T=25),
each line digesting every trace of its ``run_stack``; nsgda-m and
muon-da on the d=10 saddle under Gaussian noise, nsgda-m on a d_x = d_y
= 200 saddle under Pareto noise (T=10), and one stack on the d=10
saddle that mixes Gaussian, two Pareto tails, Student-t and no noise
model; one stack on the d=10 saddle, at the diverging rates below, of
local-sgda-m under Pareto noise (it diverges in the middle of a stream
chunk), nsgda-m under Student-t, muon-da under Gaussian and a silent
sgda-clip run; one 4-algorithm x 2-tail-index CLI sweep.
Then, through the CLI: a 3-seed ``fedminimax run`` on the d=10 saddle (one
line per seed's trace); a ``fedminimax run`` of local-sgda-m on that
saddle with explicit rates at which it diverges before round 40, whose
trace must end in nan rows (the line gives their count, the exit status
and the trace digest); a sweep over the four algorithms x s in {1.2, 1.8}
x seeds {1, 2} on that saddle with those rates, at which every
local-sgda-m cell diverges at round 30 of 40 while the others go on; and
a sweep over the algorithm axis on the CLI-default AUC problem.
"""

from __future__ import annotations

import contextlib
import dataclasses
import hashlib
import io
import json
import os
import sys
import tempfile
from pathlib import Path

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"
ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "bench")]

import numpy as np  # noqa: E402

import fedminimax as fm  # noqa: E402
from fedminimax import cli  # noqa: E402
from matrix_saddle import make_matrix_saddle  # noqa: E402

ALGORITHMS = ("nsgda-m", "muon-da", "local-sgda-m", "sgda-clip")
NOISES = {
    "pareto": {"family": "symmetrized-pareto", "s": 1.5, "sigma": 1.0},
    "student-t": {"family": "student-t", "s": 1.5, "sigma": 1.0},
}
GAUSSIAN = {"family": "gaussian", "s": 2.0, "sigma": 1.0}
SADDLES = {"d10": {"d_x": 10, "d_y": 10}, "dy1": {"d_x": 10, "d_y": 1}}
# explicit rates at which local-sgda-m on the d=10 saddle diverges at round 30 of 40
DIVERGING_RATES = {"gamma_x": 10.0, "gamma_y": 10.0, "eta_x": 40.0, "eta_y": 40.0, "beta_x": 0.9, "beta_y": 0.9}
AUC_RATIOS = [0.05, 0.1, 0.15, 0.2, 0.25, 0.3, 0.35, 0.4]


def sha(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def array_bytes(arrays) -> bytes:
    """Shape, dtype and raw bytes of each array, so a reshaped copy hashes differently."""
    out = io.BytesIO()
    for a in arrays:
        a = np.ascontiguousarray(a)
        out.write(f"{a.shape}{a.dtype.str}".encode())
        out.write(a.tobytes())
    return out.getvalue()


def digest_run(label, algorithm, problem, hp, noise, seed, tmp: Path) -> str:
    trace = fm.run(algorithm, problem, hp, noise=noise, seed=seed)
    path = tmp / "trace.csv"
    fm.trace_to_csv(trace, path)
    s = trace.final_state
    last = [a for r in trace.records[-3:] for a in (r.x, r.y) if a is not None]
    iterates = array_bytes([s.x, s.y, s.u, s.v, s.g_x, s.g_y] + last)
    rows = repr(fm.verify_invariants(trace, hp).rows()).encode()
    back = dataclasses.replace(fm.trace_from_csv(path), cols_x=problem.shape_x.cols,
                               cols_y=problem.shape_y.cols)
    disk_rows = repr(fm.verify_invariants(back, hp).rows()).encode()
    centering = repr([(r.centering_x, r.centering_y) for r in trace.records]).encode()
    return (f"{label} trace={sha(path.read_bytes())} iterates={sha(iterates)} "
            f"invariants={sha(rows)} disk={sha(disk_rows)} centering={sha(centering)}")


def digest_config(label, config: dict, tmp: Path) -> str:
    """A run built from a JSON config the way ``fedminimax run`` builds it."""
    cfg = cli.parse_config(json.dumps(config))
    problem = cli.build_problem(cfg)
    hp = cli.resolve_hyperparams(cfg, problem)
    return digest_run(label, cfg.algorithm, problem, hp, cfg.noise, cfg.seeds[0], tmp)


def digest_stack(label, config: dict, tmp: Path, noises=None) -> str:
    """One ``run_stack`` of nsgda-m and muon-da runs, silent and noisy, mixed; every trace digested.

    Run k of the 2 * len(noises) runs has seed k + 1 and noise model
    ``noises[(k + k // len(noises)) % len(noises)]``; the default models are
    none, family "none", Pareto and Student-t.
    """
    cfg = cli.parse_config(json.dumps(config))
    problem = cli.build_problem(cfg)
    hp = cli.resolve_hyperparams(cfg, problem)
    if noises is None:
        noises = [None, fm.NoiseModel(), fm.NoiseModel(**NOISES["pareto"]),
                  fm.NoiseModel(**NOISES["student-t"])]
    m = len(noises)
    specs = [fm.RunSpec(ALGORITHMS[k % 2], hp, noises[(k + k // m) % m], seed=k + 1) for k in range(2 * m)]
    return digest_specs(label, problem, specs, tmp)


def digest_specs(label, problem, specs: list, tmp: Path) -> str:
    """Every trace of one ``run_stack`` of ``specs``, each with its final server state."""
    path = tmp / "trace.csv"
    parts = []
    for trace in fm.run_stack(problem, specs):
        fm.trace_to_csv(trace, path)
        s = trace.final_state
        parts.append(f"{sha(path.read_bytes())}:{sha(array_bytes([s.x, s.y, s.u, s.v, s.g_x, s.g_y]))}")
    return f"{label} runs={len(specs)} traces={sha(' '.join(parts).encode())}"


def unequal_auc_problem():
    """Seven shards in three sizes (one of them alone), every gradient on the full shard."""
    shards = (fm.gen_imbalanced_data(400, [0.2, 0.3, 0.25], 20, 2.0, seed=3)
              + fm.gen_imbalanced_data(640, [0.1, 0.15, 0.4], 20, 2.0, seed=4)
              + fm.gen_imbalanced_data(250, [0.3], 20, 2.0, seed=5))
    test = fm.gen_imbalanced_data(2000, [0.2], 20, 2.0, seed=6)[0]
    return fm.make_auc_problem(shards, 20, batch_size=None, test_data=test)


def lines(tmp: Path):
    for name, spec in SADDLES.items():
        for noise_name, noise in NOISES.items():
            for algorithm in ALGORITHMS:
                for seed in (1, 2):
                    config = {"algorithm": algorithm, "N": 8, "p": 4, "T": 40, "seed": seed,
                              "problem": {"kind": "saddle", "hetero": 0.5, **spec},
                              "noise": noise}
                    yield digest_config(f"saddle-{name} {noise_name} {algorithm} seed={seed}",
                                        config, tmp)
    auc_specs = {"": "auc", " ratios": {"kind": "auc", "ratios": AUC_RATIOS},
                 " ratios pooled": {"kind": "auc", "ratios": AUC_RATIOS, "pooled_ratio": True}}
    for name, spec in auc_specs.items():
        for algorithm in ALGORITHMS:
            config = {"algorithm": algorithm, "problem": spec, "T": 25, "noise": NOISES["pareto"]}
            yield digest_config(f"auc{name} {algorithm}", config, tmp)
    problem = unequal_auc_problem()
    noise = fm.NoiseModel(**NOISES["pareto"])
    for algorithm in ALGORITHMS:
        hp = fm.theorem1_schedule(problem.n_clients, 4, 25, problem.smooth)
        yield digest_run(f"auc unequal full-shard {algorithm}", algorithm, problem, hp, noise, 1,
                         tmp)
    problem = make_matrix_saddle(8, 32, 16, 16)
    noise = fm.NoiseModel(**NOISES["pareto"])
    for ns_mode in ("iterative", "exact-svd"):
        hp = fm.theorem2_schedule(8, 4, 12, problem.smooth, ns_mode=ns_mode)
        for algorithm in ("muon-da", "nsgda-m", "sgda-clip"):
            yield digest_run(f"matrix {ns_mode} {algorithm}", algorithm, problem, hp, noise, 1, tmp)
    yield digest_stack("stack saddle-d10 mixed", {"N": 8, "p": 4, "T": 40, "problem": {
        "kind": "saddle", "hetero": 0.5, **SADDLES["d10"]}}, tmp)
    yield digest_stack("stack auc mixed", {"problem": "auc", "T": 25}, tmp)
    yield from sampler_lines(tmp)
    config = tmp / "sweep.json"
    config.write_text(json.dumps({"problem": {"kind": "saddle", "hetero": 0.5}, "T": 40,
                                  "seed": 1, "noise": NOISES["pareto"]}))
    axes = json.dumps({"algorithm": list(ALGORITHMS), "s": [1.3, 1.8]})
    with contextlib.redirect_stdout(io.StringIO()):
        status = cli.main(["sweep", "--config", str(config), "--axes", axes, "--out", str(tmp)])
    yield f"sweep status={status} summary={sha((tmp / 'sweep_summary.csv').read_bytes())}"
    yield from cli_lines(tmp)


def sampler_lines(tmp: Path):
    """Runs whose streams a problem that draws nothing samples under Pareto and Gaussian noise."""
    d10 = {"N": 8, "p": 4, "T": 40, "problem": {"kind": "saddle", "hetero": 0.5, **SADDLES["d10"]}}
    for algorithm in ("nsgda-m", "muon-da"):
        yield digest_config(f"saddle-d10 gaussian {algorithm} seed=1",
                            dict(d10, algorithm=algorithm, seed=1, noise=GAUSSIAN), tmp)
    # 402 normal and radius draws per stream: nearly every stream has a rejected draw
    wide = {"N": 8, "p": 4, "T": 10, "problem": {"kind": "saddle", "hetero": 0.5, "d_x": 200, "d_y": 200}}
    yield digest_config("saddle-d200 pareto nsgda-m seed=1",
                        dict(wide, algorithm="nsgda-m", seed=1, noise=NOISES["pareto"]), tmp)
    noises = [fm.NoiseModel(**GAUSSIAN), fm.NoiseModel(**NOISES["pareto"]),
              fm.NoiseModel(**dict(NOISES["pareto"], s=1.2, tail_exponent=1.3)),
              fm.NoiseModel(**NOISES["student-t"]), None]
    yield digest_stack("stack saddle-d10 gaussian pareto student-t silent", d10, tmp, noises)
    # 4 runs x 8 clients x 4 steps: a chunk holds rounds 28-31, and local-sgda-m diverges at round 30,
    # so the other three runs derive and sample the next chunk from round 31
    cfg = cli.parse_config(json.dumps(dict(d10, **DIVERGING_RATES)))
    problem = cli.build_problem(cfg)
    hp = cli.resolve_hyperparams(cfg, problem)
    specs = [fm.RunSpec("local-sgda-m", hp, fm.NoiseModel(**NOISES["pareto"]), seed=1),
             fm.RunSpec("nsgda-m", hp, fm.NoiseModel(**NOISES["student-t"]), seed=2),
             fm.RunSpec("muon-da", hp, fm.NoiseModel(**GAUSSIAN), seed=3),
             fm.RunSpec("sgda-clip", hp, None, seed=4)]
    yield digest_specs("stack saddle-d10 diverging mid-chunk", problem, specs, tmp)


def sweep_line(label, config: dict, axes: dict, tmp: Path) -> str:
    path = tmp / "sweep.json"
    path.write_text(json.dumps(config))
    out = tmp / "sweep"
    with contextlib.redirect_stdout(io.StringIO()):
        status = cli.main(["sweep", "--config", str(path), "--axes", json.dumps(axes),
                           "--out", str(out)])
    return f"{label} status={status} summary={sha((out / 'sweep_summary.csv').read_bytes())}"


def cli_lines(tmp: Path):
    saddle = {"problem": {"kind": "saddle", "hetero": 0.5}, "N": 8, "p": 4, "T": 40,
              "noise": NOISES["pareto"]}
    path = tmp / "run.json"
    path.write_text(json.dumps(dict(saddle, seeds=[1, 2, 3])))
    out = tmp / "run"
    with contextlib.redirect_stdout(io.StringIO()):
        status = cli.main(["run", "--config", str(path), "--out", str(out)])
    for seed in (1, 2, 3):
        trace = out / cli.trace_filename("nsgda-m", seed)
        yield f"cli-run saddle-d10 seed={seed} status={status} trace={sha(trace.read_bytes())}"
    diverging = dict(saddle, **DIVERGING_RATES)
    path.write_text(json.dumps(dict(diverging, algorithm="local-sgda-m", seed=1)))
    out = tmp / "run-diverging"
    with contextlib.redirect_stdout(io.StringIO()):
        status = cli.main(["run", "--config", str(path), "--out", str(out)])
    trace = out / cli.trace_filename("local-sgda-m", 1)
    rows = fm.trace_from_csv(trace).records
    nan_rows = len(rows) - next(t for t, r in enumerate(rows) if r.diverged)
    if not np.isnan(rows[-1].grad_phi_norm):
        raise AssertionError("the diverging local-sgda-m run should end in nan rows")
    yield (f"cli-run saddle-d10 diverging local-sgda-m status={status} nan_rows={nan_rows} "
           f"trace={sha(trace.read_bytes())}")
    yield sweep_line("sweep saddle-d10 diverging", diverging,
                     {"algorithm": list(ALGORITHMS), "s": [1.2, 1.8], "seed": [1, 2]}, tmp)
    yield sweep_line("sweep auc", {"problem": "auc", "T": 25, "noise": NOISES["pareto"]},
                     {"algorithm": list(ALGORITHMS)}, tmp)


def main() -> int:
    with tempfile.TemporaryDirectory() as tmp:
        for line in lines(Path(tmp)):
            print(line, flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
