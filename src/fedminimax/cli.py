"""Configuration-driven front end.

Commands::

    fedminimax run    --config cfg.json [--out DIR] [--seed N]
    fedminimax sweep  --config cfg.json --axes AXES --out DIR
    fedminimax verify --trace trace.csv --config cfg.json

Configs are plain JSON with a flat schema; every field has a default
(``CONFIG_DEFAULTS``, the spec dataclasses and ``NoiseModel``).  Either a
schedule selector ("theorem1"/"theorem2") or the six explicit rates may be
given, never both.  ``parse_config`` is the only validator, so a config it
accepts builds and runs.  ``AXES`` is a JSON object over {algorithm, p, T,
N, s, seed}, either inline or @file; each sweep cell is the base config
with its axis values set, parsed as a config before any file is written.

Exit codes: 0 ok, 1 usage/config/parse error, 2 invariant violation,
3 I/O failure.  The default output directory comes from the
FEDMINIMAX_OUTDIR environment variable, falling back to the working
directory.
"""

from __future__ import annotations

import argparse
import dataclasses
import itertools
import json
import os
import sys
import typing
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .core import (
    ALGORITHMS,
    HyperParams,
    NoiseModel,
    hyperparam_errors,
    noise_errors,
    theorem1_schedule,
    theorem2_schedule,
)
from .fedopt import InternalInvariantViolation, run, trace_from_csv, trace_to_csv
from .metrics import verify_invariants
from .noise import seed_errors
from .problems import (auc_errors, gen_imbalanced_data, imbalanced_data_errors, make_auc_problem,
                       make_saddle_problem, saddle_errors)

ENV_OUTDIR = "FEDMINIMAX_OUTDIR"

RATE_KEYS = ("gamma_x", "gamma_y", "eta_x", "eta_y", "beta_x", "beta_y")
SWEEP_AXES = ("algorithm", "p", "T", "N", "s", "seed")
BASELINE_BETA = 0.9  # fixed momentum for the baselines when a schedule is selected

CONFIG_DEFAULTS = {
    "algorithm": "nsgda-m",
    "problem": "saddle",
    "N": 8,
    "p": 4,
    "T": 100,
    "seeds": (1,),
    "schedule": "theorem1",
    "constants": (1.0, 1.0, 1.0),
    "out": None,
    "momentum_warm_start": False,
    "halt_on_divergence": False,
    "phi_tol": 1e-8,
    # tau, ns_iters, ns_mode and zero_momentum_policy
    **{f.name: f.default for f in dataclasses.fields(HyperParams) if f.default is not dataclasses.MISSING},
}


class ConfigError(ValueError):
    def __init__(self, errors):
        self.errors = list(errors)
        super().__init__("invalid config:\n" + "\n".join(f"  - {e}" for e in self.errors))


@dataclass(frozen=True)
class SaddleSpec:
    d_x: int = 10
    d_y: int = 10
    mu: float = 1.0
    amp: float = 1.0
    hetero: float = 0.0
    seed: int = 0


@dataclass(frozen=True)
class AucSpec:
    n_per_client: int = 640
    ratio: float = 0.1
    ratios: Optional[tuple] = None  # per-client list overrides `ratio`
    dim: int = 20
    separation: float = 2.0
    batch_size: int = 64
    pooled_ratio: bool = False
    spread: float = 0.5
    seed: int = 0
    test_size: int = 2000


@dataclass(frozen=True)
class ExperimentConfig:
    algorithm: str
    problem: object  # SaddleSpec | AucSpec
    N: int
    p: int
    T: int
    seeds: tuple
    schedule: Optional[str]
    constants: tuple
    explicit: Optional[dict]  # the six rates when schedule is None
    tau: float
    ns_iters: int
    ns_mode: str
    zero_momentum_policy: str
    noise: NoiseModel
    out: Optional[str]
    momentum_warm_start: bool
    halt_on_divergence: bool
    phi_tol: float


PROBLEM_KINDS = {"saddle": SaddleSpec, "auc": AucSpec}


def _take(data: dict, key, want, errors, default=None):
    """Pop data[key], type-checked against `want` (a type or tuple of types)."""
    if key not in data:
        return default
    val = data.pop(key)
    kinds = want if isinstance(want, tuple) else (want,)
    if bool in kinds and isinstance(val, bool):
        return val
    if isinstance(val, bool) and bool not in kinds:
        errors.append(f"{key}: expected {want}, got a boolean")
        return default
    if float in kinds and isinstance(val, int):
        return float(val)
    if not isinstance(val, kinds):
        errors.append(f"{key}: expected {tuple(k.__name__ for k in kinds)}, got {type(val).__name__}")
        return default
    return val


def _json_types(cls) -> dict:
    """The JSON types each field of dataclass `cls` accepts, by its annotation; a tuple takes a list."""
    return {name: tuple(list if k is tuple else k for k in typing.get_args(hint) or (hint,))
            for name, hint in typing.get_type_hints(cls).items()}


JSON_TYPES = {cls: _json_types(cls) for cls in (SaddleSpec, AucSpec, NoiseModel)}


def _take_fields(cls, data: dict, prefix: str, errors) -> dict:
    """Pop every field of dataclass `cls` from data, type-checked, its default if absent."""
    found: list = []
    values = {f.name: _take(data, f.name, JSON_TYPES[cls][f.name], found, f.default)
              for f in dataclasses.fields(cls)}
    errors += [f"{prefix}{e}" for e in found] + [f"{prefix}{key}: unknown key" for key in data]
    return values


def _is_number(v) -> bool:
    return isinstance(v, (int, float)) and not isinstance(v, bool)


def _parse_problem(raw, errors):
    if isinstance(raw, str):
        raw = {"kind": raw}
    if not isinstance(raw, dict):
        errors.append(f"problem: expected a kind string or object, got {type(raw).__name__}")
        return SaddleSpec()
    raw = dict(raw)
    kind = raw.pop("kind", CONFIG_DEFAULTS["problem"])
    if kind not in PROBLEM_KINDS:
        errors.append(f"problem.kind: unknown kind {kind!r}")
        return SaddleSpec()
    values = _take_fields(PROBLEM_KINDS[kind], raw, "problem.", errors)
    ratios = values.get("ratios")
    if ratios is not None:
        if all(map(_is_number, ratios)):
            values["ratios"] = tuple(float(r) for r in ratios)
        else:
            errors.append(f"problem.ratios: must be a list of numbers, got {ratios!r}")
            values["ratios"] = None
    return PROBLEM_KINDS[kind](**values)


def _auc_sets(spec: AucSpec, N: int) -> tuple:
    """(size, ratios) of the N training shards and of the test set drawn at their mean ratio."""
    ratios = list(spec.ratios) if spec.ratios is not None else [spec.ratio] * N
    return (spec.n_per_client, ratios), (spec.test_size, [float(np.mean(ratios))])


def _renamed(message: str, field: str) -> str:
    """A problem maker's "argument: ..." message, named after the spec field it came from."""
    return f"{field}: {message.split(': ', 1)[1]}"


def _problem_errors(spec, N: int) -> list:
    """Every rule the problem makers put on the spec under N clients, as "problem.<field>: ..." messages."""
    if isinstance(spec, SaddleSpec):
        found = saddle_errors(N, spec.d_x, spec.d_y, spec.mu, spec.amp, spec.seed)
    else:
        (n, ratios), (n_test, test_ratios) = _auc_sets(spec, N)
        field = "ratio" if spec.ratios is None else "ratios"
        found = [_renamed(m, field) if m.startswith("ratios:") else m
                 for m in imbalanced_data_errors(n, ratios, spec.dim, spec.seed)]
        found += auc_errors(spec.batch_size)
        if len(ratios) != N:
            found.append(f"ratios: has {len(ratios)} entries for N={N} clients")
        if not found:  # then only test_size can leave the test set short of a class
            found = [_renamed(m, "test_size")
                     for m in imbalanced_data_errors(n_test, test_ratios, spec.dim, spec.seed + 1)]
    return [f"problem.{m}" for m in found]


def parse_config(text: str) -> ExperimentConfig:
    """Parse and fully validate a JSON config; reports every error at once."""
    errors: list = []
    try:
        data = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ConfigError([f"not valid JSON: {exc}"]) from None
    if not isinstance(data, dict):
        raise ConfigError(["top level must be a JSON object"])
    data = dict(data)

    algorithm = _take(data, "algorithm", str, errors, CONFIG_DEFAULTS["algorithm"])
    if algorithm not in ALGORITHMS:
        errors.append(f"algorithm: unknown {algorithm!r}; choose from {ALGORITHMS}")
    problem = _parse_problem(data.pop("problem", CONFIG_DEFAULTS["problem"]), errors)

    N = _take(data, "N", int, errors, CONFIG_DEFAULTS["N"])
    p = _take(data, "p", int, errors, CONFIG_DEFAULTS["p"])
    T = _take(data, "T", int, errors, CONFIG_DEFAULTS["T"])

    seed = _take(data, "seed", int, errors, None)
    seeds_raw = _take(data, "seeds", list, errors, None)
    if seed is not None and seeds_raw is not None:
        errors.append("seed and seeds are mutually exclusive")
    if seeds_raw is not None:
        if not seeds_raw or not all(isinstance(s, int) and not isinstance(s, bool) for s in seeds_raw):
            errors.append("seeds: must be a nonempty list of integers")
            seeds = CONFIG_DEFAULTS["seeds"]
        else:
            seeds = tuple(seeds_raw)
            errors += [f"seeds[{k}]: {e}" for k, s in enumerate(seeds) for e in seed_errors(s)]
    elif seed is not None:
        seeds = (seed,)
        errors += seed_errors(seed)
    else:
        seeds = CONFIG_DEFAULTS["seeds"]

    schedule = _take(data, "schedule", str, errors, None)
    explicit_given = {k: _take(data, k, float, errors) for k in RATE_KEYS}
    explicit_given = {k: v for k, v in explicit_given.items() if v is not None}
    if schedule is not None and explicit_given:
        errors.append(
            f"schedule and explicit rates are mutually exclusive (got schedule={schedule!r} "
            f"and {sorted(explicit_given)})")
    if schedule is None and not explicit_given:
        schedule = CONFIG_DEFAULTS["schedule"]
    if schedule is not None and schedule not in ("theorem1", "theorem2"):
        errors.append(f"schedule: must be 'theorem1' or 'theorem2', got {schedule!r}")
    explicit = None
    if schedule is None:
        missing = [k for k in RATE_KEYS if k not in explicit_given]
        if missing:
            errors.append(f"explicit mode needs all of {RATE_KEYS}; missing {missing}")
        explicit = explicit_given

    constants_raw = _take(data, "constants", list, errors, None)
    if constants_raw is None:
        constants = CONFIG_DEFAULTS["constants"]
    elif len(constants_raw) != 3 or any(not _is_number(c) or not c > 0 for c in constants_raw):
        errors.append("constants: must be three positive numbers")
        constants = CONFIG_DEFAULTS["constants"]
    else:
        constants = tuple(float(c) for c in constants_raw)

    tau = _take(data, "tau", float, errors, CONFIG_DEFAULTS["tau"])
    ns_iters = _take(data, "ns_iters", int, errors, CONFIG_DEFAULTS["ns_iters"])
    ns_mode = _take(data, "ns_mode", str, errors, CONFIG_DEFAULTS["ns_mode"])
    policy = _take(data, "zero_momentum_policy", str, errors, CONFIG_DEFAULTS["zero_momentum_policy"])
    errors += hyperparam_errors(N=N, p=p, T=T, tau=tau, ns_iters=ns_iters, ns_mode=ns_mode,
                                zero_momentum_policy=policy, **explicit_given)
    if not hyperparam_errors(N=N):  # the problem rules hold per client
        errors += _problem_errors(problem, N)

    kwargs = _take_fields(NoiseModel, dict(_take(data, "noise", dict, errors, {})), "noise.", errors)
    noise_msgs = [f"noise.{msg}" for msg in noise_errors(**kwargs)]
    errors += noise_msgs
    noise = None if noise_msgs else NoiseModel(**kwargs)

    out = _take(data, "out", (str, type(None)), errors, CONFIG_DEFAULTS["out"])
    warm = _take(data, "momentum_warm_start", bool, errors, CONFIG_DEFAULTS["momentum_warm_start"])
    halt = _take(data, "halt_on_divergence", bool, errors, CONFIG_DEFAULTS["halt_on_divergence"])
    phi_tol = _take(data, "phi_tol", float, errors, CONFIG_DEFAULTS["phi_tol"])
    if not phi_tol > 0:  # nan included, as the engine's check
        errors.append(f"phi_tol: must be positive, got {phi_tol}")

    for key in data:
        errors.append(f"{key}: unknown key")
    if errors:
        raise ConfigError(errors)
    return ExperimentConfig(
        algorithm=algorithm, problem=problem, N=N, p=p, T=T, seeds=seeds,
        schedule=schedule, constants=constants, explicit=explicit,
        tau=tau, ns_iters=ns_iters, ns_mode=ns_mode, zero_momentum_policy=policy,
        noise=noise, out=out, momentum_warm_start=warm,
        halt_on_divergence=halt, phi_tol=phi_tol,
    )


def serialize_config(config: ExperimentConfig) -> str:
    """Canonical JSON for a validated config; parse_config inverts it."""
    d = dataclasses.asdict(config)
    d.update(d.pop("explicit") or {})
    if d["schedule"] is None:
        del d["schedule"]
    kind = next(k for k, cls in PROBLEM_KINDS.items() if type(config.problem) is cls)
    d["problem"] = {"kind": kind, **{k: v for k, v in d["problem"].items() if v is not None}}
    return json.dumps(d, indent=2, sort_keys=True)


def build_problem(config: ExperimentConfig):
    """The problem of a config that ``parse_config`` accepted."""
    spec = config.problem
    if isinstance(spec, SaddleSpec):
        return make_saddle_problem(
            n_clients=config.N, d_x=spec.d_x, d_y=spec.d_y, mu=spec.mu,
            amp=spec.amp, hetero=spec.hetero, seed=spec.seed)
    (n, ratios), (n_test, test_ratios) = _auc_sets(spec, config.N)
    shards = gen_imbalanced_data(n, ratios, spec.dim, spec.separation,
                                 seed=spec.seed, spread=spec.spread)
    test = gen_imbalanced_data(n_test, test_ratios, spec.dim, spec.separation,
                               seed=spec.seed + 1, spread=spec.spread)[0]
    return make_auc_problem(
        shards, spec.dim, batch_size=spec.batch_size,
        pooled_ratio=spec.pooled_ratio, test_data=test)


def resolve_hyperparams(config: ExperimentConfig, problem) -> HyperParams:
    """Materialize HyperParams, applying the schedule when one is selected.

    The baselines keep their own conventional momentum (0.9) under a
    schedule; the scheduled beta targets the normalized/orthonormalized
    methods.
    """
    extras = dict(tau=config.tau, ns_iters=config.ns_iters, ns_mode=config.ns_mode,
                  zero_momentum_policy=config.zero_momentum_policy)
    if config.schedule is None:
        return HyperParams(N=config.N, p=config.p, T=config.T, **config.explicit, **extras)
    fn = theorem1_schedule if config.schedule == "theorem1" else theorem2_schedule
    hp = fn(config.N, config.p, config.T, problem.smooth, config.constants, **extras)
    if config.algorithm in ("local-sgda-m", "sgda-clip"):
        hp = dataclasses.replace(hp, beta_x=BASELINE_BETA, beta_y=BASELINE_BETA)
    return hp


def _outdir(config: ExperimentConfig, cli_out: Optional[str]) -> str:
    out = cli_out or config.out or os.environ.get(ENV_OUTDIR) or "."
    os.makedirs(out, exist_ok=True)
    return out


def trace_filename(algorithm: str, seed: int) -> str:
    return f"trace_{algorithm}_seed{seed}.csv"


def _run_or_report(config: ExperimentConfig, problem, hp: HyperParams, seed: int, label: str):
    """The run of one seed under the config, or None after reporting an invariant violation."""
    try:
        return run(config.algorithm, problem, hp, noise=config.noise, seed=seed,
                   momentum_warm_start=config.momentum_warm_start,
                   halt_on_divergence=config.halt_on_divergence, phi_tol=config.phi_tol)
    except InternalInvariantViolation as exc:
        print(f"{label}: invariant violation during run: {exc}", file=sys.stderr)
        return None


def cmd_run(config: ExperimentConfig, out: Optional[str] = None,
            seed_override: Optional[int] = None) -> int:
    """Run one experiment per seed, write trace CSVs, verify invariants.

    A seed whose run breaks an invariant is reported and skipped; the
    other seeds still run and write their traces.
    """
    out_dir = _outdir(config, out)
    problem = build_problem(config)
    hp = resolve_hyperparams(config, problem)
    seeds = (seed_override,) if seed_override is not None else config.seeds
    status = 0
    for seed in seeds:
        trace = _run_or_report(config, problem, hp, seed, f"seed {seed}")
        if trace is None:
            status = 2
            continue
        path = os.path.join(out_dir, trace_filename(config.algorithm, seed))
        trace_to_csv(trace, path)
        report = verify_invariants(trace, hp)
        summary = trace.summary()
        print(f"seed {seed}: wrote {path}  "
              f"grad_phi first={summary['first_window_grad_phi']:.4g} "
              f"final={summary['final_window_grad_phi']:.4g} "
              f"diverged={summary['diverged']} invariants={'ok' if report.passed else 'FAIL'}")
        if not report.passed:
            print(report.summary(), file=sys.stderr)
            status = 2
    return status


SWEEP_HEADER = "algorithm,p,T,N,s,seed,first_window_grad_phi,final_window_grad_phi,final_auc,diverged"


def _sweep_cell(base: str, overrides) -> ExperimentConfig:
    """The config of one sweep cell: the base config's JSON with each (axis, value) set."""
    data = json.loads(base)
    for axis, value in overrides:
        if axis == "s":
            data["noise"].update(s=value, tail_exponent=None)
        elif axis == "seed":
            data["seeds"] = [value]
        else:
            data[axis] = value
    return parse_config(json.dumps(data))


def cmd_sweep(config: ExperimentConfig, axes: dict, out: Optional[str] = None) -> int:
    """Run the cartesian grid, writing each cell's summary row as soon as it finishes.

    Every cell is parsed before anything is written, each axis value alone
    first. Cells with the same problem spec and N share one built problem.
    A cell that breaks an invariant is reported and skipped; the command
    then returns 2.
    """
    if not isinstance(axes, dict) or not axes:
        raise ConfigError(["axes: need a nonempty JSON object"])
    base = serialize_config(config)
    errors = []
    for axis, values in axes.items():
        if axis not in SWEEP_AXES:
            errors.append(f"axes: unknown axis {axis!r}; choose from {SWEEP_AXES}")
        elif not isinstance(values, list) or not values:
            errors.append(f"axes.{axis}: need a nonempty list of values")
        else:
            for k, value in enumerate(values):
                try:
                    _sweep_cell(base, [(axis, value)])
                except ConfigError as exc:
                    errors += [f"axes.{axis}[{k}]: {e}" for e in exc.errors]
    if errors:
        raise ConfigError(errors)
    if "seed" not in axes:
        axes = dict(axes, seed=list(config.seeds))
    names = list(axes)
    combos = list(itertools.product(*(axes[a] for a in names)))
    cells = [_sweep_cell(base, zip(names, combo)) for combo in combos]
    out_dir = _outdir(config, out)
    path = os.path.join(out_dir, "sweep_summary.csv")
    status, written = 0, 0
    problems = {}  # (problem spec, N) -> its problem, built once: problems are immutable
    with open(path, "w", newline="") as fh:
        fh.write(SWEEP_HEADER + "\n")
        for combo, cell in zip(combos, cells):
            key = (cell.problem, cell.N)
            if key not in problems:
                problems[key] = build_problem(cell)
            problem = problems[key]
            hp = resolve_hyperparams(cell, problem)
            seed = cell.seeds[0]
            label = "cell " + " ".join(f"{a}={v}" for a, v in zip(names, combo))
            trace = _run_or_report(cell, problem, hp, seed, label)
            if trace is None:
                status = 2
                continue
            s = trace.summary()
            fh.write(",".join([
                cell.algorithm, str(hp.p), str(hp.T), str(hp.N),
                format(cell.noise.s, ".17g"), str(seed),
                format(s["first_window_grad_phi"], ".17g"),
                format(s["final_window_grad_phi"], ".17g"),
                "" if s["final_auc"] is None else format(s["final_auc"], ".17g"),
                "1" if s["diverged"] else "0",
            ]) + "\n")
            fh.flush()
            written += 1
    print(f"wrote {path} ({written} cells)")
    return status


def cmd_verify(trace_path: str, config: ExperimentConfig) -> int:
    """Re-check the recorded invariants of a trace CSV against the config's bounds.

    Prints the human-readable report followed by a machine-readable CSV
    block (invariant,rounds_checked,max_violation,slack,passed).
    """
    trace = trace_from_csv(trace_path)
    problem = build_problem(config)
    hp = resolve_hyperparams(config, problem)
    report = verify_invariants(trace, hp)
    print(report.summary())
    print(f"result: {'all invariants pass' if report.passed else 'INVARIANT VIOLATION'}")
    print("invariant,rounds_checked,max_violation,slack,passed")
    for name, rounds, violation, slack, passed in report.rows():
        print(f"{name},{rounds},{format(violation, '.17g')},{format(slack, '.17g')},{int(passed)}")
    return 0 if report.passed else 2


def _load_config_arg(path: str) -> ExperimentConfig:
    with open(path) as fh:
        return parse_config(fh.read())


def _load_axes_arg(spec: str) -> dict:
    if spec.startswith("@"):
        with open(spec[1:]) as fh:
            spec = fh.read()
    try:
        axes = json.loads(spec)
    except json.JSONDecodeError as exc:
        raise ConfigError([f"axes: not valid JSON: {exc}"]) from None
    return axes


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(prog="fedminimax", description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="run one experiment per seed and write trace CSVs")
    p_run.add_argument("--config", required=True)
    p_run.add_argument("--out", default=None)
    p_run.add_argument("--seed", type=int, default=None)

    p_sweep = sub.add_parser("sweep", help="run a grid over {algorithm,p,T,N,s,seed}")
    p_sweep.add_argument("--config", required=True)
    p_sweep.add_argument("--axes", required=True, help="JSON object or @file")
    p_sweep.add_argument("--out", required=True)

    p_verify = sub.add_parser("verify", help="check invariants of a trace CSV")
    p_verify.add_argument("--trace", required=True)
    p_verify.add_argument("--config", required=True)

    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 1 if exc.code else 0

    try:
        if args.command == "run":
            config = _load_config_arg(args.config)
            return cmd_run(config, out=args.out, seed_override=args.seed)
        if args.command == "sweep":
            config = _load_config_arg(args.config)
            return cmd_sweep(config, _load_axes_arg(args.axes), out=args.out)
        if args.command == "verify":
            config = _load_config_arg(args.config)
            return cmd_verify(args.trace, config)
    except ConfigError as exc:
        print(exc, file=sys.stderr)
        return 1
    except ValueError as exc:  # malformed trace CSV
        print(exc, file=sys.stderr)
        return 1
    except InternalInvariantViolation as exc:
        print(f"invariant violation: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"I/O error: {exc}", file=sys.stderr)
        return 3
    return 0


if __name__ == "__main__":
    sys.exit(main())
