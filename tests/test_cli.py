import json
import os
import re
from pathlib import Path

import numpy as np
import pytest

from fedminimax import cli, fedopt
from fedminimax.cli import (
    ConfigError,
    build_problem,
    cmd_run,
    cmd_sweep,
    cmd_verify,
    main,
    parse_config,
    resolve_hyperparams,
    serialize_config,
    trace_filename,
)
from fedminimax.fedopt import trace_from_csv

MINIMAL = json.dumps({
    "algorithm": "nsgda-m", "problem": "saddle", "T": 10, "N": 2, "p": 1,
    "schedule": "theorem1", "seed": 1,
})

SMALL = {
    "algorithm": "nsgda-m",
    "problem": {"kind": "saddle", "d_x": 4, "d_y": 4, "hetero": 0.5, "seed": 3},
    "T": 6, "N": 2, "p": 2, "seed": 1, "schedule": "theorem1",
    "noise": {"family": "symmetrized-pareto", "s": 1.5, "sigma": 1.0},
}

# problem specs that break a problem-maker rule, with the config keys around
# them and the field the error must name
BAD_PROBLEMS = [
    ({"kind": "auc", "ratios": [0.1, 0.2]}, {"N": 3}, "problem.ratios"),
    ({"kind": "saddle", "d_x": 0}, {}, "problem.d_x"),
    ({"kind": "saddle", "seed": -1}, {}, "problem.seed"),
    ({"kind": "auc", "n_per_client": 10}, {}, "problem.n_per_client"),
    ({"kind": "auc", "batch_size": 0}, {}, "problem.batch_size"),
    ({"kind": "auc", "ratio": 0.99, "n_per_client": 10}, {}, "problem.ratio"),
    ({"kind": "auc", "test_size": 10}, {}, "problem.test_size"),
]


def test_parse_minimal_config_fills_defaults():
    cfg = parse_config(MINIMAL)
    assert cfg.algorithm == "nsgda-m"
    assert cfg.T == 10 and cfg.N == 2 and cfg.p == 1
    assert cfg.seeds == (1,)
    assert cfg.schedule == "theorem1"
    assert cfg.noise.family == "none"
    assert cfg.tau == 0.1
    assert cfg.problem.d_x == 10  # saddle defaults


def test_parse_rejects_schedule_plus_explicit_rate():
    text = json.dumps({"schedule": "theorem1", "gamma_x": 0.01})
    with pytest.raises(ConfigError, match="mutually exclusive"):
        parse_config(text)


def test_parse_rejects_beta_out_of_range():
    rates = dict(gamma_x=0.1, gamma_y=1.0, eta_x=0.01, eta_y=0.01, beta_x=1.5, beta_y=0.5)
    with pytest.raises(ConfigError, match="beta_x"):
        parse_config(json.dumps(rates))


def test_parse_collects_all_errors():
    text = json.dumps({"algorithm": "sgd", "T": 0, "bogus": 1,
                       "noise": {"family": "gaussian", "s": 1.5, "sigma": 1.0}})
    with pytest.raises(ConfigError) as exc:
        parse_config(text)
    msgs = "\n".join(exc.value.errors)
    assert "algorithm" in msgs and "T" in msgs and "bogus" in msgs and "noise" in msgs
    assert len(exc.value.errors) >= 4
    for ratios in ([{}], ["a"]):  # malformed entries are reported, not raised
        text = json.dumps({"problem": {"kind": "auc", "ratios": ratios},
                           "constants": [True, 1, 1], "T": 0})
        with pytest.raises(ConfigError) as exc:
            parse_config(text)
        msgs = "\n".join(exc.value.errors)
        assert "problem.ratios" in msgs and "constants" in msgs and "T" in msgs
    text = json.dumps({"noise": {"family": "gaussian", "s": 1.5, "sigma": -1}})
    with pytest.raises(ConfigError) as exc:  # every broken noise rule, not just the first
        parse_config(text)
    msgs = "\n".join(exc.value.errors)
    assert "noise.sigma: must be >= 0" in msgs and "gaussian noise is only valid with s=2" in msgs
    # seeds outside the stream domain [0, 2**64) are named with the other errors
    for bad, where in (({"seed": -1}, "seed:"), ({"seed": 2**64}, "seed:"),
                       ({"seeds": [1, -1]}, "seeds[1]: seed:")):
        with pytest.raises(ConfigError) as exc:
            parse_config(json.dumps({**bad, "T": 0}))
        msgs = "\n".join(exc.value.errors)
        assert f"{where} must be an integer in [0, 2**64)" in msgs and "T:" in msgs
    assert parse_config(json.dumps({"seed": 2**64 - 1})).seeds == (2**64 - 1,)
    text = json.dumps({"constants": [float("nan"), 1, 1], "T": 0})
    with pytest.raises(ConfigError) as exc:  # nan is not positive
        parse_config(text)
    assert sorted(e.split(":")[0] for e in exc.value.errors) == ["T", "constants"]
    for problem, extra, field in BAD_PROBLEMS:  # the problem makers' rules, checked up front
        with pytest.raises(ConfigError) as exc:
            parse_config(json.dumps({"problem": problem, **extra, "T": 0}))
        msgs = "\n".join(exc.value.errors)
        assert f"{field}: " in msgs and "T: " in msgs


EXPLICIT = {k: v for k, v in SMALL.items() if k != "schedule"}
EXPLICIT.update(gamma_x=0.05, gamma_y=0.5, eta_x=0.01, eta_y=0.01, beta_x=0.5, beta_y=0.5)
# configs with the placeholder "@" where a non-finite number goes, that number's
# JSON literal, and the key its error must name
NON_FINITE = [
    ({**SMALL, "algorithm": "sgda-clip", "tau": "@"}, "1e999", "tau"),
    ({**EXPLICIT, "gamma_x": "@"}, "Infinity", "gamma_x"),
    ({**SMALL, "noise": {**SMALL["noise"], "sigma": "@"}}, "Infinity", "noise.sigma"),
    ({**SMALL, "noise": {**SMALL["noise"], "tail_exponent": "@"}}, "1e999", "noise.tail_exponent"),
    ({**SMALL, "constants": [1, "@", 1]}, "Infinity", "constants"),
    ({**SMALL, "problem": {**SMALL["problem"], "hetero": "@"}}, "Infinity", "problem.hetero"),
    ({**SMALL, "problem": {"kind": "auc", "n_per_client": 100, "dim": 4, "test_size": 200,
                           "separation": "@"}}, "Infinity", "problem.separation"),
]


@pytest.mark.parametrize("config,literal,key", NON_FINITE, ids=[key for *_, key in NON_FINITE])
def test_non_finite_numbers_are_config_errors(tmp_path, capsys, config, literal, key):
    text = json.dumps(config).replace('"@"', literal)
    with pytest.raises(ConfigError) as exc:
        parse_config(text)
    assert f"{key}: numbers must be finite, got " in "\n".join(exc.value.errors)
    cfg_path, out = tmp_path / "cfg.json", tmp_path / "out"
    cfg_path.write_text(text)
    assert main(["run", "--config", str(cfg_path), "--out", str(out)]) == 1
    assert not out.exists()
    assert f"{key}: numbers must be finite" in capsys.readouterr().err


def test_parse_rejects_gaussian_with_low_s():
    text = json.dumps({"noise": {"family": "gaussian", "s": 1.5, "sigma": 1.0}})
    with pytest.raises(ConfigError, match="gaussian"):
        parse_config(text)


def test_parse_seed_and_seeds_exclusive():
    with pytest.raises(ConfigError, match="mutually exclusive"):
        parse_config(json.dumps({"seed": 1, "seeds": [1, 2]}))


def test_round_trip_schedule_config():
    cfg = parse_config(MINIMAL)
    assert parse_config(serialize_config(cfg)) == cfg


def test_round_trip_explicit_and_auc_config():
    text = json.dumps({
        "algorithm": "muon-da",
        "problem": {"kind": "auc", "n_per_client": 100, "ratios": [0.2, 0.3],
                    "dim": 4, "separation": 1.5},
        "N": 2, "p": 2, "T": 5, "seeds": [2, 4],
        "gamma_x": 0.05, "gamma_y": 0.5, "eta_x": 0.01, "eta_y": 0.01,
        "beta_x": 0.4, "beta_y": 0.4,
        "noise": {"family": "student-t", "s": 1.5, "sigma": 0.5, "tail_exponent": 1.9},
    })
    cfg = parse_config(text)
    assert cfg.schedule is None and cfg.explicit["gamma_x"] == 0.05
    assert parse_config(serialize_config(cfg)) == cfg


def test_resolve_hyperparams_schedule_and_baseline_beta():
    cfg = parse_config(json.dumps(SMALL))
    problem = build_problem(cfg)
    hp = resolve_hyperparams(cfg, problem)
    assert hp.N == 2 and hp.p == 2 and hp.T == 6
    assert hp.gamma_y == (10.0 * problem.smooth.kappa) * hp.gamma_x
    import dataclasses
    clip_cfg = dataclasses.replace(cfg, algorithm="sgda-clip")
    assert resolve_hyperparams(clip_cfg, problem).beta_x == 0.9


def test_cmd_run_writes_csv_with_t_rows(tmp_path):
    cfg = parse_config(json.dumps({**SMALL, "T": 3}))
    assert cmd_run(cfg, out=str(tmp_path)) == 0
    path = tmp_path / trace_filename("nsgda-m", 1)
    lines = path.read_text().splitlines()
    assert len(lines) == 4  # header + 3 data rows
    assert lines[0].startswith("round,algo,seed,grad_phi_norm")
    assert lines[1].split(",")[12] == ""  # auc column empty for non-AUC problems


def test_cmd_run_byte_identical(tmp_path):
    cfg = parse_config(json.dumps(SMALL))
    a, b = tmp_path / "a", tmp_path / "b"
    assert cmd_run(cfg, out=str(a)) == 0
    assert cmd_run(cfg, out=str(b)) == 0
    name = trace_filename("nsgda-m", 1)
    assert (a / name).read_bytes() == (b / name).read_bytes()


def inject_drift_fault(monkeypatch, seed, client=1, at_round=1):
    """Inside the stack, client_round reports 10x the x drift for run ``seed``'s client at one round."""
    real = fedopt.client_round

    def faulty(server, G_prev_x, G_prev_y, problem, specs, *rest):
        out = list(real(server, G_prev_x, G_prev_y, problem, specs, *rest))
        if server.round == at_round:
            out[4] = out[4].copy()
            for j, spec in enumerate(specs):
                if spec.seed == seed:
                    out[4][j * problem.n_clients + client] *= 10.0
        return tuple(out)

    monkeypatch.setattr(fedopt, "client_round", faulty)


def test_cmd_run_keeps_going_after_invariant_violation(tmp_path, monkeypatch, capsys):
    inject_drift_fault(monkeypatch, seed=1)
    base = {k: v for k, v in SMALL.items() if k != "seed"}
    cfg = parse_config(json.dumps({**base, "T": 3, "seeds": [1, 2]}))
    assert cmd_run(cfg, out=str(tmp_path)) == 2
    assert not (tmp_path / trace_filename("nsgda-m", 1)).exists()
    assert (tmp_path / trace_filename("nsgda-m", 2)).exists()
    assert re.search(r"seed 1: invariant violation during run: nsgda-m round 1: max_drift_x = .*client 1",
                     capsys.readouterr().err)


def test_cmd_sweep_grid_cardinality(tmp_path):
    cfg = parse_config(json.dumps({**SMALL, "T": 4}))
    axes = {"algorithm": ["nsgda-m", "muon-da"], "seed": [1, 2, 3]}
    assert cmd_sweep(cfg, axes, out=str(tmp_path)) == 0
    lines = (tmp_path / "sweep_summary.csv").read_text().splitlines()
    assert lines[0].startswith("algorithm,p,T,N,s,seed")
    assert len(lines) == 1 + 6


def test_cmd_sweep_keeps_rows_after_invariant_violation(tmp_path, monkeypatch, capsys):
    inject_drift_fault(monkeypatch, seed=3)  # the third of four cells
    cfg = parse_config(json.dumps({**SMALL, "T": 3}))
    assert cmd_sweep(cfg, {"seed": [1, 2, 3, 4]}, out=str(tmp_path)) == 2
    lines = (tmp_path / "sweep_summary.csv").read_text().splitlines()
    assert lines[0] == cli.SWEEP_HEADER
    assert [row.split(",")[5] for row in lines[1:]] == ["1", "2", "4"]
    assert re.search(r"cell seed=3: invariant violation during run: "
                     r"nsgda-m round 1: max_drift_x = .*client 1", capsys.readouterr().err)


def test_cmd_sweep_builds_each_problem_once(tmp_path, monkeypatch):
    builds = []

    def counting_build(config):
        builds.append(config.N)
        return build_problem(config)

    monkeypatch.setattr(cli, "build_problem", counting_build)
    cfg = parse_config(json.dumps({**SMALL, "T": 3}))
    axes = {"algorithm": list(cli.ALGORITHMS), "s": [1.5, 1.8]}
    assert cmd_sweep(cfg, axes, out=str(tmp_path / "grid")) == 0
    assert builds == [2]
    rows = (tmp_path / "grid" / "sweep_summary.csv").read_text().splitlines()[1:]
    # each cell alone, so with a problem of its own, writes the same row
    alone = []
    for algorithm in axes["algorithm"]:
        for s in axes["s"]:
            out = tmp_path / f"{algorithm}-{s}"
            assert cmd_sweep(cfg, {"algorithm": [algorithm], "s": [s]}, out=str(out)) == 0
            alone += (out / "sweep_summary.csv").read_text().splitlines()[1:]
    assert rows == alone
    builds.clear()
    assert cmd_sweep(cfg, {"N": [2, 3], "seed": [1, 2]}, out=str(tmp_path / "n")) == 0
    assert builds == [2, 3]


def test_cmd_sweep_single_cell_matches_run(tmp_path):
    cfg = parse_config(json.dumps(SMALL))
    assert cmd_run(cfg, out=str(tmp_path / "run")) == 0
    assert cmd_sweep(cfg, {"seed": [1]}, out=str(tmp_path / "sweep")) == 0
    trace = trace_from_csv(tmp_path / "run" / trace_filename("nsgda-m", 1))
    norms = [r.grad_phi_norm for r in trace.records]
    w = max(1, len(norms) // 10)
    row = (tmp_path / "sweep" / "sweep_summary.csv").read_text().splitlines()[1].split(",")
    assert float(row[6]) == pytest.approx(np.mean(norms[:w]), rel=1e-12)
    assert float(row[7]) == pytest.approx(np.mean(norms[-w:]), rel=1e-12)


def test_cmd_sweep_rejects_bad_axes(tmp_path):
    cfg = parse_config(json.dumps(SMALL))
    with pytest.raises(ConfigError):
        cmd_sweep(cfg, {}, out=str(tmp_path))
    with pytest.raises(ConfigError):
        cmd_sweep(cfg, {"flavor": [1]}, out=str(tmp_path))
    # every axis value passes its field's config checks before the header is written
    cases = {"p": [1.7], "N": [0], "seed": [-1, "x"]}
    for axis, values in cases.items():
        with pytest.raises(ConfigError) as exc:
            cmd_sweep(cfg, {axis: values}, out=str(tmp_path / axis))
        assert [e.split(":")[0] for e in exc.value.errors] == [
            f"axes.{axis}[{k}]" for k in range(len(values))]
    with pytest.raises(ConfigError) as exc:  # every bad value at once
        cmd_sweep(cfg, cases, out=str(tmp_path / "all"))
    assert len(exc.value.errors) == 4
    # an axis value that breaks a problem rule: the ratios count against N
    auc = parse_config(json.dumps({**SMALL, "problem": {"kind": "auc", "ratios": [0.1, 0.2]}}))
    with pytest.raises(ConfigError) as exc:
        cmd_sweep(auc, {"N": [3]}, out=str(tmp_path / "ratios"))
    assert exc.value.errors == ["axes.N[0]: problem.ratios: has 2 entries for N=3 clients"]
    # a base config that breaks a problem rule never reaches the header
    for k, (problem, extra, field) in enumerate(BAD_PROBLEMS[1:]):
        with pytest.raises(ConfigError, match=field):
            cmd_sweep(parse_config(json.dumps({**SMALL, "problem": problem, **extra})),
                      {"seed": [1]}, out=str(tmp_path / f"problem{k}"))
    assert not list(tmp_path.rglob("sweep_summary.csv"))


def test_cmd_verify_fresh_trace_passes(tmp_path):
    cfg = parse_config(json.dumps(SMALL))
    assert cmd_run(cfg, out=str(tmp_path)) == 0
    assert cmd_verify(str(tmp_path / trace_filename("nsgda-m", 1)), cfg) == 0


def test_cmd_verify_takes_the_column_counts_from_the_problem(tmp_path):
    # the CSV does not hold them, and the muon-da bound refuses to guess
    cfg = parse_config(json.dumps({**SMALL, "algorithm": "muon-da"}))
    assert cmd_run(cfg, out=str(tmp_path)) == 0
    path = tmp_path / trace_filename("muon-da", 1)
    assert trace_from_csv(path).cols_x is None
    assert cmd_verify(str(path), cfg) == 0


def test_cmd_verify_flags_tampered_drift(tmp_path, capsys):
    cfg = parse_config(json.dumps(SMALL))
    cmd_run(cfg, out=str(tmp_path))
    path = tmp_path / trace_filename("nsgda-m", 1)
    lines = path.read_text().splitlines()
    parts = lines[2].split(",")
    parts[7] = "999.0"  # inflate max_drift_x
    lines[2] = ",".join(parts)
    tampered = tmp_path / "tampered.csv"
    tampered.write_text("\n".join(lines) + "\n")
    assert cmd_verify(str(tampered), cfg) == 2
    assert "drift_x" in capsys.readouterr().out


def test_cmd_verify_rejects_trace_of_another_run(tmp_path, capsys):
    cfg = parse_config(json.dumps({**SMALL, "T": 5}))
    cmd_run(cfg, out=str(tmp_path))
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps({**SMALL, "T": 5}))
    lines = (tmp_path / trace_filename("nsgda-m", 1)).read_text().splitlines()
    capsys.readouterr()

    def verify(rows):
        path = tmp_path / "edited.csv"
        path.write_text("\n".join(rows) + "\n")
        return main(["verify", "--trace", str(path), "--config", str(cfg_path)])

    assert verify(lines) == 0
    assert verify(lines[:3]) == 1  # the first two rounds of a half-written trace
    assert "2 rounds, the config's T is 5" in capsys.readouterr().err
    assert verify([lines[0]] + [ln.replace(",nsgda-m,", ",local-sgda-m,") for ln in lines[1:]]) == 1
    assert "algorithm 'local-sgda-m'" in capsys.readouterr().err
    mixed = [lines[0]] + [ln.replace(",nsgda-m,", f",{'muon-da' if k < 3 else 'sgda-clip'},")
                          for k, ln in enumerate(lines[1:])]
    assert verify(mixed) == 1
    assert "row 5: " in capsys.readouterr().err
    assert verify(lines[:1]) == 1
    assert "row 2: no records" in capsys.readouterr().err


def test_main_end_to_end(tmp_path):
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(SMALL))
    out = tmp_path / "out"
    assert main(["run", "--config", str(cfg_path), "--out", str(out)]) == 0
    trace = out / trace_filename("nsgda-m", 1)
    assert trace.exists()
    assert main(["verify", "--trace", str(trace), "--config", str(cfg_path)]) == 0
    truncated = tmp_path / "trunc.csv"
    truncated.write_text(trace.read_text().rsplit(",", 1)[0])  # chop the last field
    assert main(["verify", "--trace", str(truncated), "--config", str(cfg_path)]) == 1
    assert main(["sweep", "--config", str(cfg_path), "--axes",
                 '{"T": [3, 4]}', "--out", str(out)]) == 0
    assert (out / "sweep_summary.csv").exists()


def test_main_bad_config_exit_code(tmp_path, capsys):
    cfg_path = tmp_path / "bad.json"
    cfg_path.write_text("{\"algorithm\": \"sgd\"}")
    assert main(["run", "--config", str(cfg_path)]) == 1
    capsys.readouterr()
    removed = {"parallel_clients": True, "phi_tol": 1e-8, "halt_on_divergence": False,
               "momentum_warm_start": False, "ns_iters": 10, "zero_momentum_policy": "skip"}
    for key, value in removed.items():  # removed keys are unknown, named before anything is written
        cfg_path.write_text(json.dumps({**SMALL, key: value}))
        out = tmp_path / f"out_{key}"
        assert main(["run", "--config", str(cfg_path), "--out", str(out)]) == 1
        assert main(["sweep", "--config", str(cfg_path), "--axes", '{"T": [2]}', "--out", str(out)]) == 1
        assert not out.exists()
        assert capsys.readouterr().err.count(f"{key}: unknown key") == 2
    for k, (problem, extra, field) in enumerate(BAD_PROBLEMS):  # named before anything is written
        cfg_path.write_text(json.dumps({**SMALL, "problem": problem, **extra}))
        out = tmp_path / f"out{k}"
        assert main(["run", "--config", str(cfg_path), "--out", str(out)]) == 1
        assert main(["sweep", "--config", str(cfg_path), "--axes", '{"T": [2]}', "--out", str(out)]) == 1
        assert not out.exists()
        assert capsys.readouterr().err.count(f"{field}: ") == 2
    cfg_path.write_text(json.dumps(SMALL))
    for seed in ("-1", str(2**64)):  # an override breaking the seed rule exits before any output
        out = tmp_path / f"out_seed{seed}"
        assert main(["run", "--config", str(cfg_path), "--out", str(out), "--seed", seed]) == 1
        assert not out.exists()
        assert "seed: must be an integer in [0, 2**64)" in capsys.readouterr().err


def test_readme_config_blocks_parse():
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    blocks = re.findall(r"```json\n(.*?)```", readme, flags=re.S)
    assert blocks
    for block in blocks:
        parse_config(block)


def test_cmd_sweep_noise_axis(tmp_path):
    cfg = parse_config(json.dumps({**SMALL, "T": 3}))
    assert cmd_sweep(cfg, {"s": [1.2, 1.8]}, out=str(tmp_path)) == 0
    rows = (tmp_path / "sweep_summary.csv").read_text().splitlines()[1:]
    assert [r.split(",")[4] for r in rows] == ["1.2", "1.8"]


def test_main_io_error_exit_code(tmp_path):
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(SMALL))
    blocker = tmp_path / "blocked"
    blocker.write_text("")  # a file where the output directory should go
    assert main(["run", "--config", str(cfg_path), "--out", str(blocker)]) == 3


def test_outdir_from_environment(tmp_path, monkeypatch):
    monkeypatch.setenv("FEDMINIMAX_OUTDIR", str(tmp_path / "env_out"))
    cfg = parse_config(json.dumps({**SMALL, "T": 2}))
    assert cmd_run(cfg) == 0
    assert (tmp_path / "env_out" / trace_filename("nsgda-m", 1)).exists()
