"""Acceptance suite: the package's exit criteria.

Each test exercises one criterion end to end at its stated tolerance and
prints a single PASS/FAIL line (visible with ``pytest -s`` or in failure
output).  Heavy runs are shared through module-scoped fixtures.  Every
trace produced here is registered so the control-variate centering
criterion can sweep all rounds of all runs.
"""

import dataclasses
import time

import numpy as np
import pytest

import fedminimax as fm
from fedminimax.cli import cmd_run, parse_config, trace_filename
from fedminimax.core import Shape, SmoothnessInfo
from fedminimax.linalg import newton_schulz_polar, svd_polar
from fedminimax.noise import derive_stream, empirical_moment, sample
from fedminimax.problems import MinimaxProblem

HETERO_RATIOS = [0.05, 0.05, 0.08, 0.1, 0.12, 0.15, 0.2, 0.25]
SEEDS = (1, 2, 3)

ALL_RUNS = []  # (label, trace, hp) of every run the suite executes


def report(num, ok, detail):
    line = f"ACCEPTANCE {num:>2}: {'PASS' if ok else 'FAIL'} - {detail}"
    print(line)
    assert ok, line


def tracked_run(label, algorithm, problem, hp, **kw):
    trace = fm.run(algorithm, problem, hp, **kw)
    ALL_RUNS.append((label, trace, hp))
    return trace


# ---------------------------------------------------------------------------
# shared problems


def make_matrix_saddle(n_clients=3, mx=3, nx=2, my=2, ny=2, mu=1.0, hetero=0.5, seed=0):
    """Bilinear-coupled saddle with genuinely matrix-shaped blocks."""
    rng = np.random.default_rng(seed)
    dx, dy = mx * nx, my * ny

    def unit(a):
        return a / np.linalg.norm(a)

    B0 = rng.standard_normal((dx, dy))
    B0 /= np.linalg.norm(B0, 2)
    C0 = unit(rng.standard_normal((mx, nx)))
    B = np.stack([B0 + hetero * unit(rng.standard_normal((dx, dy))) for _ in range(n_clients)])
    C = np.stack([C0 + hetero * unit(rng.standard_normal((mx, nx))) for _ in range(n_clients)])
    B_mean = B.mean(axis=0)
    C_mean = C.mean(axis=0)

    def grad_x(n, X, Y):
        return C[n] + (B[n] @ Y.ravel()).reshape(mx, nx)

    def grad_y(n, X, Y):
        return (B[n].T @ X.ravel()).reshape(my, ny) - mu * Y

    def f_value(X, Y):
        vals = [float(np.sum(C[n] * X) + X.ravel() @ B[n] @ Y.ravel()) for n in range(n_clients)]
        return float(np.mean(vals) - 0.5 * mu * np.sum(Y * Y))

    def y_star(X):
        return (B_mean.T @ X.ravel() / mu).reshape(my, ny)

    def phi_grad(X):
        return C_mean + (B_mean @ (B_mean.T @ X.ravel()) / mu).reshape(mx, nx)

    return MinimaxProblem(
        n_clients=n_clients,
        shape_x=Shape.matrix(mx, nx),
        shape_y=Shape.matrix(my, ny),
        smooth=SmoothnessInfo(L_f=np.linalg.norm(B_mean, 2) + mu, mu=mu),
        grad_x=grad_x,
        grad_y=grad_y,
        stoch_grad=lambda n, X, Y, rng_: (grad_x(n, X, Y), grad_y(n, X, Y)),
        f_value=f_value,
        y_star=y_star,
        phi_grad=phi_grad,
    )


def small_saddle(n_clients=4):
    return fm.make_saddle_problem(n_clients, 6, 6, mu=1.0, amp=1.0, hetero=0.5, seed=0)


def small_auc(n_clients=4):
    shards = fm.gen_imbalanced_data(128, [0.1, 0.15, 0.2, 0.25][:n_clients],
                                    dim=6, separation=2.0, seed=0)
    return fm.make_auc_problem(shards, 6, batch_size=32)


PARETO = fm.NoiseModel(s=1.5, sigma=1.0, family="symmetrized-pareto")
GAUSS = fm.NoiseModel(s=2.0, sigma=1.0, family="gaussian")


@pytest.fixture(scope="module")
def suite_matrix():
    """>= 12 configs x 3 seeds of short bounded-algorithm runs."""
    runs = []
    problems = {"saddle": small_saddle(), "auc": small_auc()}
    for algo in ("nsgda-m", "muon-da", "sgda-clip"):
        for pname, problem in problems.items():
            for noise in (PARETO, GAUSS):
                hp = fm.theorem1_schedule(4, 4, 30, problem.smooth)
                for seed in SEEDS:
                    label = f"{algo}/{pname}/s={noise.s}/seed={seed}"
                    runs.append((label, tracked_run(label, algo, problem, hp,
                                                    noise=noise, seed=seed), hp))
    matrix_problem = make_matrix_saddle()
    hp_m = fm.theorem1_schedule(3, 4, 30, matrix_problem.smooth)
    for algo in ("nsgda-m", "muon-da"):
        for seed in SEEDS:
            label = f"{algo}/matrix-saddle/seed={seed}"
            runs.append((label, tracked_run(label, algo, matrix_problem, hp_m,
                                            noise=PARETO, seed=seed), hp_m))
    return runs


@pytest.fixture(scope="module")
def heavy_tail_convergence():
    """Criterion-5 runs: saddle d=10, N=8, p=4, hetero=0.5, s=1.5, T=2000."""
    problem = fm.make_saddle_problem(8, 10, 10, mu=1.0, amp=1.0, hetero=0.5, seed=0)
    hp = fm.theorem1_schedule(8, 4, 2000, problem.smooth)
    out = {}
    for algo in ("nsgda-m", "muon-da"):
        for seed in SEEDS:
            t0 = time.perf_counter()
            trace = tracked_run(f"c5/{algo}/seed={seed}", algo, problem, hp,
                                noise=PARETO, seed=seed)
            out[(algo, seed)] = (trace, time.perf_counter() - t0)
    return out


# ---------------------------------------------------------------------------
# criteria


def test_criterion_1_polar_oracle_equivalence():
    rng = np.random.default_rng(2024)
    mats = []
    for _ in range(100):
        m = int(rng.integers(1, 17))
        n = int(rng.integers(1, 17))
        k = min(m, n)
        s = np.exp(rng.uniform(np.log(0.01), 0.0, size=k))  # cond <= 100
        s[0] = 1.0
        U = np.linalg.qr(rng.standard_normal((m, k)))[0]
        V = np.linalg.qr(rng.standard_normal((n, k)))[0]
        mats.append((U * s) @ V.T)
    t0 = time.perf_counter()
    worst = max(np.linalg.norm(newton_schulz_polar(M, 10) - svd_polar(M)) for M in mats)
    elapsed = time.perf_counter() - t0
    report(1, worst <= 1e-6 and elapsed < 2.0,
           f"polar-oracle agreement: worst |NS10 - SVD|_F = {worst:.2e} "
           f"over 100 matrices in {elapsed:.2f}s")


def test_criterion_2_drift_and_server_step_bounds(suite_matrix):
    violations = 0
    checked = 0
    for label, trace, hp in suite_matrix:
        root_nx = np.sqrt(trace.cols_x)
        root_ny = np.sqrt(trace.cols_y)
        drift_cap_x = hp.eta_x * hp.p * (root_nx if trace.algorithm == "muon-da" else 1.0)
        drift_cap_y = hp.eta_y * hp.p * (root_ny if trace.algorithm == "muon-da" else 1.0)
        step_cap_x = hp.gamma_x * (root_nx if trace.algorithm == "muon-da" else 1.0)
        step_cap_y = hp.gamma_y * (root_ny if trace.algorithm == "muon-da" else 1.0)
        for r in trace.records:
            checked += 1
            violations += r.max_drift_x > drift_cap_x + 1e-9
            violations += r.max_drift_y > drift_cap_y + 1e-9
            violations += r.server_step_x > step_cap_x + 1e-9
            violations += r.server_step_y > step_cap_y + 1e-9
        assert fm.verify_invariants(trace, hp).passed, label
    n_runs = len(suite_matrix)
    report(2, violations == 0 and n_runs >= 36,
           f"drift/server-step bounds: 0 violations required, got {violations} "
           f"across {n_runs} runs ({checked} rounds)")


def test_criterion_4a_single_machine_reduction():
    problem = fm.make_saddle_problem(1, 5, 5, mu=1.0, amp=1.0, hetero=0.0, seed=4)
    hp = fm.HyperParams(gamma_x=0.02, gamma_y=0.1, eta_x=0.01, eta_y=0.01,
                        beta_x=0.3, beta_y=0.3, p=1, T=100, N=1)
    trace = tracked_run("c4a", "nsgda-m", problem, hp, seed=0)

    # independent straight-line reference
    x = np.zeros(5); y = np.zeros(5)
    u = np.zeros(5); v = np.zeros(5)
    worst = 0.0
    for rec in trace.records:
        worst = max(worst, float(np.linalg.norm(rec.x - x)))
        gx = problem.grad_x(0, x, y)
        gy = problem.grad_y(0, x, y)
        u = hp.beta_x * gx + (1 - hp.beta_x) * u
        v = hp.beta_y * gy + (1 - hp.beta_y) * v
        if np.linalg.norm(u) > 1e-15:
            x = x - hp.gamma_x * u / np.linalg.norm(u)
        if np.linalg.norm(v) > 1e-15:
            y = y + hp.gamma_y * v / np.linalg.norm(v)
    report("4a", worst <= 1e-12,
           f"N=1,p=1 equals single-machine reference: max deviation {worst:.2e} over 100 rounds")


def test_criterion_4b_muon_vector_promotion():
    problem = fm.make_saddle_problem(4, 6, 6, mu=1.0, amp=1.0, hetero=0.5, seed=2)
    hp = fm.theorem1_schedule(4, 2, 100, problem.smooth)
    a = tracked_run("c4b/nsgda", "nsgda-m", problem, hp, noise=PARETO, seed=7)
    b = tracked_run("c4b/muon", "muon-da", problem, hp, noise=PARETO, seed=7)
    worst = max(float(np.linalg.norm(ra.x - rb.x)) for ra, rb in zip(a.records, b.records))
    report("4b", worst <= 1e-8,
           f"muon-da on d-by-1 promoted vectors equals nsgda-m: max deviation {worst:.2e}")


def test_criterion_5_convergence_under_heavy_tails(heavy_tail_convergence):
    ok = True
    details = []
    for algo in ("nsgda-m", "muon-da"):
        for seed in SEEDS:
            trace, elapsed = heavy_tail_convergence[(algo, seed)]
            s = trace.summary()
            ratio = s["final_window_grad_phi"] / s["first_window_grad_phi"]
            ok &= ratio <= 0.25 and elapsed < 60.0
            details.append(f"{algo}/s{seed}: ratio={ratio:.3f} ({elapsed:.0f}s)")
    report(5, ok, "heavy-tail convergence (last/first window <= 0.25): " + ", ".join(details))


def test_criterion_6_boundedness_vs_baseline():
    problem = small_saddle()
    noise = fm.NoiseModel(s=1.2, sigma=1.0, family="symmetrized-pareto")
    hp = fm.theorem1_schedule(4, 4, 100, problem.smooth)
    ok = True
    for algo in ("nsgda-m", "muon-da", "sgda-clip"):
        for seed in SEEDS:
            trace = tracked_run(f"c6/{algo}/seed={seed}", algo, problem, hp,
                                noise=noise, seed=seed)
            finite = not trace.diverged and all(
                np.isfinite([r.grad_phi_norm, r.f_value, r.potential]).all()
                for r in trace.records)
            travel_ok = all(r.dist_x0 <= r.t * hp.gamma_x + 1e-9 for r in trace.records)
            ok &= finite and travel_ok
    flags = []
    hp_base = dataclasses.replace(hp, beta_x=0.9, beta_y=0.9)  # conventional baseline momentum
    for seed in SEEDS:
        trace = tracked_run(f"c6/local-sgda-m/seed={seed}", "local-sgda-m", problem,
                            hp_base, noise=noise, seed=seed)
        flags.append(f"seed {seed}: {'diverged' if trace.diverged else 'finite'}")
    report(6, ok, "s=1.2 boundedness: normalized/orthonormalized/clipped all finite with "
                  "||x_t - x_0|| <= t*gamma; unnormalized baseline " + "; ".join(flags))


def test_criterion_7_auc_desk_scale():
    ok = True
    details = []
    for name, ratios, pooled in (("iid", [0.1] * 8, True), ("non-iid", HETERO_RATIOS, False)):
        shards = fm.gen_imbalanced_data(640, ratios, dim=20, separation=2.0, seed=0)
        test = fm.gen_imbalanced_data(2000, [float(np.mean(ratios))], dim=20,
                                      separation=2.0, seed=1)[0]
        problem = fm.make_auc_problem(shards, 20, batch_size=64,
                                      pooled_ratio=pooled, test_data=test)
        hp = fm.theorem1_schedule(8, 4, 200, problem.smooth)

        # oracle first: deterministic full-batch run fixes the reachable target
        oracle_problem = fm.make_auc_problem(shards, 20, batch_size=None,
                                             pooled_ratio=pooled, test_data=test)
        oracle = tracked_run(f"c7/{name}/oracle", "nsgda-m", oracle_problem, hp, seed=0)
        oracle_auc = max(r.auc for r in oracle.records)
        ok &= oracle_auc >= 0.99
        details.append(f"{name}: oracle={oracle_auc:.4f}")

        for algo in ("nsgda-m", "muon-da"):
            t0 = time.perf_counter()
            trace = tracked_run(f"c7/{name}/{algo}", algo, problem, hp,
                                noise=PARETO, seed=1)
            elapsed = time.perf_counter() - t0
            best = max(r.auc for r in trace.records)
            ok &= best >= 0.95 and elapsed < 120.0
            details.append(f"{algo}={best:.4f} ({elapsed:.0f}s)")
    report(7, ok, "AUC within 200 rounds under s=1.5 noise: " + ", ".join(details))


def test_criterion_8_rate_scaling():
    finals = {}
    for N in (2, 8):
        problem = fm.make_saddle_problem(N, 10, 10, mu=1.0, amp=1.0, hetero=0.5, seed=0)
        for T in (500, 2000, 8000):
            if N == 2 and T != 2000:
                continue
            vals = []
            for seed in SEEDS:
                hp = fm.theorem1_schedule(N, 4, T, problem.smooth)
                trace = tracked_run(f"c8/N{N}/T{T}/seed={seed}", "nsgda-m", problem, hp,
                                    noise=GAUSS, seed=seed)
                vals.append(trace.summary()["final_window_grad_phi"])
            finals[(N, T)] = float(np.mean(vals))
    t_monotone = finals[(8, 500)] >= finals[(8, 2000)] >= finals[(8, 8000)]
    n_monotone = finals[(2, 2000)] >= finals[(8, 2000)]
    report(8, t_monotone and n_monotone,
           "rate scaling (seed-averaged final window): "
           f"T-sweep {finals[(8, 500)]:.4f} >= {finals[(8, 2000)]:.4f} >= {finals[(8, 8000)]:.4f}; "
           f"N-sweep {finals[(2, 2000)]:.4f} >= {finals[(8, 2000)]:.4f}")


def test_criterion_9_byte_identical_traces(tmp_path):
    config = parse_config("""{
        "algorithm": "nsgda-m",
        "problem": {"kind": "saddle", "d_x": 6, "d_y": 6, "hetero": 0.5, "seed": 0},
        "N": 4, "p": 2, "T": 6, "seed": 11, "schedule": "theorem1",
        "noise": {"family": "symmetrized-pareto", "s": 1.5, "sigma": 1.0}
    }""")
    dirs = [tmp_path / d for d in ("a", "b")]
    assert cmd_run(config, out=str(dirs[0])) == 0
    assert cmd_run(config, out=str(dirs[1])) == 0
    name = trace_filename("nsgda-m", 11)
    blobs = [(d / name).read_bytes() for d in dirs]
    report(9, blobs[0] == blobs[1], "byte-identical trace CSVs across re-runs")


def test_criterion_10_noise_validation():
    # s-th moment of the default s=1.5 sampler
    model = fm.NoiseModel(s=1.5, sigma=1.0, family="symmetrized-pareto")
    draws = [sample(model, Shape.vector(5), derive_stream(3, 0, 0, k)) for k in range(100_000)]
    moment = empirical_moment(draws, 1.5)
    moment_ok = 0.8 <= moment <= 1.2

    # unbounded-variance evidence: 1.9-moment keeps growing with sample size
    # (tail exponent 1.55 lies in (s, 2), so every moment above 1.55 is infinite)
    heavy = fm.NoiseModel(s=1.5, sigma=1.0, family="symmetrized-pareto", tail_exponent=1.55)
    grew = 0
    for seed in range(1, 6):
        d = [sample(heavy, Shape.vector(5), derive_stream(seed, 0, 0, k)) for k in range(100_000)]
        grew += empirical_moment(d, 1.9) >= 2.0 * empirical_moment(d[:1000], 1.9)
    report(10, moment_ok and grew >= 4,
           f"noise validation: s-moment={moment:.3f} in [0.8, 1.2]; "
           f"1.9-moment grew >= 2x in {grew}/5 seeds")


def test_criterion_3_control_variate_centering(suite_matrix):
    # runs last: sweeps every round of every run the suite executed
    assert len(ALL_RUNS) >= 36
    worst = 0.0
    rounds = 0
    for label, trace, hp in ALL_RUNS:
        for r in trace.records:
            if r.centering_x is None or r.diverged:
                continue
            rounds += 1
            worst = max(worst,
                        r.centering_x - 1e-7 * (1.0 + r.g_prev_norm_x),
                        r.centering_y - 1e-7 * (1.0 + r.g_prev_norm_y))
    report(3, worst <= 0.0,
           f"control-variate centering <= 1e-7*(1+|g|) over {rounds} rounds "
           f"of {len(ALL_RUNS)} runs (worst margin {worst:.2e})")
