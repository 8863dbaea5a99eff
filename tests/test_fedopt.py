import numpy as np
import pytest

from fedminimax import HyperParams, NoiseModel
from fedminimax.fedopt import (
    ClientState,
    ClientRoundResult,
    DegenerateMomentumError,
    ProtocolError,
    ServerState,
    clip_step,
    client_round,
    local_momentum,
    muon_step,
    normalized_step,
    run,
    server_round,
    trace_from_csv,
    trace_to_csv,
)
from fedminimax.problems import make_saddle_problem

HP = HyperParams(gamma_x=0.05, gamma_y=0.5, eta_x=0.01, eta_y=0.01,
                 beta_x=0.5, beta_y=0.5, p=2, T=4, N=2)


# ---------------------------------------------------------------------------
# step rules


def test_local_momentum_beta_one_disables_history():
    g = np.array([1.0, 2.0])
    out = local_momentum(g, np.array([0.5, 0.0]), np.array([0.1, 0.0]), np.array([9.0, 9.0]), 1.0)
    assert np.allclose(out, g + np.array([0.4, 0.0]))


def test_local_momentum_midpoint():
    out = local_momentum(np.array([2.0, 0.0]), np.zeros(2), np.zeros(2), np.array([0.0, 2.0]), 0.5)
    assert np.allclose(out, np.array([1.0, 1.0]))


def test_local_momentum_single_client_correction_vanishes():
    g = np.array([0.3, -0.7])
    shared = np.array([1.1, 2.2])  # with N=1 the global variate equals the local one
    out = local_momentum(g, shared, shared, np.zeros(2), 0.25)
    assert np.allclose(out, 0.25 * g)


def test_local_momentum_shape_mismatch():
    with pytest.raises(ValueError):
        local_momentum(np.zeros(2), np.zeros(3), np.zeros(2), np.zeros(2), 0.5)


def test_normalized_step_examples():
    z = np.zeros(2)
    out = normalized_step(z, np.array([3.0, 4.0]), 0.1, "descend")
    assert np.allclose(out, [-0.06, -0.08])
    assert np.linalg.norm(out - z) == pytest.approx(0.1, abs=1e-12)
    out = normalized_step(z, np.array([3.0, 4.0]), 0.1, "ascend")
    assert np.allclose(out, [0.06, 0.08])


def test_normalized_step_degenerate_policies():
    z = np.array([1.0, 2.0])
    assert normalized_step(z, np.zeros(2), 0.1, "descend", policy="skip") is z
    with pytest.raises(DegenerateMomentumError):
        normalized_step(z, np.zeros(2), 0.1, "descend", policy="error")


def test_muon_step_column_equals_normalized_step():
    z = np.array([0.5, -0.5])
    m = np.array([3.0, 4.0])
    a = muon_step(z, m, 0.1, "descend")
    b = normalized_step(z, m, 0.1, "descend")
    assert np.allclose(a, b, atol=1e-12)


def test_muon_step_scaled_identity():
    Z = np.zeros((3, 3))
    out = muon_step(Z, 5.0 * np.eye(3), 0.1, "descend")
    assert np.allclose(out, -0.1 * np.eye(3), atol=1e-8)


def test_muon_step_iterative_vs_exact_svd():
    rng = np.random.default_rng(0)
    U = np.linalg.qr(rng.standard_normal((4, 3)))[0]
    V = np.linalg.qr(rng.standard_normal((3, 3)))[0]
    M = (U * np.array([1.0, 0.5, 0.1])) @ V.T
    Z = rng.standard_normal((4, 3))
    eta = 0.2
    a = muon_step(Z, M, eta, "descend", ns_mode="iterative")
    b = muon_step(Z, M, eta, "descend", ns_mode="exact-svd")
    assert np.linalg.norm(a - b) <= eta * 1e-6


def test_muon_step_frobenius_bound():
    rng = np.random.default_rng(1)
    Z = np.zeros((5, 4))
    M = rng.standard_normal((5, 4))
    out = muon_step(Z, M, 0.3, "descend")
    assert np.linalg.norm(out - Z) <= 0.3 * np.sqrt(4) + 1e-8


def test_clip_step_examples():
    z = np.zeros(2)
    m = np.array([3.0, 4.0])
    # ||m|| = 5 < tau: unclipped
    assert np.allclose(clip_step(z, m, 0.01, 10.0, "descend"), -0.01 * m)
    # tau = 0.1: scale 0.1/5
    assert np.allclose(clip_step(z, m, 1.0, 0.1, "descend"), [-0.06, -0.08])
    assert clip_step(z, np.zeros(2), 1.0, 0.1, "descend") is not None
    assert np.allclose(clip_step(z, np.zeros(2), 1.0, 0.1, "descend"), z)


def test_clip_step_norm_bound():
    rng = np.random.default_rng(2)
    for _ in range(20):
        m = rng.standard_normal(4) * 10 ** rng.uniform(-3, 3)
        out = clip_step(np.zeros(4), m, 1.0, 0.1, "descend")
        assert np.linalg.norm(out) <= 0.1 + 1e-12


# ---------------------------------------------------------------------------
# rounds


def quiet_problem(n_clients=2, hetero=0.0, seed=0):
    return make_saddle_problem(n_clients, 3, 3, mu=1.0, amp=1.0, hetero=hetero, seed=seed)


def test_client_round_single_step_matches_manual():
    prob = quiet_problem(n_clients=1)
    hp = HyperParams(gamma_x=0.05, gamma_y=0.5, eta_x=0.01, eta_y=0.01,
                     beta_x=1.0, beta_y=1.0, p=1, T=1, N=1)
    x0 = np.array([0.3, -0.1, 0.7])
    y0 = np.array([0.2, 0.0, -0.4])
    server = ServerState(x0, y0, np.zeros(3), np.zeros(3), np.zeros(3), np.zeros(3), 0)
    res = client_round(0, server, ClientState(np.zeros(3), np.zeros(3)), prob, hp, "nsgda-m", 0)
    g = prob.grad_x(0, x0, y0)
    assert np.allclose(res.g_x, g)
    assert np.allclose(res.x_final, x0 - hp.eta_x * g / np.linalg.norm(g))
    assert res.max_drift_x == pytest.approx(hp.eta_x)


def test_client_round_identical_clients_symmetry():
    prob = quiet_problem(n_clients=3, hetero=0.0)
    hp = HyperParams(gamma_x=0.05, gamma_y=0.5, eta_x=0.01, eta_y=0.01,
                     beta_x=0.5, beta_y=0.5, p=2, T=4, N=3)
    server = ServerState(np.ones(3), np.zeros(3), np.zeros(3), np.zeros(3), np.zeros(3), np.zeros(3), 0)
    results = [
        client_round(n, server, ClientState(np.zeros(3), np.zeros(3)), prob, hp, "nsgda-m", 0)
        for n in range(3)
    ]
    for r in results[1:]:
        assert np.allclose(r.x_final, results[0].x_final)
        assert np.allclose(r.g_x, results[0].g_x)


def test_client_round_drift_within_bound():
    prob = make_saddle_problem(2, 4, 4, mu=1.0, amp=1.0, hetero=1.0, seed=5)
    noise = NoiseModel(s=1.5, sigma=2.0, family="symmetrized-pareto")
    trace = run("nsgda-m", prob, HP, noise=noise, seed=4)
    for rec in trace.records:
        assert rec.max_drift_x <= HP.eta_x * HP.p + 1e-9
        assert rec.max_drift_y <= HP.eta_y * HP.p + 1e-9


def test_server_round_mean_and_momentum():
    x = np.zeros(2)
    server = ServerState(x, x.copy(), x.copy(), x.copy(), x.copy(), x.copy(), 0)
    hp = HyperParams(gamma_x=0.05, gamma_y=0.5, eta_x=0.01, eta_y=0.01,
                     beta_x=1.0, beta_y=1.0, p=1, T=1, N=2)
    results = [
        ClientRoundResult(x, x, np.array([1.0, 0.0]), np.zeros(2), 0.0, 0.0),
        ClientRoundResult(x, x, np.array([3.0, 2.0]), np.zeros(2), 0.0, 0.0),
    ]
    new = server_round(server, results, hp)
    assert np.allclose(new.g_x, [2.0, 1.0])
    assert np.allclose(new.u, [2.0, 1.0])  # beta=1: u_t = g_t
    assert np.allclose(new.x, x)  # zero displacement
    assert new.round == 1


def test_server_round_result_count_mismatch():
    x = np.zeros(2)
    server = ServerState(x, x, x, x, x, x, 0)
    with pytest.raises(ProtocolError):
        server_round(server, [], HP)


# ---------------------------------------------------------------------------
# full runs


def test_run_single_round_hand_calculation():
    prob = quiet_problem(n_clients=1)
    beta = 0.5
    hp = HyperParams(gamma_x=0.05, gamma_y=0.25, eta_x=0.01, eta_y=0.01,
                     beta_x=beta, beta_y=beta, p=1, T=1, N=1)
    trace = run("nsgda-m", prob, hp, seed=0)
    rec = trace.records[0]
    x0 = np.zeros(3)
    y0 = np.zeros(3)
    g = prob.grad_x(0, x0, y0)
    phi, gphi = prob.f_value(x0, prob.y_star(x0)), prob.phi_grad(x0)
    assert rec.grad_phi_norm == pytest.approx(np.linalg.norm(gphi))
    assert rec.f_value == pytest.approx(prob.f_value(x0, y0))
    assert rec.potential == pytest.approx(4 * phi - prob.f_value(x0, y0))
    assert rec.server_step_x == pytest.approx(hp.gamma_x, abs=1e-12)
    # u_0 = beta*g, so the recorded estimation error is (1-beta)*||g||
    assert rec.grad_err_x == pytest.approx((1 - beta) * np.linalg.norm(g))
    assert np.allclose(trace.final_state.x, x0 - hp.gamma_x * g / np.linalg.norm(g))


def reference_single_machine(problem, hp, T):
    """Straight-line normalized momentum descent-ascent, N=1, p=1, no noise."""
    x = np.zeros(problem.shape_x.dims)
    y = np.zeros(problem.shape_y.dims)
    u = np.zeros_like(x)
    v = np.zeros_like(y)
    xs = []
    for _ in range(T):
        xs.append(x.copy())
        gx = problem.grad_x(0, x, y)
        gy = problem.grad_y(0, x, y)
        u = hp.beta_x * gx + (1 - hp.beta_x) * u
        v = hp.beta_y * gy + (1 - hp.beta_y) * v
        if np.linalg.norm(u) > 1e-15:  # same degenerate-momentum skip rule
            x = x - hp.gamma_x * u / np.linalg.norm(u)
        if np.linalg.norm(v) > 1e-15:
            y = y + hp.gamma_y * v / np.linalg.norm(v)
    return xs


def test_reduction_to_single_machine():
    prob = quiet_problem(n_clients=1)
    hp = HyperParams(gamma_x=0.02, gamma_y=0.1, eta_x=0.01, eta_y=0.01,
                     beta_x=0.3, beta_y=0.3, p=1, T=50, N=1)
    trace = run("nsgda-m", prob, hp, seed=0)
    ref = reference_single_machine(prob, hp, 50)
    for rec, x_ref in zip(trace.records, ref):
        assert np.linalg.norm(rec.x - x_ref) <= 1e-12


def test_same_seed_identical_traces():
    prob = quiet_problem(n_clients=2, hetero=0.5, seed=7)
    noise = NoiseModel(s=1.5, sigma=1.0, family="symmetrized-pareto")
    t1 = run("nsgda-m", prob, HP, noise=noise, seed=3)
    t2 = run("nsgda-m", prob, HP, noise=noise, seed=3)
    for a, b in zip(t1.records, t2.records):
        assert a.grad_phi_norm == b.grad_phi_norm
        assert np.array_equal(a.x, b.x)


def test_muon_on_promoted_vectors_matches_nsgda():
    prob = quiet_problem(n_clients=2, hetero=0.5, seed=3)
    noise = NoiseModel(s=1.5, sigma=1.0, family="symmetrized-pareto")
    a = run("nsgda-m", prob, HP, noise=noise, seed=5)
    b = run("muon-da", prob, HP, noise=noise, seed=5)
    for ra, rb in zip(a.records, b.records):
        assert np.linalg.norm(ra.x - rb.x) <= 1e-8
        assert ra.grad_phi_norm == pytest.approx(rb.grad_phi_norm, abs=1e-8)


def test_muon_exact_svd_mode_matches_iterative():
    import dataclasses

    prob = quiet_problem(n_clients=2, hetero=0.5, seed=3)
    noise = NoiseModel(s=1.5, sigma=1.0, family="symmetrized-pareto")
    a = run("muon-da", prob, HP, noise=noise, seed=5)
    b = run("muon-da", prob, dataclasses.replace(HP, ns_mode="exact-svd"), noise=noise, seed=5)
    for ra, rb in zip(a.records, b.records):
        assert np.linalg.norm(ra.x - rb.x) <= 1e-8


def test_centering_residual_negligible_every_round():
    prob = quiet_problem(n_clients=3, hetero=0.8, seed=6)
    hp = HyperParams(gamma_x=0.05, gamma_y=0.5, eta_x=0.01, eta_y=0.01,
                     beta_x=0.5, beta_y=0.5, p=2, T=10, N=3)
    noise = NoiseModel(s=1.5, sigma=1.0, family="symmetrized-pareto")
    trace = run("nsgda-m", prob, hp, noise=noise, seed=2)
    for rec in trace.records:
        assert rec.centering_x <= 1e-7 * (1 + rec.g_prev_norm_x)
        assert rec.centering_y <= 1e-7 * (1 + rec.g_prev_norm_y)
        assert rec.bounds_ok is True  # per-round invariant flag


def test_iterate_travel_bounded():
    prob = quiet_problem(n_clients=2, hetero=0.5, seed=9)
    noise = NoiseModel(s=1.2, sigma=1.0, family="symmetrized-pareto")
    for algo in ("nsgda-m", "muon-da", "sgda-clip"):
        trace = run(algo, prob, HP, noise=noise, seed=1)
        for rec in trace.records:
            assert np.isfinite(rec.grad_phi_norm)
            assert rec.dist_x0 <= rec.t * HP.gamma_x + 1e-9


def test_unnormalized_baseline_divergence_flagged():
    prob = make_saddle_problem(2, 3, 3, mu=5.0, amp=0.0, hetero=0.0, seed=0)
    hp = HyperParams(gamma_x=10.0, gamma_y=10.0, eta_x=10.0, eta_y=10.0,
                     beta_x=0.9, beta_y=0.9, p=4, T=60, N=2)
    trace = run("local-sgda-m", prob, hp, seed=0, y0=np.ones(3))
    assert trace.diverged
    assert len(trace.records) == hp.T  # flagged records pad to T
    first_bad = next(i for i, r in enumerate(trace.records) if r.diverged)
    assert all(r.diverged for r in trace.records[first_bad:])
    halted = run("local-sgda-m", prob, hp, seed=0, y0=np.ones(3), halt_on_divergence=True)
    assert halted.diverged and len(halted.records) < hp.T


def test_zero_momentum_policy_error_propagates():
    flat = make_saddle_problem(1, 2, 2, mu=1.0, amp=0.0, hetero=0.0,
                               base_coupling=np.zeros((2, 2)), base_shift=np.zeros(2))
    hp = HyperParams(gamma_x=0.1, gamma_y=0.1, eta_x=0.1, eta_y=0.1,
                     beta_x=0.5, beta_y=0.5, p=1, T=2, N=1,
                     zero_momentum_policy="error")
    with pytest.raises(DegenerateMomentumError):
        run("nsgda-m", flat, hp, seed=0)
    hp_skip = HyperParams(gamma_x=0.1, gamma_y=0.1, eta_x=0.1, eta_y=0.1,
                          beta_x=0.5, beta_y=0.5, p=1, T=2, N=1)
    trace = run("nsgda-m", flat, hp_skip, seed=0)
    assert np.allclose(trace.final_state.x, 0.0)


def test_run_validates_inputs():
    prob = quiet_problem(n_clients=2)
    with pytest.raises(ValueError):
        run("sgd", prob, HP)
    bad_hp = HyperParams(gamma_x=0.05, gamma_y=0.5, eta_x=0.01, eta_y=0.01,
                         beta_x=0.5, beta_y=0.5, p=2, T=4, N=3)
    with pytest.raises(ValueError):
        run("nsgda-m", prob, bad_hp)


def test_potential_identity_recomputed_offline():
    from fedminimax.metrics import phi_value_and_grad

    prob = quiet_problem(n_clients=2, hetero=0.4, seed=8)
    noise = NoiseModel(s=1.5, sigma=1.0, family="symmetrized-pareto")
    trace = run("nsgda-m", prob, HP, noise=noise, seed=6)
    for rec in trace.records:
        phi, _ = phi_value_and_grad(prob, rec.x)
        f = prob.f_value(rec.x, rec.y)
        assert abs(rec.potential - (3 * phi + (phi - f))) <= 1e-10


def test_trace_csv_round_trip(tmp_path):
    prob = quiet_problem(n_clients=2, hetero=0.3, seed=1)
    noise = NoiseModel(s=1.5, sigma=1.0, family="symmetrized-pareto")
    trace = run("nsgda-m", prob, HP, noise=noise, seed=9)
    path = tmp_path / "trace.csv"
    trace_to_csv(trace, path)
    back = trace_from_csv(path)
    assert back.algorithm == "nsgda-m" and back.seed == 9
    assert len(back.records) == len(trace.records)
    for a, b in zip(trace.records, back.records):
        assert a.grad_phi_norm == b.grad_phi_norm  # 17 digits round-trips exactly
        assert a.max_drift_x == b.max_drift_x
        assert b.auc is None


def test_trace_csv_malformed_rows(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text("not,a,header\n")
    with pytest.raises(ValueError, match="row 1"):
        trace_from_csv(path)
    prob = quiet_problem(n_clients=2)
    trace = run("nsgda-m", prob, HP, seed=0)
    good = tmp_path / "good.csv"
    trace_to_csv(trace, good)
    lines = good.read_text().splitlines()
    lines[2] = lines[2].rsplit(",", 1)[0] + ",oops"
    broken = tmp_path / "broken.csv"
    broken.write_text("\n".join(lines) + "\n")
    with pytest.raises(ValueError, match="row 3"):
        trace_from_csv(broken)
