import dataclasses
import math
import os
import re
import tempfile

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fedminimax import (ALGORITHMS, HyperParams, MinimaxProblem, NoiseModel, Shape, SmoothnessInfo, fedopt,
                        theorem2_schedule)
from fedminimax.core import hyperparam_errors
from fedminimax.fedopt import (
    InternalInvariantViolation,
    ProtocolError,
    RoundRecord,
    RunSpec,
    RunTrace,
    ServerState,
    clip_step,
    client_round,
    local_momentum,
    muon_step,
    normalized_step,
    rate_table,
    run,
    run_stack,
    server_round,
    trace_from_csv,
    trace_to_csv,
)
from fedminimax.metrics import BOUND_SLACK, FINITE_FIELDS, centering_tol, verify_invariants
from fedminimax.noise import STREAM_CHUNK, chunk_draws
from fedminimax.problems import gen_imbalanced_data, make_auc_problem, make_saddle_problem

HP = HyperParams(gamma_x=0.05, gamma_y=0.5, eta_x=0.01, eta_y=0.01,
                 beta_x=0.5, beta_y=0.5, p=2, T=4, N=2)


def stack(*rows):
    """Client stack, one block per row in its own shape: (N, d) for vectors, (N, m, n) for matrices."""
    return np.stack([np.asarray(r, dtype=float) for r in rows])


# ---------------------------------------------------------------------------
# step rules


def test_local_momentum_beta_one_disables_history():
    g = np.array([1.0, 2.0])
    out = local_momentum(stack(g), np.array([0.5, 0.0]), stack([0.1, 0.0]), np.array([9.0, 9.0]), 1.0)
    assert np.allclose(out, stack(g + np.array([0.4, 0.0])))


def test_local_momentum_midpoint():
    out = local_momentum(stack([2.0, 0.0]), np.zeros(2), stack(np.zeros(2)),
                         np.array([0.0, 2.0]), 0.5)
    assert np.allclose(out, stack([1.0, 1.0]))


def test_local_momentum_single_client_correction_vanishes():
    g = np.array([0.3, -0.7])
    shared = np.array([1.1, 2.2])  # with N=1 the global variate equals the local one
    out = local_momentum(stack(g), shared, stack(shared), np.zeros(2), 0.25)
    assert np.allclose(out, stack(0.25 * g))


def test_local_momentum_shape_mismatch():
    with pytest.raises(ValueError):
        local_momentum(stack(np.zeros(2)), np.zeros(3), stack(np.zeros(2)),
                       np.zeros(2), 0.5)


def test_normalized_step_examples():
    z = stack(np.zeros(2))
    out = normalized_step(z, stack([3.0, 4.0]), 0.1, "descend")
    assert np.allclose(out, stack([-0.06, -0.08]))
    assert np.linalg.norm(out - z) == pytest.approx(0.1, abs=1e-12)
    out = normalized_step(z, stack([3.0, 4.0]), 0.1, "ascend")
    assert np.allclose(out, stack([0.06, 0.08]))


def test_normalized_step_degenerate_policies():
    z = stack([1.0, 2.0])
    assert np.array_equal(normalized_step(z, stack(np.zeros(2)), 0.1, "descend"), z)


def test_muon_step_column_equals_normalized_step():
    z = stack([0.5, -0.5])
    m = stack([3.0, 4.0])
    a = muon_step(z, m, 0.1, "descend")
    b = normalized_step(z, m, 0.1, "descend")
    assert np.array_equal(a, b)


@pytest.mark.parametrize("dims", [(3, 1), (1, 3), (3, 2), (3,)],
                         ids=["column", "row", "matrix", "vector"])
@pytest.mark.parametrize("setting,field", [({"ns_mode": "fancy"}, "ns_mode")], ids=["mode"])
def test_muon_step_rejects_bad_polar_settings(dims, setting, field):
    # checked on either route, so a vector block cannot skip it
    Z, M = np.zeros((2,) + dims), np.ones((2,) + dims)
    with pytest.raises(ValueError, match=f"^{field}: "):
        muon_step(Z, M, 0.1, "descend", **setting)


STEP_RATES = {  # each exported step rule with one of its rates set to v
    "normalized eta": (lambda Z, M, v: normalized_step(Z, M, v, "descend"), "eta"),
    "muon eta": (lambda Z, M, v: muon_step(Z, M, v, "ascend"), "eta"),
    "clip eta": (lambda Z, M, v: clip_step(Z, M, v, 0.1, "descend"), "eta"),
    "clip tau": (lambda Z, M, v: clip_step(Z, M, 0.1, v, "descend"), "tau"),
}


@pytest.mark.parametrize("dims", [(3,), (3, 2)], ids=["vector", "matrix"])
@pytest.mark.parametrize("bad", [0.0, -1.0, math.inf, math.nan], ids=["zero", "negative", "inf", "nan"])
@pytest.mark.parametrize("rule", sorted(STEP_RATES))
def test_step_rules_reject_the_rates_hyperparams_rejects(rule, bad, dims):
    call, name = STEP_RATES[rule]
    assert len(hyperparam_errors(eta_x=bad, tau=bad)) == 2  # HyperParams rejects it as a rate and as tau
    Z, M = np.zeros((2,) + dims), np.ones((2,) + dims)
    with pytest.raises(ValueError, match=f"^{name}: must be positive and finite, got {bad}$"):
        call(Z, M, bad)


@pytest.mark.parametrize("bad", [0.0, 1.5, math.nan], ids=["zero", "above-one", "nan"])
def test_local_momentum_rejects_the_betas_hyperparams_rejects(bad):
    assert hyperparam_errors(beta_x=bad)  # HyperParams rejects it too
    G = np.ones((2, 3))
    with pytest.raises(ValueError, match=rf"^beta: must lie in \(0, 1\], got {bad}$"):
        local_momentum(G, G[0], G, G[0], bad)


def test_muon_step_scaled_identity():
    Z = np.zeros((1, 3, 3))
    out = muon_step(Z, stack(5.0 * np.eye(3)), 0.1, "descend")
    assert np.allclose(out, stack(-0.1 * np.eye(3)), atol=1e-8)


def test_muon_step_iterative_vs_exact_svd():
    rng = np.random.default_rng(0)
    U = np.linalg.qr(rng.standard_normal((4, 3)))[0]
    V = np.linalg.qr(rng.standard_normal((3, 3)))[0]
    M = stack((U * np.array([1.0, 0.5, 0.1])) @ V.T)
    Z = rng.standard_normal((1, 4, 3))
    eta = 0.2
    a = muon_step(Z, M, eta, "descend", ns_mode="iterative")
    b = muon_step(Z, M, eta, "descend", ns_mode="exact-svd")
    assert np.linalg.norm(a - b) <= eta * 1e-6


def test_muon_step_frobenius_bound():
    rng = np.random.default_rng(1)
    Z = np.zeros((1, 5, 4))
    M = rng.standard_normal((1, 5, 4))
    out = muon_step(Z, M, 0.3, "descend")
    assert np.linalg.norm(out - Z) <= 0.3 * np.sqrt(4) + 1e-8


def test_clip_step_examples():
    z = stack(np.zeros(2))
    m = stack([3.0, 4.0])
    # ||m|| = 5 < tau: unclipped
    assert np.allclose(clip_step(z, m, 0.01, 10.0, "descend"), -0.01 * m)
    # tau = 0.1: scale 0.1/5
    assert np.allclose(clip_step(z, m, 1.0, 0.1, "descend"), stack([-0.06, -0.08]))
    assert clip_step(z, stack(np.zeros(2)), 1.0, 0.1, "descend") is not None
    assert np.allclose(clip_step(z, stack(np.zeros(2)), 1.0, 0.1, "descend"), z)


def test_clip_step_norm_bound():
    rng = np.random.default_rng(2)
    for _ in range(20):
        m = stack(rng.standard_normal(4) * 10 ** rng.uniform(-3, 3))
        out = clip_step(np.zeros((1, 4)), m, 1.0, 0.1, "descend")
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
    server = ServerState(x0[None], y0[None], *np.zeros((4, 1, 3)), 0)  # a stack of one run
    X, _, G_x, _, drift_x, _, cen_x, _ = client_round(server, np.zeros((1, 3)), np.zeros((1, 3)),
                                                      prob, [RunSpec("nsgda-m", hp)], rate_table([hp], 1, 1),
                                                      chunk_draws([0], [None], 1, 1, 0, 1, 3, 3)[0])
    g = prob.grad_x(0, x0, y0)
    assert G_x.shape == X.shape == (1, 3)
    assert np.allclose(G_x, g[None])
    assert np.allclose(X, (x0 - hp.eta_x * g / np.linalg.norm(g))[None])
    assert drift_x[0] == pytest.approx(hp.eta_x)
    assert cen_x.tolist() == [0.0]  # beta = 1 and zero control variates: the correction is exactly zero


def test_client_round_identical_clients_symmetry():
    prob = quiet_problem(n_clients=3, hetero=0.0)
    hp = HyperParams(gamma_x=0.05, gamma_y=0.5, eta_x=0.01, eta_y=0.01,
                     beta_x=0.5, beta_y=0.5, p=2, T=4, N=3)
    server = ServerState(np.ones((1, 3)), *np.zeros((5, 1, 3)), 0)  # a stack of one run
    X, _, G_x, *_ = client_round(server, np.zeros((3, 3)), np.zeros((3, 3)), prob, [RunSpec("nsgda-m", hp)],
                                 rate_table([hp], 1, 1), chunk_draws([0], [None], 3, 2, 0, 1, 3, 3)[0])
    assert X.shape == G_x.shape == (3, 3)
    for n in range(1, 3):
        assert np.allclose(X[n], X[0])
        assert np.allclose(G_x[n], G_x[0])


def test_client_round_drift_within_bound():
    prob = make_saddle_problem(2, 4, 4, mu=1.0, amp=1.0, hetero=1.0, seed=5)
    noise = NoiseModel(s=1.5, sigma=2.0, family="symmetrized-pareto")
    trace = run("nsgda-m", prob, HP, noise=noise, seed=4)
    for rec in trace.records:
        assert rec.max_drift_x <= HP.eta_x * HP.p + 1e-9
        assert rec.max_drift_y <= HP.eta_y * HP.p + 1e-9


def test_client_round_drift_violation_names_client_and_round(monkeypatch):
    import fedminimax.fedopt as fedopt

    real = fedopt.client_round

    def drifting(server, *args):
        out = list(real(server, *args))
        if server.round == 2:
            out[4] = out[4] * np.array([1.0, 10.0])  # client 1 leaves its x drift bound
        return tuple(out)

    monkeypatch.setattr(fedopt, "client_round", drifting)
    prob = quiet_problem(n_clients=2, hetero=0.5, seed=3)
    with pytest.raises(InternalInvariantViolation,
                       match=r"nsgda-m round 2: max_drift_x = .* exceeds its cap .*client 1"):
        run("nsgda-m", prob, HP, seed=0)


def test_run_checks_the_server_step_while_it_runs(monkeypatch):
    import fedminimax.fedopt as fedopt

    real = fedopt.round_caps
    monkeypatch.setattr(fedopt, "round_caps",
                        lambda *args: {**real(*args), "server_step_x": 1e-6})
    prob = quiet_problem(n_clients=2, hetero=0.5, seed=3)
    with pytest.raises(InternalInvariantViolation,
                       match=r"nsgda-m round 0: server_step_x = .* exceeds its cap 1e-06$"):
        run("nsgda-m", prob, HP, seed=0)


JUDGED_HP = HyperParams(gamma_x=0.05, gamma_y=0.5, eta_x=0.01, eta_y=0.02, beta_x=0.5, beta_y=0.5,
                        p=2, T=4, N=3, tau=0.3)


def near(bound, slack):
    """On ``bound``, just inside or just outside it by the check's slack, well inside, or not finite."""
    outside = bound + 2 * slack if slack else math.nextafter(bound, math.inf)
    return st.sampled_from([bound, bound + slack / 2, outside, bound / 2, math.nan, math.inf])


@settings(max_examples=400, deadline=None)
@given(data=st.data())
def test_the_engine_judges_a_record_as_the_verifier_reports_it(data):
    """The engine's judge raises on a record exactly when the verifier fails its one-record trace,
    naming the report's first failing check."""
    algorithm = data.draw(st.sampled_from(ALGORITHMS))
    cols_x, cols_y = data.draw(st.sampled_from([1, 4])), data.draw(st.sampled_from([1, 9]))
    caps = fedopt.round_caps(algorithm, cols_x, cols_y, JUDGED_HP)
    t = data.draw(st.integers(0, 3))
    values = {name: 0.25 for name in FINITE_FIELDS}
    for name, cap in (caps or {}).items():
        values[name] = data.draw(near(cap, BOUND_SLACK))
    for name in data.draw(st.lists(st.sampled_from(FINITE_FIELDS), max_size=2, unique=True)):
        values[name] = data.draw(st.sampled_from([math.nan, math.inf, -math.inf]))
    extras = {}
    if data.draw(st.booleans()):
        step = caps["server_step_x"] if caps else 1.0
        extras["dist_x0"] = data.draw(near(t * (step + BOUND_SLACK), BOUND_SLACK))
    if data.draw(st.booleans()):
        for axis in ("x", "y"):
            g = extras[f"g_prev_norm_{axis}"] = data.draw(st.sampled_from([0.0, 2.5, 1e6]))
            extras[f"centering_{axis}"] = data.draw(near(centering_tol(g), 0.0))
    rec = RoundRecord(t=t, **values, **extras)
    report = verify_invariants(RunTrace(algorithm, 0, [rec], cols_x, cols_y), JUDGED_HP)
    failed = [c.name for c in report.checks if not c.passed]
    drifts = {"max_drift_x": np.array([rec.max_drift_x]), "max_drift_y": np.array([rec.max_drift_y])}
    if not failed:
        fedopt._judge(algorithm, rec, caps, drifts)
        return
    with pytest.raises(InternalInvariantViolation) as raised:
        fedopt._judge(algorithm, rec, caps, drifts)
    assert str(raised.value).startswith(f"{algorithm} round {t}: ")
    assert failed[0] in str(raised.value)


def test_server_round_mean_and_momentum():
    x = np.zeros((1, 2))  # a stack of one run
    server = ServerState(x, x.copy(), x.copy(), x.copy(), x.copy(), x.copy(), 0)
    hp = HyperParams(gamma_x=0.05, gamma_y=0.5, eta_x=0.01, eta_y=0.01,
                     beta_x=1.0, beta_y=1.0, p=1, T=1, N=2)
    X = np.zeros((2, 2))  # both clients end where they started
    new = server_round(server, X, X, stack([1.0, 0.0], [3.0, 2.0]), np.zeros((2, 2)), rate_table([hp], 1, 1))
    assert np.allclose(new.g_x, [[2.0, 1.0]])
    assert np.allclose(new.u, [[2.0, 1.0]])  # beta=1: u_t = g_t
    assert np.allclose(new.x, x)  # zero displacement
    assert new.round == 1


def test_server_round_result_count_mismatch():
    x = np.zeros((1, 2))  # a stack of one run
    server = ServerState(x, x, x, x, x, x, 0)
    with pytest.raises(ProtocolError):
        empty = np.zeros((0, 2))
        server_round(server, empty, empty, empty, empty, rate_table([HP], 1, 1))
    columns = np.zeros((2, 2, 1))  # one client per row, but not in the block's own shape
    with pytest.raises(ProtocolError, match="got"):
        server_round(server, columns, columns, columns, columns, rate_table([HP], 1, 1))


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
    for ns_mode in ("iterative", "exact-svd"):
        b = run("muon-da", prob, dataclasses.replace(HP, ns_mode=ns_mode), noise=noise, seed=5)
        assert len(a.records) == len(b.records) == HP.T
        for ra, rb in zip(a.records, b.records):
            for field in dataclasses.fields(ra):
                va, vb = getattr(ra, field.name), getattr(rb, field.name)
                assert (va is None and vb is None) or np.asarray(va).tobytes() == np.asarray(vb).tobytes()


def test_muon_exact_svd_mode_matches_iterative():
    prob = quiet_problem(n_clients=2, hetero=0.5, seed=3)
    noise = NoiseModel(s=1.5, sigma=1.0, family="symmetrized-pareto")
    a = run("muon-da", prob, HP, noise=noise, seed=5)
    b = run("muon-da", prob, dataclasses.replace(HP, ns_mode="exact-svd"), noise=noise, seed=5)
    for ra, rb in zip(a.records, b.records):
        assert np.linalg.norm(ra.x - rb.x) <= 1e-8


def test_centering_residual_negligible_every_round():
    prob = quiet_problem(n_clients=3, hetero=0.8, seed=6)
    noise = NoiseModel(s=1.5, sigma=1.0, family="symmetrized-pareto")
    for beta in (0.5, 1e-4):  # a small beta divides the read-back rounding by beta
        hp = HyperParams(gamma_x=0.05, gamma_y=0.5, eta_x=0.01, eta_y=0.01,
                         beta_x=beta, beta_y=beta, p=2, T=10, N=3)
        trace = run("nsgda-m", prob, hp, noise=noise, seed=2)
        for rec in trace.records:
            assert rec.centering_x <= 1e-7 * (1 + rec.g_prev_norm_x)
            assert rec.centering_y <= 1e-7 * (1 + rec.g_prev_norm_y)
        assert verify_invariants(trace, hp).passed  # drift, step and centering of every round


def centering_run(algorithm="nsgda-m"):
    prob = make_saddle_problem(8, 10, 10, mu=1.0, amp=1.0, hetero=0.5, seed=0)
    hp = theorem2_schedule(8, 4, 40, prob.smooth)
    noise = NoiseModel(s=1.5, sigma=1.0, family="symmetrized-pareto")
    trace = run(algorithm, prob, hp, noise=noise, seed=1)
    return trace, {c.name: c for c in verify_invariants(trace, hp).checks}


def test_centering_reads_the_correction_the_momentum_applied(monkeypatch):
    import fedminimax.fedopt as fedopt

    real = fedopt._momentum

    def half_global_variate(G, g, G_prev, kept, beta):
        return real(G, 0.5 * g, G_prev, kept, beta)

    monkeypatch.setattr(fedopt, "_momentum", half_global_variate)
    with pytest.raises(InternalInvariantViolation, match="centering_x"):
        centering_run()


def test_centering_catches_a_stale_control_variate(monkeypatch):
    import fedminimax.fedopt as fedopt

    real = fedopt.client_round

    def never_refreshed(server, G_prev_x, G_prev_y, *args):  # the round-0 variates, every round
        return real(server, np.zeros_like(G_prev_x), np.zeros_like(G_prev_y), *args)

    monkeypatch.setattr(fedopt, "client_round", never_refreshed)
    with pytest.raises(InternalInvariantViolation, match="centering_x"):
        centering_run()


def test_unnormalized_baseline_reports_zero_centering():
    trace, checks = centering_run("local-sgda-m")
    assert all(r.centering_x == r.centering_y == 0.0 for r in trace.records if not r.diverged)
    assert checks["centering_x"].passed and checks["centering_y"].passed


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
    trace = run("local-sgda-m", prob, hp, seed=0)
    assert trace.diverged
    assert len(trace.records) == hp.T  # flagged records pad to T
    first_bad = next(i for i, r in enumerate(trace.records) if r.diverged)
    assert all(r.diverged for r in trace.records[first_bad:])


def test_diverged_is_derived_from_the_record_values():
    values = dict(grad_phi_norm=1.0, f_value=0.0, grad_err_x=0.1, grad_err_y=0.1,
                  max_drift_x=0.0, max_drift_y=0.0, server_step_x=0.0, server_step_y=0.0,
                  potential=4.0)
    assert not RoundRecord(0, **values).diverged
    assert RoundRecord(0, **{**values, "server_step_y": np.inf}).diverged
    assert not RoundRecord(0, **values, auc=np.nan).diverged  # auc is not a finite field
    with pytest.raises(TypeError):
        RoundRecord(0, **values, diverged=True)


def test_diverged_run_reads_back_from_csv_alike(tmp_path):
    prob = make_saddle_problem(2, 3, 3, mu=5.0, amp=0.0, hetero=0.0, seed=0)
    hp = HyperParams(gamma_x=10.0, gamma_y=10.0, eta_x=10.0, eta_y=10.0,
                     beta_x=0.9, beta_y=0.9, p=4, T=60, N=2)
    noise = NoiseModel(s=1.2, sigma=1.0, family="symmetrized-pareto")
    trace = run("local-sgda-m", prob, hp, noise=noise, seed=3)
    flags = [r.diverged for r in trace.records]
    assert any(flags) and not all(flags)
    path = tmp_path / "trace.csv"
    trace_to_csv(trace, path)
    back = trace_from_csv(path)
    assert [r.diverged for r in back.records] == flags
    np.testing.assert_equal(back.summary(), trace.summary())  # nan equals nan here


def test_zero_momentum_policy_error_propagates():
    flat = make_saddle_problem(1, 2, 2, mu=1.0, amp=0.0, hetero=0.0,
                               base_coupling=np.zeros((2, 2)), base_shift=np.zeros(2))
    hp = HyperParams(gamma_x=0.1, gamma_y=0.1, eta_x=0.1, eta_y=0.1,
                     beta_x=0.5, beta_y=0.5, p=1, T=2, N=1)
    trace = run("nsgda-m", flat, hp, seed=0)
    assert np.allclose(trace.final_state.x, 0.0)


def test_run_validates_inputs():
    prob = quiet_problem(n_clients=2)
    with pytest.raises(ValueError):
        run("sgd", prob, HP)
    bad_hp = HyperParams(gamma_x=0.05, gamma_y=0.5, eta_x=0.01, eta_y=0.01,
                         beta_x=0.5, beta_y=0.5, p=2, T=4, N=3)
    with pytest.raises(ValueError):
        run("nsgda-m", prob, bad_hp)
    with pytest.raises(TypeError):  # every run starts at zero
        run("nsgda-m", prob, HP, x0=np.ones(3))


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


def matrix_saddle(n_clients=4, m=12, k=6, c=6, mu=1.0, lam=1.0, seed=0):
    """f_n(X, Y) = <X, A_n Y> + <C_n, X> + (lam/2)||X||^2 - (mu/2)||Y||^2, X m-by-k, Y c-by-k."""
    rng = np.random.default_rng(seed)
    A = rng.standard_normal((n_clients, m, c)) / np.sqrt(m)
    C = rng.standard_normal((n_clients, m, k))
    A_mean = A.mean(axis=0)

    def grad(X, Y, batch=None):
        return A @ Y + C + lam * X, A.mT @ X - mu * Y

    return MinimaxProblem(
        n_clients=n_clients, shape_x=Shape.matrix(m, k), shape_y=Shape.matrix(c, k),
        smooth=SmoothnessInfo(L_f=max(lam, mu) + max(np.linalg.norm(a, 2) for a in A), mu=mu),
        f_value=lambda X, Y: 0.0, y_star=lambda X: A_mean.T @ X / mu, grad=grad)


def test_matrix_trace_from_csv_needs_its_column_counts(tmp_path):
    problem = matrix_saddle()
    hp = theorem2_schedule(4, 2, 10, problem.smooth)
    noise = NoiseModel(s=1.5, sigma=1.0, family="symmetrized-pareto")
    trace = run("muon-da", problem, hp, noise=noise, seed=1)
    assert (trace.cols_x, trace.cols_y) == (6, 6)
    assert verify_invariants(trace, hp).passed
    path = tmp_path / "trace.csv"
    trace_to_csv(trace, path)
    back = trace_from_csv(path)
    assert (back.cols_x, back.cols_y) == (None, None)  # the schema does not hold them
    with pytest.raises(ValueError, match=r"column count is unknown \(cols=None\)"):
        verify_invariants(back, hp)
    assert verify_invariants(dataclasses.replace(back, cols_x=6, cols_y=6), hp).passed
    # guessing a vector would fail this trace
    assert not verify_invariants(dataclasses.replace(back, cols_x=1, cols_y=1), hp).passed
    # the other algorithms' bounds do not read the column count
    vector_run = run("nsgda-m", problem, hp, noise=noise, seed=1)
    trace_to_csv(vector_run, path)
    assert verify_invariants(trace_from_csv(path), hp).passed


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


def relabel(line, column, value):
    parts = line.split(",")
    parts[column] = value
    return ",".join(parts)


@pytest.mark.parametrize("edit,row", [
    (lambda lines: lines[:1], 2),  # header only
    (lambda lines: lines[:3] + [relabel(lines[3], 1, "muon-da")] + lines[4:], 4),  # mixed algorithms
    (lambda lines: lines[:2] + [relabel(lines[2], 2, "8")] + lines[3:], 3),  # another seed
    (lambda lines: lines[:2] + [relabel(lines[2], 0, "7")] + lines[3:], 3),  # round out of place
    (lambda lines: lines[:2] + lines[3:], 3),  # a missing round
], ids=["header-only", "mixed-algo", "mixed-seed", "round-index", "round-missing"])
def test_trace_csv_rows_must_be_one_run(tmp_path, edit, row):
    trace = run("nsgda-m", quiet_problem(n_clients=2), HP, seed=0)
    good = tmp_path / "good.csv"
    trace_to_csv(trace, good)
    bad = tmp_path / "bad.csv"
    bad.write_text("\n".join(edit(good.read_text().splitlines())) + "\n")
    with pytest.raises(ValueError, match=f"row {row}: "):
        trace_from_csv(bad)


# ---------------------------------------------------------------------------
# stacks of runs


def adapter_matrix_saddle(n_clients=3, m=4, k=3, c=3, mu=1.0, lam=1.0, seed=2):
    """``matrix_saddle`` given by per-client callables, so its grad is the per-client adapter."""
    base = matrix_saddle(n_clients, m, k, c, mu, lam, seed)

    def client_grads(n, X, Y):  # row n of the batched grad with every client at (X, Y)
        GX, GY = base.grad(np.repeat(X[None], n_clients, axis=0), np.repeat(Y[None], n_clients, axis=0))
        return GX[n], GY[n]

    return MinimaxProblem(
        n_clients=n_clients, shape_x=base.shape_x, shape_y=base.shape_y, smooth=base.smooth,
        f_value=base.f_value, y_star=base.y_star,
        grad_x=lambda n, X, Y: client_grads(n, X, Y)[0], grad_y=lambda n, X, Y: client_grads(n, X, Y)[1],
        stoch_grad=lambda n, X, Y, rng: client_grads(n, X, Y))


STACK_PROBLEMS = {
    "saddle-d10": make_saddle_problem(3, 10, 10, hetero=0.5, seed=1),
    "saddle-dy1": make_saddle_problem(3, 10, 1, hetero=0.5, seed=2),
    "auc-minibatch": make_auc_problem(
        gen_imbalanced_data(40, [0.2, 0.3, 0.25], dim=3, separation=2.0, seed=2), 3, batch_size=5,
        test_data=gen_imbalanced_data(30, [0.3], dim=3, separation=2.0, seed=4)[0]),
    "matrix-adapter": adapter_matrix_saddle(),
}
STACK_NOISES = [
    None,
    NoiseModel(family="none"),
    NoiseModel(s=1.2, sigma=1.0, family="symmetrized-pareto"),
    NoiseModel(s=1.8, sigma=1.0, family="symmetrized-pareto"),
    NoiseModel(s=1.5, sigma=0.7, family="student-t", tail_exponent=1.8),
    NoiseModel(s=2.0, sigma=1.3, family="gaussian"),
]
STACK_T, STACK_P = 5, 2


def stack_hps(N):
    """Rates every algorithm runs under; the last makes local-sgda-m overflow within a few rounds.

    The first and third share ``ns_mode``, so one step-rule group of a stack can mix their rates.
    """
    common = dict(p=STACK_P, T=STACK_T, N=N)
    return [
        HyperParams(gamma_x=0.05, gamma_y=0.5, eta_x=0.01, eta_y=0.01, beta_x=0.5, beta_y=0.5, **common),
        HyperParams(gamma_x=0.1, gamma_y=0.1, eta_x=0.05, eta_y=0.02, beta_x=0.9, beta_y=0.3, tau=0.5,
                    ns_mode="exact-svd", **common),
        HyperParams(gamma_x=0.08, gamma_y=0.2, eta_x=0.03, eta_y=0.04, beta_x=0.7, beta_y=0.6, tau=0.05,
                    ns_mode="iterative", **common),
        HyperParams(gamma_x=1e30, gamma_y=1e30, eta_x=1e30, eta_y=1e30, beta_x=0.9, beta_y=0.9, **common),
    ]


def record_bytes(rec):
    return [np.asarray(getattr(rec, f.name)).tobytes() for f in dataclasses.fields(rec)]


def assert_same_run(stacked, solo, tmp):
    """The stacked run equals its solo run bit for bit: CSV bytes, every record field and final_state."""
    if isinstance(solo, InternalInvariantViolation):
        assert isinstance(stacked, InternalInvariantViolation) and str(stacked) == str(solo)
        return
    csv = []
    for trace in (stacked, solo):
        path = os.path.join(tmp, "trace.csv")
        trace_to_csv(trace, path)
        with open(path, "rb") as fh:
            csv.append(fh.read())
    assert csv[0] == csv[1]
    assert [record_bytes(r) for r in stacked.records] == [record_bytes(r) for r in solo.records]
    assert [(r.centering_x, r.centering_y) for r in stacked.records] == [
        (r.centering_x, r.centering_y) for r in solo.records]
    a, b = stacked.final_state, solo.final_state
    assert a.round == b.round
    for name in ("x", "y", "u", "v", "g_x", "g_y"):
        assert np.asarray(getattr(a, name)).tobytes() == np.asarray(getattr(b, name)).tobytes()


def solo_run(problem, spec):
    try:
        return run(spec.algorithm, problem, spec.hp, noise=spec.noise, seed=spec.seed)
    except InternalInvariantViolation as exc:
        return exc


@pytest.mark.parametrize("kind", sorted(STACK_PROBLEMS))
@settings(max_examples=25, deadline=None)
@given(data=st.data())
def test_each_run_of_a_stack_equals_its_solo_run(kind, data):
    problem = STACK_PROBLEMS[kind]
    hps = stack_hps(problem.n_clients)
    run_specs = st.builds(
        lambda algorithm, h, noise, seed: RunSpec(
            algorithm, hps[h] if algorithm == "local-sgda-m" else hps[h % 3], noise, seed),
        st.sampled_from(ALGORITHMS), st.integers(0, 3), st.sampled_from(STACK_NOISES),
        st.sampled_from([0, 1, 2, 2**64 - 1]))
    specs = data.draw(st.lists(run_specs, min_size=1, max_size=6))
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr("fedminimax.noise.STREAM_CHUNK", data.draw(st.sampled_from([8, STREAM_CHUNK])))
        stacked = run_stack(problem, specs)
    with tempfile.TemporaryDirectory() as tmp:
        for spec, result in zip(specs, stacked):
            assert_same_run(result, solo_run(problem, spec), tmp)


def test_a_stack_steps_by_rule_with_one_momentum_pass_and_one_rate_table_per_live_set(monkeypatch):
    """Runs at different rates share their step rule's group: every local step makes one momentum call per
    block over all the rows still in and one step-rule call per bounded rule, and the rates are tabled
    when the stack forms and when a run leaves it, not every round."""
    problem = STACK_PROBLEMS["saddle-d10"]
    N = problem.n_clients
    *hps, wild = stack_hps(N)
    specs = [RunSpec(algorithm, hps[k % 3], None, k) for k, algorithm in enumerate(ALGORITHMS * 2)]
    specs.append(RunSpec("local-sgda-m", wild, NoiseModel(s=1.5, sigma=1.0, family="symmetrized-pareto"), 9))
    seen = {"_momentum": [], "_steps": [], "rate_table": []}
    for name, calls in seen.items():
        def counting(first, *args, real=getattr(fedopt, name), calls=calls):
            calls.append(first)
            return real(first, *args)

        monkeypatch.setattr(fedopt, name, counting)
    traces = run_stack(problem, specs)
    assert all(isinstance(trace, RunTrace) for trace in traces) and traces[-1].diverged
    assert [len(live) for live in seen["rate_table"]] == [len(specs), len(specs) - 1]
    rows = [len(G) for G in seen["_momentum"]]
    assert len(rows) == 2 * STACK_P * STACK_T  # one call per block and local step
    assert rows == sorted(rows, reverse=True) and set(rows) == {len(specs) * N, (len(specs) - 1) * N}
    # nsgda-m, muon-da under exact-svd, sgda-clip and muon-da under iterative, in the order they first appear
    assert seen["_steps"] == ["nsgda-m", "muon-da", "sgda-clip", "muon-da"] * (STACK_P * STACK_T)


def test_stack_goes_on_after_a_local_sgda_m_run_diverges(tmp_path):
    problem = STACK_PROBLEMS["saddle-d10"]
    steady, *_, wild = stack_hps(problem.n_clients)
    noise = NoiseModel(s=1.5, sigma=1.0, family="symmetrized-pareto")
    specs = [RunSpec("nsgda-m", steady, noise, 1), RunSpec("local-sgda-m", wild, noise, 2),
             RunSpec("sgda-clip", steady, noise, 3), RunSpec("local-sgda-m", steady, noise, 4)]
    stacked = run_stack(problem, specs)
    flags = [r.diverged for r in stacked[1].records]
    assert any(flags) and not all(flags)  # it left the stack mid-run
    assert not any(trace.diverged for k, trace in enumerate(stacked) if k != 1)
    for spec, result in zip(specs, stacked):
        assert_same_run(result, solo_run(problem, spec), tmp_path)


def test_stack_goes_on_after_a_run_raises(tmp_path, monkeypatch):
    problem = STACK_PROBLEMS["saddle-d10"]
    steady = stack_hps(problem.n_clients)[0]
    noise = NoiseModel(s=1.5, sigma=1.0, family="symmetrized-pareto")
    real = fedopt.client_round

    def faulty(server, G_prev_x, G_prev_y, problem, specs, *rest):  # seed 2's client 1 drifts at round 2
        out = list(real(server, G_prev_x, G_prev_y, problem, specs, *rest))
        if server.round == 2:
            out[4] = out[4].copy()
            for j, spec in enumerate(specs):
                if spec.seed == 2:
                    out[4][j * problem.n_clients + 1] *= 10.0
        return tuple(out)

    monkeypatch.setattr(fedopt, "client_round", faulty)
    specs = [RunSpec("nsgda-m", steady, noise, 1), RunSpec("sgda-clip", steady, noise, 2),
             RunSpec("muon-da", steady, noise, 3)]
    stacked = run_stack(problem, specs)
    assert isinstance(stacked[1], InternalInvariantViolation)
    assert "sgda-clip round 2: max_drift_x" in str(stacked[1]) and "client 1" in str(stacked[1])
    for spec, result in zip(specs, stacked):
        assert_same_run(result, solo_run(problem, spec), tmp_path)


def test_stack_goes_on_after_a_muon_da_gradient_overflows(tmp_path):
    """A run whose gradient overflows ends at its non-finite record; the run beside it is its solo run."""
    base = adapter_matrix_saddle()

    def overflowing(n, X, Y, rng):  # the client's gradient overflows once its iterate leaves [-1, 1]
        gx, gy = base.stoch_grad(n, X, Y, rng)
        return (gx if np.abs(X).max() <= 1.0 else np.full_like(gx, np.inf)), gy

    problem = dataclasses.replace(base, stoch_grad=overflowing)
    steady = stack_hps(3)[0]
    wide = dataclasses.replace(steady, gamma_x=1.0, gamma_y=1.0, eta_x=1.0, eta_y=1.0)
    noise = NoiseModel(s=1.5, sigma=0.1, family="symmetrized-pareto")
    for ns_mode in ("iterative", "exact-svd"):
        specs = [RunSpec("muon-da", dataclasses.replace(steady, ns_mode=ns_mode), noise, 1),
                 RunSpec("muon-da", dataclasses.replace(wide, ns_mode=ns_mode), noise, 2)]
        stacked = run_stack(problem, specs)
        assert isinstance(stacked[1], InternalInvariantViolation)
        assert re.fullmatch(r"muon-da round \d+: \w+ = (nan|inf|-inf) is not finite \(finite_records\)"
                            r"( \(largest: client \d\))?", str(stacked[1]))
        assert_same_run(stacked[0], solo_run(problem, specs[0]), tmp_path)
        assert np.isfinite(stacked[0].records[-1].grad_phi_norm)


def test_package_exports_the_stack_api():
    import fedminimax as fm

    assert fm.run_stack is fedopt.run_stack and fm.RunSpec is fedopt.RunSpec
    assert {"run_stack", "RunSpec"} <= set(fm.__all__)


def test_run_stack_validates_its_runs():
    problem = quiet_problem(n_clients=2)
    with pytest.raises(ValueError, match="at least one run"):
        run_stack(problem, [])
    with pytest.raises(ValueError, match="share N, p and T"):
        run_stack(problem, [RunSpec("nsgda-m", HP), RunSpec("nsgda-m", dataclasses.replace(HP, T=5))])
    with pytest.raises(ValueError, match="unknown algorithm"):
        run_stack(problem, [RunSpec("nsgda-m", HP), RunSpec("sgd", HP)])


def test_trace_csv_write_is_all_or_nothing(tmp_path, monkeypatch):
    trace = run("nsgda-m", quiet_problem(n_clients=2), HP, seed=0)
    path = tmp_path / "trace.csv"
    path.write_text("earlier trace\n")

    def interrupted(src, dst):
        raise KeyboardInterrupt

    monkeypatch.setattr(fedopt.os, "replace", interrupted)
    with pytest.raises(KeyboardInterrupt):
        trace_to_csv(trace, path)
    assert path.read_text() == "earlier trace\n"  # not truncated
    assert os.listdir(tmp_path) == ["trace.csv"]  # and no partial file left
    monkeypatch.undo()
    trace_to_csv(trace, path)
    assert trace_from_csv(path).records[-1].t == HP.T - 1
    assert os.listdir(tmp_path) == ["trace.csv"]
