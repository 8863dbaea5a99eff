import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fedminimax import HyperParams
from fedminimax.fedopt import RoundRecord, RunTrace
from fedminimax.metrics import BOUND_SLACK, auc_score, phi_value_and_grad, verify_invariants
from fedminimax.problems import make_saddle_problem


def central_diff(fn, x, eps=1e-6):
    x = np.asarray(x, dtype=float)
    g = np.zeros_like(x)
    for i in range(x.size):
        hi = x.copy(); hi[i] += eps
        lo = x.copy(); lo[i] -= eps
        g[i] = (fn(hi) - fn(lo)) / (2 * eps)
    return g


def test_phi_on_pinned_quadratic():
    # amp=0, B=I, c=0, mu=1: phi(x) = ||x||^2 / 2
    prob = make_saddle_problem(1, 2, 2, mu=1.0, amp=0.0, hetero=0.0,
                               base_coupling=np.eye(2), base_shift=np.zeros(2))
    x = np.array([1.0, 1.0])
    value, grad = phi_value_and_grad(prob, x)
    assert value == pytest.approx(1.0)
    assert np.allclose(grad, x)


def test_phi_grad_fallback_matches_closed_form():
    # without phi_grad (as on AUC) the gradient is the primal half of mean_grad at y*(x)
    prob = make_saddle_problem(3, 4, 3, mu=1.0, amp=1.0, hetero=0.5, seed=9)
    fallback = dataclasses.replace(prob, phi_grad=None)
    rng = np.random.default_rng(0)
    for _ in range(3):
        x = rng.standard_normal(4)
        v1, g1 = phi_value_and_grad(prob, x)
        v2, g2 = phi_value_and_grad(fallback, x)
        assert v1 == v2
        assert np.linalg.norm(g1 - g2) <= 1e-12


def test_phi_grad_matches_finite_differences_of_phi():
    prob = make_saddle_problem(2, 3, 3, mu=1.3, amp=0.7, hetero=0.3, seed=4)
    rng = np.random.default_rng(1)
    for _ in range(4):
        x = rng.standard_normal(3)
        fd = central_diff(lambda z: phi_value_and_grad(prob, z)[0], x)
        _, grad = phi_value_and_grad(prob, x)
        assert np.linalg.norm(fd - grad) <= 1e-5 * max(1.0, np.linalg.norm(fd))


def test_auc_score_separated_inverted_tied():
    labels = np.array([1, 1, -1, -1])
    assert auc_score(np.array([2.0, 3.0, 0.0, 1.0]), labels) == 1.0
    assert auc_score(np.array([0.0, 1.0, 2.0, 3.0]), labels) == 0.0
    assert auc_score(np.zeros(4), labels) == 0.5
    assert auc_score(np.full(4, np.nan), labels) == 0.0  # no pair is ordered or tied


def test_auc_score_matches_pairwise_count():
    rng = np.random.default_rng(3)
    scores = rng.standard_normal(200)
    scores[::7] = scores[::5][: len(scores[::7])]  # inject ties
    labels = np.where(rng.random(200) < 0.3, 1, -1)
    pos = scores[labels == 1]
    neg = scores[labels == -1]
    count = 0.0
    for sp in pos:
        for sn in neg:
            count += 1.0 if sp > sn else (0.5 if sp == sn else 0.0)
    assert auc_score(scores, labels) == count / (len(pos) * len(neg))


def pairwise_auc(scores, labels) -> float:
    """The O(n_pos * n_neg) pairwise form: ordered pairs plus half the tied ones."""
    s, b = np.asarray(scores, dtype=float), np.asarray(labels)
    with np.errstate(invalid="ignore", over="ignore"):  # inf - inf and nan pairs count as neither
        diff = s[b == 1][:, None] - s[b == -1][None, :]
        return float(((diff > 0).sum() + 0.5 * (diff == 0).sum()) / diff.size)


SCORE_VALUES = st.sampled_from([0.0, -0.0, 1.0, -1.0, 0.5, 2.0, 1e300, np.inf, -np.inf, np.nan])


@settings(max_examples=500, deadline=None)
@given(data=st.data(), n_pos=st.sampled_from([1, 2, 3]) | st.integers(1, 60),
       n_neg=st.sampled_from([1, 2, 3]) | st.integers(1, 60), n_other=st.integers(0, 3),
       tied=st.booleans())
def test_auc_score_matches_pairwise_form(data, n_pos, n_neg, n_other, tied):
    n = n_pos + n_neg + n_other
    labels = np.array(data.draw(st.permutations([1] * n_pos + [-1] * n_neg + [0] * n_other)))
    values = (st.integers(-3, 3).map(float) | SCORE_VALUES) if tied else st.floats(allow_nan=True)
    scores = np.array(data.draw(st.lists(values, min_size=n, max_size=n)))
    assert auc_score(scores, labels) == pairwise_auc(scores, labels)


def test_auc_score_single_class_rejected():
    with pytest.raises(ValueError):
        auc_score(np.ones(3), np.array([1, 1, 1]))


def make_trace(algorithm="nsgda-m", drift=0.001, step=0.0005, centering=0.0, T=5,
               cols_x=1, drift_y=None, step_y=None):
    """Constant records; the dual drift and step default to the primal ones."""
    records = [
        RoundRecord(
            t=t, grad_phi_norm=1.0, f_value=0.0, grad_err_x=0.1, grad_err_y=0.1,
            max_drift_x=drift, max_drift_y=drift if drift_y is None else drift_y,
            server_step_x=step, server_step_y=step if step_y is None else step_y,
            potential=4.0, centering_x=centering, centering_y=centering,
            g_prev_norm_x=1.0, g_prev_norm_y=1.0,
        )
        for t in range(T)
    ]
    return RunTrace(algorithm=algorithm, seed=0, records=records, cols_x=cols_x)


HP = HyperParams(gamma_x=0.001, gamma_y=0.01, eta_x=0.0005, eta_y=0.0005,
                 beta_x=0.5, beta_y=0.5, p=2, T=5, N=2)
# (algorithm, primal column count, step_bound): the length of one update direction
BOUNDED = pytest.mark.parametrize("algorithm,cols_x,bound", [
    ("nsgda-m", 1, 1.0), ("muon-da", 4, 2.0), ("sgda-clip", 1, HP.tau),
], ids=["nsgda-m", "muon-da", "sgda-clip"])
JUST_OUTSIDE = 1e-7  # 100x the verifier's slack


def test_verify_passes_for_bounded_trace():
    report = verify_invariants(make_trace(), HP)
    assert report.passed
    names = [c.name for c in report.checks]
    assert "drift_x" in names and "centering_x" in names


@BOUNDED
def test_verify_flags_inflated_drift(algorithm, cols_x, bound):
    cap = HP.eta_x * HP.p * bound
    inside = make_trace(algorithm, drift=cap, step=0.0, cols_x=cols_x, drift_y=0.0)
    assert verify_invariants(inside, HP).passed
    outside = make_trace(algorithm, drift=cap + JUST_OUTSIDE, step=0.0, cols_x=cols_x, drift_y=0.0)
    failed = {c.name: c for c in verify_invariants(outside, HP).checks if not c.passed}
    assert set(failed) == {"drift_x"}
    assert failed["drift_x"].max_violation == pytest.approx(JUST_OUTSIDE, rel=1e-6)


def test_verify_flags_centering_residual():
    bad = make_trace(centering=1e-3)
    report = verify_invariants(bad, HP)
    failed = [c.name for c in report.checks if not c.passed]
    assert "centering_x" in failed and "centering_y" in failed


@BOUNDED
def test_verify_flags_server_step(algorithm, cols_x, bound):
    cap = HP.gamma_x * bound
    inside = make_trace(algorithm, drift=0.0, step=cap, cols_x=cols_x, step_y=0.0)
    assert verify_invariants(inside, HP).passed
    outside = make_trace(algorithm, drift=0.0, step=cap + JUST_OUTSIDE, cols_x=cols_x, step_y=0.0)
    failed = {c.name: c for c in verify_invariants(outside, HP).checks if not c.passed}
    assert "server_step_x" in failed and "server_step_y" not in failed
    assert failed["server_step_x"].max_violation == pytest.approx(JUST_OUTSIDE, rel=1e-6)


@BOUNDED
def test_verify_flags_travel_beyond_t_server_steps(algorithm, cols_x, bound):
    cap = HP.gamma_x * bound
    trace = make_trace(algorithm, drift=0.0, step=0.0, cols_x=cols_x)
    for rec in trace.records:
        rec.dist_x0 = rec.t * cap  # ||x_t - x_0|| at t server steps of full length
    report = verify_invariants(trace, HP)
    assert report.passed
    travel = next(c for c in report.checks if c.name == "travel_x")
    assert travel.rounds_checked == len(trace.records)
    trace.records[-1].dist_x0 += JUST_OUTSIDE
    failed = {c.name: c for c in verify_invariants(trace, HP).checks if not c.passed}
    assert set(failed) == {"travel_x"}  # the recorded server steps are all within their bound
    last = trace.records[-1].t
    assert failed["travel_x"].max_violation == pytest.approx(
        JUST_OUTSIDE - last * BOUND_SLACK, rel=1e-6)


def test_verify_checks_travel_only_where_recorded():
    trace = make_trace()  # as read from CSV: no record carries dist_x0
    travel = next(c for c in verify_invariants(trace, HP).checks if c.name == "travel_x")
    assert (travel.rounds_checked, travel.passed) == (0, True)
    trace.records[2].dist_x0 = 1.0  # far beyond 2 server steps
    travel = next(c for c in verify_invariants(trace, HP).checks if c.name == "travel_x")
    assert (travel.rounds_checked, travel.passed) == (1, False)


def test_verify_skips_bounds_for_unnormalized_baseline():
    report = verify_invariants(make_trace(algorithm="local-sgda-m", drift=99.0, step=99.0), HP)
    assert report.passed
    drift = next(c for c in report.checks if c.name == "drift_x")
    assert drift.rounds_checked == 0
