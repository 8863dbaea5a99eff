"""Differential oracle: the paper's protocol written as plain loops, against the stacked engine bit for bit.

``reference`` runs one run alone, client by client and step by step: each
client's stream ``derive_stream(seed, client, round, step)``, its own
``stoch_grad`` (on the AUC problem, which draws the client's minibatch
indices from that stream first) and ``noise.sample`` for x then y, the
local momentum and step rule on its own blocks, and a server average over
``.sum(axis=0)``.  It shares nothing with the engine but the problem, the
stream and the sampler.  ``run_stack`` must give every run of a stack the
same iterates, drifts, server steps and final state, and the same record
fields: the exact metrics at each round-start point, from the problem's
``y_star``, ``phi_grad`` (else the client mean of ``grad_x`` at y*),
``f_value`` and per-client gradients averaged over ``.sum(axis=0)``; the
distances ``grad_err_*``, ``g_prev_norm_*`` and ``dist_x0``; and the
centering residual, read back from the momentum of each client's first
local step, ``||mean_n((m_n - (1 - beta) u) / beta - g_n)||``.  All of
them are compared bit for bit: the README claims the engine's records
keep each run's bits, that its norms are ``np.linalg.norm``'s and that
every client mean, in the server and the exact metrics alike, is a
``.sum(axis=0)`` divided by N.
"""

import functools

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

import fedminimax as fm
from fedminimax import fedopt
from fedminimax.fedopt import RunSpec
from fedminimax.linalg import newton_schulz_polar
from fedminimax.noise import derive_stream, is_silent, sample

# noise well above the gradients turns a client back towards its start now and then, where its drift must
# keep the largest distance of the round
NOISES = [fm.NoiseModel(s=1.5, sigma=4.0, family="symmetrized-pareto"),
          fm.NoiseModel(s=2.0, sigma=4.0, family="gaussian"),
          fm.NoiseModel(s=1.5, sigma=3.0, family="student-t", tail_exponent=1.8),
          fm.NoiseModel(family="none")]


def matrix_saddle(N: int) -> fm.MinimaxProblem:
    """The acceptance suite's matrix saddle: X is 3x2 and Y 2x2, coupled through each client's B and C."""
    rng = np.random.default_rng(0)
    B = rng.standard_normal((N, 6, 4)) / 3.0
    C = rng.standard_normal((N, 3, 2))

    def grad_x(n, X, Y):
        return C[n] + (B[n] @ Y.ravel()).reshape(3, 2)

    def grad_y(n, X, Y):
        return (B[n].T @ X.ravel()).reshape(2, 2) - Y

    return fm.MinimaxProblem(
        n_clients=N, shape_x=fm.Shape.matrix(3, 2), shape_y=fm.Shape.matrix(2, 2),
        smooth=fm.SmoothnessInfo(L_f=float(np.linalg.norm(B.mean(axis=0), 2)) + 1.0, mu=1.0),
        grad_x=grad_x, grad_y=grad_y, stoch_grad=lambda n, X, Y, rng: (grad_x(n, X, Y), grad_y(n, X, Y)),
        f_value=lambda X, Y: 0.0, y_star=lambda X: (B.mean(axis=0).T @ X.ravel()).reshape(2, 2))


@functools.cache
def auc_problem(N: int) -> fm.MinimaxProblem:
    """A minibatch AUC problem on shards of 20, 27, 34 and 41 points, batch size 5."""
    shards = [fm.gen_imbalanced_data(20 + 7 * n, [0.3], dim=3, separation=2.0, seed=n)[0] for n in range(N)]
    return fm.make_auc_problem(shards, 3, batch_size=5)


PROBLEMS = {"saddle": lambda N: fm.make_saddle_problem(N, 3, 2, hetero=0.5, seed=1), "matrix": matrix_saddle,
            "auc": auc_problem}


def step(algorithm: str, hp, z, m, eta: float):
    """One client's step from z along its momentum m; eta < 0 descends (x), eta > 0 ascends (y)."""
    norm = np.linalg.norm(m)
    if algorithm == "sgda-clip":
        return z + (eta * (hp.tau / max(norm, hp.tau))) * m
    if norm <= fedopt.ZERO_MOMENTUM_TOL:
        return z
    if algorithm == "muon-da" and m.ndim == 2 and min(m.shape) > 1:
        return z + eta * newton_schulz_polar(m)
    return z + eta / norm * m


def client_mean(grad, N: int, x, y):
    return np.stack([grad(n, x, y) for n in range(N)]).sum(axis=0) / N


def exact_metrics(problem, x, y) -> tuple:
    """(||grad phi||, phi, f, mean_gx, mean_gy) at one round-start point."""
    N, best = problem.n_clients, problem.y_star(x)
    grad_phi = problem.phi_grad(x) if problem.phi_grad is not None else client_mean(problem.grad_x, N, x, best)
    return (np.linalg.norm(grad_phi), float(problem.f_value(x, best)), float(problem.f_value(x, y)),
            client_mean(problem.grad_x, N, x, y), client_mean(problem.grad_y, N, x, y))


def reference(problem, spec: RunSpec) -> tuple:
    """(per round: x, y, max drifts, server steps, record fields; final x, y, u, v, g_x, g_y) of one run,
    in plain loops."""
    hp, N, noise = spec.hp, problem.n_clients, spec.noise
    x, y = np.zeros(problem.shape_x.dims), np.zeros(problem.shape_y.dims)
    u, v, g_x, g_y = np.zeros_like(x), np.zeros_like(y), np.zeros_like(x), np.zeros_like(y)
    G_prev = [(np.zeros_like(x), np.zeros_like(y)) for _ in range(N)]
    rounds = []
    for t in range(hp.T):
        ends, averages, drift_x, drift_y, applied_x, applied_y = [], [], [], [], [], []
        grad_phi_norm, phi, f, mean_gx, mean_gy = exact_metrics(problem, x, y)
        fields = {"grad_phi_norm": grad_phi_norm, "f_value": f, "potential": 3.0 * phi + (phi - f),
                  "g_prev_norm_x": np.linalg.norm(g_x), "g_prev_norm_y": np.linalg.norm(g_y),
                  "dist_x0": np.linalg.norm(x)}
        for n in range(N):
            xn, yn, un, vn = x, y, u, v
            sum_x, sum_y, most_x, most_y = np.zeros_like(x), np.zeros_like(y), 0.0, 0.0
            for i in range(hp.p):
                rng = derive_stream(spec.seed, n, t, i)
                gx, gy = problem.stoch_grad(n, xn, yn, rng)
                if not is_silent(noise):
                    gx, gy = gx + sample(noise, problem.shape_x, rng), gy + sample(noise, problem.shape_y, rng)
                sum_x, sum_y = sum_x + gx, sum_y + gy
                if spec.algorithm == "local-sgda-m":
                    un = hp.beta_x * gx + (1.0 - hp.beta_x) * un
                    vn = hp.beta_y * gy + (1.0 - hp.beta_y) * vn
                    xn, yn = xn - hp.eta_x * un, yn + hp.eta_y * vn
                else:
                    mx = hp.beta_x * (gx + g_x - G_prev[n][0]) + (1.0 - hp.beta_x) * u
                    my = hp.beta_y * (gy + g_y - G_prev[n][1]) + (1.0 - hp.beta_y) * v
                    if i == 0:  # the correction the first step's momentum applied, read back from it
                        applied_x.append((mx - (1.0 - hp.beta_x) * u) / hp.beta_x - gx)
                        applied_y.append((my - (1.0 - hp.beta_y) * v) / hp.beta_y - gy)
                    xn, yn = step(spec.algorithm, hp, xn, mx, -hp.eta_x), step(spec.algorithm, hp, yn, my, hp.eta_y)
                dx, dy = np.linalg.norm(xn - x), np.linalg.norm(yn - y)
                most_x = dx if i == 0 or dx > most_x else most_x
                most_y = dy if i == 0 or dy > most_y else most_y
            ends.append((xn, yn))
            averages.append((sum_x / hp.p, sum_y / hp.p))
            drift_x.append(float(most_x))
            drift_y.append(float(most_y))
        g_x = np.stack([a for a, _ in averages]).sum(axis=0) / N
        g_y = np.stack([b for _, b in averages]).sum(axis=0) / N
        x_new = x + hp.gamma_x / (hp.eta_x * N * hp.p) * np.stack([a - x for a, _ in ends]).sum(axis=0)
        y_new = y + hp.gamma_y / (hp.eta_y * N * hp.p) * np.stack([b - y for _, b in ends]).sum(axis=0)
        fields["centering_x"], fields["centering_y"] = (
            np.linalg.norm(np.stack(applied).sum(axis=0) / N) if applied else 0.0 for applied in (applied_x, applied_y))
        u, v = hp.beta_x * g_x + (1.0 - hp.beta_x) * u, hp.beta_y * g_y + (1.0 - hp.beta_y) * v
        fields["grad_err_x"], fields["grad_err_y"] = np.linalg.norm(mean_gx - u), np.linalg.norm(mean_gy - v)
        rounds.append((x, y, max(drift_x), max(drift_y), np.linalg.norm(x_new - x), np.linalg.norm(y_new - y),
                       fields))
        x, y, G_prev = x_new, y_new, averages
    return rounds, (x, y, u, v, g_x, g_y)


def bits(*values) -> bytes:
    return b"".join(np.asarray(value, dtype=float).tobytes() for value in values)


@settings(max_examples=45, deadline=None)
@given(runs=st.lists(st.tuples(st.sampled_from(fedopt.ALGORITHMS), st.sampled_from(NOISES),
                               st.integers(0, 2**64 - 1)), min_size=1, max_size=3),
       N=st.integers(1, 4), p=st.integers(1, 3), T=st.integers(1, 6), kind=st.sampled_from(sorted(PROBLEMS)))
def test_run_stack_follows_the_reference_protocol(runs, N, p, T, kind):
    """All four algorithms; Pareto, Gaussian, Student-t and silent noise; vector and matrix blocks, and AUC
    minibatches on shards of unequal sizes."""
    problem = PROBLEMS[kind](N)
    hp = fm.theorem1_schedule(N, p, T, problem.smooth)
    specs = [RunSpec(algorithm, hp, noise, seed) for algorithm, noise, seed in runs]
    for spec, trace in zip(specs, fedopt.run_stack(problem, specs)):
        assert not isinstance(trace, fedopt.InternalInvariantViolation), trace  # the protocol breaks no check
        rounds, final = reference(problem, spec)
        kept = [rec for rec in trace.records if rec.x is not None]
        assert kept, "every run records its first round"
        for rec, (x, y, drift_x, drift_y, step_x, step_y, fields) in zip(kept, rounds):
            assert bits(rec.x, rec.y, rec.max_drift_x, rec.max_drift_y, rec.server_step_x, rec.server_step_y) == \
                bits(x, y, drift_x, drift_y, step_x, step_y), f"{spec.algorithm} round {rec.t}"
            for name, value in fields.items():
                assert bits(getattr(rec, name)) == bits(value), f"{spec.algorithm} round {rec.t}: {name}"
        if len(kept) == T:
            state = trace.final_state
            assert bits(state.x, state.y, state.u, state.v, state.g_x, state.g_y) == bits(*final)
