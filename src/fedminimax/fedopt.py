"""Round-exact federated minimax engine.

One communication round: every client starts from the server iterates,
performs ``p`` local steps, and returns (a) its final iterates, (b) the
average of the stochastic gradients it used, which becomes its control
variate for the next round.  The server averages the control variates,
moves the global iterates by the normalized average client displacement,
and refreshes the global momentum.

Four local update rules share this skeleton:

* ``nsgda-m``      - momentum with control-variate correction, then a
                     fixed-length step along the normalized momentum.
* ``muon-da``      - same momentum, but the step direction is the polar
                     factor (orthonormalization) of the momentum matrix;
                     vectors are treated as single-column matrices, for
                     which the update coincides with nsgda-m.
* ``sgda-clip``    - same momentum, step clipped to length eta * tau.
* ``local-sgda-m`` - unnormalized baseline: locally recursive momentum,
                     no control variates, raw momentum step.  Under
                     heavy-tailed noise a single extreme gradient can
                     dominate the update, so divergence is possible and
                     is recorded rather than raised.

The local momentum of the three bounded rules mixes each fresh
stochastic gradient with the *previous round's global* momentum (held
constant across the round's local steps); it is not recursive over local
steps.

Within a round, clients are independent given the immutable round-start
server state; noise streams are keyed by (seed, client, round, step), so
a client's result does not depend on the order in which clients run.
Aggregation always sums in client-index order.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from .core import ALGORITHMS, HyperParams, NoiseModel
from .linalg import newton_schulz_polar, svd_polar
from .metrics import (
    BOUND_SLACK,
    FINITE_FIELDS,
    phi_value_and_grad,
    record_finite,
    record_within_bounds,
    round_caps,
)
from .noise import derive_stream
from .problems import MinimaxProblem, with_gradient_noise

ZERO_MOMENTUM_TOL = 1e-15

CSV_HEADER = ",".join(("round", "algo", "seed") + FINITE_FIELDS + ("auc",))
CSV_COLUMNS = CSV_HEADER.count(",") + 1


class ProtocolError(RuntimeError):
    """Client results do not match the round contract."""


class DegenerateMomentumError(RuntimeError):
    """Normalized update requested for a (numerically) zero momentum."""


class InternalInvariantViolation(RuntimeError):
    """A by-construction bound was breached: an implementation bug."""


@dataclass
class ServerState:
    x: np.ndarray
    y: np.ndarray
    u: np.ndarray  # global momentum, primal
    v: np.ndarray  # global momentum, dual
    g_x: np.ndarray  # global control variate, primal
    g_y: np.ndarray
    round: int = 0


@dataclass
class ClientState:
    """Per-client material that survives between rounds."""

    g_prev_x: np.ndarray  # this client's control variate from the previous round
    g_prev_y: np.ndarray


@dataclass
class ClientRoundResult:
    x_final: np.ndarray
    y_final: np.ndarray
    g_x: np.ndarray  # average of the round's stochastic primal gradients
    g_y: np.ndarray
    max_drift_x: float  # largest ||x_local - x_t|| over the local steps
    max_drift_y: float


@dataclass
class RoundRecord:
    t: int
    grad_phi_norm: float
    f_value: float
    grad_err_x: float
    grad_err_y: float
    max_drift_x: float
    max_drift_y: float
    server_step_x: float
    server_step_y: float
    potential: float
    auc: Optional[float] = None
    diverged: bool = False
    # in-memory extras, not part of the CSV schema
    bounds_ok: Optional[bool] = None  # this round's drift/step/centering checks
    centering_x: Optional[float] = None
    centering_y: Optional[float] = None
    g_prev_norm_x: Optional[float] = None
    g_prev_norm_y: Optional[float] = None
    dist_x0: Optional[float] = None
    x: Optional[np.ndarray] = None
    y: Optional[np.ndarray] = None


@dataclass
class RunTrace:
    algorithm: str
    seed: int
    records: list
    cols_x: int = 1  # column count of the primal block viewed as a matrix
    cols_y: int = 1
    final_state: Optional[ServerState] = None

    @property
    def diverged(self) -> bool:
        return any(r.diverged for r in self.records)

    def summary(self, window_frac: float = 0.1) -> dict:
        """First/last-window means of the envelope gradient norm plus final AUC.

        Window means skip non-finite entries (diverged rounds) and come
        back nan when a window holds none.
        """
        w = max(1, int(len(self.records) * window_frac))
        norms = [r.grad_phi_norm for r in self.records]

        def window_mean(vals):
            vals = [v for v in vals if np.isfinite(v)]
            return float(np.mean(vals)) if vals else float("nan")

        aucs = [r.auc for r in self.records if r.auc is not None]
        return {
            "first_window_grad_phi": window_mean(norms[:w]),
            "final_window_grad_phi": window_mean(norms[-w:]),
            "final_auc": aucs[-1] if aucs else None,
            "diverged": self.diverged,
        }


def _fmt(v: float) -> str:
    return format(float(v), ".17g")


def trace_to_csv(trace: RunTrace, path) -> None:
    """Write the trace in the stable 13-column schema (17 significant digits)."""
    lines = [CSV_HEADER]
    for r in trace.records:
        lines.append(",".join([
            str(r.t), trace.algorithm, str(trace.seed),
            *(_fmt(getattr(r, f)) for f in FINITE_FIELDS),
            "" if r.auc is None else _fmt(r.auc),
        ]))
    with open(path, "w", newline="") as fh:
        fh.write("\n".join(lines) + "\n")


def trace_from_csv(path) -> RunTrace:
    """Rebuild a trace from CSV.

    Memory-only fields (centering residuals, iterate snapshots) are not in
    the schema and come back as None; rows containing non-finite values are
    flagged as diverged.  Column counts default to 1 (vector runs), so
    matrix-shaped traces should be verified in memory.
    """
    with open(path, newline="") as fh:
        raw = fh.read().splitlines()
    if not raw or raw[0] != CSV_HEADER:
        raise ValueError(f"{path}: row 1: expected header {CSV_HEADER!r}")
    records = []
    algo, seed = "", 0
    for idx, line in enumerate(raw[1:], start=2):
        parts = line.split(",")
        if len(parts) != CSV_COLUMNS:
            raise ValueError(f"{path}: row {idx}: expected {CSV_COLUMNS} fields, got {len(parts)}")
        try:
            t = int(parts[0])
            algo, seed = parts[1], int(parts[2])
            nums = [float(v) for v in parts[3:-1]]
            auc = None if parts[-1] == "" else float(parts[-1])
        except ValueError as exc:
            raise ValueError(f"{path}: row {idx}: {exc}") from None
        records.append(RoundRecord(
            t, **dict(zip(FINITE_FIELDS, nums)), auc=auc,
            diverged=not np.all(np.isfinite(nums)),
        ))
    return RunTrace(algorithm=algo, seed=seed, records=records)


# ---------------------------------------------------------------------------
# step rules


def local_momentum(grad_sample, g_global_prev, g_local_prev, u_global_prev, beta: float):
    """beta * (grad + g_global_prev - g_local_prev) + (1 - beta) * u_global_prev."""
    g = np.asarray(grad_sample, dtype=float)
    if not (g.shape == np.shape(g_global_prev) == np.shape(g_local_prev) == np.shape(u_global_prev)):
        raise ValueError("momentum inputs must share one shape")
    if not (0.0 < beta <= 1.0):
        raise ValueError(f"beta must lie in (0, 1], got {beta}")
    return beta * (g + g_global_prev - g_local_prev) + (1.0 - beta) * u_global_prev


def _sign(direction: str) -> float:
    if direction == "descend":
        return -1.0
    if direction == "ascend":
        return 1.0
    raise ValueError(f"direction must be 'descend' or 'ascend', got {direction!r}")


def normalized_step(z, m, eta: float, direction: str, policy: str = "skip"):
    """Fixed-length step: z -+ eta * m / ||m||; degenerate m handled per policy."""
    if not (eta > 0):
        raise ValueError(f"eta must be positive, got {eta}")
    sign = _sign(direction)
    nrm = np.linalg.norm(m)
    if nrm <= ZERO_MOMENTUM_TOL:
        if policy == "error":
            raise DegenerateMomentumError("momentum norm below tolerance")
        return z
    return z + (sign * eta / nrm) * m


def muon_step(Z, M, eta: float, direction: str, ns_iters: int = 10,
              ns_mode: str = "iterative", policy: str = "skip"):
    """Orthonormalized step: Z -+ eta * polar(M); vectors act as d-by-1 matrices."""
    if not (eta > 0):
        raise ValueError(f"eta must be positive, got {eta}")
    sign = _sign(direction)
    M = np.asarray(M, dtype=float)
    if np.linalg.norm(M) <= ZERO_MOMENTUM_TOL:
        if policy == "error":
            raise DegenerateMomentumError("momentum norm below tolerance")
        return Z
    Mm = M if M.ndim == 2 else M[:, None]
    if ns_mode == "exact-svd":
        O = svd_polar(Mm)
    else:
        O = newton_schulz_polar(Mm, ns_iters)
    return Z + sign * eta * O.reshape(np.shape(Z))


def clip_step(z, m, eta: float, tau: float, direction: str):
    """Clipped step: z -+ eta * min(1, tau/||m||) * m.  Zero momentum moves nothing."""
    if not (eta > 0) or not (tau > 0):
        raise ValueError(f"eta and tau must be positive, got eta={eta} tau={tau}")
    sign = _sign(direction)
    nrm = np.linalg.norm(m)
    scale = 1.0 if nrm <= tau else tau / nrm
    return z + sign * eta * scale * np.asarray(m, dtype=float)


# ---------------------------------------------------------------------------
# one round


def _overflow_guard(bounded: bool):
    """Let the unnormalized baseline overflow under heavy tails.

    Its divergence is detected from the aggregated state afterwards; for
    the bounded algorithms floating-point errors keep numpy's settings.
    """
    return np.errstate() if bounded else np.errstate(over="ignore", invalid="ignore")


def client_round(
    client_id: int,
    server: ServerState,
    state: ClientState,
    problem: MinimaxProblem,
    hp: HyperParams,
    algorithm: str,
    master_seed: int,
) -> ClientRoundResult:
    """Run one client's p local steps from the round-start server state.

    The same stochastic gradient drawn at each (client, step) feeds both
    the momentum update and the control-variate average.  Drift bounds
    (``round_caps``) are asserted at runtime for the bounded algorithms.
    """
    caps = round_caps(algorithm, problem.shape_x.cols, problem.shape_y.cols, hp)
    with _overflow_guard(caps is not None):
        x = server.x.copy()
        y = server.y.copy()
        sum_gx = np.zeros_like(x)
        sum_gy = np.zeros_like(y)
        u_run, v_run = server.u, server.v  # local-sgda-m's recursive momentum
        for i in range(hp.p):
            rng = derive_stream(master_seed, client_id, server.round, i)
            gx, gy = problem.stoch_grad(client_id, x, y, rng)
            sum_gx += gx
            sum_gy += gy
            if algorithm == "local-sgda-m":
                u_run = hp.beta_x * gx + (1.0 - hp.beta_x) * u_run
                v_run = hp.beta_y * gy + (1.0 - hp.beta_y) * v_run
                x = x - hp.eta_x * u_run
                y = y + hp.eta_y * v_run
            else:
                u = local_momentum(gx, server.g_x, state.g_prev_x, server.u, hp.beta_x)
                v = local_momentum(gy, server.g_y, state.g_prev_y, server.v, hp.beta_y)
                if algorithm == "nsgda-m":
                    x = normalized_step(x, u, hp.eta_x, "descend", hp.zero_momentum_policy)
                    y = normalized_step(y, v, hp.eta_y, "ascend", hp.zero_momentum_policy)
                elif algorithm == "muon-da":
                    x = muon_step(x, u, hp.eta_x, "descend", hp.ns_iters, hp.ns_mode,
                                  hp.zero_momentum_policy)
                    y = muon_step(y, v, hp.eta_y, "ascend", hp.ns_iters, hp.ns_mode,
                                  hp.zero_momentum_policy)
                else:
                    x = clip_step(x, u, hp.eta_x, hp.tau, "descend")
                    y = clip_step(y, v, hp.eta_y, hp.tau, "ascend")
            dx = float(np.linalg.norm(x - server.x))
            dy = float(np.linalg.norm(y - server.y))
            # running max that, like max() over the steps, keeps the first nan
            max_dx, max_dy = (dx, dy) if i == 0 else (max(max_dx, dx), max(max_dy, dy))
        result = ClientRoundResult(x, y, sum_gx / hp.p, sum_gy / hp.p, max_dx, max_dy)
    if caps is not None and (max_dx - caps["max_drift_x"] > BOUND_SLACK
                             or max_dy - caps["max_drift_y"] > BOUND_SLACK):
        raise InternalInvariantViolation(
            f"client {client_id} drift exceeded its bound at round {server.round}")
    return result


def server_round(server: ServerState, client_results: list, hp: HyperParams) -> ServerState:
    """Aggregate exactly N client results into the next server state."""
    if len(client_results) != hp.N:
        raise ProtocolError(f"expected {hp.N} client results, got {len(client_results)}")
    g_x = np.sum([r.g_x for r in client_results], axis=0) / hp.N
    g_y = np.sum([r.g_y for r in client_results], axis=0) / hp.N
    disp_x = np.sum([r.x_final - server.x for r in client_results], axis=0)
    disp_y = np.sum([r.y_final - server.y for r in client_results], axis=0)
    x_new = server.x + (hp.gamma_x / (hp.eta_x * hp.N * hp.p)) * disp_x
    y_new = server.y + (hp.gamma_y / (hp.eta_y * hp.N * hp.p)) * disp_y
    u_new = hp.beta_x * g_x + (1.0 - hp.beta_x) * server.u
    v_new = hp.beta_y * g_y + (1.0 - hp.beta_y) * server.v
    return ServerState(x_new, y_new, u_new, v_new, g_x, g_y, server.round + 1)


# ---------------------------------------------------------------------------
# full run


def _all_finite(server: ServerState) -> bool:
    return all(
        np.all(np.isfinite(a))
        for a in (server.x, server.y, server.u, server.v, server.g_x, server.g_y)
    )


def _nan_record(t: int) -> RoundRecord:
    return RoundRecord(t, **dict.fromkeys(FINITE_FIELDS, float("nan")), diverged=True)


def run(
    algorithm: str,
    problem: MinimaxProblem,
    hp: HyperParams,
    noise: Optional[NoiseModel] = None,
    seed: int = 0,
    momentum_warm_start: bool = False,
    halt_on_divergence: bool = False,
    x0=None,
    y0=None,
    phi_tol: float = 1e-8,
) -> RunTrace:
    """Execute T communication rounds and return the per-round trace.

    Metrics in record t describe the round-start iterates (x_t, y_t) plus
    the momentum/control variates produced by round t itself, matching the
    quantities the convergence analysis tracks.  Given an identical
    (config, seed) pair the trace is bit-deterministic.

    Control variates and global momentum start at zero, so the very first
    local momentum is beta * gradient; pass ``momentum_warm_start`` to
    start the global momentum at the full deterministic gradient instead.
    For the unnormalized baseline a non-finite iterate marks the trace as
    diverged from that round on (the remaining records are flagged, or the
    loop stops when ``halt_on_divergence`` is set); for the bounded
    algorithms the same event raises InternalInvariantViolation because
    their updates cannot produce it.  Their records also carry
    ``bounds_ok``, the per-round checks of ``verify_invariants``.
    """
    if algorithm not in ALGORITHMS:
        raise ValueError(f"unknown algorithm {algorithm!r}; choose from {ALGORITHMS}")
    if hp.N != problem.n_clients:
        raise ValueError(f"hp.N={hp.N} does not match problem.n_clients={problem.n_clients}")
    if noise is not None:
        problem = with_gradient_noise(problem, noise)

    x = np.zeros(problem.shape_x.dims) if x0 is None else np.array(x0, dtype=float)
    y = np.zeros(problem.shape_y.dims) if y0 is None else np.array(y0, dtype=float)
    u0 = problem.mean_grad_x(x, y) if momentum_warm_start else np.zeros_like(x)
    v0 = problem.mean_grad_y(x, y) if momentum_warm_start else np.zeros_like(y)
    server = ServerState(x.copy(), y.copy(), u0, v0, np.zeros_like(x), np.zeros_like(y), 0)
    clients = [ClientState(np.zeros_like(x), np.zeros_like(y)) for _ in range(hp.N)]
    x_start, y_start = x.copy(), y.copy()

    caps = round_caps(algorithm, problem.shape_x.cols, problem.shape_y.cols, hp)
    records: list = []
    diverged = False
    for t in range(hp.T):
        if diverged:
            records.append(_nan_record(t))
            continue

        with _overflow_guard(caps is not None):
            phi, gphi = phi_value_and_grad(problem, server.x, tol=phi_tol)
            f_val = float(problem.f_value(server.x, server.y))
        cen_x = float(np.linalg.norm(
            server.g_x - np.sum([c.g_prev_x for c in clients], axis=0) / hp.N))
        cen_y = float(np.linalg.norm(
            server.g_y - np.sum([c.g_prev_y for c in clients], axis=0) / hp.N))
        auc = float(problem.auc_eval(server.x)) if problem.auc_eval is not None else None

        results = [client_round(n, server, clients[n], problem, hp, algorithm, seed)
                   for n in range(hp.N)]
        new_server = server_round(server, results, hp)
        with _overflow_guard(caps is not None):
            rec = RoundRecord(
                t=t,
                grad_phi_norm=float(np.linalg.norm(gphi)),
                f_value=f_val,
                grad_err_x=float(np.linalg.norm(problem.mean_grad_x(server.x, server.y) - new_server.u)),
                grad_err_y=float(np.linalg.norm(problem.mean_grad_y(server.x, server.y) - new_server.v)),
                max_drift_x=max(r.max_drift_x for r in results),
                max_drift_y=max(r.max_drift_y for r in results),
                server_step_x=float(np.linalg.norm(new_server.x - server.x)),
                server_step_y=float(np.linalg.norm(new_server.y - server.y)),
                potential=3.0 * phi + (phi - f_val),
                auc=auc,
                centering_x=cen_x,
                centering_y=cen_y,
                g_prev_norm_x=float(np.linalg.norm(server.g_x)),
                g_prev_norm_y=float(np.linalg.norm(server.g_y)),
                dist_x0=float(np.linalg.norm(server.x - x_start)),
                x=server.x.copy(),
                y=server.y.copy(),
            )
        if caps is not None:
            rec.bounds_ok = record_within_bounds(rec, caps)
        if not (_all_finite(new_server) and record_finite(rec)):
            if caps is not None:
                raise InternalInvariantViolation(
                    f"{algorithm} produced a non-finite value at round {t}")
            rec.diverged = True
            diverged = True
        records.append(rec)
        if diverged and halt_on_divergence:
            break
        for c, r in zip(clients, results):
            c.g_prev_x = r.g_x
            c.g_prev_y = r.g_y
        server = new_server

    return RunTrace(
        algorithm=algorithm,
        seed=seed,
        records=records,
        cols_x=problem.shape_x.cols,
        cols_y=problem.shape_y.cols,
        final_state=server,
    )
