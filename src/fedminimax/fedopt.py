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

Clients are independent given the round-start server state, so they run
stacked: iterates, control variates, momenta and drifts are (N, m, n)
arrays, one slice per client (a d-vector is d-by-1).  Each local step
makes each client's own draws, the problem's and the raw noise variates,
from its (seed, client, round, step) stream (one reused generator, reset
to states derived for the whole round at once), takes all N gradients
from one batched ``problem.grad`` call and scales the noise for the
whole stack; then momentum, step rule and drift act on the stack with
each client's bits unchanged; ``server_round`` sums over axis 0.
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
from .noise import is_silent, raw_draws, scale_draws, seed_errors, stream_states
from .problems import MinimaxProblem

ZERO_MOMENTUM_TOL = 1e-15

CSV_HEADER = ",".join(("round", "algo", "seed") + FINITE_FIELDS + ("auc",))
CSV_COLUMNS = CSV_HEADER.count(",") + 1


class ProtocolError(RuntimeError):
    """Client results do not match the round contract."""


class DegenerateMomentumError(RuntimeError):
    """Normalized update requested for a (numerically) zero momentum."""

    def __init__(self, client: int, round: Optional[int] = None, block: Optional[str] = None):
        super().__init__(f"client {client}, block {block}, round {round}: momentum norm below tolerance")
        self.client, self.round, self.block = client, round, block


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
# step rules: capitalised arguments are (N, m, n) stacks, one slice per client


def _client_norms(A) -> np.ndarray:
    """Per-client Frobenius norms, each summed as np.linalg.norm sums that slice alone."""
    if np.ndim(A) != 3:
        raise ValueError(f"expected an (N, m, n) client stack, got shape {np.shape(A)}")
    flat = np.reshape(A, (len(A), -1))
    return np.sqrt(np.vecdot(flat, flat))


def _momentum_norms(M, policy: str) -> tuple:
    """(N, 1, 1) momentum norms and the mask below tolerance; under "error" that client raises."""
    nrm = _client_norms(M)[:, None, None]
    low = nrm <= ZERO_MOMENTUM_TOL
    if policy == "error" and low.any():
        raise DegenerateMomentumError(int(np.argmax(low)))
    return nrm, low


def local_momentum(G, g_global_prev, G_local_prev, u_global_prev, beta: float):
    """beta * (G + g_global_prev - G_local_prev) + (1 - beta) * u_global_prev; global terms are (m, n)."""
    shape = np.shape(G)
    if not (len(shape) == 3 and shape == np.shape(G_local_prev)
            and shape[1:] == np.shape(g_global_prev) == np.shape(u_global_prev)):
        raise ValueError("momentum inputs must be (N, m, n) stacks over one (m, n) block")
    if not (0.0 < beta <= 1.0):
        raise ValueError(f"beta must lie in (0, 1], got {beta}")
    return beta * (G + g_global_prev - G_local_prev) + (1.0 - beta) * u_global_prev


def _signed(eta: float, direction: str) -> float:
    if not (eta > 0):
        raise ValueError(f"eta must be positive, got {eta}")
    if direction not in ("descend", "ascend"):
        raise ValueError(f"direction must be 'descend' or 'ascend', got {direction!r}")
    return -eta if direction == "descend" else eta


def normalized_step(Z, M, eta: float, direction: str, policy: str = "skip"):
    """Fixed-length step: Z -+ eta * M / ||M|| per client; degenerate M handled per policy."""
    step = _signed(eta, direction)
    nrm, low = _momentum_norms(M, policy)
    return np.where(low, Z, Z + step / np.where(low, 1.0, nrm) * M)


def muon_step(Z, M, eta: float, direction: str, ns_iters: int = 10,
              ns_mode: str = "iterative", policy: str = "skip"):
    """Orthonormalized step: Z -+ eta * polar(M) per client; a vector block is d-by-1."""
    step = _signed(eta, direction)
    _, low = _momentum_norms(M, policy)
    safe = np.where(low, 1.0, M)  # the polar kernels reject a zero matrix
    O = svd_polar(safe) if ns_mode == "exact-svd" else newton_schulz_polar(safe, ns_iters)
    return np.where(low, Z, Z + step * O)


def clip_step(Z, M, eta: float, tau: float, direction: str):
    """Clipped step: Z -+ eta * min(1, tau/||M||) * M per client.  Zero momentum moves nothing."""
    if not (tau > 0):
        raise ValueError(f"tau must be positive, got {tau}")
    step = _signed(eta, direction)
    scale = tau / np.maximum(_client_norms(M), tau)  # exactly 1.0 up to ||M|| = tau
    return Z + (step * scale)[:, None, None] * M


# ---------------------------------------------------------------------------
# one round


def _overflow_guard(bounded: bool):
    """Let the unnormalized baseline overflow under heavy tails.

    Its divergence is detected from the aggregated state afterwards; for
    the bounded algorithms floating-point errors keep numpy's settings.
    """
    return np.errstate() if bounded else np.errstate(over="ignore", invalid="ignore")


def client_round(server: ServerState, G_prev_x: np.ndarray, G_prev_y: np.ndarray,
                 problem: MinimaxProblem, hp: HyperParams, algorithm: str, master_seed: int,
                 noise: Optional[NoiseModel] = None) -> tuple:
    """Run the p local steps of all N clients from the round-start server state.

    Returns the final iterates, the new control variates (each client's
    average stochastic gradient) as (N, m, n) stacks and each client's
    largest drift ||x_local - x_t||, checked against ``round_caps`` when bounded.
    At each step every client draws from its (seed, client, round, step)
    stream: first the problem's own ``draw``, then the raw ``noise``
    variates of x and y.  One ``grad`` call then gives all N gradients, and
    the noise is scaled and added for the whole stack at once.
    """
    bx, by = problem.shape_x.as_matrix().dims, problem.shape_y.as_matrix().dims
    x0, y0 = server.x.reshape(bx), server.y.reshape(by)
    step_idx, client_idx = np.divmod(np.arange(hp.p * hp.N), hp.N)
    states = stream_states(master_seed, np.stack(
        [client_idx, np.full_like(client_idx, server.round), step_idx], axis=1))
    rng = np.random.Generator(np.random.PCG64(0))  # reset to each client's stream before use
    noisy = not is_silent(noise)
    if noisy:
        size_x, size_y = problem.shape_x.size, problem.shape_y.size
        DX, DY = np.empty((hp.N, size_x)), np.empty((hp.N, size_y))
        RX, RY = np.empty(hp.N), np.empty(hp.N)

    def step(Z, M, eta, direction, block):
        try:
            if algorithm == "nsgda-m":
                return normalized_step(Z, M, eta, direction, hp.zero_momentum_policy)
            if algorithm == "muon-da":
                return muon_step(Z, M, eta, direction, hp.ns_iters, hp.ns_mode, hp.zero_momentum_policy)
            return clip_step(Z, M, eta, hp.tau, direction)
        except DegenerateMomentumError as exc:
            raise DegenerateMomentumError(exc.client, server.round, block) from None

    caps = round_caps(algorithm, problem.shape_x.cols, problem.shape_y.cols, hp)
    stack_x, stack_y = (hp.N,) + problem.shape_x.dims, (hp.N,) + problem.shape_y.dims
    with _overflow_guard(caps is not None):
        X, Y = np.repeat(x0[None], hp.N, axis=0), np.repeat(y0[None], hp.N, axis=0)
        sum_gx, sum_gy = np.zeros_like(X), np.zeros_like(Y)
        U, V = server.u.reshape(bx), server.v.reshape(by)  # global momentum; local-sgda-m recurses
        for i in range(hp.p):
            # the iterates in each block's own shape, as the problem sees them
            XB, YB = X.reshape(stack_x), Y.reshape(stack_y)
            batch = [None] * hp.N
            for n in range(hp.N):
                rng.bit_generator.state = states[i * hp.N + n]
                batch[n] = problem.draw(n, rng, XB[n], YB[n])
                if noisy:
                    DX[n], RX[n] = raw_draws(noise, size_x, rng)
                    DY[n], RY[n] = raw_draws(noise, size_y, rng)
            GX, GY = problem.grad(XB, YB, batch)
            GX, GY = GX.reshape(X.shape), GY.reshape(Y.shape)
            if noisy:
                GX = GX + scale_draws(noise, DX, RX).reshape(GX.shape)
                GY = GY + scale_draws(noise, DY, RY).reshape(GY.shape)
            sum_gx += GX
            sum_gy += GY
            if algorithm == "local-sgda-m":
                U = hp.beta_x * GX + (1.0 - hp.beta_x) * U
                V = hp.beta_y * GY + (1.0 - hp.beta_y) * V
                X = X - hp.eta_x * U
                Y = Y + hp.eta_y * V
            else:
                MX = local_momentum(GX, server.g_x.reshape(bx), G_prev_x, U, hp.beta_x)
                MY = local_momentum(GY, server.g_y.reshape(by), G_prev_y, V, hp.beta_y)
                X = step(X, MX, hp.eta_x, "descend", "x")
                Y = step(Y, MY, hp.eta_y, "ascend", "y")
            dx, dy = _client_norms(X - x0), _client_norms(Y - y0)
            # running max with max()'s rule over the steps: an earlier nan stays
            max_dx = dx if i == 0 else np.where(dx > max_dx, dx, max_dx)
            max_dy = dy if i == 0 else np.where(dy > max_dy, dy, max_dy)
    if caps is not None:
        over = (max_dx - caps["max_drift_x"] > BOUND_SLACK) | (max_dy - caps["max_drift_y"] > BOUND_SLACK)
        if over.any():
            raise InternalInvariantViolation(
                f"client {int(np.argmax(over))} drift exceeded its bound at round {server.round}")
    return X, Y, sum_gx / hp.p, sum_gy / hp.p, max_dx, max_dy


def server_round(server: ServerState, X, Y, G_x, G_y, hp: HyperParams) -> ServerState:
    """Aggregate the N clients' stacks, summed over axis 0, into the next server state."""
    if {len(S) for S in (X, Y, G_x, G_y)} != {hp.N}:
        raise ProtocolError(f"expected {hp.N} client results, got {len(G_x)}")
    g_x = G_x.sum(axis=0).reshape(server.x.shape) / hp.N
    g_y = G_y.sum(axis=0).reshape(server.y.shape) / hp.N
    disp_x = (X - server.x.reshape(X.shape[1:])).sum(axis=0).reshape(server.x.shape)
    disp_y = (Y - server.y.reshape(Y.shape[1:])).sum(axis=0).reshape(server.y.shape)
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
    errors = seed_errors(seed)
    if errors:
        raise ValueError("; ".join(errors))

    x = np.zeros(problem.shape_x.dims) if x0 is None else np.array(x0, dtype=float)
    y = np.zeros(problem.shape_y.dims) if y0 is None else np.array(y0, dtype=float)
    u0, v0 = problem.mean_grad(x, y) if momentum_warm_start else (np.zeros_like(x), np.zeros_like(y))
    server = ServerState(x.copy(), y.copy(), u0, v0, np.zeros_like(x), np.zeros_like(y), 0)
    G_prev_x = np.zeros((hp.N,) + problem.shape_x.as_matrix().dims)
    G_prev_y = np.zeros((hp.N,) + problem.shape_y.as_matrix().dims)

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
        cen_x = float(np.linalg.norm(server.g_x - G_prev_x.sum(axis=0).reshape(x.shape) / hp.N))
        cen_y = float(np.linalg.norm(server.g_y - G_prev_y.sum(axis=0).reshape(y.shape) / hp.N))
        auc = float(problem.auc_eval(server.x)) if problem.auc_eval is not None else None

        X, Y, G_x, G_y, drift_x, drift_y = client_round(
            server, G_prev_x, G_prev_y, problem, hp, algorithm, seed, noise)
        new_server = server_round(server, X, Y, G_x, G_y, hp)
        with _overflow_guard(caps is not None):
            mean_gx, mean_gy = problem.mean_grad(server.x, server.y)
            rec = RoundRecord(
                t=t,
                grad_phi_norm=float(np.linalg.norm(gphi)),
                f_value=f_val,
                grad_err_x=float(np.linalg.norm(mean_gx - new_server.u)),
                grad_err_y=float(np.linalg.norm(mean_gy - new_server.v)),
                max_drift_x=max(drift_x.tolist()),
                max_drift_y=max(drift_y.tolist()),
                server_step_x=float(np.linalg.norm(new_server.x - server.x)),
                server_step_y=float(np.linalg.norm(new_server.y - server.y)),
                potential=3.0 * phi + (phi - f_val),
                auc=auc,
                centering_x=cen_x,
                centering_y=cen_y,
                g_prev_norm_x=float(np.linalg.norm(server.g_x)),
                g_prev_norm_y=float(np.linalg.norm(server.g_y)),
                dist_x0=float(np.linalg.norm(server.x - x)),
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
        G_prev_x, G_prev_y = G_x, G_y
        server = new_server

    return RunTrace(
        algorithm=algorithm,
        seed=seed,
        records=records,
        cols_x=problem.shape_x.cols,
        cols_y=problem.shape_y.cols,
        final_state=server,
    )
