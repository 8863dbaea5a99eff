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
                     factor (orthonormalization) of the momentum matrix.
                     The polar factor of a vector, or of a one-column or
                     one-row matrix, is m / ||m||: such a block takes the
                     normalized step itself, so muon-da on vectors is
                     nsgda-m bit for bit.
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
stacked: iterates, control variates and momenta are (N,) + block arrays,
(N, d) for a vector block and (N, m, n) for a matrix, one row per client;
drifts are (N,) vectors.  Each local step makes each client's own draws,
the problem's and the raw noise variates, from its (seed, client, round,
step) stream (one reused generator, reset to states derived for the whole
round at once), takes all N gradients from one batched ``problem.grad``
call and scales the noise for the whole stack; then momentum, step rule
and drift act on the stack with each client's bits unchanged;
``server_round`` sums over axis 0.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from .core import ALGORITHMS, HyperParams, NoiseModel, hyperparam_errors
from .linalg import newton_schulz_polar, svd_polar
from .metrics import BOUND_SLACK, FINITE_FIELDS, record_finite, round_caps
from .noise import is_silent, raw_draws, scale_draws, seed_errors, stream_states
from .problems import MinimaxProblem

ZERO_MOMENTUM_TOL = 1e-15
SUMMARY_WINDOW_FRAC = 0.1  # share of the rounds in each window of RunTrace.summary

CSV_HEADER = ",".join(("round", "algo", "seed") + FINITE_FIELDS + ("auc",))
CSV_COLUMNS = CSV_HEADER.count(",") + 1


class ProtocolError(RuntimeError):
    """Client results do not match the round contract."""


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
    """One round of a trace.

    ``diverged`` is set, not passed: true when a ``FINITE_FIELDS`` value is not finite.
    """

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
    diverged: bool = field(init=False)
    # in-memory extras, not part of the CSV schema
    centering_x: Optional[float] = None
    centering_y: Optional[float] = None
    g_prev_norm_x: Optional[float] = None
    g_prev_norm_y: Optional[float] = None
    dist_x0: Optional[float] = None
    x: Optional[np.ndarray] = None
    y: Optional[np.ndarray] = None

    def __post_init__(self):
        self.diverged = not record_finite(self)


@dataclass
class RunTrace:
    algorithm: str
    seed: int
    records: list
    cols_x: Optional[int] = 1  # column count of the primal block viewed as a matrix; None if unknown
    cols_y: Optional[int] = 1
    final_state: Optional[ServerState] = None

    @property
    def diverged(self) -> bool:
        return any(r.diverged for r in self.records)

    def summary(self) -> dict:
        """First/last-window means of the envelope gradient norm plus final AUC.

        Window means skip non-finite entries (diverged rounds) and come
        back nan when a window holds none.
        """
        w = max(1, int(len(self.records) * SUMMARY_WINDOW_FRAC))
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

    The rows must be one run: at least one, all with row 2's algo and seed,
    and rounds 0, 1, 2, ... in order; else ValueError names the first row
    that is not.  Memory-only fields (centering residuals, iterate
    snapshots, ``dist_x0``) are not in the schema and come back as None; a
    row's ``diverged`` flag follows from its values, as in memory.  The
    block column counts are not in the schema either: they come back as
    None, so checking a ``muon-da`` trace raises until the caller fills
    them in from the problem (``dataclasses.replace``).
    """
    with open(path, newline="") as fh:
        raw = fh.read().splitlines()
    if not raw or raw[0] != CSV_HEADER:
        raise ValueError(f"{path}: row 1: expected header {CSV_HEADER!r}")
    if len(raw) == 1:
        raise ValueError(f"{path}: row 2: no records after the header")
    records = []
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
        if idx == 2:
            run_algo, run_seed = algo, seed
        if (algo, seed, t) != (run_algo, run_seed, len(records)):
            raise ValueError(f"{path}: row {idx}: round {t} of {algo!r} seed {seed}, expected round "
                             f"{len(records)} of row 2's {run_algo!r} seed {run_seed}")
        records.append(RoundRecord(t, **dict(zip(FINITE_FIELDS, nums)), auc=auc))
    return RunTrace(algorithm=run_algo, seed=run_seed, records=records, cols_x=None, cols_y=None)


# ---------------------------------------------------------------------------
# step rules: capitalised arguments are (N,) + block stacks, one row per client:
# (N, d) for a vector block, (N, m, n) for a matrix


def _client_norms(A) -> np.ndarray:
    """Per-client Frobenius norms, each summed as np.linalg.norm sums that row alone."""
    if np.ndim(A) not in (2, 3):
        raise ValueError(f"expected an (N, d) or (N, m, n) client stack, got shape {np.shape(A)}")
    flat = np.reshape(A, (len(A), -1))
    return np.sqrt(np.vecdot(flat, flat))


def _per_client(v, A) -> np.ndarray:
    """The length-N vector v shaped to broadcast over the rows of the stack A."""
    return np.reshape(v, (-1,) + (1,) * (np.ndim(A) - 1))


def _momentum_norms(M) -> tuple:
    """Momentum norms broadcastable over M, and the mask of the clients below tolerance, which stay put."""
    nrm = _per_client(_client_norms(M), M)
    return nrm, nrm <= ZERO_MOMENTUM_TOL


def local_momentum(G, g_global_prev, G_local_prev, u_global_prev, beta: float):
    """beta * (G + g_global_prev - G_local_prev) + (1 - beta) * u_global_prev; global terms are blocks."""
    shape = np.shape(G)
    if not (len(shape) in (2, 3) and shape == np.shape(G_local_prev)
            and shape[1:] == np.shape(g_global_prev) == np.shape(u_global_prev)):
        raise ValueError("momentum inputs must be (N,) + block stacks over one block")
    if not (0.0 < beta <= 1.0):
        raise ValueError(f"beta must lie in (0, 1], got {beta}")
    return beta * (G + g_global_prev - G_local_prev) + (1.0 - beta) * u_global_prev


def _signed(eta: float, direction: str) -> float:
    if not (eta > 0):
        raise ValueError(f"eta must be positive, got {eta}")
    if direction not in ("descend", "ascend"):
        raise ValueError(f"direction must be 'descend' or 'ascend', got {direction!r}")
    return -eta if direction == "descend" else eta


def normalized_step(Z, M, eta: float, direction: str):
    """Fixed-length step: Z -+ eta * M / ||M|| per client; a client with zero momentum stays put."""
    step = _signed(eta, direction)
    nrm, low = _momentum_norms(M)
    return np.where(low, Z, Z + step / np.where(low, 1.0, nrm) * M)


def muon_step(Z, M, eta: float, direction: str, ns_mode: str = "iterative"):
    """Orthonormalized step: Z -+ eta * polar(M) per client.

    The polar factor is 10 Newton-Schulz sweeps, or an SVD under "exact-svd".
    That of a vector, or of a one-column or one-row matrix, is M / ||M||_F,
    so an (N, d) stack and such an (N, m, n) stack take
    :func:`normalized_step` under either ``ns_mode``.
    """
    errors = hyperparam_errors(ns_mode=ns_mode)
    if errors:
        raise ValueError("; ".join(errors))
    if np.ndim(M) == 2 or 1 in np.shape(M)[1:]:
        return normalized_step(Z, M, eta, direction)
    step = _signed(eta, direction)
    _, low = _momentum_norms(M)
    safe = np.where(low, 1.0, M)  # the polar kernels reject a zero matrix
    O = svd_polar(safe) if ns_mode == "exact-svd" else newton_schulz_polar(safe)
    return np.where(low, Z, Z + step * O)


def clip_step(Z, M, eta: float, tau: float, direction: str):
    """Clipped step: Z -+ eta * min(1, tau/||M||) * M per client.  Zero momentum moves nothing."""
    if not (tau > 0):
        raise ValueError(f"tau must be positive, got {tau}")
    step = _signed(eta, direction)
    scale = tau / np.maximum(_client_norms(M), tau)  # exactly 1.0 up to ||M|| = tau
    return Z + _per_client(step * scale, M) * M


# ---------------------------------------------------------------------------
# one round


def _applied_centering(M, G, u, beta: float) -> float:
    """||mean_n((M_n - (1 - beta) u) / beta - G_n)||: the mean correction the momentum stack M applied."""
    return float(np.linalg.norm(((M - (1.0 - beta) * u) / beta - G).sum(axis=0) / len(M)))


def client_round(server: ServerState, G_prev_x: np.ndarray, G_prev_y: np.ndarray,
                 problem: MinimaxProblem, hp: HyperParams, algorithm: str, master_seed: int,
                 noise: Optional[NoiseModel] = None) -> tuple:
    """Run the p local steps of all N clients from the round-start server state.

    Returns the final iterates and the new control variates (each client's
    average stochastic gradient) as (N,) + block stacks, each client's
    largest drift ||x_local - x_t|| per block, and each block's centering
    residual: the mean correction the step-0 momentum applied, 0.0 for
    ``local-sgda-m``, which applies none.  It checks nothing; ``run`` does.
    At each step every client draws from its (seed, client, round, step)
    stream: first the problem's own ``draw``, then the raw ``noise``
    variates of x and y.  One ``grad`` call then gives all N gradients, and
    the noise is scaled and added for the whole stack at once.
    """
    x0, y0 = server.x, server.y
    step_idx, client_idx = np.divmod(np.arange(hp.p * hp.N), hp.N)
    states = stream_states(master_seed, np.stack(
        [client_idx, np.full_like(client_idx, server.round), step_idx], axis=1))
    rng = np.random.Generator(np.random.PCG64(0))  # reset to each client's stream before use
    noisy = not is_silent(noise)
    if noisy:
        size_x, size_y = problem.shape_x.size, problem.shape_y.size
        DX, DY = np.empty((hp.N, size_x)), np.empty((hp.N, size_y))
        RX, RY = np.empty(hp.N), np.empty(hp.N)

    def step(Z, M, eta, direction):
        if algorithm == "nsgda-m":
            return normalized_step(Z, M, eta, direction)
        if algorithm == "muon-da":
            return muon_step(Z, M, eta, direction, hp.ns_mode)
        return clip_step(Z, M, eta, hp.tau, direction)

    X, Y = np.repeat(x0[None], hp.N, axis=0), np.repeat(y0[None], hp.N, axis=0)
    sum_gx, sum_gy = np.zeros_like(X), np.zeros_like(Y)
    U, V = server.u, server.v  # global momentum; local-sgda-m recurses
    cen_x = cen_y = 0.0
    for i in range(hp.p):
        batch = [None] * hp.N
        for n in range(hp.N):
            rng.bit_generator.state = states[i * hp.N + n]
            batch[n] = problem.draw(n, rng, X[n], Y[n])
            if noisy:
                DX[n], RX[n] = raw_draws(noise, size_x, rng)
                DY[n], RY[n] = raw_draws(noise, size_y, rng)
        GX, GY = problem.grad(X, Y, batch)
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
            MX = local_momentum(GX, server.g_x, G_prev_x, U, hp.beta_x)
            MY = local_momentum(GY, server.g_y, G_prev_y, V, hp.beta_y)
            if i == 0:
                cen_x = _applied_centering(MX, GX, U, hp.beta_x)
                cen_y = _applied_centering(MY, GY, V, hp.beta_y)
            X = step(X, MX, hp.eta_x, "descend")
            Y = step(Y, MY, hp.eta_y, "ascend")
        dx, dy = _client_norms(X - x0), _client_norms(Y - y0)
        # running max with max()'s rule over the steps: an earlier nan stays
        max_dx = dx if i == 0 else np.where(dx > max_dx, dx, max_dx)
        max_dy = dy if i == 0 else np.where(dy > max_dy, dy, max_dy)
    return X, Y, sum_gx / hp.p, sum_gy / hp.p, max_dx, max_dy, cen_x, cen_y


def server_round(server: ServerState, X, Y, G_x, G_y, hp: HyperParams) -> ServerState:
    """Aggregate the N clients' stacks, summed over axis 0, into the next server state."""
    shapes = [np.shape(S) for S in (X, Y, G_x, G_y)]
    if shapes != [(hp.N,) + np.shape(b) for b in (server.x, server.y) * 2]:
        raise ProtocolError(f"expected ({hp.N},) + block stacks of blocks x, y, x, y, got {shapes}")
    g_x = G_x.sum(axis=0) / hp.N
    g_y = G_y.sum(axis=0) / hp.N
    disp_x = (X - server.x).sum(axis=0)
    disp_y = (Y - server.y).sum(axis=0)
    x_new = server.x + (hp.gamma_x / (hp.eta_x * hp.N * hp.p)) * disp_x
    y_new = server.y + (hp.gamma_y / (hp.eta_y * hp.N * hp.p)) * disp_y
    u_new = hp.beta_x * g_x + (1.0 - hp.beta_x) * server.u
    v_new = hp.beta_y * g_y + (1.0 - hp.beta_y) * server.v
    return ServerState(x_new, y_new, u_new, v_new, g_x, g_y, server.round + 1)


# ---------------------------------------------------------------------------
# full run


def _nan_record(t: int) -> RoundRecord:
    return RoundRecord(t, **dict.fromkeys(FINITE_FIELDS, float("nan")))


def _judge(algorithm: str, rec: RoundRecord, caps: dict, drifts: dict) -> None:
    """Raise InternalInvariantViolation if a bounded record is not finite or beyond a cap by ``BOUND_SLACK``.

    A field without a cap has cap inf.  A broken drift cap names the client
    with the largest drift on that block.
    """
    for name in FINITE_FIELDS:
        value, cap = getattr(rec, name), caps.get(name, np.inf)
        if not (math.isfinite(value) and value - cap <= BOUND_SLACK):
            client = f" (largest: client {int(np.argmax(drifts[name]))})" if name in drifts else ""
            raise InternalInvariantViolation(
                f"{algorithm} round {rec.t}: {name} = {value!r} exceeds its cap {cap!r}{client}")


def run(
    algorithm: str,
    problem: MinimaxProblem,
    hp: HyperParams,
    noise: Optional[NoiseModel] = None,
    seed: int = 0,
) -> RunTrace:
    """Execute T communication rounds and return the per-round trace.

    Metrics in record t describe the round-start iterates (x_t, y_t) plus
    the momentum/control variates produced by round t itself, matching the
    quantities the convergence analysis tracks; the exact ones come from
    one ``problem.round_metrics(x_t, y_t)`` call.  Given an identical
    (config, seed) pair the trace is bit-deterministic.

    The iterates, control variates and global momentum start at zero, so
    the very first local momentum is beta * gradient.  Overflow is let
    through: a non-finite server state shows in the round's record (x, y
    through ``server_step_*``; u, v and, as beta > 0, g through
    ``grad_err_*``).  For the unnormalized baseline a diverged record ends
    the run (the remaining records carry nan).  For the bounded algorithms
    a diverged record, or a drift or server step beyond its ``round_caps``
    cap, raises InternalInvariantViolation as the round ends;
    ``verify_invariants`` checks the same on the finished trace, and
    ``travel_x`` and centering only there.
    """
    if algorithm not in ALGORITHMS:
        raise ValueError(f"unknown algorithm {algorithm!r}; choose from {ALGORITHMS}")
    if hp.N != problem.n_clients:
        raise ValueError(f"hp.N={hp.N} does not match problem.n_clients={problem.n_clients}")
    errors = seed_errors(seed)
    if errors:
        raise ValueError("; ".join(errors))

    dims_x, dims_y = problem.shape_x.dims, problem.shape_y.dims
    server = ServerState(*(np.zeros(dims) for dims in (dims_x, dims_y) * 3), 0)
    G_prev_x, G_prev_y = np.zeros((hp.N,) + dims_x), np.zeros((hp.N,) + dims_y)

    caps = round_caps(algorithm, problem.shape_x.cols, problem.shape_y.cols, hp)
    records: list = []
    with np.errstate(over="ignore", invalid="ignore"):
        for t in range(hp.T):
            if records and records[-1].diverged:
                records.append(_nan_record(t))
                continue

            phi, gphi, f_val, mean_gx, mean_gy = problem.round_metrics(server.x, server.y)
            auc = float(problem.auc_eval(server.x)) if problem.auc_eval is not None else None

            X, Y, G_x, G_y, drift_x, drift_y, cen_x, cen_y = client_round(
                server, G_prev_x, G_prev_y, problem, hp, algorithm, seed, noise)
            new_server = server_round(server, X, Y, G_x, G_y, hp)
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
                dist_x0=float(np.linalg.norm(server.x)),
                x=server.x.copy(),
                y=server.y.copy(),
            )
            if caps is not None:
                _judge(algorithm, rec, caps, {"max_drift_x": drift_x, "max_drift_y": drift_y})
            records.append(rec)
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
