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
steps.  So ``client_round`` forms that term, (1 - beta) u, once per
round, from per-row rate columns.  Its noise comes from ``noise``, which
derives the streams of a chunk of rounds at once, sizes the chunk, resets
numpy's generator where a stream is drawn on it, and scales the noise:
once per chunk, or per step on a problem given by per-client callables,
whose variates are drawn inside each step.

Clients are independent given the round-start server state, and runs
are independent of each other, so both run stacked: ``run_stack`` takes
S runs that share the problem and (N, p, T), each with its own
algorithm, hyperparameters, noise model and seed, as (S*N,) + block
client stacks (run s owning rows s*N to s*N + N - 1) and (S,) + block
server stacks; ``run`` is its S = 1 case.  Every row keeps the bits of
its run alone.  Each run's records are judged, as they are made, by the
one per-round rule that ``verify_invariants`` also reports
(``metrics.record_checks``): a run leaves the stack at its first breach
or, for the unnormalized baseline, at its first diverged record, and the
others go on.
"""

from __future__ import annotations

import contextlib
import itertools
import os
from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from .core import ALGORITHMS, POSITIVE, UNIT_INTERVAL, HyperParams, NoiseModel, hyperparam_errors, require
from .linalg import newton_schulz_polars, svd_polar
from .metrics import FINITE_FIELDS, first_non_finite, holds, record_checks, round_caps
from .noise import chunk_draws, chunk_rounds, seed_errors, seed_pools
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
    """The server's blocks; inside ``run_stack`` each field is the (S,) + block stack of S runs."""

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
        self.diverged = first_non_finite(self) is not None


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


def format_number(v: float) -> str:
    """A number as every written file holds it: 17 significant digits, which read back to the same float."""
    return format(float(v), ".17g")


def trace_to_csv(trace: RunTrace, path) -> None:
    """Write the trace in the stable 13-column schema (17 significant digits).

    The file appears whole or not at all: the rows go to a temporary file
    in the same directory, which then replaces ``path`` in one rename.
    """
    lines = [CSV_HEADER]
    for r in trace.records:
        lines.append(",".join([
            str(r.t), trace.algorithm, str(trace.seed),
            *(format_number(getattr(r, f)) for f in FINITE_FIELDS),
            "" if r.auc is None else format_number(r.auc),
        ]))
    partial = f"{os.fspath(path)}.{os.getpid()}.part"
    try:
        with open(partial, "w", newline="") as fh:
            fh.write("\n".join(lines) + "\n")
        os.replace(partial, path)
    except BaseException:
        with contextlib.suppress(OSError):
            os.remove(partial)
        raise


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
    A = np.asarray(A)
    if A.ndim not in (2, 3):
        raise ValueError(f"expected an (N, d) or (N, m, n) client stack, got shape {A.shape}")
    flat = A.reshape(len(A), -1)
    return np.sqrt(np.vecdot(flat, flat))


def _per_client(v, A) -> np.ndarray:
    """The length-N vector v shaped to broadcast over the rows of the stack A."""
    return v.reshape((-1,) + (1,) * (np.ndim(A) - 1))


def _momentum_norms(M) -> tuple:
    """Momentum norms broadcastable over M, and the mask of the clients below tolerance, which stay put."""
    nrm = _per_client(_client_norms(M), M)
    return nrm, nrm <= ZERO_MOMENTUM_TOL


def local_momentum(G, g_global_prev, G_local_prev, u_global_prev, beta: float):
    """beta * (G + g_global_prev - G_local_prev) + (1 - beta) * u_global_prev.

    The global terms are blocks, or stacks like G holding each row's block.
    """
    shape = np.shape(G)
    if not (len(shape) in (2, 3) and shape == np.shape(G_local_prev)
            and all(np.shape(a) in (shape, shape[1:]) for a in (g_global_prev, u_global_prev))):
        raise ValueError("momentum inputs must be (N,) + block stacks over one block")
    require(UNIT_INTERVAL, "beta", beta)
    return _momentum(G, g_global_prev, G_local_prev, (1.0 - beta) * u_global_prev, beta)


def _momentum(G, g, G_prev, kept, beta):
    """:func:`local_momentum` unchecked, given its global momentum term ``kept = (1 - beta) * u``."""
    return beta * (G + g - G_prev) + kept


def _signed(eta: float, direction: str) -> float:
    require(POSITIVE, "eta", eta)
    if direction not in ("descend", "ascend"):
        raise ValueError(f"direction must be 'descend' or 'ascend', got {direction!r}")
    return -eta if direction == "descend" else eta


# Each public step rule checks its arguments and calls a private one, unchecked, that takes the signed step
# (-eta to descend, eta to ascend); the engine calls those on rate_table columns, each row a scalar's bits.


def normalized_step(Z, M, eta: float, direction: str):
    """Fixed-length step: Z -+ eta * M / ||M|| per client; a client with zero momentum stays put."""
    return _normalized(Z, M, _signed(eta, direction))


def _normalized(Z, M, step):
    nrm, low = _momentum_norms(M)
    if not low.any():  # no client stays put: the values both np.where calls would pick
        return Z + step / nrm * M
    return np.where(low, Z, Z + step / np.where(low, 1.0, nrm) * M)


def muon_step(Z, M, eta: float, direction: str, ns_mode: str = "iterative"):
    """Orthonormalized step: Z -+ eta * polar(M) per client.

    The polar factor is 10 Newton-Schulz sweeps, or an SVD under "exact-svd".
    That of a vector, or of a one-column or one-row matrix, is M / ||M||_F,
    so an (N, d) stack and such an (N, m, n) stack take
    :func:`normalized_step` under either ``ns_mode``.  A client whose
    momentum is not finite moves to nan without reaching the kernels.
    """
    errors = hyperparam_errors(ns_mode=ns_mode)
    if errors:
        raise ValueError("; ".join(errors))
    return _muon_steps([(Z, M, _signed(eta, direction))], ns_mode)[0]


def _muon_steps(blocks: list, ns_mode: str) -> list:
    """:func:`muon_step` on each (Z, M, step) block, bit for bit.

    Under "iterative" the matrix blocks' polar factors come from one
    Newton-Schulz call, which shares its Horner stage between them.
    """
    out, masks, safe = [], [], []
    for Z, M, step in blocks:
        if np.ndim(M) == 2 or 1 in np.shape(M)[1:]:
            out.append(_normalized(Z, M, step))
            continue
        _, low = _momentum_norms(M)
        bad = ~np.isfinite(M).all(axis=(1, 2), keepdims=True)
        safe.append(np.where(low | bad, 1.0, M))  # the polar kernels reject a zero or non-finite matrix
        masks.append((len(out), step, low, bad))
        out.append(Z)
    factors = newton_schulz_polars(safe) if ns_mode == "iterative" else [svd_polar(M) for M in safe]
    for (j, step, low, bad), O in zip(masks, factors):
        out[j] = np.where(low, out[j], out[j] + step * np.where(bad, np.nan, O))
    return out


def clip_step(Z, M, eta: float, tau: float, direction: str):
    """Clipped step: Z -+ eta * min(1, tau/||M||) * M per client.  Zero momentum moves nothing."""
    require(POSITIVE, "tau", tau)
    return _clipped(Z, M, _signed(eta, direction), tau)


def _clipped(Z, M, step, tau):
    scale = tau / np.maximum(_client_norms(M), tau)  # exactly 1.0 up to ||M|| = tau
    return Z + step * _per_client(scale, M) * M


# ---------------------------------------------------------------------------
# one round of a stack of runs


@dataclass(frozen=True)
class RunSpec:
    """One run of a stack: every argument of :func:`run` but the problem, which the stack shares."""

    algorithm: str
    hp: HyperParams
    noise: Optional[NoiseModel] = None
    seed: int = 0


def _rule(spec: RunSpec) -> tuple:  # the step rule a run takes
    return spec.algorithm, spec.hp.ns_mode if spec.algorithm == "muon-da" else None


def _groups(specs: list, N: int) -> list:
    """(first, stop, rows, algorithm, ns_mode) of each maximal range of consecutive runs sharing a step rule."""
    groups, stop = [], 0
    for (algorithm, ns_mode), runs in itertools.groupby(specs, key=_rule):
        first, stop = stop, stop + len(list(runs))
        groups.append((first, stop, slice(first * N, stop * N), algorithm, ns_mode))
    return groups


def rate_table(hps: list, ndim_x: int, ndim_y: int) -> tuple:
    """The rates of the runs ``hps`` as columns that broadcast over stacks of ndim_x- and ndim_y-dim blocks.

    Returns (client, server, tau): for x and then y, the signed step
    (-eta_x, +eta_y), beta and 1 - beta on each run's rows, (S*N,) + ones,
    and the server's gamma / (eta N p), beta and 1 - beta, (S,) + ones;
    then tau on each run's rows, (S*N,) like the norms it meets.
    """
    N, ones_x, ones_y = hps[0].N, (1,) * ndim_x, (1,) * ndim_y
    runs = np.array([[-hp.eta_x, hp.beta_x, 1.0 - hp.beta_x, hp.eta_y, hp.beta_y, 1.0 - hp.beta_y, hp.tau,
                      hp.gamma_x / (hp.eta_x * hp.N * hp.p), hp.gamma_y / (hp.eta_y * hp.N * hp.p)] for hp in hps]).T
    rows = np.repeat(runs, N, axis=1)
    return ((tuple(rows[:3].reshape((3, -1) + ones_x)), tuple(rows[3:6].reshape((3, -1) + ones_y))),
            (tuple(runs[[7, 1, 2]].reshape((3, -1) + ones_x)), tuple(runs[[8, 4, 5]].reshape((3, -1) + ones_y))),
            rows[6])


def _by_run(A, N: int) -> np.ndarray:
    """The (S, N) + block view of an (S*N,) + block stack: run s's clients along axis 1 of row s."""
    return A.reshape((-1, N) + A.shape[1:])


def _applied_centering(M, G, kept, beta, N: int) -> np.ndarray:
    """Per run ||mean_n((M_n - kept_n) / beta - G_n)||, kept = (1 - beta) U: the mean correction M applied."""
    return _client_norms(_by_run((M - kept) / beta - G, N).sum(axis=1) / N)


def _joined(parts: list) -> np.ndarray:
    return parts[0] if len(parts) == 1 else np.concatenate(parts)


def client_round(server: ServerState, G_prev_x: np.ndarray, G_prev_y: np.ndarray,
                 problem: MinimaxProblem, specs: list, rates: tuple, draws) -> tuple:
    """Run the p local steps of all N clients of every run in a stack from its round-start server state.

    The stack is S runs (``specs``) that share the problem and (N, p); the
    server state holds their (S,) + block stacks at one round, and run s
    owns rows s*N to s*N + N - 1 of every (S*N,) + block stack and of
    their ``rate_table``.  Returns the final iterates and the new control
    variates (each client's average stochastic gradient) as such stacks,
    each client's largest drift ||x_local - x_t|| per block as (S*N,)
    vectors, and each run's centering residual per block as (S,) vectors:
    the mean correction its step-0 momentum applied, 0.0 for
    ``local-sgda-m``, which applies none.  ``run_stack`` checks them all.

    Step i's batch, noisy rows and scaled noise increments come from
    ``draws(i, X, Y)``, the round's entry of ``noise.chunk_draws``.  Each
    step makes one ``grad`` call for all S*N rows, one momentum call per
    block over every row, and one step-rule call per range of runs that
    share a rule (``_groups``); muon-da's two matrix blocks take their
    polar factors from one Newton-Schulz call.  Every row keeps the bits
    of its run alone.
    """
    N, p = specs[0].hp.N, specs[0].hp.p
    ((step_x, beta_x, keep_x), (step_y, beta_y, keep_y)), _, tau = rates

    def per_client(blocks):  # each run's block on each of its rows
        return np.repeat(blocks, N, axis=0)

    X0, Y0 = per_client(server.x), per_client(server.y)
    U, V = per_client(server.u), per_client(server.v)  # local-sgda-m recurses
    g_x, g_y = per_client(server.g_x), per_client(server.g_y)
    kept_x, kept_y = keep_x * U, keep_y * V  # the bounded rules' (1 - beta) u, fixed for the round
    groups = _groups(specs, N)
    X, Y = X0, Y0
    sum_gx, sum_gy = np.zeros_like(X), np.zeros_like(Y)
    for i in range(p):
        batch, noisy, inc_x, inc_y = draws(i, X, Y)
        GX, GY = problem.grad(X, Y, batch)
        if inc_x is not None:
            GX, GY = GX.copy(), GY.copy()  # the oracle's arrays are not the engine's to write
            GX[noisy] += inc_x.reshape((-1,) + GX.shape[1:])
            GY[noisy] += inc_y.reshape((-1,) + GY.shape[1:])
        sum_gx += GX
        sum_gy += GY
        MX = _momentum(GX, g_x, G_prev_x, kept_x, beta_x)
        MY = _momentum(GY, g_y, G_prev_y, kept_y, beta_y)
        if i == 0:
            cen_x = _applied_centering(MX, GX, kept_x, beta_x, N)
            cen_y = _applied_centering(MY, GY, kept_y, beta_y, N)
        steps_x, steps_y = [], []
        for a, b, r, algorithm, ns_mode in groups:
            if algorithm == "local-sgda-m":  # its own recursive momentum, and no centering
                U[r] = beta_x[r] * GX[r] + keep_x[r] * U[r]
                V[r] = beta_y[r] * GY[r] + keep_y[r] * V[r]
                new_x, new_y = X[r] + step_x[r] * U[r], Y[r] + step_y[r] * V[r]
                cen_x[a:b] = cen_y[a:b] = 0.0
            else:
                new_x, new_y = _steps(algorithm, ns_mode, [(X[r], MX[r], step_x[r]), (Y[r], MY[r], step_y[r])],
                                      tau[r])
            steps_x.append(new_x)
            steps_y.append(new_y)
        X, Y = _joined(steps_x), _joined(steps_y)
        dx, dy = _client_norms(X - X0), _client_norms(Y - Y0)
        # running max with max()'s rule over the steps: an earlier nan stays
        max_dx = dx if i == 0 else np.where(dx > max_dx, dx, max_dx)
        max_dy = dy if i == 0 else np.where(dy > max_dy, dy, max_dy)
    return X, Y, sum_gx / p, sum_gy / p, max_dx, max_dy, cen_x, cen_y


def _steps(algorithm: str, ns_mode: Optional[str], blocks: list, tau: np.ndarray) -> list:
    """The step rule on each (Z, M, step) block of one local step."""
    if algorithm == "muon-da":
        return _muon_steps(blocks, ns_mode)
    if algorithm == "nsgda-m":
        return [_normalized(*block) for block in blocks]
    return [_clipped(*block, tau) for block in blocks]


def server_round(server: ServerState, X, Y, G_x, G_y, rates: tuple) -> ServerState:
    """Aggregate every run's N clients into its next server state, for a stack of S runs at once.

    ``server`` holds the runs' (S,) + block stacks and ``rates`` their
    ``rate_table``, whose server columns give each run's coefficients; X,
    Y, G_x and G_y are (S*N,) + block client stacks, run s owning rows s*N
    to s*N + N - 1.  Each run's clients are summed over the client axis of
    the (S, N) + block view, as ``.sum(axis=0)`` sums one run's stack.
    """
    _, ((step_x, beta_x, keep_x), (step_y, beta_y, keep_y)), tau = rates
    S, N = len(step_x), len(tau) // len(step_x)
    want_x, want_y = (S * N,) + server.x.shape[1:], (S * N,) + server.y.shape[1:]
    if not (len(server.x) == len(server.y) == S and X.shape == G_x.shape == want_x
            and Y.shape == G_y.shape == want_y):
        raise ProtocolError(f"expected {want_x} and {want_y} stacks of {S} runs' clients for x, y, x, y, got "
                            f"{[np.shape(A) for A in (X, Y, G_x, G_y)]}")
    g_x = _by_run(G_x, N).sum(axis=1) / N
    g_y = _by_run(G_y, N).sum(axis=1) / N
    x_new = server.x + step_x * (_by_run(X, N) - server.x[:, None]).sum(axis=1)
    y_new = server.y + step_y * (_by_run(Y, N) - server.y[:, None]).sum(axis=1)
    u_new = beta_x * g_x + keep_x * server.u
    v_new = beta_y * g_y + keep_y * server.v
    return ServerState(x_new, y_new, u_new, v_new, g_x, g_y, server.round + 1)


def _runs(server: ServerState, index) -> ServerState:
    """The runs ``index`` selects from a stacked state, in arrays of their own."""
    blocks = (server.x, server.y, server.u, server.v, server.g_x, server.g_y)
    return ServerState(*(np.array(block[index]) for block in blocks), server.round)


# ---------------------------------------------------------------------------
# full run


def _nan_record(t: int) -> RoundRecord:
    return RoundRecord(t, **dict.fromkeys(FINITE_FIELDS, float("nan")))


def _judge(algorithm: str, rec: RoundRecord, caps: Optional[dict], drifts: dict) -> None:
    """Raise InternalInvariantViolation at the record's first breach of the per-round rule, ``record_checks``.

    The message names the round, the field and its cap (or, for a field
    that is not finite, that it is not), the check where the field does
    not, and, for a drift, the client with the largest one.
    """
    for name, attr, cap, violation in record_checks(rec, caps):
        if not holds(name, violation):
            breach = "is not finite" if cap is None else f"exceeds its cap {cap!r}"
            check = "" if name in attr else f" ({name})"
            client = f" (largest: client {int(np.argmax(drifts[attr]))})" if attr in drifts else ""
            raise InternalInvariantViolation(f"{algorithm} round {rec.t}: {attr} = {getattr(rec, attr)!r} "
                                             f"{breach}{check}{client}")


def run_stack(problem: MinimaxProblem, specs: list) -> list:
    """Run a stack of runs that share the problem and (N, p, T) as one engine pass.

    Returns one entry per spec, in order: the run's ``RunTrace``, or the
    ``InternalInvariantViolation`` that ended it.  Each run's trace is,
    bit for bit, the trace of ``run`` on that spec alone.  Every round
    makes one ``round_metrics`` call for the points of all the runs still
    in, one ``client_round``, one ``server_round`` and one pass of record
    norms over the stack.  Its rows are grouped by step rule (``_rule``),
    in the order the rules first appear, whatever their rates; one
    ``rate_table``, built as the stack forms and again when a run leaves,
    holds those.  A run leaves at the round it raises, or, for the
    unnormalized baseline, at its first diverged record (the rest of its
    records carry nan); the other runs go on.  The runs' draws come from
    ``noise`` a chunk of rounds at a time (``chunk_rounds``,
    ``chunk_draws``), from seed pools hashed once per stack, with
    ``problem.stoch_grad`` only on a problem given by per-client callables.
    """
    specs = list(specs)
    if not specs:
        raise ValueError("a stack needs at least one run")
    for spec in specs:
        if spec.algorithm not in ALGORITHMS:
            raise ValueError(f"unknown algorithm {spec.algorithm!r}; choose from {ALGORITHMS}")
        if spec.hp.N != problem.n_clients:
            raise ValueError(f"hp.N={spec.hp.N} does not match problem.n_clients={problem.n_clients}")
        errors = seed_errors(spec.seed)
        if errors:
            raise ValueError("; ".join(errors))
    N, p, T = specs[0].hp.N, specs[0].hp.p, specs[0].hp.T
    if any((spec.hp.N, spec.hp.p, spec.hp.T) != (N, p, T) for spec in specs):
        raise ValueError("the runs of a stack must share N, p and T")

    rules = list(dict.fromkeys(map(_rule, specs)))  # in the order they first appear
    live = sorted(range(len(specs)), key=lambda k: rules.index(_rule(specs[k])))
    dims_x, dims_y = problem.shape_x.dims, problem.shape_y.dims
    server = ServerState(*(np.zeros((len(live),) + dims) for dims in (dims_x, dims_y) * 3), 0)
    G_prev_x, G_prev_y = np.zeros((len(live) * N,) + dims_x), np.zeros((len(live) * N,) + dims_y)
    caps = [round_caps(spec.algorithm, problem.shape_x.cols, problem.shape_y.cols, spec.hp) for spec in specs]
    size_x, size_y = problem.shape_x.size, problem.shape_y.size
    stoch_grad = problem.stoch_grad if problem.draws_per_client else None  # it draws on each stream first
    records: list = [[] for _ in specs]
    raised, final = {}, {}
    draws, chunk_end, pools, rates = None, 0, seed_pools([spec.seed for spec in specs]), None
    with np.errstate(over="ignore", invalid="ignore"):
        for t in range(T):
            if not live:
                break
            if rates is None:  # the stack formed, or a run left it
                rates = rate_table([specs[k].hp for k in live], len(dims_x), len(dims_y))
            if draws is None or t == chunk_end:
                draws, chunk_start = None, t  # the last chunk's draws are freed before the next pass runs
                chunk_end = min(t + chunk_rounds(p * len(live) * N, size_x, size_y, problem.minibatch), T)
                draws = chunk_draws([specs[k].seed for k in live], [specs[k].noise for k in live], N, p, t,
                                    chunk_end - t, size_x, size_y, problem.minibatch, stoch_grad, pools[:, live])
            phi, grad_phi, f_val, mean_gx, mean_gy = problem.round_metrics(server.x, server.y)
            aucs = [None if problem.auc_eval is None else float(problem.auc_eval(x)) for x in server.x]
            X, Y, G_x, G_y, drift_x, drift_y, cen_x, cen_y = client_round(
                server, G_prev_x, G_prev_y, problem, [specs[k] for k in live], rates, draws[t - chunk_start])
            new = server_round(server, X, Y, G_x, G_y, rates)
            # each record field for every run at once, one Python float per run
            fields = {
                "grad_phi_norm": _client_norms(grad_phi).tolist(),
                "f_value": f_val.tolist(),
                "grad_err_x": _client_norms(mean_gx - new.u).tolist(),
                "grad_err_y": _client_norms(mean_gy - new.v).tolist(),
                # Python's max() over each run's clients: a first nan stays, a later one is skipped
                "max_drift_x": [max(clients) for clients in drift_x.reshape(-1, N).tolist()],
                "max_drift_y": [max(clients) for clients in drift_y.reshape(-1, N).tolist()],
                "server_step_x": _client_norms(new.x - server.x).tolist(),
                "server_step_y": _client_norms(new.y - server.y).tolist(),
                "potential": (3.0 * phi + (phi - f_val)).tolist(),
                "centering_x": cen_x.tolist(),
                "centering_y": cen_y.tolist(),
                "g_prev_norm_x": _client_norms(server.g_x).tolist(),
                "g_prev_norm_y": _client_norms(server.g_y).tolist(),
                "dist_x0": _client_norms(server.x).tolist(),
            }
            values = zip(*fields.values())
            stay = []
            for j, (k, row) in enumerate(zip(live, values)):
                rec = RoundRecord(t=t, **dict(zip(fields, row)), auc=aucs[j],
                                  x=server.x[j].copy(), y=server.y[j].copy())
                clients = slice(j * N, j * N + N)
                try:
                    _judge(specs[k].algorithm, rec, caps[k],
                           {"max_drift_x": drift_x[clients], "max_drift_y": drift_y[clients]})
                except InternalInvariantViolation as exc:
                    raised[k] = exc
                    continue
                records[k].append(rec)
                if rec.diverged:
                    final[k] = _runs(new, j)
                else:
                    stay.append(j)
            if len(stay) < len(live):  # a run left: the next round derives the streams of the rest
                rows = (np.array(stay, dtype=int)[:, None] * N + np.arange(N)).ravel()
                G_x, G_y, live, draws, rates = G_x[rows], G_y[rows], [live[j] for j in stay], None, None
                new = _runs(new, stay)
            server, G_prev_x, G_prev_y = new, G_x, G_y
    final.update((k, _runs(server, j)) for j, k in enumerate(live))

    return [raised[k] if k in raised else RunTrace(
        algorithm=spec.algorithm,
        seed=spec.seed,
        records=records[k] + [_nan_record(t) for t in range(len(records[k]), T)],
        cols_x=problem.shape_x.cols,
        cols_y=problem.shape_y.cols,
        final_state=final[k],
    ) for k, spec in enumerate(specs)]


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
    ``problem.round_metrics`` at (x_t, y_t).  Given an identical
    (config, seed) pair the trace is bit-deterministic.  This is the
    one-run stack of :func:`run_stack`.

    The iterates, control variates and global momentum start at zero, so
    the very first local momentum is beta * gradient.  Overflow is let
    through: a non-finite server state shows in the round's record (x, y
    through ``server_step_*``; u, v and, as beta > 0, g through
    ``grad_err_*``).  For the unnormalized baseline a diverged record ends
    the run (the remaining records carry nan).  Each record is judged as
    the round ends by the per-round rule ``verify_invariants`` reports
    (``metrics.record_checks``): the ``round_caps`` caps, ``travel_x`` and
    finiteness for the bounded algorithms, and the centering of every
    finite record; a breach raises InternalInvariantViolation.
    """
    result, = run_stack(problem, [RunSpec(algorithm, hp, noise, seed)])
    if isinstance(result, InternalInvariantViolation):
        raise result
    return result
