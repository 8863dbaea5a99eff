"""Convergence metrics and the invariant verifier.

``phi_value_and_grad`` evaluates the primal envelope
phi(x) = max_y f(x, y) and its gradient exactly, at the problem's
closed-form inner maximizer y*(x).

``verify_invariants`` replays the per-round guarantees of the federated
engine over a finished trace and reports the worst violation of each.
It checks ``round_caps``, ``centering_tol`` and each record's
``diverged`` flag, which ``record_finite`` sets from ``FINITE_FIELDS``.
For the bounded algorithms the engine raises on a broken ``round_caps``
cap or a diverged record while it runs; ``travel_x`` and the centering
residuals are checked only here.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from .core import HyperParams

BOUND_SLACK = 1e-9  # rounding allowance on the by-construction length bounds

# the round-record fields that must stay finite for the bounded algorithms
FINITE_FIELDS = (
    "grad_phi_norm", "f_value", "grad_err_x", "grad_err_y", "max_drift_x",
    "max_drift_y", "server_step_x", "server_step_y", "potential",
)


def step_bound(algorithm: str, cols: Optional[int], hp: HyperParams) -> Optional[float]:
    """Length of one update direction of ``algorithm`` on a block with ``cols`` columns.

    1 for the normalized step, sqrt(cols) for the polar step (its Frobenius
    norm is sqrt(rank) <= sqrt(cols)), tau for the clipped step, and None
    for the unnormalized baseline, which has no such bound.  ``cols=None``
    means the count is unknown, and the polar step's bound then raises
    ValueError rather than guess.
    """
    if algorithm == "nsgda-m":
        return 1.0
    if algorithm == "muon-da":
        if cols is None:
            raise ValueError("muon-da: the block's column count is unknown (cols=None), "
                             "so its sqrt(cols) step bound is too")
        return np.sqrt(cols)
    if algorithm == "sgda-clip":
        return hp.tau
    if algorithm == "local-sgda-m":
        return None
    raise ValueError(f"unknown algorithm {algorithm!r}")


def round_caps(algorithm: str, cols_x: Optional[int], cols_y: Optional[int],
               hp: HyperParams) -> Optional[dict]:
    """Caps on a round record's length fields, or None for an unbounded algorithm.

    p local steps move a client at most eta * p * step_bound from the
    round start; the server moves at most gamma * step_bound.
    """
    bx, by = step_bound(algorithm, cols_x, hp), step_bound(algorithm, cols_y, hp)
    if bx is None:
        return None
    return {
        "max_drift_x": hp.eta_x * hp.p * bx,
        "max_drift_y": hp.eta_y * hp.p * by,
        "server_step_x": hp.gamma_x * bx,
        "server_step_y": hp.gamma_y * by,
    }


def centering_tol(g_prev_norm: float) -> float:
    """Allowed residual of the control-variate centering, relative to the variate's norm."""
    return 1e-7 * (1.0 + g_prev_norm)


def record_finite(rec) -> bool:
    """Whether every one of the record's ``FINITE_FIELDS`` is finite."""
    return bool(np.all(np.isfinite([getattr(rec, f) for f in FINITE_FIELDS])))


def phi_value_and_grad(problem, x):
    """Value and gradient of the primal envelope phi(x) = max_y f(x, y), taken at y*(x).

    The gradient is the problem's ``phi_grad`` or, without one, the
    primal half of ``mean_grad`` at (x, y*(x)) (Danskin's theorem).
    """
    y = problem.y_star(x)
    value = float(problem.f_value(x, y))
    grad = problem.phi_grad(x) if problem.phi_grad is not None else problem.mean_grad(x, y)[0]
    return value, np.asarray(grad, dtype=float)


def auc_score(scores, labels) -> float:
    """Exact pairwise AUC: P(score_pos > score_neg) + 0.5 * P(tie); requires both classes.

    Computed from ranks in O(n log n): the Mann-Whitney statistic with
    average ranks for ties (Hanley & McNeil, 1982) counts the ordered
    positive-negative pairs plus half the tied ones.  Twice that count
    is an exact integer, so the value equals the pairwise count's bit for
    bit.  As in the pairwise count, a pair with a nan score, or two equal
    infinite scores (their difference is nan), is neither ordered nor tied.
    """
    s = np.asarray(scores, dtype=float)
    b = np.asarray(labels)
    is_pos, is_neg = b == 1, b == -1
    n_pos, n_neg = int(np.count_nonzero(is_pos)), int(np.count_nonzero(is_neg))
    if n_pos == 0 or n_neg == 0:
        raise ValueError("auc_score needs at least one positive and one negative")
    keep = (is_pos | is_neg) & ~np.isnan(s)
    v, pos = s[keep], is_pos[keep]
    order = np.argsort(v)  # the order inside a run of tied scores leaves twice_u unchanged
    v, pos = v[order], pos[order]
    first = np.ones(v.size, dtype=bool)
    first[1:] = v[1:] != v[:-1]
    start = np.flatnonzero(first)  # 0-based start of each run of tied scores
    end = np.append(start[1:], v.size)  # one past its end
    twice_rank = (start + 1 + end)[np.cumsum(first) - 1]  # first + last 1-based rank of the run
    k = int(np.count_nonzero(pos))
    twice_u = int(twice_rank[pos].sum()) - k * (k + 1)
    for inf in (np.inf, -np.inf):
        twice_u -= int(np.count_nonzero(pos & (v == inf))) * int(np.count_nonzero(~pos & (v == inf)))
    return float(0.5 * twice_u / (n_pos * n_neg))


@dataclass
class InvariantCheck:
    name: str
    rounds_checked: int
    max_violation: float
    slack: float
    passed: bool


@dataclass
class InvariantReport:
    checks: list

    @property
    def passed(self) -> bool:
        return all(c.passed for c in self.checks)

    def summary(self) -> str:
        lines = []
        for c in self.checks:
            status = "pass" if c.passed else "FAIL"
            lines.append(
                f"{status:4s}  {c.name:24s} rounds={c.rounds_checked:<6d} "
                f"max_violation={c.max_violation:.3e} slack={c.slack:.1e}"
            )
        return "\n".join(lines)

    def rows(self) -> list:
        """Machine-readable rows: (name, rounds_checked, max_violation, slack, passed)."""
        return [
            (c.name, c.rounds_checked, c.max_violation, c.slack, c.passed)
            for c in self.checks
        ]


def _bound_check(name, values, bounds, slack) -> InvariantCheck:
    vals = np.asarray(values, dtype=float)
    bnds = np.broadcast_to(np.asarray(bounds, dtype=float), vals.shape)
    if vals.size == 0:
        return InvariantCheck(name, 0, 0.0, slack, True)
    viol = float(np.max(vals - bnds))
    return InvariantCheck(name, int(vals.size), max(viol, 0.0), slack, viol <= slack)


def verify_invariants(trace, hp: HyperParams) -> InvariantReport:
    """Check the engine's per-round guarantees over a finished trace.

    Covered: client drift bounds, server step bounds, centering of the
    control-variate corrections, no diverged record (bounded algorithms
    only), and ``travel_x``: ||x_t - x_0|| (``dist_x0``) is at most t times
    the server-step bound.  The base bounds eta*p (drift) and gamma (server
    step) pick up a sqrt(cols) factor for the orthonormalized update on
    matrix blocks, and a tau factor for the clipping baseline, whose step
    length is eta * min(tau, ||m||).  The unnormalized baseline has no such
    bounds; its drift checks run on zero rounds, as do the checks of fields
    no record carries (``dist_x0`` and centering are not in the CSV).
    """
    recs = [r for r in trace.records if not r.diverged]
    caps = round_caps(trace.algorithm, trace.cols_x, trace.cols_y, hp)
    if caps is None:
        checks = [_bound_check(name, [], 0.0, BOUND_SLACK) for name in ("drift_x", "drift_y")]
    else:
        checks = [_bound_check(field.removeprefix("max_"), [getattr(r, field) for r in recs],
                               cap, BOUND_SLACK) for field, cap in caps.items()]
        travel = [r for r in recs if r.dist_x0 is not None]
        checks.append(_bound_check(
            "travel_x", [r.dist_x0 for r in travel],
            [r.t * (caps["server_step_x"] + BOUND_SLACK) for r in travel], BOUND_SLACK))
        checks.append(_bound_check(
            "finite_records", [np.inf if r.diverged else 0.0 for r in trace.records], 0.0, 0.0))
    centered = [r for r in recs if r.centering_x is not None]
    for axis in ("x", "y"):
        checks.append(_bound_check(
            f"centering_{axis}", [getattr(r, f"centering_{axis}") for r in centered],
            [centering_tol(getattr(r, f"g_prev_norm_{axis}")) for r in centered], 0.0))
    return InvariantReport(checks)
