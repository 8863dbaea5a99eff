"""Convergence metrics and the invariant verifier.

``phi_value_and_grad`` evaluates the primal envelope
phi(x) = max_y f(x, y) and its gradient exactly, at the problem's
closed-form inner maximizer y*(x).

The engine's per-round guarantees are one rule, ``record_checks``: every
check of one record against ``round_caps``, ``centering_tol`` and
finiteness (``first_non_finite``).  The engine applies it to each record as
the run goes and raises at the first breach; ``verify_invariants``
reports each check's worst violation over a trace, in memory or read
from CSV.
"""

from __future__ import annotations

import math
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

CHECK_SLACK = {  # every check a report lists, in its order, with its rounding allowance
    **dict.fromkeys(("drift_x", "drift_y", "server_step_x", "server_step_y", "travel_x"), BOUND_SLACK),
    **dict.fromkeys(("finite_records", "centering_x", "centering_y"), 0.0),
}
UNCAPPED_CHECKS = ("drift_x", "drift_y", "centering_x", "centering_y")  # the unnormalized baseline's


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


def first_non_finite(rec) -> Optional[str]:
    """The first of the record's ``FINITE_FIELDS`` that is not finite, or None."""
    return next((f for f in FINITE_FIELDS if not math.isfinite(getattr(rec, f))), None)


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


def record_checks(rec, caps: Optional[dict]):
    """Yield (name, field, cap, violation) for each check of the per-round rule on one record, in report order.

    A check holds when its violation is at most its slack (``holds``); a
    breach names the record ``field`` read and its ``cap``.  ``caps`` are
    the ``round_caps``, None for the unnormalized baseline.  A finite
    record is checked against each cap, against ``travel_x`` (||x_t - x_0||
    at most t server-step caps) where it holds ``dist_x0``, and against
    ``centering_tol`` where it holds its centering residuals; with caps,
    every record must be finite: that check has no cap (None), and a
    breach names the record's first non-finite field.
    """
    if caps is not None:
        if not rec.diverged:
            for field, cap in caps.items():
                yield field.removeprefix("max_"), field, cap, getattr(rec, field) - cap
            if rec.dist_x0 is not None:
                bound = rec.t * (caps["server_step_x"] + BOUND_SLACK)
                yield "travel_x", "dist_x0", bound, rec.dist_x0 - bound
        first = first_non_finite(rec) if rec.diverged else None
        yield "finite_records", first, None, math.inf if rec.diverged else 0.0
    if not rec.diverged and rec.centering_x is not None:
        for axis in ("x", "y"):
            tol = centering_tol(getattr(rec, f"g_prev_norm_{axis}"))
            yield f"centering_{axis}", f"centering_{axis}", tol, getattr(rec, f"centering_{axis}") - tol


def holds(name: str, violation: float) -> bool:
    """Whether a check of ``record_checks`` holds: its violation is at most its ``CHECK_SLACK``."""
    return violation <= CHECK_SLACK[name]


def _worst(name: str, violations: list) -> InvariantCheck:
    worst = float(np.max(violations)) if violations else 0.0
    return InvariantCheck(name, len(violations), max(worst, 0.0), CHECK_SLACK[name], holds(name, worst))


def verify_invariants(trace, hp: HyperParams) -> InvariantReport:
    """The worst violation of each check of ``record_checks`` over a trace.

    The unnormalized baseline's drift checks run on zero rounds, as do the
    checks of fields no record holds: a trace read from CSV has no
    ``dist_x0`` and no centering residuals.
    """
    caps = round_caps(trace.algorithm, trace.cols_x, trace.cols_y, hp)
    found = {name: [] for name in (CHECK_SLACK if caps is not None else UNCAPPED_CHECKS)}
    for rec in trace.records:
        for name, _, _, violation in record_checks(rec, caps):
            found[name].append(violation)
    return InvariantReport([_worst(name, violations) for name, violations in found.items()])
