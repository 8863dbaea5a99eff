"""Shared domain types and the theory-derived hyperparameter schedules.

Everything here is a plain value type: safe to share across threads and
cheap to copy with ``dataclasses.replace``.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass

ALGORITHMS = ("nsgda-m", "muon-da", "local-sgda-m", "sgda-clip")
NOISE_FAMILIES = ("symmetrized-pareto", "student-t", "gaussian", "none")


@dataclass(frozen=True)
class Shape:
    """Shape of one parameter block: a vector of dimension d or an m-by-n matrix.

    One dim makes a vector, two a matrix.  The engine keeps each block in
    its own shape, stacked over clients as (N,) + dims.  The polar factor
    of a vector is v / ||v||, so under the orthonormalized (Muon) update a
    vector block takes the normalized step.
    """

    dims: tuple[int, ...]

    def __post_init__(self):
        if len(self.dims) not in (1, 2):
            raise ValueError(f"a shape needs 1 dim (vector) or 2 (matrix), got {self.dims}")
        if any(int(d) != d or d < 1 for d in self.dims):
            raise ValueError(f"shape dims must be positive integers, got {self.dims}")

    @staticmethod
    def vector(d: int) -> "Shape":
        return Shape((int(d),))

    @staticmethod
    def matrix(m: int, n: int) -> "Shape":
        return Shape((int(m), int(n)))

    @property
    def size(self) -> int:
        return math.prod(self.dims)

    @property
    def cols(self) -> int:
        """Column count when viewed as a matrix; 1 for vectors."""
        return 1 if len(self.dims) == 1 else self.dims[1]


@dataclass(frozen=True)
class SmoothnessInfo:
    """Analytic smoothness constants of a minimax problem.

    ``L_f`` is the Lipschitz constant of the gradient, ``mu`` the
    gradient-dominance constant of the inner maximization.  The condition
    number and the smoothness of the primal envelope are derived, never
    stored.
    """

    L_f: float
    mu: float

    def __post_init__(self):
        if not (self.L_f > 0):
            raise ValueError(f"L_f must be positive, got {self.L_f}")
        if not (self.mu > 0):
            raise ValueError(f"mu must be positive, got {self.mu}")

    @property
    def kappa(self) -> float:
        return self.L_f / self.mu

    @property
    def L_phi(self) -> float:
        return self.L_f + self.L_f**2 / self.mu


@dataclass(frozen=True)
class NoiseModel:
    """Heavy-tailed gradient-noise specification.

    The noise added to a stochastic gradient has mean zero and its norm
    satisfies E[norm^s] = sigma^s exactly (the radius distribution is
    rescaled analytically).  With ``tail_exponent < 2`` the variance is
    genuinely unbounded. ``family="none"`` disables noise entirely.
    """

    s: float = 2.0
    sigma: float = 0.0
    family: str = "none"
    tail_exponent: float | None = None

    def __post_init__(self):
        errors = noise_errors(**vars(self))
        if errors:
            raise ValueError("; ".join(errors))
        if self.tail_exponent is None:
            object.__setattr__(self, "tail_exponent", _default_tail(self.s))


def _default_tail(s: float) -> float:
    """Midway between s and 2: moments up to s finite, variance infinite for s < 2."""
    return (s + 2.0) / 2.0


def noise_errors(s, sigma, family, tail_exponent) -> list:
    """Every :class:`NoiseModel` rule the fields break, one "field: ..." message each."""
    tail = _default_tail(s) if tail_exponent is None else tail_exponent
    rules = (
        ("family", family in NOISE_FAMILIES, f"must be one of {NOISE_FAMILIES}, got {family!r}"),
        ("s", 1.0 < s <= 2.0, f"tail index must lie in (1, 2], got {s}"),
        ("sigma", 0 <= sigma < math.inf, f"must be >= 0 and finite, got {sigma}"),
        ("s", family != "gaussian" or s == 2.0, "gaussian noise is only valid with s=2"),
        ("sigma", family != "none" or sigma == 0.0, f"family 'none' forces sigma=0, got {sigma}"),
        ("tail_exponent", family not in ("symmetrized-pareto", "student-t") or s < tail < math.inf,
         f"must be finite and exceed s, got {tail} with s={s}"),
    )
    return [f"{name}: {want}" for name, ok, want in rules if not ok]


@dataclass(frozen=True)
class HyperParams:
    """All knobs of one federated run.

    ``gamma_*`` are the server (global) step sizes, ``eta_*`` the client
    (local) step sizes, ``beta_*`` the momentum mixing weights on the fresh
    stochastic gradient, ``p`` the local steps per communication round,
    ``T`` the number of rounds and ``N`` the client count.  ``tau`` is only
    used by the clipping baseline.  ``ns_mode`` picks the polar kernel of
    the Muon-style update: ten Newton-Schulz sweeps or an exact SVD.
    """

    gamma_x: float
    gamma_y: float
    eta_x: float
    eta_y: float
    beta_x: float
    beta_y: float
    p: int
    T: int
    N: int
    tau: float = 0.1
    ns_mode: str = "iterative"

    def __post_init__(self):
        errors = hyperparam_errors(**vars(self))
        if errors:
            raise ValueError("; ".join(errors))


# a rule on a real HyperParams field: its test, and what a breach message says it wants
POSITIVE = (lambda v: 0 < v < math.inf, "must be positive and finite")
UNIT_INTERVAL = (lambda v: 0.0 < v <= 1.0, "must lie in (0, 1]")
_RULES = {**dict.fromkeys(("gamma_x", "gamma_y", "eta_x", "eta_y", "tau"), POSITIVE),
          **dict.fromkeys(("beta_x", "beta_y"), UNIT_INTERVAL)}
_COUNTS = ("p", "T", "N")
_CHOICES = {"ns_mode": ("iterative", "exact-svd")}


def require(rule: tuple, name: str, v) -> None:
    """Raise ValueError "<name>: <want>, got <v>" unless v keeps ``rule`` (``POSITIVE``, ``UNIT_INTERVAL``)."""
    holds, want = rule
    if not holds(v):
        raise ValueError(f"{name}: {want}, got {v}")


def hyperparam_errors(**fields) -> list:
    """Every :class:`HyperParams` rule the given fields break, one message each.

    Only the fields passed are checked, so a caller holding part of a
    configuration can validate that part; each message starts with its
    field name.
    """
    errors = []
    for name, v in fields.items():
        if name in _RULES:
            holds, want = _RULES[name]
            ok = holds(v)
        elif name in _COUNTS:
            ok = isinstance(v, numbers.Integral) and not isinstance(v, bool) and v >= 1
            want = "must be a positive integer"
        elif name in _CHOICES:
            ok, want = v in _CHOICES[name], f"must be one of {_CHOICES[name]}"
            v = repr(v)
        else:
            raise TypeError(f"HyperParams has no field {name!r}")
        if not ok:
            errors.append(f"{name}: {want}, got {v}")
    return errors


def theorem1_schedule(
    N: int,
    p: int,
    T: int,
    smooth: SmoothnessInfo,
    c: tuple[float, float, float] = (1.0, 1.0, 1.0),
    **overrides,
) -> HyperParams:
    """Hyperparameters under which the normalized method attains its guaranteed rate.

    ``theorem2_schedule`` is this same function: the guarantee of the
    orthonormalized (Muon-style) method has the same orders in N, p, T and
    kappa, so it takes the same schedule.

    With kappa = L_f/mu, the schedule is

        gamma_x = c1 * (N*p)^(1/4) / (kappa * T^(3/4)),   gamma_y = 10*kappa*gamma_x,
        beta_x  = beta_y = min(1, c2 * sqrt(N*p / T)),
        eta_x   = eta_y  = c3 / (p * sqrt(T)).

    The 10*kappa ratio between the two server rates is fixed exactly (it is
    the constant the convergence analysis uses); beta is capped at 1 since
    the momentum recursion requires beta in (0, 1].  The scale constants
    ``c`` default to 1 and are user-tunable.  Extra keyword arguments
    (tau, ns_mode) pass through to :class:`HyperParams`.
    """
    errors = hyperparam_errors(N=N, p=p, T=T)
    if errors:
        raise ValueError("; ".join(errors))
    c1, c2, c3 = c
    if not (c1 > 0 and c2 > 0 and c3 > 0):
        raise ValueError(f"scale constants must be positive, got {c}")
    kappa = smooth.kappa
    gamma_x = c1 * (N * p) ** 0.25 / (kappa * T**0.75)
    gamma_y = (10.0 * kappa) * gamma_x
    beta = min(1.0, c2 * (N * p) ** 0.5 / T**0.5)
    eta = c3 / (p * T**0.5)
    return HyperParams(
        gamma_x=gamma_x,
        gamma_y=gamma_y,
        eta_x=eta,
        eta_y=eta,
        beta_x=beta,
        beta_y=beta,
        p=int(p),
        T=int(T),
        N=int(N),
        **overrides,
    )


theorem2_schedule = theorem1_schedule
