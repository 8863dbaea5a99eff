"""Shared domain types and the theory-derived hyperparameter schedules.

Everything here is a plain value type: safe to share across threads and
cheap to copy with ``dataclasses.replace``.
"""

from __future__ import annotations

from dataclasses import dataclass

ALGORITHMS = ("nsgda-m", "muon-da", "local-sgda-m", "sgda-clip")
NOISE_FAMILIES = ("symmetrized-pareto", "student-t", "gaussian", "none")


@dataclass(frozen=True)
class Shape:
    """Shape of one parameter block: a vector of dimension d or an m-by-n matrix.

    A vector of dimension d is interchangeable with a d-by-1 matrix; the
    orthonormalized (Muon) update path treats vectors as single-column
    matrices, in which case both reduce to plain L2 normalization.
    """

    kind: str  # "vector" | "matrix"
    dims: tuple[int, ...]

    def __post_init__(self):
        if self.kind not in ("vector", "matrix"):
            raise ValueError(f"unknown shape kind {self.kind!r}")
        want = 1 if self.kind == "vector" else 2
        if len(self.dims) != want:
            raise ValueError(f"{self.kind} shape needs {want} dims, got {self.dims}")
        if any(int(d) != d or d < 1 for d in self.dims):
            raise ValueError(f"shape dims must be positive integers, got {self.dims}")

    @staticmethod
    def vector(d: int) -> "Shape":
        return Shape("vector", (int(d),))

    @staticmethod
    def matrix(m: int, n: int) -> "Shape":
        return Shape("matrix", (int(m), int(n)))

    @property
    def size(self) -> int:
        out = 1
        for d in self.dims:
            out *= d
        return out

    @property
    def cols(self) -> int:
        """Column count when viewed as a matrix; 1 for vectors."""
        return 1 if self.kind == "vector" else self.dims[1]

    def as_matrix(self) -> "Shape":
        """Promote a vector(d) to the equivalent d-by-1 matrix shape."""
        if self.kind == "matrix":
            return self
        return Shape.matrix(self.dims[0], 1)


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
        if self.family not in NOISE_FAMILIES:
            raise ValueError(f"unknown noise family {self.family!r}")
        if not (1.0 < self.s <= 2.0):
            raise ValueError(f"tail index s must lie in (1, 2], got {self.s}")
        if self.sigma < 0:
            raise ValueError(f"sigma must be >= 0, got {self.sigma}")
        if self.family == "gaussian" and self.s != 2.0:
            raise ValueError("gaussian noise is only valid with s=2")
        if self.family == "none" and self.sigma != 0.0:
            raise ValueError("family 'none' forces sigma=0")
        if self.tail_exponent is None:
            # midway between s and 2: moments up to s finite, variance infinite for s<2
            object.__setattr__(self, "tail_exponent", (self.s + 2.0) / 2.0)
        if self.family in ("symmetrized-pareto", "student-t") and not (self.tail_exponent > self.s):
            raise ValueError(
                f"tail_exponent must exceed s, got {self.tail_exponent} <= {self.s}"
            )


@dataclass(frozen=True)
class HyperParams:
    """All knobs of one federated run.

    ``gamma_*`` are the server (global) step sizes, ``eta_*`` the client
    (local) step sizes, ``beta_*`` the momentum mixing weights on the fresh
    stochastic gradient, ``p`` the local steps per communication round,
    ``T`` the number of rounds and ``N`` the client count.  ``tau`` is only
    used by the clipping baseline.  ``ns_iters``/``ns_mode`` control the
    orthonormalization inside the Muon-style update.
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
    ns_iters: int = 10
    ns_mode: str = "iterative"
    zero_momentum_policy: str = "skip"

    def __post_init__(self):
        errors = hyperparam_errors(**vars(self))
        if errors:
            raise ValueError("; ".join(errors))


_POSITIVE = ("gamma_x", "gamma_y", "eta_x", "eta_y", "tau")
_UNIT_INTERVAL = ("beta_x", "beta_y")
_COUNTS = ("p", "T", "N", "ns_iters")
_CHOICES = {"ns_mode": ("iterative", "exact-svd"), "zero_momentum_policy": ("skip", "error")}


def hyperparam_errors(**fields) -> list:
    """Every :class:`HyperParams` rule the given fields break, one message each.

    Only the fields passed are checked, so a caller holding part of a
    configuration can validate that part; each message starts with its
    field name.
    """
    errors = []
    for name, v in fields.items():
        if name in _POSITIVE:
            ok, want = v > 0, "must be positive"
        elif name in _UNIT_INTERVAL:
            ok, want = 0.0 < v <= 1.0, "must lie in (0, 1]"
        elif name in _COUNTS:
            ok, want = int(v) == v and v >= 1, "must be a positive integer"
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

    With kappa = L_f/mu, the schedule is

        gamma_x = c1 * (N*p)^(1/4) / (kappa * T^(3/4)),   gamma_y = 10*kappa*gamma_x,
        beta_x  = beta_y = min(1, c2 * sqrt(N*p / T)),
        eta_x   = eta_y  = c3 / (p * sqrt(T)).

    The 10*kappa ratio between the two server rates is fixed exactly (it is
    the constant the convergence analysis uses); beta is capped at 1 since
    the momentum recursion requires beta in (0, 1].  The scale constants
    ``c`` default to 1 and are user-tunable.  Extra keyword arguments
    (tau, ns_iters, ...) pass through to :class:`HyperParams`.
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


def theorem2_schedule(
    N: int,
    p: int,
    T: int,
    smooth: SmoothnessInfo,
    c: tuple[float, float, float] = (1.0, 1.0, 1.0),
    **overrides,
) -> HyperParams:
    """Schedule for the orthonormalized (Muon-style) method.

    Identical functional form to :func:`theorem1_schedule`; the guarantee
    for the matrix update has the same orders in N, p, T and kappa.
    """
    return theorem1_schedule(N, p, T, smooth, c, **overrides)
