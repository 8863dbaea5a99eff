"""Heavy-tailed gradient noise with exact control of the s-th moment.

A sample is radius * direction with the direction uniform on the unit
sphere of the flattened parameter block and the radius drawn from the
model's family, rescaled analytically so that E[radius^s] = sigma^s holds
with equality.  Mean zero follows from the spherical symmetry of the
direction.  For the Pareto family with tail exponent t < 2 the variance
of the sample norm is infinite while every moment of order <= s stays
finite: exactly a bounded-s-th-moment noise source and nothing stronger.
"""

from __future__ import annotations

import math

import numpy as np

from .core import NoiseModel, Shape


def derive_stream(master_seed: int, client: int, round_idx: int, step: int) -> np.random.Generator:
    """Independent random stream keyed by (master seed, client, round, step).

    Streams for distinct keys are statistically independent and do not
    depend on the order in which they are created, so concurrent clients
    draw identical noise under any execution schedule.
    """
    key = np.random.SeedSequence(entropy=int(master_seed), spawn_key=(int(client), int(round_idx), int(step)))
    return np.random.default_rng(key)


def _pareto_scale(model: NoiseModel) -> float:
    # E[X^s] = t / (t - s) for a classical Pareto(t) with x_min = 1
    t = model.tail_exponent
    return model.sigma * ((t - model.s) / t) ** (1.0 / model.s)


def _student_t_scale(model: NoiseModel) -> float:
    # E|T_nu|^s = nu^(s/2) * Gamma((s+1)/2) * Gamma((nu-s)/2) / (sqrt(pi) * Gamma(nu/2))
    nu, s = model.tail_exponent, model.s
    log_m = (
        0.5 * s * math.log(nu)
        + math.lgamma((s + 1.0) / 2.0)
        + math.lgamma((nu - s) / 2.0)
        - 0.5 * math.log(math.pi)
        - math.lgamma(nu / 2.0)
    )
    return model.sigma * math.exp(-log_m / s)


def sample(model: NoiseModel, shape: Shape, stream: np.random.Generator) -> np.ndarray:
    """Draw one noise increment of the given shape from the model."""
    if model.family == "none" or model.sigma == 0.0:
        return np.zeros(shape.dims)
    direction = stream.standard_normal(shape.size)
    nrm = np.linalg.norm(direction)
    if nrm == 0.0:  # measure-zero guard
        direction[0] = 1.0
        nrm = 1.0
    direction /= nrm
    if model.family == "symmetrized-pareto":
        radius = _pareto_scale(model) * (1.0 + stream.pareto(model.tail_exponent))
    elif model.family == "student-t":
        radius = _student_t_scale(model) * abs(stream.standard_t(model.tail_exponent))
    elif model.family == "gaussian":
        radius = model.sigma * abs(stream.standard_normal())
    else:  # unreachable: NoiseModel validates the family
        raise ValueError(f"unknown noise family {model.family!r}")
    return (radius * direction).reshape(shape.dims)


def empirical_moment(samples, s: float) -> float:
    """Average of norm(delta)^s over a list of noise samples."""
    if not (0.0 < s <= 2.0):
        raise ValueError(f"moment order s must lie in (0, 2], got {s}")
    if len(samples) == 0:
        raise ValueError("empirical_moment needs at least one sample")
    total = 0.0
    for delta in samples:
        total += float(np.linalg.norm(np.asarray(delta))) ** s
    return total / len(samples)
