"""Property test: serialize_config inverts parse_config, in the canonical text format.

Sweep cells are built by editing the serialized base config, so every
valid config must survive the round trip unchanged.
"""

import dataclasses
import json

from hypothesis import given, settings
from hypothesis import strategies as st

from fedminimax.cli import SaddleSpec, parse_config, serialize_config
from fedminimax.core import ALGORITHMS


def reference_serialize(config) -> str:
    """The canonical format written out field by field: the reference for serialize_config."""
    d: dict = {
        "algorithm": config.algorithm,
        "N": config.N, "p": config.p, "T": config.T,
        "seeds": list(config.seeds),
        "constants": list(config.constants),
        "tau": config.tau, "ns_mode": config.ns_mode,
        "noise": {
            "family": config.noise.family, "s": config.noise.s,
            "sigma": config.noise.sigma, "tail_exponent": config.noise.tail_exponent,
        },
        "out": config.out,
    }
    prob = dataclasses.asdict(config.problem)
    prob["kind"] = "saddle" if isinstance(config.problem, SaddleSpec) else "auc"
    if prob.get("ratios") is not None:
        prob["ratios"] = list(prob["ratios"])
    else:
        prob.pop("ratios", None)
    d["problem"] = prob
    if config.schedule is not None:
        d["schedule"] = config.schedule
    else:
        d.update(config.explicit)
    return json.dumps(d, indent=2, sort_keys=True)


def reals(lo, hi):
    return st.floats(lo, hi, allow_nan=False, allow_infinity=False)


SEEDS = st.integers(0, 2**64 - 1)


SADDLE = st.fixed_dictionaries({"kind": st.just("saddle")}, optional={
    "d_x": st.integers(1, 20), "d_y": st.integers(1, 20), "mu": reals(0.01, 10.0),
    "amp": reals(0.0, 5.0), "hetero": reals(0.0, 2.0), "seed": st.integers(0, 2**32)})


def auc(N):
    # ratios in [0.1, 0.5] with at least 20 samples leave both classes at least 2 points
    ratio = reals(0.1, 0.5)
    return st.fixed_dictionaries({"kind": st.just("auc")}, optional={
        "n_per_client": st.integers(20, 1000), "ratio": ratio,
        "ratios": st.lists(ratio, min_size=N, max_size=N), "dim": st.integers(1, 30),
        "separation": reals(0.0, 4.0), "batch_size": st.integers(1, 128),
        "pooled_ratio": st.booleans(), "spread": reals(0.1, 2.0),
        "seed": st.integers(0, 2**32), "test_size": st.integers(100, 3000)})


NOISE = st.one_of(
    st.fixed_dictionaries({"family": st.just("none")}, optional={"s": reals(1.01, 2.0)}),
    st.fixed_dictionaries({"family": st.just("gaussian"), "s": st.just(2.0)},
                          optional={"sigma": reals(0.0, 3.0)}),
    st.builds(lambda family, s, sigma, lift: {"family": family, "s": s, "sigma": sigma,
                                               "tail_exponent": None if lift is None else s + lift},
              st.sampled_from(["symmetrized-pareto", "student-t"]), reals(1.05, 1.95),
              reals(0.0, 3.0), st.none() | reals(0.01, 1.0)),
)

RATES = st.fixed_dictionaries({
    "gamma_x": reals(1e-4, 1.0), "gamma_y": reals(1e-4, 1.0), "eta_x": reals(1e-4, 1.0),
    "eta_y": reals(1e-4, 1.0), "beta_x": reals(0.01, 1.0), "beta_y": reals(0.01, 1.0)})


@st.composite
def configs(draw) -> dict:
    N = draw(st.integers(1, 6))
    data = {"N": N, "problem": draw(st.one_of(SADDLE, auc(N)))}
    data.update(draw(st.fixed_dictionaries({}, optional={
        "algorithm": st.sampled_from(ALGORITHMS), "p": st.integers(1, 6), "T": st.integers(1, 500),
        "constants": st.lists(reals(0.01, 10.0), min_size=3, max_size=3),
        "tau": reals(1e-3, 5.0), "ns_mode": st.sampled_from(["iterative", "exact-svd"]),
        "noise": NOISE,
        "out": st.none() | st.text(max_size=8)})))
    data.update(draw(st.one_of(st.just({}), st.fixed_dictionaries({"seed": SEEDS}),
                               st.fixed_dictionaries({"seeds": st.lists(SEEDS, min_size=1, max_size=4)}))))
    data.update(draw(st.one_of(
        st.just({}), st.fixed_dictionaries({"schedule": st.sampled_from(["theorem1", "theorem2"])}),
        RATES)))
    return data


@settings(max_examples=300, deadline=None)
@given(configs())
def test_serialize_config_round_trip(data):
    config = parse_config(json.dumps(data))
    text = serialize_config(config)
    assert parse_config(text) == config
    assert text == reference_serialize(config)
