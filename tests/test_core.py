import math

import numpy as np
import pytest

from fedminimax import HyperParams, NoiseModel, Shape, SmoothnessInfo
from fedminimax.core import theorem1_schedule, theorem2_schedule


def test_shape_vector_matrix():
    v = Shape.vector(5)
    assert v.size == 5 and v.cols == 1
    m = Shape.matrix(3, 4)
    assert m.size == 12 and m.cols == 4
    assert (v, m) == (Shape((5,)), Shape((3, 4)))  # a shape is its dims
    for dims in ((), (2, 3, 4)):
        with pytest.raises(ValueError, match="1 dim"):
            Shape(dims)


def test_shape_holds_its_dims_as_a_tuple_of_ints():
    """Any sequence of integral numbers makes the shape of those ints: equal, hashable, with an int size."""
    assert Shape([3]) == Shape.vector(3) and hash(Shape([3])) == hash(Shape.vector(3))
    assert (2,) + Shape([3]).dims == (2, 3)
    m = Shape((2.0, np.int64(3)))
    assert m == Shape.matrix(2, 3) and type(m.size) is int and m.size == 6
    assert all(type(d) is int for d in m.dims)
    assert np.zeros((4,) + m.dims).shape == (4, 2, 3)
    for bad in ((2.5,), [1, 0], (math.inf,), (math.nan, 2), (None,), ("3",)):
        with pytest.raises(ValueError, match="positive integers"):
            Shape(bad)


@pytest.mark.parametrize("bad", [0, -1])
def test_shape_rejects_nonpositive(bad):
    with pytest.raises(ValueError):
        Shape.vector(bad)
    with pytest.raises(ValueError):
        Shape.matrix(2, bad)


def test_smoothness_derived_quantities():
    s = SmoothnessInfo(L_f=4.0, mu=2.0)
    assert s.kappa == 2.0
    assert s.L_phi == 4.0 + 16.0 / 2.0
    with pytest.raises(ValueError):
        SmoothnessInfo(L_f=0.0, mu=1.0)
    with pytest.raises(ValueError):
        SmoothnessInfo(L_f=1.0, mu=-1.0)


def test_noise_model_validation():
    m = NoiseModel(s=1.5, sigma=1.0, family="symmetrized-pareto")
    assert m.tail_exponent == pytest.approx(1.75)  # midway between s and 2
    with pytest.raises(ValueError):
        NoiseModel(s=1.5, sigma=1.0, family="gaussian")  # gaussian needs s=2
    with pytest.raises(ValueError):
        NoiseModel(s=2.5, sigma=1.0, family="gaussian")
    with pytest.raises(ValueError):
        NoiseModel(s=2.0, sigma=1.0, family="none")  # none forces sigma=0
    with pytest.raises(ValueError):
        NoiseModel(s=1.5, sigma=1.0, family="symmetrized-pareto", tail_exponent=1.4)
    for bad in (np.inf, np.nan):  # the scale and the tail exponent are finite
        with pytest.raises(ValueError, match="^sigma: must be >= 0 and finite"):
            NoiseModel(s=1.5, sigma=bad, family="student-t")
        with pytest.raises(ValueError, match="^tail_exponent: must be finite and exceed s"):
            NoiseModel(s=1.5, sigma=1.0, family="symmetrized-pareto", tail_exponent=bad)


def test_hyperparams_validation():
    good = dict(gamma_x=0.1, gamma_y=1.0, eta_x=0.01, eta_y=0.01,
                beta_x=0.5, beta_y=0.5, p=4, T=10, N=2)
    HyperParams(**good)
    for key, bad in [("gamma_x", 0.0), ("beta_x", 1.5), ("beta_y", 0.0),
                     ("p", 0), ("T", 0), ("N", 0), ("tau", -1.0)]:
        with pytest.raises(ValueError):
            HyperParams(**{**good, key: bad})
    with pytest.raises(ValueError):
        HyperParams(**good, ns_mode="fancy")
    # a count is an integral value, bool excepted
    for key, bad in [("p", 2.0), ("T", float("inf")), ("N", float("nan")), ("p", True)]:
        with pytest.raises(ValueError, match=f"^{key}: must be a positive integer, got {bad}$"):
            HyperParams(**{**good, key: bad})
    assert HyperParams(**{**good, "p": np.int64(2)}).p == 2
    for key in ("gamma_x", "gamma_y", "eta_x", "eta_y", "tau"):  # a rate is finite
        with pytest.raises(ValueError, match=f"^{key}: must be positive and finite, got inf$"):
            HyperParams(**{**good, key: float("inf")})


def test_schedule_worked_example():
    # N=8, p=4, T=4096, kappa=10: gamma_x = 32^(1/4)/(10*4096^(3/4)),
    # beta = sqrt(32)/64, eta = 1/(4*64)
    hp = theorem1_schedule(8, 4, 4096, SmoothnessInfo(L_f=10.0, mu=1.0))
    assert hp.gamma_x == pytest.approx(4.6453e-4, rel=1e-4)
    assert hp.beta_x == pytest.approx(0.08838834764831845, rel=1e-12)
    assert hp.eta_x == 0.00390625
    assert hp.N == 8 and hp.p == 4 and hp.T == 4096


def test_schedule_all_ones():
    hp = theorem1_schedule(1, 1, 1, SmoothnessInfo(L_f=1.0, mu=1.0))
    assert hp.gamma_x == 1.0
    assert hp.gamma_y == 10.0
    assert hp.beta_x == 1.0
    assert hp.eta_x == 1.0


def test_schedule_beta_capped_at_one():
    hp = theorem1_schedule(100, 10, 4, SmoothnessInfo(L_f=1.0, mu=1.0))
    assert hp.beta_x == 1.0 and hp.beta_y == 1.0


def test_schedule_gamma_ratio_exact():
    for kappa in (1.0, 3.7, 10.0, 123.0):
        smooth = SmoothnessInfo(L_f=kappa, mu=1.0)
        hp = theorem1_schedule(8, 4, 1000, smooth)
        assert hp.gamma_y == (10.0 * smooth.kappa) * hp.gamma_x  # bit-exact
        assert hp.beta_x == hp.beta_y
        assert hp.eta_x == hp.eta_y


def test_schedule_scale_covariance():
    smooth = SmoothnessInfo(L_f=5.0, mu=1.0)
    base = theorem1_schedule(4, 4, 512, smooth)
    double = theorem1_schedule(4, 4, 1024, smooth)
    assert double.gamma_x == pytest.approx(base.gamma_x * 2 ** -0.75, rel=1e-12)
    assert double.beta_x == pytest.approx(base.beta_x * 2 ** -0.5, rel=1e-12)
    assert double.eta_x == pytest.approx(base.eta_x * 2 ** -0.5, rel=1e-12)


def test_schedule_t_power_law_ratio():
    smooth = SmoothnessInfo(L_f=1.0, mu=1.0)
    a = theorem1_schedule(2, 2, 256, smooth)
    b = theorem1_schedule(2, 2, 1024, smooth)
    assert a.gamma_x / b.gamma_x == pytest.approx(4.0 ** 0.75, rel=1e-12)


def test_theorem2_matches_theorem1():
    assert theorem2_schedule is theorem1_schedule  # one schedule, under both names


def test_schedule_rejects_bad_inputs():
    smooth = SmoothnessInfo(L_f=1.0, mu=1.0)
    with pytest.raises(ValueError):
        theorem1_schedule(0, 1, 1, smooth)
    with pytest.raises(ValueError):
        theorem1_schedule(1, 1, 1, smooth, c=(1.0, -1.0, 1.0))
