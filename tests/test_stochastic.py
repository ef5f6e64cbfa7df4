import math
from statistics import NormalDist

import pytest
from hypothesis import given
from hypothesis import strategies as st

from flexmarket import aggregate_requirement, load_case, normal_quantile

from oracles import quantile_bisection


def test_quantile_median_is_zero():
    assert normal_quantile(0.5) == 0.0


def test_quantile_against_bisection_oracle():
    for p, expect in ((0.95, quantile_bisection(0.95)), (0.975, quantile_bisection(0.975))):
        assert normal_quantile(p) == pytest.approx(expect, abs=1e-4)
    # frozen oracle outputs, to catch a silently broken oracle
    assert quantile_bisection(0.95) == pytest.approx(1.644854, abs=1e-5)
    assert quantile_bisection(0.975) == pytest.approx(1.959964, abs=1e-5)


@pytest.mark.parametrize("p", [1 - 1e-6, 1 - 1e-10])
def test_quantile_upper_tail_keeps_full_precision(p):
    # refining near Phi(z) = 1 would cancel digits; the standard library's
    # quantile is an independent reference accurate to double precision
    assert normal_quantile(p) == pytest.approx(NormalDist().inv_cdf(p), rel=1e-14)


def test_quantile_rejects_bad_probability():
    for p in (0.0, 1.0, -0.2, 1.5):
        with pytest.raises(ValueError):
            normal_quantile(p)


# below ~1e-6 the rounding of 1-p alone moves the quantile by more than 1e-9,
# so the antisymmetry bound is only meaningful away from the extreme tails
@given(st.floats(min_value=1e-6, max_value=1 - 1e-6))
def test_quantile_antisymmetry(p):
    assert normal_quantile(p) == pytest.approx(-normal_quantile(1.0 - p), abs=1e-9)


@given(st.floats(min_value=1e-6, max_value=1 - 2e-6), st.floats(min_value=1e-7, max_value=1e-6))
def test_quantile_strictly_increasing(p, dp):
    assert normal_quantile(p + dp) > normal_quantile(p)


def _two_bus_net(t):
    return load_case({
        "areas": ["X"],
        "buses": [{"id": "N1", "area": "X"}, {"id": "N2", "area": "X"}],
        "generators": [{"id": "G", "bus": "N1", "cost_quadratic": 1.0, "cost_linear": 0.0,
                        "cost_constant": 0.0, "p_min": 0.0, "p_max": 100.0,
                        "ramp_down": -50.0, "ramp_up": 50.0, "p_da": 0.0}],
        "lines": [{"id": "L", "from_bus": "N1", "to_bus": "N2", "reactance": 0.1, "capacity": 50.0}],
        "tie_lines": [],
        "demand": {"buses": {"N1": {"mean": 10.0, "std": 3.0}, "N2": {"mean": 20.0, "std": 4.0}}},
        "confidence": {"X": t},
    })


def test_aggregate_requirement_at_half_confidence_is_the_mean():
    req = aggregate_requirement(_two_bus_net(0.5), "X")
    assert req.requirement == pytest.approx(30.0, abs=1e-12)
    assert req.std_total == pytest.approx(5.0)  # sqrt(3^2 + 4^2), independence


def test_aggregate_requirement_tail_five_percent():
    req = aggregate_requirement(_two_bus_net(0.05), "X")
    # Pythagorean std of 5 is exact; z from the quadrature/bisection oracle
    assert req.requirement == pytest.approx(30.0 + quantile_bisection(0.95) * 5.0, abs=1e-3)


def test_aggregate_requirement_six_percent_cov_case():
    net = load_case({
        "areas": ["X"],
        "buses": [{"id": "N1", "area": "X"}],
        "generators": [{"id": "G", "bus": "N1", "cost_quadratic": 1.0, "cost_linear": 0.0,
                        "cost_constant": 0.0, "p_min": 0.0, "p_max": 200.0,
                        "ramp_down": -50.0, "ramp_up": 150.0, "p_da": 0.0}],
        "tie_lines": [],
        "demand": {"cov": 0.06, "buses": {"N1": {"mean": 100.0}}},
        "confidence": {"X": 0.05},
    })
    req = aggregate_requirement(net, "X")
    assert req.std_total == pytest.approx(6.0)
    assert req.requirement == pytest.approx(109.869, abs=1e-2)


def test_aggregate_requirement_monotone_in_tail():
    previous = math.inf
    for t in (0.01, 0.05, 0.1, 0.3, 0.5, 0.7, 0.95):
        req = aggregate_requirement(_two_bus_net(t), "X")
        assert req.requirement < previous
        previous = req.requirement

