import numpy as np
import pytest

from gradednet.traffic import (
    CongestedLinkError,
    LinkState,
    available_bandwidth,
    link_load_at,
    load_fraction,
    sample_link_states,
    traffic_intensity,
)
from oracles import rk4_load


def test_load_at_zero_is_initial():
    assert link_load_at(LinkState(5.0, 2.0, 1.0), 0.0) == 5.0


def test_load_long_run_steady_state():
    assert link_load_at(LinkState(5.0, 2.0, 1.0), 1e9) == pytest.approx(2.0)


def test_load_matches_rk4_oracle():
    # frozen from the RK4 oracle: dT/dt = 2 - T, T(0)=5, t=0.7
    assert link_load_at(LinkState(5.0, 2.0, 1.0), 0.7) == pytest.approx(
        3.4897559113742, abs=1e-6)
    rng = np.random.default_rng(7)
    for _ in range(20):
        t0, gamma = rng.uniform(0, 10, 2)
        mu = rng.uniform(0.1, 5)
        t = rng.uniform(0, 10)
        oracle = rk4_load(t0, gamma, mu, t)
        assert abs(link_load_at(LinkState(t0, gamma, mu), t) - oracle) < 1e-6


def test_load_rejects_negative_time():
    with pytest.raises(ValueError):
        link_load_at(LinkState(1.0, 1.0, 1.0), -0.1)


def test_load_stays_between_initial_and_steady():
    rng = np.random.default_rng(3)
    for _ in range(50):
        state = LinkState(rng.uniform(0, 10), rng.uniform(0, 10), rng.uniform(0.1, 5))
        lo = min(state.t0, state.gamma / state.mu)
        hi = max(state.t0, state.gamma / state.mu)
        for t in rng.uniform(0, 20, 5):
            value = link_load_at(state, t)
            assert lo - 1e-12 <= value <= hi + 1e-12


def test_load_monotone_toward_steady_state():
    rng = np.random.default_rng(6)
    for _ in range(25):
        state = LinkState(rng.uniform(0, 10), rng.uniform(0, 10), rng.uniform(0.1, 5))
        steady = state.gamma / state.mu
        times = np.sort(rng.uniform(0, 10, 8))
        values = [link_load_at(state, t) for t in times]
        gaps = [abs(v - steady) for v in values]
        assert all(a >= b - 1e-12 for a, b in zip(gaps, gaps[1:]))


def test_derivative_matches_finite_difference():
    rng = np.random.default_rng(11)
    h = 1e-5
    for _ in range(50):
        state = LinkState(rng.uniform(0, 10), rng.uniform(0, 10), rng.uniform(0.1, 5))
        t = rng.uniform(h, 10)
        numeric = (link_load_at(state, t + h) - link_load_at(state, t - h)) / (2 * h)
        # right-hand side of the load ODE: dT/dt = gamma - mu*T
        analytic = state.gamma - state.mu * link_load_at(state, t)
        assert abs(numeric - analytic) < 1e-5


def test_state_validation():
    with pytest.raises(ValueError):
        LinkState(1.0, 1.0, 0.0)
    with pytest.raises(ValueError):
        LinkState(-1.0, 1.0, 1.0)
    with pytest.raises(ValueError):
        LinkState(1.0, -1.0, 1.0)


def test_available_bandwidth_cases():
    assert available_bandwidth(30.0, 0.0) == 30.0
    assert available_bandwidth(30.0, 1.0) == 0.0
    assert available_bandwidth(30.0, 0.4) == pytest.approx(18.0)
    with pytest.raises(ValueError):
        available_bandwidth(30.0, 1.2)
    with pytest.raises(ValueError):
        available_bandwidth(30.0, -0.1)


def test_available_plus_consumed_is_capacity():
    rng = np.random.default_rng(5)
    for f in rng.uniform(0, 1, 25):
        free = available_bandwidth(30.0, f)
        assert free + 30.0 * f == pytest.approx(30.0, abs=1e-12)


@pytest.mark.filterwarnings("error")
def test_load_fraction_clamps():
    # 40 flows at 1 Mbps each on a 30 Mbps link reads as saturated
    assert load_fraction(LinkState(40.0, 0.0, 1.0), 30.0) == 1.0
    assert load_fraction(LinkState(0.0, 0.0, 1.0), 30.0) == 0.0
    # so does a fraction that overflows, quietly: 1000 flows on the smallest
    # subnormal capacity, an array as grading passes it (a float quotient never warns)
    assert load_fraction(LinkState(t0=1e3), np.array([5e-324])).tolist() == [1.0]


def test_traffic_intensity_reference_value():
    # 200-byte packets, one flow, 30 Mbps free
    assert traffic_intensity(1600, 1.0, 30e6) == pytest.approx(
        5.333333333333333e-05, abs=1e-9)
    assert traffic_intensity(1600, 0.0, 30e6) == 0.0


def test_traffic_intensity_linear_in_load():
    one = traffic_intensity(1600, 1.5, 12e6)
    two = traffic_intensity(1600, 3.0, 12e6)
    assert two == pytest.approx(2 * one)


def test_traffic_intensity_congested_link():
    with pytest.raises(CongestedLinkError):
        traffic_intensity(1600, 1.0, 0.0)


def test_link_states_over_per_link_capacities():
    # one equal capacity per link draws exactly what the scalar does
    scalar_rng, array_rng = np.random.default_rng(5), np.random.default_rng(5)
    scalar = sample_link_states(1000, scalar_rng, capacity_mbps=30.0, flow_rate_mbps=0.5, mu=2.0)
    per_link = sample_link_states(1000, array_rng, capacity_mbps=np.full(1000, 30.0),
                                  flow_rate_mbps=0.5, mu=2.0)
    assert per_link.t0.tobytes() == scalar.t0.tobytes()
    assert per_link.gamma.tobytes() == scalar.gamma.tobytes()
    assert array_rng.random() == scalar_rng.random()
    # each link's load is drawn over its own capacity
    capacity = np.array([1.0, 30.0, 300.0] * 200)
    states = sample_link_states(600, np.random.default_rng(6), capacity_mbps=capacity)
    assert np.all(states.t0 <= capacity) and np.all(states.gamma <= capacity)
    assert states.t0[2::3].max() > 30.0
    with pytest.raises(ValueError, match="positive"):
        sample_link_states(2, np.random.default_rng(0), capacity_mbps=np.array([30.0, 0.0]))


@pytest.mark.parametrize("capacity, flow_rate, mu", [
    (1e308, 1.0, 10.0),                  # the arrival range overflows
    (1e308, 0.01, 1.0),                  # the flow count overflows
    (np.array([30.0, 1e308]), 1.0, 10.0),  # one link's range overflows
])
def test_link_states_reject_an_overflowing_range_before_drawing(capacity, flow_rate, mu):
    rng = np.random.default_rng(4)
    with pytest.raises(ValueError, match="flow_rate_mbps.*mu"):
        sample_link_states(2, rng, capacity_mbps=capacity, flow_rate_mbps=flow_rate, mu=mu)
    assert rng.random() == np.random.default_rng(4).random()
    # the largest range a float holds is still drawn
    states = sample_link_states(2, rng, capacity_mbps=1e308, flow_rate_mbps=1.0, mu=1.0)
    assert np.all(np.isfinite(states.gamma))
