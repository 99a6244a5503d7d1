"""Fluid link-load dynamics and bandwidth accounting.

A link carries an integer-ish number of flows, treated as a fluid quantity.
Flows arrive at rate ``gamma`` (flows/sec) and each active flow departs at
rate ``mu``, so the load relaxes exponentially from its initial value toward
the steady state ``gamma / mu``.  Bandwidth consumed scales linearly with the
number of flows; whatever is left of the link capacity is the available
bandwidth that grading and path fitness care about.

Each rule is checked once, where its value enters: ``LinkState`` its fields,
``EdgeArrays.of`` each capacity, the run config each time, rate and size.  The
functions below assume those domains and check them no further.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .topology import DEFAULT_CAPACITY_MBPS


@dataclass
class LinkState:
    """Load state of the links of a topology, one column per field.

    t0:    flows routed across each link at time 0
    gamma: flow arrival rate on each link, flows/sec
    mu:    flow service rate shared by every link, 1/mean flow duration

    ``t0`` and ``gamma`` are arrays aligned with ``topology.links``; a scalar
    field applies to every link.  A negative, infinite or NaN field is a
    ValueError naming the field: the closed form below would turn an
    infinite one into NaN (``inf * 0.0`` at ``t = 0``).
    """

    t0: np.ndarray | float = 0.0
    gamma: np.ndarray | float = 0.0
    mu: float = 1.0

    def __post_init__(self) -> None:
        if not 0 < self.mu < math.inf:
            raise ValueError(f"service rate must be positive and finite, got {self.mu}")
        for field, values in (("initial load", self.t0), ("arrival rate", self.gamma)):
            values = np.asarray(values)
            bad = ~((values >= 0) & (values < math.inf))
            if bad.any():
                raise ValueError(f"{field} must be nonnegative and finite, "
                                 f"got {values[bad].flat[0]}")


def link_load_at(state: LinkState, t: float):
    """Load on each link after ``t >= 0`` seconds of exponential relaxation.

    Closed form of dT/dt = gamma - mu*T starting from ``state.t0``:
    T(t) = t0*exp(-mu*t) + (gamma/mu)*(1 - exp(-mu*t)).  The decay is one
    scalar ``math.exp``, so every link sees exactly the same factor.
    """
    decay = math.exp(-state.mu * t)
    return state.t0 * decay + (state.gamma / state.mu) * (1.0 - decay)


def available_bandwidth(capacity_mbps, load_fraction):
    """Bandwidth free on links of positive capacity with ``load_fraction`` in [0, 1] used."""
    return capacity_mbps * (1.0 - load_fraction)


def load_fraction(state: LinkState, capacity_mbps, *,
                  flow_rate_mbps: float = 1.0, at_time: float = 0.0):
    """Fraction of each link's positive capacity used by its flows at ``at_time >= 0``.

    Each flow consumes a positive ``flow_rate_mbps``; the fraction is clamped
    to [0, 1] so an overloaded link reads as fully saturated, not above capacity.
    """
    consumed = link_load_at(state, at_time) * flow_rate_mbps
    # A tiny capacity overflows the fraction to inf, which the clamp reads as 1.
    with np.errstate(over="ignore"):
        return np.minimum(1.0, np.maximum(0.0, consumed / capacity_mbps))


def traffic_intensity(packet_size_bits: int, load: float, available_bps: float) -> float:
    """Dimensionless intensity: packet size times load over available bandwidth,
    for a positive packet size and bandwidth and a nonnegative load."""
    return packet_size_bits * load / available_bps


def sample_link_states(n_links: int, rng: np.random.Generator, *,
                       capacity_mbps=DEFAULT_CAPACITY_MBPS,
                       flow_rate_mbps: float = 1.0, mu: float = 1.0) -> LinkState:
    """Draw an initial load state for every link in a topology, as one columnar record.

    Initial loads and arrival rates are uniform over the range a link can
    actually carry, so free fractions spread across [0, 1] and bottleneck
    comparisons between paths are informative.  The capacity, one for every
    link or an array of each link's own, the flow rate and ``mu`` are positive.
    """
    # numpy's uniform rejects a range that overflows a float; so do we, by
    # name and before any draw.  A max_flows that is not finite makes
    # max_gammas not finite too, whatever mu is.
    with np.errstate(over="ignore", invalid="ignore"):
        max_flows = capacity_mbps / flow_rate_mbps
        max_gammas = max_flows * mu
    if not np.all(np.isfinite(max_gammas)):
        raise ValueError(f"link load range overflows a float: capacity {np.max(capacity_mbps)} "
                         f"Mbps / flow_rate_mbps {flow_rate_mbps}, times mu {mu}, "
                         f"must be finite")
    t0s = rng.uniform(0.0, max_flows, n_links)
    gammas = rng.uniform(0.0, max_gammas, n_links)
    return LinkState(t0=t0s, gamma=gammas, mu=mu)
