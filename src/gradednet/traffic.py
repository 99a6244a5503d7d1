"""Fluid link-load dynamics and bandwidth accounting.

A link carries an integer-ish number of flows, treated as a fluid quantity.
Flows arrive at rate ``gamma`` (flows/sec) and each active flow departs at
rate ``mu``, so the load relaxes exponentially from its initial value toward
the steady state ``gamma / mu``.  Bandwidth consumed scales linearly with the
number of flows; whatever is left of the link capacity is the available
bandwidth that grading and path fitness care about.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .topology import DEFAULT_CAPACITY_MBPS


class CongestedLinkError(ValueError):
    """Raised when traffic intensity is requested on a link with no available bandwidth."""


@dataclass
class LinkState:
    """Load state of the links of a topology, one column per field.

    t0:    flows routed across each link at time 0
    gamma: flow arrival rate on each link, flows/sec
    mu:    flow service rate shared by every link, 1/mean flow duration

    ``t0`` and ``gamma`` are arrays aligned with ``topology.links``; a scalar
    field applies to every link.
    """

    t0: np.ndarray | float = 0.0
    gamma: np.ndarray | float = 0.0
    mu: float = 1.0

    def __post_init__(self) -> None:
        if self.mu <= 0:
            raise ValueError(f"service rate must be positive, got {self.mu}")
        if np.any(np.less(self.t0, 0)):
            raise ValueError(f"initial load must be nonnegative, got {np.min(self.t0)}")
        if np.any(np.less(self.gamma, 0)):
            raise ValueError(f"arrival rate must be nonnegative, got {np.min(self.gamma)}")


def link_load_at(state: LinkState, t: float):
    """Load on each link after ``t`` seconds of exponential relaxation.

    Closed form of dT/dt = gamma - mu*T starting from ``state.t0``:
    T(t) = t0*exp(-mu*t) + (gamma/mu)*(1 - exp(-mu*t)).  The decay is one
    scalar ``math.exp``, so every link sees exactly the same factor.
    """
    if t < 0:
        raise ValueError(f"time must be nonnegative, got {t}")
    decay = math.exp(-state.mu * t)
    return state.t0 * decay + (state.gamma / state.mu) * (1.0 - decay)


def available_bandwidth(capacity_mbps, load_fraction):
    """Bandwidth still free on links whose load consumes ``load_fraction`` of them."""
    if np.any(np.less_equal(capacity_mbps, 0)):
        raise ValueError("capacity must be positive")
    if np.any(np.less(load_fraction, 0.0) | np.greater(load_fraction, 1.0)):
        raise ValueError(f"load fraction must be in [0, 1], got {load_fraction}")
    return capacity_mbps * (1.0 - load_fraction)


def load_fraction(state: LinkState, capacity_mbps, *,
                  flow_rate_mbps: float = 1.0, at_time: float = 0.0):
    """Fraction of each link's capacity consumed by its flows at ``at_time``.

    Each flow consumes ``flow_rate_mbps``; the fraction is clamped to [0, 1]
    so an overloaded link reads as fully saturated rather than above capacity.
    """
    if np.any(np.less_equal(capacity_mbps, 0)):
        raise ValueError("capacity must be positive")
    if flow_rate_mbps <= 0:
        raise ValueError("flow rate must be positive")
    consumed = link_load_at(state, at_time) * flow_rate_mbps
    return np.minimum(1.0, np.maximum(0.0, consumed / capacity_mbps))


def traffic_intensity(packet_size_bits: int, load: float, available_bps: float) -> float:
    """Dimensionless intensity: packet size times load over available bandwidth."""
    if packet_size_bits <= 0:
        raise ValueError("packet size must be positive")
    if load < 0:
        raise ValueError("load must be nonnegative")
    if available_bps <= 0:
        raise CongestedLinkError(
            f"no available bandwidth ({available_bps} bps), intensity undefined")
    return packet_size_bits * load / available_bps


def sample_link_states(n_links: int, rng: np.random.Generator, *,
                       capacity_mbps=DEFAULT_CAPACITY_MBPS,
                       flow_rate_mbps: float = 1.0, mu: float = 1.0) -> LinkState:
    """Draw an initial load state for every link in a topology, as one columnar record.

    Initial loads and arrival rates are uniform over the range a link can
    actually carry, so free fractions spread across [0, 1] and bottleneck
    comparisons between paths are informative.  ``capacity_mbps`` is one
    capacity for every link or an array of each link's own.
    """
    if n_links < 0:
        raise ValueError("link count must be nonnegative")
    if np.any(np.less_equal(capacity_mbps, 0)):
        raise ValueError(f"capacity must be positive, got {np.min(capacity_mbps)}")
    if flow_rate_mbps <= 0:
        raise ValueError(f"flow rate must be positive, got {flow_rate_mbps}")
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
