"""Gaussian net-demand machinery.

The per-area probabilistic supply requirement ("total supply covers total
net-demand with probability 1 - t") reduces, for independent Gaussian nodal
demands, to the deterministic requirement

    supply - net exports >= sum(means) + z * sqrt(sum(stds^2)),   z = Phi^-1(1-t).

Nodal constraints use the forecast mean; randomness enters only through the
aggregate requirement.  Phi^-1 is the standard library's
``statistics.NormalDist().inv_cdf``.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from statistics import NormalDist

from .grid import Network


def normal_quantile(p: float) -> float:
    """Inverse standard-normal CDF for p in (0,1): the standard library's AS241."""
    if not (0.0 < p < 1.0):
        raise ValueError(f"probability must be in (0,1), got {p}")
    return NormalDist().inv_cdf(p)


@dataclass(frozen=True)
class AggregateRequirement:
    """Deterministic equivalent of one area's probabilistic supply constraint."""

    area_id: str
    mean_total: float
    std_total: float
    z: float
    requirement: float  # mean_total + z * std_total


def aggregate_requirement(net: Network, area_id: str) -> AggregateRequirement:
    """Area-wide requirement at confidence 1 - t, t the area's confidence tail."""
    area = net.area(area_id)
    buses = [net.bus(b) for b in area.bus_ids]
    mean_total = sum(b.mean_net_demand for b in buses)
    std_total = math.sqrt(sum(b.demand_std ** 2 for b in buses))
    z = normal_quantile(1.0 - area.confidence_tail)
    return AggregateRequirement(area_id, mean_total, std_total, z, mean_total + z * std_total)
