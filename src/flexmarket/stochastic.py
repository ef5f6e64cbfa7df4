"""Gaussian net-demand machinery.

The per-area probabilistic supply requirement ("total supply covers total
net-demand with probability 1 - t") reduces, for independent Gaussian nodal
demands, to the deterministic requirement

    supply - net exports >= sum(means) + z * sqrt(sum(stds^2)),   z = Phi^-1(1-t).

Nodal constraints use the forecast mean; randomness enters only through the
aggregate requirement.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

from .grid import Network

# Rational approximation for the inverse standard-normal CDF (Acklam's
# coefficients, |rel err| < 1.2e-9), then one Halley step on the CDF to reach
# full double precision.
_A = (-3.969683028665376e+01, 2.209460984245205e+02, -2.759285104469687e+02,
      1.383577518672690e+02, -3.066479806614716e+01, 2.506628277459239e+00)
_B = (-5.447609879822406e+01, 1.615858368580409e+02, -1.556989798598866e+02,
      6.680131188771972e+01, -1.328068155288572e+01)
_C = (-7.784894002430293e-03, -3.223964580411365e-01, -2.400758277161838e+00,
      -2.549732539343734e+00, 4.374664141464968e+00, 2.938163982698783e+00)
_D = (7.784695709041462e-03, 3.224671290700398e-01, 2.445134137142996e+00,
      3.754408661907416e+00)
_P_LOW = 0.02425


def normal_cdf(z: float) -> float:
    return 0.5 * math.erfc(-z / math.sqrt(2.0))


def normal_pdf(z: float) -> float:
    return math.exp(-0.5 * z * z) / math.sqrt(2.0 * math.pi)


def normal_quantile(p: float) -> float:
    """Inverse standard-normal CDF, accurate to ~1e-15 for p in (0,1)."""
    if not (0.0 < p < 1.0):
        raise ValueError(f"probability must be in (0,1), got {p}")
    if p > 1.0 - _P_LOW:
        # by symmetry; 1 - p is exact here, while refining near Phi(z) = 1 is not
        return -normal_quantile(1.0 - p)
    if p < _P_LOW:
        q = math.sqrt(-2.0 * math.log(p))
        z = ((((((_C[0] * q + _C[1]) * q + _C[2]) * q + _C[3]) * q + _C[4]) * q + _C[5])
             / ((((_D[0] * q + _D[1]) * q + _D[2]) * q + _D[3]) * q + 1.0))
    else:
        q = p - 0.5
        r = q * q
        z = ((((((_A[0] * r + _A[1]) * r + _A[2]) * r + _A[3]) * r + _A[4]) * r + _A[5]) * q
             / (((((_B[0] * r + _B[1]) * r + _B[2]) * r + _B[3]) * r + _B[4]) * r + 1.0))
    # Halley refinement of Phi(z) = p.
    err = normal_cdf(z) - p
    u = err / normal_pdf(z)
    z -= u / (1.0 + z * u / 2.0)
    return z


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
