"""Reduced-order propeller thrust and arm-interaction efficiency models.

The CFD-derived efficiency data lives in a small rpm lookup table; the
dependence on motor position is captured by a calibrated piecewise-linear
surrogate with an interior optimum.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import CalibrationFailure, EmptyTable, require_finite

#: Normalized motor position x/c with the best simulated thrust efficiency.
OPTIMUM_MOTOR_STATION = 0.83

#: Default efficiency rows (rpm, eta) for the optimum motor position,
#: valid for arm angles within +/-20 degrees.
DEFAULT_EFFICIENCY_ROWS = ((4000.0, 0.895), (5000.0, 0.909), (6000.0, 0.916))

#: Arm angle [deg] beyond which the efficiency table is extrapolating.
EFFICIENCY_ANGLE_LIMIT_DEG = 20.0


@dataclass(frozen=True)
class EfficiencyTable:
    """Thrust efficiency eta versus rotational speed, strictly increasing rpm."""

    rows: tuple[tuple[float, float], ...]

    def __post_init__(self):
        object.__setattr__(self, "rows", tuple(tuple(r) for r in self.rows))
        rpms = [r for r, _ in self.rows]
        if any(b <= a for a, b in zip(rpms, rpms[1:])):
            raise ValueError("rpm values must be strictly increasing")
        if any(not 0.0 < eta <= 1.0 for _, eta in self.rows):
            raise ValueError("eta values must be in (0, 1]")

    @classmethod
    def default(cls) -> "EfficiencyTable":
        return cls(DEFAULT_EFFICIENCY_ROWS)


@dataclass(frozen=True)
class PropellerModel:
    """Quadratic thrust law T = k_t * rpm^2."""

    thrust_coefficient: float

    def __post_init__(self):
        if self.thrust_coefficient <= 0:
            raise ValueError("thrust_coefficient must be > 0")

    @classmethod
    def from_nominal(cls, thrust: float, rpm: float) -> "PropellerModel":
        """The law through the nominal point (rpm, thrust)."""
        return cls(thrust_coefficient=thrust / rpm**2)


#: Nominal point: about 500 g of thrust around 4000 rpm.
DEFAULT_PROPELLER = PropellerModel.from_nominal(thrust=0.5 * 9.81, rpm=4000.0)


def thrust_from_rpm(model: PropellerModel, rpm: float) -> float:
    """Isolated-propeller thrust [N] at the given rotational speed."""
    require_finite(rpm=rpm)
    if rpm < 0:
        raise ValueError("rpm must be >= 0")
    return model.thrust_coefficient * rpm**2


def efficiency_lookup(table: EfficiencyTable, rpm: float) -> float:
    """Piecewise-linear interpolation of eta in rpm, clamped to the table ends."""
    require_finite(rpm=rpm)
    if not table.rows:
        raise EmptyTable("efficiency table has no rows")
    rpms = np.array([r for r, _ in table.rows])
    etas = np.array([e for _, e in table.rows])
    return float(np.interp(rpm, rpms, etas))


def net_vertical_thrust(thrust: float, arm_angle_deg: float, eta: float) -> float:
    """Vertical component [N] of the arm-integrated thrust at a deflected
    arm angle: thrust * eta * cos(angle)."""
    require_finite(thrust=thrust, arm_angle_deg=arm_angle_deg, eta=eta)
    if not 0.0 < eta <= 1.0:
        raise ValueError("eta must be in (0, 1]")
    if abs(arm_angle_deg) >= 90.0:
        raise ValueError("arm angle must satisfy |angle| < 90 deg")
    return thrust * eta * math.cos(math.radians(arm_angle_deg))


def optimal_motor_station() -> float:
    """Design constant: normalized motor position with maximum efficiency."""
    return OPTIMUM_MOTOR_STATION


@dataclass(frozen=True)
class EfficiencyModelParams:
    """Calibrated surrogate for eta(x/c, rpm).

    The surrogate is a tent function in x/c peaking at optimum_station,
    where it reproduces the lookup table exactly. base_slope is the
    efficiency lost per unit x/c moving toward the arm base (wider arm,
    more drag, minus the near-base recirculation credit); tip_slope the
    loss per unit x/c past the optimum (recirculation thrust no longer
    recovered).
    """

    table: EfficiencyTable
    optimum_station: float
    base_slope: float
    tip_slope: float


def calibrate_efficiency_model(
    table: EfficiencyTable,
    optimum_station: float = OPTIMUM_MOTOR_STATION,
    base_slope: float = 0.25,
    tip_slope: float = 0.10,
    station_range: tuple[float, float] = (0.3, 1.0),
    rpm_range: tuple[float, float] = (3000.0, 6500.0),
) -> EfficiencyModelParams:
    """Build surrogate parameters, checking that the calibrated surface has
    an interior maximum at the optimum station and stays within (0, 1]
    over the stated domain."""
    if not 0.0 < optimum_station <= 1.0:
        raise CalibrationFailure("optimum_station must be in (0, 1]")
    if base_slope <= 0 or tip_slope <= 0:
        raise CalibrationFailure("slopes must be positive for an interior optimum")
    params = EfficiencyModelParams(table, optimum_station, base_slope, tip_slope)
    for rpm in rpm_range:
        for x_c in station_range:
            eta = efficiency_model(x_c, rpm, params)
            if not 0.0 < eta <= 1.0:
                raise CalibrationFailure(
                    f"eta({x_c}, {rpm}) = {eta:.4g} leaves (0, 1]; adjust slopes"
                )
    return params


def efficiency_model(x_c: float, rpm: float, params: EfficiencyModelParams) -> float:
    """Surrogate thrust efficiency at motor position x/c and speed rpm."""
    if not 0.0 < x_c <= 1.0:
        raise ValueError("x_c must be in (0, 1]")
    if rpm <= 0:
        raise ValueError("rpm must be > 0")
    peak = efficiency_lookup(params.table, rpm)
    if x_c <= params.optimum_station:
        return peak - params.base_slope * (params.optimum_station - x_c)
    return peak - params.tip_slope * (x_c - params.optimum_station)
