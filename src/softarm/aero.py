"""Reduced-order propeller thrust and arm-interaction efficiency models.

The CFD-derived efficiency data lives in a small rpm lookup table; the
dependence on motor position is captured by a calibrated piecewise-linear
surrogate with an interior optimum.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .errors import CalibrationFailure, require_finite

#: Normalized motor position x/c with the best simulated thrust efficiency.
OPTIMUM_MOTOR_STATION = 0.83

#: Arm angle [deg] beyond which the efficiency table is extrapolating.
EFFICIENCY_ANGLE_LIMIT_DEG = 20.0


@dataclass(frozen=True)
class EfficiencyTable:
    """Thrust efficiency eta versus rotational speed; non-empty, strictly increasing rpm."""

    rows: tuple[tuple[float, float], ...]

    def __post_init__(self):
        object.__setattr__(self, "rows", tuple(tuple(r) for r in self.rows))
        require_finite(**vars(self))
        if not self.rows:
            raise ValueError("efficiency table has no rows")
        rpms = [r for r, _ in self.rows]
        if any(b <= a for a, b in zip(rpms, rpms[1:])):
            raise ValueError("rpm values must be strictly increasing")
        if any(not 0.0 < eta <= 1.0 for _, eta in self.rows):
            raise ValueError("eta values must be in (0, 1]")


@dataclass(frozen=True)
class PropellerModel:
    """Quadratic thrust law T = k_t * rpm^2."""

    thrust_coefficient: float

    def __post_init__(self):
        require_finite(**vars(self))
        if self.thrust_coefficient <= 0:
            raise ValueError("thrust_coefficient must be > 0")

    @classmethod
    def from_nominal(cls, thrust: float, rpm: float) -> "PropellerModel":
        """The law through the nominal point (rpm, thrust)."""
        require_finite(thrust=thrust, rpm=rpm)
        if rpm <= 0:
            raise ValueError(f"nominal rpm must be > 0, got {rpm}")
        return cls(thrust_coefficient=thrust / rpm**2)


#: The shipped config's propeller: 500 g (4.905 N) of thrust at 4000 rpm.
DEFAULT_PROPELLER = PropellerModel.from_nominal(thrust=0.5 * 9.81, rpm=4000.0)


def thrust_from_rpm(model: PropellerModel, rpm: float) -> float:
    """Isolated-propeller thrust [N] at the given rotational speed."""
    require_finite(rpm=rpm)
    if rpm < 0:
        raise ValueError("rpm must be >= 0")
    return model.thrust_coefficient * rpm**2


def efficiency_lookup(table: EfficiencyTable, rpm: float) -> float:
    """Piecewise-linear interpolation of eta in rpm, clamped to the table
    ends; the same floats as np.interp(rpm, rpms, etas)."""
    require_finite(rpm=rpm)
    rows = table.rows
    if rpm <= rows[0][0]:
        return float(rows[0][1])
    for (r0, e0), (r1, e1) in zip(rows, rows[1:]):
        if rpm < r1:
            if rpm == r0:
                return float(e0)
            return float((e1 - e0) / (r1 - r0) * (rpm - r0) + e0)
    return float(rows[-1][1])


def net_vertical_thrust(thrust: float, arm_angle_deg: float, eta: float) -> float:
    """Vertical component [N] of the arm-integrated thrust at a deflected
    arm angle: thrust * eta * cos(angle)."""
    require_finite(thrust=thrust, arm_angle_deg=arm_angle_deg, eta=eta)
    if not 0.0 < eta <= 1.0:
        raise ValueError("eta must be in (0, 1]")
    if abs(arm_angle_deg) >= 90.0:
        raise ValueError("arm angle must satisfy |angle| < 90 deg")
    return thrust * eta * math.cos(math.radians(arm_angle_deg))


#: Slopes of the efficiency surrogate, a tent in x/c that peaks at
#: OPTIMUM_MOTOR_STATION, where it reproduces the lookup table exactly:
#: efficiency lost per unit x/c toward the arm base (wider arm, more drag,
#: minus the near-base recirculation credit), and per unit x/c past the
#: optimum (recirculation thrust no longer recovered).
BASE_SLOPE = 0.25
TIP_SLOPE = 0.10

#: Corners of the (x/c, rpm) domain over which the surrogate must stay in (0, 1].
CALIBRATION_STATIONS = (0.3, 1.0)
CALIBRATION_RPMS = (3000.0, 6500.0)


def calibrate_efficiency_model(table: EfficiencyTable) -> EfficiencyTable:
    """Check that the surrogate over this table stays within (0, 1] over the
    calibration domain, and return the table for efficiency_model."""
    for rpm in CALIBRATION_RPMS:
        for x_c in CALIBRATION_STATIONS:
            eta = efficiency_model(x_c, rpm, table)
            if not 0.0 < eta <= 1.0:
                raise CalibrationFailure(f"eta({x_c}, {rpm}) = {eta:.4g} leaves (0, 1]")
    return table


def efficiency_model(x_c: float, rpm: float, table: EfficiencyTable) -> float:
    """Surrogate thrust efficiency at motor position x/c and speed rpm."""
    if not 0.0 < x_c <= 1.0:
        raise ValueError("x_c must be in (0, 1]")
    if rpm <= 0:
        raise ValueError("rpm must be > 0")
    peak = efficiency_lookup(table, rpm)
    if x_c <= OPTIMUM_MOTOR_STATION:
        return peak - BASE_SLOPE * (OPTIMUM_MOTOR_STATION - x_c)
    return peak - TIP_SLOPE * (x_c - OPTIMUM_MOTOR_STATION)
