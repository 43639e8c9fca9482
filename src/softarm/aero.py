"""Reduced-order propeller thrust and arm-interaction efficiency models.

The CFD-derived efficiency data lives in a small rpm lookup table; the
dependence on motor position is captured by a calibrated piecewise-linear
surrogate with an interior optimum.
"""

from __future__ import annotations

import math

from .errors import CalibrationFailure, InputError, _Record, require_finite

#: Normalized motor position x/c with the best simulated thrust efficiency.
OPTIMUM_MOTOR_STATION = 0.83

#: Arm angle [deg] beyond which the efficiency table is extrapolating.
EFFICIENCY_ANGLE_LIMIT_DEG = 20.0


class EfficiencyTable(_Record, finite=True):
    """Thrust efficiency eta versus rotational speed; non-empty, strictly increasing rpm."""

    rows: tuple[tuple[float, float], ...]

    def __post_init__(self):
        if not self.rows:
            raise InputError("efficiency table has no rows")
        rpms = [r for r, _ in self.rows]
        if any(b <= a for a, b in zip(rpms, rpms[1:])):
            raise InputError("rpm values must be strictly increasing")
        if any(not 0.0 < eta <= 1.0 for _, eta in self.rows):
            raise InputError("eta values must be in (0, 1]")


class PropellerModel(_Record, finite=True):
    """Quadratic thrust law T = k_t * rpm^2."""

    thrust_coefficient: float

    def __post_init__(self):
        if self.thrust_coefficient <= 0:
            raise InputError("thrust_coefficient must be > 0")

    @classmethod
    def from_nominal(cls, thrust: float, rpm: float) -> "PropellerModel":
        """The law through the nominal point (rpm, thrust). Raises ValueError
        naming both when they give no finite positive coefficient."""
        require_finite(thrust=thrust, rpm=rpm)
        if rpm <= 0:
            raise InputError(f"nominal rpm must be > 0, got {rpm}")
        try:
            return cls(thrust_coefficient=thrust / rpm**2)
        except ArithmeticError:  # rpm**2 overflows, or underflows to 0
            reason = "rpm**2 is out of float range"
        except InputError as exc:
            reason = str(exc)
        raise InputError(f"nominal thrust {thrust} N at nominal rpm {rpm}: {reason}")


#: The shipped config's propeller: 500 g (4.905 N) of thrust at 4000 rpm.
DEFAULT_PROPELLER = PropellerModel.from_nominal(thrust=0.5 * 9.81, rpm=4000.0)


def thrust_from_rpm(model: PropellerModel, rpm: float) -> float:
    """Isolated-propeller thrust [N] at the given rotational speed."""
    require_finite(rpm=rpm)
    if rpm < 0:
        raise InputError(f"rpm must be >= 0, got {rpm}")
    try:
        thrust = model.thrust_coefficient * rpm**2
    except OverflowError:
        raise InputError(f"rpm {rpm} is out of range: rpm**2 overflows") from None
    if thrust == math.inf:  # a product of finite floats does not raise
        raise InputError(f"rpm {rpm} is out of range: thrust_coefficient * rpm**2 overflows")
    return thrust


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
    return _net_vertical_thrusts(thrust, (arm_angle_deg,), eta)[0]


def net_vertical_thrust_sweep(thrust: float, arm_angles_deg, eta: float) -> list[float]:
    """net_vertical_thrust at each of arm_angles_deg, the same floats and
    errors, with thrust and eta checked once for the sweep: first all three
    checked finite, the angles together, then eta in (0, 1], then each angle
    in turn below 90 deg."""
    arm_angles_deg = tuple(arm_angles_deg)
    require_finite(thrust=thrust, arm_angles_deg=arm_angles_deg, eta=eta)
    return _net_vertical_thrusts(thrust, arm_angles_deg, eta)


def _net_vertical_thrusts(thrust: float, arm_angles_deg: tuple, eta: float) -> list[float]:
    if not 0.0 < eta <= 1.0:
        raise InputError("eta must be in (0, 1]")
    scale = thrust * eta  # thrust * eta * cos multiplies left to right
    thrusts = []
    for angle in arm_angles_deg:
        if abs(angle) >= 90.0:
            raise InputError("arm angle must satisfy |angle| < 90 deg")
        thrusts.append(scale * math.cos(math.radians(angle)))
    return thrusts


#: Slopes of the efficiency surrogate, a tent in x/c that peaks at
#: OPTIMUM_MOTOR_STATION, where it reproduces the lookup table exactly:
#: efficiency lost per unit x/c toward the arm base (wider arm, more drag,
#: minus the near-base recirculation credit), and per unit x/c past the
#: optimum (recirculation thrust no longer recovered).
BASE_SLOPE = 0.25
TIP_SLOPE = 0.10

def efficiency_model(x_c: float, rpm: float, table: EfficiencyTable) -> float:
    """Surrogate thrust efficiency at motor position x/c and speed rpm: the
    table's eta less the slope term, so at most 1. Raises CalibrationFailure
    when the surrogate is not positive there."""
    return efficiency_model_sweep((x_c,), rpm, table)[0]


def efficiency_model_sweep(stations, rpm: float, table: EfficiencyTable) -> list[float]:
    """efficiency_model at each of stations (a sequence), the same floats and
    errors, with rpm checked and looked up in table once for the sweep: every
    station is checked in (0, 1] first, then rpm, then each station's eta in
    turn for CalibrationFailure."""
    for x_c in stations:
        if not 0.0 < x_c <= 1.0:
            raise InputError(f"x_c must be in (0, 1], got {x_c}")
    if rpm <= 0:
        raise InputError(f"rpm must be > 0, got {rpm}")
    peak = efficiency_lookup(table, rpm)
    etas = []
    for x_c in stations:
        if x_c <= OPTIMUM_MOTOR_STATION:
            eta = peak - BASE_SLOPE * (OPTIMUM_MOTOR_STATION - x_c)
        else:
            eta = peak - TIP_SLOPE * (x_c - OPTIMUM_MOTOR_STATION)
        if eta <= 0:
            raise CalibrationFailure(f"eta({x_c}, {rpm}) = {eta:.4g} is not positive")
        etas.append(eta)
    return etas
