"""The numeric arguments of the reduced-model functions must be finite."""

import math

import pytest

from softarm import adapt, aero, deflection

COEFFS = deflection.DeflectionModelCoeffs.measured()

CASES = [
    (deflection.eval_deflection, {"coeffs": COEFFS, "infill": 6.0, "throttle": 5.0},
     ["infill", "throttle"]),
    (
        deflection.envelope_check,
        {"coeffs": COEFFS, "infill": 6.0, "t_max": 10.0, "step": 0.1, "bound_deg": 14.0},
        ["infill", "t_max", "step", "bound_deg"],
    ),
    (
        adapt.attach_check,
        {"infill": 6.0, "pressure": 1200.0, "bendable_infill_max": 15.0,
         "attach_pressure_min": 1000.0},
        ["infill", "pressure", "bendable_infill_max", "attach_pressure_min"],
    ),
    (
        adapt.contact_pressure,
        {"tendon_force": 12.0, "contact_width": 0.05, "contact_arc_length": 0.175},
        ["tendon_force", "contact_width", "contact_arc_length"],
    ),
    (aero.efficiency_lookup, {"table": aero.EfficiencyTable.default(), "rpm": 4500.0}, ["rpm"]),
    (aero.thrust_from_rpm, {"model": aero.DEFAULT_PROPELLER, "rpm": 4500.0}, ["rpm"]),
    (aero.net_vertical_thrust, {"thrust": 5.0, "arm_angle_deg": 10.0, "eta": 0.9},
     ["thrust", "arm_angle_deg", "eta"]),
]


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf], ids=["nan", "inf", "-inf"])
@pytest.mark.parametrize(
    "func,kwargs,arg",
    [(func, kwargs, arg) for func, kwargs, args in CASES for arg in args],
    ids=[f"{func.__name__}.{arg}" for func, _, args in CASES for arg in args],
)
def test_non_finite_argument_rejected(func, kwargs, arg, bad):
    func(**kwargs)  # the baseline is valid
    with pytest.raises(ValueError, match=f"{arg} must be finite"):
        func(**{**kwargs, arg: bad})
