"""The numeric arguments of the reduced-model functions and of the flexural
fit must be finite, and an infill rate must lie in (0, 100)."""

import math
import re

import pytest

from softarm import adapt, aero, deflection, material
from softarm import io as sio
from softarm.cli import default_data_dir

COEFFS = sio.read_deflection_coeffs_json(default_data_dir() / "deflection_coeffs.json")
TABLE = sio.read_efficiency_csv(default_data_dir() / "efficiency_table.csv")
FLEXURAL = [material.FlexuralSample(1.0, 0.01), material.FlexuralSample(2.0, 0.02)]

CASES = [
    (deflection.eval_deflection, {"coeffs": COEFFS, "infill": 6.0, "throttle": 5.0},
     ["infill", "throttle"]),
    (deflection.envelope_check, {"coeffs": COEFFS, "infill": 6.0}, ["infill"]),
    (adapt.attach_check, {"infill": 6.0, "pressure": 1200.0}, ["infill", "pressure"]),
    (
        adapt.contact_pressure,
        {"tendon_force": 12.0, "contact_width": 0.05, "contact_arc_length": 0.175},
        ["tendon_force", "contact_width", "contact_arc_length"],
    ),
    (aero.efficiency_lookup, {"table": TABLE, "rpm": 4500.0}, ["rpm"]),
    (aero.thrust_from_rpm, {"model": aero.DEFAULT_PROPELLER, "rpm": 4500.0}, ["rpm"]),
    (aero.net_vertical_thrust, {"thrust": 5.0, "arm_angle_deg": 10.0, "eta": 0.9},
     ["thrust", "arm_angle_deg", "eta"]),
    (material.fit_flexural_modulus,
     {"samples": FLEXURAL, "length": 0.3, "section_inertia": 1e-9},
     ["length", "section_inertia"]),
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


@pytest.mark.parametrize("bad", [-50.0, 0.0, 100.0, 150.0])
@pytest.mark.parametrize(
    "func,kwargs",
    [(func, kwargs) for func, kwargs, args in CASES if "infill" in args],
    ids=[func.__name__ for func, _, args in CASES if "infill" in args],
)
def test_infill_outside_0_100_rejected(func, kwargs, bad):
    with pytest.raises(ValueError, match=re.escape(f"infill must be in (0, 100), got {bad}")):
        func(**{**kwargs, "infill": bad})
