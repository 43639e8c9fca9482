"""The numeric arguments of the reduced-model functions and their sweeps, of
the flexural fit and of tendon_bend must be finite (an int too large for a
float is not), and an infill rate must lie in (0, 100). A call with two bad
arguments names the one its checks reach first."""

import math
import re

import numpy as np
import pytest

from softarm import adapt, aero, beam, deflection, material
from softarm import io as sio
from softarm.cli import default_data_dir
from softarm.errors import require_finite

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
    (deflection.eval_deflection_sweep, {"coeffs": COEFFS, "infill": 6.0, "throttles": [5.0]},
     ["infill"]),
    (aero.efficiency_lookup, {"table": TABLE, "rpm": 4500.0}, ["rpm"]),
    (aero.thrust_from_rpm, {"model": aero.DEFAULT_PROPELLER, "rpm": 4500.0}, ["rpm"]),
    (aero.net_vertical_thrust, {"thrust": 5.0, "arm_angle_deg": 10.0, "eta": 0.9},
     ["thrust", "arm_angle_deg", "eta"]),
    (aero.net_vertical_thrust_sweep, {"thrust": 5.0, "arm_angles_deg": [10.0], "eta": 0.9},
     ["thrust", "eta"]),
    (material.fit_flexural_modulus,
     {"samples": FLEXURAL, "length": 0.3, "section_inertia": 1e-9},
     ["length", "section_inertia"]),
    # Unchecked, a NaN tension fails tension > 0 and bends nothing.
    (beam.tendon_bend,
     {"geometry": sio.read_arm_geometry_json(default_data_dir() / "arm_geometry.json"),
      "material": 2e6, "tension": 4.0, "eccentricity": 0.01},
     ["tension", "eccentricity"]),
]


class _Float(float):
    """A float subclass: require_finite's float fast path is for float alone."""


@pytest.mark.parametrize(
    "bad",
    [math.nan, math.inf, -math.inf, np.float64("nan"), _Float("inf"), True],
    ids=["nan", "inf", "-inf", "numpy_nan", "subclass_inf", "true"],
)
@pytest.mark.parametrize(
    "func,kwargs,arg",
    [(func, kwargs, arg) for func, kwargs, args in CASES for arg in args],
    ids=[f"{func.__name__}.{arg}" for func, _, args in CASES for arg in args],
)
def test_non_finite_argument_rejected(func, kwargs, arg, bad):
    func(**kwargs)  # the baseline is valid
    with pytest.raises(ValueError, match=f"^{arg} must be finite"):
        func(**{**kwargs, arg: bad})


@pytest.mark.parametrize(
    "func,kwargs,arg",
    [(func, kwargs, arg) for func, kwargs, args in CASES for arg in args],
    ids=[f"{func.__name__}.{arg}" for func, _, args in CASES for arg in args],
)
def test_int_too_large_for_a_float_rejected(func, kwargs, arg):
    with pytest.raises(ValueError, match=f"^{arg} must be finite, got 1000"):
        func(**{**kwargs, arg: 10**400})


@pytest.mark.parametrize("value,shown", [
    (10**400, f"1{'0' * 17}...{'0' * 18}"),
    ("x" * 38, repr("x" * 38)),
    ("x" * 39, f"'{'x' * 17}...{'x' * 17}'"),
], ids=["401_digits", "40_characters", "41_characters"])
def test_long_value_is_cut_in_the_message(value, shown):
    with pytest.raises(ValueError) as info:
        require_finite(rpm=value)
    assert str(info.value) == f"rpm must be finite, got {shown}"


@pytest.mark.parametrize(
    "item",
    [math.nan, np.float64("nan"), _Float("inf"), True, 10**400, (2.0, -math.inf), "x"],
    ids=["nan", "numpy_nan", "subclass_inf", "true", "401_digits", "nested_inf", "string"],
)
def test_tuple_member_that_is_not_finite_rejected(item):
    require_finite(x=(1.0, 2, np.float64(3.0), _Float(4.0), (5.0,)))
    with pytest.raises(ValueError, match="^x must be finite"):
        require_finite(x=(1.0, item, 3.0))


@pytest.mark.parametrize("bad", [-50.0, 0.0, 100.0, 150.0])
@pytest.mark.parametrize(
    "func,kwargs",
    [(func, kwargs) for func, kwargs, args in CASES if "infill" in args],
    ids=[func.__name__ for func, _, args in CASES if "infill" in args],
)
def test_infill_outside_0_100_rejected(func, kwargs, bad):
    with pytest.raises(ValueError, match=re.escape(f"infill must be in (0, 100), got {bad}")):
        func(**{**kwargs, "infill": bad})


@pytest.mark.parametrize("bad", [math.nan, math.inf, True, 10**400],
                         ids=["nan", "inf", "true", "401_digits"])
@pytest.mark.parametrize("func,kwargs,axis", [
    (deflection.eval_deflection_sweep, {"coeffs": COEFFS, "infill": 6.0}, "throttles"),
    (aero.net_vertical_thrust_sweep, {"thrust": 5.0, "eta": 0.9}, "arm_angles_deg"),
], ids=["eval_deflection_sweep", "net_vertical_thrust_sweep"])
def test_non_finite_sweep_point_rejected(func, kwargs, axis, bad):
    func(**kwargs, **{axis: [1.0, 2.0]})
    with pytest.raises(ValueError, match=f"^{axis} must be finite"):
        func(**kwargs, **{axis: [1.0, bad]})


@pytest.mark.parametrize("call,message", [
    (lambda: deflection.eval_deflection(COEFFS, 150.0, math.nan), "throttle must be finite"),
    (lambda: deflection.eval_deflection(COEFFS, 150.0, 11.0), "infill must be in (0, 100)"),
    (lambda: deflection.eval_deflection_sweep(COEFFS, 150.0, [5.0, math.nan]),
     "throttles must be finite"),
    (lambda: deflection.eval_deflection_sweep(COEFFS, 150.0, [5.0, 11.0]),
     "infill must be in (0, 100)"),
    (lambda: deflection.eval_deflection_sweep(COEFFS, 6.0, [11.0, 12.0]),
     "throttle 11.0 outside"),
    (lambda: aero.efficiency_model(2.0, 0.0, TABLE), "x_c must be in (0, 1], got 2.0"),
    (lambda: aero.efficiency_model_sweep([0.5, 2.0], 0.0, TABLE), "x_c must be in (0, 1], got 2.0"),
    (lambda: aero.efficiency_model_sweep([0.5, 1.0], 0.0, TABLE), "rpm must be > 0"),
    (lambda: aero.net_vertical_thrust(3.0, math.nan, 1.5), "arm_angle_deg must be finite"),
    (lambda: aero.net_vertical_thrust(3.0, 90.0, 1.5), "eta must be in (0, 1]"),
    (lambda: aero.net_vertical_thrust_sweep(3.0, [0.0, 90.0], 1.5), "eta must be in (0, 1]"),
    (lambda: aero.net_vertical_thrust_sweep(3.0, [0.0, 90.0, -95.0], 0.9), "arm angle must"),
], ids=["deflection-nan-throttle", "deflection-infill", "deflection-sweep-nan-throttle",
        "deflection-sweep-infill", "deflection-sweep-first-throttle", "efficiency-station",
        "efficiency-sweep-station", "efficiency-sweep-rpm", "thrust-nan-angle", "thrust-eta",
        "thrust-sweep-eta", "thrust-sweep-angle"])
def test_first_failing_check_names_the_error(call, message):
    with pytest.raises(ValueError, match=f"^{re.escape(message)}"):
        call()
