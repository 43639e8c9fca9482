"""Propeller thrust law, efficiency lookup, and the position surrogate."""

import json
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from softarm.aero import (
    DEFAULT_PROPELLER,
    OPTIMUM_MOTOR_STATION,
    EfficiencyTable,
    PropellerModel,
    efficiency_lookup,
    efficiency_model,
    net_vertical_thrust,
    thrust_from_rpm,
)
from softarm.cli import default_data_dir
from softarm.errors import CalibrationFailure
from softarm.io import read_efficiency_csv

SHIPPED_TABLE = read_efficiency_csv(default_data_dir() / "efficiency_table.csv")


class TestThrustLaw:
    def test_nominal_coefficient(self):
        # 500 g of thrust at 4000 rpm -> k_t = 4.905 / 1.6e7.
        assert DEFAULT_PROPELLER.thrust_coefficient == pytest.approx(
            3.065625e-7, rel=1e-9
        )

    def test_default_is_the_shipped_config_propeller(self):
        # sweep --axis arm_angle thrusts with DEFAULT_PROPELLER, analyze with
        # the shipped config's propeller: the two laws agree to the bit.
        prop = json.loads((default_data_dir() / "config.json").read_text())["propeller"]
        assert DEFAULT_PROPELLER == PropellerModel.from_nominal(
            thrust=prop["nominal_thrust_n"], rpm=prop["nominal_rpm"]
        )

    def test_nominal_point_recovered(self):
        assert thrust_from_rpm(DEFAULT_PROPELLER, 4000.0) == pytest.approx(
            0.5 * 9.81, rel=1e-12
        )

    def test_quadratic_scaling(self):
        t1 = thrust_from_rpm(DEFAULT_PROPELLER, 3000.0)
        t2 = thrust_from_rpm(DEFAULT_PROPELLER, 6000.0)
        assert t2 == pytest.approx(4.0 * t1, rel=1e-12)
        assert t2 == pytest.approx(11.03625, rel=1e-9)

    def test_zero_rpm(self):
        assert thrust_from_rpm(DEFAULT_PROPELLER, 0.0) == 0.0

    def test_negative_rpm_rejected(self):
        with pytest.raises(ValueError, match=r"^rpm must be >= 0, got -1.0$"):
            thrust_from_rpm(DEFAULT_PROPELLER, -1.0)

    def test_thrust_that_overflows_is_rejected(self):
        # rpm**2 is finite, but its product with the coefficient is not.
        with pytest.raises(ValueError, match=r"^rpm 100000.0 is out of range: thrust_coeff"):
            thrust_from_rpm(PropellerModel(thrust_coefficient=1e300), 1e5)

    @pytest.mark.parametrize("rpm", [0.0, -4000.0, math.nan, math.inf])
    def test_nominal_rpm_must_be_finite_and_positive(self, rpm):
        with pytest.raises(ValueError, match="rpm"):
            PropellerModel.from_nominal(thrust=4.905, rpm=rpm)


class TestEfficiencyLookup:
    TABLE = SHIPPED_TABLE

    @pytest.mark.parametrize(
        "rpm, eta", [(4000.0, 0.895), (5000.0, 0.909), (6000.0, 0.916)]
    )
    def test_table_points(self, rpm, eta):
        assert efficiency_lookup(self.TABLE, rpm) == pytest.approx(eta, abs=1e-12)

    def test_midpoint_interpolation(self):
        assert efficiency_lookup(self.TABLE, 4500.0) == pytest.approx(0.902, abs=1e-12)

    def test_clamped_below_and_above(self):
        assert efficiency_lookup(self.TABLE, 1000.0) == pytest.approx(0.895)
        assert efficiency_lookup(self.TABLE, 9000.0) == pytest.approx(0.916)

    def test_monotone_over_table_span(self):
        rpms = np.linspace(4000.0, 6000.0, 41)
        etas = [efficiency_lookup(self.TABLE, float(r)) for r in rpms]
        assert all(b >= a for a, b in zip(etas, etas[1:]))

    @settings(max_examples=300, deadline=None)
    @given(
        rows=st.lists(st.tuples(st.floats(100.0, 20000.0), st.floats(0.01, 1.0)),
                      min_size=1, max_size=6, unique_by=lambda row: row[0]),
        fractions=st.lists(st.floats(0.0, 1.0), min_size=1, max_size=4),
        beyond=st.floats(0.001, 5000.0),
    )
    def test_equals_np_interp_to_the_bit(self, rows, fractions, beyond):
        table = EfficiencyTable(sorted(rows))
        rpms = [r for r, _ in table.rows]
        etas = [e for _, e in table.rows]
        xs = rpms + [rpms[0] - beyond, rpms[-1] + beyond]
        xs += [a + f * (b - a) for a, b in zip(rpms, rpms[1:]) for f in fractions]
        for x in xs:
            assert efficiency_lookup(table, x) == float(np.interp(x, rpms, etas))

    def test_empty_table(self):
        with pytest.raises(ValueError, match="efficiency table has no rows"):
            EfficiencyTable(())

    def test_unsorted_rows_rejected(self):
        with pytest.raises(ValueError):
            EfficiencyTable(((5000.0, 0.9), (4000.0, 0.895)))

    def test_eta_out_of_range_rejected(self):
        with pytest.raises(ValueError):
            EfficiencyTable(((4000.0, 1.2),))


class TestNetVerticalThrust:
    def test_arithmetic(self):
        assert net_vertical_thrust(5.0, 0.0, 0.825) == pytest.approx(4.125, rel=1e-12)

    def test_cosine_projection(self):
        got = net_vertical_thrust(10.0, 60.0, 1.0)
        assert got == pytest.approx(5.0, rel=1e-12)

    def test_symmetric_in_angle(self):
        a = net_vertical_thrust(3.0, 14.0, 0.9)
        b = net_vertical_thrust(3.0, -14.0, 0.9)
        assert a == pytest.approx(b, rel=1e-12)

    def test_angle_limit(self):
        with pytest.raises(ValueError):
            net_vertical_thrust(3.0, 90.0, 0.9)

    def test_eta_validated(self):
        with pytest.raises(ValueError):
            net_vertical_thrust(3.0, 0.0, 0.0)
        with pytest.raises(ValueError):
            net_vertical_thrust(3.0, 0.0, 1.5)

    @given(
        thrust=st.floats(0.0, 20.0),
        angle=st.floats(-89.0, 89.0),
        eta=st.floats(0.01, 1.0),
    )
    def test_never_exceeds_ideal(self, thrust, angle, eta):
        assert net_vertical_thrust(thrust, angle, eta) <= thrust + 1e-12


class TestPositionSurrogate:
    PARAMS = SHIPPED_TABLE

    def test_peak_matches_lookup(self):
        for rpm in (4000.0, 4500.0, 5000.0, 6000.0):
            peak = efficiency_model(OPTIMUM_MOTOR_STATION, rpm, self.PARAMS)
            assert peak == pytest.approx(
                efficiency_lookup(self.PARAMS, rpm), abs=1e-9
            )

    def test_interior_maximum_near_0p83(self):
        grid = np.linspace(0.3, 1.0, 141)
        etas = [efficiency_model(float(x), 5000.0, self.PARAMS) for x in grid]
        assert abs(float(grid[int(np.argmax(etas))]) - 0.83) <= 0.02

    def test_full_span_position_worse_than_optimum(self):
        assert efficiency_model(1.0, 5000.0, self.PARAMS) < efficiency_model(
            0.83, 5000.0, self.PARAMS
        )

    def test_base_side_slope(self):
        e_opt = efficiency_model(0.83, 5000.0, self.PARAMS)
        e_mid = efficiency_model(0.53, 5000.0, self.PARAMS)
        assert e_opt - e_mid == pytest.approx(0.25 * 0.30, rel=1e-9)

    def test_within_unit_interval_over_domain(self):
        for x in np.linspace(0.3, 1.0, 15):
            for rpm in (3000.0, 4500.0, 6500.0):
                eta = efficiency_model(float(x), float(rpm), self.PARAMS)
                assert 0.0 < eta <= 1.0

    def test_invalid_position(self):
        with pytest.raises(ValueError):
            efficiency_model(0.0, 5000.0, self.PARAMS)
        with pytest.raises(ValueError):
            efficiency_model(1.1, 5000.0, self.PARAMS)

    def test_calibration_rejects_excessive_slope(self):
        # On a low-eta table the base-side slope drives eta negative at x/c = 0.3.
        with pytest.raises(CalibrationFailure, match=r"eta\(0\.3, 4000\.0\)"):
            efficiency_model(0.3, 4000.0, EfficiencyTable(((4000, 0.1), (6000, 0.12))))

    @settings(max_examples=200, deadline=None)
    @given(
        etas=st.lists(st.floats(1e-6, 1.0), min_size=1, max_size=5),
        x_c=st.floats(1e-6, 1.0),
        rpm=st.floats(1.0, 10000.0),
    )
    def test_positive_and_at_most_one_or_raises(self, etas, x_c, rpm):
        table = EfficiencyTable(tuple((1500.0 * (i + 1), e) for i, e in enumerate(etas)))
        try:
            eta = efficiency_model(x_c, rpm, table)
        except CalibrationFailure:
            return
        assert 0.0 < eta <= 1.0
