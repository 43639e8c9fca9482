"""Elastica solver: linear limit, closed-form arc, equilibrium, symmetry, stress
location, robustness at large rotation, solver counters and input validation
(the non-finite cases cover the validated input records of every module)."""

import hashlib
import math
from collections import Counter
from pathlib import Path

import hypothesis
import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from softarm import beam, errors
from softarm.adapt import PipeSpec
from softarm.aero import EfficiencyTable, PropellerModel
from softarm.beam import (
    PREDICTOR_STEPS,
    ArmGeometry,
    BeamSolution,
    LoadCase,
    Segment,
    SolverSettings,
    max_stress_station,
    solve_elastica,
    tendon_bend,
)
from softarm.cli import EXIT_OK, SOLVER_SETTINGS, default_data_dir, main
from softarm.deflection import DeflectionModelCoeffs, DeflectionSample
from softarm.errors import NoConvergence, NonPhysicalMaterial, NonPhysicalWarning
from softarm.io import read_arm_geometry_json
from softarm.material import (
    FlexuralSample,
    MooneyRivlinParams,
    StressStrainCurve,
    UniaxialInvariants,
)

E_SOFT = 1e7

FOLD_SEGMENTS = (
    Segment(36, 0.035),
    Segment(27, 0.040),
    Segment(19, 0.045),
    Segment(13, 0.055),
)


def uniform_arm(length=0.3, inertia=1e-9, droop=0.0, motor=1.0, density=0.0):
    return ArmGeometry(
        segments=(Segment(0.0, length),),
        section_inertia=(inertia,),
        section_half_depth=0.005,
        initial_droop_deg=droop,
        motor_station=motor,
        linear_density=density,
    )


def fold_arm(inertia=(5e-8,) * 4, droop=0.0, motor=1.0, density=0.0):
    return ArmGeometry(
        segments=FOLD_SEGMENTS,
        section_inertia=inertia,
        section_half_depth=0.015,
        initial_droop_deg=droop,
        motor_station=motor,
        linear_density=density,
    )


SHIPPED_ARM = read_arm_geometry_json(default_data_dir() / "arm_geometry.json")
FOLDS = fold_arm().segment_bounds[1:-1]  # the interior folds of every fold_arm


def tendon_moments(tension, eccentricity, folds=FOLDS):
    """A tendon's load as LoadCase.point_moments: -tension*eccentricity at each fold."""
    return [(s, -tension * eccentricity) for s in folds]


def analyze_sweep(record_calls):
    """(arguments by name, solutions) of the one beam.solve_sweep call of
    `softarm analyze`, which solves its throttle grid in one sweep."""
    with record_calls(beam.solve_sweep) as (sweeps,):
        assert main(["analyze"]) == EXIT_OK
    [sweep] = sweeps
    return sweep.args, sweep.result


def march_steps(marches) -> list[int]:
    """Steps of each of the recorded beam._march calls that a solve made, in
    order; a march given a list of rows records a shape, and is not the solve's."""
    return [sum(panel[3] for panel in march.args["panels"])
            for march in marches if march.args["rows"] is None]


class TestUnloaded:
    def test_straight_at_droop(self):
        geom = uniform_arm(droop=12.0)
        sol = solve_elastica(geom, E_SOFT, LoadCase(thrust=0, gravity=0))
        assert sol.tip_angle_deg == pytest.approx(-12.0, abs=1e-9)
        assert sol.residual == pytest.approx(0.0, abs=1e-12)
        # Straight line along the droop direction.
        expected_z = -np.sin(np.radians(12.0)) * sol.stations[:, 0]
        np.testing.assert_allclose(sol.stations[:, 2], expected_z, atol=1e-9)


class TestLinearLimit:
    def test_small_tip_load_matches_cantilever_formula(self):
        geom = uniform_arm()
        delta_target = 0.01 * geom.total_length
        force = delta_target * 3.0 * E_SOFT * geom.section_inertia[0] / geom.total_length**3
        sol = solve_elastica(geom, E_SOFT, LoadCase(thrust=force, gravity=0))
        assert sol.stations[-1, 2] == pytest.approx(delta_target, rel=0.01)

    def test_mesh_convergence(self):
        geom = uniform_arm()
        force = 0.01
        a = solve_elastica(geom, E_SOFT, LoadCase(thrust=force, gravity=0),
                           SolverSettings(integration_steps=256))
        b = solve_elastica(geom, E_SOFT, LoadCase(thrust=force, gravity=0),
                           SolverSettings(integration_steps=512))
        assert abs(b.tip_angle_deg - a.tip_angle_deg) < 1e-3 * abs(a.tip_angle_deg)


class TestLargeDeflection:
    def test_tip_angle_monotone_in_thrust_up_to_45deg(self):
        geom = uniform_arm(inertia=2e-10)
        angles = []
        for thrust in np.linspace(0.0, 0.06, 13):
            sol = solve_elastica(geom, E_SOFT, LoadCase(thrust=float(thrust), gravity=0))
            angles.append(sol.tip_angle_deg)
            if sol.tip_angle_deg > 45.0:
                break
        assert angles[-1] > 45.0  # the scan reaches the large-angle regime
        assert all(b > a for a, b in zip(angles, angles[1:]))

    def test_equilibrium_residual_below_tolerance(self):
        geom = fold_arm(droop=5.0, motor=0.83, density=0.15)
        settings = SolverSettings()
        sol = solve_elastica(geom, 6.24e6, LoadCase(thrust=5.0), settings)
        assert sol.residual <= settings.shooting_tolerance


class TestClosedForm:
    @pytest.mark.parametrize("angle_deg", [10.0, 90.0, 180.0, 270.0])
    def test_pure_tip_moment_bends_a_circular_arc(self, angle_deg):
        # A tip moment M alone gives the constant curvature k = M/EI, so
        # theta_tip = ML/EI and the centerline is an arc of radius 1/k.
        geom = uniform_arm()
        length, ei = geom.total_length, E_SOFT * geom.section_inertia[0]
        moment = math.radians(angle_deg) * ei / length
        loads = LoadCase(thrust=0, gravity=0, point_moments=((length, moment),))
        sol = solve_elastica(geom, E_SOFT, loads,
                             SolverSettings(integration_steps=64, shooting_tolerance=1e-9))
        assert sol.tip_angle_deg == pytest.approx(math.degrees(moment * length / ei), abs=1e-9)
        k = moment / ei
        s, x, z = sol.stations[:, 0], sol.stations[:, 1], sol.stations[:, 2]
        np.testing.assert_allclose(x, np.sin(k * s) / k, rtol=0, atol=5e-9)
        np.testing.assert_allclose(z, (1.0 - np.cos(k * s)) / k, rtol=0, atol=5e-9)


class TestSymmetry:
    def test_mirrored_loads_mirror_the_shape(self):
        geom = fold_arm(density=0.15)
        down = LoadCase(thrust=0, gravity=9.81, point_moments=tendon_moments(4.0, 0.01))
        up = LoadCase(thrust=0, gravity=-9.81, point_moments=tendon_moments(4.0, -0.01))
        a = solve_elastica(geom, E_SOFT, down)
        b = solve_elastica(geom, E_SOFT, up)
        np.testing.assert_allclose(b.stations[:, 2], -a.stations[:, 2], atol=1e-9)
        np.testing.assert_allclose(b.stations[:, 3], -a.stations[:, 3], atol=1e-9)
        np.testing.assert_allclose(b.stations[:, 1], a.stations[:, 1], atol=1e-9)

    def test_shape_depends_on_load_over_stiffness_only(self):
        geom = uniform_arm(inertia=2e-10)
        a = solve_elastica(geom, E_SOFT, LoadCase(thrust=0.02, gravity=0))
        b = solve_elastica(geom, 10 * E_SOFT, LoadCase(thrust=0.2, gravity=0))
        np.testing.assert_allclose(b.stations[:, 2], a.stations[:, 2], atol=1e-9)
        np.testing.assert_allclose(b.stations[:, 3], a.stations[:, 3], atol=1e-9)


class TestMaxStress:
    def test_tip_thrust_peaks_in_first_segment(self):
        geom = fold_arm()
        sol = solve_elastica(geom, E_SOFT, LoadCase(thrust=3.0, gravity=0))
        station = max_stress_station(sol, geom)
        assert 0.0 <= station <= geom.segment_bounds[1]

    def test_zero_load_convention(self):
        geom = fold_arm()
        sol = solve_elastica(geom, E_SOFT, LoadCase(thrust=0, gravity=0))
        assert max_stress_station(sol, geom) == 0.0

    def test_point_moment_peaks_at_soft_segment(self):
        # Softening segment 3 concentrates curvature there when only a
        # moment at its far end loads the arm.
        geom = fold_arm(inertia=(5e-8, 5e-8, 5e-9, 5e-8))
        s_fold3 = geom.segment_bounds[3]
        loads = LoadCase(thrust=0, gravity=0, point_moments=((s_fold3, -0.05),))
        sol = solve_elastica(geom, E_SOFT, loads)
        station = max_stress_station(sol, geom)
        assert geom.segment_bounds[2] <= station <= geom.segment_bounds[3]


class TestTendonBend:
    def test_zero_tension_matches_unloaded(self):
        # A zero tension or eccentricity puts no moment on the folds, not a
        # zero one, which would add a row to the shape at each fold.
        geom = fold_arm(droop=5.0)
        b = solve_elastica(geom, E_SOFT, LoadCase())
        for tension, eccentricity in ((0.0, 0.01), (4.0, 0.0)):
            a = tendon_bend(geom, E_SOFT, tension, eccentricity)
            assert a.history == b.history and a.station_count == b.station_count

    def test_monotone_downward_with_tension(self):
        geom = fold_arm(droop=5.0)
        angles = [
            tendon_bend(geom, 2e6, t, eccentricity=0.01).tip_angle_deg
            for t in (0.0, 2.0, 4.0, 8.0)
        ]
        assert all(b < a for a, b in zip(angles, angles[1:]))
        assert all(a <= -5.0 + 1e-9 for a in angles)

    def test_extreme_tension_flags_contact_or_diverges(self):
        geom = fold_arm(inertia=(1e-9,) * 4, droop=5.0)
        try:
            sol = tendon_bend(geom, 2e6, 60.0, eccentricity=0.01)
        except NoConvergence:
            return
        assert sol.contact_expected

    def test_negative_tension_rejected(self):
        with pytest.raises(ValueError, match=r"^tension must be >= 0, got -2.0$"):
            tendon_bend(fold_arm(), 2e6, -2.0, 0.01)


class TestMaterialHandling:
    def test_negative_modulus_rejected(self):
        geom = uniform_arm()
        rho10 = MooneyRivlinParams(-4.51, 4.16, 0.76, -2.75, 4.89)
        with pytest.warns(NonPhysicalWarning), pytest.raises(NonPhysicalMaterial):
            solve_elastica(geom, rho10, LoadCase())

    def test_mr_params_use_small_strain_modulus(self):
        geom = uniform_arm()
        rho6 = MooneyRivlinParams(-3.19, 4.23, 0.64, -2.65, 4.37)
        a = solve_elastica(geom, rho6, LoadCase(thrust=0.002, gravity=0))
        b = solve_elastica(geom, 6.24e6, LoadCase(thrust=0.002, gravity=0))
        assert a.tip_angle_deg == pytest.approx(b.tip_angle_deg, rel=1e-9)

    @pytest.mark.parametrize("modulus", [math.nan, math.inf, True], ids=["nan", "inf", "true"])
    def test_non_finite_or_boolean_modulus_rejected(self, modulus):
        # Unchecked, NaN ends in NoConvergence (a solver error), inf in a
        # rigid arm and True in a 1 Pa one.
        with pytest.raises(ValueError, match="material must be finite"):
            solve_elastica(SHIPPED_ARM, modulus, LoadCase(thrust=1.0), SOLVER_SETTINGS)

    @pytest.mark.parametrize(
        "material,inertia,message",
        [(MooneyRivlinParams(1e303, 4.23, 0.64, -2.65, 4.37), 5e-8,
          r"^effective modulus inf Pa is out of float range$"),
         (6.24e6, 1e308, r"^EI of segment 1, modulus 6240000.0 Pa times inertia 1e\+308 m\^4, "),
         (1e-6, 5e-324, r"^EI of segment 1, modulus 1e-06 Pa times inertia 5e-324 m\^4, ")],
        ids=["modulus-inf", "ei-inf", "ei-zero"])
    def test_modulus_or_ei_out_of_float_range_rejected(self, material, inertia, message):
        # Unchecked, an infinite EI solved as a rigid arm, and an EI of 0
        # divided by zero in the mesh.
        with pytest.raises(errors.InputError, match=message):
            solve_elastica(fold_arm(inertia=(inertia,) * 4), material, LoadCase(thrust=1.0),
                           SOLVER_SETTINGS)

    def test_unsupported_material_type_rejected(self):
        with pytest.raises(TypeError, match="unsupported material type"):
            beam.effective_modulus("6e6")


class TestGeometryValidation:
    def test_segment_count_limit(self):
        with pytest.raises(ValueError):
            ArmGeometry(
                segments=(Segment(1, 0.01),) * 9,
                section_inertia=(1e-9,) * 9,
                section_half_depth=0.005,
            )

    def test_motor_station_range(self):
        with pytest.raises(ValueError):
            uniform_arm(motor=1.5)

    @pytest.mark.parametrize("droop", [-1e6, -90.0, 90.0, 5000.0, 1e6])
    def test_droop_range(self, droop):
        # At +/-90 deg or beyond, the unloaded arm no longer points outward.
        with pytest.raises(ValueError, match=r"initial_droop_deg must be in \(-90, 90\)"):
            uniform_arm(droop=droop)
        uniform_arm(droop=math.copysign(89.9, droop))  # just inside is an arm

    def test_sums_add_left_to_right(self):
        # sum() compensates floats from Python 3.12 on; the arm length and the
        # turning budget must not depend on the interpreter.
        segments = [Segment(a, l) for a, l in zip((36.1, 27.3, 19.7), (0.1, 0.2, 0.3))]
        geom = ArmGeometry(segments, (1e-9,) * 3, section_half_depth=0.005)
        assert geom.total_length == 0.6000000000000001 == geom.segment_bounds[-1]
        geom = ArmGeometry([*segments, Segment(13.2, 0.1)], (1e-9,) * 4, section_half_depth=0.005)
        assert geom.total_turning_deg == 96.30000000000001

    def test_derived_values_are_kept_outside_the_fields(self):
        # segment_bounds and total_turning_deg are computed on first read and
        # kept; == , hash, repr, asdict and replace see the fields alone.
        geom, fresh = fold_arm(droop=5.0), fold_arm(droop=5.0)
        bounds, turning = [0.0], 0
        for seg in FOLD_SEGMENTS:
            bounds.append(bounds[-1] + seg.length)
            turning += seg.fold_angle_deg
        assert geom.segment_bounds == tuple(bounds) and geom.total_length == bounds[-1]
        assert geom.total_turning_deg == turning
        assert geom.segment_bounds is geom.segment_bounds  # computed once
        assert geom == fresh and hash(geom) == hash(fresh) and repr(geom) == repr(fresh)
        assert list(geom.asdict()) == list(ArmGeometry._fields) and geom.replace() == fresh
        longer = tuple(Segment(seg.fold_angle_deg + 1.0, 2.0 * seg.length)
                       for seg in FOLD_SEGMENTS)
        changed = geom.replace(segments=longer)
        assert changed.segment_bounds == tuple(2.0 * b for b in bounds)
        assert changed.total_length == 2.0 * bounds[-1]
        assert changed.total_turning_deg == turning + 4.0
        frozen = "ArmGeometry is frozen: cannot set or delete"
        for name in ("segment_bounds", "total_length", "total_turning_deg"):
            with pytest.raises(AttributeError, match=f"{frozen} '{name}'"):
                setattr(geom, name, 1.0)
            with pytest.raises(AttributeError, match=f"{frozen} '{name}'"):
                delattr(geom, name)
        assert geom.segment_bounds == tuple(bounds)

    @pytest.mark.parametrize("station", [-0.01, 0.5])
    def test_point_moment_off_the_arm_rejected(self, station):
        loads = LoadCase(thrust=0, gravity=0, point_moments=((station, 1.0),))
        with pytest.raises(ValueError, match=f"point moment at s = {station} m is off the arm"):
            solve_elastica(SHIPPED_ARM, E_SOFT, loads)

    def test_stations_ordered_and_solution_fields(self):
        geom = fold_arm(droop=2.0, motor=0.83)
        sol = solve_elastica(geom, E_SOFT, LoadCase(thrust=1.0))
        assert isinstance(sol, BeamSolution)
        assert np.all(np.diff(sol.stations[:, 0]) >= 0)


    @pytest.mark.parametrize("geom, modulus, loads", [
        *((uniform_arm(length=0.2), E_SOFT, LoadCase(thrust=load * E_SOFT * 1e-9 / 0.2**2,
                                                       gravity=0)) for load in (1.0, 3.0, 10.0)),
        (SHIPPED_ARM, 1.118e6, LoadCase(thrust=9.0)),
    ], ids=["1.0", "3.0", "10.0", "shipped_arm_weighted"])
    def test_tip_angle_converges_at_fourth_order(self, geom, modulus, loads):
        # Halving the step divides the error of the tip angle and of the tip's
        # position (x, z) by about 2^4: the Runge-Kutta-Nystrom step and
        # Simpson's rule on the shape are both 4th order. On the uniform arm,
        # a follower tip force F with FL^2/EI of 1, 3 and 10 (EI = 0.01 N m^2);
        # the shipped arm, weighted, bends 84 deg under 9 N at station 0.83,
        # so its march runs the loop without sines outboard of the motor and
        # the one with them inboard.
        def tip(steps):
            settings = SolverSettings(integration_steps=steps, shooting_tolerance=1e-14)
            sol = solve_elastica(geom, modulus, loads, settings)
            return (sol.tip_angle_deg, *sol.stations[-1, 1:3])

        reference = tip(2048)
        errors = [[abs(a - b) for a, b in zip(tip(steps), reference)]
                  for steps in (16, 32, 64, 128)]
        for coarse, fine in zip(errors, errors[1:]):
            for c, f in zip(coarse, fine):
                assert 12.0 <= c / f <= 24.0


class TestRobustness:
    def test_thrust_sweep_past_90deg_stays_on_the_zero_load_branch(self):
        rho6 = MooneyRivlinParams(-3.19, 4.23, 0.64, -2.65, 4.37)
        angles = []
        for thrust in np.linspace(0.0, 60.0, 61):
            sol = solve_elastica(SHIPPED_ARM, rho6, LoadCase(thrust=float(thrust)), SOLVER_SETTINGS)
            assert sol.residual <= SOLVER_SETTINGS.shooting_tolerance
            assert sol.moments[-1] == 0.0
            angles.append(sol.tip_angle_deg)
            if sol.tip_angle_deg > 90.0:
                break
        assert angles[-1] > 90.0
        assert all(b > a for a, b in zip(angles, angles[1:]))

    def test_soft_uniform_arm_converges_at_30n(self):
        geom = uniform_arm(length=0.2, inertia=3e-8)  # EI = 0.3 N m^2
        loads = LoadCase(thrust=30.0, gravity=0)
        settings = SolverSettings()
        sol = solve_elastica(geom, E_SOFT, loads, settings)
        assert sol.residual <= settings.shooting_tolerance
        assert sol.moments[-1] == 0.0
        assert 90.0 < sol.tip_angle_deg < 180.0

    def test_very_soft_drooping_arm_converges(self):
        # A very soft arm drooping under its weight, thrust inboard of the tip.
        geom = SHIPPED_ARM.replace(motor_station=0.55)
        sol = solve_elastica(geom, 1.5e4, LoadCase(thrust=0.2), SOLVER_SETTINGS)
        assert sol.residual <= SOLVER_SETTINGS.shooting_tolerance
        assert sol.moments[-1] == 0.0
        assert np.all(np.isfinite(sol.stations))

    def test_limp_arm_hangs_under_its_own_weight(self):
        # At 1 kPa the arm hangs almost straight down under its own weight.
        # The defect has a positive local minimum far from the root, where a
        # bracket of the smallest |defect| seen on each side would get stuck.
        sol = solve_elastica(SHIPPED_ARM, 1e3, LoadCase(thrust=0.0), SOLVER_SETTINGS)
        assert sol.residual <= SOLVER_SETTINGS.shooting_tolerance
        assert -90.0 < sol.tip_angle_deg < -89.9

    def test_stalled_bracket_gives_up_instead_of_repeating(self, record_calls):
        # A 1e7 N follower thrust on the 6% row: the shooting from the
        # straight arm spends its march budget on every rung, each missed
        # rung hands the solve to the next, and the requested mesh raises
        # instead of marching on.
        rho6 = MooneyRivlinParams(-3.19, 4.23, 0.64, -2.65, 4.37)
        with record_calls(beam._march) as (marches,), pytest.raises(
                NoConvergence, match="did not reach the shooting tolerance"):
            solve_elastica(SHIPPED_ARM, rho6, LoadCase(thrust=1e7), SOLVER_SETTINGS)
        # {Steps of a march: marches with that many}: the 4-, 8-, 16-, 32-
        # and 64-step rungs of the shipped arm.
        rungs = Counter(march_steps(marches))
        assert list(rungs) == [19, 35, 66, 130, 258]
        assert list(rungs.values()) == [beam.SHOOTING_MARCHES] * 5

    def test_nan_defect_never_meets_the_tolerance(self, monkeypatch):
        monkeypatch.setattr(beam, "_march", lambda *args: math.nan)
        with pytest.raises(NoConvergence):
            solve_elastica(SHIPPED_ARM, E_SOFT, LoadCase(thrust=1.0), SOLVER_SETTINGS)

    def test_missed_rungs_hand_the_solve_to_the_next(self, record_calls):
        # At 144 kN the shooting from the straight arm misses on the 4- and
        # 8-step rungs within its budget; the 16-step rung starts again from
        # the straight arm and converges, and the missed marches count. The
        # 64-step answer is 4.3 deg from the 1,024-step one, 117.4645 deg.
        rho6 = MooneyRivlinParams(-3.19, 4.23, 0.64, -2.65, 4.37)
        with record_calls(beam._march) as (marches,):
            sol = solve_elastica(SHIPPED_ARM, rho6, LoadCase(thrust=144000.0), SOLVER_SETTINGS)
        rungs = Counter(march_steps(marches))
        assert rungs == {19: beam.SHOOTING_MARCHES, 35: beam.SHOOTING_MARCHES,
                         66: 3, 130: 3, 258: 3}
        assert sol.integrations == sum(rungs.values()) == 89
        assert sol.steps == sum(steps * n for steps, n in rungs.items())
        assert sol.mesh_steps == 64
        assert sol.residual <= SOLVER_SETTINGS.shooting_tolerance
        assert sol.tip_angle_deg == pytest.approx(121.7670, abs=1e-4)


class TestSolverCounters:
    def test_every_march_is_counted(self):
        # Zero load: the straight guess meets the clamp, so one march on each
        # of the first two rungs.
        sol = solve_elastica(fold_arm(droop=5.0), E_SOFT, LoadCase(thrust=0, gravity=0))
        assert sol.integrations == 2

    def test_steps_count_the_first_two_rungs(self):
        # Zero load: one march on the 8-step rung and one on the 16-step
        # rung, which accepts it; the shape, on the 64-step mesh, has a
        # station after every step of its own.
        seg_len = sum(seg.length for seg in FOLD_SEGMENTS) / len(FOLD_SEGMENTS)

        def mesh_steps(steps):
            return sum(math.ceil(steps * seg.length / seg_len) for seg in FOLD_SEGMENTS)

        sol = solve_elastica(fold_arm(droop=5.0), E_SOFT, LoadCase(thrust=0, gravity=0),
                             SolverSettings(integration_steps=64))
        assert sol.mesh_steps == 2 * PREDICTOR_STEPS
        assert sol.steps == mesh_steps(PREDICTOR_STEPS) + mesh_steps(2 * PREDICTOR_STEPS)
        assert len(sol.stations) - 1 == mesh_steps(64)

    def test_a_tolerance_below_the_mesh_error_climbs_to_the_top_rung(self):
        # At 1e-14 rad no rung's first march meets the tolerance, so the
        # tip angle is shot on the requested mesh itself.
        geom = uniform_arm(length=0.2)
        loads = LoadCase(thrust=3.0 * E_SOFT * 1e-9 / 0.2**2, gravity=0)
        for steps in (16, 128, 2048):
            settings = SolverSettings(integration_steps=steps, shooting_tolerance=1e-14)
            assert solve_elastica(geom, E_SOFT, loads, settings).mesh_steps == steps


class TestSolutionArrays:
    """No march of the solve records; BeamSolution marches its shape again,
    by the recording march, on first access and builds its arrays from
    those rows."""

    @staticmethod
    def solve():
        loads = LoadCase(thrust=0.5, point_moments=tendon_moments(2.0, 0.01))
        return solve_elastica(fold_arm(droop=5.0, motor=0.8, density=0.05), E_SOFT, loads,
                              SolverSettings(integration_steps=64))

    @pytest.fixture(scope="class")
    def sol(self):
        return self.solve()

    def test_shape_is_marched_once_on_first_read(self, record_calls):
        with record_calls(beam._march) as (marches,):
            sol = self.solve()
            # no march of the solve records
            assert len(march_steps(marches)) == len(marches) == sol.integrations
            counters = (sol.integrations, sol.steps)
            rows = sol.history  # the first read makes one recording march
            assert len(marches) == sol.integrations + 1 and marches[-1].args["rows"] is rows
            assert sol.history is rows  # the second makes none
            assert len(marches) == sol.integrations + 1
        assert (sol.integrations, sol.steps) == counters

    def test_each_mesh_is_built_once(self, record_calls):
        # One mesh per rung, the shape's on its first read: a solve accepted
        # on the 8-step rung meshes 4 and 8 steps per segment length, and so
        # does the sweep of `softarm analyze`, all of whose solves it accepts.
        def built():  # the steps of each mesh built, in order
            return [mesh.args["steps"] for mesh in meshes]

        with record_calls(beam._mesh) as (meshes,):
            assert main(["analyze"]) == EXIT_OK  # 11 solves in one sweep
            assert built() == [4, 8]
            meshes.clear()
            sol = tendon_bend(SHIPPED_ARM, 1.118e6, 5.0, 0.01)
            assert built() == [4, 8]
            rows = sol.history
            assert built() == [4, 8, 256]
            assert sol.history is rows and built() == [4, 8, 256]

    @pytest.mark.parametrize("droop, motor, loads", [
        (5.0, 0.8, LoadCase(thrust=0.5, point_moments=tendon_moments(2.0, 0.01))),
        (5.0, 1.0, LoadCase()),
        (5.0, 1.0, LoadCase(gravity=0.0, point_moments=tendon_moments(2.0, 0.01))),
        (5.0, 0.5, LoadCase(thrust=2.0)),
        (5.0, 1.0, LoadCase(point_moments=((0.035, 0.0),))),
        (-20.0, 1.0, LoadCase(point_moments=tendon_moments(2.0, -0.01))),
    ], ids=["thrust_and_tendon", "gravity_only", "tendon_only_no_gravity", "thrust_inboard_half",
            "zero_moment_at_a_fold", "droop_up_negative_eccentricity"])
    def test_shape_is_the_accepted_march(self, droop, motor, loads):
        # The shape is the rows that _march records on the requested mesh
        # at the accepted tip angle. It reaches the root bit for bit where
        # the march without a list does on the same panels, though that
        # march skips the sines on panels without horizontal force and the
        # recording march does not.
        # The residual is the root defect of the accepted rung's march. At
        # 1e-9 rad the ladder accepts the 8-step rung in every case. At
        # 1e-14 rad no rung's first march meets the tolerance, so the ladder
        # climbs to the requested mesh and the shape's root defect is the
        # residual; only the arcs bent by point moments alone, whose angle
        # the step integrates exactly on any mesh, still stop at 8 steps.
        # (A loop, not a parameter, keeps the test ids of the load cases.)
        geometry = fold_arm(droop=droop, motor=motor, density=0.05)
        theta_root = -math.radians(droop)
        arcs = loads.thrust == 0 and loads.gravity == 0
        for steps, tolerance, accepted in ((64, 1e-9, 8), (16, 1e-14, 8 if arcs else 16)):
            settings = SolverSettings(integration_steps=steps, shooting_tolerance=tolerance)
            sol = solve_elastica(geometry, E_SOFT, loads, settings)
            assert sol.mesh_steps == accepted
            assert math.degrees(sol.history[0][3]) == sol.tip_angle_deg
            shape = beam._mesh(*sol.plan[:2])  # the requested mesh
            rows = []
            beam._march(shape, *sol.plan[2:], rows)
            assert rows == sol.history
            assert beam._march(shape, *sol.plan[2:]) == sol.history[-1][3]
            rung = beam._mesh(beam._panel_plan(geometry, loads, E_SOFT), accepted)
            assert abs(beam._march(rung, *sol.plan[2:]) - theta_root) == sol.residual
            if accepted == steps:
                assert abs(sol.history[-1][3] - theta_root) == sol.residual

    @pytest.mark.parametrize("loads", [
        LoadCase(thrust=0.0, gravity=0.0),
        LoadCase(thrust=3.0,
                 point_moments=tendon_moments(5.0, 0.01, SHIPPED_ARM.segment_bounds[1:-1])),
        LoadCase(thrust=1.0, point_moments=((0.0, 0.3),)),
    ], ids=["no_load", "thrust_and_tendon", "moment_at_the_root"])
    def test_station_count_is_the_length_of_the_shape(self, loads):
        sol = solve_elastica(SHIPPED_ARM, 1.118e6, loads, SOLVER_SETTINGS)
        assert sol.station_count == len(sol.history)

    def test_arrays_equal_the_eager_construction(self, sol):
        rows = np.array(sol.history[::-1])  # root to tip, columns (s, x, z, theta, M)
        stations = rows[:, :4].copy()
        stations[:, 1:3] -= stations[0, 1:3]
        assert sol.stations.shape == stations.shape
        assert sol.stations.tobytes() == stations.tobytes()
        assert sol.moments.tobytes() == rows[:, 4].copy().tobytes()
        assert sol.tip_angle_deg == math.degrees(sol.stations[-1, 3])

    def test_repeated_access_returns_the_same_array(self, sol):
        assert sol.stations is sol.stations
        assert sol.moments is sol.moments

    def test_replaced_solution_keeps_its_arrays(self, sol):
        flagged = sol.replace(contact_expected=True)  # as tendon_bend does
        assert flagged.contact_expected
        assert np.array_equal(flagged.stations, sol.stations)
        assert np.array_equal(flagged.moments, sol.moments)


class TestPredictor:
    """The ladder above the first rung, PREDICTOR_STEPS steps per segment
    length. On the shipped arm the 4- and 8-step rungs march 19 and 35
    steps; at motor station 0.9753 the 4-, 8-, 16- and 32-step rungs march
    20, 36, 66 and 131."""

    def test_prediction_within_tolerance_takes_one_full_mesh_march(self, record_calls):
        # The tip angle shot on 4 steps meets the clamp on 8 at its first
        # march, so the ladder stops there.
        with record_calls(beam._march) as (marches,):
            sol = solve_elastica(SHIPPED_ARM, 1.118e6, LoadCase(thrust=3.0), SOLVER_SETTINGS)
        assert sol.mesh_steps == 8
        assert march_steps(marches) == [19] * 4 + [35]
        assert sol.residual <= SOLVER_SETTINGS.shooting_tolerance

    def test_missed_root_angle_climbs_past_16_steps(self, record_calls):
        # A soft arm bent past 110 deg: the tip angle shot on 4 steps misses
        # the root angle on 8, and the one shot on 8 misses it on 16, so the
        # shooting resumes on each; the angle shot on 16 meets it on 32 at
        # the first march.
        geom = SHIPPED_ARM.replace(motor_station=0.9753)
        with record_calls(beam._march) as (marches,):
            sol = solve_elastica(geom, 1.118e6, LoadCase(thrust=9.3846), SOLVER_SETTINGS)
        assert sol.mesh_steps == 32
        assert march_steps(marches) == [20] * 4 + [36] * 2 + [66] * 2 + [131]
        assert sol.residual <= SOLVER_SETTINGS.shooting_tolerance
        # The resolved answer: the 1,024-step mesh shot to 1e-12 rad.
        resolved = 113.04250449870685
        assert sol.tip_angle_deg == pytest.approx(
            resolved, abs=math.degrees(SOLVER_SETTINGS.shooting_tolerance))
        # Where the secant stops inside that band is pinned bit for bit:
        # 5.8e-7 deg from the resolved answer, while the 32-step mesh itself
        # is 2.8e-8 deg from it. beam._shoot on the 64-step mesh alone, from
        # the straight arm at 1e-7 rad, stops 7.5e-8 deg from it
        # (113.04250442351527 deg), so which of the two lands closer is where
        # each secant happens to stop, not the mesh.
        assert sol.tip_angle_deg == 113.04250391709489

    def test_analyze_angles_hold_on_the_resolved_mesh(self, record_calls):
        # The 11 throttles of `softarm analyze`, accepted on the 8-step rung,
        # against the solve at 1,024 steps and 1e-12 rad, whose ladder stops
        # between 8 and 128 steps, where the angle holds on twice the mesh to
        # 1e-12 rad. The worst is 1.1e-6 deg.
        args, solutions = analyze_sweep(record_calls)
        resolved = SolverSettings(integration_steps=1024, shooting_tolerance=1e-12)
        tolerance = math.degrees(args["settings"].shooting_tolerance)
        assert [sol.mesh_steps for sol in solutions] == [8] * 11
        for thrust, sol in zip(args["thrusts"], solutions, strict=True):
            loads = LoadCase(thrust=thrust)
            answer = solve_elastica(args["geometry"], args["material"], loads, resolved)
            assert abs(sol.tip_angle_deg - answer.tip_angle_deg) <= tolerance


class TestSolveSweep:
    """beam.solve_sweep gives the solutions of solve_elastica, bit for bit,
    for each of its thrusts, from one set-up."""

    @staticmethod
    def fingerprint(sol):
        rows = [[value.hex() for value in row] for row in (sol.history[0], sol.history[-1])]
        return (sol.tip_angle_deg.hex(), sol.residual.hex(), sol.integrations, sol.steps,
                sol.mesh_steps, rows)

    def test_analyze_throttle_grid(self, record_calls):
        args, solutions = analyze_sweep(record_calls)
        assert len(solutions) == 11
        for thrust, sol in zip(args["thrusts"], solutions, strict=True):
            alone = solve_elastica(args["geometry"], args["material"], LoadCase(thrust=thrust),
                                   args["settings"])
            assert self.fingerprint(sol) == self.fingerprint(alone)

    @pytest.mark.parametrize("geometry, material, thrusts, settings", [
        (fold_arm(droop=5.0, motor=0.8, density=0.05), E_SOFT, (0.0, 0.5, 2.0, 0.5),
         SolverSettings(integration_steps=64)),
        # The second thrust climbs to the 32-step rung, the others stop at 8.
        (SHIPPED_ARM.replace(motor_station=0.9753), 1.118e6, (3.0, 9.3846, 0.0),
         SOLVER_SETTINGS),
    ], ids=["fold_arm", "ladder_climbs"])
    def test_each_thrust_as_solved_alone(self, geometry, material, thrusts, settings):
        solutions = beam.solve_sweep(geometry, material, thrusts, settings)
        for thrust, sol in zip(thrusts, solutions, strict=True):
            alone = solve_elastica(geometry, material, LoadCase(thrust=thrust), settings)
            assert self.fingerprint(sol) == self.fingerprint(alone)
        plan = solutions[0].plan[0]
        assert type(plan) is tuple and all(sol.plan[0] is plan for sol in solutions)

    @pytest.mark.parametrize("thrust, message", [
        (math.nan, "thrusts must be finite, got (0.5, nan)"),
        (math.inf, "thrusts must be finite, got (0.5, inf)"),
        (-1.0, "thrust must be >= 0, got -1.0"),
    ], ids=["nan", "inf", "negative"])
    def test_thrust_that_is_not_finite_and_non_negative_raises(self, thrust, message):
        with pytest.raises(errors.InputError) as info:
            beam.solve_sweep(fold_arm(), E_SOFT, [0.5, thrust])
        assert str(info.value) == message

    def test_failed_solve_names_its_thrust(self):
        rho6 = MooneyRivlinParams(-3.19, 4.23, 0.64, -2.65, 4.37)
        with pytest.raises(NoConvergence, match="did not reach the shooting tolerance") as info:
            beam.solve_sweep(SHIPPED_ARM, rho6, (3.0, 1e7, 4.0), SOLVER_SETTINGS)
        assert info.value.index == 1

    def test_no_thrusts_no_solutions(self):
        assert beam.solve_sweep(SHIPPED_ARM, E_SOFT, []) == []

    def test_readme_library_example(self):
        readme = (Path(__file__).resolve().parent.parent / "README.md").read_text()
        example = readme.split("## Library example\n", 1)[1]
        code = example.split("```python\n", 1)[1].split("```", 1)[0]
        namespace = {}
        exec(code, namespace)
        geometry, sweep = namespace["geometry"], namespace["sweep"]
        assert sweep == [solve_elastica(geometry, 6.24e6, LoadCase(thrust=thrust))
                         for thrust in (0.0, 1.5, 3.0)]


class TestShoot:
    """beam._shoot on scalar functions, from guess 0 at tolerance 1e-9."""

    @staticmethod
    def shoot(f):
        """The root found (None when the shooting gives up) and every point
        evaluated. _shoot returns its last point, f there and the count of
        evaluations."""
        points = []

        def recorded(x):
            points.append(x)
            return f(x)

        x, fx, evaluations = beam._shoot(recorded, 0.0, 1e-9)
        assert (points[-1], evaluations) == (x, len(points)) and fx == f(x)
        return (x if abs(fx) <= 1e-9 else None), points

    def test_first_step_then_false_position(self):
        # The first step assumes unit slope, which is exact here.
        assert self.shoot(lambda x: x - 0.005) == (0.005, [0.0, 0.005])

    def test_clipped_secant_steps_reach_a_far_root(self):
        root, points = self.shoot(lambda x: math.atan(x - 30.0))
        assert abs(root - 30.0) <= 1e-9 and len(points) == 11
        # The unit-slope step goes to atan(30); the secant steps from there
        # are clipped to 10 rad until f changes sign.
        start = math.atan(30.0)
        assert points[1:5] == pytest.approx([start + 10.0 * k for k in range(4)], abs=1e-12)

    def test_march_budget_gives_up_at_the_last_point(self):
        # The clipped secant steps climb 10 rad per march towards a root at
        # 1e6 and spend the budget long before it.
        root, points = self.shoot(lambda x: math.atan(x - 1e6))
        assert root is None and len(points) == beam.SHOOTING_MARCHES

    def test_flat_secant_gives_up(self):
        root, points = self.shoot(lambda x: 2.0)
        assert root is None and len(points) == 2

    def test_no_root_gives_up_at_a_flat_secant(self):
        # f(0) = 1 steps to -1, where f = 2; the secant through both steps
        # to 1, where f = 2 again.
        root, points = self.shoot(lambda x: 1.0 + x**2)
        assert root is None and points == [0.0, -1.0, 1.0]

    def test_first_step_below_one_float_step_still_moves(self):
        # 1e-3 * 3 ulp is less than half an ulp of 300, so x + step == x;
        # the step moves to the next float instead and the secant goes on.
        root = 300.0 + 3 * math.ulp(300.0)
        assert beam._shoot(lambda x: 1e-3 * (x - root), 300.0, 1e-16)[0] == root


class TestLoadLayout:
    """Where the loads act: tendon_bend puts a point moment -T*e at each
    interior fold, and a moment at the root goes into the clamp."""

    @staticmethod
    def march_bytes(sol):
        return np.array(sol.history).tobytes(), sol.integrations, sol.steps

    @pytest.mark.parametrize("motor", [0.83, 1.0])
    def test_tendon_is_point_moments_at_the_interior_folds(self, motor):
        geom = SHIPPED_ARM.replace(motor_station=motor)
        loads = LoadCase(point_moments=tendon_moments(5.0, 0.01, geom.segment_bounds[1:-1]))
        tendon = tendon_bend(geom, 1.118e6, 5.0, 0.01)
        assert self.march_bytes(tendon) == self.march_bytes(solve_elastica(geom, 1.118e6, loads))

    def test_moment_at_the_root_is_absorbed_by_the_clamp(self):
        loads = LoadCase(thrust=1.0)
        at_root = loads.replace(point_moments=((0.0, 0.3),))
        assert (self.march_bytes(solve_elastica(SHIPPED_ARM, 1.118e6, at_root, SOLVER_SETTINGS))
                == self.march_bytes(solve_elastica(SHIPPED_ARM, 1.118e6, loads, SOLVER_SETTINGS)))


def shape_digest(solutions):
    """SHA-256 of the stations bytes then the moments bytes of each solution."""
    digest = hashlib.sha256()
    for sol in solutions:
        digest.update(sol.stations.tobytes())
        digest.update(sol.moments.tobytes())
    return digest.hexdigest()


class TestShapeDigests:
    """The shapes themselves, bit for bit, not only the reports built from
    them, and the work counters of the tendon cases: a solver change meant
    to keep every result unchanged must keep these digests. One that is
    meant to change the shapes updates them and says why."""

    def test_analyze_throttle_sweep(self, record_calls):
        _, solutions = analyze_sweep(record_calls)
        assert [sol.mesh_steps for sol in solutions] == [8] * 11
        assert shape_digest(solutions) == (
            "58b61d628eda32fc572bf60b11a15d398c2d1e9fcf1186f36795cd7660955532"
        )

    def test_tendon_bend(self):
        rho6 = MooneyRivlinParams(-3.19, 4.23, 0.64, -2.65, 4.37)
        cases = ((0.0, 0.01), (9.1386, 0.002678), (28.2923, 0.009751), (33.0518, -0.009745))
        solutions = [tendon_bend(SHIPPED_ARM, rho6, t, e) for t, e in cases]
        assert [sol.mesh_steps for sol in solutions] == [8] * 4
        assert [sol.integrations for sol in solutions] == [4, 4, 5, 5]
        assert [sol.steps for sol in solutions] == [92, 92, 111, 111]
        assert shape_digest(solutions) == (
            "06b7f6e9712fe7631019ca69b1fc4930029770a64c4e7baa68953ef13afc40b0"
        )


@hypothesis.settings(max_examples=40, deadline=None)
@given(
    e_modulus=st.floats(0.66e6, 12e6),
    station=st.floats(0.5, 1.0),
    thrust=st.floats(0.0, 11.0),
    steps=st.sampled_from([16, 64]),
)
def test_design_range_converges(e_modulus, station, thrust, steps):
    geom = SHIPPED_ARM.replace(motor_station=station)
    settings = SOLVER_SETTINGS.replace(integration_steps=steps)
    sol = solve_elastica(geom, e_modulus, LoadCase(thrust=thrust), settings)
    assert sol.residual <= settings.shooting_tolerance
    assert math.degrees(sol.history[0][3]) == sol.tip_angle_deg
    # the loops agree
    assert beam._march(beam._mesh(*sol.plan[:2]), *sol.plan[2:]) == sol.history[-1][3]
    if sol.mesh_steps == steps:  # the ladder climbed: the shape is the accepted rung
        theta_root = -math.radians(geom.initial_droop_deg)
        assert abs(sol.history[-1][3] - theta_root) == sol.residual
    assert sol.moments[-1] == 0.0
    assert np.all(np.isfinite(sol.stations))
    assert np.all(np.isfinite(sol.moments))


FIELD_CASES = [
    (Segment, {"fold_angle_deg": 10.0, "length": 0.05}, ["fold_angle_deg", "length"]),
    (
        ArmGeometry,
        {
            "segments": (Segment(0.0, 0.2),),
            "section_inertia": (1e-9,),
            "section_half_depth": 0.005,
            "initial_droop_deg": 5.0,
            "motor_station": 0.8,
            "linear_density": 0.1,
        },
        ["section_inertia", "section_half_depth", "initial_droop_deg", "motor_station",
         "linear_density"],
    ),
    (
        LoadCase,
        {
            "thrust": 1.0,
            "gravity": 9.81,
            "point_moments": ((0.1, 0.01),),
        },
        ["thrust", "gravity", "point_moments"],
    ),
    (
        SolverSettings,
        {"integration_steps": 64, "shooting_tolerance": 1e-7},
        ["integration_steps", "shooting_tolerance"],
    ),
    (FlexuralSample, {"force": 1.0, "tip_deflection": 0.01}, ["force", "tip_deflection"]),
    (
        StressStrainCurve,
        {"samples": ((0.0, 0.0), (0.1, 1e5))},
        ["samples"],
    ),
    (
        MooneyRivlinParams,
        {"c10": -3.19, "c01": 4.23, "c20": 0.64, "c02": -2.65, "c11": 4.37},
        ["c10", "c01", "c20", "c02", "c11"],
    ),
    (UniaxialInvariants, {"i1": 3.5, "i2": 3.5}, ["i1", "i2"]),
    (
        DeflectionModelCoeffs,
        {"a1": 2.4, "a2": -0.2, "b1": -0.16, "b2": 0.015, "alpha0": 5.0},
        ["a1", "a2", "b1", "b2", "alpha0"],
    ),
    (
        DeflectionSample,
        {"infill_rate": 6.0, "throttle": 5.0, "angle": 4.4},
        ["infill_rate", "throttle", "angle"],
    ),
    (PipeSpec, {"diameter": 0.2}, ["diameter"]),
    (EfficiencyTable, {"rows": ((4000.0, 0.895), (5000.0, 0.909))}, ["rows"]),
    (PropellerModel, {"thrust_coefficient": 3e-7}, ["thrust_coefficient"]),
]


def _poison(value, bad):
    """The value with its first number replaced by the non-finite number bad."""
    if isinstance(value, tuple):
        return (_poison(value[0], bad), *value[1:])
    return bad


@pytest.mark.parametrize(
    "bad", [math.nan, math.inf, -math.inf, None], ids=["nan", "inf", "-inf", "none"]
)
@pytest.mark.parametrize(
    "cls,kwargs,field",
    [(cls, kwargs, field) for cls, kwargs, fields in FIELD_CASES for field in fields],
    ids=[f"{cls.__name__}.{field}" for cls, _, fields in FIELD_CASES for field in fields],
)
def test_non_finite_input_rejected(cls, kwargs, field, bad):
    cls(**kwargs)  # the baseline is valid
    with pytest.raises(ValueError, match="must be finite"):
        cls(**{**kwargs, field: _poison(kwargs[field], bad)})


@pytest.mark.parametrize(
    "cls,field,value,message",
    [
        (Segment, "length", 0.0, "segment length must be > 0"),
        (Segment, "length", -0.05, "segment length must be > 0"),
        (ArmGeometry, "section_inertia", (1e-9, 1e-9), "one inertia value per segment"),
        (ArmGeometry, "section_inertia", (0.0,), "section inertia must be > 0"),
        (ArmGeometry, "section_half_depth", 0.0, "section_half_depth must be > 0"),
        (ArmGeometry, "linear_density", -0.1, "linear_density must be >= 0"),
        (ArmGeometry, "motor_station", 0.0, r"motor_station must be in \(0, 1\]"),
        (LoadCase, "thrust", -1.0, "thrust must be >= 0"),
        (SolverSettings, "integration_steps", 15, "integration_steps must be >= 16"),
        (SolverSettings, "shooting_tolerance", 0.0, "shooting_tolerance must be > 0"),
        (StressStrainCurve, "samples", ((-1.0, 0.0), (0.1, 1e5)),
         "engineering strain must be > -1"),
        (UniaxialInvariants, "i1", 2.9, "invariants must be >= 3"),
        (DeflectionSample, "throttle", -0.1, "throttle must be >= 0"),
    ],
    ids=lambda v: v.__name__ if isinstance(v, type) else None,
)
def test_out_of_range_input_rejected(cls, field, value, message):
    kwargs = next(kwargs for case, kwargs, _ in FIELD_CASES if case is cls)
    with pytest.raises(ValueError, match=message):
        cls(**{**kwargs, field: value})
