"""End-to-end acceptance gate.

Each test checks one release criterion, prints a single PASS/FAIL line,
and enforces its runtime budget.
"""

import json
import sys
import time

import numpy as np
import pytest

from softarm import adapt, aero, beam, deflection, material
from softarm.cli import default_data_dir, main
from softarm.errors import ChordTooLong
from softarm.io import read_deflection_coeffs_json, read_efficiency_csv

COEFF_SETS = {
    "rho6": material.MooneyRivlinParams(-3.19, 4.23, 0.64, -2.65, 4.37),
    "rho8": material.MooneyRivlinParams(-4.07, 4.18, 0.71, -2.62, 4.54),
    "rho10": material.MooneyRivlinParams(-4.51, 4.16, 0.76, -2.75, 4.89),
}

FOLD_GEOMETRY = beam.ArmGeometry(
    segments=(
        beam.Segment(36.0, 0.035),
        beam.Segment(27.0, 0.040),
        beam.Segment(19.0, 0.045),
        beam.Segment(13.0, 0.055),
    ),
    section_inertia=(5e-8,) * 4,
    section_half_depth=0.015,
)


class _Criterion:
    """Times a criterion body and emits one PASS/FAIL line."""

    def __init__(self, number, label, budget_s):
        self.number = number
        self.label = label
        self.budget_s = budget_s

    def __enter__(self):
        self.start = time.perf_counter()
        return self

    def __exit__(self, exc_type, exc, tb):
        elapsed = time.perf_counter() - self.start
        status = "PASS" if exc_type is None and elapsed < self.budget_s else "FAIL"
        print(
            f"acceptance {self.number:02d} {self.label}: {status} ({elapsed:.2f}s)",
            file=sys.__stdout__,
        )
        if exc_type is None:
            assert elapsed < self.budget_s, f"{self.label} exceeded {self.budget_s}s"
        return False


def test_01_hyperelastic_coefficient_round_trip():
    with _Criterion(1, "hyperelastic coefficient round trip", 1.0):
        lams = np.linspace(1.01, 1.5, 50)
        for params in COEFF_SETS.values():
            samples = tuple(
                (float(l - 1.0), float(material.mr_uniaxial_stress(params, float(l))) * 1e6)
                for l in lams
            )
            curve = material.StressStrainCurve(samples)
            fitted = material.fit_mooney_rivlin(curve)
            np.testing.assert_allclose(
                fitted.as_array(), params.as_array(), rtol=1e-6
            )


def test_02_energy_gradient_check():
    with _Criterion(2, "strain-energy gradient vs finite differences", 1.0):
        rng = np.random.default_rng(3)
        h = 1e-6
        params = COEFF_SETS["rho6"]
        for _ in range(20):
            i1, i2 = rng.uniform(3.0, 7.0, size=2)
            dw1, dw2 = material.mr_energy_partials(
                params, material.UniaxialInvariants(i1, i2)
            )
            w = lambda a, b: material.mr_strain_energy(
                params, material.UniaxialInvariants(a, b)
            )
            fd1 = (w(i1 + h, i2) - w(i1 - h, i2)) / (2 * h)
            fd2 = (w(i1, i2 + h) - w(i1, i2 - h)) / (2 * h)
            assert abs(dw1 - fd1) <= 1e-6 * max(abs(fd1), 1e-6)
            assert abs(dw2 - fd2) <= 1e-6 * max(abs(fd2), 1e-6)


def test_03_elastica_linear_limit_and_mesh_convergence():
    with _Criterion(3, "elastica linear limit and mesh convergence", 5.0):
        geom = beam.ArmGeometry(
            segments=(beam.Segment(0.0, 0.3),),
            section_inertia=(1e-9,),
            section_half_depth=0.005,
        )
        modulus = 1e7
        length = geom.total_length
        delta_lin = 0.01 * length
        force = delta_lin * 3.0 * modulus * geom.section_inertia[0] / length**3
        loads = beam.LoadCase(thrust=force, gravity=0.0)
        sol = beam.solve_elastica(geom, modulus, loads)
        assert abs(sol.z[-1] - delta_lin) <= 0.01 * delta_lin
        fine = beam.solve_elastica(
            geom, modulus, loads, beam.SolverSettings(integration_steps=512)
        )
        assert abs(fine.tip_angle_deg - sol.tip_angle_deg) < 1e-3 * abs(sol.tip_angle_deg)


def test_04_peak_stress_in_first_fold_segment():
    with _Criterion(4, "peak stress located in the first segment", 5.0):
        sol = beam.solve_elastica(
            FOLD_GEOMETRY, 1e7, beam.LoadCase(thrust=3.0, gravity=0.0)
        )
        station = beam.max_stress_station(sol, FOLD_GEOMETRY)
        assert 0.0 <= station <= FOLD_GEOMETRY.segment_bounds[1]


def test_05_efficiency_table_and_surrogate_optimum():
    with _Criterion(5, "efficiency table lookup and surrogate optimum", 1.0):
        table = read_efficiency_csv(default_data_dir() / "efficiency_table.csv")
        for rpm, eta in ((4000.0, 0.895), (5000.0, 0.909), (6000.0, 0.916)):
            assert aero.efficiency_lookup(table, rpm) == eta
        params = aero.calibrate_efficiency_model(table)
        for rpm, eta in ((4000.0, 0.895), (5000.0, 0.909), (6000.0, 0.916)):
            got = aero.efficiency_model(aero.OPTIMUM_MOTOR_STATION, rpm, params)
            assert abs(got - eta) <= 1e-9
        grid = np.linspace(0.30, 1.0, 141)
        etas = [aero.efficiency_model(float(x), 4000.0, params) for x in grid]
        assert abs(float(grid[int(np.argmax(etas))]) - 0.83) <= 0.02


def test_06_deflection_envelope_within_flyability_bound():
    with _Criterion(6, "deflection envelope within the 14 deg bound", 1.0):
        coeffs = read_deflection_coeffs_json(default_data_dir() / "deflection_coeffs.json")
        step = 0.1
        for rho in (6.0, 8.0, 10.0):
            report = deflection.envelope_check(coeffs, rho)
            assert report.max_abs_deflection < 14.0
        report6 = deflection.envelope_check(coeffs, 6.0)
        a = coeffs.a1 + 6.0 * coeffs.a2
        b = coeffs.b1 + 6.0 * coeffs.b2
        vertex_max = a * a / (4.0 * abs(b))
        assert abs(report6.max_abs_deflection - vertex_max) <= abs(b) * (step / 2) ** 2


def test_07_deflection_coefficient_round_trip():
    with _Criterion(7, "deflection coefficient round trip", 1.0):
        truth = read_deflection_coeffs_json(default_data_dir() / "deflection_coeffs.json")
        samples = [
            deflection.DeflectionSample(rho, t, deflection.eval_deflection(truth, rho, t))
            for rho in (6.0, 8.0, 10.0)
            for t in (1.0, 3.0, 5.0, 7.0, 9.0)
        ]
        fitted = deflection.fit_deflection_coeffs(samples, alpha0=0.0)
        for name in ("a1", "a2", "b1", "b2"):
            got, want = getattr(fitted, name), getattr(truth, name)
            assert abs(got - want) <= 1e-8 * abs(want)


def test_08_pipe_wrap_turning_budget_and_chord_limit():
    with _Criterion(8, "pipe wrap turning budget and chord limit", 1.0):
        for diameter in (0.06, 0.2, 1.0):
            result = adapt.wrap_geometry(FOLD_GEOMETRY, adapt.PipeSpec(diameter))
            assert result.total_turning == 95.0
        with pytest.raises(ChordTooLong):
            adapt.wrap_geometry(FOLD_GEOMETRY, adapt.PipeSpec(0.054))


def test_09_attachment_threshold_rules():
    with _Criterion(9, "attachment threshold rules", 1.0):
        cases = [
            (10.0, 1200.0, True, True),
            (6.0, 999.0, True, False),
            (16.0, 5000.0, False, False),
            (15.0, 5000.0, False, False),   # infill boundary excluded
            (14.9, 1000.0, True, True),     # pressure boundary included
        ]
        for infill, pressure, bendable, attached in cases:
            verdict = adapt.attach_check(infill, pressure)
            assert verdict.bendable is bendable
            assert verdict.attached is attached


def test_10_deterministic_analysis_report(tmp_path, capsys):
    with _Criterion(10, "deterministic analysis report", 10.0):
        first, second = tmp_path / "a.json", tmp_path / "b.json"
        assert main(["analyze", "--out", str(first), "--quiet"]) == 0
        assert main(["analyze", "--out", str(second), "--quiet"]) == 0
        capsys.readouterr()
        assert first.read_bytes() == second.read_bytes()
        json.loads(first.read_text())  # well-formed
