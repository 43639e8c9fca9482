"""Quadratic throttle-deflection model: evaluation, fitting, envelope."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from softarm.cli import default_data_dir
from softarm.deflection import (
    DEFLECTION_BOUND_DEG,
    THROTTLE_GRID,
    DeflectionModelCoeffs,
    DeflectionSample,
    EnvelopeReport,
    envelope_check,
    eval_deflection,
    eval_deflection_sweep,
    fit_deflection_coeffs,
)
from softarm.errors import OutOfEnvelopeWarning, RankDeficient
from softarm.io import read_deflection_coeffs_json

MEASURED = read_deflection_coeffs_json(default_data_dir() / "deflection_coeffs.json")


def quad_samples(coeffs, infills=(6.0, 8.0, 10.0), throttles=(1.0, 3.0, 5.0, 7.0, 9.0)):
    return [
        DeflectionSample(rho, t, eval_deflection(coeffs, rho, t))
        for rho in infills
        for t in throttles
    ]


class TestEvalDeflection:
    def test_measured_rho6_half_throttle(self):
        # (2.4387 - 6*0.1997)*5 + (-0.162 + 6*0.0151)*25, frozen.
        assert eval_deflection(MEASURED, 6.0, 5.0) == pytest.approx(4.4175, abs=1e-9)

    def test_measured_rho8_half_throttle(self):
        a = (2.4387 - 8 * 0.1997) * 5 + (-0.162 + 8 * 0.0151) * 25
        assert eval_deflection(MEASURED, 8.0, 5.0) == pytest.approx(a, rel=1e-12)

    def test_droop_at_zero_throttle(self):
        coeffs = MEASURED.replace(alpha0=-5.0)
        assert eval_deflection(coeffs, 6.0, 0.0) == -5.0

    def test_alpha0_is_additive(self):
        shifted = MEASURED.replace(alpha0=2.5)
        a = eval_deflection(MEASURED, 6.0, 4.0)
        b = eval_deflection(shifted, 6.0, 4.0)
        assert b - a == pytest.approx(2.5, rel=1e-12)

    def test_throttle_out_of_range(self):
        with pytest.raises(ValueError):
            eval_deflection(MEASURED, 6.0, 10.5)
        with pytest.raises(ValueError):
            eval_deflection(MEASURED, 6.0, -0.1)

    def test_low_infill_high_throttle_warns(self):
        with pytest.warns(OutOfEnvelopeWarning):
            eval_deflection(MEASURED, 4.9, 9.0)

    @pytest.mark.parametrize("evaluate", [
        lambda: eval_deflection(MEASURED, 4.9, 9.0),
        lambda: eval_deflection_sweep(MEASURED, 4.9, [2.0, 9.0]),
    ], ids=["point", "sweep"])
    def test_warning_names_the_calling_line(self, evaluate):
        with pytest.warns(OutOfEnvelopeWarning) as records:
            evaluate()
        assert [r.filename for r in records] == [__file__]

    def test_low_infill_low_throttle_silent(self):
        import warnings

        with warnings.catch_warnings():
            warnings.simplefilter("error")
            eval_deflection(MEASURED, 4.9, 2.0)


class TestFit:
    def test_exact_round_trip(self):
        fitted = fit_deflection_coeffs(quad_samples(MEASURED), alpha0=0.0)
        for name in ("a1", "a2", "b1", "b2"):
            assert getattr(fitted, name) == pytest.approx(
                getattr(MEASURED, name), abs=1e-8
            )

    def test_round_trip_with_droop(self):
        base = MEASURED.replace(alpha0=-4.0)
        fitted = fit_deflection_coeffs(quad_samples(base), alpha0=-4.0)
        assert fitted.a1 == pytest.approx(base.a1, abs=1e-8)
        assert fitted.alpha0 == -4.0

    def test_single_infill_rank_deficient(self):
        samples = quad_samples(MEASURED, infills=(6.0,))
        with pytest.raises(RankDeficient):
            fit_deflection_coeffs(samples, alpha0=0.0)

    def test_two_throttles_rank_deficient(self):
        samples = quad_samples(MEASURED, throttles=(2.0, 6.0))
        with pytest.raises(RankDeficient):
            fit_deflection_coeffs(samples, alpha0=0.0)

    def test_infill_linear_in_throttle_rank_deficient(self):
        # rho = 5 + T makes rho*T = 5T + T^2 and rho*T^2 = 5T^2 + T^3: four
        # regressors in the span of T, T^2 and T^3.
        samples = [DeflectionSample(5.0 + t, t, 1.0) for t in (1.0, 2.0, 3.0, 4.0, 5.0)]
        with pytest.raises(RankDeficient, match="design matrix condition"):
            fit_deflection_coeffs(samples, alpha0=0.0)

    def test_too_few_samples(self):
        with pytest.raises(RankDeficient):
            fit_deflection_coeffs([DeflectionSample(6.0, 1.0, 2.0)] * 3, alpha0=0.0)

    def test_noisy_recovery_within_10pct(self):
        rng = np.random.default_rng(11)
        samples = []
        for rho in (6.0, 8.0, 10.0):
            for t in np.linspace(1.0, 9.0, 11):
                noise = float(rng.uniform(-0.1, 0.1))
                samples.append(
                    DeflectionSample(rho, float(t), eval_deflection(MEASURED, rho, float(t)) + noise)
                )
        fitted = fit_deflection_coeffs(samples, alpha0=0.0)
        for name in ("a1", "a2", "b1", "b2"):
            assert getattr(fitted, name) == pytest.approx(
                getattr(MEASURED, name), rel=0.10
            )

    @settings(max_examples=20, deadline=None)
    @given(
        a1=st.floats(-3, 3),
        a2=st.floats(-0.5, 0.5),
        b1=st.floats(-0.5, 0.5),
        b2=st.floats(-0.05, 0.05),
    )
    def test_quadratic_data_fit_exactly(self, a1, a2, b1, b2):
        truth = DeflectionModelCoeffs(a1, a2, b1, b2)
        fitted = fit_deflection_coeffs(quad_samples(truth), alpha0=0.0)
        np.testing.assert_allclose(
            [fitted.a1, fitted.a2, fitted.b1, fitted.b2],
            [a1, a2, b1, b2],
            atol=1e-10,
        )


class TestEnvelope:
    def test_measured_rho6_worst_case(self):
        # Interior vertex of the rho=6 quadratic: a = 1.2405, b = -0.0714.
        report = envelope_check(MEASURED, 6.0)
        assert report.worst_throttle == pytest.approx(8.7, abs=1e-12)
        assert report.max_abs_deflection == pytest.approx(5.388084, abs=1e-6)
        assert report.passes_14deg
        assert not report.nonlinear_flag

    def test_low_infill_flags_nonlinear(self):
        assert envelope_check(MEASURED, 4.9).nonlinear_flag

    def test_zero_coeffs(self):
        report = envelope_check(DeflectionModelCoeffs(0, 0, 0, 0, alpha0=3.0), 6.0)
        assert report.max_abs_deflection == 0.0
        assert report.worst_throttle == 0.0  # the first of equal maxima
        assert report.passes_14deg

    def test_negative_deflection_rejected(self):
        with pytest.raises(ValueError, match="max_abs_deflection must be >= 0"):
            EnvelopeReport(max_abs_deflection=-1.0, worst_throttle=0.0, nonlinear_flag=False,
                           passes_14deg=True)

    def test_droop_excluded_from_deviation(self):
        a = envelope_check(MEASURED, 6.0)
        b = envelope_check(MEASURED.replace(alpha0=-8.0), 6.0)
        assert b.max_abs_deflection == pytest.approx(a.max_abs_deflection, rel=1e-12)

    def test_bound_threshold(self):
        steep = DeflectionModelCoeffs(1.41, 0.0, 0.0, 0.0)
        assert not envelope_check(steep, 6.0).passes_14deg  # 14.1 deg at T=10
        assert envelope_check(DeflectionModelCoeffs(1.39, 0, 0, 0), 6.0).passes_14deg

    def test_grid_is_numpy_linspace_to_the_bit(self):
        grid = np.linspace(0.0, 10.0, 101)
        assert len(THROTTLE_GRID) == len(grid)
        assert all(t == float(g) for t, g in zip(THROTTLE_GRID, grid))

    @settings(max_examples=25, deadline=None)
    @given(
        a1=st.floats(-2, 2),
        b1=st.floats(-0.3, 0.3),
        t=st.floats(0.0, 10.0),
    )
    def test_scan_dominates_grid_rounded_points(self, a1, b1, t):
        coeffs = DeflectionModelCoeffs(a1, 0.0, b1, 0.0)
        t_grid = round(t, 1)  # scan resolution
        report = envelope_check(coeffs, 6.0)
        dev = abs(eval_deflection(coeffs, 6.0, t_grid))
        assert report.max_abs_deflection >= dev - 1e-9

    @settings(max_examples=500, deadline=None)
    @given(
        a1=st.floats(-5, 5),
        a2=st.floats(-0.5, 0.5),
        b1=st.floats(-0.5, 0.5),
        b2=st.floats(-0.05, 0.05),
        infill=st.floats(0.5, 99.5),
    )
    def test_scan_equals_numpy_formula_to_the_bit(self, a1, a2, b1, b2, infill):
        grid = np.linspace(0.0, 10.0, 101)
        dev = np.abs((a1 + infill * a2) * grid + (b1 + infill * b2) * grid**2)
        idx = int(np.argmax(dev))
        report = envelope_check(DeflectionModelCoeffs(a1, a2, b1, b2), infill)
        assert report.max_abs_deflection == float(dev[idx])
        assert report.worst_throttle == float(grid[idx])

    @pytest.mark.parametrize(
        "a1,b1,b2",
        [
            (1.7e-322, -1e-323, 0.0),  # subnormal products: the scan's maximum sits at T = 8.2
            (6.4e-323, -5e-324, 0.0),
            (5e-324, 0.0, 0.0),
            (1.75, -0.1, 0.0),  # vertex at T = 8.75, midway between two grid points
            (2.008, -0.1, 0.0),  # vertex at T = 10.04, just past the grid
            (1.3, 0.0, 0.0),
            (1.3, -0.0, -0.0),  # b = -0.0 + 8 * -0.0 = -0.0
        ],
    )
    def test_peak_equals_numpy_scan_at_edge_cases(self, a1, b1, b2):
        grid = np.linspace(0.0, 10.0, 101)
        dev = np.abs((a1 + 8.0 * 0.0) * grid + (b1 + 8.0 * b2) * grid**2)
        idx = int(np.argmax(dev))
        report = envelope_check(DeflectionModelCoeffs(a1, 0.0, b1, b2), 8.0)
        assert report.max_abs_deflection == float(dev[idx])
        assert report.worst_throttle == float(grid[idx])

    @pytest.mark.parametrize(
        "a1,b1",
        [(1e308, -0.1), (2.0, 1e307), (1.5e307, 1.7e306)],
        ids=["linear_term", "quadratic_term", "sum"],
    )
    def test_overflow_at_the_last_point_is_named(self, a1, b1):
        coeffs = DeflectionModelCoeffs(a1, 0.0, b1, 0.0)
        with pytest.raises(ValueError) as info:
            envelope_check(coeffs, 8.0)
        assert str(info.value) == f"{coeffs} overflow at infill 8.0% and throttle 10.0"

    def test_bound_matches_constant(self):
        assert DEFLECTION_BOUND_DEG == 14.0

