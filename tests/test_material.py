"""Material characterization: flexural fit, hyperelastic model, fitting."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from softarm.errors import DegenerateData, InvalidStretch, NonPhysicalWarning, RankDeficient
from softarm.material import (
    FlexuralSample,
    MooneyRivlinParams,
    StressStrainCurve,
    UniaxialInvariants,
    fit_flexural_modulus,
    fit_mooney_rivlin,
    least_squares,
    mr_energy_partials,
    mr_small_strain_modulus,
    mr_strain_energy,
    mr_uniaxial_stress,
    uniaxial_invariants,
)

# Measured coefficient sets for 6/8/10% infill (MPa).
RHO6 = MooneyRivlinParams(-3.19, 4.23, 0.64, -2.65, 4.37)
RHO8 = MooneyRivlinParams(-4.07, 4.18, 0.71, -2.62, 4.54)
RHO10 = MooneyRivlinParams(-4.51, 4.16, 0.76, -2.75, 4.89)

finite_coeff = st.floats(-10, 10, allow_nan=False, allow_infinity=False)
params_strategy = st.builds(MooneyRivlinParams, *[finite_coeff] * 5)


def make_curve(params, lam_lo=1.01, lam_hi=1.5, n=50):
    lams = np.linspace(lam_lo, lam_hi, n)
    samples = tuple(
        (float(l - 1.0), float(mr_uniaxial_stress(params, float(l))) * 1e6) for l in lams
    )
    return StressStrainCurve(samples)


class TestFlexuralFit:
    LENGTH, INERTIA = 0.3, 1e-9

    def test_exact_single_point(self):
        e_true = 10e6
        delta = 1.0 * self.LENGTH**3 / (3.0 * e_true * self.INERTIA)
        samples = [FlexuralSample(1.0, delta), FlexuralSample(2.0, 2 * delta)]
        assert fit_flexural_modulus(samples, self.LENGTH, self.INERTIA) == pytest.approx(e_true, rel=1e-12)

    def test_noisy_recovery_within_2pct(self):
        rng = np.random.default_rng(42)
        e_true = 25e6
        forces = np.linspace(0.5, 5.0, 20)
        deltas = forces * self.LENGTH**3 / (3.0 * e_true * self.INERTIA)
        deltas *= 1.0 + 0.01 * rng.uniform(-1, 1, size=20)
        samples = [FlexuralSample(f, d) for f, d in zip(forces, deltas)]
        assert fit_flexural_modulus(samples, self.LENGTH, self.INERTIA) == pytest.approx(e_true, rel=0.02)

    def test_zero_deflections_degenerate(self):
        samples = [FlexuralSample(1.0, 0.0), FlexuralSample(2.0, 0.0)]
        with pytest.raises(DegenerateData):
            fit_flexural_modulus(samples, self.LENGTH, self.INERTIA)

    def test_single_sample_degenerate(self):
        with pytest.raises(DegenerateData, match="need at least 2 samples"):
            fit_flexural_modulus([FlexuralSample(1.0, 0.01)], self.LENGTH, self.INERTIA)

    def test_non_positive_slope_degenerate(self):
        samples = [FlexuralSample(1.0, -0.01), FlexuralSample(2.0, -0.02)]
        with pytest.raises(DegenerateData, match="non-positive force/deflection slope"):
            fit_flexural_modulus(samples, self.LENGTH, self.INERTIA)

    def test_equal_forces_degenerate(self):
        samples = [FlexuralSample(1.0, 0.01), FlexuralSample(1.0, 0.02)]
        with pytest.raises(DegenerateData):
            fit_flexural_modulus(samples, self.LENGTH, self.INERTIA)

    @pytest.mark.parametrize("length,inertia,name", [
        (0.0, 1e-9, "length"), (-0.3, 1e-9, "length"),
        (0.3, 0.0, "section_inertia"), (0.3, -1e-9, "section_inertia"),
    ])
    def test_non_positive_size_rejected(self, length, inertia, name):
        samples = [FlexuralSample(1.0, 0.01), FlexuralSample(2.0, 0.02)]
        with pytest.raises(ValueError, match=f"{name} must be > 0"):
            fit_flexural_modulus(samples, length, inertia)

    @given(factor=st.floats(0.1, 10.0))
    def test_scale_equivariance(self, factor):
        samples = [FlexuralSample(f, 0.004 * f + 0.001) for f in (0.5, 1.0, 2.0, 3.0)]
        scaled = [
            FlexuralSample(s.force * factor, s.tip_deflection * factor) for s in samples
        ]
        e1 = fit_flexural_modulus(samples, self.LENGTH, self.INERTIA)
        e2 = fit_flexural_modulus(scaled, self.LENGTH, self.INERTIA)
        assert e2 == pytest.approx(e1, rel=1e-12)


class TestInvariants:
    def test_undeformed(self):
        inv = uniaxial_invariants(1.0)
        assert inv.i1 == pytest.approx(3.0) and inv.i2 == pytest.approx(3.0)

    def test_stretch_two(self):
        inv = uniaxial_invariants(2.0)
        assert inv.i1 == pytest.approx(5.0)   # 4 + 1
        assert inv.i2 == pytest.approx(4.25)  # 4 + 0.25

    def test_zero_stretch_rejected(self):
        with pytest.raises(InvalidStretch):
            uniaxial_invariants(0.0)

    def test_minimized_at_unit_stretch(self):
        grid = np.linspace(0.5, 2.0, 151)
        i1 = grid**2 + 2.0 / grid
        i2 = 2.0 * grid + grid**-2
        assert np.all(i1 >= 3.0 - 1e-12) and np.all(i2 >= 3.0 - 1e-12)
        assert abs(grid[np.argmin(i1)] - 1.0) < 0.011
        assert abs(grid[np.argmin(i2)] - 1.0) < 0.011


class TestStrainEnergy:
    @given(params=params_strategy)
    def test_zero_at_rest(self, params):
        assert mr_strain_energy(params, UniaxialInvariants(3.0, 3.0)) == 0.0

    def test_measured_coeffs_at_stretch_1p2(self):
        # Independent arithmetic oracle for the five-term sum at lambda=1.2.
        j1 = 1.2**2 + 2.0 / 1.2 - 3.0
        j2 = 2.0 * 1.2 + 1.2**-2 - 3.0
        expected = (
            -3.19 * j1 + 4.23 * j2 + 0.64 * j1**2 - 2.65 * j2**2 + 4.37 * j1 * j2
        )
        got = mr_strain_energy(RHO6, uniaxial_invariants(1.2))
        assert got == pytest.approx(expected, rel=1e-12)
        assert got == pytest.approx(0.0869014691, abs=1e-9)  # frozen value

    def test_single_term(self):
        p = MooneyRivlinParams(1.0, 0.0, 0.0, 0.0, 0.0)
        assert mr_strain_energy(p, UniaxialInvariants(4.0, 3.0)) == 1.0


class TestUniaxialStress:
    @given(params=params_strategy)
    def test_zero_at_unit_stretch(self, params):
        assert mr_uniaxial_stress(params, 1.0) == 0.0

    def test_matches_energy_derivative(self):
        # dW/dlambda along the uniaxial path equals the engineering stress.
        lam, h = 1.1, 1e-6
        w_plus = mr_strain_energy(RHO6, uniaxial_invariants(lam + h))
        w_minus = mr_strain_energy(RHO6, uniaxial_invariants(lam - h))
        fd = (w_plus - w_minus) / (2 * h)
        assert mr_uniaxial_stress(RHO6, lam) == pytest.approx(fd, rel=1e-6)

    def test_small_strain_limit(self):
        p = MooneyRivlinParams(0.5, 0.5, 0.0, 0.0, 0.0)
        for eps in (1e-3, 5e-4, 1e-4):
            assert mr_uniaxial_stress(p, 1.0 + eps) == pytest.approx(6.0 * eps, rel=0.01)

    def test_invalid_stretch(self):
        with pytest.raises(InvalidStretch):
            mr_uniaxial_stress(RHO6, 0.0)

    def test_agrees_with_the_energy_partials(self):
        # The stress weights the unit-coefficient terms; the partials give
        # P = 2 (l - l^-2) (W1 + W2 / l) another way, to rounding.
        for lam in map(float, np.linspace(0.5, 2.0, 301)):
            dw1, dw2 = mr_energy_partials(RHO6, uniaxial_invariants(lam))
            expected = 2.0 * (lam - lam**-2) * (dw1 + dw2 / lam)
            assert abs(mr_uniaxial_stress(RHO6, lam) - expected) <= 1e-14 * abs(expected)


class TestGradients:
    def test_partials_match_finite_differences(self):
        rng = np.random.default_rng(7)
        h = 1e-6
        for _ in range(20):
            i1, i2 = rng.uniform(3.0, 6.0, size=2)
            dw1, dw2 = mr_energy_partials(RHO6, UniaxialInvariants(i1, i2))
            fd1 = (
                mr_strain_energy(RHO6, UniaxialInvariants(i1 + h, i2))
                - mr_strain_energy(RHO6, UniaxialInvariants(i1 - h, i2))
            ) / (2 * h)
            fd2 = (
                mr_strain_energy(RHO6, UniaxialInvariants(i1, i2 + h))
                - mr_strain_energy(RHO6, UniaxialInvariants(i1, i2 - h))
            ) / (2 * h)
            assert dw1 == pytest.approx(fd1, rel=1e-6, abs=1e-9)
            assert dw2 == pytest.approx(fd2, rel=1e-6, abs=1e-9)


class TestMooneyRivlinFit:
    @pytest.mark.parametrize("params", [RHO6, RHO8], ids=["rho6", "rho8"])
    def test_round_trip(self, params):
        fitted, _ = fit_mooney_rivlin(make_curve(params))
        for got, want in zip(fitted.as_array(), params.as_array()):
            assert got == pytest.approx(want, rel=1e-6)

    def test_duplicated_column_rank_deficient(self):
        column = np.linspace(1.0, 2.0, 10)
        design = np.column_stack([column, column**2, column])
        with pytest.raises(RankDeficient, match="design matrix condition .* exceeds 1e\\+12"):
            least_squares(design, column)

    def test_underdetermined(self):
        curve = make_curve(RHO6, n=4)
        with pytest.raises(RankDeficient):
            fit_mooney_rivlin(curve)

    @settings(max_examples=20, deadline=None)
    @given(
        c10=st.floats(-3, 3),
        c01=st.floats(0.1, 5),
        c20=st.floats(-1, 1),
        c02=st.floats(-1, 1),
        c11=st.floats(-2, 2),
    )
    def test_round_trip_property(self, c10, c01, c20, c02, c11):
        params = MooneyRivlinParams(c10, c01, c20, c02, c11)
        if 6.0 * (c10 + c01) <= 0:
            return
        fitted, _ = fit_mooney_rivlin(make_curve(params))
        np.testing.assert_allclose(
            fitted.as_array(), params.as_array(), rtol=1e-6, atol=1e-9
        )


class TestSmallStrainModulus:
    def test_arithmetic(self):
        assert mr_small_strain_modulus(MooneyRivlinParams(1, 2, 0, 0, 0)) == 18.0

    def test_measured_rho6(self):
        assert mr_small_strain_modulus(RHO6) == pytest.approx(6.24, abs=1e-12)

    def test_rho10_nonphysical_warning(self):
        with pytest.warns(NonPhysicalWarning):
            e0 = mr_small_strain_modulus(RHO10)
        assert e0 == pytest.approx(-2.1, abs=1e-12)


class TestCurveValidation:
    def test_strains_must_increase(self):
        with pytest.raises(ValueError):
            StressStrainCurve(((0.0, 0.0), (0.1, 1e5), (0.1, 2e5)))

    def test_zero_strain_needs_zero_stress(self):
        with pytest.raises(ValueError):
            StressStrainCurve(((0.0, 1e5), (0.1, 2e5)))
