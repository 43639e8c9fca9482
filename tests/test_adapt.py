"""Pipe wrap kinematics, contact pressure, and attachment feasibility."""

import math

import pytest
from hypothesis import given
from hypothesis import strategies as st

from softarm.adapt import (
    ATTACH_PRESSURE_MIN,
    BENDABLE_INFILL_MAX_PCT,
    AttachmentVerdict,
    PipeSpec,
    attach_check,
    contact_pressure,
    recommend_infill,
    wrap_geometry,
)
from softarm.beam import ArmGeometry, Segment
from softarm.cli import default_data_dir
from softarm.deflection import DeflectionModelCoeffs
from softarm.errors import ChordTooLong, EmptyRange, ZeroArea
from softarm.io import read_arm_geometry_json, read_deflection_coeffs_json

MEASURED = read_deflection_coeffs_json(default_data_dir() / "deflection_coeffs.json")


def fold_arm(lengths=(0.035, 0.040, 0.045, 0.055), angles=(36.0, 27.0, 19.0, 13.0)):
    return ArmGeometry(
        segments=tuple(Segment(a, l) for a, l in zip(angles, lengths)),
        section_inertia=(5e-8,) * len(lengths),
        section_half_depth=0.015,
    )


class TestWrapGeometry:
    def test_total_turning_budget(self):
        result = wrap_geometry(fold_arm(), PipeSpec(diameter=0.2))
        assert result.total_turning == pytest.approx(95.0, abs=1e-12)

    def test_first_segment_subtended_angle(self):
        result = wrap_geometry(fold_arm(), PipeSpec(diameter=0.2))
        expected = math.degrees(2.0 * math.asin(0.035 / 0.2))
        assert result.per_segment_subtended[0] == pytest.approx(expected, rel=1e-12)
        assert result.per_segment_subtended[0] == pytest.approx(20.157, abs=5e-3)

    def test_chord_equal_to_diameter_subtends_half_circle(self):
        geom = fold_arm(lengths=(0.2,), angles=(0.0,))
        result = wrap_geometry(geom, PipeSpec(diameter=0.2))
        assert result.per_segment_subtended[0] == pytest.approx(180.0, rel=1e-9)
        assert result.max_gap == pytest.approx(0.1, rel=1e-9)  # sagitta = radius

    def test_chord_longer_than_diameter(self):
        with pytest.raises(ChordTooLong):
            wrap_geometry(fold_arm(), PipeSpec(diameter=0.054))

    def test_coverage_capped_at_one(self):
        geom = fold_arm(lengths=(0.19, 0.19, 0.19), angles=(0.0, 0.0, 0.0))
        result = wrap_geometry(geom, PipeSpec(diameter=0.2))
        assert result.coverage_ratio == 1.0

    @given(d=st.floats(0.2, 2.0), scale=st.floats(1.01, 5.0))
    def test_coverage_decreases_with_diameter(self, d, scale):
        geom = fold_arm()
        small = wrap_geometry(geom, PipeSpec(diameter=d))
        large = wrap_geometry(geom, PipeSpec(diameter=d * scale))
        assert large.coverage_ratio < small.coverage_ratio
        assert large.max_gap < small.max_gap

    def test_coverage_adds_left_to_right(self):
        # Not the compensated sum() of Python 3.12 and later.
        geom = read_arm_geometry_json(default_data_dir() / "arm_geometry.json")
        assert wrap_geometry(geom, PipeSpec(diameter=0.152)).coverage_ratio == 0.3722451467774643

    def test_subtended_monotone_in_length(self):
        result = wrap_geometry(fold_arm(), PipeSpec(diameter=0.2))
        subs = result.per_segment_subtended
        assert all(b > a for a, b in zip(subs, subs[1:]))  # lengths increase


class TestContactPressure:
    def test_arithmetic(self):
        assert contact_pressure(1.0, 0.1, 0.1) == pytest.approx(100.0, rel=1e-12)

    def test_linear_in_force(self):
        p1 = contact_pressure(3.0, 0.05, 0.12)
        p2 = contact_pressure(6.0, 0.05, 0.12)
        assert p2 == pytest.approx(2.0 * p1, rel=1e-12)

    def test_zero_area(self):
        with pytest.raises(ZeroArea):
            contact_pressure(1.0, 0.0, 0.1)
        with pytest.raises(ZeroArea):
            contact_pressure(1.0, 0.1, -0.1)

    def test_negative_force_rejected_zero_allowed(self):
        with pytest.raises(ValueError, match="tendon_force must be >= 0"):
            contact_pressure(-5.0, 0.05, 0.175)
        assert contact_pressure(0.0, 0.05, 0.175) == 0.0


class TestAttachCheck:
    @pytest.mark.parametrize(
        "infill, pressure, bendable, attached",
        [
            (10.0, 1200.0, True, True),
            (6.0, 999.0, True, False),
            (16.0, 5000.0, False, False),
            (14.9, 1000.0, True, True),   # pressure threshold is inclusive
            (15.0, 5000.0, False, False),  # infill limit is exclusive
        ],
    )
    def test_truth_table(self, infill, pressure, bendable, attached):
        verdict = attach_check(infill, pressure)
        assert verdict.bendable is bendable
        assert verdict.attached is attached
        assert verdict.pressure == pressure

    def test_verdict_invariant_enforced(self):
        with pytest.raises(ValueError):
            AttachmentVerdict(bendable=False, pressure=5000.0, attached=True)
        with pytest.raises(ValueError):
            AttachmentVerdict(bendable=True, pressure=10.0, attached=True)

    def test_constants(self):
        assert BENDABLE_INFILL_MAX_PCT == 15.0
        assert ATTACH_PRESSURE_MIN == 1000.0


class TestRecommendInfill:
    def test_contains_measured_optimum(self):
        lo, hi = recommend_infill(MEASURED)
        assert lo <= 6.0 and hi >= 8.0
        assert hi < BENDABLE_INFILL_MAX_PCT

    def test_range_excludes_nonlinear_regime(self):
        lo, _ = recommend_infill(MEASURED)
        assert lo >= 5.0

    def test_oversensitive_response_empty(self):
        # 2 deg per throttle unit hits 20 deg at full throttle for every infill.
        steep = DeflectionModelCoeffs(2.0, 0.0, 0.0, 0.0)
        with pytest.raises(EmptyRange):
            recommend_infill(steep)
