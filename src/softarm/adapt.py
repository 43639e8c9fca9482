"""Pipe-attachment feasibility: fold-wrap kinematics, contact pressure,
and the measured bendability/adherence thresholds."""

from __future__ import annotations

import math

from .deflection import (DEFLECTION_BOUND_DEG, NONLINEAR_INFILL_PCT, DeflectionModelCoeffs,
                         _peak, require_infill)
from .errors import ChordTooLong, EmptyRange, InputError, ZeroArea, _Record, require_finite

#: Above this infill rate [%] the arm is too rigid to wrap a pipe.
BENDABLE_INFILL_MAX_PCT = 15.0

#: Minimum contact pressure [N/m^2] for reliable adherence.
ATTACH_PRESSURE_MIN = 1000.0


class PipeSpec(_Record, finite=True):
    """Target pipe, characterized by its outer diameter [m]."""

    diameter: float

    def __post_init__(self):
        if self.diameter <= 0:
            raise InputError("diameter must be > 0")


class WrapResult(_Record):
    total_turning: float
    per_segment_subtended: tuple[float, ...]
    coverage_ratio: float
    max_gap: float

    def __post_init__(self):
        if self.coverage_ratio > 1.0:
            raise ValueError("coverage_ratio must be <= 1")


class AttachmentVerdict(_Record):
    bendable: bool
    pressure: float
    attached: bool

    def __post_init__(self):
        if self.attached and not (self.bendable and self.pressure >= ATTACH_PRESSURE_MIN):
            raise ValueError("attached verdict requires bendable and sufficient pressure")


def wrap_geometry(geometry: ArmGeometry, pipe: PipeSpec) -> WrapResult:
    """Chord-on-circle wrap of the fold segments around the pipe.

    Each segment is a chord of length L_i on the pipe circle; it subtends
    2*asin(L_i/D) and stands off the circle by the sagitta at most.
    total_turning is the fold-angle budget, a pure design property
    independent of the pipe.
    """
    d = pipe.diameter
    subtended = []
    max_gap = covered = 0.0  # covered [deg] adds left to right, as sum() did before 3.12
    for i, seg in enumerate(geometry.segments):
        if seg.length > d:
            raise ChordTooLong(
                f"segment {i + 1} chord {seg.length} m exceeds pipe diameter {d} m"
            )
        angle = 2.0 * math.asin(seg.length / d)
        subtended.append(math.degrees(angle))
        covered += subtended[-1]
        sagitta = 0.5 * d * (1.0 - math.cos(0.5 * angle))
        max_gap = max(max_gap, sagitta)
    coverage = min(covered / 360.0, 1.0)
    return WrapResult(
        total_turning=geometry.total_turning_deg,
        per_segment_subtended=tuple(subtended),
        coverage_ratio=coverage,
        max_gap=max_gap,
    )


def contact_pressure(tendon_force: float, contact_width: float, contact_arc_length: float) -> float:
    """Uniform contact pressure [N/m^2] of the tendon force over the patch.
    Raises ZeroArea when the area is not positive, underflow included."""
    require_finite(tendon_force=tendon_force, contact_width=contact_width,
                   contact_arc_length=contact_arc_length)
    if tendon_force < 0:
        raise InputError(f"tendon_force must be >= 0, got {tendon_force}")
    area = contact_width * contact_arc_length
    if contact_width <= 0 or contact_arc_length <= 0 or area == 0:
        raise ZeroArea(f"contact patch {contact_width} m x {contact_arc_length} m has no area")
    pressure = tendon_force / area
    if pressure == math.inf:
        raise InputError(f"tendon_force {tendon_force} N on the {contact_width} m x "
                         f"{contact_arc_length} m contact patch overflows the pressure")
    return pressure


def attach_check(infill: float, pressure: float) -> AttachmentVerdict:
    """Attachment feasibility: bendable below BENDABLE_INFILL_MAX_PCT (exclusive),
    attached when additionally at or above ATTACH_PRESSURE_MIN."""
    require_finite(infill=infill, pressure=pressure)
    require_infill(infill=infill)
    bendable = infill < BENDABLE_INFILL_MAX_PCT
    attached = bendable and pressure >= ATTACH_PRESSURE_MIN
    return AttachmentVerdict(bendable=bendable, pressure=pressure, attached=attached)


def recommend_infill(coeffs: DeflectionModelCoeffs) -> tuple[float, float]:
    """Infill range [%] that keeps deflections within bounds, stays in the
    linear regime, and remains soft enough to wrap a pipe, scanned from 4%
    to 15% in 0.5% steps.

    For the measured deflection coefficients the returned range contains
    [6, 8].
    """
    # Every row is checked in turn, so the first whose deflection overflows raises.
    feasible = [rho for rho in (4.0 + 0.5 * i for i in range(23))
                if _peak(coeffs, rho)[0] < DEFLECTION_BOUND_DEG
                and NONLINEAR_INFILL_PCT <= rho < BENDABLE_INFILL_MAX_PCT]
    if not feasible:
        raise EmptyRange("no infill rate satisfies all feasibility constraints")
    return feasible[0], feasible[-1]
