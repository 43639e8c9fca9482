"""Planar large-deflection (elastica) solver for the segmented soft arm.

The arm is a clamped rod loaded by a follower thrust at the motor
station, distributed weight, and tendon point moments at the fold
stations. Geometry is piecewise constant per segment; integration is
fixed-step RK4. Marching inward from the free tip, where the bending
moment vanishes and the outboard force is known, leaves the tip angle as
the only unknown, which is shot on until the root angle meets the clamp:
first on a coarse predictor mesh, then, from the predicted tip angle, on
the requested mesh. The shape, the requested-mesh march at the accepted
tip angle with x and z, is marched again when first read; the solver
counters leave that march out, and == on solutions does not compare shapes.
Coordinates: x horizontal, z up, theta measured from horizontal
(positive = tip up).
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass, field, replace
from functools import cached_property, reduce

from .errors import NoConvergence, NonPhysicalMaterial, require_finite
from .material import MooneyRivlinParams

GRAVITY = 9.81
PREDICTOR_STEPS = 8  # RK4 steps per segment length of the predictor mesh
SHOOTING_MARCHES = 40  # marches per mesh before the shooting gives up


@dataclass(frozen=True)
class Segment:
    """One fold of the arm's lower surface: inclination [deg] and length [m]."""

    fold_angle_deg: float
    length: float

    def __post_init__(self):
        require_finite(**vars(self))
        if self.length <= 0:
            raise ValueError("segment length must be > 0")


@dataclass(frozen=True)
class ArmGeometry:
    """Segmented arm geometry.

    section_inertia: second moment of area per segment [m^4] (piecewise
    constant along the arc length). motor_station is the normalized
    position x/c of the motor in (0, 1].
    """

    segments: tuple[Segment, ...]
    section_inertia: tuple[float, ...]
    section_half_depth: float
    initial_droop_deg: float = 0.0
    motor_station: float = 1.0
    linear_density: float = 0.0

    def __post_init__(self):
        object.__setattr__(self, "segments", tuple(self.segments))
        object.__setattr__(self, "section_inertia", tuple(self.section_inertia))
        require_finite(**{k: v for k, v in vars(self).items() if k != "segments"})
        if not 1 <= len(self.segments) <= 8:
            raise ValueError("segment count must be in [1, 8]")
        if len(self.section_inertia) != len(self.segments):
            raise ValueError("one inertia value per segment is required")
        if any(i <= 0 for i in self.section_inertia):
            raise ValueError("section inertia must be > 0")
        if not 0.0 < self.motor_station <= 1.0:
            raise ValueError("motor_station must be in (0, 1]")
        if self.section_half_depth <= 0:
            raise ValueError("section_half_depth must be > 0")
        if self.linear_density < 0:
            raise ValueError("linear_density must be >= 0")

    @property
    def total_length(self) -> float:
        return self.segment_bounds[-1]

    @property
    def segment_bounds(self) -> tuple[float, ...]:
        """Cumulative arc-length boundaries, root 0 through the tip."""
        bounds = [0.0]
        for seg in self.segments:
            bounds.append(bounds[-1] + seg.length)
        return tuple(bounds)

    @property
    def total_turning_deg(self) -> float:
        # Left to right, not sum(): from Python 3.12 sum() compensates floats.
        return reduce(operator.add, (seg.fold_angle_deg for seg in self.segments), 0)

    def inertia_at(self, s: float) -> float:
        bounds = self.segment_bounds
        for i in range(len(self.segments)):
            if s < bounds[i + 1]:
                return self.section_inertia[i]
        return self.section_inertia[-1]


@dataclass(frozen=True)
class LoadCase:
    """External loads on the arm.

    thrust: follower force [N] normal to the local tangent at the motor
    station (positive pushes the arm up). gravity: acceleration magnitude
    along -z [m/s^2]. Tendon tension acts as point moments
    -tension*eccentricity at every interior fold. point_moments are extra
    (arc_length [m], moment [N m]) pairs for constructed load cases.
    """

    thrust: float = 0.0
    gravity: float = GRAVITY
    tendon_tension: float = 0.0
    tendon_eccentricity: float = 0.0
    point_moments: tuple[tuple[float, float], ...] = ()

    def __post_init__(self):
        object.__setattr__(self, "point_moments", tuple(tuple(p) for p in self.point_moments))
        require_finite(**vars(self))
        if self.thrust < 0:
            raise ValueError("thrust must be >= 0")
        if self.tendon_tension < 0:
            raise ValueError("tendon_tension must be >= 0")


@dataclass(frozen=True)
class SolverSettings:
    """Solver knobs. integration_steps is the number of RK4 steps per
    segment length of the mesh of the returned shape. shooting_tolerance
    bounds the root-angle defect [rad] of the returned shape."""

    integration_steps: int = 256
    shooting_tolerance: float = 1e-9

    def __post_init__(self):
        require_finite(**vars(self))
        if self.integration_steps < 16:
            raise ValueError("integration_steps must be >= 16")
        if self.shooting_tolerance <= 0:
            raise ValueError("shooting_tolerance must be > 0")


@dataclass(frozen=True)
class BeamSolution:
    """Solved centerline shape and bending moments.

    history: the rows (s, x, z, theta, M) of the march at the accepted tip
    angle, tip to root, x and z from the tip, marched again bit for bit from
    its arguments, plan, on first read; station_count is its length, known
    without marching. stations: array of shape (n, 4) with columns
    (s, x, z, theta), root to tip, the root at the origin. moments: bending
    moment [N m] at each station; the tip moment is 0. Both arrays are built
    on first access, so a caller that reads only tip_angle_deg never marches
    again or imports numpy. residual is the root-angle defect [rad] of the
    shape, at most the shooting tolerance; integrations counts the RK4
    marches of the solve and steps their RK4 steps, on both meshes, not the
    march on first read. == ignores plan, so it does not compare shapes.
    """

    tip_angle_deg: float
    residual: float
    integrations: int
    steps: int
    plan: tuple = field(repr=False, compare=False)
    contact_expected: bool = False

    @cached_property
    def history(self) -> list[tuple[float, float, float, float, float]]:
        _march(*self.plan, rows := [])
        return rows

    @property
    def station_count(self) -> int:
        return 1 + sum(p[3] + (p[4] is not None) for p in self.plan[0])

    @cached_property
    def stations(self) -> np.ndarray:
        import numpy as np

        stations = np.array([row[:4] for row in reversed(self.history)])
        stations[:, 1:3] -= stations[0, 1:3]  # the root sits at the origin
        return stations

    @cached_property
    def moments(self) -> np.ndarray:
        import numpy as np

        return np.array([row[4] for row in reversed(self.history)])

    @property
    def s(self) -> np.ndarray:
        return self.stations[:, 0]

    @property
    def x(self) -> np.ndarray:
        return self.stations[:, 1]

    @property
    def z(self) -> np.ndarray:
        return self.stations[:, 2]

    @property
    def theta(self) -> np.ndarray:
        return self.stations[:, 3]


def effective_modulus(material) -> float:
    """Constant Young's modulus [Pa] used by the solver for a material input."""
    if isinstance(material, MooneyRivlinParams):
        e = 6.0 * (material.c10 + material.c01) * 1e6
    elif isinstance(material, (int, float)):
        require_finite(material=material)
        e = float(material)
    else:
        raise TypeError(f"unsupported material type {type(material)!r}")
    if e <= 0:
        raise NonPhysicalMaterial(f"effective modulus {e:.4g} Pa is not positive")
    return e


def _panel_plan(geometry: ArmGeometry, loads: LoadCase, steps: int, e_modulus: float):
    """Panels between consecutive cuts (segment ends, the motor station,
    point-moment stations), root to tip, as (a, b, EI, n, jump, motor)
    tuples with about `steps` RK4 steps per segment length: jump is the
    point moment [N m] applied at b (tendon and point_moments), None when
    there is none, and motor is whether b is the motor station. A moment at
    s = 0 ends no panel; the clamp absorbs it. Every mesh has the same cuts,
    so the marches on any two meshes meet at the same stations."""
    length = geometry.total_length
    s_motor = geometry.motor_station * length
    bounds = geometry.segment_bounds
    jumps: dict[float, float] = {}
    if loads.tendon_tension > 0 and loads.tendon_eccentricity != 0:
        m_tendon = -loads.tendon_tension * loads.tendon_eccentricity
        for s_f in bounds[1:-1]:
            jumps[s_f] = jumps.get(s_f, 0.0) + m_tendon
    for s_f, m in loads.point_moments:
        if not 0.0 <= s_f <= length:
            raise ValueError(f"point moment at s = {s_f} m is off the arm, "
                             f"which spans [0, {length}] m")
        jumps[s_f] = jumps.get(s_f, 0.0) + m
    cuts = sorted(set(bounds) | {s_motor} | set(jumps))
    seg_len = length / len(geometry.segments)
    panels = []
    for a, b in zip(cuts[:-1], cuts[1:]):
        # Panels never cross a segment boundary, so inertia is constant here.
        ei = e_modulus * geometry.inertia_at(0.5 * (a + b))
        n = max(2, int(math.ceil(steps * (b - a) / seg_len)))
        panels.append((a, b, ei, n, jumps.get(b), b == s_motor))
    return panels


def _march(panels, thrust: float, w_z: float, length: float, theta_tip: float,
           history: list | None = None) -> float:
    """RK4 march of (theta, M) from the free tip, where M = 0, to the root,
    panel by panel: on reaching a panel's outboard end it adds the panel's
    point moment and, at the motor station, fixes the thrust direction.
    The force resultant outboard of s is the weight beyond s plus, inboard
    of the motor station, the thrust. Given a history list, the march also
    integrates x and z from the tip and appends one row (s, x, z, theta, M)
    per step plus one after each point moment. Returns theta(0). A march
    that does not record skips the sines where the horizontal force rx is
    0 (no thrust, or outboard of the motor station), bit for bit: s * rx is
    +-0, +-0 - q differs from -q only in the sign of a zero, and M starts
    at +0, which no sum turns into -0."""
    cos, sin = math.cos, math.sin
    theta, m, x, z = theta_tip, 0.0, 0.0, 0.0
    record = history is not None
    if record:
        history.append((length, x, z, theta, m))
    rx = tz = 0.0
    for a, b, ei, n, jump, motor in reversed(panels):
        if jump is not None:
            m += jump
            if record:
                history.append((b, x, z, theta, m))
        if motor:
            rx = -thrust * sin(theta)
            tz = thrust * cos(theta)
        h = (b - a) / n
        half, h6 = 0.5 * h, h / 6.0
        s = b
        rz1 = w_z * (length - s) + tz
        if not rx and not record:
            for _ in range(n):
                rz2 = w_z * (length - (s - half)) + tz
                rz4 = w_z * (length - (s - h)) + tz
                k1t = m / ei
                k1m = -cos(theta) * rz1
                t, mm = theta - half * k1t, m - half * k1m
                k2t = mm / ei
                k2m = -cos(t) * rz2
                t, mm = theta - half * k2t, m - half * k2m
                k3t = mm / ei
                k3m = -cos(t) * rz2
                t, mm = theta - h * k3t, m - h * k3m
                k4t = mm / ei
                k4m = -cos(t) * rz4
                theta -= h6 * (k1t + 2.0 * k2t + 2.0 * k3t + k4t)
                m -= h6 * (k1m + 2.0 * k2m + 2.0 * k3m + k4m)
                s -= h
                rz1 = rz4  # s -= h gives the float that rz4 was built from
            continue
        for _ in range(n):
            rz2 = w_z * (length - (s - half)) + tz
            rz4 = w_z * (length - (s - h)) + tz
            c1, s1 = cos(theta), sin(theta)
            k1t = m / ei
            k1m = s1 * rx - c1 * rz1
            t, mm = theta - half * k1t, m - half * k1m
            c2, s2 = cos(t), sin(t)
            k2t = mm / ei
            k2m = s2 * rx - c2 * rz2
            t, mm = theta - half * k2t, m - half * k2m
            c3, s3 = cos(t), sin(t)
            k3t = mm / ei
            k3m = s3 * rx - c3 * rz2
            t, mm = theta - h * k3t, m - h * k3m
            c4, s4 = cos(t), sin(t)
            k4t = mm / ei
            k4m = s4 * rx - c4 * rz4
            theta -= h6 * (k1t + 2.0 * k2t + 2.0 * k3t + k4t)
            m -= h6 * (k1m + 2.0 * k2m + 2.0 * k3m + k4m)
            s -= h
            rz1 = rz4
            if record:
                x -= h6 * (c1 + 2.0 * c2 + 2.0 * c3 + c4)
                z -= h6 * (s1 + 2.0 * s2 + 2.0 * s3 + s4)
                history.append((s, x, z, theta, m))
        if record:
            history[-1] = (a, x, z, theta, m)  # the panel ends exactly on its cut
    return theta


def solve_elastica(
    geometry: ArmGeometry,
    material,
    loads: LoadCase,
    settings: SolverSettings | None = None,
) -> BeamSolution:
    """Solve the clamped-root free-tip elastica for the given loads by
    shooting on the tip angle, first on a predictor mesh, then on the
    requested mesh; the shape is the march at the accepted tip angle, made
    again on first read. Raises NoConvergence when the shooting on either
    mesh misses the tolerance within SHOOTING_MARCHES marches."""
    settings = settings or SolverSettings()
    e_modulus = effective_modulus(material)
    length = geometry.total_length
    w_z = -geometry.linear_density * loads.gravity  # weight per unit length
    theta_root = -math.radians(geometry.initial_droop_deg)
    integrations = steps = 0
    theta_tip = theta_root  # the straight arm seeds the predictor
    defect = None  # of the latest march

    for mesh_steps in (PREDICTOR_STEPS, settings.integration_steps):
        panels = _panel_plan(geometry, loads, mesh_steps, e_modulus)
        march_steps = sum(panel[3] for panel in panels)

        def root_defect(theta_tip: float) -> float:
            nonlocal integrations, steps, defect
            integrations += 1
            steps += march_steps
            defect = _march(panels, loads.thrust, w_z, length, theta_tip) - theta_root
            return defect

        theta_tip = _shoot(root_defect, theta_tip, settings.shooting_tolerance)

    return BeamSolution(
        tip_angle_deg=math.degrees(theta_tip),
        residual=abs(defect),  # _shoot returns the tip angle it marched last
        integrations=integrations,
        steps=steps,
        plan=(panels, loads.thrust, w_z, length, theta_tip),
    )


def _shoot(f, guess: float, tol: float) -> float:
    """Root of f (root-angle defect as a function of the tip angle, both in
    radians), which is always the last point f was evaluated at.

    Secant steps through `same`, the previous point of the latest point's
    sign, clipped to 10 rad, until f changes sign (before that every point
    has one sign, so `same` is the previous point); then false position
    inside the bracket of the latest point of each sign, or its midpoint
    when the false-position point is not strictly inside or the last step
    did not reduce |f| on its side. One loop of at most SHOOTING_MARCHES
    evaluations.
    """
    neg = pos = None  # the latest (x, f(x)) with f < 0 and with f > 0
    x = guess
    for _ in range(SHOOTING_MARCHES):
        fx = f(x)
        if abs(fx) <= tol:
            return x
        if fx < 0:
            same, neg = neg, (x, fx)
        else:
            same, pos = pos, (x, fx)
        if neg is None or pos is None:
            if same is None:
                step = 0.01 if fx < 0 else -0.01
            elif fx == same[1]:
                break
            else:
                step = max(-10.0, min(10.0, -fx * (x - same[0]) / (fx - same[1])))
            x += step
            continue
        (xa, fa), (xb, fb) = neg, pos
        x = xa - fa * (xb - xa) / (fb - fa)
        if not min(xa, xb) < x < max(xa, xb) or (same and abs(fx) >= abs(same[1])):
            x = 0.5 * (xa + xb)
    raise NoConvergence("the tip angle did not reach the shooting tolerance")


def max_stress_station(solution: BeamSolution, geometry: ArmGeometry) -> float:
    """Arc length [m] of the maximum outer-fiber bending stress proxy
    sigma(s) = |M(s)| c / I(s). Ties (e.g. an unloaded arm) resolve to the
    root by convention."""
    half_depth = geometry.section_half_depth
    worst_sigma, worst_s = 0.0, 0.0
    for s, _, _, _, m in reversed(solution.history):  # root to tip
        sigma = abs(m) * half_depth / geometry.inertia_at(s)
        if sigma > worst_sigma:
            worst_sigma, worst_s = sigma, s
    return float(worst_s)


def tendon_bend(geometry: ArmGeometry, material, tension: float,
                eccentricity: float) -> BeamSolution:
    """Arm shape under tendon tension alone (no thrust, no weight beyond
    the configured gravity). Flags contact_expected when the total turning
    exceeds the fold budget plus a quarter turn."""
    loads = LoadCase(thrust=0.0, tendon_tension=tension, tendon_eccentricity=eccentricity)
    solution = solve_elastica(geometry, material, loads)
    turning = abs(solution.tip_angle_deg + geometry.initial_droop_deg)
    if turning > geometry.total_turning_deg + 90.0:
        solution = replace(solution, contact_expected=True)
    return solution
