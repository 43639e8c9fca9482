"""Planar large-deflection (elastica) solver for the segmented soft arm.

The arm is a clamped rod loaded by a follower thrust at the motor
station, distributed weight, and point moments, such as the tendon's at
the folds. Geometry is piecewise constant per segment; integration is a
fixed-step Runge-Kutta-Nystrom method of order 4 (see _march). Marching
inward from the free tip, where the bending moment vanishes and the
outboard force is known, leaves the tip angle as the only unknown, which
is shot on until the root angle meets the clamp, on a ladder of meshes of
4, 8, 16, ... steps per segment length up to the requested mesh (see
solve_elastica). The shape, the requested-mesh march at the accepted tip
angle with x and z, is marched when first read; the solver counters leave
that march out, and == on solutions does not compare shapes.
Coordinates: x horizontal, z up, theta measured from horizontal
(positive = tip up).
"""

from __future__ import annotations

import math
import operator
from functools import cached_property, reduce
from types import SimpleNamespace

from .errors import NoConvergence, NonPhysicalMaterial, _Record, require_finite
from .material import MooneyRivlinParams, mr_small_strain_modulus

GRAVITY = 9.81
PREDICTOR_STEPS = 4  # steps per segment length of the ladder's first rung
SHOOTING_MARCHES = 40  # marches per rung before the shooting gives up


class Segment(_Record, finite=True):
    """One fold of the arm's lower surface: inclination [deg] and length [m]."""

    fold_angle_deg: float
    length: float

    def __post_init__(self):
        if self.length <= 0:
            raise ValueError("segment length must be > 0")


class ArmGeometry(_Record):
    """Segmented arm geometry.

    section_inertia: second moment of area per segment [m^4] (piecewise
    constant along the arc length). initial_droop_deg: the root's angle
    below horizontal [deg], in (-90, 90). motor_station is the normalized
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
        if not -90.0 < self.initial_droop_deg < 90.0:
            raise ValueError(
                f"initial_droop_deg must be in (-90, 90), got {self.initial_droop_deg}")
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


# Only for perfbench (workloads.py:147, make_reference.py:67), which calls
# dataclasses.replace(geometry, ...): on Python 3.10-3.13 that reads just this
# private attribute of dataclasses, and each field's name, init and
# _field_type. dataclasses.fields and dataclasses.asdict see no field through
# it; use .replace() and .asdict().
ArmGeometry.__dataclass_fields__ = {
    name: SimpleNamespace(name=name, init=True, _field_type=None) for name in ArmGeometry._fields}


class LoadCase(_Record):
    """External loads on the arm.

    thrust: follower force [N] normal to the local tangent at the motor
    station (positive pushes the arm up). gravity: acceleration magnitude
    along -z [m/s^2]. point_moments: (arc_length [m], moment [N m]) pairs,
    such as the tendon's at the folds (see tendon_bend).
    """

    thrust: float = 0.0
    gravity: float = GRAVITY
    point_moments: tuple[tuple[float, float], ...] = ()

    def __post_init__(self):
        object.__setattr__(self, "point_moments", tuple(tuple(p) for p in self.point_moments))
        require_finite(**vars(self))
        if self.thrust < 0:
            raise ValueError("thrust must be >= 0")


class SolverSettings(_Record, finite=True):
    """Solver knobs. integration_steps is the number of march steps per
    segment length of the mesh of the returned shape and of the ladder's
    top rung. shooting_tolerance bounds the root-angle defect [rad] of the
    accepted rung's march."""

    integration_steps: int = 256
    shooting_tolerance: float = 1e-9

    def __post_init__(self):
        if self.integration_steps < 16:
            raise ValueError("integration_steps must be >= 16")
        if self.shooting_tolerance <= 0:
            raise ValueError("shooting_tolerance must be > 0")


class BeamSolution(_Record, hidden=("plan",)):
    """Solved centerline shape and bending moments.

    history: the rows (s, x, z, theta, M) of the march on the
    integration_steps mesh at the accepted tip angle, tip to root, x and z
    from the tip, marched from its arguments, plan, on first read;
    station_count is its length, known without marching. stations: array
    of shape (n, 4) with columns (s, x, z, theta), root to tip, the root at
    the origin; column k is stations[:, k]. moments: bending moment [N m] at
    each station, 0 at the tip. Both arrays are built on first access, so a
    caller that reads only tip_angle_deg never marches again or imports numpy.
    mesh_steps is the march steps per segment length of the accepted rung,
    and residual the root-angle defect [rad] of its march at the accepted
    tip angle, at most the shooting tolerance; the shape's own root defect
    equals it when mesh_steps is integration_steps. integrations counts the
    marches of the solve and steps the steps they take, three force
    evaluations each, on every rung, not the march on first read. ==
    ignores plan, so it does not compare shapes.
    """

    tip_angle_deg: float
    residual: float
    integrations: int
    steps: int
    mesh_steps: int
    plan: tuple
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


def effective_modulus(material) -> float:
    """Constant Young's modulus [Pa] used by the solver for a material input."""
    if isinstance(material, MooneyRivlinParams):
        e = mr_small_strain_modulus(material) * 1e6
    elif isinstance(material, (int, float)):
        require_finite(material=material)
        e = float(material)
    else:
        raise TypeError(f"unsupported material type {type(material)!r}")
    if e <= 0:
        raise NonPhysicalMaterial(f"effective modulus {e:.4g} Pa is not positive")
    return e


def _panel_plan(geometry: ArmGeometry, loads: LoadCase, e_modulus: float):
    """Panels between consecutive cuts (segment ends, the motor station,
    point-moment stations), root to tip, as (a, b, EI, seg_len, jump, motor)
    tuples: seg_len is the mean segment length, which _mesh divides into
    march steps, jump is the sum of the point moments [N m] applied at b,
    None when there is none, and motor is whether b is the motor station.
    A moment at s = 0 ends no panel; the clamp absorbs it. Every mesh has
    the same cuts, so the marches on any two meshes meet at the same
    stations."""
    bounds = geometry.segment_bounds
    length = bounds[-1]
    s_motor = geometry.motor_station * length
    jumps: dict[float, float] = {}
    for s_f, m in loads.point_moments:
        if not 0.0 <= s_f <= length:
            raise ValueError(f"point moment at s = {s_f} m is off the arm, "
                             f"which spans [0, {length}] m")
        jumps[s_f] = jumps.get(s_f, 0.0) + m
    cuts = sorted(set(bounds) | {s_motor} | set(jumps))
    seg_len = length / len(geometry.segments)
    # Panels never cross a segment boundary, so inertia is constant on each:
    # that of segment i, the first whose end lies past the midpoint (inertia_at).
    inertia = geometry.section_inertia
    last, i, plan = len(inertia) - 1, 0, []
    for a, b in zip(cuts[:-1], cuts[1:]):
        while i < last and not 0.5 * (a + b) < bounds[i + 1]:
            i += 1
        plan.append((a, b, e_modulus * inertia[i], seg_len, jumps.get(b), b == s_motor))
    return plan


def _mesh(plan, steps: int):
    """The plan's panels as (a, b, EI, n, jump, motor), with n march steps,
    about `steps` per segment length."""
    return [(a, b, ei, max(2, int(math.ceil(steps * (b - a) / seg_len))), jump, motor)
            for a, b, ei, seg_len, jump, motor in plan]


def _march(panels, thrust: float, w_z: float, length: float, theta_tip: float,
           history: list | None = None) -> float:
    """March of (theta, M) from the free tip, where M = 0, to the root,
    panel by panel: on reaching a panel's outboard end it adds the panel's
    point moment and, at the motor station, fixes the thrust direction.
    The force resultant outboard of s is the weight beyond s plus, inboard
    of the motor station, the thrust. theta'' = F/EI with F = M' =
    sin(theta) rx - cos(theta) rz(s) does not depend on theta' = M/EI, so
    each step is the three-stage Runge-Kutta-Nystrom step of order 4, three
    evaluations of F (Hairer, Norsett & Wanner, Solving ODEs I, II.14).
    Given a history list, the march also integrates x and z from the tip by
    Simpson's rule, at the cubic-Hermite midpoint angle from theta and M at
    both ends, and appends one row (s, x, z, theta, M) per step plus one
    after each point moment. Returns theta(0); raises ValueError when an
    overflow makes an angle infinite or NaN. A march that does not record
    skips the sines where the horizontal force rx is 0 (no thrust, or
    outboard of the motor station), with the same floats but for the sign
    of a zero F or theta: s * rx is +-0, and +-0 - q differs from -q only
    in the sign of a zero; M starts at +0, which no sum turns into -0."""
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
        half, h6, g = 0.5 * h, h / 6.0, h / ei
        q = h * g  # h^2 / EI
        q8, q2, q6 = 0.125 * q, 0.5 * q, q / 6.0
        s = b
        rz1 = w_z * (length - s) + tz
        if not rx and not record:
            for _ in range(n):
                rz2 = w_z * (length - (s - half)) + tz
                rz3 = w_z * (length - (s - h)) + tz
                d = g * m  # h M / EI
                f1 = -cos(theta) * rz1
                f2 = -cos(theta - 0.5 * d + q8 * f1) * rz2
                f3 = -cos(theta - d + q2 * f2) * rz3
                theta += q6 * (f1 + 2.0 * f2) - d
                m -= h6 * (f1 + 4.0 * f2 + f3)
                s -= h
                rz1 = rz3  # s -= h gives the float that rz3 was built from
            continue
        for _ in range(n):
            rz2 = w_z * (length - (s - half)) + tz
            rz3 = w_z * (length - (s - h)) + tz
            d = g * m
            c1, s1 = cos(theta), sin(theta)
            f1 = s1 * rx - c1 * rz1
            t = theta - 0.5 * d + q8 * f1
            f2 = sin(t) * rx - cos(t) * rz2
            t = theta - d + q2 * f2
            f3 = sin(t) * rx - cos(t) * rz3
            t0, m0 = theta, m
            theta += q6 * (f1 + 2.0 * f2) - d
            m -= h6 * (f1 + 4.0 * f2 + f3)
            s -= h
            rz1 = rz3
            if record:
                t = 0.5 * (t0 + theta) - 0.125 * g * (m0 - m)  # the angle at s + h/2
                x -= h6 * (c1 + 4.0 * cos(t) + cos(theta))
                z -= h6 * (s1 + 4.0 * sin(t) + sin(theta))
                history.append((s, x, z, theta, m))
        if record:
            history[-1] = (a, x, z, theta, m)  # the panel ends exactly on its cut
    if not math.isfinite(theta):  # an overflow that no cos or sin raised on
        raise ValueError(f"theta(0) = {theta}")
    return theta


def solve_elastica(
    geometry: ArmGeometry,
    material,
    loads: LoadCase,
    settings: SolverSettings | None = None,
) -> BeamSolution:
    """Solve the clamped-root free-tip elastica for the given loads by
    shooting on the tip angle up a ladder of meshes, PREDICTOR_STEPS steps
    per segment length doubled up to integration_steps, each rung from the
    angle of the one below. A rung above the first whose first march meets
    the tolerance (the angle of the rung below holds on twice the mesh), or
    the top rung once shot, is accepted. A rung below the top whose shooting
    misses the tolerance within SHOOTING_MARCHES marches hands the solve to
    the next rung, shot again from the straight arm; its marches still
    count. The shape is the requested-mesh march at the accepted tip angle,
    made on first read. Raises NoConvergence when the shooting on the top
    rung misses the tolerance, and ValueError naming the arm length, the
    smallest EI and the loads when a march overflows."""
    settings = settings or SolverSettings()
    e_modulus = effective_modulus(material)
    length = geometry.total_length
    w_z = -geometry.linear_density * loads.gravity  # weight per unit length
    theta_root = -math.radians(geometry.initial_droop_deg)
    plan = _panel_plan(geometry, loads, e_modulus)
    integrations = steps = 0
    theta_tip = theta_root  # the straight arm seeds the first rung
    mesh_steps = PREDICTOR_STEPS
    while True:
        panels = _mesh(plan, mesh_steps)
        try:
            theta_tip, defect, n = _shoot(
                lambda tip: _march(panels, loads.thrust, w_z, length, tip) - theta_root,
                theta_tip, settings.shooting_tolerance)
        except ValueError:  # cos or sin of an infinite angle, or a non-finite theta(0)
            raise ValueError(
                f"arm length {length} m, smallest EI {min(p[2] for p in plan)} N m^2 and "
                f"loads {loads} put the elastica out of float range") from None
        integrations += n
        steps += n * sum(panel[3] for panel in panels)
        if not abs(defect) <= settings.shooting_tolerance:  # a NaN defect misses too
            if mesh_steps == settings.integration_steps:
                raise NoConvergence("the tip angle did not reach the shooting tolerance")
            theta_tip = theta_root  # the next rung starts again from the straight arm
        elif mesh_steps == settings.integration_steps or (mesh_steps > PREDICTOR_STEPS and n == 1):
            break
        mesh_steps = min(2 * mesh_steps, settings.integration_steps)

    return BeamSolution(
        tip_angle_deg=math.degrees(theta_tip),
        residual=abs(defect),
        integrations=integrations,
        steps=steps,
        mesh_steps=mesh_steps,
        plan=(_mesh(plan, settings.integration_steps), loads.thrust, w_z, length, theta_tip),
    )


def _shoot(f, guess: float, tol: float) -> tuple[float, float, int]:
    """Root x of f (root-angle defect as a function of the tip angle, both
    in radians), as (x, f(x), evaluations of f): the first point with
    |f(x)| <= tol, or the last point evaluated when the shooting gives up.

    The first step is -f: the secant step for a unit slope. The root angle
    follows the tip angle one for one where the bending moment does not
    depend on the shape (point moments alone), and nearly so while the
    forces bend the arm little; the secant corrects the slope after one
    march. Then secant steps through `same`, the previous point of the
    latest point's sign, until f changes sign (before that every point has
    one sign, so `same` is the previous point). Every step so far is
    clipped to 10 rad and moves x by at least one float. Then false position
    inside the bracket of the latest point of each sign, or its midpoint
    when the false-position point is not strictly inside or the last step
    did not reduce |f| on its side. One loop of at most SHOOTING_MARCHES
    evaluations; a flat secant ends it early.
    """
    neg = pos = None  # the latest (x, f(x)) with f < 0 and with f > 0
    x = guess
    for evaluations in range(1, SHOOTING_MARCHES + 1):
        fx = f(x)
        if abs(fx) <= tol or evaluations == SHOOTING_MARCHES:
            break
        if fx < 0:
            same, neg = neg, (x, fx)
        else:
            same, pos = pos, (x, fx)
        if neg is None or pos is None:
            if same is None:
                step = max(-10.0, min(10.0, -fx))
            elif fx == same[1]:
                break
            else:
                step = max(-10.0, min(10.0, -fx * (x - same[0]) / (fx - same[1])))
            if x + step == x:  # less than half a float step: take a whole one
                x = math.nextafter(x, math.copysign(math.inf, step))
            else:
                x += step
            continue
        (xa, fa), (xb, fb) = neg, pos
        x = xa - fa * (xb - xa) / (fb - fa)
        if not min(xa, xb) < x < max(xa, xb) or (same and abs(fx) >= abs(same[1])):
            x = 0.5 * (xa + xb)
    return x, fx, evaluations


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
    """Arm shape under its weight and a tendon, no thrust: a point moment
    -tension*eccentricity [N m] on each interior fold. Flags contact_expected
    when the total turning exceeds the fold budget plus a quarter turn."""
    require_finite(tension=tension, eccentricity=eccentricity)
    if tension < 0:
        raise ValueError(f"tension must be >= 0, got {tension}")
    folds = geometry.segment_bounds[1:-1] if tension > 0 and eccentricity != 0 else ()
    loads = LoadCase(thrust=0.0, point_moments=[(s, -tension * eccentricity) for s in folds])
    solution = solve_elastica(geometry, material, loads)
    turning = abs(solution.tip_angle_deg + geometry.initial_droop_deg)
    if turning > geometry.total_turning_deg + 90.0:
        solution = solution.replace(contact_expected=True)
    return solution
