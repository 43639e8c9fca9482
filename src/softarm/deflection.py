"""Empirical quadratic arm-deflection model and operating-envelope checks.

The deflection angle versus throttle is modeled as
alpha(T) = alpha0 + (A1 + rho*A2)*T + (B1 + rho*B2)*T^2, with rho the
infill rate in percent and T the throttle in tens-of-percent units
(T = throttle% / 10, range [0, 10]).
"""

from __future__ import annotations

import math
import sys
import warnings

from .errors import InputError, OutOfEnvelopeWarning, RankDeficient, _Record, require_finite
from .material import least_squares

#: Throttle units per percent throttle.
THROTTLE_UNIT_PER_PCT = 0.1

#: Default throttle validity range upper bound (100% throttle).
T_MAX_DEFAULT = 10.0

#: The throttles [T] of the envelope scan and of `sweep --axis throttle`:
#: 0 to T_MAX_DEFAULT in steps of 0.1, the same floats as
#: np.linspace(0, 10, 101).
THROTTLE_GRID = tuple(0.1 * i for i in range(101))

#: Flyability bound on the deflection magnitude [deg].
DEFLECTION_BOUND_DEG = 14.0

#: Below this infill rate [%] the high-throttle response turns strongly
#: nonlinear and the quadratic model is unreliable.
NONLINEAR_INFILL_PCT = 5.0


def require_infill(**values) -> None:
    """Raise ValueError naming the first infill rate [%] outside (0, 100)."""
    for name, value in values.items():
        if not 0.0 < value < 100.0:
            raise InputError(f"{name} must be in (0, 100), got {value}")


class DeflectionModelCoeffs(_Record, finite=True):
    """Quadratic model coefficients; a1/b1 in deg per T (resp. T^2), a2/b2
    additionally per percent infill. alpha0 is the unpowered droop [deg]."""

    a1: float
    a2: float
    b1: float
    b2: float
    alpha0: float = 0.0


class DeflectionSample(_Record, finite=True):
    """One measured operating point: infill [%], throttle [T], angle [deg]."""

    infill_rate: float
    throttle: float
    angle: float

    def __post_init__(self):
        if self.throttle < 0:
            raise InputError("throttle must be >= 0")
        require_infill(infill_rate=self.infill_rate)


class EnvelopeReport(_Record):
    max_abs_deflection: float
    worst_throttle: float
    nonlinear_flag: bool
    passes_14deg: bool

    def __post_init__(self):
        if self.max_abs_deflection < 0:
            raise ValueError("max_abs_deflection must be >= 0")


def eval_deflection(coeffs: DeflectionModelCoeffs, infill: float, throttle: float) -> float:
    """Arm deflection angle [deg] at the given infill and throttle."""
    require_finite(infill=infill, throttle=throttle)
    return _deflections(coeffs, infill, (throttle,))[0]


def eval_deflection_sweep(coeffs: DeflectionModelCoeffs, infill: float, throttles) -> list[float]:
    """eval_deflection at each of throttles, the same floats, warnings and
    errors, with the infill checked and the throttle coefficients
    a1 + infill*a2 and b1 + infill*b2 formed once for the sweep: first the
    infill and all the throttles checked finite, then the infill in
    (0, 100), then each throttle in turn."""
    throttles = tuple(throttles)
    require_finite(infill=infill, throttles=throttles)
    return _deflections(coeffs, infill, throttles)


def _throttle_coeffs(coeffs: DeflectionModelCoeffs, infill: float) -> tuple[float, float]:
    """The linear and quadratic throttle coefficients at an infill."""
    return coeffs.a1 + infill * coeffs.a2, coeffs.b1 + infill * coeffs.b2


def _deflections(coeffs: DeflectionModelCoeffs, infill: float, throttles: tuple) -> list[float]:
    """The deflection at each of throttles, once the arguments are checked
    finite. A warning names the line that called eval_deflection or
    eval_deflection_sweep."""
    require_infill(infill=infill)
    a_lin, b_quad = _throttle_coeffs(coeffs, infill)
    nonlinear = infill < NONLINEAR_INFILL_PCT
    alphas = []
    for throttle in throttles:
        if not 0.0 <= throttle <= T_MAX_DEFAULT:
            raise InputError(f"throttle {throttle} outside the model range [0, {T_MAX_DEFAULT}]")
        if nonlinear and throttle > 0.8 * T_MAX_DEFAULT:
            warnings.warn(
                f"infill {infill}% at throttle {throttle} is in the strongly "
                "nonlinear regime; the quadratic model underestimates deflection",
                OutOfEnvelopeWarning,
                stacklevel=3,
            )
        alpha = coeffs.alpha0 + a_lin * throttle + b_quad * throttle**2
        if not math.isfinite(alpha):
            raise InputError(f"{coeffs} overflow at infill {infill}% and throttle {throttle}")
        alphas.append(alpha)
    return alphas


def fit_deflection_coeffs(
    samples: list[DeflectionSample], alpha0: float
) -> DeflectionModelCoeffs:
    """Least-squares fit of (A1, A2, B1, B2) to measured sweeps.

    Regressors are (T, rho*T, T^2, rho*T^2) against angle - alpha0; the
    samples must cover at least two infill rates and three throttles.
    """
    import numpy as np

    if len(samples) < 4:
        raise RankDeficient("need at least 4 samples")
    rho = np.array([s.infill_rate for s in samples])
    t = np.array([s.throttle for s in samples])
    alpha = np.array([s.angle for s in samples])
    if len(set(rho)) < 2 or len(set(t)) < 3:
        raise RankDeficient("need >= 2 distinct infill rates and >= 3 distinct throttles")
    design = np.column_stack([t, rho * t, t**2, rho * t**2])
    coeffs, _, _ = least_squares(design, alpha - alpha0)
    return DeflectionModelCoeffs(*coeffs, alpha0=alpha0)


def _peak(coeffs: DeflectionModelCoeffs, infill: float) -> tuple[float, int]:
    """The largest |alpha(T) - alpha0| on THROTTLE_GRID and the first index
    reaching it, bit for bit as np.argmax finds them on the whole grid, from
    T = 10 and the six points around the vertex -a/(2b) (T = 0 gives 0).
    Once a coefficient is a normal float, rounding moves each value by under
    1e-15 of the grid's largest term, and a point two steps from the vertex
    lies at least 1e-4 of it below one of those; smaller coefficients round
    to multiples of 5e-324, so the whole grid is scanned. Raises ValueError
    when T = 10 overflows; then every point does."""
    grid = THROTTLE_GRID
    a_lin, b_quad = _throttle_coeffs(coeffs, infill)
    t = grid[100]
    last = abs(a_lin * t + b_quad * (t * t))  # numpy's grid**2 multiplies too
    # Both terms grow in magnitude with T, so every point is finite when the last is.
    if not math.isfinite(last):
        raise InputError(f"{coeffs} overflow at infill {infill}% and throttle {t}")
    window = range(0)
    if max(abs(a_lin), abs(b_quad)) < sys.float_info.min:
        window = range(1, 100)
    elif b_quad:
        vertex = -5.0 * a_lin / b_quad  # in grid steps of 0.1
        if -3.0 < vertex < 103.0:
            k = math.floor(vertex)
            window = range(max(1, k - 2), min(100, k + 4))
    peak, index = 0.0, 0
    for i in window:
        t = grid[i]
        dev = abs(a_lin * t + b_quad * (t * t))
        if dev > peak:
            peak, index = dev, i
    if last > peak:  # strict, as in the window: the first maximum wins
        peak, index = last, 100
    return peak, index


def envelope_check(coeffs: DeflectionModelCoeffs, infill: float) -> EnvelopeReport:
    """|alpha(T) - alpha0| at its largest on THROTTLE_GRID, the first maximum
    as np.argmax finds it, against DEFLECTION_BOUND_DEG."""
    require_finite(infill=infill)
    require_infill(infill=infill)
    worst_dev, index = _peak(coeffs, infill)
    return EnvelopeReport(
        max_abs_deflection=worst_dev,
        worst_throttle=THROTTLE_GRID[index],
        nonlinear_flag=infill < NONLINEAR_INFILL_PCT,
        passes_14deg=worst_dev < DEFLECTION_BOUND_DEG,
    )
