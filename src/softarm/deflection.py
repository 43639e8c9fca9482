"""Empirical quadratic arm-deflection model and operating-envelope checks.

The deflection angle versus throttle is modeled as
alpha(T) = alpha0 + (A1 + rho*A2)*T + (B1 + rho*B2)*T^2, with rho the
infill rate in percent and T the throttle in tens-of-percent units
(T = throttle% / 10, range [0, 10]).
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass

from .errors import OutOfEnvelopeWarning, RankDeficient, require_finite
from .material import COND_LIMIT

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
            raise ValueError(f"{name} must be in (0, 100), got {value}")


@dataclass(frozen=True)
class DeflectionModelCoeffs:
    """Quadratic model coefficients; a1/b1 in deg per T (resp. T^2), a2/b2
    additionally per percent infill. alpha0 is the unpowered droop [deg]."""

    a1: float
    a2: float
    b1: float
    b2: float
    alpha0: float = 0.0

    def __post_init__(self):
        require_finite(**vars(self))


@dataclass(frozen=True)
class DeflectionSample:
    """One measured operating point: infill [%], throttle [T], angle [deg]."""

    infill_rate: float
    throttle: float
    angle: float

    def __post_init__(self):
        require_finite(**vars(self))
        if self.throttle < 0:
            raise ValueError("throttle must be >= 0")
        require_infill(infill_rate=self.infill_rate)


@dataclass(frozen=True)
class EnvelopeReport:
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
    require_infill(infill=infill)
    if not 0.0 <= throttle <= T_MAX_DEFAULT:
        raise ValueError(f"throttle {throttle} outside the model range [0, {T_MAX_DEFAULT}]")
    if infill < NONLINEAR_INFILL_PCT and throttle > 0.8 * T_MAX_DEFAULT:
        warnings.warn(
            f"infill {infill}% at throttle {throttle} is in the strongly "
            "nonlinear regime; the quadratic model underestimates deflection",
            OutOfEnvelopeWarning,
            stacklevel=2,
        )
    return (
        coeffs.alpha0
        + (coeffs.a1 + infill * coeffs.a2) * throttle
        + (coeffs.b1 + infill * coeffs.b2) * throttle**2
    )


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
    sv = np.linalg.svd(design, compute_uv=False)
    if sv[-1] == 0 or sv[0] / sv[-1] > COND_LIMIT:
        raise RankDeficient("deflection design matrix is rank deficient")
    coeffs, *_ = np.linalg.lstsq(design, alpha - alpha0, rcond=None)
    return DeflectionModelCoeffs(*coeffs, alpha0=alpha0)


def envelope_check(coeffs: DeflectionModelCoeffs, infill: float) -> EnvelopeReport:
    """Scan |alpha(T) - alpha0| over THROTTLE_GRID and report the worst case,
    the first maximum as np.argmax finds it, against DEFLECTION_BOUND_DEG."""
    require_finite(infill=infill)
    require_infill(infill=infill)
    a_lin = coeffs.a1 + infill * coeffs.a2
    b_quad = coeffs.b1 + infill * coeffs.b2
    worst_dev = worst_t = -1.0
    for t in THROTTLE_GRID:
        dev = abs(a_lin * t + b_quad * (t * t))  # numpy's grid**2 multiplies too
        if dev > worst_dev:
            worst_dev, worst_t = dev, t
    return EnvelopeReport(
        max_abs_deflection=worst_dev,
        worst_throttle=worst_t,
        nonlinear_flag=infill < NONLINEAR_INFILL_PCT,
        passes_14deg=worst_dev < DEFLECTION_BOUND_DEG,
    )
