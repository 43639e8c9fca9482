"""Material characterization for 3D-printed TPU arms.

Linear flexural modulus from cantilever force-deflection tests, and a
five-coefficient hyperelastic model fitted to uniaxial stress-strain
curves with the small-strain modulus derived from it. Each formula is
written once: the invariants in _invariants, the uniaxial stress in
_stress_terms (the fit's design and mr_uniaxial_stress) and 6 (C10 + C01)
in mr_small_strain_modulus (also the elastica solver's modulus).

Unit conventions: stresses and moduli in SI (Pa) except the hyperelastic
coefficients and everything derived directly from them, which are in MPa
(soft-TPU magnitudes). Conversions happen at the fitting boundary.
"""

from __future__ import annotations

import math
import sys
import warnings

from .errors import (
    DegenerateData,
    InputError,
    InvalidStretch,
    NonPhysicalWarning,
    RankDeficient,
    _Record,
    require_finite,
)

#: Condition-number threshold above which a fit is declared rank deficient.
COND_LIMIT = 1e12


class FlexuralSample(_Record, finite=True):
    """One point of a cantilever bending test: applied tip force [N] and
    measured tip deflection [m]."""

    force: float
    tip_deflection: float

    def __post_init__(self):
        if self.force < 0:
            raise InputError(f"force must be >= 0, got {self.force}")


class StressStrainCurve(_Record, finite=True):
    """Uniaxial engineering stress-strain samples for one printed specimen.

    samples: ordered (strain [-], stress [Pa]) pairs, strictly increasing
    in strain.
    """

    samples: tuple[tuple[float, float], ...]

    def __post_init__(self):
        strains = [s for s, _ in self.samples]
        if any(b <= a for a, b in zip(strains, strains[1:])):
            raise InputError("strains must be strictly increasing")
        if any(s <= -1 for s in strains):
            raise InputError("engineering strain must be > -1")
        if strains and strains[0] == 0.0 and self.samples[0][1] != 0.0:
            raise InputError("sample at zero strain must have zero stress")

    @property
    def strains(self) -> np.ndarray:
        import numpy as np

        return np.array([s for s, _ in self.samples])

    @property
    def stresses(self) -> np.ndarray:
        import numpy as np

        return np.array([p for _, p in self.samples])


class MooneyRivlinParams(_Record, finite=True):
    """Five-term hyperelastic coefficients, all in MPa."""

    c10: float
    c01: float
    c20: float
    c02: float
    c11: float

    def as_array(self) -> np.ndarray:
        import numpy as np

        return np.array([self.c10, self.c01, self.c20, self.c02, self.c11])


class UniaxialInvariants(_Record, finite=True):
    """First and second deformation invariants; both equal 3 when undeformed."""

    i1: float
    i2: float

    def __post_init__(self):
        if self.i1 < 3.0 - 1e-12 or self.i2 < 3.0 - 1e-12:
            raise ValueError("invariants must be >= 3")


def fit_flexural_modulus(
    samples: list[FlexuralSample], length: float, section_inertia: float
) -> float:
    """Flexural Young's modulus [Pa] from force-deflection pairs of a
    cantilever test of the given length [m] and section inertia [m^4].

    Through-origin least squares of F against delta gives the slope, and
    E = slope * L^3 / (3 I).
    """
    import numpy as np

    require_finite(length=length, section_inertia=section_inertia)
    if length <= 0:
        raise InputError(f"length must be > 0, got {length}")
    if section_inertia <= 0:
        raise InputError(f"section_inertia must be > 0, got {section_inertia}")
    if len(samples) < 2:
        raise DegenerateData("need at least 2 samples")
    forces = np.array([s.force for s in samples])
    defl = np.array([s.tip_deflection for s in samples])
    if np.all(forces == forces[0]):
        raise DegenerateData("all forces are equal")
    denom, cross = float(defl @ defl), float(forces @ defl)
    if not math.isfinite(denom) or not math.isfinite(cross):
        raise InputError(f"deflections up to {abs(defl).max():g} m and forces up to "
                         f"{forces.max():g} N put the fit's sums out of float range")
    if denom < sys.float_info.min:  # zero, or a sum of squares that underflowed
        if not defl.any():
            raise DegenerateData("all deflections are zero")
        raise InputError(f"deflections up to {abs(defl).max():g} m underflow the fit's sums")
    slope = cross / denom
    if slope <= 0:
        raise DegenerateData(f"non-positive force/deflection slope {slope}")
    try:  # length**3 may overflow, or the quotient
        modulus = slope * length**3 / (3.0 * section_inertia)
        require_finite(modulus=modulus)
    except (OverflowError, InputError):
        raise InputError(f"length {length} m and section_inertia {section_inertia} m^4 give a "
                         "flexural modulus out of float range") from None
    return modulus


def _invariants(lam):
    """(I1, I2) of an incompressible uniaxial stretch lam, a float or an
    ndarray: I1 = l^2 + 2/l, I2 = 2l + 1/l^2."""
    return lam**2 + 2.0 / lam, 2.0 * lam + lam**-2


def _stress_terms(lam):
    """Uniaxial engineering stresses [MPa] of unit (C10, C01, C20, C02, C11)
    at the stretch lam, a float or an ndarray: the stress
    P = 2 (l - l^-2) (dW/dI1 + dW/dI2 / l) is linear in the coefficients."""
    i1, i2 = _invariants(lam)
    j1 = i1 - 3.0
    j2 = i2 - 3.0
    front = 2.0 * (lam - lam**-2)
    return front, front / lam, front * 2.0 * j1, front * 2.0 * j2 / lam, front * (j2 + j1 / lam)


def uniaxial_invariants(stretch: float) -> UniaxialInvariants:
    """Invariants of an incompressible uniaxial stretch (see _invariants)."""
    if stretch <= 0:
        raise InvalidStretch(f"stretch must be > 0, got {stretch}")
    return UniaxialInvariants(*_invariants(stretch))


def mr_strain_energy(params: MooneyRivlinParams, inv: UniaxialInvariants) -> float:
    """Strain energy density [MPa] of the five-term model.

    W = sum over 1 <= p+q <= 2 of C_pq (I1-3)^p (I2-3)^q.
    """
    j1 = inv.i1 - 3.0
    j2 = inv.i2 - 3.0
    return (
        params.c10 * j1
        + params.c01 * j2
        + params.c20 * j1**2
        + params.c02 * j2**2
        + params.c11 * j1 * j2
    )


def mr_energy_partials(
    params: MooneyRivlinParams, inv: UniaxialInvariants
) -> tuple[float, float]:
    """Analytic (dW/dI1, dW/dI2) [MPa] at the given invariants."""
    j1 = inv.i1 - 3.0
    j2 = inv.i2 - 3.0
    dw_di1 = params.c10 + 2.0 * params.c20 * j1 + params.c11 * j2
    dw_di2 = params.c01 + 2.0 * params.c02 * j2 + params.c11 * j1
    return dw_di1, dw_di2


def mr_uniaxial_stress(params: MooneyRivlinParams, stretch: float) -> float:
    """Uniaxial incompressible engineering stress [MPa] at the given stretch:
    the stress terms weighted by the coefficients, summed left to right."""
    if stretch <= 0:
        raise InvalidStretch(f"stretch must be > 0, got {stretch}")
    require_finite(stretch=stretch)
    t10, t01, t20, t02, t11 = _stress_terms(stretch)
    return (params.c10 * t10 + params.c01 * t01 + params.c20 * t20
            + params.c02 * t02 + params.c11 * t11)


def least_squares(design: np.ndarray, target: np.ndarray) -> tuple[np.ndarray, float, float]:
    """Coefficients c minimizing |design @ c - target|, that residual norm
    and the condition number of design. Raises RankDeficient when the
    condition number exceeds COND_LIMIT, and InputError when a result
    overflows."""
    import numpy as np

    coeffs, _, _, sv = np.linalg.lstsq(design, target, rcond=None)
    if sv[-1] == 0 or sv[0] / sv[-1] > COND_LIMIT:
        raise RankDeficient(
            f"design matrix condition {sv[0] / max(sv[-1], 1e-300):.3e} exceeds {COND_LIMIT:.0e}"
        )
    residual, cond = float(np.linalg.norm(design @ coeffs - target)), float(sv[0] / sv[-1])
    require_finite(coefficients=tuple(coeffs), residual_norm=residual, condition_number=cond)
    return coeffs, residual, cond


def fit_mooney_rivlin(curve: StressStrainCurve) -> tuple[MooneyRivlinParams, dict]:
    """Fit the five coefficients [MPa] to a uniaxial curve by linear least
    squares on the engineering-stress response (stretch = 1 + strain), with
    the fit's residual norm [MPa] and design condition number."""
    import numpy as np

    strains = curve.strains
    if np.count_nonzero(np.unique(strains) > 0) < 5:
        raise RankDeficient("need at least 5 distinct positive strains")
    with np.errstate(all="ignore"):  # an overflow is checked for below
        design = np.column_stack(_stress_terms(1.0 + strains))
    finite = np.isfinite(design).all(axis=1)
    if not finite.all():  # LAPACK would print to stdout, then fail to converge
        raise InputError(f"strain {float(strains[~finite][0])} puts the fit's stress terms "
                         "out of float range")
    coeffs, residual, cond = least_squares(design, curve.stresses / 1e6)
    return MooneyRivlinParams(*coeffs), {"residual_norm_mpa": residual, "condition_number": cond}


def mr_small_strain_modulus(params: MooneyRivlinParams) -> float:
    """Small-strain Young's modulus [MPa] of the incompressible model,
    6 (C10 + C01). Warns (NonPhysicalWarning) when not positive, and
    raises InputError when it overflows."""
    e0 = 6.0 * (params.c10 + params.c01)
    require_finite(**{"small-strain modulus 6 (c10 + c01)": e0})
    if e0 <= 0:
        warnings.warn(
            f"small-strain modulus {e0:.4g} MPa is not positive",
            NonPhysicalWarning,
            stacklevel=2,
        )
    return e0
