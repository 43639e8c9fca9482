"""Material characterization for 3D-printed TPU arms.

Linear flexural modulus from cantilever force-deflection tests, and a
five-coefficient hyperelastic model fitted to uniaxial stress-strain
curves with the small-strain modulus derived from it.

Unit conventions: stresses and moduli in SI (Pa) except the hyperelastic
coefficients and everything derived directly from them, which are in MPa
(soft-TPU magnitudes). Conversions happen at the fitting boundary.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass

from .errors import (
    DegenerateData,
    InvalidStretch,
    NonPhysicalWarning,
    RankDeficient,
    require_finite,
)

#: Condition-number threshold above which a fit is declared rank deficient.
COND_LIMIT = 1e12


@dataclass(frozen=True)
class FlexuralSample:
    """One point of a cantilever bending test: applied tip force [N] and
    measured tip deflection [m]."""

    force: float
    tip_deflection: float

    def __post_init__(self):
        require_finite(**vars(self))
        if self.force < 0:
            raise ValueError(f"force must be >= 0, got {self.force}")


@dataclass(frozen=True)
class StressStrainCurve:
    """Uniaxial engineering stress-strain samples for one printed specimen.

    samples: ordered (strain [-], stress [Pa]) pairs, strictly increasing
    in strain.
    """

    samples: tuple[tuple[float, float], ...]

    def __post_init__(self):
        object.__setattr__(self, "samples", tuple(tuple(p) for p in self.samples))
        require_finite(**vars(self))
        strains = [s for s, _ in self.samples]
        if any(b <= a for a, b in zip(strains, strains[1:])):
            raise ValueError("strains must be strictly increasing")
        if any(s <= -1 for s in strains):
            raise ValueError("engineering strain must be > -1")
        if strains and strains[0] == 0.0 and self.samples[0][1] != 0.0:
            raise ValueError("sample at zero strain must have zero stress")

    @property
    def strains(self) -> np.ndarray:
        import numpy as np

        return np.array([s for s, _ in self.samples])

    @property
    def stresses(self) -> np.ndarray:
        import numpy as np

        return np.array([p for _, p in self.samples])


@dataclass(frozen=True)
class MooneyRivlinParams:
    """Five-term hyperelastic coefficients, all in MPa."""

    c10: float
    c01: float
    c20: float
    c02: float
    c11: float

    def __post_init__(self):
        require_finite(**vars(self))

    def as_array(self) -> np.ndarray:
        import numpy as np

        return np.array([self.c10, self.c01, self.c20, self.c02, self.c11])


@dataclass(frozen=True)
class UniaxialInvariants:
    """First and second deformation invariants; both equal 3 when undeformed."""

    i1: float
    i2: float

    def __post_init__(self):
        require_finite(**vars(self))
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
        raise ValueError(f"length must be > 0, got {length}")
    if section_inertia <= 0:
        raise ValueError(f"section_inertia must be > 0, got {section_inertia}")
    if len(samples) < 2:
        raise DegenerateData("need at least 2 samples")
    forces = np.array([s.force for s in samples])
    defl = np.array([s.tip_deflection for s in samples])
    if np.all(forces == forces[0]):
        raise DegenerateData("all forces are equal")
    denom = float(defl @ defl)
    if denom == 0.0:
        raise DegenerateData("all deflections are zero")
    slope = float(forces @ defl) / denom
    if slope <= 0:
        raise DegenerateData(f"non-positive force/deflection slope {slope}")
    return slope * length**3 / (3.0 * section_inertia)


def uniaxial_invariants(stretch: float) -> UniaxialInvariants:
    """Invariants of an incompressible uniaxial deformation at the given
    stretch ratio: I1 = l^2 + 2/l, I2 = 2l + 1/l^2."""
    if stretch <= 0:
        raise InvalidStretch(f"stretch must be > 0, got {stretch}")
    i1 = stretch**2 + 2.0 / stretch
    i2 = 2.0 * stretch + stretch**-2
    return UniaxialInvariants(i1, i2)


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
    """Uniaxial incompressible engineering stress [MPa] at the given stretch.

    P = 2 (l - l^-2) (dW/dI1 + dW/dI2 / l); linear in the coefficients.
    """
    if stretch <= 0:
        raise InvalidStretch(f"stretch must be > 0, got {stretch}")
    inv = uniaxial_invariants(stretch)
    dw1, dw2 = mr_energy_partials(params, inv)
    return 2.0 * (stretch - stretch**-2) * (dw1 + dw2 / stretch)


def _stress_basis(stretches: np.ndarray) -> np.ndarray:
    """Design matrix column k = engineering stress of a unit k-th coefficient.

    Exploits linearity of the uniaxial response in (C10, C01, C20, C02, C11).
    """
    import numpy as np

    lam = np.asarray(stretches, dtype=float)
    i1 = lam**2 + 2.0 / lam
    i2 = 2.0 * lam + lam**-2
    j1 = i1 - 3.0
    j2 = i2 - 3.0
    front = 2.0 * (lam - lam**-2)
    cols = np.column_stack(
        [
            front,                            # c10
            front / lam,                      # c01
            front * 2.0 * j1,                 # c20
            front * 2.0 * j2 / lam,           # c02
            front * (j2 + j1 / lam),          # c11
        ]
    )
    return cols


def fit_mooney_rivlin(curve: StressStrainCurve) -> MooneyRivlinParams:
    """Fit the five coefficients [MPa] to a uniaxial curve by linear least
    squares on the engineering-stress response (stretch = 1 + strain)."""
    import numpy as np

    strains = curve.strains
    if np.count_nonzero(np.unique(strains) > 0) < 5:
        raise RankDeficient("need at least 5 distinct positive strains")
    lam = 1.0 + strains
    design = _stress_basis(lam)
    sv = np.linalg.svd(design, compute_uv=False)
    if sv[-1] == 0 or sv[0] / sv[-1] > COND_LIMIT:
        raise RankDeficient(
            f"design matrix condition {sv[0] / max(sv[-1], 1e-300):.3e} exceeds {COND_LIMIT:.0e}"
        )
    target_mpa = curve.stresses / 1e6
    coeffs, *_ = np.linalg.lstsq(design, target_mpa, rcond=None)
    return MooneyRivlinParams(*coeffs)


def mr_fit_diagnostics(curve: StressStrainCurve, params: MooneyRivlinParams) -> dict:
    """Residual norm [MPa] and design condition number for a finished fit."""
    import numpy as np

    lam = 1.0 + curve.strains
    design = _stress_basis(lam)
    resid = design @ params.as_array() - curve.stresses / 1e6
    sv = np.linalg.svd(design, compute_uv=False)
    return {
        "residual_norm_mpa": float(np.linalg.norm(resid)),
        "condition_number": float(sv[0] / sv[-1]),
    }


def mr_small_strain_modulus(params: MooneyRivlinParams) -> float:
    """Small-strain Young's modulus [MPa] of the incompressible model,
    6 (C10 + C01). Warns (NonPhysicalWarning) when not positive."""
    e0 = 6.0 * (params.c10 + params.c01)
    if e0 <= 0:
        warnings.warn(
            f"small-strain modulus {e0:.4g} MPa is not positive",
            NonPhysicalWarning,
            stacklevel=2,
        )
    return e0
