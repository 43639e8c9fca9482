"""Exception and warning types shared across the toolkit, and the
finiteness check of the library's numeric arguments and dataclass fields."""

import math


def require_finite(**values) -> None:
    """Raise ValueError naming the first argument that is NaN, infinite or
    not a number (a JSON null or boolean, say). A tuple is checked number
    by number, nested tuples included; a frozen dataclass of numbers checks
    itself with require_finite(**vars(self))."""
    for name, value in values.items():
        if not _all_finite(value):
            raise ValueError(f"{name} must be finite, got {value!r}")


def _all_finite(value) -> bool:
    if isinstance(value, tuple):
        return all(map(_all_finite, value))
    try:
        return not isinstance(value, bool) and math.isfinite(value)
    except TypeError:
        return False


class SoftarmError(Exception):
    """Base class for all toolkit errors. Every concrete error derives from
    one of the three bases below, which carry the exit code of the `softarm`
    command and the label of the message it prints."""

    exit_code, label = 1, "unexpected"


class InputError(SoftarmError):
    """The inputs are malformed or describe an impossible set-up."""

    exit_code, label = 2, "input"


class FitError(SoftarmError):
    """A model cannot be fitted or calibrated to the data given."""

    exit_code, label = 3, "fit"


class SolverError(SoftarmError):
    """A solve failed to converge."""

    exit_code, label = 4, "solver"


class DegenerateData(FitError):
    """Input data carries no usable signal (e.g. all-zero deflections)."""


class InvalidStretch(InputError):
    """Uniaxial stretch ratio must be strictly positive."""


class RankDeficient(FitError):
    """Least-squares design matrix is numerically rank deficient."""


class NoConvergence(SolverError):
    """Iterative solver failed to converge within its iteration budget."""


class NonPhysicalMaterial(InputError):
    """Effective elastic modulus is zero or negative."""


class CalibrationFailure(FitError):
    """The efficiency surrogate is not positive at the station and rpm
    asked for: its calibrated slopes take more than the table's eta."""


class ChordTooLong(InputError):
    """A fold chord is longer than the pipe diameter it must span."""


class ZeroArea(InputError):
    """Contact patch area is zero or negative."""


class EmptyRange(FitError):
    """No infill rate satisfies all feasibility constraints."""


class ParseError(InputError):
    """Input file could not be parsed; carries the offending line number."""

    def __init__(self, message: str, line: int | None = None, path: str | None = None):
        self.line = line
        self.path = path
        prefix = ""
        if path is not None:
            prefix += f"{path}:"
        if line is not None:
            prefix += f"{line}:"
        super().__init__(f"{prefix} {message}" if prefix else message)


class NonPhysicalWarning(UserWarning):
    """Result is retained but is outside the physically meaningful range."""

    code = "NONPHYSICAL_MATERIAL"


class OutOfEnvelopeWarning(UserWarning):
    """Inputs are outside the validated operating envelope of a model."""

    code = "OUT_OF_ENVELOPE"
