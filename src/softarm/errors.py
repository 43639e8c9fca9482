"""Exception and warning types shared across the toolkit, the finiteness
check of the library's numeric arguments and record fields, and the base of
the frozen records."""

import math


def require_finite(**values) -> None:
    """Raise ValueError naming the first argument that is NaN, infinite or
    not a number (a JSON null or boolean, say), or an int too large for a
    float, and echoing it as _echo does. A tuple is checked number by
    number, nested tuples included; the frozen records check their fields
    with it."""
    for name, value in values.items():
        if type(value) is float and math.isfinite(value):  # the common case, first
            continue
        if not _all_finite(value):
            raise ValueError(f"{name} must be finite, got {_echo(value)}")


def _echo(value) -> str:
    """repr(value) for a message, cut to its first and last 18 characters
    when longer than 40 (a 401-digit JSON integer, say)."""
    text = repr(value)
    return f"{text[:18]}...{text[-18:]}" if len(text) > 40 else text


def _all_finite(value) -> bool:
    if isinstance(value, tuple):
        for item in value:
            if type(item) is float:  # a float subclass, numpy.float64 say, recurses
                if not math.isfinite(item):
                    return False
            elif not _all_finite(item):
                return False
        return True
    try:
        return not isinstance(value, bool) and math.isfinite(value)
    except (TypeError, OverflowError):
        return False


class _Record:
    """Base of the frozen records, which compiles no method per class at
    import. The fields are the class's own annotations, in order, a class
    attribute of the same name the default. They bind by position or
    keyword, each once, into __dict__ in field order; then, with
    the class keyword finite=True, require_finite checks them all, and then
    __post_init__ runs. Those named in the class keyword `hidden` stay out of
    repr, == and hash. replace(**changes) builds a changed copy; asdict is
    shallow."""

    def __init_subclass__(cls, hidden=(), finite=False):
        fields = cls._fields = tuple(cls.__annotations__)
        size = len(fields)
        cls._shown = tuple(name for name in fields if name not in hidden)
        template = {name: vars(cls).get(name) for name in fields}
        # After n positional arguments: how many fields without a default are
        # left, and which fields with one.
        needs = [sum(f not in vars(cls) for f in fields[n:]) for n in range(size + 1)]
        optional = [[f for f in fields[n:] if f in vars(cls)] for n in range(size + 1)]
        post_init = getattr(cls, "__post_init__", None)

        def __init__(self, *args, **kwargs):
            values, n = self.__dict__, len(args)
            values.update(template)
            if n:
                for name, value in zip(fields, args):
                    values[name] = value
            values.update(kwargs)
            # Too many positions, an unknown keyword (the dict grows), a repeat;
            # else each keyword names a field after the n-th: count the required.
            bad = n > size or len(values) > size or (
                n and kwargs and not kwargs.keys().isdisjoint(fields[:n]))
            if not bad and needs[n]:
                given = len(kwargs)
                for name in optional[n]:
                    given -= name in kwargs
                bad = given < needs[n]
            if bad:
                raise TypeError(f"{cls.__name__}() takes each of {fields} once, those without a "
                                f"default too, not {n} positional arguments and {tuple(kwargs)}")
            if finite:
                require_finite(**values)
            if post_init:
                post_init(self)

        cls.__init__ = __init__

    def __repr__(self):
        shown = ", ".join(f"{name}={getattr(self, name)!r}" for name in self._shown)
        return f"{type(self).__qualname__}({shown})"

    def _key(self) -> tuple:
        return tuple(getattr(self, name) for name in self._shown)

    def __eq__(self, other):
        return self._key() == other._key() if type(other) is type(self) else NotImplemented

    def __hash__(self):
        return hash(self._key())

    def __setattr__(self, name, *value):
        raise AttributeError(f"{type(self).__name__} is frozen: cannot set or delete {name!r}")

    __delattr__ = __setattr__

    def replace(self, **changes):
        return type(self)(**{**self.asdict(), **changes})

    def asdict(self) -> dict:
        return {name: getattr(self, name) for name in self._fields}


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
