"""File formats: CSV ingestion with line-numbered errors, and the analyze
config, geometry, coefficient and hyperelastic-table JSON. Each input file is
read once, by `read_bytes`: a reader parses the bytes passed as data
(`cli._read_input` hashes them first), or else reads the file, and decodes
strict UTF-8 whatever the locale. `read_json` checks a JSON input against its
key table. `blame` names the file of an InputError or OSError, and the keys
behind it; where a line is known, the arm that knows it names the line. A CSV
record is numbered by the physical line it starts on, and a row is parsed in
one pass, cell by cell only when that pass fails, so that the message names
the first bad cell."""

from __future__ import annotations

import csv
import json
import math
from contextlib import contextmanager
from io import StringIO

from .aero import EfficiencyTable
from .beam import ArmGeometry, Segment
from .deflection import DeflectionModelCoeffs
from .errors import InputError, ParseError, _all_finite, _echo
from .material import FlexuralSample, MooneyRivlinParams, StressStrainCurve

#: The key table of each JSON input: what each key of the file holds, in the
#: order that `_check` checks them. A kind is a table (an object, checked
#: alike), a list of one kind, "file" (a non-empty name, resolved against the
#: file's directory), "finite" or "> 0" (a finite number, or one > 0), a float
#: (an optional finite number, which defaults to it) or "note" (optional, any
#: value, not read). Every other key is required, and no other is allowed.
CONFIG_KEYS = {
    "geometry": "file",
    "efficiency_table": "file",
    "deflection_coeffs": "file",
    "material": {"hyperelastic_table": "file", "infill_pct": "finite"},
    "propeller": {"nominal_thrust_n": "finite", "nominal_rpm": "finite", "max_rpm": "> 0"},
    "pipe": {"diameter_m": "finite", "contact_width_m": "finite", "tendon_force_n": "finite"},
}
GEOMETRY_KEYS = {"segments": [{"beta_deg": "finite", "length_mm": "finite"}],
                 "inertia_m4": ["finite"], "half_depth_m": "finite", "alpha0_deg": 0.0,
                 "motor_station": 1.0, "linear_density_kg_m": 0.0, "_note": "note"}
COEFFS_KEYS = {"a1": "finite", "a2": "finite", "b1": "finite", "b2": "finite",
               "alpha0_deg": 0.0, "throttle_unit": "note", "_note": "note"}
HYPERELASTIC_KEYS = {
    "rows": [dict.fromkeys(("rho_pct", "c10", "c01", "c20", "c02", "c11"), "finite")],
    "unit": "note", "_note": "note"}


def _finite_float(text: str) -> float:
    """float(text), refusing NaN and infinities with InputError. Also the
    argparse type of the CLI's numeric options: argparse turns the
    ValueError that either raises into a usage error, exit 2."""
    value = float(text)
    if not math.isfinite(value):
        raise InputError(f"non-finite number {text} is not allowed")
    return value


@contextmanager
def blame(path, *names: str):
    """Re-raise an InputError or OSError inside as a ParseError naming path
    and, before the message, the names of the inputs behind it. A ParseError
    passes through, given path if it has none; any other exception, a bug, as it is."""
    try:
        yield
    except ParseError as exc:
        if exc.path is not None:
            raise
        raise ParseError(exc.reason, line=exc.line, path=str(path)) from None
    except (InputError, OSError) as exc:
        raise ParseError(f"{', '.join(names)}: {exc}" if names else str(exc),
                         path=str(path)) from None


def read_bytes(path) -> bytes:
    """The bytes of the input file at path: the one place an input is read."""
    with blame(path):
        try:
            with open(path, "rb") as fh:
                return fh.read()
        except ValueError as exc:  # a name that open cannot pass on: a NUL or a lone surrogate
            raise ParseError(str(exc)) from None


def _text(path, data: bytes | None, newline: str | None) -> StringIO:
    """data, or else the file's bytes, as strict UTF-8 text; newline as `open` takes it."""
    try:
        return StringIO((read_bytes(path) if data is None else data).decode(), newline=newline)
    except UnicodeDecodeError as exc:
        raise ParseError(str(exc)) from None


def load_json(path, what: str, data: bytes | None = None) -> dict:
    """Parse a JSON input file, which must hold an object; what names the
    file in that message. An unreadable or non-UTF-8 file, malformed or too
    deeply nested JSON, an integer of more digits than int() converts and a
    non-finite number (the NaN/Infinity literals, or an overflowing one such
    as 1e999) and a key given twice in one object all raise ParseError, which
    names that key as _check names keys if the text after it parses."""
    with blame(path):
        text = _text(path, data, None).read()
        try:
            payload = json.loads(text, parse_constant=_finite_float, parse_float=_finite_float,
                                 object_pairs_hook=_unique_keys)
        except json.JSONDecodeError as exc:
            raise ParseError(exc.msg, line=exc.lineno) from None
        except ParseError as exc:  # a key given twice
            try:  # objects as tuples of pairs, integers as text
                name = next(_duplicates(json.loads(text, parse_int=str, object_pairs_hook=tuple)))
            except (RecursionError, ValueError):  # the text after the key does not parse
                raise exc from None
            raise ParseError(f"duplicate key {name!r}") from None
        except (RecursionError, ValueError) as exc:  # nested too deeply, or a bad number
            raise ParseError(str(exc)) from None
        if not isinstance(payload, dict):
            raise ParseError(f"{what} must be a JSON object")
    return payload


def _unique_keys(pairs: list) -> dict:
    """The object of these key-value pairs; a key given twice raises ParseError."""
    payload = dict(pairs)
    if len(payload) < len(pairs):
        raise ParseError(f"duplicate key {next(_duplicates(tuple(pairs)))!r}")
    return payload


def _duplicates(value, name: str = ""):
    """The keys given twice in value, JSON decoded with objects as tuples of
    pairs, named as _check names keys, in the order that _unique_keys meets
    them: those of an object after those in the values inside it."""
    if type(value) is list:
        for i, item in enumerate(value):
            yield from _duplicates(item, f"{name}[{i}]")
    elif type(value) is tuple:
        prefix = f"{name}." if name else ""
        for key, item in value:
            yield from _duplicates(item, prefix + key)
        keys = [key for key, _ in value]
        yield from (prefix + key for i, key in enumerate(keys) if key in keys[:i])


def read_json(path, what: str, keys: dict, data: bytes | None = None) -> dict:
    """The JSON input what at path, parsed by load_json and checked against
    its key table keys by _check; path is a Path where the table names files."""
    payload = load_json(path, what, data)
    with blame(path):
        return _check(payload, keys, what, path)


def _check(value, kind, what: str, path, name: str = ""):
    """value, at name in the JSON input what at path, checked as kind says
    (see CONFIG_KEYS), else a ParseError: for an object, the keys its table
    lacks, in file order, then each key of the table in order. Returns value,
    a file name as its path; an object gains the optional numbers it lacks."""
    if type(kind) is dict:
        if type(value) is not dict:
            raise ParseError(f"{what} section {name!r} must be an object, "
                             f"got {type(value).__name__}")
        prefix = f"{name}." if name else ""
        if not value.keys() <= kind.keys():
            unknown = ", ".join(repr(prefix + key) for key in value if key not in kind)
            raise ParseError(f"unknown {what} keys: {unknown}")
        for key, of_key in kind.items():
            if key in value:
                value[key] = _check(value[key], of_key, what, path, prefix + key)
            elif type(of_key) is float:
                value[key] = of_key
            elif of_key != "note":
                noun = "section" if type(of_key) is dict else "key"
                raise ParseError(f"{what} has no {prefix + key!r} {noun}")
    elif type(kind) is list:
        if type(value) is not list:
            raise ParseError(f"{name} must be a list, got {type(value).__name__}")
        for i, item in enumerate(value):
            value[i] = _check(item, kind[0], what, path, f"{name}[{i}]")
    elif kind == "file":
        if type(value) is not str or not value:
            raise ParseError(f"{name} must be a file name, got {_echo(value)}")
        return path.parent / value
    elif kind != "note":  # a number: require_finite's test, without a call per number
        if (type(value) is not float or not math.isfinite(value)) and not _all_finite(value):
            raise ParseError(f"{name} must be finite, got {_echo(value)}")
        if kind == "> 0" and value <= 0:
            raise ParseError(f"{name} must be > 0, got {_echo(value)}")
    return value


def _read_csv_rows(path, expected_header: list[str],
                   data: bytes | None = None) -> list[tuple[int, list[float]]]:
    """Rows of a numeric CSV as (line_number, values), header validated;
    a cell that is not a finite number, a row the csv module cannot split
    (a field over csv.field_size_limit(), say) and a file without data rows
    are a ParseError naming its line."""
    with blame(path):
        reader = csv.reader(_text(path, data, ""))
        try:
            header = next(reader, None)
            if header is None:
                raise ParseError("file is empty", line=1)
            if [h.strip() for h in header] != expected_header:
                raise ParseError(f"expected header {','.join(expected_header)!r}, "
                                 f"got {','.join(header)!r}", line=1)
            rows = []
            end = reader.line_num
            for row in reader:
                # A record starts on the line after the last one read; a quoted
                # field may carry it over several lines.
                lineno, end = end + 1, reader.line_num
                if not "".join(row).strip():
                    continue
                if len(row) != len(expected_header):
                    raise ParseError(f"expected {len(expected_header)} columns, got {len(row)}",
                                     line=lineno)
                try:
                    values = list(map(float, row))
                    finite = all(map(math.isfinite, values))
                except ValueError:
                    finite = False
                if not finite:
                    try:  # cell by cell, so that the first bad cell names the error
                        values = [_finite_float(c) for c in row]
                    except ValueError as exc:
                        raise ParseError(str(exc), line=lineno) from None
                rows.append((lineno, values))
        except csv.Error as exc:
            raise ParseError(str(exc), line=reader.line_num) from None
        if not rows:
            raise ParseError("no data rows", line=2)
    return rows


def _from_rows(path, rows: list[tuple[int, list[float]]], make):
    """The record make(values) builds from the rows' values. A record's checks
    hold for every leading part of valid rows, so an InputError from make
    becomes a ParseError at the first line where the rows up to it fail,
    found by bisection over the number of leading rows."""
    values = [row for _, row in rows]
    try:
        return make(values)
    except InputError as exc:
        error = exc
    passes, fails = 0, len(rows)  # the leading rows that build, and that fail
    while fails - passes > 1:
        k = (passes + fails) // 2
        try:
            make(values[:k])
            passes = k
        except InputError as exc:
            error, fails = exc, k
    with blame(path):
        raise ParseError(str(error), line=rows[fails - 1][0])


def read_stress_strain_csv(path, data: bytes | None = None) -> StressStrainCurve:
    """Load a `strain,stress_pa` CSV into a stress-strain curve."""
    return _from_rows(path, _read_csv_rows(path, ["strain", "stress_pa"], data), StressStrainCurve)


def read_flexural_csv(path, data: bytes | None = None) -> list[FlexuralSample]:
    """Load a `force_n,deflection_m` CSV into flexural samples."""
    rows = _read_csv_rows(path, ["force_n", "deflection_m"], data)
    return _from_rows(path, rows, lambda pairs: [FlexuralSample(*pair) for pair in pairs])


def read_efficiency_csv(path, data: bytes | None = None) -> EfficiencyTable:
    """Load a `rpm,eta` CSV into an efficiency table."""
    return _from_rows(path, _read_csv_rows(path, ["rpm", "eta"], data), EfficiencyTable)


def read_hyperelastic_row(path, infill_pct: float,
                          data: bytes | None = None) -> MooneyRivlinParams:
    """Load the Mooney-Rivlin coefficients [MPa] of one infill rate [%] from
    a hyperelastic table JSON (HYPERELASTIC_KEYS), which must hold one row,
    no more, for the infill asked for."""
    table = read_json(path, "hyperelastic table", HYPERELASTIC_KEYS, data)
    rows = [row for row in table["rows"] if row["rho_pct"] == infill_pct]
    with blame(path):
        if not rows:
            raise ParseError(f"no hyperelastic row for infill {infill_pct}%")
        if len(rows) > 1:
            raise ParseError(f"two hyperelastic rows for infill {infill_pct}%")
    return MooneyRivlinParams(*(rows[0][k] for k in ("c10", "c01", "c20", "c02", "c11")))


def read_arm_geometry_json(path, data: bytes | None = None) -> ArmGeometry:
    """Load the arm geometry JSON (GEOMETRY_KEYS): lengths in mm."""
    geometry = read_json(path, "geometry", GEOMETRY_KEYS, data)
    with blame(path, "bad geometry"):
        return ArmGeometry(
            segments=[Segment(fold_angle_deg=s["beta_deg"], length=s["length_mm"] * 1e-3)
                      for s in geometry["segments"]],
            section_inertia=geometry["inertia_m4"],
            section_half_depth=geometry["half_depth_m"],
            initial_droop_deg=geometry["alpha0_deg"],
            motor_station=geometry["motor_station"],
            linear_density=geometry["linear_density_kg_m"],
        )


def read_deflection_coeffs_json(path, data: bytes | None = None) -> DeflectionModelCoeffs:
    """Load the deflection coefficients JSON (COEFFS_KEYS)."""
    c = read_json(path, "coefficients", COEFFS_KEYS, data)
    return DeflectionModelCoeffs(c["a1"], c["a2"], c["b1"], c["b2"], c["alpha0_deg"])
