"""File formats: CSV ingestion with line-numbered errors, and the geometry,
coefficient and hyperelastic-table JSON. Each input file is read once, by
`read_bytes`: a reader parses the bytes passed as data (`cli._read_input`
hashes them first), or else reads the file, and decodes strict UTF-8
whatever the locale. `blame` names the file of an input fault, and the keys
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
from .errors import InputError, ParseError, require_finite
from .material import FlexuralSample, MooneyRivlinParams, StressStrainCurve

#: The faults that reading and checking an input raise, which `blame` names
#: the file of: an InputError (a ValueError), and a raw payload's missing key,
#: string for a number, bad UTF-8, int too large for a float or failed `open`.
INPUT_FAULTS = (OSError, KeyError, TypeError, ValueError, OverflowError)


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
    """Re-raise an input fault inside (one of INPUT_FAULTS) as a ParseError
    naming path and, before the message, the names of the inputs behind it.
    A ParseError passes through, given path if it has none."""
    try:
        yield
    except ParseError as exc:
        if exc.path is not None:
            raise
        raise ParseError(exc.reason, line=exc.line, path=str(path)) from None
    except INPUT_FAULTS as exc:
        raise ParseError(f"{', '.join(names)}: {exc}" if names else str(exc),
                         path=str(path)) from None


def read_bytes(path) -> bytes:
    """The bytes of the input file at path: the one place an input is read."""
    with blame(path), open(path, "rb") as fh:
        return fh.read()


def _text(path, data: bytes | None, newline: str | None) -> StringIO:
    """data, or else the file's bytes, as strict UTF-8 text; newline as `open` takes it."""
    return StringIO((read_bytes(path) if data is None else data).decode(), newline=newline)


def load_json(path, what: str, data: bytes | None = None) -> dict:
    """Parse a JSON input file, which must hold an object; what names the
    file in that message. An unreadable or non-UTF-8 file, malformed or too
    deeply nested JSON and a non-finite number (the NaN/Infinity literals, or
    an overflowing one such as 1e999) all raise ParseError."""
    with blame(path):
        try:
            payload = json.loads(_text(path, data, None).read(),
                                 parse_constant=_finite_float, parse_float=_finite_float)
        except json.JSONDecodeError as exc:
            raise ParseError(exc.msg, line=exc.lineno) from None
        except RecursionError as exc:  # arrays or objects nested too deeply to decode
            raise ParseError(str(exc)) from None
        if not isinstance(payload, dict):
            raise ParseError(f"{what} must be a JSON object")
    return payload


def _reject_unknown(payload: dict, known, what: str, prefix: str = "") -> None:
    """Raise ParseError naming, in file order, each key of payload that known
    lacks; what names the file in the message."""
    unknown = [repr(prefix + k) for k in payload if k not in known]
    if unknown:
        raise ParseError(f"unknown {what} keys: {', '.join(unknown)}")


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
    a hyperelastic table JSON: rows of {rho_pct, c10, c01, c20, c02, c11}
    under "rows", and no other keys but the unit and _note it may document.
    Every row must hold a finite rho_pct and five finite coefficients, and
    one row, no more, for the infill asked for."""
    payload = load_json(path, "hyperelastic table", data)
    with blame(path, "bad hyperelastic table"):
        _reject_unknown(payload, ("rows", "unit", "_note"), "hyperelastic table")
        found = None
        for row in payload["rows"]:
            require_finite(rho_pct=row["rho_pct"])  # a true would match an infill of 1
            params = MooneyRivlinParams(*(row[k] for k in ("c10", "c01", "c20", "c02", "c11")))
            if row["rho_pct"] == infill_pct:
                if found is not None:
                    raise ParseError(f"two hyperelastic rows for infill {infill_pct}%")
                found = params
        if found is None:
            raise ParseError(f"no hyperelastic row for infill {infill_pct}%")
        return found


def read_arm_geometry_json(path, data: bytes | None = None) -> ArmGeometry:
    """Load the arm geometry JSON schema.

    Expected keys: segments (list of {beta_deg, length_mm}), inertia_m4
    (per segment), half_depth_m, alpha0_deg, motor_station,
    linear_density_kg_m; a _note is allowed, any other key is a ParseError.
    """
    payload = load_json(path, "geometry", data)
    with blame(path, "bad geometry"):
        _reject_unknown(payload, ("segments", "inertia_m4", "half_depth_m", "alpha0_deg",
                                  "motor_station", "linear_density_kg_m", "_note"), "geometry")
        segments = []
        for s in payload["segments"]:
            require_finite(length_mm=s["length_mm"])  # a true times 1e-3 is a 1 mm segment
            segments.append(Segment(fold_angle_deg=s["beta_deg"], length=s["length_mm"] * 1e-3))
        return ArmGeometry(
            segments=segments,
            section_inertia=tuple(payload["inertia_m4"]),
            section_half_depth=payload["half_depth_m"],
            initial_droop_deg=payload.get("alpha0_deg", 0.0),
            motor_station=payload.get("motor_station", 1.0),
            linear_density=payload.get("linear_density_kg_m", 0.0),
        )


def read_deflection_coeffs_json(path, data: bytes | None = None) -> DeflectionModelCoeffs:
    """Load deflection coefficients JSON with keys a1, a2, b1, b2, alpha0_deg,
    and no others but the throttle_unit and _note it may document."""
    payload = load_json(path, "coefficients", data)
    with blame(path, "bad coefficients"):
        _reject_unknown(payload, ("a1", "a2", "b1", "b2", "alpha0_deg", "throttle_unit",
                                  "_note"), "coefficients")
        return DeflectionModelCoeffs(
            a1=payload["a1"],
            a2=payload["a2"],
            b1=payload["b1"],
            b2=payload["b2"],
            alpha0=payload.get("alpha0_deg", 0.0),
        )
