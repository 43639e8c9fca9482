"""File formats: CSV ingestion with line-numbered errors, and the geometry,
coefficient and hyperelastic-table JSON. Every input file of the commands is
parsed here, through `load_json` or `_read_csv_rows`. `blame` turns an input
fault into a ParseError that names the file and the keys behind it; where a
line is known, the arm that knows it names the line too. A CSV record is
numbered by the physical line it starts on, and a row is parsed in one pass,
cell by cell only when that pass fails, so that the message names the first
bad cell. `cli._read_input` then reads each file a second time, to hash its
bytes."""

from __future__ import annotations

import csv
import json
import math
from contextlib import contextmanager
from pathlib import Path

from .aero import EfficiencyTable
from .beam import ArmGeometry, Segment
from .deflection import DeflectionModelCoeffs
from .errors import InputError, ParseError, require_finite
from .material import FlexuralSample, MooneyRivlinParams, StressStrainCurve


def _finite_float(text: str) -> float:
    """float(text), refusing NaN and infinities with ValueError. Also the
    argparse type of the CLI's numeric options: argparse turns the
    ValueError into a usage error, exit 2."""
    value = float(text)
    if not math.isfinite(value):
        raise ValueError(f"non-finite number {text} is not allowed")
    return value


@contextmanager
def blame(path: str | Path, *names: str):
    """Re-raise an input fault inside (an error that `cli.main` exits 2 for)
    as a ParseError naming path and, before the message, the names of the
    inputs behind it. A ParseError passes through unchanged."""
    try:
        yield
    except ParseError:
        raise
    except (InputError, OSError, KeyError, TypeError, ValueError, OverflowError) as exc:
        raise ParseError(f"{', '.join(names)}: {exc}" if names else str(exc),
                         path=str(path)) from None


def load_json(path: str | Path, what: str) -> dict:
    """Parse a JSON input file, which must hold an object; what names the
    file in that message. An unreadable file, malformed JSON, JSON nested
    too deeply to decode and a non-finite number (the NaN/Infinity literals,
    or an overflowing one such as 1e999) all raise ParseError."""
    path = Path(path)
    with blame(path):
        try:
            payload = json.loads(
                path.read_text(), parse_constant=_finite_float, parse_float=_finite_float
            )
        except json.JSONDecodeError as exc:
            raise ParseError(exc.msg, line=exc.lineno, path=str(path)) from None
        except RecursionError as exc:  # arrays or objects nested too deeply to decode
            raise ParseError(str(exc), path=str(path)) from None
    if not isinstance(payload, dict):
        raise ParseError(f"{what} must be a JSON object", path=str(path))
    return payload


def _reject_unknown(payload: dict, known, path: str | Path, what: str, prefix: str = "") -> None:
    """Raise ParseError naming, in file order, each key of payload that known
    lacks; what names the file in the message."""
    unknown = [repr(prefix + k) for k in payload if k not in known]
    if unknown:
        raise ParseError(f"unknown {what} keys: {', '.join(unknown)}", path=str(path))


def _read_csv_rows(path: str | Path, expected_header: list[str]) -> list[tuple[int, list[float]]]:
    """Rows of a numeric CSV as (line_number, values), header validated;
    a cell that is not a finite number, a row the csv module cannot split
    (a field over csv.field_size_limit(), say) and a file without data rows
    are a ParseError naming its line."""
    path = Path(path)
    with blame(path), open(path, newline="") as fh:
        reader = csv.reader(fh)
        try:
            header = next(reader, None)
            if header is None:
                raise ParseError("file is empty", line=1, path=str(path))
            if [h.strip() for h in header] != expected_header:
                raise ParseError(
                    f"expected header {','.join(expected_header)!r}, got {','.join(header)!r}",
                    line=1,
                    path=str(path),
                )
            rows = []
            end = reader.line_num
            for row in reader:
                # A record starts on the line after the last one read; a quoted
                # field may carry it over several lines.
                lineno, end = end + 1, reader.line_num
                if not "".join(row).strip():
                    continue
                if len(row) != len(expected_header):
                    raise ParseError(
                        f"expected {len(expected_header)} columns, got {len(row)}",
                        line=lineno,
                        path=str(path),
                    )
                try:
                    values = list(map(float, row))
                    finite = all(map(math.isfinite, values))
                except ValueError:
                    finite = False
                if not finite:
                    try:  # cell by cell, so that the first bad cell names the error
                        values = [_finite_float(c) for c in row]
                    except ValueError as exc:
                        raise ParseError(str(exc), line=lineno, path=str(path)) from None
                rows.append((lineno, values))
        except csv.Error as exc:
            raise ParseError(str(exc), line=reader.line_num, path=str(path)) from None
    if not rows:
        raise ParseError("no data rows", line=2, path=str(path))
    return rows


def _from_rows(path: str | Path, rows: list[tuple[int, list[float]]], make):
    """The record make(values) builds from the rows' values. A record's checks
    hold for every leading part of valid rows, so a ValueError from make
    becomes a ParseError at the first line where the rows up to it fail."""
    values = [row for _, row in rows]
    try:
        return make(values)
    except ValueError:
        for k, (lineno, _) in enumerate(rows, start=1):
            try:
                make(values[:k])
            except ValueError as exc:  # at the latest when k covers every row
                raise ParseError(str(exc), line=lineno, path=str(path)) from None


def read_stress_strain_csv(path: str | Path) -> StressStrainCurve:
    """Load a `strain,stress_pa` CSV into a stress-strain curve."""
    return _from_rows(path, _read_csv_rows(path, ["strain", "stress_pa"]), StressStrainCurve)


def read_flexural_csv(path: str | Path) -> list[FlexuralSample]:
    """Load a `force_n,deflection_m` CSV into flexural samples."""
    rows = _read_csv_rows(path, ["force_n", "deflection_m"])
    return _from_rows(path, rows, lambda pairs: [FlexuralSample(*pair) for pair in pairs])


def read_efficiency_csv(path: str | Path) -> EfficiencyTable:
    """Load a `rpm,eta` CSV into an efficiency table."""
    return _from_rows(path, _read_csv_rows(path, ["rpm", "eta"]), EfficiencyTable)


def read_hyperelastic_row(path: str | Path, infill_pct: float) -> MooneyRivlinParams:
    """Load the Mooney-Rivlin coefficients [MPa] of one infill rate [%] from
    a hyperelastic table JSON: rows of {rho_pct, c10, c01, c20, c02, c11}
    under "rows", and no other keys but the unit and _note it may document."""
    payload = load_json(path, "hyperelastic table")
    _reject_unknown(payload, ("rows", "unit", "_note"), path, "hyperelastic table")
    with blame(path, "bad hyperelastic table"):
        for row in payload["rows"]:
            if row["rho_pct"] == infill_pct:
                return MooneyRivlinParams(*(row[k] for k in ("c10", "c01", "c20", "c02", "c11")))
    raise ParseError(f"no hyperelastic row for infill {infill_pct}%", path=str(path))


def read_arm_geometry_json(path: str | Path) -> ArmGeometry:
    """Load the arm geometry JSON schema.

    Expected keys: segments (list of {beta_deg, length_mm}), inertia_m4
    (per segment), half_depth_m, alpha0_deg, motor_station,
    linear_density_kg_m; a _note is allowed, any other key is a ParseError.
    """
    payload = load_json(path, "geometry")
    _reject_unknown(payload, ("segments", "inertia_m4", "half_depth_m", "alpha0_deg",
                              "motor_station", "linear_density_kg_m", "_note"), path, "geometry")
    with blame(path, "bad geometry"):
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


def read_deflection_coeffs_json(path: str | Path) -> DeflectionModelCoeffs:
    """Load deflection coefficients JSON with keys a1, a2, b1, b2, alpha0_deg,
    and no others but the throttle_unit and _note it may document."""
    payload = load_json(path, "coefficients")
    _reject_unknown(payload, ("a1", "a2", "b1", "b2", "alpha0_deg", "throttle_unit", "_note"),
                    path, "coefficients")
    with blame(path, "bad coefficients"):
        return DeflectionModelCoeffs(
            a1=payload["a1"],
            a2=payload["a2"],
            b1=payload["b1"],
            b2=payload["b2"],
            alpha0=payload.get("alpha0_deg", 0.0),
        )
