"""File formats: CSV ingestion with line-numbered errors, and the geometry,
coefficient and hyperelastic-table JSON. Every input file of the commands is
read here, through `load_json` or `_read_csv_rows`, the one place where a bad
file or a non-finite number becomes a ParseError."""

from __future__ import annotations

import csv
import json
import math
from pathlib import Path

from .aero import EfficiencyTable
from .beam import ArmGeometry, Segment
from .deflection import DeflectionModelCoeffs
from .errors import ParseError, require_finite
from .material import FlexuralSample, MooneyRivlinParams, StressStrainCurve


def _finite_float(text: str) -> float:
    """float(text), refusing NaN and infinities with ValueError. Also the
    argparse type of the CLI's numeric options: argparse turns the
    ValueError into a usage error, exit 2."""
    value = float(text)
    if not math.isfinite(value):
        raise ValueError(f"non-finite number {text} is not allowed")
    return value


def load_json(path: str | Path):
    """Parse a JSON input file. An unreadable file, malformed JSON and a
    non-finite number (the NaN/Infinity literals, or an overflowing one such
    as 1e999) all raise ParseError."""
    path = Path(path)
    try:
        return json.loads(
            path.read_text(), parse_constant=_finite_float, parse_float=_finite_float
        )
    except OSError as exc:
        raise ParseError(str(exc), path=str(path)) from None
    except json.JSONDecodeError as exc:
        raise ParseError(exc.msg, line=exc.lineno, path=str(path)) from None
    except ValueError as exc:
        raise ParseError(str(exc), path=str(path)) from None


def _read_csv_rows(path: str | Path, expected_header: list[str]) -> list[tuple[int, list[float]]]:
    """Rows of a numeric CSV as (line_number, values), header validated;
    a cell that is not a finite number, and a file without data rows, is a
    ParseError naming its line."""
    path = Path(path)
    try:
        with open(path, newline="") as fh:
            reader = csv.reader(fh)
            try:
                header = next(reader)
            except StopIteration:
                raise ParseError("file is empty", line=1, path=str(path)) from None
            if [h.strip() for h in header] != expected_header:
                raise ParseError(
                    f"expected header {','.join(expected_header)!r}, got {','.join(header)!r}",
                    line=1,
                    path=str(path),
                )
            rows = []
            for lineno, row in enumerate(reader, start=2):
                if not row or all(not c.strip() for c in row):
                    continue
                if len(row) != len(expected_header):
                    raise ParseError(
                        f"expected {len(expected_header)} columns, got {len(row)}",
                        line=lineno,
                        path=str(path),
                    )
                try:
                    rows.append((lineno, [_finite_float(c) for c in row]))
                except ValueError as exc:
                    raise ParseError(str(exc), line=lineno, path=str(path)) from None
    except OSError as exc:
        raise ParseError(str(exc), path=str(path)) from None
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
    a hyperelastic table JSON: rows of {rho_pct, c10, c01, c20, c02, c11}."""
    payload = load_json(path)
    try:
        for row in payload["rows"]:
            if row["rho_pct"] == infill_pct:
                return MooneyRivlinParams(*(row[k] for k in ("c10", "c01", "c20", "c02", "c11")))
    except (KeyError, TypeError, ValueError) as exc:
        raise ParseError(f"bad hyperelastic table: {exc}", path=str(path)) from None
    raise ParseError(f"no hyperelastic row for infill {infill_pct}%", path=str(path))


def read_arm_geometry_json(path: str | Path) -> ArmGeometry:
    """Load the arm geometry JSON schema.

    Expected keys: segments (list of {beta_deg, length_mm}), inertia_m4
    (per segment), half_depth_m, alpha0_deg, motor_station,
    linear_density_kg_m.
    """
    payload = load_json(path)
    try:
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
    except (KeyError, TypeError, ValueError) as exc:
        raise ParseError(f"bad geometry: {exc}", path=str(path)) from None


def read_deflection_coeffs_json(path: str | Path) -> DeflectionModelCoeffs:
    """Load deflection coefficients JSON with keys a1, a2, b1, b2, alpha0_deg."""
    payload = load_json(path)
    try:
        return DeflectionModelCoeffs(
            a1=payload["a1"],
            a2=payload["a2"],
            b1=payload["b1"],
            b2=payload["b2"],
            alpha0=payload.get("alpha0_deg", 0.0),
        )
    except (KeyError, TypeError, ValueError) as exc:
        raise ParseError(f"bad coefficients: {exc}", path=str(path)) from None
