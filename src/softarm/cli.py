"""Command-line front end: data ingestion, pipeline orchestration, and
machine-readable JSON/CSV reporting.

Exit codes: 0 ok, 2 input error, 3 fit failure, 4 solver failure.
"""

from __future__ import annotations

import argparse
import csv
import functools
import hashlib
import io as _stdio
import json
import math
import sys
import warnings
from datetime import datetime, timezone
from importlib import resources
from pathlib import Path

from . import __version__, adapt, aero, beam, deflection
from . import io as sio
from . import material
from .errors import (
    CalibrationFailure,
    ChordTooLong,
    DegenerateData,
    EmptyRange,
    EmptyTable,
    LargeDeflectionWarning,
    NoConvergence,
    NonPhysicalMaterial,
    NonPhysicalWarning,
    OutOfEnvelopeWarning,
    ParseError,
    RankDeficient,
    ZeroArea,
)

EXIT_OK = 0
EXIT_INPUT = 2
EXIT_FIT = 3
EXIT_SOLVER = 4

_WARNING_CODES = {
    NonPhysicalWarning: "NONPHYSICAL_MATERIAL",
    OutOfEnvelopeWarning: "OUT_OF_ENVELOPE",
    LargeDeflectionWarning: "LARGE_DEFLECTION",
}


def default_data_dir() -> Path:
    return Path(str(resources.files("softarm").joinpath("data", "defaults")))


def _sha256(path: Path) -> str:
    return hashlib.sha256(Path(path).read_bytes()).hexdigest()


def _load_config(path: str | None) -> tuple[dict, Path]:
    """Load a run configuration; relative file references resolve against
    the config file's directory."""
    cfg_path = Path(path) if path else default_data_dir() / "config.json"
    try:
        payload = json.loads(cfg_path.read_text())
    except OSError as exc:
        raise ParseError(str(exc), path=str(cfg_path)) from None
    except json.JSONDecodeError as exc:
        raise ParseError(exc.msg, line=exc.lineno, path=str(cfg_path)) from None
    return payload, cfg_path.parent


def _resolve(base: Path, ref: str) -> Path:
    p = Path(ref)
    return p if p.is_absolute() else base / p


def _warning_entries(records) -> list[dict]:
    entries = []
    for rec in records:
        code = _WARNING_CODES.get(rec.category, "GENERIC")
        entries.append({"code": code, "message": str(rec.message)})
    return entries


def _make_report(results: dict, inputs: dict, warning_list: list[dict], timestamp: bool) -> dict:
    report = {
        "tool": {"name": "softarm", "version": __version__},
        "inputs": inputs,
        "results": results,
        "warnings": warning_list,
    }
    if timestamp:
        report["generated_at"] = datetime.now(timezone.utc).isoformat()
    return report


def _emit_json(report: dict, out: str | None, quiet: bool) -> None:
    # allow_nan=False: NaN and Infinity are not JSON, so a non-finite value
    # that got this far is an input error rather than a corrupt report.
    text = json.dumps(report, sort_keys=True, indent=2, allow_nan=False) + "\n"
    if out:
        Path(out).write_text(text)
        if not quiet:
            print(out)
    else:
        sys.stdout.write(text)


def _emit_csv(header: list[str], rows: list[list], out: str | None) -> None:
    buf = _stdio.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(header)
    for row in rows:
        writer.writerow([_fmt(v) for v in row])
    if out:
        Path(out).write_text(buf.getvalue())
    else:
        sys.stdout.write(buf.getvalue())


def _fmt(v):
    if isinstance(v, bool):
        return str(v).lower()
    if isinstance(v, float):
        return f"{v:.10g}"
    return v


def _mr_params_from_table(path: Path, infill_pct: float) -> material.MooneyRivlinParams:
    payload = json.loads(path.read_text())
    for row in payload["rows"]:
        if row["rho_pct"] == infill_pct:
            return material.MooneyRivlinParams(
                row["c10"], row["c01"], row["c20"], row["c02"], row["c11"]
            )
    raise ParseError(f"no hyperelastic row for infill {infill_pct}%", path=str(path))


def _mr_block(params: material.MooneyRivlinParams) -> dict:
    return {
        "unit": "MPa",
        "c10": params.c10,
        "c01": params.c01,
        "c20": params.c20,
        "c02": params.c02,
        "c11": params.c11,
    }


# ---------------------------------------------------------------------------
# subcommands


def cmd_fit_material(args) -> tuple[dict, dict]:
    results: dict = {"material": {}}
    inputs: dict = {}
    if not args.stress_strain and not args.flexural:
        raise ParseError("one of --stress-strain or --flexural is required")
    if args.stress_strain:
        path = Path(args.stress_strain)
        curve = sio.read_stress_strain_csv(path, infill_rate=args.infill)
        params = material.fit_mooney_rivlin(curve)
        e0 = material.mr_small_strain_modulus(params)
        diag = material.mr_fit_diagnostics(curve, params)
        results["material"]["mooney_rivlin"] = _mr_block(params)
        results["material"]["small_strain_modulus_mpa"] = e0
        results["material"].update(diag)
        inputs["stress_strain_csv"] = _sha256(path)
    if args.flexural:
        if args.length is None or args.inertia is None:
            raise ParseError("--flexural requires --length and --inertia")
        path = Path(args.flexural)
        samples = sio.read_flexural_csv(path)
        geometry = material.BeamTestGeometry(
            length=args.length, section_inertia=args.inertia, half_depth=args.half_depth
        )
        e_pa = material.fit_flexural_modulus(samples, geometry)
        results["material"]["flexural_modulus_pa"] = e_pa
        inputs["flexural_csv"] = _sha256(path)
    return results, inputs


def cmd_analyze(args) -> tuple[dict, dict]:
    config, base = _load_config(args.config)
    inputs: dict = {}

    geometry_path = _resolve(base, config["geometry"])
    table_path = _resolve(base, config["efficiency_table"])
    coeffs_path = _resolve(base, config["deflection_coeffs"])
    mr_path = _resolve(base, config["material"]["hyperelastic_table"])
    for label, p in [
        ("geometry", geometry_path),
        ("efficiency_table", table_path),
        ("deflection_coeffs", coeffs_path),
        ("hyperelastic_table", mr_path),
    ]:
        inputs[label] = _sha256(p)

    geometry = sio.read_arm_geometry_json(geometry_path)
    table = sio.read_efficiency_csv(table_path)
    coeffs = sio.read_deflection_coeffs_json(coeffs_path)
    infill = config["material"]["infill_pct"]
    mr_params = _mr_params_from_table(mr_path, infill)
    e0_mpa = material.mr_small_strain_modulus(mr_params)

    prop_cfg = config["propeller"]
    propeller = aero.PropellerModel.from_nominal(
        thrust=prop_cfg["nominal_thrust_n"], rpm=prop_cfg["nominal_rpm"]
    )
    max_rpm = prop_cfg["max_rpm"]

    solver_cfg = config.get("solver", {})
    settings = beam.SolverSettings(
        integration_steps=solver_cfg.get("integration_steps", 64),
        shooting_tolerance=solver_cfg.get("shooting_tolerance", 1e-7),
    )

    results: dict = {
        "material": {
            "infill_pct": infill,
            "mooney_rivlin": _mr_block(mr_params),
            "small_strain_modulus_mpa": e0_mpa,
        }
    }

    # Thrust/deflection sweep over the throttle grid.
    thr_cfg = config.get("throttle", {})
    max_pct = thr_cfg.get("max_pct", 100)
    step_pct = thr_cfg.get("step_pct", 10)
    sweep_rows = []
    pct = 0
    while pct <= max_pct:
        rpm = max_rpm * pct / 100.0
        thrust = aero.thrust_from_rpm(propeller, rpm)
        loads = beam.LoadCase(thrust=thrust, gravity=beam.GRAVITY)
        try:
            sol = beam.solve_elastica(geometry, mr_params, loads, settings)
        except NoConvergence as exc:
            raise NoConvergence(f"elastica failed at throttle {pct}%: {exc}") from exc
        eta = aero.efficiency_lookup(table, rpm) if rpm > 0 else 1.0
        if abs(sol.tip_angle_deg) > aero.EFFICIENCY_ANGLE_LIMIT_DEG:
            warnings.warn(
                f"arm angle {sol.tip_angle_deg:.1f} deg at throttle {pct}% is outside "
                "the +/-20 deg validity range of the efficiency table",
                OutOfEnvelopeWarning,
                stacklevel=2,
            )
        sweep_rows.append(
            {
                "throttle_pct": pct,
                "rpm": rpm,
                "thrust_n": thrust,
                "tip_angle_deg": sol.tip_angle_deg,
                "eta": eta,
                "net_vertical_thrust_n": (
                    aero.net_vertical_thrust(thrust, sol.tip_angle_deg, eta)
                    if abs(sol.tip_angle_deg) < 90.0
                    else 0.0
                ),
            }
        )
        pct += step_pct
    results["beam"] = {
        "throttle_sweep": sweep_rows,
        "max_abs_tip_angle_deg": max(abs(r["tip_angle_deg"]) for r in sweep_rows),
    }

    rpm_ref = config.get("rpm", prop_cfg["nominal_rpm"])
    model_params = aero.calibrate_efficiency_model(table)
    results["efficiency"] = {
        "rpm": rpm_ref,
        "eta": aero.efficiency_lookup(table, rpm_ref),
        "optimal_motor_station": aero.optimal_motor_station(),
        "eta_model_at_optimum": aero.efficiency_model(
            aero.optimal_motor_station(), rpm_ref, model_params
        ),
    }

    defl_cfg = config.get("deflection", {})
    bound = config.get("thresholds", {}).get("deflection_bound_deg", deflection.DEFLECTION_BOUND_DEG)
    envelope = {}
    for rho in defl_cfg.get("infill_rates_pct", [6, 8, 10]):
        rep = deflection.envelope_check(
            coeffs,
            rho,
            t_max=defl_cfg.get("t_max", deflection.T_MAX_DEFAULT),
            step=defl_cfg.get("step", 0.1),
            bound_deg=bound,
        )
        envelope[str(rho)] = {
            "max_abs_deflection_deg": rep.max_abs_deflection,
            "worst_throttle_t": rep.worst_throttle,
            "nonlinear_flag": rep.nonlinear_flag,
            "passes_14deg": rep.passes_14deg,
        }
    try:
        rec_lo, rec_hi = adapt.recommend_infill(coeffs)
        recommended = {"min_pct": rec_lo, "max_pct": rec_hi}
    except EmptyRange:
        recommended = None
    results["deflection"] = {
        "coefficients": {
            "a1": coeffs.a1,
            "a2": coeffs.a2,
            "b1": coeffs.b1,
            "b2": coeffs.b2,
            "alpha0_deg": coeffs.alpha0,
            "throttle_unit": "tens_of_percent",
        },
        "envelope": envelope,
        "recommended_infill": recommended,
    }

    pipe_cfg = config["pipe"]
    thresholds = config.get("thresholds", {})
    wrap = adapt.wrap_geometry(geometry, adapt.PipeSpec(pipe_cfg["diameter_m"]))
    pressure = adapt.contact_pressure(
        pipe_cfg["tendon_force_n"], pipe_cfg["contact_width_m"], geometry.total_length
    )
    verdict = adapt.attach_check(
        infill,
        pressure,
        bendable_infill_max=thresholds.get(
            "bendable_infill_max_pct", adapt.BENDABLE_INFILL_MAX_PCT
        ),
        attach_pressure_min=thresholds.get("attach_pressure_n_m2", adapt.ATTACH_PRESSURE_MIN),
    )
    results["pipe_fit"] = {
        "total_turning_deg": wrap.total_turning,
        "coverage_ratio": wrap.coverage_ratio,
        "max_gap_m": wrap.max_gap,
        "pressure_n_m2": verdict.pressure,
        "bendable": verdict.bendable,
        "attached": verdict.attached,
    }
    return results, inputs


def cmd_deflect(args) -> tuple[dict, dict]:
    inputs: dict = {}
    if args.coeffs:
        coeffs_path = Path(args.coeffs)
    else:
        coeffs_path = default_data_dir() / "deflection_coeffs.json"
    coeffs = sio.read_deflection_coeffs_json(coeffs_path)
    inputs["deflection_coeffs"] = _sha256(coeffs_path)
    if args.alpha0 is not None:
        coeffs = deflection.DeflectionModelCoeffs(
            coeffs.a1, coeffs.a2, coeffs.b1, coeffs.b2, alpha0=args.alpha0
        )
    results: dict = {"deflection": {"rho_pct": args.rho}}
    if args.throttle_pct is not None:
        t = args.throttle_pct * deflection.THROTTLE_UNIT_PER_PCT
        alpha = deflection.eval_deflection(coeffs, args.rho, t)
        results["deflection"].update(
            {"throttle_pct": args.throttle_pct, "throttle_t": t, "alpha_deg": alpha}
        )
    if args.envelope or args.throttle_pct is None:
        rep = deflection.envelope_check(coeffs, args.rho)
        results["deflection"]["envelope"] = {
            "max_abs_deflection_deg": rep.max_abs_deflection,
            "worst_throttle_t": rep.worst_throttle,
            "nonlinear_flag": rep.nonlinear_flag,
            "passes_14deg": rep.passes_14deg,
        }
    return results, inputs


def cmd_efficiency(args) -> tuple[dict, dict]:
    inputs: dict = {}
    table_path = Path(args.table) if args.table else default_data_dir() / "efficiency_table.csv"
    table = sio.read_efficiency_csv(table_path)
    inputs["efficiency_table"] = _sha256(table_path)
    params = aero.calibrate_efficiency_model(table)
    results = {
        "efficiency": {
            "rpm": args.rpm,
            "eta": aero.efficiency_lookup(table, args.rpm),
            "station": args.station,
            "eta_model": aero.efficiency_model(args.station, args.rpm, params),
            "optimal_motor_station": aero.optimal_motor_station(),
        }
    }
    return results, inputs


def cmd_pipe_fit(args) -> tuple[dict, dict]:
    inputs: dict = {}
    geometry_path = Path(args.geometry) if args.geometry else default_data_dir() / "arm_geometry.json"
    geometry = sio.read_arm_geometry_json(geometry_path)
    inputs["geometry"] = _sha256(geometry_path)
    wrap = adapt.wrap_geometry(geometry, adapt.PipeSpec(args.diameter))
    pressure = adapt.contact_pressure(args.tendon_force, args.contact_width, geometry.total_length)
    verdict = adapt.attach_check(args.infill, pressure)
    results = {
        "pipe_fit": {
            "total_turning_deg": wrap.total_turning,
            "coverage_ratio": wrap.coverage_ratio,
            "max_gap_m": wrap.max_gap,
            "per_segment_subtended_deg": list(wrap.per_segment_subtended),
            "pressure_n_m2": verdict.pressure,
            "bendable": verdict.bendable,
            "attached": verdict.attached,
        }
    }
    return results, inputs


def cmd_sweep(args) -> tuple[list[str], list[list]]:
    table_path = Path(args.table) if args.table else default_data_dir() / "efficiency_table.csv"
    table = sio.read_efficiency_csv(table_path)
    if args.axis == "motor_station":
        params = aero.calibrate_efficiency_model(table)
        rows = []
        n = int(round((1.0 - 0.3) / 0.01))
        for i in range(n + 1):
            x_c = 0.3 + 0.01 * i
            rows.append([x_c, aero.efficiency_model(x_c, args.rpm, params)])
        return ["x_c", "eta"], rows
    if args.axis == "arm_angle":
        propeller = aero.DEFAULT_PROPELLER
        thrust = aero.thrust_from_rpm(propeller, args.rpm)
        eta = aero.efficiency_lookup(table, args.rpm)
        rows = []
        for i in range(-45, 46):
            rows.append([float(i), aero.net_vertical_thrust(thrust, float(i), eta)])
        return ["alpha_deg", "net_vertical_thrust_n"], rows
    if args.axis == "throttle":
        coeffs = sio.read_deflection_coeffs_json(default_data_dir() / "deflection_coeffs.json")
        rows = []
        n = int(round(deflection.T_MAX_DEFAULT / 0.1))
        for i in range(n + 1):
            t = 0.1 * i
            rows.append([t, deflection.eval_deflection(coeffs, args.rho, t)])
        return ["throttle_t", "alpha_deg"], rows
    if args.axis == "infill":
        geometry = sio.read_arm_geometry_json(default_data_dir() / "arm_geometry.json")
        pressure = adapt.contact_pressure(
            args.tendon_force, args.contact_width, geometry.total_length
        )
        rows = []
        n = int(round((20.0 - 4.0) / 0.5))
        for i in range(n + 1):
            rho = 4.0 + 0.5 * i
            verdict = adapt.attach_check(rho, pressure)
            rows.append([rho, verdict.pressure, verdict.bendable, verdict.attached])
        return ["rho_pct", "pressure_n_m2", "bendable", "attached"], rows
    raise ParseError(f"unknown sweep axis {args.axis!r}")


# ---------------------------------------------------------------------------
# argument parsing and dispatch


def _finite_float(text: str) -> float:
    """argparse type for numeric options: a float that is neither NaN nor
    infinite, so a bad number exits 2 instead of reaching a report."""
    try:
        value = float(text)
    except ValueError:
        value = math.nan
    if not math.isfinite(value):
        raise argparse.ArgumentTypeError(f"expected a finite number, got {text!r}")
    return value


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The argument parser, built once per process. parse_args returns a
    fresh namespace on every call and leaves the parser unchanged, so one
    parser serves every main() call."""
    # Global flags accepted both before and after the subcommand; SUPPRESS
    # keeps the subparser from clobbering values parsed by the main parser.
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument(
        "--config", default=argparse.SUPPRESS, help="run configuration JSON (default: shipped config)"
    )
    common.add_argument("--out", default=argparse.SUPPRESS, help="output file (default: stdout)")
    common.add_argument("--format", choices=["json", "csv"], default=argparse.SUPPRESS)
    common.add_argument(
        "--quiet", action="store_true", default=argparse.SUPPRESS,
        help="suppress non-essential output",
    )
    common.add_argument(
        "--timestamp", action="store_true", default=argparse.SUPPRESS,
        help="include a generation timestamp in the report",
    )

    parser = argparse.ArgumentParser(
        prog="softarm",
        description="Design/analysis toolkit for soft 3D-printed propelled arms.",
        parents=[common],
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("fit-material", help="fit material models from test CSVs", parents=[common])
    p.add_argument("--stress-strain", help="strain,stress_pa CSV for the hyperelastic fit")
    p.add_argument("--infill", type=_finite_float, default=0.0, help="specimen infill rate [%%]")
    p.add_argument("--flexural", help="force_n,deflection_m CSV for the flexural-modulus fit")
    p.add_argument("--length", type=_finite_float, help="cantilever test length [m]")
    p.add_argument("--inertia", type=_finite_float, help="section inertia [m^4]")
    p.add_argument("--half-depth", type=_finite_float, help="section half depth [m]")
    p.set_defaults(handler=cmd_fit_material)

    p = sub.add_parser("analyze", help="full analysis pipeline from a run config", parents=[common])
    p.set_defaults(handler=cmd_analyze)

    p = sub.add_parser("deflect", help="evaluate the empirical deflection model", parents=[common])
    p.add_argument("--rho", type=_finite_float, required=True, help="infill rate [%%]")
    p.add_argument("--throttle-pct", type=_finite_float, help="throttle [%%]")
    p.add_argument("--envelope", action="store_true", help="include the envelope scan")
    p.add_argument("--coeffs", help="deflection coefficients JSON")
    p.add_argument("--alpha0", type=_finite_float, help="override unpowered droop [deg]")
    p.set_defaults(handler=cmd_deflect)

    p = sub.add_parser("efficiency", help="thrust efficiency lookup and surrogate", parents=[common])
    p.add_argument("--rpm", type=_finite_float, required=True)
    p.add_argument("--station", type=_finite_float, default=aero.OPTIMUM_MOTOR_STATION)
    p.add_argument("--table", help="rpm,eta CSV (default: shipped table)")
    p.set_defaults(handler=cmd_efficiency)

    p = sub.add_parser("pipe-fit", help="pipe wrap and attachment feasibility", parents=[common])
    p.add_argument("--diameter", type=_finite_float, required=True, help="pipe diameter [m]")
    p.add_argument("--geometry", help="arm geometry JSON (default: shipped geometry)")
    p.add_argument("--tendon-force", type=_finite_float, default=12.0)
    p.add_argument("--contact-width", type=_finite_float, default=0.05)
    p.add_argument("--infill", type=_finite_float, default=6.0)
    p.set_defaults(handler=cmd_pipe_fit)

    p = sub.add_parser("sweep", help="grid sweeps of the reduced models (CSV)", parents=[common])
    p.add_argument(
        "--axis",
        required=True,
        choices=["motor_station", "arm_angle", "throttle", "infill"],
    )
    p.add_argument("--rpm", type=_finite_float, default=4000.0)
    p.add_argument("--rho", type=_finite_float, default=6.0)
    p.add_argument("--tendon-force", type=_finite_float, default=12.0)
    p.add_argument("--contact-width", type=_finite_float, default=0.05)
    p.add_argument("--table", help="rpm,eta CSV (default: shipped table)")
    p.set_defaults(handler=cmd_sweep)

    return parser


_GLOBAL_FLAG_DEFAULTS = {
    "config": None,
    "out": None,
    "format": None,
    "quiet": False,
    "timestamp": False,
}


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    # The shared flags use SUPPRESS defaults so a value parsed before the
    # subcommand survives; fill in the fallbacks afterwards.
    for key, value in _GLOBAL_FLAG_DEFAULTS.items():
        if not hasattr(args, key):
            setattr(args, key, value)
    try:
        with warnings.catch_warnings(record=True) as records:
            warnings.simplefilter("always")
            outcome = args.handler(args)
        if args.command == "sweep":
            header, rows = outcome
            if args.format == "json":
                payload = [dict(zip(header, row)) for row in rows]
                report = _make_report(
                    {"sweep": {"axis": args.axis, "rows": payload}},
                    {},
                    _warning_entries(records),
                    args.timestamp,
                )
                _emit_json(report, args.out, args.quiet)
            else:
                _emit_csv(header, rows, args.out)
        else:
            results, inputs = outcome
            report = _make_report(results, inputs, _warning_entries(records), args.timestamp)
            _emit_json(report, args.out, args.quiet)
        return EXIT_OK
    except (ParseError, ChordTooLong, ZeroArea, EmptyTable, FileNotFoundError, OSError) as exc:
        print(f"softarm: input error: {exc}", file=sys.stderr)
        return EXIT_INPUT
    except (RankDeficient, DegenerateData, CalibrationFailure, EmptyRange) as exc:
        print(f"softarm: fit error: {exc}", file=sys.stderr)
        return EXIT_FIT
    except (NoConvergence, NonPhysicalMaterial) as exc:
        print(f"softarm: solver error: {exc}", file=sys.stderr)
        return EXIT_SOLVER
    except (KeyError, TypeError, ValueError) as exc:
        print(f"softarm: input error: {exc}", file=sys.stderr)
        return EXIT_INPUT


def entrypoint() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entrypoint()
