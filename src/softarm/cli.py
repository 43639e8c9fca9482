"""Command-line front end: data ingestion, pipeline orchestration, and
machine-readable JSON/CSV reporting.

Every subcommand is one handler that reads its input files through
`_read_input` (which records their SHA-256 digests), runs the library and
returns `(results, inputs)`. `main` wraps them in a report, or writes the
rows of a `sweep` as CSV and its warnings to stderr, and turns an error
into the exit code its class carries (see `errors`): 0 ok, 2 input error,
3 fit failure, 4 solver failure.
"""

from __future__ import annotations

import argparse
import functools
import hashlib
import json
import sys
import warnings
from pathlib import Path

from . import __version__, adapt, aero, beam, deflection
from . import io as sio
from . import material
from .errors import (
    EmptyRange,
    FitError,
    InputError,
    NoConvergence,
    OutOfEnvelopeWarning,
    ParseError,
    SoftarmError,
    _echo,
    require_finite,
)

EXIT_OK = 0
EXIT_INPUT = InputError.exit_code
EXIT_FIT = FitError.exit_code

#: How `softarm analyze` analyses the arm its config describes: the solver
#: settings, the throttle grid [%] of the elastica sweep and the infill rows
#: [%] of the deflection envelope.
SOLVER_SETTINGS = beam.SolverSettings(integration_steps=64, shooting_tolerance=1e-7)
THROTTLE_GRID_PCT = range(0, 101, 10)
ENVELOPE_INFILL_PCT = (6, 8, 10)
#: The keys of an analyze config, all required and no others accepted: a
#: section maps to its keys, a key to what its value must be, a file (a name
#: that resolves against the config's directory), a finite number, or a
#: finite number > 0.
_CONFIG_KEYS = {
    "geometry": "file",
    "efficiency_table": "file",
    "deflection_coeffs": "file",
    "material": {"hyperelastic_table": "file", "infill_pct": "finite"},
    "propeller": {"nominal_thrust_n": "finite", "nominal_rpm": "finite", "max_rpm": "> 0"},
    "pipe": {"diameter_m": "finite", "contact_width_m": "finite", "tendon_force_n": "finite"},
}


def default_data_dir() -> Path:
    return Path(__file__).parent / "data" / "defaults"


def _read_input(inputs: dict, label: str, reader, path, *args):
    """Read one input file with reader(path, *args) and record its SHA-256
    digest under label in inputs. The digest reads the file a second time,
    after the reader has parsed it."""
    path = Path(path)
    value = reader(path, *args)
    inputs[label] = hashlib.sha256(path.read_bytes()).hexdigest()
    return value


def _warning_entries(records) -> list[dict]:
    return [
        {"code": getattr(rec.category, "code", "GENERIC"), "message": str(rec.message)}
        for rec in records
    ]


def _make_report(results: dict, inputs: dict, warning_list: list[dict], timestamp: bool) -> dict:
    report = {
        "tool": {"name": "softarm", "version": __version__},
        "inputs": inputs,
        "results": results,
        "warnings": warning_list,
    }
    if timestamp:
        from datetime import datetime, timezone

        report["generated_at"] = datetime.now(timezone.utc).isoformat()
    return report


def _write(text: str, out: str | None) -> None:
    if out:
        Path(out).write_text(text)
    else:
        sys.stdout.write(text)


def _emit_json(report: dict, out: str | None, quiet: bool) -> None:
    # allow_nan=False: NaN and Infinity are not JSON, so a non-finite value
    # that got this far is an input error rather than a corrupt report.
    _write(json.dumps(report, sort_keys=True, indent=2, allow_nan=False) + "\n", out)
    if out and not quiet:
        print(out)


def _emit_csv(results: dict, out: str | None) -> None:
    """Write the rows of the one table in results as CSV, with a header. No
    field needs quoting: the keys are names, the cells numbers and booleans."""
    ((_, table),) = results.items()
    rows = table["rows"]
    lines = [",".join(rows[0])]
    lines += [",".join([("true" if v else "false") if type(v) is bool else f"{v:.10g}"
                        for v in row.values()]) for row in rows]
    _write("\n".join(lines) + "\n", out)


def _check_keys(obj: dict, expected: dict, path: Path, prefix: str = "") -> None:
    """Check obj against expected, a level of _CONFIG_KEYS, in its order:
    raise ParseError naming the keys of obj that expected lacks, else the
    first key of expected that obj lacks, is not an object where it names a
    section (then checked alike), is not the non-empty file name or the
    number it says; resolve each file name in obj against path's directory."""
    sio._reject_unknown(obj, expected, path, "config", prefix)
    for key, kind in expected.items():
        name, value = prefix + key, obj.get(key)
        if key not in obj:
            kind = "section" if isinstance(kind, dict) else "key"
            raise ParseError(f"config has no {name!r} {kind}", path=str(path))
        if isinstance(kind, dict):
            if not isinstance(value, dict):
                raise ParseError(f"config section {key!r} must be an object, "
                                 f"got {type(value).__name__}", path=str(path))
            _check_keys(value, kind, path, f"{key}.")
        elif kind == "file":
            if not isinstance(value, str) or not value:
                raise ParseError(f"{name} must be a file name, got {_echo(value)}", path=str(path))
            obj[key] = path.parent / value
        else:
            with sio.blame(path):
                require_finite(**{name: value})
                if kind == "> 0" and value <= 0:
                    raise ValueError(f"{name} must be > 0, got {_echo(value)}")


def _material_block(params: material.MooneyRivlinParams) -> dict:
    """Mooney-Rivlin coefficients and small-strain modulus [MPa], which warns if not positive."""
    return {
        "mooney_rivlin": {"unit": "MPa", **params.asdict()},
        "small_strain_modulus_mpa": material.mr_small_strain_modulus(params),
    }


def _envelope_block(rep: deflection.EnvelopeReport) -> dict:
    return {
        "max_abs_deflection_deg": rep.max_abs_deflection,
        "worst_throttle_t": rep.worst_throttle,
        "nonlinear_flag": rep.nonlinear_flag,
        "passes_14deg": rep.passes_14deg,
    }


def _attachment_fields(infill: float, pressure: float) -> dict:
    verdict = adapt.attach_check(infill, pressure)
    return {
        "pressure_n_m2": verdict.pressure,
        "bendable": verdict.bendable,
        "attached": verdict.attached,
    }


def _pipe_fit_block(wrap: adapt.WrapResult, infill: float, pressure: float) -> dict:
    """A pipe fit's wrap and attachment block."""
    return {
        "total_turning_deg": wrap.total_turning,
        "coverage_ratio": wrap.coverage_ratio,
        "max_gap_m": wrap.max_gap,
        **_attachment_fields(infill, pressure),
    }


# ---------------------------------------------------------------------------
# subcommands


def cmd_fit_material(args) -> tuple[dict, dict]:
    results: dict = {"material": {}}
    inputs: dict = {}
    if not args.stress_strain and not args.flexural:
        raise ParseError("one of --stress-strain or --flexural is required")
    if args.stress_strain:
        curve = _read_input(
            inputs, "stress_strain_csv", sio.read_stress_strain_csv, args.stress_strain
        )
        params, diagnostics = material.fit_mooney_rivlin(curve)
        results["material"].update(_material_block(params))
        results["material"].update(diagnostics)
    if args.flexural:
        if args.length is None or args.inertia is None:
            raise ParseError("--flexural requires --length and --inertia")
        samples = _read_input(inputs, "flexural_csv", sio.read_flexural_csv, args.flexural)
        e_pa = material.fit_flexural_modulus(samples, args.length, args.inertia)
        results["material"]["flexural_modulus_pa"] = e_pa
    return results, inputs


def cmd_analyze(args) -> tuple[dict, dict]:
    config = sio.load_json(args.config, "config")
    _check_keys(config, _CONFIG_KEYS, args.config)
    mat_cfg, prop_cfg, pipe_cfg = config["material"], config["propeller"], config["pipe"]
    infill = mat_cfg["infill_pct"]
    inputs: dict = {}
    geometry = _read_input(inputs, "geometry", sio.read_arm_geometry_json, config["geometry"])
    table = _read_input(inputs, "efficiency_table", sio.read_efficiency_csv,
                        config["efficiency_table"])
    coeffs = _read_input(inputs, "deflection_coeffs", sio.read_deflection_coeffs_json,
                         config["deflection_coeffs"])
    mr_params = _read_input(inputs, "hyperelastic_table", sio.read_hyperelastic_row,
                            mat_cfg["hyperelastic_table"], infill)
    results: dict = {"material": {"infill_pct": infill, **_material_block(mr_params)}}

    with sio.blame(args.config, "propeller.nominal_thrust_n", "propeller.nominal_rpm"):
        propeller = aero.PropellerModel.from_nominal(
            thrust=prop_cfg["nominal_thrust_n"], rpm=prop_cfg["nominal_rpm"]
        )
    max_rpm = prop_cfg["max_rpm"]
    with sio.blame(args.config, "propeller.nominal_thrust_n", "propeller.nominal_rpm",
                   "propeller.max_rpm"):  # then every lower speed is in range
        aero.thrust_from_rpm(propeller, max_rpm)

    # Thrust/deflection sweep over the throttle grid.
    sweep_rows = []
    for pct in THROTTLE_GRID_PCT:
        rpm = max_rpm * pct / 100.0
        thrust = aero.thrust_from_rpm(propeller, rpm)
        loads = beam.LoadCase(thrust=thrust)
        try:
            sol = beam.solve_elastica(geometry, mr_params, loads, SOLVER_SETTINGS)
        except NoConvergence as exc:
            raise NoConvergence(f"elastica failed at throttle {pct}%: {exc}") from exc
        eta = aero.efficiency_lookup(table, rpm) if rpm > 0 else 1.0
        if abs(sol.tip_angle_deg) > aero.EFFICIENCY_ANGLE_LIMIT_DEG:
            warnings.warn(
                f"arm angle {sol.tip_angle_deg:.1f} deg at throttle {pct}% is outside the +/-"
                f"{aero.EFFICIENCY_ANGLE_LIMIT_DEG:g} deg validity range of the efficiency table",
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
    results["beam"] = {
        "throttle_sweep": sweep_rows,
        "max_abs_tip_angle_deg": max(abs(r["tip_angle_deg"]) for r in sweep_rows),
    }

    rpm_ref = prop_cfg["nominal_rpm"]
    station = aero.OPTIMUM_MOTOR_STATION
    results["efficiency"] = {
        "rpm": rpm_ref,
        "eta": aero.efficiency_lookup(table, rpm_ref),
        "optimal_motor_station": station,
        "eta_model_at_optimum": aero.efficiency_model(station, rpm_ref, table),
    }

    envelope = {
        str(rho): _envelope_block(deflection.envelope_check(coeffs, rho))
        for rho in ENVELOPE_INFILL_PCT
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

    with sio.blame(args.config, "pipe.diameter_m"):
        pipe = adapt.PipeSpec(pipe_cfg["diameter_m"])
    with sio.blame(args.config, "geometry", "pipe.diameter_m"):
        wrap = adapt.wrap_geometry(geometry, pipe)
    with sio.blame(args.config, "pipe.tendon_force_n", "pipe.contact_width_m"):
        pressure = adapt.contact_pressure(
            pipe_cfg["tendon_force_n"], pipe_cfg["contact_width_m"], geometry.total_length)
    results["pipe_fit"] = _pipe_fit_block(wrap, infill, pressure)
    return results, inputs


def cmd_deflect(args) -> tuple[dict, dict]:
    inputs: dict = {}
    coeffs = _read_input(inputs, "deflection_coeffs", sio.read_deflection_coeffs_json, args.coeffs)
    if args.alpha0 is not None:
        coeffs = coeffs.replace(alpha0=args.alpha0)
    results: dict = {"deflection": {"rho_pct": args.rho}}
    if args.throttle_pct is not None:
        t = args.throttle_pct * deflection.THROTTLE_UNIT_PER_PCT
        alpha = deflection.eval_deflection(coeffs, args.rho, t)
        results["deflection"].update(
            {"throttle_pct": args.throttle_pct, "throttle_t": t, "alpha_deg": alpha}
        )
    if args.envelope or args.throttle_pct is None:
        rep = deflection.envelope_check(coeffs, args.rho)
        results["deflection"]["envelope"] = _envelope_block(rep)
    return results, inputs


def cmd_efficiency(args) -> tuple[dict, dict]:
    inputs: dict = {}
    table = _read_input(inputs, "efficiency_table", sio.read_efficiency_csv, args.table)
    results = {
        "efficiency": {
            "rpm": args.rpm,
            "eta": aero.efficiency_lookup(table, args.rpm),
            "station": args.station,
            "eta_model": aero.efficiency_model(args.station, args.rpm, table),
            "optimal_motor_station": aero.OPTIMUM_MOTOR_STATION,
        }
    }
    return results, inputs


def cmd_pipe_fit(args) -> tuple[dict, dict]:
    inputs: dict = {}
    geometry = _read_input(inputs, "geometry", sio.read_arm_geometry_json, args.geometry)
    pipe = adapt.PipeSpec(args.diameter)
    with sio.blame(args.geometry, "--diameter"):
        wrap = adapt.wrap_geometry(geometry, pipe)
    pressure = adapt.contact_pressure(args.tendon_force, args.contact_width, geometry.total_length)
    block = _pipe_fit_block(wrap, args.infill, pressure)
    block["per_segment_subtended_deg"] = list(wrap.per_segment_subtended)
    return {"pipe_fit": block}, inputs


def cmd_sweep(args) -> tuple[dict, dict]:
    inputs: dict = {}
    if args.axis == "motor_station":
        table = _read_input(inputs, "efficiency_table", sio.read_efficiency_csv, args.table)
        stations = [0.3 + 0.01 * i for i in range(71)]
        rows = [{"x_c": x, "eta": aero.efficiency_model(x, args.rpm, table)} for x in stations]
    elif args.axis == "arm_angle":
        table = _read_input(inputs, "efficiency_table", sio.read_efficiency_csv, args.table)
        thrust = aero.thrust_from_rpm(aero.DEFAULT_PROPELLER, args.rpm)
        eta = aero.efficiency_lookup(table, args.rpm)
        rows = [
            {"alpha_deg": a, "net_vertical_thrust_n": aero.net_vertical_thrust(thrust, a, eta)}
            for a in map(float, range(-45, 46))
        ]
    elif args.axis == "throttle":
        coeffs = _read_input(
            inputs, "deflection_coeffs", sio.read_deflection_coeffs_json,
            default_data_dir() / "deflection_coeffs.json",
        )
        rows = [
            {"throttle_t": t, "alpha_deg": deflection.eval_deflection(coeffs, args.rho, t)}
            for t in deflection.THROTTLE_GRID
        ]
    else:  # infill
        geometry = _read_input(
            inputs, "geometry", sio.read_arm_geometry_json,
            default_data_dir() / "arm_geometry.json",
        )
        pressure = adapt.contact_pressure(
            args.tendon_force, args.contact_width, geometry.total_length
        )
        rows = [
            {"rho_pct": rho, **_attachment_fields(rho, pressure)}
            for rho in (4.0 + 0.5 * i for i in range(33))
        ]
    return {"sweep": {"axis": args.axis, "rows": rows}}, inputs


# ---------------------------------------------------------------------------
# argument parsing and dispatch


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The argument parser, built once per process. parse_args returns a
    fresh namespace on every call and leaves the parser unchanged, so one
    parser serves every main() call. Each option is on the subcommands that
    read it; an input file option defaults to the shipped file."""
    data = default_data_dir()
    # Output flags accepted both before and after the subcommand; SUPPRESS
    # keeps the subparser from clobbering values parsed by the main parser.
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--out", default=argparse.SUPPRESS, help="output file (default: stdout)")
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
    p.add_argument("--infill", type=sio._finite_float, default=0.0,
                   help="specimen infill rate [%%]; accepted, not used by the fit")
    p.add_argument("--flexural", help="force_n,deflection_m CSV for the flexural-modulus fit")
    p.add_argument("--length", type=sio._finite_float, help="cantilever test length [m]")
    p.add_argument("--inertia", type=sio._finite_float, help="section inertia [m^4]")
    p.set_defaults(handler=cmd_fit_material)

    p = sub.add_parser("analyze", help="full analysis pipeline from a run config", parents=[common])
    p.add_argument(
        "--config", type=Path, default=data / "config.json",
        help="run configuration JSON (default: shipped config)",
    )
    p.set_defaults(handler=cmd_analyze)

    p = sub.add_parser("deflect", help="evaluate the empirical deflection model", parents=[common])
    p.add_argument("--rho", type=sio._finite_float, required=True, help="infill rate [%%]")
    p.add_argument("--throttle-pct", type=sio._finite_float, help="throttle [%%]")
    p.add_argument("--envelope", action="store_true", help="include the envelope scan")
    p.add_argument(
        "--coeffs", default=data / "deflection_coeffs.json",
        help="deflection coefficients JSON (default: shipped coefficients)",
    )
    p.add_argument("--alpha0", type=sio._finite_float, help="override unpowered droop [deg]")
    p.set_defaults(handler=cmd_deflect)

    p = sub.add_parser("efficiency", help="thrust efficiency lookup and surrogate", parents=[common])
    p.add_argument("--rpm", type=sio._finite_float, required=True)
    p.add_argument("--station", type=sio._finite_float, default=aero.OPTIMUM_MOTOR_STATION)
    p.add_argument(
        "--table", default=data / "efficiency_table.csv",
        help="rpm,eta CSV (default: shipped table)",
    )
    p.set_defaults(handler=cmd_efficiency)

    p = sub.add_parser("pipe-fit", help="pipe wrap and attachment feasibility", parents=[common])
    p.add_argument("--diameter", type=sio._finite_float, required=True, help="pipe diameter [m]")
    p.add_argument(
        "--geometry", default=data / "arm_geometry.json",
        help="arm geometry JSON (default: shipped geometry)",
    )
    p.add_argument("--tendon-force", type=sio._finite_float, default=12.0)
    p.add_argument("--contact-width", type=sio._finite_float, default=0.05)
    p.add_argument("--infill", type=sio._finite_float, default=6.0)
    p.set_defaults(handler=cmd_pipe_fit)

    p = sub.add_parser("sweep", help="grid sweeps of the reduced models", parents=[common])
    p.add_argument(
        "--axis",
        required=True,
        choices=["motor_station", "arm_angle", "throttle", "infill"],
    )
    p.add_argument("--format", choices=["json", "csv"], default="csv")
    p.add_argument("--rpm", type=sio._finite_float, default=4000.0)
    p.add_argument("--rho", type=sio._finite_float, default=6.0)
    p.add_argument("--tendon-force", type=sio._finite_float, default=12.0)
    p.add_argument("--contact-width", type=sio._finite_float, default=0.05)
    p.add_argument(
        "--table", default=data / "efficiency_table.csv",
        help="rpm,eta CSV for the motor_station and arm_angle axes (default: shipped table)",
    )
    p.set_defaults(handler=cmd_sweep)

    return parser


#: Fallbacks for the output flags (SUPPRESS leaves them unset when absent)
#: and for --format, which only `sweep` takes: every other command writes JSON.
_FLAG_DEFAULTS = {"out": None, "format": "json", "quiet": False, "timestamp": False}


def _report_error(exc: Exception, kind: type[SoftarmError]) -> int:
    print(f"softarm: {kind.label} error: {exc}", file=sys.stderr)
    return kind.exit_code


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    for key, value in _FLAG_DEFAULTS.items():
        if not hasattr(args, key):
            setattr(args, key, value)
    try:
        with warnings.catch_warnings(record=True) as records:
            warnings.simplefilter("always")
            results, inputs = args.handler(args)
        warning_list = _warning_entries(records)
        if args.format == "csv":
            # A CSV table has no place for warnings, so they go to stderr.
            for entry in warning_list:
                print(f"softarm: warning: {entry['code']}: {entry['message']}", file=sys.stderr)
            _emit_csv(results, args.out)
        else:
            report = _make_report(results, inputs, warning_list, args.timestamp)
            _emit_json(report, args.out, args.quiet)
        return EXIT_OK
    except SoftarmError as exc:
        return _report_error(exc, type(exc))
    except (OSError, KeyError, TypeError, ValueError, OverflowError) as exc:
        return _report_error(exc, InputError)


def entrypoint() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entrypoint()
