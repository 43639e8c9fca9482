"""File formats and the command-line front end."""

import csv
import hashlib
import io
import json
import os
import random
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest
from conftest import copy_defaults
from hypothesis import example, given
from hypothesis import strategies as st

from softarm import adapt, aero, deflection, errors
from softarm import io as sio
from softarm.aero import EfficiencyTable
from softarm.cli import (
    EXIT_FIT,
    EXIT_INPUT,
    EXIT_OK,
    EXIT_OUTPUT,
    _render,
    build_parser,
    default_data_dir,
    main,
)
from softarm.deflection import THROTTLE_GRID, eval_deflection
from softarm.errors import ParseError
from softarm.material import MooneyRivlinParams, mr_uniaxial_stress

RHO6 = MooneyRivlinParams(-3.19, 4.23, 0.64, -2.65, 4.37)


def write_stress_strain(path, params=RHO6, n=40):
    lines = ["strain,stress_pa"]
    for lam in np.linspace(1.01, 1.5, n):
        stress_pa = mr_uniaxial_stress(params, float(lam)) * 1e6
        lines.append(f"{lam - 1.0:.12g},{stress_pa:.12g}")
    Path(path).write_text("\n".join(lines) + "\n")


def run(capsys, argv):
    code = main(argv)
    out = capsys.readouterr().out
    return code, out


def warning_entries(records) -> list[dict]:
    """The warnings a JSON report holds for the warnings recorded."""
    return json.loads(_render({}, {}, records, "json", False)[0])["warnings"]


def seeded(lo, hi, seed, n=5):
    """n option values drawn uniformly from [lo, hi] and written as the
    benchmark's reduced_cli workload writes them."""
    rng = random.Random(seed)
    return [f"{rng.uniform(lo, hi):.6g}" for _ in range(n)]


SHIPPED_TABLE = sio.read_efficiency_csv(default_data_dir() / "efficiency_table.csv")
SHIPPED_COEFFS = sio.read_deflection_coeffs_json(default_data_dir() / "deflection_coeffs.json")


def per_point(axis, value, row):
    """What the public per-point function gives at row's grid point of
    `sweep --axis axis` with the axis's option at value."""
    if axis == "motor_station":
        return aero.efficiency_model(row["x_c"], value, SHIPPED_TABLE)
    if axis == "arm_angle":
        thrust = aero.thrust_from_rpm(aero.DEFAULT_PROPELLER, value)
        eta = aero.efficiency_lookup(SHIPPED_TABLE, value)
        return aero.net_vertical_thrust(thrust, row["alpha_deg"], eta)
    return eval_deflection(SHIPPED_COEFFS, value, row["throttle_t"])


class TestCsvIngestion:
    def test_bad_value_reports_line_number(self, tmp_path):
        p = tmp_path / "bad.csv"
        p.write_text("rpm,eta\n4000,0.895\nfast,0.9\n")
        with pytest.raises(ParseError) as info:
            sio.read_efficiency_csv(p)
        assert info.value.line == 3

    def test_bad_header_reports_line_one(self, tmp_path):
        p = tmp_path / "bad.csv"
        p.write_text("speed,eta\n4000,0.895\n")
        with pytest.raises(ParseError) as info:
            sio.read_efficiency_csv(p)
        assert info.value.line == 1

    def test_empty_file(self, tmp_path):
        p = tmp_path / "empty.csv"
        p.write_text("")
        with pytest.raises(ParseError):
            sio.read_efficiency_csv(p)

    def test_missing_file(self, tmp_path):
        with pytest.raises(ParseError):
            sio.read_efficiency_csv(tmp_path / "nope.csv")

    def test_blank_lines_skipped(self, tmp_path):
        p = tmp_path / "table.csv"
        p.write_text("rpm,eta\n4000,0.895\n\n5000,0.909\n")
        table = sio.read_efficiency_csv(p)
        assert len(table.rows) == 2

    @pytest.mark.parametrize(
        "reader,header",
        [(sio.read_flexural_csv, "force_n,deflection_m"), (sio.read_efficiency_csv, "rpm,eta")],
        ids=["flexural", "efficiency"],
    )
    def test_header_only_reports_line_two(self, reader, header, tmp_path):
        p = tmp_path / "header_only.csv"
        p.write_text(header + "\n\n")
        with pytest.raises(ParseError, match="no data rows") as info:
            reader(p)
        assert info.value.line == 2


    @pytest.mark.parametrize(
        "reader,text,line,message",
        [
            (sio.read_efficiency_csv, "rpm,eta\n4000,0.895\n5000,0.909\n4500,0.9\n", 4,
             "rpm values must be strictly increasing"),
            (sio.read_efficiency_csv, "rpm,eta\n4000,0.895\n5000,0.909\n6000,1.5\n", 4,
             "eta values must be in (0, 1]"),
            (sio.read_stress_strain_csv, "strain,stress_pa\n0,0\n0.1,1e5\n0.2,2e5\n0.15,1.5e5\n",
             5, "strains must be strictly increasing"),
            (sio.read_flexural_csv, "force_n,deflection_m\n1,0.01\n-2,0.02\n", 3,
             "force must be >= 0, got -2.0"),
        ],
        ids=["rpm_decreasing", "eta_above_1", "strain_decreasing", "negative_force"],
    )
    def test_record_error_names_its_line(self, reader, text, line, message, tmp_path):
        p = tmp_path / "data.csv"
        p.write_text(text)
        with pytest.raises(ParseError) as info:
            reader(p)
        assert info.value.line == line
        assert str(info.value) == f"{p}:{line}: {message}"

    @pytest.mark.parametrize("bad", [1, 2, 500, 999, None])
    def test_record_error_is_found_in_few_builds(self, bad):
        # 1,000 rows whose last is out of order and whose row `bad` has eta
        # 1.5. The error, line and message, is that of the fewest leading
        # rows that fail (the whole table fails on its rpm first), found in
        # at most ceil(log2 1000) + 2 = 12 builds, not in one build per row.
        rows = [(n + 2, [4000.0 + n, 0.5]) for n in range(1000)]
        rows[-1][1][0] = 0.0
        if bad:
            rows[bad - 1][1][1] = 1.5
        builds = []

        def make(values):
            builds.append(len(values))
            return EfficiencyTable(values)

        with pytest.raises(ParseError) as info:
            sio._from_rows("table.csv", rows, make)
        line, message = ((bad + 1, "eta values must be in (0, 1]") if bad
                         else (1001, "rpm values must be strictly increasing"))
        assert str(info.value) == f"table.csv:{line}: {message}"
        assert len(builds) <= 12

    @pytest.mark.parametrize(
        "row,message",
        [
            ("inf,x", "non-finite number inf is not allowed"),
            ("x,inf", "could not convert string to float: 'x'"),
            ("1,-nan", "non-finite number -nan is not allowed"),
        ],
    )
    def test_first_bad_cell_of_a_row_names_the_error(self, row, message, tmp_path):
        p = tmp_path / "table.csv"
        p.write_text(f"rpm,eta\n4000,0.895\n{row}\n")
        with pytest.raises(ParseError) as info:
            sio._read_csv_rows(p, ["rpm", "eta"])
        assert str(info.value) == f"{p}:3: {message}"


class TestGeometryJson:
    def test_shipped_geometry_units(self):
        geom = sio.read_arm_geometry_json(default_data_dir() / "arm_geometry.json")
        assert geom.total_length == pytest.approx(0.175, rel=1e-12)  # mm -> m
        assert geom.total_turning_deg == pytest.approx(95.0)

    def test_missing_key(self, tmp_path):
        p = tmp_path / "geom.json"
        p.write_text('{"segments": []}')
        with pytest.raises(ParseError):
            sio.read_arm_geometry_json(p)


class TestFitMaterialCommand:
    def test_stress_strain_round_trip(self, tmp_path, capsys):
        csv_path = tmp_path / "curve.csv"
        write_stress_strain(csv_path)
        code, out = run(
            capsys,
            ["fit-material", "--stress-strain", str(csv_path), "--infill", "6"],
        )
        assert code == EXIT_OK
        report = json.loads(out)
        mr = report["results"]["material"]["mooney_rivlin"]
        for key, want in zip(
            ("c10", "c01", "c20", "c02", "c11"), RHO6.as_array()
        ):
            assert mr[key] == pytest.approx(want, rel=1e-6)
        assert report["results"]["material"]["small_strain_modulus_mpa"] == pytest.approx(
            6.24, rel=1e-6
        )
        assert len(report["inputs"]["stress_strain_csv"]) == 64  # sha256 hex

    def test_fit_diagnostics(self, tmp_path, capsys):
        # A curve 2% off the model, so that the residual is far above rounding.
        lines = ["strain,stress_pa"]
        for lam in np.linspace(1.01, 1.5, 40):
            stress_pa = mr_uniaxial_stress(RHO6, float(lam)) * 1e6 * (1.0 + 0.02 * np.sin(7 * lam))
            lines.append(f"{lam - 1.0:.12g},{stress_pa:.12g}")
        csv_path = tmp_path / "curve.csv"
        csv_path.write_text("\n".join(lines) + "\n")
        code, out = run(capsys, ["fit-material", "--stress-strain", str(csv_path)])
        assert code == EXIT_OK
        fit = json.loads(out)["results"]["material"]
        strain, stress_pa = np.loadtxt(csv_path, delimiter=",", skiprows=1).T
        # Stress = 2 (l - l^-2) (dW/dI1 + dW/dI2 / l), linear in the five
        # coefficients: one design column per coefficient.
        lam = 1.0 + strain
        j1 = lam**2 + 2.0 / lam - 3.0
        j2 = 2.0 * lam + lam**-2 - 3.0
        front = 2.0 * (lam - lam**-2)
        design = np.column_stack([
            front, front / lam, 2.0 * j1 * front, 2.0 * j2 * front / lam,
            (j2 + j1 / lam) * front,
        ])
        coeffs = [fit["mooney_rivlin"][k] for k in ("c10", "c01", "c20", "c02", "c11")]
        residual = np.linalg.norm(design @ coeffs - stress_pa / 1e6)
        assert residual > 1e-3
        assert fit["residual_norm_mpa"] == pytest.approx(residual, rel=1e-9)
        assert fit["condition_number"] == pytest.approx(np.linalg.cond(design), rel=1e-9)

    def test_flexural_fit(self, tmp_path, capsys):
        e_true, length, inertia = 25e6, 0.3, 1e-9
        lines = ["force_n,deflection_m"]
        for f in (0.5, 1.0, 2.0):
            lines.append(f"{f},{f * length**3 / (3 * e_true * inertia):.12g}")
        p = tmp_path / "flex.csv"
        p.write_text("\n".join(lines) + "\n")
        code, out = run(
            capsys,
            [
                "fit-material", "--flexural", str(p),
                "--length", "0.3", "--inertia", "1e-9",
            ],
        )
        assert code == EXIT_OK
        report = json.loads(out)
        assert report["results"]["material"]["flexural_modulus_pa"] == pytest.approx(
            e_true, rel=1e-9
        )

    def test_overflowing_strain_is_named_and_nothing_is_printed(self, tmp_path, capfd):
        # capfd reads fd 1: LAPACK's DLASCL once printed there, and then the
        # fit failed to converge.
        p = tmp_path / "curve.csv"
        p.write_text("strain,stress_pa\n0.1,1\n0.2,2\n0.3,3\n0.4,4\n1e120,5\n")
        code = main(["fit-material", "--stress-strain", str(p)])
        captured = capfd.readouterr()
        assert code == EXIT_INPUT and captured.out == ""
        assert captured.err == ("softarm: input error: strain 1e+120 puts the fit's stress "
                                "terms out of float range\n")

    def test_degenerate_fit_is_fit_error(self, tmp_path, capsys):
        p = tmp_path / "flat.csv"
        p.write_text("force_n,deflection_m\n1.0,0.0\n2.0,0.0\n")
        code, _ = run(
            capsys,
            ["fit-material", "--flexural", str(p), "--length", "0.3", "--inertia", "1e-9"],
        )
        assert code == EXIT_FIT


class TestWarningCodes:
    def test_low_infill_throttle_sweep_is_out_of_envelope(self, capsys):
        code, out = run(capsys, ["sweep", "--axis", "throttle", "--rho", "4", "--format", "json"])
        assert code == EXIT_OK
        codes = {entry["code"] for entry in json.loads(out)["warnings"]}
        assert codes == {"OUT_OF_ENVELOPE"}

    def test_negative_modulus_row_is_nonphysical_material(self, tmp_path, capsys):
        # The shipped 10% row has 6 (C10 + C01) = -2.1 MPa.
        rho10 = sio.read_hyperelastic_row(default_data_dir() / "hyperelastic_coeffs.json", 10)
        assert rho10.c10 + rho10.c01 < 0
        csv_path = tmp_path / "curve.csv"
        write_stress_strain(csv_path, params=rho10)
        code, out = run(capsys, ["fit-material", "--stress-strain", str(csv_path)])
        assert code == EXIT_OK
        codes = {entry["code"] for entry in json.loads(out)["warnings"]}
        assert codes == {"NONPHYSICAL_MATERIAL"}

    def test_plain_user_warning_is_generic(self):
        with warnings.catch_warnings(record=True) as records:
            warnings.simplefilter("always")
            warnings.warn("plain", UserWarning)
        assert warning_entries(records) == [{"code": "GENERIC", "message": "plain"}]


class TestAnalyzeCommand:
    def test_full_pipeline(self, capsys):
        code, out = run(capsys, ["analyze"])
        assert code == EXIT_OK
        report = json.loads(out)
        results = report["results"]
        for section in ("material", "beam", "efficiency", "deflection", "pipe_fit"):
            assert section in results
        for rho in ("6", "8", "10"):
            assert results["deflection"]["envelope"][rho]["passes_14deg"]
        rec = results["deflection"]["recommended_infill"]
        assert rec["min_pct"] <= 6.0 and rec["max_pct"] >= 8.0
        assert results["pipe_fit"]["attached"] is True
        assert results["efficiency"]["optimal_motor_station"] == 0.83

    def test_report_matches_schema(self, capsys):
        jsonschema = pytest.importorskip("jsonschema")
        from importlib import resources

        schema = json.loads(
            resources.files("softarm").joinpath("data", "report.schema.json").read_text()
        )
        code, out = run(capsys, ["analyze"])
        assert code == EXIT_OK
        jsonschema.validate(json.loads(out), schema)

    def test_deterministic_output(self, tmp_path, capsys):
        a, b = tmp_path / "a.json", tmp_path / "b.json"
        assert main(["analyze", "--out", str(a), "--quiet"]) == EXIT_OK
        assert main(["analyze", "--out", str(b), "--quiet"]) == EXIT_OK
        capsys.readouterr()
        assert a.read_bytes() == b.read_bytes()

    def test_timestamp_flag_adds_field(self, capsys):
        code, out = run(capsys, ["analyze", "--timestamp"])
        assert code == EXIT_OK
        assert "generated_at" in json.loads(out)

    def test_8pct_infill_converges(self, tmp_path, capsys):
        # A copy of the defaults names its files relative to its config;
        # this one names the shipped files by absolute path.
        data = default_data_dir()
        copy_defaults(tmp_path, {"config.json:material.infill_pct": 8, **{
            f"config.json:{key}": str(data / name) for key, name in [
                ("geometry", "arm_geometry.json"), ("efficiency_table", "efficiency_table.csv"),
                ("deflection_coeffs", "deflection_coeffs.json"),
                ("material.hyperelastic_table", "hyperelastic_coeffs.json")]}})
        code, out = run(capsys, ["analyze", "--config", str(tmp_path / "config.json")])
        assert code == EXIT_OK
        assert len(json.loads(out)["results"]["beam"]["throttle_sweep"]) == 11

    def test_no_feasible_infill_reports_null(self, tmp_path, capsys):
        # 100 deg per throttle unit passes the 14 deg bound at no infill.
        coeffs = json.dumps({"a1": 100.0, "a2": 0.0, "b1": 0.0, "b2": 0.0})
        config = copy_defaults(tmp_path, {"deflection_coeffs.json": coeffs}) / "config.json"
        code, out = run(capsys, ["analyze", "--config", str(config)])
        assert code == EXIT_OK
        assert json.loads(out)["results"]["deflection"]["recommended_infill"] is None

    def test_solver_failure_exits_4_without_a_report(self, tmp_path, capsys):
        # Under this thrust the shooting fails at 60% throttle. Should a later
        # solver converge here, replace the case with one that still fails
        # rather than loosen these assertions (a 1e5 N nominal thrust failed
        # at 80% until a missed rung handed its solve to the next).
        copy_defaults(tmp_path, {"config.json:propeller.nominal_thrust_n": 1e7})
        out = tmp_path / "report.json"
        code = main(["analyze", "--config", str(tmp_path / "config.json"), "--out", str(out)])
        captured = capsys.readouterr()
        assert code == 4 and captured.out == ""
        assert captured.err.startswith("softarm: solver error: elastica failed at throttle 60%: ")
        assert not out.exists()


class TestDeflectCommand:
    def test_point_evaluation(self, capsys):
        code, out = run(capsys, ["deflect", "--rho", "6", "--throttle-pct", "50"])
        assert code == EXIT_OK
        report = json.loads(out)
        assert report["results"]["deflection"]["alpha_deg"] == pytest.approx(
            4.4175, abs=1e-9
        )

    def test_zero_throttle_without_droop(self, capsys):
        code, out = run(
            capsys, ["deflect", "--rho", "6", "--throttle-pct", "0", "--alpha0", "0"]
        )
        assert code == EXIT_OK
        assert json.loads(out)["results"]["deflection"]["alpha_deg"] == 0.0

    def test_envelope_only(self, capsys):
        code, out = run(capsys, ["deflect", "--rho", "6"])
        assert code == EXIT_OK
        env = json.loads(out)["results"]["deflection"]["envelope"]
        assert env["max_abs_deflection_deg"] == pytest.approx(5.388084, abs=1e-6)
        assert env["passes_14deg"] is True


class TestEfficiencyCommand:
    def test_interpolated_lookup(self, capsys):
        code, out = run(capsys, ["efficiency", "--rpm", "4500"])
        assert code == EXIT_OK
        eff = json.loads(out)["results"]["efficiency"]
        assert eff["eta"] == pytest.approx(0.902, abs=1e-12)
        assert eff["eta_model"] == pytest.approx(0.902, abs=1e-9)  # at the optimum

    @pytest.mark.parametrize(
        "rows,rpm,station,message",
        [
            ("3000,0.9\n5000,0.1\n6500,0.9", "5000", "0.3", "eta(0.3, 5000.0) = -0.0325"),
            ("4000,0.15\n6000,0.15", "5000", "0.05", "eta(0.05, 5000.0) = -0.045"),
            ("2000,0.1\n4000,0.9\n6000,0.9", "2000", "0.3", "eta(0.3, 2000.0) = -0.0325"),
        ],
        ids=["interior_dip", "station_below_0.3", "rpm_below_3000"],
    )
    def test_non_positive_surrogate_exits_3(self, rows, rpm, station, message, tmp_path,
                                            capsys):
        table = tmp_path / "table.csv"
        table.write_text(f"rpm,eta\n{rows}\n")
        code = main(["efficiency", "--rpm", rpm, "--station", station, "--table", str(table)])
        captured = capsys.readouterr()
        assert code == EXIT_FIT and captured.out == ""
        assert captured.err == f"softarm: fit error: {message} is not positive\n"

    def test_low_table_is_valid_where_the_surrogate_is_positive(self, tmp_path, capsys):
        # The surrogate is negative at x/c = 0.3 on this table, but neither
        # command evaluates it there.
        copy_defaults(tmp_path, {"efficiency_table.csv": "rpm,eta\n4000,0.1\n6000,0.12\n"})
        table = tmp_path / "efficiency_table.csv"
        argv = ["efficiency", "--rpm", "5000", "--station", "0.83", "--table", str(table)]
        code, out = run(capsys, argv)
        assert code == EXIT_OK
        assert json.loads(out)["results"]["efficiency"]["eta_model"] == pytest.approx(0.11)
        code, out = run(capsys, ["analyze", "--config", str(tmp_path / "config.json")])
        assert code == EXIT_OK
        eff = json.loads(out)["results"]["efficiency"]
        assert eff["eta_model_at_optimum"] == eff["eta"] == 0.1


class TestPipeFitCommand:
    def test_feasible_pipe(self, capsys):
        code, out = run(capsys, ["pipe-fit", "--diameter", "0.2"])
        assert code == EXIT_OK
        fit = json.loads(out)["results"]["pipe_fit"]
        assert fit["total_turning_deg"] == pytest.approx(95.0)
        assert fit["attached"] is True


class TestSweepCommand:
    def test_motor_station_interior_maximum(self, capsys):
        code, out = run(capsys, ["sweep", "--axis", "motor_station", "--rpm", "4000"])
        assert code == EXIT_OK
        rows = list(csv.DictReader(out.splitlines()))
        best = max(rows, key=lambda r: float(r["eta"]))
        assert abs(float(best["x_c"]) - 0.83) <= 0.02

    def test_non_positive_surrogate_exits_3(self, tmp_path, capsys):
        table = tmp_path / "table.csv"
        table.write_text("rpm,eta\n3000,0.9\n5000,0.1\n6500,0.9\n")
        argv = ["sweep", "--axis", "motor_station", "--rpm", "5000", "--table", str(table)]
        code = main(argv)
        captured = capsys.readouterr()
        assert code == EXIT_FIT and captured.out == ""
        assert captured.err == "softarm: fit error: eta(0.3, 5000.0) = -0.0325 is not positive\n"

    def test_throttle_matches_model(self, capsys):
        code, out = run(capsys, ["sweep", "--axis", "throttle", "--rho", "6"])
        assert code == EXIT_OK
        coeffs = sio.read_deflection_coeffs_json(
            default_data_dir() / "deflection_coeffs.json"
        )
        for row in csv.DictReader(out.splitlines()):
            t = float(row["throttle_t"])
            assert float(row["alpha_deg"]) == pytest.approx(
                eval_deflection(coeffs, 6.0, t), rel=1e-9, abs=1e-12
            )

    def test_throttle_column_is_the_envelope_grid(self, capsys):
        code, out = run(capsys, ["sweep", "--axis", "throttle", "--format", "json"])
        assert code == EXIT_OK
        rows = json.loads(out)["results"]["sweep"]["rows"]
        assert tuple(row["throttle_t"] for row in rows) == THROTTLE_GRID

    def test_infill_attachment_flips_at_15(self, capsys):
        code, out = run(capsys, ["sweep", "--axis", "infill"])
        assert code == EXIT_OK
        rows = {float(r["rho_pct"]): r for r in csv.DictReader(out.splitlines())}
        assert rows[14.5]["attached"] == "true"
        assert rows[15.0]["attached"] == "false"
        assert rows[15.0]["bendable"] == "false"

    @given(
        st.lists(st.sampled_from(["x_c", "eta", "rho_pct", "attached"]), min_size=1,
                 max_size=4, unique=True).flatmap(lambda keys: st.lists(
            st.fixed_dictionaries({key: st.one_of(
                st.floats(allow_nan=False, allow_infinity=False),
                st.integers(-10**20, 10**20),
                st.booleans(),
                st.sampled_from([-0.0, 5e-324, 1e300, 1.5e-7, 1.2345678901e20, -2.5e-10]),
            ) for key in keys}), min_size=1, max_size=5))
    )
    @example([{"x_c": -0.0, "eta": 5e-324, "rho_pct": 1e300, "attached": True}])
    @example([{"x_c": 1e16, "eta": 1.2345678901e-5, "rho_pct": 123456789012, "attached": False}])
    def test_csv_bytes_are_the_csv_writers(self, rows):
        # The reference: csv.writer over the cells as the report formats them.
        expected = io.StringIO()
        writer = csv.writer(expected, lineterminator="\n")
        writer.writerow(rows[0].keys())
        writer.writerows([str(v).lower() if isinstance(v, bool) else f"{v:.10g}"
                          for v in row.values()] for row in rows)
        text, _ = _render({"sweep": {"axis": "x", "rows": rows}}, {}, [], "csv", False)
        assert text == expected.getvalue()

    def test_csv_warnings_go_to_stderr(self, capsys):
        argv = ["sweep", "--axis", "throttle", "--rho", "4"]
        assert main([*argv, "--format", "json"]) == EXIT_OK
        entries = json.loads(capsys.readouterr().out)["warnings"]
        assert main(argv) == EXIT_OK
        captured = capsys.readouterr()
        assert len(entries) == 20 and captured.out.startswith("throttle_t,alpha_deg\n")
        assert captured.err.splitlines() == [
            f"softarm: warning: {e['code']}: {e['message']}" for e in entries
        ]

    def test_json_format(self, capsys):
        code, out = run(
            capsys, ["sweep", "--axis", "arm_angle", "--format", "json"]
        )
        assert code == EXIT_OK
        report = json.loads(out)
        assert report["results"]["sweep"]["axis"] == "arm_angle"

    @pytest.mark.parametrize("axis,option,key,value", [
        *[("motor_station", "--rpm", "eta", rpm) for rpm in seeded(3000, 6500, seed=1)],
        *[("arm_angle", "--rpm", "net_vertical_thrust_n", rpm)
          for rpm in seeded(3000, 6500, seed=2)],
        *[("throttle", "--rho", "alpha_deg", rho) for rho in [*seeded(5, 12, seed=3), "4.5"]],
    ])
    def test_rows_and_warnings_are_the_per_point_functions(self, axis, option, key, value,
                                                           capsys):
        code, out = run(capsys, ["sweep", "--axis", axis, option, value, "--format", "json"])
        assert code == EXIT_OK
        report = json.loads(out)
        rows = report["results"]["sweep"]["rows"]
        with warnings.catch_warnings(record=True) as records:
            warnings.simplefilter("always")
            expected = [per_point(axis, float(value), row) for row in rows]
        assert [row[key].hex() for row in rows] == [v.hex() for v in expected]
        assert report["warnings"] == warning_entries(records)
        assert len(records) == (20 if value == "4.5" else 0)

    @pytest.mark.parametrize("axis,module,name,calls", [
        ("motor_station", aero, "efficiency_lookup", 1),
        ("throttle", deflection, "require_infill", 1),
    ], ids=["motor_station", "throttle"])
    def test_sweep_does_its_fixed_work_once(self, axis, module, name, calls, capsys,
                                            record_calls):
        # Counts the calls of the function wherever it is called from, as
        # test_layer_counters.py does, whose table pins the require_finite
        # calls of each sweep.
        with record_calls(getattr(module, name)) as (counted,):
            status = main(["sweep", "--axis", axis])
        capsys.readouterr()
        assert status == EXIT_OK
        assert len(counted) == calls

class TestGlobalFlags:
    def test_out_file_and_quiet(self, tmp_path, capsys):
        target = tmp_path / "report.json"
        code = main(["efficiency", "--rpm", "4500", "--out", str(target), "--quiet"])
        assert code == EXIT_OK
        assert capsys.readouterr().out == ""
        assert json.loads(target.read_text())["tool"]["name"] == "softarm"

    def test_out_echoes_path_by_default(self, tmp_path, capsys):
        target = tmp_path / "report.json"
        code = main(["efficiency", "--rpm", "4500", "--out", str(target)])
        assert code == EXIT_OK
        assert capsys.readouterr().out.strip() == str(target)

    def test_csv_out_echoes_path_by_default(self, tmp_path, capsys):
        target = tmp_path / "sweep.csv"
        code, out = run(capsys, ["sweep", "--axis", "arm_angle", "--out", str(target)])
        assert code == EXIT_OK and out == f"{target}\n"
        assert target.read_text().startswith("alpha_deg,net_vertical_thrust_n\n")

    @pytest.mark.parametrize("argv", [["efficiency", "--rpm", "4500"],
                                      ["sweep", "--axis", "arm_angle"]], ids=["json", "csv"])
    def test_unwritable_out_is_an_output_error(self, argv, tmp_path, capsys):
        target = tmp_path / "missing" / "report"
        code = main([*argv, "--out", str(target)])
        captured = capsys.readouterr()
        assert code == EXIT_OUTPUT and captured.out == ""
        assert captured.err.startswith("softarm: output error: [Errno 2] ")
        assert len(captured.err.splitlines()) == 1 and not target.parent.exists()
        # Standard output was not written, so it is left as it was.
        code, out = run(capsys, argv)
        assert code == EXIT_OK and out

    def test_empty_out_name_is_an_output_error(self, capsys):
        # An empty name names no file, as a missing directory does; it is not stdout.
        code = main(["efficiency", "--rpm", "4500", "--out", ""])
        captured = capsys.readouterr()
        assert code == EXIT_OUTPUT and captured.out == ""
        assert captured.err.startswith("softarm: output error: [Errno 2] ")
        assert len(captured.err.splitlines()) == 1

    def test_out_over_a_longer_file_keeps_its_inode_and_mode(self, tmp_path, capsys):
        # The report is written over the old bytes and the file cut to its
        # length: no stale tail, and the same file, permissions and all.
        target = tmp_path / "report.json"
        golden = (Path(__file__).parent / "data" / "golden" / "analyze.json").read_bytes()
        target.write_bytes(b"x" * (3 * len(golden)))
        target.chmod(0o600)
        before = target.stat()
        assert main(["analyze", "--out", str(target), "--quiet"]) == EXIT_OK
        after = target.stat()
        assert capsys.readouterr() == ("", "")
        assert target.read_bytes() == golden
        assert (after.st_ino, after.st_mode) == (before.st_ino, before.st_mode)

    def test_new_out_file_has_the_umask_mode(self, tmp_path, capsys):
        target = tmp_path / "report.json"
        umask = os.umask(0o022)
        os.umask(umask)
        assert main(["efficiency", "--rpm", "4500", "--out", str(target), "--quiet"]) == EXIT_OK
        assert target.stat().st_mode & 0o777 == 0o666 & ~umask

    @pytest.mark.skipif(not os.path.exists("/dev/null"), reason="no /dev/null")
    def test_out_to_dev_null(self, capsys):
        # A device cannot be cut to the report's length, and need not be.
        assert main(["analyze", "--out", "/dev/null", "--quiet"]) == EXIT_OK
        assert capsys.readouterr() == ("", "")

    def test_global_flags_before_subcommand(self, tmp_path, capsys):
        target = tmp_path / "report.json"
        code = main(["--out", str(target), "--quiet", "efficiency", "--rpm", "4500"])
        assert code == EXIT_OK
        assert target.exists()

    def test_parser_is_built_once(self):
        assert build_parser() is build_parser()

    def test_flags_do_not_carry_over_between_calls(self, tmp_path, capsys):
        quiet_json = tmp_path / "a.json"
        code = main(["efficiency", "--rpm", "4500", "--out", str(quiet_json), "--quiet"])
        assert code == EXIT_OK and capsys.readouterr().out == ""
        code, out = run(capsys, ["efficiency", "--rpm", "4500"])
        assert code == EXIT_OK and json.loads(out)["results"]["efficiency"]["rpm"] == 4500
        code, out = run(capsys, ["sweep", "--axis", "arm_angle", "--format", "json"])
        assert code == EXIT_OK and json.loads(out)["results"]["sweep"]["axis"] == "arm_angle"
        code, out = run(capsys, ["sweep", "--axis", "arm_angle"])
        assert code == EXIT_OK and out.startswith("alpha_deg,net_vertical_thrust_n\n")
        echoed = tmp_path / "b.json"
        code, out = run(capsys, ["--out", str(echoed), "efficiency", "--rpm", "3000"])
        assert code == EXIT_OK and out.strip() == str(echoed)
        quiet_csv = tmp_path / "c.csv"
        code, out = run(capsys, ["sweep", "--axis", "arm_angle", "--out", str(quiet_csv), "--quiet"])
        assert code == EXIT_OK and out == "" and quiet_csv.exists()
        code, out = run(capsys, ["efficiency", "--rpm", "3000"])
        assert code == EXIT_OK and json.loads(out)["results"]["efficiency"]["rpm"] == 3000
        assert json.loads(quiet_json.read_text())["results"]["efficiency"]["rpm"] == 4500
        assert json.loads(echoed.read_text())["results"]["efficiency"]["rpm"] == 3000


class TestNonFiniteInput:
    def test_report_with_nan_is_not_written(self, tmp_path, monkeypatch, capsys):
        with pytest.raises(ValueError):
            _render({"value": float("nan")}, {}, [], "json", False)
        monkeypatch.setattr(aero, "efficiency_lookup", lambda table, rpm: float("nan"))
        target = tmp_path / "report.json"
        # A NaN that reaches the report is a bug, a missing check: it propagates.
        with pytest.raises(ValueError, match="not JSON compliant: nan"):
            main(["efficiency", "--rpm", "4500", "--out", str(target), "--quiet"])
        assert capsys.readouterr().out == ""
        assert not target.exists()


#: Runs the console script's entry point on `efficiency` with the table
#: reader patched to raise a stray KeyError, as a bug in a handler would.
STRAY_KEYERROR_CHILD = """\
import sys
from softarm import cli
from softarm import io as sio

def failing_read(path, data=None):
    raise KeyError("rows")

sio.read_efficiency_csv = failing_read
sys.argv[1:] = ["efficiency", "--rpm", "4500"]
cli.entrypoint()
"""
#: This environment, with the directory this process imports softarm from
#: first on PYTHONPATH.
PACKAGE_ENV = {**os.environ, "PYTHONPATH": os.pathsep.join(
    filter(None, [str(Path(sio.__file__).resolve().parents[1]), os.environ.get("PYTHONPATH")]))}


def _concrete_errors(cls=errors.SoftarmError):
    found = []
    for sub in cls.__subclasses__():
        if sub not in (errors.InputError, errors.FitError, errors.SolverError):
            found.append(sub)
        found += _concrete_errors(sub)
    return found


class TestExitCodes:
    EXPECTED = {
        "ParseError": (2, "input"),
        "ChordTooLong": (2, "input"),
        "ZeroArea": (2, "input"),
        "InvalidStretch": (2, "input"),
        "NonPhysicalMaterial": (2, "input"),
        "RankDeficient": (3, "fit"),
        "DegenerateData": (3, "fit"),
        "CalibrationFailure": (3, "fit"),
        "EmptyRange": (3, "fit"),
        "NoConvergence": (4, "solver"),
    }

    def test_every_concrete_error_is_listed(self):
        assert sorted(c.__name__ for c in _concrete_errors()) == sorted(self.EXPECTED)

    @pytest.mark.parametrize("cls", _concrete_errors(), ids=lambda c: c.__name__)
    def test_exit_code_and_label(self, cls, monkeypatch, capsys):
        code, kind = self.EXPECTED[cls.__name__]
        assert cls.exit_code == code

        def failing_read(path, data=None):
            raise cls("boom")

        monkeypatch.setattr(sio, "read_efficiency_csv", failing_read)
        assert main(["efficiency", "--rpm", "4500"]) == code
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"softarm: {kind} error: boom\n"

    def test_stray_stdlib_error_is_a_bug(self, monkeypatch, capsys):
        # Not a SoftarmError: main lets it out, and the console script's entry
        # point prints its traceback and exits 1, printing no report.
        def failing_read(path, data=None):
            raise KeyError("rows")

        monkeypatch.setattr(sio, "read_efficiency_csv", failing_read)
        with pytest.raises(KeyError):
            main(["efficiency", "--rpm", "4500"])
        assert capsys.readouterr() == ("", "")
        proc = subprocess.run([sys.executable, "-c", STRAY_KEYERROR_CHILD], env=PACKAGE_ENV,
                              capture_output=True, text=True, timeout=120)
        assert (proc.returncode, proc.stdout) == (1, "")
        assert proc.stderr.startswith("Traceback (most recent call last):\n")
        assert proc.stderr.endswith("\nKeyError: 'rows'\n")

    def test_key_error_inside_a_blame_is_a_bug(self, monkeypatch):
        # io.blame once named any KeyError inside it: "<config>: geometry,
        # pipe.diameter_m: 'segments'", exit 2.
        def failing_wrap(geometry, pipe):
            raise KeyError("segments")

        monkeypatch.setattr(adapt, "wrap_geometry", failing_wrap)
        with pytest.raises(KeyError, match="segments"):
            main(["analyze"])

    def test_lone_surrogate_in_a_message_is_escaped(self, tmp_path, capsys):
        # A file name that UTF-8 cannot encode, echoed in the open error,
        # once raised UnicodeEncodeError out of main on a strict stream.
        config = copy_defaults(tmp_path, {"config.json:geometry": "\ud800"}) / "config.json"
        code = main(["analyze", "--config", str(config)])
        captured = capsys.readouterr()
        assert code == EXIT_INPUT and captured.out == ""
        assert captured.err.startswith(f"softarm: input error: {tmp_path}{os.sep}\\ud800: ")
        assert len(captured.err.splitlines()) == 1

    def test_input_error_is_a_value_error(self):
        # A library caller's `except ValueError` still catches a range check.
        with pytest.raises(ValueError) as info:
            aero.thrust_from_rpm(aero.DEFAULT_PROPELLER, -1.0)
        assert type(info.value) is errors.InputError


class TestParseBoundary:
    @pytest.mark.parametrize("literal", ["NaN", "Infinity", "-Infinity", "1e999"])
    def test_load_json_rejects_non_finite(self, literal, tmp_path):
        p = tmp_path / "x.json"
        p.write_text('{"a": [1.0, %s]}' % literal)
        with pytest.raises(ParseError) as info:
            sio.load_json(p, "x")
        assert info.value.path == str(p)

    def test_load_json_reports_line_of_syntax_error(self, tmp_path):
        p = tmp_path / "x.json"
        p.write_text('{\n"a": 1\n"b": 2}')  # 3.13 puts a trailing comma on its own line
        with pytest.raises(ParseError) as info:
            sio.load_json(p, "x")
        assert info.value.line == 3

    @pytest.mark.parametrize("newline", ["\r", "\r\n"], ids=["cr", "crlf"])
    def test_syntax_error_line_counts_every_newline(self, newline, tmp_path):
        p = tmp_path / "x.json"
        p.write_bytes(newline.join(["{", '"a": 1', '"b": 2}']).encode())
        with pytest.raises(ParseError) as info:
            sio.load_json(p, "x")
        assert str(info.value) == f"{p}:3: Expecting ',' delimiter"

    @pytest.mark.parametrize("name", ["a\x00b", "\ud800"], ids=["nul", "lone_surrogate"])
    def test_file_name_that_open_cannot_take_is_named(self, name, tmp_path):
        # open raises a ValueError, not an OSError, for a name like these,
        # which a config's file reference can hold.
        with pytest.raises(ParseError) as info:
            sio.read_bytes(tmp_path / name)
        assert info.value.path == str(tmp_path / name)


class TestFlagsWhereRead:
    @pytest.mark.parametrize("argv,name,value", [
        (["--out", "-1e-3", "analyze"], "out", "-1e-3"),
        (["analyze", "--out", "-1E+3"], "out", "-1E+3"),
        (["fit-material", "--infill", "-1e-3"], "infill", -1e-3),
        (["deflect", "--rho", "6", "--alpha0", "-1e-3"], "alpha0", -1e-3),
        (["efficiency", "--rpm", "-4.5e3"], "rpm", -4500.0),
        (["pipe-fit", "--diameter", "-.2e0"], "diameter", -0.2),
        (["sweep", "--axis", "infill", "--rho", "-6.E0"], "rho", -6.0),
    ], ids=["softarm", "analyze", "fit-material", "deflect", "efficiency", "pipe-fit", "sweep"])
    def test_negative_number_in_exponent_form_is_a_value(self, argv, name, value):
        # Each parser takes it for the option's value; argparse's own
        # pattern, up to 3.13, has no exponent form, and took it for an
        # option: "expected one argument", exit 2.
        assert getattr(build_parser().parse_args(argv), name) == value

    @pytest.mark.parametrize(
        "axis, files",
        [
            ("motor_station", {"efficiency_table": "efficiency_table.csv"}),
            ("arm_angle", {"efficiency_table": "efficiency_table.csv"}),
            ("throttle", {"deflection_coeffs": "deflection_coeffs.json"}),
            ("infill", {"geometry": "arm_geometry.json"}),
        ],
    )
    def test_sweep_json_lists_digests_of_files_read(self, axis, files, capsys):
        code, out = run(capsys, ["sweep", "--axis", axis, "--format", "json"])
        assert code == EXIT_OK
        want = {
            label: hashlib.sha256((default_data_dir() / name).read_bytes()).hexdigest()
            for label, name in files.items()
        }
        assert json.loads(out)["inputs"] == want

    def test_sweep_ignores_table_on_axes_without_it(self, tmp_path, capsys):
        code, _ = run(
            capsys, ["sweep", "--axis", "throttle", "--table", str(tmp_path / "missing.csv")]
        )
        assert code == EXIT_OK
