"""File formats and the command-line front end."""

import contextlib
import csv
import hashlib
import io
import json
import operator
import warnings
from functools import reduce
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from softarm import beam, errors
from softarm import io as sio
from softarm.aero import EfficiencyTable
from softarm.cli import (
    EXIT_FIT,
    EXIT_INPUT,
    EXIT_OK,
    _emit_csv,
    _emit_json,
    _warning_entries,
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


def shipped_config():
    """The shipped analyze config with its file references made absolute."""
    data = default_data_dir()
    config = json.loads((data / "config.json").read_text())
    for key in ("geometry", "efficiency_table", "deflection_coeffs"):
        config[key] = str(data / config[key])
    table = config["material"]["hyperelastic_table"]
    config["material"]["hyperelastic_table"] = str(data / table)
    return config


def run(capsys, argv):
    code = main(argv)
    out = capsys.readouterr().out
    return code, out


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

    @pytest.mark.parametrize("line", [1, 3])
    def test_field_over_the_csv_size_limit_names_its_line(self, line, tmp_path, capsys):
        # The csv module raises its own csv.Error, which is no ValueError.
        lines = ["rpm,eta", "4000,0.895", "5000,0.909"]
        lines[line - 1] = "1" * (csv.field_size_limit() + 1) + ",0.9"
        p = tmp_path / "table.csv"
        p.write_text("\n".join(lines) + "\n")
        code = main(["efficiency", "--rpm", "4500", "--table", str(p)])
        captured = capsys.readouterr()
        assert code == EXIT_INPUT and captured.out == ""
        assert captured.err == (f"softarm: input error: {p}:{line}: field larger than field "
                                f"limit ({csv.field_size_limit()})\n")

    def test_undecodable_byte_names_the_file(self, tmp_path, capsys):
        p = tmp_path / "table.csv"
        p.write_bytes(b"rpm,eta\n4000,0.895\xff\n")
        code = main(["efficiency", "--rpm", "4500", "--table", str(p)])
        captured = capsys.readouterr()
        assert code == EXIT_INPUT and captured.out == ""
        # A UTF-8 locale fails to decode the byte; a one-byte locale, to parse the number.
        assert captured.err.startswith(f"softarm: input error: {p}:")

    @pytest.mark.parametrize(
        "text,line,cell",
        [
            ('rpm,eta\n"4000\n",0.895\nx,0.9\n', 4, "x"),
            ('rpm,eta\n4000,0.895\n"x\n",0.9\n', 3, "x\n"),
        ],
        ids=["after_a_two_line_record", "in_a_two_line_record"],
    )
    def test_record_is_numbered_by_the_line_it_starts_on(self, text, line, cell, tmp_path,
                                                        capsys):
        # A quoted field carries its record over a line break, so records and
        # lines part: the x of the first file is record 3 on line 4.
        p = tmp_path / "table.csv"
        p.write_text(text)
        code = main(["efficiency", "--rpm", "4500", "--table", str(p)])
        captured = capsys.readouterr()
        assert code == EXIT_INPUT and captured.out == ""
        assert captured.err == (f"softarm: input error: {p}:{line}: could not convert "
                                f"string to float: {cell!r}\n")

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

    def test_no_input_is_input_error(self, capsys):
        code, _ = run(capsys, ["fit-material"])
        assert code == EXIT_INPUT

    def test_empty_csv_is_input_error(self, tmp_path, capsys):
        p = tmp_path / "empty.csv"
        p.write_text("strain,stress_pa\n")
        code, _ = run(capsys, ["fit-material", "--stress-strain", str(p)])
        assert code == EXIT_INPUT

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
        assert _warning_entries(records) == [{"code": "GENERIC", "message": "plain"}]


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

    def test_missing_config_is_input_error(self, capsys):
        code, _ = run(capsys, ["analyze", "--config", "/nonexistent/config.json"])
        assert code == EXIT_INPUT

    def test_config_missing_section_is_input_error(self, tmp_path, capsys):
        p = tmp_path / "config.json"
        p.write_text("{}")
        code, _ = run(capsys, ["analyze", "--config", str(p)])
        assert code == EXIT_INPUT

    def test_8pct_infill_converges(self, tmp_path, capsys):
        config = shipped_config()
        config["material"]["infill_pct"] = 8
        p = tmp_path / "config.json"
        p.write_text(json.dumps(config))
        code, out = run(capsys, ["analyze", "--config", str(p)])
        assert code == EXIT_OK
        assert len(json.loads(out)["results"]["beam"]["throttle_sweep"]) == 11

    def test_no_feasible_infill_reports_null(self, tmp_path, capsys):
        # 100 deg per throttle unit passes the 14 deg bound at no infill.
        coeffs = tmp_path / "coeffs.json"
        coeffs.write_text(json.dumps({"a1": 100.0, "a2": 0.0, "b1": 0.0, "b2": 0.0}))
        config = shipped_config()
        config["deflection_coeffs"] = str(coeffs)
        code, out = run(capsys, ["analyze", "--config", write_config(tmp_path, config)])
        assert code == EXIT_OK
        assert json.loads(out)["results"]["deflection"]["recommended_infill"] is None

    def test_non_finite_geometry_is_input_error(self, tmp_path, capsys):
        geometry = json.loads((default_data_dir() / "arm_geometry.json").read_text())
        geometry["linear_density_kg_m"] = float("nan")
        (tmp_path / "geometry.json").write_text(json.dumps(geometry))
        config = shipped_config()
        config["geometry"] = str(tmp_path / "geometry.json")
        p = tmp_path / "config.json"
        p.write_text(json.dumps(config))
        code, _ = run(capsys, ["analyze", "--config", str(p)])
        assert code == EXIT_INPUT

    def test_solver_integration_count(self, tmp_path, monkeypatch, capsys):
        solutions = []
        solve = beam.solve_elastica

        def recording_solve(*args, **kwargs):
            solutions.append(solve(*args, **kwargs))
            return solutions[-1]

        monkeypatch.setattr(beam, "solve_elastica", recording_solve)
        out = tmp_path / "report.json"
        assert main(["analyze", "--out", str(out), "--quiet"]) == EXIT_OK
        assert len(solutions) == 11
        assert sum(sol.integrations for sol in solutions) == 44
        assert "integrations" not in out.read_text()

    def test_solver_step_count(self, tmp_path, monkeypatch, capsys):
        # Each solve shoots on the 4-step rung, and one march on the 8-step
        # rung accepts its tip angle; no march of the solve steps the 64-step
        # mesh of the shape (4,343 steps when one march per solve did, 1,881
        # when the ladder started at 8 steps).
        solutions = []
        solve = beam.solve_elastica

        def recording_solve(*args, **kwargs):
            solutions.append(solve(*args, **kwargs))
            return solutions[-1]

        monkeypatch.setattr(beam, "solve_elastica", recording_solve)
        out = tmp_path / "report.json"
        assert main(["analyze", "--out", str(out), "--quiet"]) == EXIT_OK
        assert len(solutions) == 11
        assert sum(sol.steps for sol in solutions) == 1012
        assert "steps" not in out.read_text()

    def test_solver_failure_exits_4_without_a_report(self, tmp_path, capsys):
        # Under this thrust the shooting fails at 60% throttle. Should a later
        # solver converge here, replace the case with one that still fails
        # rather than loosen these assertions (a 1e5 N nominal thrust failed
        # at 80% until a missed rung handed its solve to the next).
        config = shipped_config()
        config["propeller"]["nominal_thrust_n"] = 1e7
        out = tmp_path / "report.json"
        code = main(["analyze", "--config", write_config(tmp_path, config), "--out", str(out)])
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
        table = tmp_path / "table.csv"
        table.write_text("rpm,eta\n4000,0.1\n6000,0.12\n")
        argv = ["efficiency", "--rpm", "5000", "--station", "0.83", "--table", str(table)]
        code, out = run(capsys, argv)
        assert code == EXIT_OK
        assert json.loads(out)["results"]["efficiency"]["eta_model"] == pytest.approx(0.11)
        config = shipped_config()
        config["efficiency_table"] = str(table)
        code, out = run(capsys, ["analyze", "--config", write_config(tmp_path, config)])
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

    def test_pipe_too_small_is_input_error(self, capsys):
        code, _ = run(capsys, ["pipe-fit", "--diameter", "0.054"])
        assert code == EXIT_INPUT

    def test_chord_longer_than_the_pipe_names_the_geometry_and_diameter(self, tmp_path,
                                                                        capsys):
        payload = json.loads((default_data_dir() / "arm_geometry.json").read_text())
        payload["segments"][0]["length_mm"] = 1e308
        p = tmp_path / "geometry.json"
        p.write_text(json.dumps(payload))
        code = main(["pipe-fit", "--diameter", "0.2", "--geometry", str(p)])
        captured = capsys.readouterr()
        assert code == EXIT_INPUT and captured.out == ""
        assert captured.err == (f"softarm: input error: {p}: --diameter: segment 1 chord "
                                "1e+305 m exceeds pipe diameter 0.2 m\n")

    @pytest.mark.parametrize(
        "argv",
        [["pipe-fit", "--diameter", "0.2"], ["sweep", "--axis", "infill"]],
        ids=["pipe-fit", "sweep"],
    )
    def test_negative_tendon_force_is_input_error(self, argv, capsys):
        code = main([*argv, "--tendon-force", "-5"])
        captured = capsys.readouterr()
        assert code == EXIT_INPUT and captured.out == ""
        assert captured.err == "softarm: input error: tendon_force must be >= 0, got -5.0\n"


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
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            _emit_csv({"sweep": {"axis": "x", "rows": rows}}, None)
        assert out.getvalue() == expected.getvalue()

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

    def test_unknown_axis_rejected(self, capsys):
        with pytest.raises(SystemExit) as info:
            main(["sweep", "--axis", "banana"])
        assert info.value.code == 2
        capsys.readouterr()


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
    @pytest.mark.parametrize(
        "argv",
        [
            ["deflect", "--rho", "nan", "--throttle-pct", "50"],
            ["efficiency", "--rpm", "nan"],
            ["pipe-fit", "--diameter", "0.2", "--tendon-force", "inf"],
            ["sweep", "--axis", "throttle", "--rho", "nan"],
        ],
        ids=["deflect", "efficiency", "pipe-fit", "sweep"],
    )
    def test_non_finite_option_exits_2(self, argv, capsys):
        with pytest.raises(SystemExit) as info:
            main(argv)
        assert info.value.code == EXIT_INPUT
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "finite" in captured.err

    @pytest.mark.parametrize(
        "argv,message",
        [
            (["pipe-fit", "--diameter", "0"], "diameter must be > 0"),
            (["efficiency", "--rpm", "0"], "rpm must be > 0, got 0.0"),
            (["efficiency", "--rpm", "4000", "--station", "2"], "x_c must be in (0, 1], got 2.0"),
            (["sweep", "--axis", "arm_angle", "--rpm=-1"], "rpm must be >= 0, got -1.0"),
            (["fit-material", "--flexural", "flex.csv", "--inertia", "1e-9"],
             "--flexural requires --length and --inertia"),
        ],
        ids=["pipe-fit-diameter", "efficiency-rpm", "efficiency-station", "sweep-negative-rpm",
             "fit-material-length"],
    )
    def test_out_of_range_option_exits_2(self, argv, message, capsys):
        code = main(argv)
        captured = capsys.readouterr()
        assert code == EXIT_INPUT and captured.out == ""
        assert captured.err == f"softarm: input error: {message}\n"

    def test_report_with_nan_is_not_written(self, tmp_path):
        target = tmp_path / "report.json"
        with pytest.raises(ValueError):
            _emit_json({"results": {"value": float("nan")}}, str(target), quiet=True)
        assert not target.exists()


class TestInfillRange:
    @pytest.mark.parametrize(
        "argv,value",
        [
            (["deflect", "--rho", "-50", "--throttle-pct", "50"], -50.0),
            (["deflect", "--rho", "150"], 150.0),
            (["sweep", "--axis", "throttle", "--rho", "-20"], -20.0),
            (["pipe-fit", "--diameter", "0.2", "--infill", "-5"], -5.0),
        ],
        ids=["deflect-point", "deflect-envelope", "sweep-throttle", "pipe-fit"],
    )
    def test_infill_outside_0_100_exits_2(self, argv, value, capsys):
        code = main(argv)
        captured = capsys.readouterr()
        assert code == EXIT_INPUT and captured.out == ""
        assert captured.err == f"softarm: input error: infill must be in (0, 100), got {value}\n"


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

        def failing_read(path):
            raise cls("boom")

        monkeypatch.setattr(sio, "read_efficiency_csv", failing_read)
        assert main(["efficiency", "--rpm", "4500"]) == code
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"softarm: {kind} error: boom\n"

    def test_stdlib_error_is_input_error(self, monkeypatch, capsys):
        for error in (KeyError("rows"), OverflowError(34, "Numerical result out of range")):

            def failing_read(path, error=error):
                raise error

            monkeypatch.setattr(sio, "read_efficiency_csv", failing_read)
            assert main(["efficiency", "--rpm", "4500"]) == EXIT_INPUT
            assert capsys.readouterr().err.startswith("softarm: input error: ")


def write_config(tmp_path, config):
    """Write a config (a dict, or JSON text) and return its path."""
    p = tmp_path / "config.json"
    p.write_text(config if isinstance(config, str) else json.dumps(config))
    return str(p)


#: A command option that names a JSON input, the shipped file, and the label
#: its messages give the file.
JSON_FILE_OPTIONS = [
    (["pipe-fit", "--diameter", "0.2", "--geometry"], "arm_geometry.json", "geometry"),
    (["deflect", "--rho", "6", "--coeffs"], "deflection_coeffs.json", "coefficients"),
]


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
        p.write_text('{\n"a": 1,\n}')
        with pytest.raises(ParseError) as info:
            sio.load_json(p, "x")
        assert info.value.line == 3

    def test_nan_threshold_in_config_exits_2(self, tmp_path, capsys):
        text = json.dumps(shipped_config()).replace(
            '"tendon_force_n": 12.0', '"tendon_force_n": NaN'
        )
        assert "NaN" in text
        code, out = run(capsys, ["analyze", "--config", write_config(tmp_path, text)])
        assert code == EXIT_INPUT and out == ""

    def test_nan_row_in_efficiency_csv_names_line(self, tmp_path, capsys):
        p = tmp_path / "table.csv"
        p.write_text("rpm,eta\n4000,0.895\nnan,0.9\n")
        with pytest.raises(ParseError) as info:
            sio.read_efficiency_csv(p)
        assert info.value.line == 3
        assert main(["efficiency", "--rpm", "4500", "--table", str(p)]) == EXIT_INPUT
        assert f"{p}:3:" in capsys.readouterr().err

    @pytest.mark.parametrize("section", ["material", "propeller", "pipe"])
    @pytest.mark.parametrize("value", [5, [1], "x"], ids=["number", "array", "string"])
    def test_config_section_that_is_not_an_object_exits_2(self, section, value, tmp_path,
                                                          capsys):
        config = shipped_config()
        config[section] = value
        assert main(["analyze", "--config", write_config(tmp_path, config)]) == EXIT_INPUT
        err = capsys.readouterr().err
        assert f"config section '{section}' must be an object" in err

    @pytest.mark.parametrize("section", ["material", "propeller", "pipe"])
    def test_config_missing_required_section_names_it(self, section, tmp_path, capsys):
        config = shipped_config()
        del config[section]
        assert main(["analyze", "--config", write_config(tmp_path, config)]) == EXIT_INPUT
        assert f"config has no '{section}' section" in capsys.readouterr().err

    def test_config_that_is_not_an_object_exits_2(self, tmp_path, capsys):
        assert main(["analyze", "--config", write_config(tmp_path, "[1]")]) == EXIT_INPUT
        assert "config must be a JSON object" in capsys.readouterr().err

    def test_parent_config_names_the_removed_keys(self, tmp_path, capsys):
        # Sections of older configs: the analysis grid, thresholds and solver
        # settings they set are constants of the tool.
        config = {
            **shipped_config(),
            "rpm": 4000,
            "throttle": {"max_pct": 100, "step_pct": 10},
            "deflection": {"infill_rates_pct": [6, 8, 10], "t_max": 10.0, "step": 0.1},
            "thresholds": {"attach_pressure_n_m2": 1000.0, "bendable_infill_max_pct": 15.0,
                           "deflection_bound_deg": 14.0},
        }
        code = main(["analyze", "--config", write_config(tmp_path, config)])
        captured = capsys.readouterr()
        assert code == EXIT_INPUT and captured.out == ""
        assert captured.err.startswith("softarm: input error: ")
        assert "unknown config keys: 'rpm', 'throttle', 'deflection', 'thresholds'" in captured.err

    @pytest.mark.parametrize(
        "section,key,renamed,message",
        [
            ("pipe", "diameter_m", "diametre_m", "unknown config keys: 'pipe.diametre_m'"),
            ("propeller", "max_rpm", None, "config has no 'propeller.max_rpm' key"),
            (None, "geometry", None, "config has no 'geometry' key"),
        ],
        ids=["misspelled", "missing", "missing_file_reference"],
    )
    def test_config_key_outside_the_table_exits_2(self, section, key, renamed, message,
                                                  tmp_path, capsys):
        config = shipped_config()
        obj = config if section is None else config[section]
        value = obj.pop(key)
        if renamed is not None:
            obj[renamed] = value
        code = main(["analyze", "--config", write_config(tmp_path, config)])
        captured = capsys.readouterr()
        assert code == EXIT_INPUT and captured.out == ""
        assert captured.err.startswith("softarm: input error: ")
        assert message in captured.err

    def test_number_error_comes_before_a_key_error_in_a_later_section(self, tmp_path,
                                                                      capsys):
        # The config is checked key by key in table order; the missing key
        # was once named first: "config has no 'propeller.max_rpm' key".
        config = shipped_config()
        config["material"]["infill_pct"] = None
        del config["propeller"]["max_rpm"]
        path = write_config(tmp_path, config)
        assert main(["analyze", "--config", path]) == EXIT_INPUT
        assert capsys.readouterr().err == (
            f"softarm: input error: {path}: material.infill_pct must be finite, got None\n")

    @pytest.mark.parametrize(
        "reference,key,what",
        [
            ("geometry", "motor_staton", "geometry"),
            ("deflection_coeffs", "alpha0", "coefficients"),
            ("hyperelastic_table", "row", "hyperelastic table"),
        ],
    )
    def test_unknown_key_in_an_input_json_exits_2(self, reference, key, what, tmp_path,
                                                  capsys):
        # A misspelt optional key once fell back to its default and exited 0:
        # motor_staton left the motor at the tip, alpha0 a droop of 0 deg.
        config = shipped_config()
        holder = config["material"] if reference == "hyperelastic_table" else config
        payload = json.loads(Path(holder[reference]).read_text())
        payload[key] = 0.83
        path = tmp_path / f"{reference}.json"
        path.write_text(json.dumps(payload))
        holder[reference] = str(path)
        code = main(["analyze", "--config", write_config(tmp_path, config)])
        captured = capsys.readouterr()
        assert code == EXIT_INPUT and captured.out == ""
        assert captured.err == f"softarm: input error: {path}: unknown {what} keys: '{key}'\n"

    @pytest.mark.parametrize("argv,name,what", JSON_FILE_OPTIONS)
    def test_unknown_keys_named_in_file_order(self, argv, name, what, tmp_path, capsys):
        payload = json.loads((default_data_dir() / name).read_text())
        path = tmp_path / name
        path.write_text(json.dumps({"a": 1, **payload, "b_": 2}))
        assert main([*argv, str(path)]) == EXIT_INPUT
        assert capsys.readouterr().err == (
            f"softarm: input error: {path}: unknown {what} keys: 'a', 'b_'\n")

    @pytest.mark.parametrize("argv,name,what", JSON_FILE_OPTIONS)
    @pytest.mark.parametrize("text", ["[1]", "5", '"x"', "null"])
    def test_input_json_that_is_not_an_object_exits_2(self, argv, name, what, text, tmp_path,
                                                      capsys):
        path = tmp_path / name
        path.write_text(text)
        assert main([*argv, str(path)]) == EXIT_INPUT
        assert capsys.readouterr().err == (
            f"softarm: input error: {path}: {what} must be a JSON object\n")

    @pytest.mark.parametrize(
        "argv",
        [["analyze", "--config"], ["pipe-fit", "--diameter", "0.2", "--geometry"]],
        ids=["analyze", "pipe-fit"],
    )
    def test_json_nested_too_deeply_exits_2(self, argv, tmp_path, capsys):
        # json.loads recurses once per level and raises RecursionError.
        path = tmp_path / "deep.json"
        path.write_text("[" * 100_000)
        assert main([*argv, str(path)]) == EXIT_INPUT
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith(f"softarm: input error: {path}: maximum recursion depth")

    @pytest.mark.parametrize(
        "section,key,value,message",
        [
            ("pipe", "tendon_force_n", -5,
             "pipe.tendon_force_n, pipe.contact_width_m: tendon_force must be >= 0, got -5"),
            ("pipe", "contact_width_m", 0,
             "pipe.tendon_force_n, pipe.contact_width_m: contact patch 0 m x "),
            ("pipe", "diameter_m", 0.01,
             "geometry, pipe.diameter_m: segment 1 chord 0.035 m exceeds pipe diameter 0.01 m"),
            # The shipped 10% hyperelastic row has c10 + c01 < 0.
            ("material", "infill_pct", 10, "effective modulus -2.1e+06 Pa is not positive"),
            ("propeller", "max_rpm", 0, "propeller.max_rpm must be > 0, got 0"),
            ("propeller", "max_rpm", -6000, "propeller.max_rpm must be > 0, got -6000"),
            ("propeller", "max_rpm", -10**300,
             f"propeller.max_rpm must be > 0, got -1{'0' * 16}...{'0' * 18}\n"),
            ("propeller", "nominal_thrust_n", 0,
             "propeller.nominal_thrust_n, propeller.nominal_rpm: nominal thrust 0 N at nominal "
             "rpm 4000: thrust_coefficient must be > 0"),
        ],
        ids=["tendon_force_n", "contact_width_zero", "diameter_below_chord", "infill_10pct",
             "max_rpm_zero", "max_rpm_negative", "max_rpm_301_digits", "nominal_thrust_zero"],
    )
    def test_out_of_range_config_value_exits_2(self, section, key, value, message, tmp_path,
                                               capsys):
        # A value outside a library routine's range is named by its config
        # key, the config's path first, except the infill, which the solver
        # meets through the hyperelastic row.
        config = shipped_config()
        config[section][key] = value
        path = write_config(tmp_path, config)
        code = main(["analyze", "--config", path])
        captured = capsys.readouterr()
        assert code == EXIT_INPUT and captured.out == ""
        assert captured.err.startswith("softarm: input error: ")
        assert message in captured.err
        if section != "material":
            assert captured.err.startswith(f"softarm: input error: {path}: {message}")

    @pytest.mark.parametrize(
        "where,key,field",
        [
            ("pipe", "diameter_m", "diameter"),
            ("pipe", "contact_width_m", "contact_width"),
            ("pipe", "tendon_force_n", "tendon_force"),
            ("propeller", "nominal_thrust_n", "thrust"),
            ("propeller", "max_rpm", "max_rpm"),
            ("propeller", "nominal_rpm", "rpm"),
            ("geometry", "motor_station", "motor_station"),
            ("geometry", "half_depth_m", "section_half_depth"),
            ("geometry", "linear_density_kg_m", "linear_density"),
            ("segment", "length_mm", "length_mm"),
        ],
    )
    def test_json_boolean_for_a_number_exits_2(self, where, key, field, tmp_path, capsys):
        # A JSON true is a Python bool, an int that arithmetic takes as 1: a
        # 1 m pipe, a motor at the tip, a 1 mm segment or (nominal_rpm) a
        # failed solve. A config value is named by its key and the config's
        # path; field is the library argument that once named it.
        config = shipped_config()
        if where in ("geometry", "segment"):
            geometry = json.loads(Path(config["geometry"]).read_text())
            (geometry if where == "geometry" else geometry["segments"][0])[key] = True
            config["geometry"] = str(tmp_path / "geometry.json")
            Path(config["geometry"]).write_text(json.dumps(geometry))
            prefix = "softarm: input error: "
        else:
            config[where][key] = True
            prefix, field = f"softarm: input error: {tmp_path / 'config.json'}: ", f"{where}.{key}"
        code = main(["analyze", "--config", write_config(tmp_path, config)])
        captured = capsys.readouterr()
        assert code == EXIT_INPUT and captured.out == ""
        assert captured.err.startswith(prefix)
        assert captured.err.endswith(f" {field} must be finite, got True\n")

    @pytest.mark.parametrize(
        "where,key,field",
        [
            ("coeffs", "a1", "a1"),
            ("segment", "length_mm", "length_mm"),
            ("propeller", "max_rpm", "max_rpm"),
            ("propeller", "nominal_rpm", "rpm"),
            ("pipe", "diameter_m", "diameter"),
        ],
    )
    def test_integer_too_large_for_a_float_is_named(self, where, key, field, tmp_path, capsys):
        # A 401-digit JSON integer once exited 2 with only "int too large to
        # convert to float", and then echoed all its digits. A config value
        # is named by its key and the config's path; field is the library
        # argument that once named it.
        big = 10**400
        config = shipped_config()
        path = None
        if where == "coeffs":
            path = tmp_path / "coeffs.json"
            coeffs = json.loads(Path(config["deflection_coeffs"]).read_text())
            coeffs[key] = big
            path.write_text(json.dumps(coeffs))
            config["deflection_coeffs"] = str(path)
        elif where == "segment":
            path = tmp_path / "geometry.json"
            geometry = json.loads(Path(config["geometry"]).read_text())
            geometry["segments"][0][key] = big
            path.write_text(json.dumps(geometry))
            config["geometry"] = str(path)
        else:
            config[where][key] = big
            path, field = tmp_path / "config.json", f"{where}.{key}"
        code = main(["analyze", "--config", write_config(tmp_path, config)])
        captured = capsys.readouterr()
        assert code == EXIT_INPUT and captured.out == ""
        assert captured.err.startswith(f"softarm: input error: {path}: ")
        assert captured.err.endswith(f" {field} must be finite, got 1{'0' * 17}...{'0' * 18}\n")

    @pytest.mark.parametrize(
        "section,key,value",
        [
            ("propeller", "nominal_rpm", 10**400),
            ("propeller", "nominal_thrust_n", None),
            ("pipe", "diameter_m", []),
            ("material", "infill_pct", {}),
        ],
        ids=["nominal_rpm_huge", "nominal_thrust_null", "diameter_list", "infill_object"],
    )
    def test_config_value_that_is_not_a_number_is_named(self, section, key, value, tmp_path,
                                                        capsys):
        # These once named the library's argument (rpm, thrust, diameter) or,
        # for the infill, the hyperelastic table's path.
        config = shipped_config()
        config[section][key] = value
        path = write_config(tmp_path, config)
        code = main(["analyze", "--config", path])
        captured = capsys.readouterr()
        assert code == EXIT_INPUT and captured.out == ""
        shown = repr(value) if value != 10**400 else f"1{'0' * 17}...{'0' * 18}"
        assert captured.err == (f"softarm: input error: {path}: {section}.{key} must be "
                                f"finite, got {shown}\n")

    @pytest.mark.parametrize("value", [5, True, None, [], {}, "", [0] * 100_000],
                             ids=["int", "true", "null", "list", "object", "empty", "long_list"])
    @pytest.mark.parametrize("section,key", [
        (None, "geometry"), (None, "efficiency_table"), (None, "deflection_coeffs"),
        ("material", "hyperelastic_table"),
    ], ids=["geometry", "efficiency_table", "deflection_coeffs", "hyperelastic_table"])
    def test_file_reference_that_is_not_a_file_name_is_named(self, section, key, value,
                                                             tmp_path, capsys):
        # These once exited 2 naming no key: a 5 gave "unsupported operand
        # type(s) for /: 'PosixPath' and 'int'", and "" gave "Is a directory".
        # The long list was once echoed whole, in about 300,000 characters.
        config = shipped_config()
        (config[section] if section else config)[key] = value
        path = write_config(tmp_path, config)
        code = main(["analyze", "--config", path])
        captured = capsys.readouterr()
        assert code == EXIT_INPUT and captured.out == ""
        name = f"{section}.{key}" if section else key
        shown = repr(value) if value != [0] * 100_000 else "[0, 0, 0, 0, 0, 0,... 0, 0, 0, 0, 0, 0]"
        assert captured.err == (f"softarm: input error: {path}: {name} must be a file name, "
                                f"got {shown}\n")

    @pytest.mark.parametrize(
        "argv,section,key",
        [
            (["sweep", "--axis", "arm_angle", "--rpm", "1e200"], None, None),
            (["fit-material", "--flexural", "FLEX", "--length", "1e120", "--inertia", "1e-10"],
             None, None),
            (["analyze"], "propeller", "max_rpm"),
            (["analyze"], "propeller", "nominal_rpm"),
        ],
        ids=["sweep-rpm", "fit-material-length", "analyze-max_rpm", "analyze-nominal_rpm"],
    )
    def test_overflowing_input_exits_2(self, argv, section, key, tmp_path, capsys):
        # rpm**2 and length**3 overflow a float: an input error, not a traceback.
        flexural = tmp_path / "flex.csv"
        flexural.write_text("force_n,deflection_m\n0.1,0.001\n0.2,0.002\n")
        argv = [str(flexural) if a == "FLEX" else a for a in argv]
        if section:
            config = shipped_config()
            config[section][key] = 1e200
            argv += ["--config", write_config(tmp_path, config)]
        code = main(argv)
        captured = capsys.readouterr()
        assert code == EXIT_INPUT and captured.out == ""
        assert captured.err.startswith("softarm: input error: ")

    @pytest.mark.parametrize(
        "argv,section,key,value,message",
        [
            (["analyze"], "propeller", "nominal_rpm", 5e-324,
             "nominal thrust 4.905 N at nominal rpm 5e-324: rpm**2 is out of float range"),
            (["analyze"], "propeller", "nominal_rpm", 1e-160,
             "nominal rpm 1e-160: thrust_coefficient must be finite, got inf"),
            (["analyze"], "propeller", "nominal_rpm", 1e200,
             "nominal rpm 1e+200: rpm**2 is out of float range"),
            (["analyze"], "propeller", "max_rpm", 1e200,
             "propeller.max_rpm: rpm 1e+200 is out of range: rpm**2 overflows"),
            # The thrust at max_rpm was once an unnamed inf: "thrust must be finite".
            (["analyze"], "propeller", "nominal_thrust_n", 1e308,
             "propeller.nominal_thrust_n, propeller.nominal_rpm, propeller.max_rpm: rpm 6000 is "
             "out of range: thrust_coefficient * rpm**2 overflows"),
            (["fit-material", "--flexural", "FLEX", "--length", "1e120", "--inertia", "1e-10"],
             None, None, None,
             "length 1e+120 m and section_inertia 1e-10 m^4 give a flexural modulus out of float"),
            (["sweep", "--axis", "arm_angle", "--rpm", "1e200"], None, None, None,
             "rpm 1e+200 is out of range: rpm**2 overflows"),
            (["pipe-fit", "--diameter", "0.2", "--contact-width", "5e-324"], None, None, None,
             "contact patch 5e-324 m x 0.17500000000000002 m has no area"),
            (["sweep", "--axis", "infill", "--contact-width", "5e-324"], None, None, None,
             "contact patch 5e-324 m x 0.17500000000000002 m has no area"),
            (["pipe-fit", "--diameter", "0.2", "--contact-width", "1e-310"], None, None, None,
             "tendon_force 12.0 N on the 1e-310 m x 0.17500000000000002 m contact patch"),
            (["deflect", "--rho", "6"], "coeffs", "a1", -1e308,
             "(a1=-1e+308, a2=-0.1997, b1=-0.162, b2=0.0151, alpha0=0.0) overflow at "
             "infill 6.0% and throttle 10.0"),
            (["deflect", "--rho", "6", "--throttle-pct", "50"], "coeffs", "a1", -1e308,
             "(a1=-1e+308, a2=-0.1997, b1=-0.162, b2=0.0151, alpha0=0.0) overflow at "
             "infill 6.0% and throttle 5.0"),
            # The march's angle overflows: cos raised "math domain error".
            (["analyze"], "geometry", ("segments", 0, "length_mm"), 1e308,
             "arm length 1e+305 m, smallest EI 0.3120000000000001 N m^2 and loads "
             "LoadCase(thrust=0.0, gravity=9.81, point_moments=()) put the elastica out of "
             "float range"),
            (["analyze"], "geometry", ("inertia_m4", 0), 5e-324,
             "arm length 0.17500000000000002 m, smallest EI 3.0829696e-317 N m^2 and loads "
             "LoadCase(thrust=0.0, gravity=9.81, "),
        ],
        ids=["nominal_rpm-5e-324", "nominal_rpm-1e-160", "nominal_rpm-1e200", "max_rpm-1e200",
             "nominal_thrust_n-1e308",
             "fit-material-length", "sweep-arm_angle-rpm", "pipe-fit-area-underflow", "sweep-infill-area-underflow",
             "pipe-fit-pressure-overflow", "deflect-envelope", "deflect-throttle",
             "analyze-length_mm", "analyze-inertia_m4"],
    )
    def test_out_of_float_range_input_is_named(self, argv, section, key, value, message,
                                              tmp_path, capsys):
        # Each of these once ended in a traceback, blamed a derived value or
        # named no input at all.
        flexural = tmp_path / "flex.csv"
        flexural.write_text("force_n,deflection_m\n0.1,0.001\n0.2,0.002\n")
        argv = [str(flexural) if a == "FLEX" else a for a in argv]
        if section == "coeffs":
            coeffs = json.loads((default_data_dir() / "deflection_coeffs.json").read_text())
            coeffs[key] = value
            (tmp_path / "coeffs.json").write_text(json.dumps(coeffs))
            argv = [*argv, "--coeffs", str(tmp_path / "coeffs.json")]
        elif section == "geometry":  # key is the path to the value in the geometry file
            config = shipped_config()
            geometry = json.loads(Path(config["geometry"]).read_text())
            reduce(operator.getitem, key[:-1], geometry)[key[-1]] = value
            config["geometry"] = str(tmp_path / "geometry.json")
            Path(config["geometry"]).write_text(json.dumps(geometry))
            argv = [*argv, "--config", write_config(tmp_path, config)]
        elif section:
            config = shipped_config()
            config[section][key] = value
            argv = [*argv, "--config", write_config(tmp_path, config)]
        code = main(argv)
        captured = capsys.readouterr()
        assert code == EXIT_INPUT and captured.out == ""
        assert captured.err.startswith("softarm: input error: ")
        assert message in captured.err

    @pytest.mark.parametrize("droop", [5000, 1e6, -90])
    def test_droop_out_of_range_exits_2(self, droop, tmp_path, capsys):
        # These once exited 0; 5000 reported -5000.2 deg at 0% throttle.
        config = shipped_config()
        geometry = json.loads(Path(config["geometry"]).read_text())
        geometry["alpha0_deg"] = droop
        config["geometry"] = str(tmp_path / "geometry.json")
        Path(config["geometry"]).write_text(json.dumps(geometry))
        code = main(["analyze", "--config", write_config(tmp_path, config)])
        captured = capsys.readouterr()
        assert code == EXIT_INPUT and captured.out == ""
        assert captured.err.endswith(
            f"bad geometry: initial_droop_deg must be in (-90, 90), got {droop}\n")

    def test_json_null_for_a_number_exits_2(self, tmp_path, capsys):
        geometry = json.loads((default_data_dir() / "arm_geometry.json").read_text())
        geometry["half_depth_m"] = None
        p = tmp_path / "geometry.json"
        p.write_text(json.dumps(geometry))
        code = main(["pipe-fit", "--diameter", "0.2", "--geometry", str(p)])
        captured = capsys.readouterr()
        assert code == EXIT_INPUT and captured.out == ""
        assert captured.err == (
            f"softarm: input error: {p}: bad geometry: section_half_depth must be finite, "
            "got None\n"
        )

    def test_csv_row_with_an_extra_column_exits_2(self, tmp_path, capsys):
        p = tmp_path / "table.csv"
        p.write_text("rpm,eta\n4000,0.895\n5000,0.909,1\n")
        code = main(["efficiency", "--rpm", "4500", "--table", str(p)])
        captured = capsys.readouterr()
        assert code == EXIT_INPUT and captured.out == ""
        assert captured.err == f"softarm: input error: {p}:3: expected 2 columns, got 3\n"

    def test_coefficients_without_a_key_exit_2(self, tmp_path, capsys):
        p = tmp_path / "coeffs.json"
        p.write_text(json.dumps({"a1": 2.4, "a2": -0.2, "b1": -0.16}))
        code = main(["deflect", "--rho", "6", "--coeffs", str(p)])
        captured = capsys.readouterr()
        assert code == EXIT_INPUT and captured.out == ""
        assert captured.err == f"softarm: input error: {p}: bad coefficients: 'b2'\n"

    @pytest.mark.parametrize("rpm", [0, -4000])
    def test_non_positive_nominal_rpm_exits_2(self, rpm, tmp_path, capsys):
        config = shipped_config()
        config["propeller"]["nominal_rpm"] = rpm
        path = write_config(tmp_path, config)
        code = main(["analyze", "--config", path])
        captured = capsys.readouterr()
        assert code == EXIT_INPUT and captured.out == ""
        assert captured.err == (f"softarm: input error: {path}: propeller.nominal_thrust_n, "
                                f"propeller.nominal_rpm: nominal rpm must be > 0, got {rpm}\n")

    @pytest.mark.parametrize(
        "table,message",
        [
            ({"rows": [{"rho_pct": 6, "c10": -3.19, "c01": 4.23, "c20": 0.64, "c02": -2.65}]},
             "bad hyperelastic table: 'c11'"),
            ([{"rho_pct": 6}],
             "hyperelastic table must be a JSON object"),
            ({"rows": [{"rho_pct": 8, "c10": -4.07, "c01": 4.18, "c20": 0.71, "c02": -2.62,
                        "c11": 4.54}]},
             "no hyperelastic row for infill 6%"),
        ],
        ids=["row_without_c11", "list", "no_row_for_infill"],
    )
    def test_bad_hyperelastic_table_names_the_file(self, table, message, tmp_path, capsys):
        p = tmp_path / "hyperelastic.json"
        p.write_text(json.dumps(table))
        config = shipped_config()
        config["material"]["hyperelastic_table"] = str(p)
        code = main(["analyze", "--config", write_config(tmp_path, config)])
        captured = capsys.readouterr()
        assert code == EXIT_INPUT and captured.out == ""
        assert captured.err == f"softarm: input error: {p}: {message}\n"


class TestFlagsWhereRead:
    @pytest.mark.parametrize(
        "argv",
        [
            ["efficiency", "--rpm", "4500", "--config", "x"],
            ["deflect", "--rho", "6", "--format", "csv"],
            ["fit-material", "--flexural", "f.csv", "--length", "0.3", "--inertia", "1e-9",
             "--half-depth", "0.01"],
            ["--config", "x", "analyze"],
        ],
        ids=["efficiency-config", "deflect-format", "fit-material-half-depth", "config-first"],
    )
    def test_flag_not_read_is_rejected(self, argv, capsys):
        with pytest.raises(SystemExit) as info:
            main(argv)
        assert info.value.code == EXIT_INPUT
        assert capsys.readouterr().out == ""

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
