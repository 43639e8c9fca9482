"""Every input fault of the command line, one row each: the command's
arguments, the edits to a copy of the shipped defaults that it runs over
(see `copy_defaults` in conftest.py), and its stderr, exactly. Every row
exits 2 and prints nothing to stdout.

In the arguments and the stderr, `<config>`, `<geometry>`, `<coeffs>`,
`<table>` and `<hyperelastic>` stand for the copied config, arm geometry,
deflection coefficients, efficiency table and hyperelastic table, `<dir>`
for the copy's folder and `<shipped>` for the shipped defaults' folder. An
input error's stderr is "softarm: input error: " and the row's text. Of an
argparse usage error, a row of one line is the last line, and a row of
several lines the whole stderr, usage included, at a terminal 80 columns
wide; both are compared as `even` reads them."""

import csv
import json
import re
import shlex

import pytest
from conftest import DEFAULTS, DROP, copy_defaults

from softarm.cli import EXIT_INPUT, default_data_dir, main

#: The file that each placeholder of a copied shipped file stands for.
FILES = {"config": "config.json", "geometry": "arm_geometry.json",
         "coeffs": "deflection_coeffs.json", "table": "efficiency_table.csv",
         "hyperelastic": "hyperelastic_coeffs.json"}
#: A command option that names a JSON input, the placeholder of its file,
#: and the label its messages give the file.
JSON_OPTIONS = [("pipe-fit --diameter 0.2 --geometry", "geometry", "geometry"),
                ("deflect --rho 6 --coeffs", "coeffs", "coefficients")]
#: The shipped hyperelastic table's 6% row.
ROW_6 = {"rho_pct": 6, "c10": -3.19, "c01": 4.23, "c20": 0.64, "c02": -2.65, "c11": 4.37}
FLEX = "force_n,deflection_m\n0.1,0.001\n0.2,0.002\n"
LIMIT = csv.field_size_limit()
#: How the messages echo a 401-digit integer.
BIG = f"1{'0' * 17}...{'0' * 18}"
#: The config keys that the propeller's thrust law and the elastica are blamed on.
NOMINAL = "<config>: propeller.nominal_thrust_n, propeller.nominal_rpm"
ELASTICA = ("<config>: geometry, material.hyperelastic_table, propeller.nominal_thrust_n, "
            "propeller.nominal_rpm, propeller.max_rpm")

#: The usage lines of a subcommand's usage error, at 80 columns.
USAGE = {
    "deflect": """\
usage: softarm deflect [-h] [--out OUT] [--quiet] [--timestamp] --rho RHO
                       [--throttle-pct THROTTLE_PCT] [--envelope]
                       [--coeffs COEFFS] [--alpha0 ALPHA0]
""",
    "efficiency": """\
usage: softarm efficiency [-h] [--out OUT] [--quiet] [--timestamp] --rpm RPM
                          [--station STATION] [--table TABLE]
""",
    "pipe-fit": """\
usage: softarm pipe-fit [-h] [--out OUT] [--quiet] [--timestamp] --diameter
                        DIAMETER [--geometry GEOMETRY]
                        [--tendon-force TENDON_FORCE]
                        [--contact-width CONTACT_WIDTH] [--infill INFILL]
""",
    "sweep": """\
usage: softarm sweep [-h] [--out OUT] [--quiet] [--timestamp] --axis
                     {motor_station,arm_angle,throttle,infill}
                     [--format {json,csv}] [--rpm RPM] [--rho RHO]
                     [--tendon-force TENDON_FORCE]
                     [--contact-width CONTACT_WIDTH] [--table TABLE]
""",
}


def replaced(name, old, new):
    """The shipped file name's text with its one old replaced by new."""
    text = DEFAULTS[name].decode()
    assert text.count(old) == 1
    return text.replace(old, new)


def even(usage):
    """An argparse usage error with what the interpreters format differently
    evened out: 3.13 breaks the usage lines elsewhere, and its later releases
    drop the quotes round the choices."""
    usage = re.sub(r"\(choose from .*\)", lambda choices: choices[0].replace("'", ""), usage)
    return " ".join(usage.split())


#: (id, argv, edits, stderr). An id is the name of the test the case came
#: from, without "test_", and its case id.
INPUT_FAULTS = [
    # --- CSV tables.
    *[(f"field_over_the_csv_size_limit_names_its_line-{line}",
       "efficiency --rpm 4500 --table <table>",
       {"efficiency_table.csv": "\n".join(lines) + "\n"},
       f"<table>:{line}: field larger than field limit ({LIMIT})")
      # The csv module raises its own csv.Error, which is no ValueError.
      for line, lines in [(1, ["1" * (LIMIT + 1) + ",0.9", "4000,0.895", "5000,0.909"]),
                          (3, ["rpm,eta", "4000,0.895", "1" * (LIMIT + 1) + ",0.9"])]],
    ("undecodable_byte_names_the_file", "efficiency --rpm 4500 --table <table>",
     {"efficiency_table.csv": b"rpm,eta\n4000,0.895\xff\n"},
     "<table>: 'utf-8' codec can't decode byte 0xff in position 18: invalid start byte"),
    # A quoted field carries its record over a line break, so records and
    # lines part: the x of the first file is record 3 on line 4.
    *[(f"record_is_numbered_by_the_line_it_starts_on-{case}",
       "efficiency --rpm 4500 --table <table>", {"efficiency_table.csv": text},
       f"<table>:{line}: could not convert string to float: {cell!r}")
      for case, text, line, cell in [
          ("after_a_two_line_record", 'rpm,eta\n"4000\n",0.895\nx,0.9\n', 4, "x"),
          ("in_a_two_line_record", 'rpm,eta\n4000,0.895\n"x\n",0.9\n', 3, "x\n"),
          ("after_a_two_line_record_crlf", 'rpm,eta\r\n"4000\r\n",0.895\r\nx,0.9\r\n', 4, "x"),
          ("in_a_two_line_record_crlf", 'rpm,eta\r\n4000,0.895\r\n"x\r\n",0.9\r\n', 3,
           "x\r\n")]],
    ("nan_row_in_efficiency_csv_names_line", "efficiency --rpm 4500 --table <table>",
     {"efficiency_table.csv": "rpm,eta\n4000,0.895\nnan,0.9\n"},
     "<table>:3: non-finite number nan is not allowed"),
    ("csv_row_with_an_extra_column_exits_2", "efficiency --rpm 4500 --table <table>",
     {"efficiency_table.csv": "rpm,eta\n4000,0.895\n5000,0.909,1\n"},
     "<table>:3: expected 2 columns, got 3"),

    # --- fit-material.
    ("no_input_is_input_error", "fit-material", {},
     "one of --stress-strain or --flexural is required"),
    # The option check once came after the stress-strain fit: this named
    # the missing file.
    ("flexural_without_length_before_any_read",
     "fit-material --stress-strain <dir>/missing.csv --flexural <dir>/flex.csv", {"flex.csv": FLEX},
     "--flexural requires --length and --inertia"),
    ("empty_csv_is_input_error", "fit-material --stress-strain <dir>/empty.csv",
     {"empty.csv": "strain,stress_pa\n"}, "<dir>/empty.csv:2: no data rows"),
    ("overflowing_residual_exits_2", "fit-material --stress-strain <dir>/curve.csv",
     {"curve.csv": "strain,stress_pa\n0.1,1e300\n0.2,2\n0.3,3\n0.4,4\n0.5,5\n"},
     "residual_norm must be finite, got inf"),
    # The sum of squared deflections once overflowed to inf, which read as a
    # slope of 0: "fit error: non-positive force/deflection slope 0.0".
    ("overflowing_deflection_exits_2",
     "fit-material --flexural <dir>/flex.csv --length 0.3 --inertia 1e-9",
     {"flex.csv": "force_n,deflection_m\n0.5,1e200\n1.0,0.36\n2.0,0.72\n"},
     "deflections up to 1e+200 m and forces up to 2 N put the fit's sums out of float range"),
    # The sum of squared deflections once underflowed to 0.0, which read as
    # "fit error: all deflections are zero", exit 3.
    ("underflowing_deflection_exits_2",
     "fit-material --flexural <dir>/flex.csv --length 0.3 --inertia 1e-9",
     {"flex.csv": "force_n,deflection_m\n0.5,1e-170\n1.0,2e-170\n2.0,4e-170\n"},
     "deflections up to 4e-170 m underflow the fit's sums"),

    # --- Options out of range.
    *[(f"negative_tendon_force_is_input_error-{argv.split()[0]}", f"{argv} --tendon-force -5", {},
       "tendon_force must be >= 0, got -5.0")
      for argv in ["pipe-fit --diameter 0.2", "sweep --axis infill"]],
    ("pipe_too_small_is_input_error", "pipe-fit --diameter 0.054", {},
     "<shipped>/arm_geometry.json: --diameter: segment 4 chord 0.055 m exceeds pipe diameter "
     "0.054 m"),
    ("chord_longer_than_the_pipe_names_the_geometry_and_diameter",
     "pipe-fit --diameter 0.2 --geometry <geometry>",
     {"arm_geometry.json:segments.0.length_mm": 1e308},
     "<geometry>: --diameter: segment 1 chord 1e+305 m exceeds pipe diameter 0.2 m"),
    *[(f"out_of_range_option_exits_2-{case}", argv, {}, message) for case, argv, message in [
        ("pipe-fit-diameter", "pipe-fit --diameter 0", "diameter must be > 0"),
        ("efficiency-rpm", "efficiency --rpm 0", "rpm must be > 0, got 0.0"),
        ("efficiency-station", "efficiency --rpm 4000 --station 2",
         "x_c must be in (0, 1], got 2.0"),
        ("sweep-station-rpm", "sweep --axis motor_station --rpm 0", "rpm must be > 0, got 0.0"),
        ("sweep-negative-rpm", "sweep --axis arm_angle --rpm=-1", "rpm must be >= 0, got -1.0"),
        ("fit-material-length", "fit-material --flexural flex.csv --inertia 1e-9",
         "--flexural requires --length and --inertia")]],
    *[(f"infill_outside_0_100_exits_2-{case}", argv, {},
       f"infill must be in (0, 100), got {value}") for case, argv, value in [
        ("deflect-point", "deflect --rho -50 --throttle-pct 50", -50.0),
        ("deflect-envelope", "deflect --rho 150", 150.0),
        ("sweep-throttle", "sweep --axis throttle --rho -20", -20.0),
        ("sweep-throttle-above", "sweep --axis throttle --rho 150", 150.0),
        ("pipe-fit", "pipe-fit --diameter 0.2 --infill -5", -5.0)]],

    # --- The config: its shape and keys.
    ("missing_config_is_input_error", "analyze --config /nonexistent/config.json", {},
     "/nonexistent/config.json: [Errno 2] No such file or directory: '/nonexistent/config.json'"),
    ("config_missing_section_is_input_error", "analyze --config <config>",
     {"config.json": "{}"}, "<config>: config has no 'geometry' key"),
    ("config_that_is_not_an_object_exits_2", "analyze --config <config>",
     {"config.json": "[1]"}, "<config>: config must be a JSON object"),
    *[(f"config_section_that_is_not_an_object_exits_2-{case}-{section}",
       "analyze --config <config>", {f"config.json:{section}": value},
       f"<config>: config section '{section}' must be an object, got {kind}")
      for case, value, kind in [("number", 5, "int"), ("array", [1], "list"),
                                ("string", "x", "str")]
      for section in ["material", "propeller", "pipe"]],
    *[(f"config_missing_required_section_names_it-{section}", "analyze --config <config>",
       {f"config.json:{section}": DROP}, f"<config>: config has no '{section}' section")
      for section in ["material", "propeller", "pipe"]],
    # Sections of older configs: the analysis grid, thresholds and solver
    # settings they set are constants of the tool.
    ("parent_config_names_the_removed_keys", "analyze --config <config>",
     {"config.json:rpm": 4000, "config.json:throttle": {"max_pct": 100, "step_pct": 10},
      "config.json:deflection": {"infill_rates_pct": [6, 8, 10], "t_max": 10.0, "step": 0.1},
      "config.json:thresholds": {"attach_pressure_n_m2": 1000.0, "bendable_infill_max_pct": 15.0,
                                 "deflection_bound_deg": 14.0}},
     "<config>: unknown config keys: 'rpm', 'throttle', 'deflection', 'thresholds'"),
    ("config_key_outside_the_table_exits_2-misspelled", "analyze --config <config>",
     {"config.json:pipe.diameter_m": DROP, "config.json:pipe.diametre_m": 0.2},
     "<config>: unknown config keys: 'pipe.diametre_m'"),
    ("config_key_outside_the_table_exits_2-missing", "analyze --config <config>",
     {"config.json:propeller.max_rpm": DROP}, "<config>: config has no 'propeller.max_rpm' key"),
    ("config_key_outside_the_table_exits_2-missing_file_reference", "analyze --config <config>",
     {"config.json:geometry": DROP}, "<config>: config has no 'geometry' key"),
    # The config is checked key by key in table order; the missing key was
    # once named first: "config has no 'propeller.max_rpm' key".
    ("number_error_comes_before_a_key_error_in_a_later_section", "analyze --config <config>",
     {"config.json:material.infill_pct": None, "config.json:propeller.max_rpm": DROP},
     "<config>: material.infill_pct must be finite, got None"),
    # These once exited 2 naming no key: a 5 gave "unsupported operand
    # type(s) for /: 'PosixPath' and 'int'", and "" gave "Is a directory".
    # The long list was once echoed whole, in about 300,000 characters.
    *[(f"file_reference_that_is_not_a_file_name_is_named-{key.split('.')[-1]}-{case}",
       "analyze --config <config>", {f"config.json:{key}": value},
       f"<config>: {key} must be a file name, got {shown}")
      for key in ["geometry", "efficiency_table", "deflection_coeffs",
                  "material.hyperelastic_table"]
      for case, value, shown in [
          ("int", 5, "5"), ("true", True, "True"), ("null", None, "None"), ("list", [], "[]"),
          ("object", {}, "{}"), ("empty", "", "''"),
          ("long_list", [0] * 100_000, "[0, 0, 0, 0, 0, 0,... 0, 0, 0, 0, 0, 0]")]],

    # --- The JSON inputs: their shape and keys.
    # A misspelt optional key once fell back to its default and exited 0:
    # motor_staton left the motor at the tip, alpha0 a droop of 0 deg.
    *[(f"unknown_key_in_an_input_json_exits_2-{reference}-{key}-{what.replace(' ', '_')}",
       "analyze --config <config>", {f"{FILES[file]}:{key}": 0.83},
       f"<{file}>: unknown {what} keys: '{key}'") for reference, file, key, what in [
        ("geometry", "geometry", "motor_staton", "geometry"),
        ("deflection_coeffs", "coeffs", "alpha0", "coefficients"),
        ("hyperelastic_table", "hyperelastic", "row", "hyperelastic table")]],
    *[(f"unknown_keys_named_in_file_order-{file}", f"{argv} <{file}>",
       {FILES[file]: json.dumps({"a": 1, **json.loads(DEFAULTS[FILES[file]]), "b_": 2})},
       f"<{file}>: unknown {what} keys: 'a', 'b_'") for argv, file, what in JSON_OPTIONS],
    # The last value once won silently, and the command exited 0. The key
    # is named where it is, as the key table's walk names keys; bare when
    # the text after it does not parse.
    *[(f"key_given_twice_exits_2-{case}",
       ("analyze --config <config>" if file == "config"
        else "pipe-fit --diameter 0.2 --geometry <geometry>"),
       {FILES[file]: replaced(FILES[file], old, new)}, f"<{file}>: duplicate key '{key}'")
      for case, file, old, new, key in [
          ("top_level", "geometry", '"linear_density_kg_m": 0.15',
           '"linear_density_kg_m": 0.15, "half_depth_m": 0.02', "half_depth_m"),
          ("segment", "geometry", '{"beta_deg": 19, "length_mm": 45}',
           '{"beta_deg": 19, "length_mm": 45, "beta_deg": 20}', "segments[2].beta_deg"),
          ("config", "config", '"deflection_coeffs": ',
           '"geometry": "arm_geometry.json", "deflection_coeffs": ', "geometry"),
          ("config_section", "config", '"infill_pct": 6', '"infill_pct": 6, "infill_pct": 8',
           "material.infill_pct"),
          ("unread_note", "geometry", '"_note": ', '"_note": {"by": 1, "by": 2}, "_": ',
           "_note.by"),
          ("bad_rest", "geometry", '"linear_density_kg_m": 0.15',
           '"linear_density_kg_m": 0.15, "x": {"k": 1, "k": 2}, "y": ,', "k")]],
    *[(f"input_json_that_is_not_an_object_exits_2-{text}-{file}", f"{argv} <{file}>",
       {FILES[file]: text}, f"<{file}>: {what} must be a JSON object")
      for text in ["[1]", "5", '"x"', "null"] for argv, file, what in JSON_OPTIONS],
    # json.loads recurses once per level and raises RecursionError.
    *[(f"json_nested_too_deeply_exits_2-{argv.split()[0]}", f"{argv} <{file}>",
       {FILES[file]: "[" * 100_000}, f"<{file}>: maximum recursion depth exceeded while decoding "
       "a JSON array from a unicode string")
      for argv, file in [("analyze --config", "config"),
                         ("pipe-fit --diameter 0.2 --geometry", "geometry")]],
    ("coefficients_without_a_key_exit_2", "deflect --rho 6 --coeffs <coeffs>",
     {"deflection_coeffs.json": '{"a1": 2.4, "a2": -0.2, "b1": -0.16}'},
     "<coeffs>: coefficients has no 'b2' key"),
    ("json_null_for_a_number_exits_2", "pipe-fit --diameter 0.2 --geometry <geometry>",
     {"arm_geometry.json:half_depth_m": None}, "<geometry>: half_depth_m must be finite, got None"),

    # --- Config values.
    ("nan_threshold_in_config_exits_2", "analyze --config <config>",
     {"config.json:pipe.tendon_force_n": float("nan")},
     "<config>: non-finite number NaN is not allowed"),
    # A value outside a library routine's range is named by its config key,
    # the config's path first, except the infill, which the solver meets
    # through the hyperelastic row.
    *[(f"out_of_range_config_value_exits_2-{case}", "analyze --config <config>",
       {f"config.json:{key}": value}, message) for case, key, value, message in [
        ("tendon_force_n", "pipe.tendon_force_n", -5,
         "<config>: pipe.tendon_force_n, pipe.contact_width_m: tendon_force must be >= 0, got -5"),
        ("contact_width_zero", "pipe.contact_width_m", 0,
         "<config>: pipe.tendon_force_n, pipe.contact_width_m: contact patch 0 m x "
         "0.17500000000000002 m has no area"),
        ("diameter_below_chord", "pipe.diameter_m", 0.01,
         "<config>: geometry, pipe.diameter_m: segment 1 chord 0.035 m exceeds pipe diameter "
         "0.01 m"),
        # The shipped 10% hyperelastic row has c10 + c01 < 0.
        ("infill_10pct", "material.infill_pct", 10,
         "<hyperelastic>: infill 10% row: effective modulus -2.1e+06 Pa is not positive"),
        ("max_rpm_zero", "propeller.max_rpm", 0, "<config>: propeller.max_rpm must be > 0, got 0"),
        ("max_rpm_negative", "propeller.max_rpm", -6000,
         "<config>: propeller.max_rpm must be > 0, got -6000"),
        ("max_rpm_301_digits", "propeller.max_rpm", -10**300,
         f"<config>: propeller.max_rpm must be > 0, got -1{'0' * 16}...{'0' * 18}"),
        ("nominal_thrust_zero", "propeller.nominal_thrust_n", 0,
         "<config>: propeller.nominal_thrust_n, propeller.nominal_rpm: nominal thrust 0 N at "
         "nominal rpm 4000: thrust_coefficient must be > 0")]],
    *[(f"non_positive_nominal_rpm_exits_2-{rpm}", "analyze --config <config>",
       {"config.json:propeller.nominal_rpm": rpm},
       "<config>: propeller.nominal_thrust_n, propeller.nominal_rpm: nominal rpm must be > 0, "
       f"got {rpm}") for rpm in [0, -4000]],
    # A JSON true is a Python bool, an int that arithmetic takes as 1: a 1 m
    # pipe, a motor at the tip, a 1 mm segment or (nominal_rpm) a failed
    # solve. A config value is named by its key and the config's path, a
    # geometry value by its key as written in the file; the last part of
    # the id is the library argument that once named it.
    *[(f"json_boolean_for_a_number_exits_2-{where}-{key}-{field}", "analyze --config <config>",
       {f"config.json:{where}.{key}": True}, f"<config>: {where}.{key} must be finite, got True")
      for where, key, field in [
          ("pipe", "diameter_m", "diameter"), ("pipe", "contact_width_m", "contact_width"),
          ("pipe", "tendon_force_n", "tendon_force"), ("propeller", "nominal_thrust_n", "thrust"),
          ("propeller", "max_rpm", "max_rpm"), ("propeller", "nominal_rpm", "rpm")]],
    *[(f"json_boolean_for_a_number_exits_2-{where}-{key.split('.')[-1]}-{field}",
       "analyze --config <config>", {f"arm_geometry.json:{key}": True},
       f"<geometry>: {field} must be finite, got True") for where, key, field in [
        ("geometry", "motor_station", "motor_station"),
        ("geometry", "half_depth_m", "half_depth_m"),
        ("geometry", "linear_density_kg_m", "linear_density_kg_m"),
        ("segment", "segments.0.length_mm", "segments[0].length_mm")]],
    # A 401-digit JSON integer once exited 2 with only "int too large to
    # convert to float", and then echoed all its digits.
    *[(f"integer_too_large_for_a_float_is_named-{case}", "analyze --config <config>",
       {edit: 10**400}, f"{named} must be finite, got {BIG}") for case, edit, named in [
        ("coeffs-a1-a1", "deflection_coeffs.json:a1", "<coeffs>: a1"),
        ("segment-length_mm-segments[0].length_mm", "arm_geometry.json:segments.0.length_mm",
         "<geometry>: segments[0].length_mm"),
        ("propeller-max_rpm-max_rpm", "config.json:propeller.max_rpm",
         "<config>: propeller.max_rpm"),
        ("pipe-diameter_m-diameter", "config.json:pipe.diameter_m", "<config>: pipe.diameter_m")]],
    # These once named the library's argument (rpm, thrust, diameter) or,
    # for the infill, the hyperelastic table's path.
    *[(f"config_value_that_is_not_a_number_is_named-{case}", "analyze --config <config>",
       {f"config.json:{key}": value}, f"<config>: {key} must be finite, got {shown}")
      for case, key, value, shown in [
          ("nominal_rpm_huge", "propeller.nominal_rpm", 10**400, BIG),
          ("nominal_thrust_null", "propeller.nominal_thrust_n", None, "None"),
          ("diameter_list", "pipe.diameter_m", [], "[]"),
          ("infill_object", "material.infill_pct", {}, "{}")]],
    ("non_finite_geometry_is_input_error", "analyze --config <config>",
     {"arm_geometry.json:linear_density_kg_m": float("nan")},
     "<geometry>: non-finite number NaN is not allowed"),
    # These once exited 0; 5000 reported -5000.2 deg at 0% throttle.
    *[(f"droop_out_of_range_exits_2-{droop}", "analyze --config <config>",
       {"arm_geometry.json:alpha0_deg": droop},
       f"<geometry>: bad geometry: initial_droop_deg must be in (-90, 90), got {droop}")
      for droop in [5000, 1e6, -90]],

    # --- Values out of float range. Each of these once ended in a
    # traceback, blamed a derived value or named no input at all.
    *[(f"out_of_float_range_input_is_named-{case}", argv, edits, message)
      for case, argv, edits, message in [
          ("nominal_rpm-5e-324", "analyze --config <config>",
           {"config.json:propeller.nominal_rpm": 5e-324},
           f"{NOMINAL}: nominal thrust 4.905 N at nominal rpm 5e-324: rpm**2 is out of float "
           "range"),
          ("nominal_rpm-1e-160", "analyze --config <config>",
           {"config.json:propeller.nominal_rpm": 1e-160},
           f"{NOMINAL}: nominal thrust 4.905 N at nominal rpm 1e-160: thrust_coefficient must "
           "be finite, got inf"),
          ("nominal_rpm-1e200", "analyze --config <config>",
           {"config.json:propeller.nominal_rpm": 1e200},
           f"{NOMINAL}: nominal thrust 4.905 N at nominal rpm 1e+200: rpm**2 is out of float "
           "range"),
          ("max_rpm-1e200", "analyze --config <config>",
           {"config.json:propeller.max_rpm": 1e200},
           f"{NOMINAL}, propeller.max_rpm: rpm 1e+200 is out of range: rpm**2 overflows"),
          # The thrust at max_rpm was once an unnamed inf: "thrust must be finite".
          ("nominal_thrust_n-1e308", "analyze --config <config>",
           {"config.json:propeller.nominal_thrust_n": 1e308},
           f"{NOMINAL}, propeller.max_rpm: rpm 6000 is out of range: thrust_coefficient * "
           "rpm**2 overflows"),
          ("fit-material-length",
           "fit-material --flexural <dir>/flex.csv --length 1e120 --inertia 1e-10",
           {"flex.csv": FLEX},
           "length 1e+120 m and section_inertia 1e-10 m^4 give a flexural modulus out of float "
           "range"),
          ("sweep-arm_angle-rpm", "sweep --axis arm_angle --rpm 1e200", {},
           "rpm 1e+200 is out of range: rpm**2 overflows"),
          ("pipe-fit-area-underflow", "pipe-fit --diameter 0.2 --contact-width 5e-324", {},
           "contact patch 5e-324 m x 0.17500000000000002 m has no area"),
          ("sweep-infill-area-underflow", "sweep --axis infill --contact-width 5e-324", {},
           "contact patch 5e-324 m x 0.17500000000000002 m has no area"),
          ("pipe-fit-pressure-overflow", "pipe-fit --diameter 0.2 --contact-width 1e-310", {},
           "tendon_force 12.0 N on the 1e-310 m x 0.17500000000000002 m contact patch "
           "overflows the pressure"),
          ("deflect-envelope", "deflect --rho 6 --coeffs <coeffs>",
           {"deflection_coeffs.json:a1": -1e308},
           "DeflectionModelCoeffs(a1=-1e+308, a2=-0.1997, b1=-0.162, b2=0.0151, alpha0=0.0) "
           "overflow at infill 6.0% and throttle 10.0"),
          ("deflect-throttle", "deflect --rho 6 --throttle-pct 50 --coeffs <coeffs>",
           {"deflection_coeffs.json:a1": -1e308},
           "DeflectionModelCoeffs(a1=-1e+308, a2=-0.1997, b1=-0.162, b2=0.0151, alpha0=0.0) "
           "overflow at infill 6.0% and throttle 5.0"),
          ("analyze-inertia_m4", "analyze --config <config>",
           {"arm_geometry.json:inertia_m4.0": 5e-324},
           f"{ELASTICA}: arm length 0.17500000000000002 m, smallest EI 3.0829696e-317 N m^2 "
           "and loads LoadCase(thrust=0.0, gravity=9.81, point_moments=()) put the elastica out "
           "of float range")]],
    # Both once named no file: the overflow may come from the geometry, the
    # modulus of the hyperelastic row or the propeller's thrust. The march's
    # angle overflows: cos raised "math domain error"; and an EI of inf was
    # once a rigid first segment, and exit 0.
    *[(f"elastica_overflow_names_the_config-{case}", "analyze --config <config>",
       {f"arm_geometry.json:{key}": 1e308}, f"{ELASTICA}: {message}") for case, key, message in [
          ("length_mm", "segments.0.length_mm", "arm length 1e+305 m, smallest EI "
           "0.3120000000000001 N m^2 and loads LoadCase(thrust=0.0, gravity=9.81, "
           "point_moments=()) put the elastica out of float range"),
          ("inertia_m4", "inertia_m4.0", "EI of segment 1, modulus 6240000.000000003 Pa times "
           "inertia 1e+308 m^4, is out of float range")]],

    # --- The coefficients and the hyperelastic table.
    # The envelope's overflow once named no file: "softarm: input error:
    # DeflectionModelCoeffs(a1=1e+308, ...) overflow at infill 6% and throttle 10.0".
    ("overflowing_coefficient_names_its_file", "analyze --config <config>",
     {"deflection_coeffs.json": '{"a1": 1e308, "a2": 0.0, "b1": 0.0, "b2": 0.0}'},
     "<coeffs>: DeflectionModelCoeffs(a1=1e+308, a2=0.0, b1=0.0, b2=0.0, alpha0=0.0) overflow "
     "at infill 6% and throttle 10.0"),
    *[(f"bad_hyperelastic_table_names_the_file-{case}", "analyze --config <config>",
       {"hyperelastic_coeffs.json": json.dumps(table)}, f"<hyperelastic>: {message}")
      for case, table, message in [
          ("row_without_c11",
           {"rows": [{"rho_pct": 6, "c10": -3.19, "c01": 4.23, "c20": 0.64, "c02": -2.65}]},
           "hyperelastic table has no 'rows[0].c11' key"),
          ("list", [{"rho_pct": 6}], "hyperelastic table must be a JSON object"),
          ("no_row_for_infill", {"rows": [{"rho_pct": 8, "c10": -4.07, "c01": 4.18, "c20": 0.71,
                                           "c02": -2.62, "c11": 4.54}]},
           "no hyperelastic row for infill 6%"),
          # Every row is checked, not only those up to the one asked for.
          ("later_row_without_a_number_for_rho",
           {"rows": [ROW_6, {"rho_pct": "x"}, {"rho_pct": 6, "c10": 1e6}]},
           "rows[1].rho_pct must be finite, got 'x'"),
          ("later_row_without_coefficients", {"rows": [ROW_6, {"rho_pct": 8}]},
           "hyperelastic table has no 'rows[1].c10' key"),
          ("earlier_row_with_a_true_coefficient",
           {"rows": [{**ROW_6, "rho_pct": 8, "c02": True}, ROW_6]},
           "rows[0].c02 must be finite, got True"),
          ("second_row_for_infill", {"rows": [ROW_6, {**ROW_6, "c10": 1e6}]},
           "two hyperelastic rows for infill 6%")]],
    *[(f"overflowing_small_strain_modulus_names_the_table-{key}", "analyze --config <config>",
       {"hyperelastic_coeffs.json:rows": [{**ROW_6, key: 1e308}]},
       "<hyperelastic>: infill 6% row: small-strain modulus 6 (c10 + c01) must be finite, got inf")
      for key in ["c10", "c01"]],
    # 6 (c10 + c01) MPa is finite, but not in Pa: the elastica once solved a
    # rigid arm, -5.0 deg at every throttle, and exited 0.
    *[(f"infinite_effective_modulus_names_the_table-{key}", "analyze --config <config>",
       {"hyperelastic_coeffs.json:rows": [{**ROW_6, key: 1e303}]},
       "<hyperelastic>: infill 6% row: effective modulus inf Pa is out of float range")
      for key in ["c10", "c01"]],
    # A true equals the infill 1, and so once picked the row's coefficients.
    *[(f"hyperelastic_row_without_a_number_for_rho_exits_2-{case}", "analyze --config <config>",
       {"hyperelastic_coeffs.json:rows": [{**ROW_6, "rho_pct": rho}],
        "config.json:material.infill_pct": 1},
       f"<hyperelastic>: rows[0].rho_pct must be finite, got {rho!r}")
      for case, rho in [("true", True), ("string", "1"), ("null", None)]],

    # --- Usage errors.
    *[(f"non_finite_option_exits_2-{command}", f"{command} {options}", {},
       f"softarm {command}: error: argument {option}: invalid _finite_float value: '{value}'")
      for command, options, option, value in [
          ("deflect", "--rho nan --throttle-pct 50", "--rho", "nan"),
          ("efficiency", "--rpm nan", "--rpm", "nan"),
          ("pipe-fit", "--diameter 0.2 --tendon-force inf", "--tendon-force", "inf"),
          ("sweep", "--axis throttle --rho nan", "--rho", "nan")]],
    *[(f"flag_not_read_is_rejected-{case}", argv, {}, message) for case, argv, message in [
        ("efficiency-config", "efficiency --rpm 4500 --config x",
         "softarm: error: unrecognized arguments: --config x"),
        ("deflect-format", "deflect --rho 6 --format csv",
         "softarm: error: unrecognized arguments: --format csv"),
        ("fit-material-half-depth",
         "fit-material --flexural f.csv --length 0.3 --inertia 1e-9 --half-depth 0.01",
         "softarm: error: unrecognized arguments: --half-depth 0.01"),
        ("config-first", "--config x analyze",
         "softarm: error: argument command: invalid choice: 'x' (choose from 'fit-material', "
         "'analyze', 'deflect', 'efficiency', 'pipe-fit', 'sweep')")]],
    *[(f"negative_non_finite_value_is_a_usage_error-{value}",
       f"deflect --rho 6 --alpha0 {value}", {},
       "softarm deflect: error: argument --alpha0: expected one argument")
      for value in ["-inf", "-nan"]],
    # Path("") is the current directory, which no input file option means.
    *[(f"empty_input_file_name_is_rejected-{case}", f"{argv} ''", {},
       f"softarm {argv.split()[0]}: error: argument {argv.split()[-1]}: empty file name")
      for case, argv in [
        ("config", "analyze --config"), ("coeffs", "deflect --rho 6 --coeffs"),
        ("table", "efficiency --rpm 4500 --table"),
        ("sweep_table", "sweep --axis motor_station --table"),
        ("geometry", "pipe-fit --diameter 0.2 --geometry"),
        ("stress_strain", "fit-material --stress-strain"),
        ("flexural", "fit-material --flexural")]],
    ("without_a_command", "", {}, "softarm: error: the following arguments are required: command"),
    # The whole stderr: a missing required option, an invalid choice and a
    # value that is not a number.
    *[(f"{command.replace('-', '_')}_without_{option[2:]}", command, {},
       f"{USAGE[command]}softarm {command}: error: the following arguments are required: {option}")
      for command, option in [("deflect", "--rho"), ("efficiency", "--rpm"),
                              ("pipe-fit", "--diameter"), ("sweep", "--axis")]],
    ("unknown_axis_rejected", "sweep --axis banana", {},
     f"{USAGE['sweep']}softarm sweep: error: argument --axis: invalid choice: 'banana' (choose "
     "from 'motor_station', 'arm_angle', 'throttle', 'infill')"),
    ("efficiency_rpm_not_a_number", "efficiency --rpm x", {},
     f"{USAGE['efficiency']}softarm efficiency: error: argument --rpm: invalid _finite_float "
     "value: 'x'"),
]


@pytest.mark.parametrize("argv,edits,stderr", [pytest.param(*row, id=name)
                                                for name, *row in INPUT_FAULTS])
def test_input_fault(argv, edits, stderr, tmp_path, monkeypatch, capsys):
    monkeypatch.setenv("COLUMNS", "80")
    folder = copy_defaults(tmp_path, edits)
    paths = {"<dir>": folder, "<shipped>": default_data_dir(),
             **{f"<{mark}>": folder / name for mark, name in FILES.items()}}

    def fill(text):
        for mark, path in paths.items():
            text = text.replace(mark, str(path))
        return text

    try:
        code, prefix = main([fill(arg) for arg in shlex.split(argv)]), "softarm: input error: "
    except SystemExit as exc:
        code, prefix = exc.code, ""
    out, err = capsys.readouterr()
    expected = f"{prefix}{fill(stderr)}\n"
    if not prefix:  # a usage error: its last line, or all of it
        err = even(err if "\n" in stderr else err.splitlines(keepends=True)[-1])
        expected = even(expected)
    assert (code, out, err) == (EXIT_INPUT, "", expected)
