"""The input boundary under mutation: a copy of a shipped input (the
deflection coefficients, the numbers of the analyze config, or one number of
the arm geometry) with one or two leaves replaced exits 0, 2, 3 or 4 without a
traceback; an exit-0 report holds only finite numbers, and an exit-2 message
names the file or the key. Each numeric option of each command, set to an
extreme, a non-finite or a non-numeric value, exits 0 or 2, and an exit-0
report holds only finite numbers. One number of an input table (a cell of the
efficiency table, a coefficient of the hyperelastic row, a cell of a
stress-strain or flexural CSV) set to an extreme exits 0, 2, 3 or 4, and an
exit-0 report holds only finite numbers. Every node of each shipped JSON
input, set to each value of a pool, exits 0, 2, 3 or 4, and an exit-2 message
names the file. An exception out of main, a bug, fails the test."""

import contextlib
import io
import json
import math
import operator
from functools import reduce

import pytest
from conftest import copy_defaults
from hypothesis import given, settings
from hypothesis import strategies as st

from softarm.cli import default_data_dir, main

COEFFS = json.loads((default_data_dir() / "deflection_coeffs.json").read_text())
POOL = [0, 1, -1, 5e-324, 1e-300, 1e308, -1e308, 10**400, True, None, "x", [], {}]
CONFIG = json.loads((default_data_dir() / "config.json").read_text())
#: The (section, key) of each number in the shipped config.
CONFIG_NUMBERS = [(section, key) for section in ("material", "propeller", "pipe")
                  for key, value in CONFIG[section].items() if not isinstance(value, str)]
GEOMETRY = json.loads((default_data_dir() / "arm_geometry.json").read_text())
#: The path to each number in the shipped geometry, whose seven numeric keys
#: hold one number per segment (beta_deg, length_mm, inertia_m4) or one in all.
GEOMETRY_NUMBERS = [
    *[("segments", i, key) for i in range(4) for key in ("beta_deg", "length_mm")],
    *[("inertia_m4", i) for i in range(4)],
    *[(key,) for key in ("half_depth_m", "alpha0_deg", "motor_station", "linear_density_kg_m")],
]
#: Each command with one numeric option, the one under test, left as "{}".
OPTION_RUNS = [
    "deflect --rho={} --throttle-pct=50",
    "deflect --rho=6 --throttle-pct={}",
    "deflect --rho=6 --envelope --alpha0={}",
    "efficiency --rpm={}",
    "efficiency --rpm=4000 --station={}",
    "pipe-fit --diameter={}",
    "pipe-fit --diameter=0.2 --tendon-force={}",
    "pipe-fit --diameter=0.2 --contact-width={}",
    "pipe-fit --diameter=0.2 --infill={}",
    "sweep --format=json --axis=motor_station --rpm={}",
    "sweep --format=json --axis=arm_angle --rpm={}",
    "sweep --format=json --axis=throttle --rho={}",
    "sweep --format=json --axis=infill --tendon-force={}",
    "sweep --format=json --axis=infill --contact-width={}",
    "fit-material --flexural=FLEX --length={} --inertia=1e-9",
    "fit-material --flexural=FLEX --length=0.3 --inertia={}",
]
#: Each is passed joined to its option, --option=value, and spaced from it,
#: --option value, where the parser takes one that starts like a negative
#: number, -1e308 too, for a value.
OPTION_VALUES = ["0", "1", "-1", "5e-324", "-5e-324", "1e-300", "1e308", "-1e308", "1e400",
                 "nan", "x"]


def _leaf(old):
    """A value from the pool or, for a number, a scaled copy of the old one."""
    pool = st.sampled_from(POOL)
    if isinstance(old, (int, float)) and not isinstance(old, bool):
        scales = st.sampled_from([-1e300, -10.0, -1.0, 0.5, 2.0, 1e10, 1e300])
        return st.one_of(pool, scales.map(lambda k: old * k))
    return pool


def _mutations(payload):
    keys = st.sets(st.sampled_from(sorted(payload)), min_size=1, max_size=2)
    return keys.flatmap(lambda ks: st.fixed_dictionaries({k: _leaf(payload[k]) for k in ks}))


def _run(argv):
    """main's exit code, stdout and stderr; an argparse usage error is exit 2."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = main(argv)
        except SystemExit as exc:
            code = exc.code
    return code, out.getvalue(), err.getvalue()


def _numbers(node):
    if isinstance(node, dict):
        for value in node.values():
            yield from _numbers(value)
    elif isinstance(node, list):
        for value in node:
            yield from _numbers(value)
    elif isinstance(node, (int, float)) and not isinstance(node, bool):
        yield node


def _reject_constant(name):
    raise AssertionError(f"report holds {name}")


def _assert_finite_report(out):
    report = json.loads(out, parse_constant=_reject_constant)
    assert all(math.isfinite(x) for x in _numbers(report))


@pytest.fixture(scope="module")
def folder(tmp_path_factory):
    """Where each example copies the shipped defaults and edits the copy."""
    return tmp_path_factory.mktemp("defaults")


@settings(max_examples=150, deadline=None)
@given(changes=_mutations(COEFFS), rho=st.sampled_from([4.0, 6.0, 8.0, 12.5]))
def test_mutated_deflection_coefficients(folder, changes, rho):
    copy_defaults(folder, {"deflection_coeffs.json": json.dumps({**COEFFS, **changes})})
    coeffs, config = folder / "deflection_coeffs.json", folder / "config.json"
    for argv in (["deflect", "--rho", str(rho), "--envelope", "--coeffs", str(coeffs)],
                 ["analyze", "--config", str(config)]):
        code, out, err = _run(argv)
        assert code in (0, 2, 3, 4), (argv, err)
        if code == 0:
            _assert_finite_report(out)
        elif code == 2:
            assert str(coeffs) in err or any(key in err for key in changes), err


@settings(max_examples=200, deadline=None)
@given(changes=st.dictionaries(st.sampled_from(CONFIG_NUMBERS),
                               st.sampled_from([*POOL, -5e-324]), min_size=1, max_size=2))
def test_mutated_config_numbers(folder, changes):
    assert len(CONFIG_NUMBERS) == 7
    copy_defaults(folder, {f"config.json:{s}.{k}": value for (s, k), value in changes.items()})
    table = str(folder / "hyperelastic_coeffs.json")
    code, out, err = _run(["analyze", "--config", str(folder / "config.json")])
    assert code in (0, 2, 3, 4), err
    if code == 0:
        _assert_finite_report(out)
    elif code == 2:  # the key, or the table the infill selects a row of
        assert any(f"{s}.{k}" in err for s, k in changes) or table in err, err


def _edit(name, node, value):
    """The copy_defaults edit that sets the node at path node of the JSON
    file name to value: the whole text, for the root."""
    if not node:
        return {name: json.dumps(value)}
    return {f"{name}:{'.'.join(map(str, node))}": value}


def _geometry_mutation():
    """A (path, value) pair: one number of the geometry and what replaces it."""
    return st.sampled_from(GEOMETRY_NUMBERS).flatmap(
        lambda path: st.tuples(st.just(path), _leaf(reduce(operator.getitem, path, GEOMETRY))))


@settings(max_examples=100, deadline=None)
@given(mutation=_geometry_mutation())
def test_mutated_geometry_number(folder, mutation):
    node, value = mutation
    copy_defaults(folder, _edit("arm_geometry.json", node, value))
    path = folder / "arm_geometry.json"
    for argv in (["analyze", "--config", str(folder / "config.json")],
                 ["pipe-fit", "--diameter", "0.2", "--geometry", str(path)]):
        code, out, err = _run(argv)
        assert code in (0, 2, 3, 4), (argv, err)
        if code == 0:
            _assert_finite_report(out)
        elif code == 2:  # the geometry file or the keys naming it, or the
            # march that it overflows
            assert (str(path) in err or "out of float range" in err
                    or "geometry, pipe.diameter_m: " in err), (argv, err)


def _option_id(template):
    words = template.split()
    option = next(word for word in words if "{}" in word)[2:-3]
    axis = [word[len("--axis="):] for word in words if word.startswith("--axis=")]
    return "-".join([words[0], *axis, option])


@pytest.mark.parametrize("form", ["={}", " {}"], ids=["joined", "spaced"])
@pytest.mark.parametrize("value", OPTION_VALUES)
@pytest.mark.parametrize("template", OPTION_RUNS, ids=[_option_id(t) for t in OPTION_RUNS])
def test_mutated_numeric_option(template, value, form, tmp_path):
    flexural = tmp_path / "flex.csv"
    flexural.write_text("force_n,deflection_m\n0.1,0.001\n0.2,0.002\n")
    argv = template.replace("FLEX", str(flexural)).replace("={}", form).format(value).split()
    code, out, err = _run(argv)
    assert code in (0, 2), (argv, err)
    if code == 0:
        _assert_finite_report(out)


#: The values that replace one number of an input table.
EXTREMES = [1e308, -1e308, 1e200, -1e200, 1e154, 5e-324, 1e-300, 0]
EFFICIENCY_ROWS = (default_data_dir() / "efficiency_table.csv").read_text().splitlines()
HYPERELASTIC = json.loads((default_data_dir() / "hyperelastic_coeffs.json").read_text())
#: The shipped 6% row's stress-strain curve, and a cantilever test of a
#: 25 MPa arm (--length=0.3 --inertia=1e-9).
STRESS_STRAIN_ROWS = ["strain,stress_pa", "0.05,249720", "0.1,433108", "0.15,620672",
                      "0.2,865077", "0.25,1205730", "0.3,1672180"]
FLEXURAL_ROWS = ["force_n,deflection_m", "0.5,0.18", "1.0,0.36", "2.0,0.72"]


def _cells(rows):
    """(row, column) of each number of a CSV's rows, whose first is the header."""
    return [(i, j) for i in range(1, len(rows)) for j in range(len(rows[i].split(",")))]


def _replace_cell(rows, cell, value) -> str:
    """The CSV text of rows with the number at cell replaced by value."""
    i, j = cell
    rows = list(rows)
    cells = rows[i].split(",")
    cells[j] = repr(value)
    rows[i] = ",".join(cells)
    return "\n".join(rows) + "\n"


def _assert_contract(argv):
    """The run exits 0, 2, 3 or 4, an exception out of main fails the test,
    and an exit-0 report holds only finite numbers."""
    code, out, err = _run(argv)
    assert code in (0, 2, 3, 4), (argv, err)
    if code == 0:
        _assert_finite_report(out)


@pytest.mark.parametrize("value", EXTREMES)
@pytest.mark.parametrize("cell", _cells(EFFICIENCY_ROWS))
def test_mutated_efficiency_table_cell(cell, value, tmp_path):
    copy_defaults(tmp_path, {"efficiency_table.csv": _replace_cell(EFFICIENCY_ROWS, cell, value)})
    table, config = tmp_path / "efficiency_table.csv", tmp_path / "config.json"
    for argv in (["efficiency", "--rpm", "4500", "--table", str(table)],
                 ["sweep", "--format=json", "--axis=arm_angle", "--table", str(table)],
                 ["sweep", "--format=json", "--axis=motor_station", "--table", str(table)],
                 ["analyze", "--config", str(config)]):
        _assert_contract(argv)


@pytest.mark.parametrize("value", EXTREMES)
@pytest.mark.parametrize("key", ["c10", "c01", "c20", "c02", "c11"])
def test_mutated_hyperelastic_coefficient(key, value, tmp_path):
    rows = [{**row, key: value} if row["rho_pct"] == CONFIG["material"]["infill_pct"] else row
            for row in HYPERELASTIC["rows"]]
    copy_defaults(tmp_path, {"hyperelastic_coeffs.json:rows": rows})
    _assert_contract(["analyze", "--config", str(tmp_path / "config.json")])


@pytest.mark.parametrize("value", EXTREMES)
@pytest.mark.parametrize(
    "rows,options",
    [(STRESS_STRAIN_ROWS, ["--stress-strain"]),
     (FLEXURAL_ROWS, ["--length=0.3", "--inertia=1e-9", "--flexural"])],
    ids=["stress_strain", "flexural"])
def test_mutated_fit_material_cell(rows, options, value, tmp_path):
    path = tmp_path / "data.csv"
    for cell in _cells(rows):
        path.write_text(_replace_cell(rows, cell, value))
        _assert_contract(["fit-material", *options, str(path)])


def _nodes(node, path=()):
    """The path to each node of a JSON document: the root, then each object,
    list and value in it, in document order."""
    yield path
    if isinstance(node, (dict, list)):
        for key, child in node.items() if isinstance(node, dict) else enumerate(node):
            yield from _nodes(child, (*path, key))


#: Each shipped JSON input, and the commands beside `analyze` that read it.
JSON_INPUTS = {
    "config.json": [],
    "arm_geometry.json": [["pipe-fit", "--diameter", "0.2", "--geometry"]],
    "deflection_coeffs.json": [["deflect", "--rho", "6", "--envelope", "--coeffs"]],
    "hyperelastic_coeffs.json": [],
}


@pytest.mark.parametrize("name", JSON_INPUTS)
def test_mutated_json_structure(name, folder):
    # Every node, the root included, set to each value of the pool: a value
    # where an object or list belongs, an object or list where a value does,
    # and each kind of bad number. An exit-2 message names the file or, for
    # the config, the file that a value names or selects a row of; an
    # overflow that the library meets after the parse names the values.
    path = folder / name
    shipped = json.loads((default_data_dir() / name).read_text())
    named = str(folder) if name == "config.json" else str(path)
    runs = [["analyze", "--config", str(folder / "config.json")],
            *[[*argv, str(path)] for argv in JSON_INPUTS[name]]]
    for node in _nodes(shipped):
        for value in POOL:
            copy_defaults(folder, _edit(name, node, value))
            for argv in runs:
                code, out, err = _run(argv)
                assert code in (0, 2, 3, 4), (argv[0], node, value, err)
                if code == 0:
                    _assert_finite_report(out)
                elif code == 2:
                    assert (named in err or "out of float range" in err
                            or ") overflow at " in err), (argv[0], node, value, err)
