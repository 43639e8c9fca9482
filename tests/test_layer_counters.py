"""Work counters, pinned per command and per elastica workload of the
benchmark. Each count is pinned here once.

For one warm `cli.main` call of each golden command (test_golden.COMMANDS)
and of `fit-material`, the call recorder counts the calls of seven softarm
functions: the `__init__` that every frozen record shares
(`errors._Record`), the finiteness check `errors.require_finite`, the
solver's march `beam._march`, the one read of an input file,
`io.read_bytes`, the JSON encoder, and the solver's set-up, `beam._panel_plan`
and `beam._mesh`. It also sums the bytes that each read returns, and of
those the bytes returned into `cli._read_input`, which hashes them; it sums
the steps of each march, those of its panels, and counts the marches given
a list of rows, which record a shape; it counts the JSON values that
`json.dumps` encodes, and the meshes built by steps per segment length.

The same columns count the benchmark's two other elastica workloads, rebuilt
from perfbench/reference.json the way they build them: one solve at the CLI
settings per case of the design grid, and beam.tendon_bend on the shipped
arm per tendon case. Every march of every solve is counted, failed solves
included; each solve checks its tip angle against the reference.

Counters do not depend on the machine, so a change that keeps the work of a
command keeps its counts; one that changes it re-pins them and says why.
"""

import contextlib
import io
import json
from collections import Counter
from pathlib import Path

import pytest
from test_golden import COMMANDS

from softarm import aero, beam, cli, errors
from softarm import io as sio
from softarm.errors import NoConvergence
from softarm.material import MooneyRivlinParams

#: The functions counted: the __init__ that every record shares,
#: require_finite, the march, the read of an input file, the encoder, the
#: panel plan and the mesh of a rung.
COUNTED = (beam.LoadCase.__init__, errors.require_finite, beam._march, sio.read_bytes,
           json.dumps, beam._panel_plan, beam._mesh)

#: The commands counted: the golden commands, by their file in
#: tests/data/golden/, and fit-material on the files that
#: test_counts_per_op writes.
ARGV = {
    **COMMANDS,
    "fit-material-stress": ["fit-material", "--stress-strain", "STRESS"],
    "fit-material-flexural": ["fit-material", "--flexural", "FLEX", "--length", "0.1",
                              "--inertia", "5e-8"],
}

#: (records, require_finite calls, marches, input files read, input bytes
#: read, march steps, input bytes hashed, shape marches, JSON values
#: encoded, panel plans, {steps per segment length: meshes}) per warm op.
#: `analyze` hashes all it reads but its config, 422 bytes, and solves its
#: 11 throttles on one plan, each accepted on the 8-step rung; a CSV sweep
#: encodes nothing.
COUNTS = {
    "analyze.json": (26, 55, 44, 5, 1419, 1012, 997, 0, 140, 1, {4: 1, 8: 1}),
    "deflect_rho6_envelope.json": (2, 2, 0, 1, 127, 0, 127, 0, 15, 0, {}),
    "deflect_rho4_envelope.json": (2, 2, 0, 1, 127, 0, 127, 0, 15, 0, {}),
    "efficiency_rpm4500.json": (1, 3, 0, 1, 41, 0, 41, 0, 14, 0, {}),
    "efficiency_rpm4000.json": (1, 3, 0, 1, 41, 0, 41, 0, 14, 0, {}),
    "efficiency_rpm3000.json": (1, 3, 0, 1, 41, 0, 41, 0, 14, 0, {}),
    "efficiency_rpm7000.json": (1, 3, 0, 1, 41, 0, 41, 0, 14, 0, {}),
    "pipe_fit_d0.2.json": (8, 8, 0, 1, 531, 0, 531, 0, 20, 0, {}),
    "sweep_motor_station.csv": (1, 2, 0, 1, 41, 0, 41, 0, 0, 0, {}),
    "sweep_arm_angle.csv": (1, 4, 0, 1, 41, 0, 41, 0, 0, 0, {}),
    "sweep_throttle.csv": (1, 2, 0, 1, 127, 0, 127, 0, 0, 0, {}),
    "sweep_infill.csv": (38, 39, 0, 1, 531, 0, 531, 0, 0, 0, {}),
    "fit-material-stress": (2, 4, 0, 1, 528, 0, 528, 0, 19, 0, {}),
    "fit-material-flexural": (40, 42, 0, 1, 950, 0, 950, 0, 10, 0, {}),
}

#: The same columns for one pass over every case of each workload: per
#: solve a solution, a plan and its 4- and 8-step meshes, the finer meshes
#: of the design-grid solves that climb past 8 steps, and a LoadCase per
#: tendon_bend.
WORKLOADS = {
    "design_grid": (256, 256, 1148, 0, 0, 28366, 0, 0, 0, 256, {4: 256, 8: 256, 16: 19, 32: 5}),
    "tendon_wrap": (256, 384, 597, 0, 0, 13391, 0, 0, 0, 128, {4: 128, 8: 128}),
}

REFERENCE = json.loads(
    (Path(__file__).resolve().parent.parent / "perfbench" / "reference.json").read_text())

#: Tip angles must match the reference this closely [deg].
ANGLE_TOL_DEG = 1e-4


def json_values(obj) -> int:
    """The JSON values in obj, itself included: objects, arrays, strings,
    numbers, booleans and nulls. An object's keys are not values."""
    if isinstance(obj, dict):
        return 1 + sum(map(json_values, obj.values()))
    if isinstance(obj, (list, tuple)):
        return 1 + sum(map(json_values, obj))
    return 1


def columns(calls) -> tuple:
    """The columns of COUNTS from the recorded calls of COUNTED."""
    records, checks, marches, reads, dumps, plans, meshes = calls
    return (len(records), len(checks), len(marches), len(reads),
            sum(len(read.result) for read in reads),
            sum(panel[3] for march in marches for panel in march.args["panels"]),
            sum(len(read.result) for read in reads if read.caller is cli._read_input.__code__),
            sum(march.args["rows"] is not None for march in marches),
            sum(json_values(dump.args["obj"]) for dump in dumps),
            len(plans), Counter(mesh.args["steps"] for mesh in meshes))


def test_records_share_one_init():
    assert all(cls.__init__.__code__ is COUNTED[0].__code__
               for cls in errors._Record.__subclasses__())


@pytest.mark.parametrize("name", ARGV, ids=[" ".join(argv) for argv in ARGV.values()])
def test_counts_per_op(name, tmp_path, record_calls):
    # The counts of one cli.main call after a first, warming one; the
    # reports go to a string.
    stress = tmp_path / "stress_strain.csv"
    stress.write_text("strain,stress_pa\n" + "".join(
        f"{k / 100},{180000 * k / 100 + 40000 * (k / 100) ** 2}\n" for k in range(1, 41)))
    flexural = tmp_path / "flexural.csv"
    flexural.write_text("force_n,deflection_m\n" + "".join(
        f"{k / 100},{k / 100 * 0.0012}\n" for k in range(1, 41)))
    inputs = {"STRESS": str(stress), "FLEX": str(flexural)}
    argv = [inputs.get(a, a) for a in ARGV[name]]
    with contextlib.redirect_stdout(io.StringIO()):
        assert cli.main(argv) == cli.EXIT_OK
        with record_calls(*COUNTED) as calls:
            status = cli.main(argv)
    assert status == cli.EXIT_OK
    assert columns(calls) == COUNTS[name]


def shipped_inputs():
    """The shipped arm, the Mooney-Rivlin row of the config's infill, the
    propeller and its max rpm, loaded as the workloads load them."""
    data = cli.default_data_dir()
    config = json.loads((data / "config.json").read_text())
    geometry = sio.read_arm_geometry_json(data / config["geometry"])
    rows = json.loads((data / config["material"]["hyperelastic_table"]).read_text())["rows"]
    row = next(r for r in rows if r["rho_pct"] == config["material"]["infill_pct"])
    mr_params = MooneyRivlinParams(row["c10"], row["c01"], row["c20"], row["c02"], row["c11"])
    prop = config["propeller"]
    propeller = aero.PropellerModel.from_nominal(
        thrust=prop["nominal_thrust_n"], rpm=prop["nominal_rpm"])
    return geometry, mr_params, propeller, prop["max_rpm"]


def test_design_grid(record_calls):
    geometry, _, propeller, max_rpm = shipped_inputs()
    cases = [(geometry.replace(motor_station=station), e_pa, beam.LoadCase(
                  thrust=aero.thrust_from_rpm(propeller, max_rpm * throttle_pct / 100.0)), ref)
             for e_pa, station, throttle_pct, ref in REFERENCE["design_grid"]["cases"]]
    with record_calls(*COUNTED) as calls:  # the solves alone, as the workload times them
        for arm, e_pa, loads, ref in cases:
            try:
                sol = beam.solve_elastica(arm, e_pa, loads, cli.SOLVER_SETTINGS)
            except NoConvergence:
                assert ref is None  # None: the reference failed too
            else:
                if ref is not None:  # some that failed at the reference converge now
                    assert abs(sol.tip_angle_deg - ref) <= ANGLE_TOL_DEG
    assert columns(calls) == WORKLOADS["design_grid"]


def test_tendon_wrap(record_calls):
    geometry, mr_params, _, _ = shipped_inputs()
    with record_calls(*COUNTED) as calls:
        for tension, eccentricity, ref_angle, ref_contact, *_ in REFERENCE["tendon_wrap"]["cases"]:
            sol = beam.tendon_bend(geometry, mr_params, tension, eccentricity)
            assert abs(sol.tip_angle_deg - ref_angle) <= ANGLE_TOL_DEG
            assert sol.contact_expected == ref_contact
    assert columns(calls) == WORKLOADS["tendon_wrap"]
