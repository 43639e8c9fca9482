"""The work counters of the benchmark's three elastica workloads, pinned.

The cases are rebuilt from perfbench/reference.json the way the workloads
build them: `softarm analyze` on the shipped config; one solve at the CLI
settings per case of the design grid; beam.tendon_bend on the shipped arm
per tendon case. Every march of every solve is counted, failed solves
included, but not the march that records a shape on its first read (a call
of beam._march given a list of rows); so is the set-up of the solves, the
panel plans and the meshes of the rungs, which `softarm analyze` makes once
for its whole throttle sweep. Counters do not
depend on the machine, so a change that keeps the solver's work must keep
these sums; one that changes it updates them and says why.
"""

import json
from collections import Counter
from pathlib import Path

import pytest

from softarm import aero, beam, cli
from softarm import io as sio
from softarm.errors import NoConvergence
from softarm.material import MooneyRivlinParams

REFERENCE = json.loads(
    (Path(__file__).resolve().parent.parent / "perfbench" / "reference.json").read_text())

#: The solver settings `softarm analyze` uses.
CLI_SETTINGS = beam.SolverSettings(integration_steps=64, shooting_tolerance=1e-7)

#: Tip angles must match the reference this closely [deg].
ANGLE_TOL_DEG = 1e-4


#: The functions counted: the march, the panel plan and the mesh of a rung.
COUNTED = (beam._march, beam._panel_plan, beam._mesh)


def marches(calls) -> list:
    """[marches, steps] of the solves among the recorded calls: every call
    of beam._march without a list of rows, in which it would record a shape."""
    solves = [march.args["panels"] for march in calls[0] if march.args["rows"] is None]
    return [len(solves), sum(panel[3] for panels in solves for panel in panels)]


def setups(calls) -> list:
    """[panel plans, {steps per segment length: meshes}] built by the solves
    among the recorded calls."""
    return [len(calls[1]), Counter(mesh.args["steps"] for mesh in calls[2])]


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


def test_analyze(record_calls, tmp_path):
    out = tmp_path / "analyze.json"
    with record_calls(*COUNTED) as calls:
        assert cli.main(["analyze", "--out", str(out), "--quiet"]) == cli.EXIT_OK
    rows = json.loads(out.read_text())["results"]["beam"]["throttle_sweep"]
    assert [r["tip_angle_deg"] for r in rows] == pytest.approx(
        REFERENCE["analyze"]["tip_angle_deg"], abs=ANGLE_TOL_DEG)
    assert marches(calls) == [44, 1012]
    assert setups(calls) == [1, {4: 1, 8: 1}]  # one sweep of 11 solves, all accepted on 8 steps


def test_design_grid(record_calls):
    geometry, _, propeller, max_rpm = shipped_inputs()
    with record_calls(*COUNTED) as calls:
        for e_pa, station, throttle_pct, ref in REFERENCE["design_grid"]["cases"]:
            rpm = max_rpm * throttle_pct / 100.0
            loads = beam.LoadCase(thrust=aero.thrust_from_rpm(propeller, rpm))
            try:
                sol = beam.solve_elastica(
                    geometry.replace(motor_station=station), e_pa, loads, CLI_SETTINGS)
            except NoConvergence:
                assert ref is None  # None: the reference failed too
            else:
                if ref is not None:  # some that failed at the reference converge now
                    assert abs(sol.tip_angle_deg - ref) <= ANGLE_TOL_DEG
    assert marches(calls) == [1148, 28366]
    assert setups(calls) == [256, {4: 256, 8: 256, 16: 19, 32: 5}]  # per solve


def test_tendon_wrap(record_calls):
    geometry, mr_params, _, _ = shipped_inputs()
    with record_calls(*COUNTED) as calls:
        for tension, eccentricity, ref_angle, ref_contact, *_ in REFERENCE["tendon_wrap"]["cases"]:
            sol = beam.tendon_bend(geometry, mr_params, tension, eccentricity)
            assert abs(sol.tip_angle_deg - ref_angle) <= ANGLE_TOL_DEG
            assert sol.contact_expected == ref_contact
    assert marches(calls) == [597, 13391]
    assert setups(calls) == [128, {4: 128, 8: 128}]  # per solve
