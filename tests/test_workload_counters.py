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


@pytest.fixture
def marches(monkeypatch):
    """[marches, steps] of the solves, filled in as they march: every call
    of beam._march without a list of rows, in which it would record a shape."""
    counts = [0, 0]
    march = beam._march

    def counting_march(panels, *args):
        if len(args) == 4:
            counts[0] += 1
            counts[1] += sum(p[3] for p in panels)
        return march(panels, *args)

    monkeypatch.setattr(beam, "_march", counting_march)
    return counts


@pytest.fixture
def setups(monkeypatch):
    """[panel plans, {steps per segment length: meshes}] built by the
    solves, filled in as they set up."""
    counts = [0, {}]
    panel_plan, mesh = beam._panel_plan, beam._mesh

    def counting_plan(*args):
        counts[0] += 1
        return panel_plan(*args)

    def counting_mesh(plan, steps):
        counts[1][steps] = counts[1].get(steps, 0) + 1
        return mesh(plan, steps)

    monkeypatch.setattr(beam, "_panel_plan", counting_plan)
    monkeypatch.setattr(beam, "_mesh", counting_mesh)
    return counts


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


def test_analyze(marches, setups, tmp_path):
    out = tmp_path / "analyze.json"
    assert cli.main(["analyze", "--out", str(out), "--quiet"]) == cli.EXIT_OK
    rows = json.loads(out.read_text())["results"]["beam"]["throttle_sweep"]
    assert [r["tip_angle_deg"] for r in rows] == pytest.approx(
        REFERENCE["analyze"]["tip_angle_deg"], abs=ANGLE_TOL_DEG)
    assert marches == [44, 1012]
    assert setups == [1, {4: 1, 8: 1}]  # one sweep of 11 solves, all accepted on 8 steps


def test_design_grid(marches, setups):
    geometry, _, propeller, max_rpm = shipped_inputs()
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
    assert marches == [1148, 28366]
    assert setups == [256, {4: 256, 8: 256, 16: 19, 32: 5}]  # per solve


def test_tendon_wrap(marches, setups):
    geometry, mr_params, _, _ = shipped_inputs()
    for tension, eccentricity, ref_angle, ref_contact, *_ in REFERENCE["tendon_wrap"]["cases"]:
        sol = beam.tendon_bend(geometry, mr_params, tension, eccentricity)
        assert abs(sol.tip_angle_deg - ref_angle) <= ANGLE_TOL_DEG
        assert sol.contact_expected == ref_contact
    assert marches == [597, 13391]
    assert setups == [128, {4: 128, 8: 128}]  # per solve
