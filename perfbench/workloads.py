"""The four benchmark workloads: seeded inputs, one op each, output checks.

Every workload is a closed loop with one caller. `op(i)` is the timed user
action; it returns `(completed, payload)`, where `completed` is False when
the program answered with its documented solver failure (`NoConvergence`,
exit 4). `check(i, payload)` runs outside the timed region and returns
False when the answer is wrong: a tip angle away from the stored reference,
a report that is not byte-identical to the first one of the run, a
non-zero exit code, or a solver failure on a case that converged when the
reference was taken.

Inputs are made from the seed and written before timing starts. The
elastica workloads draw their cases from the fixed banks stored in
`reference.json`, which also hold the tip angles the seed code produced
for them (see `make_reference.py`).
"""

from __future__ import annotations

import contextlib
import csv
import dataclasses
import hashlib
import io
import json
import math
import random
import re
from pathlib import Path

import numpy as np

from softarm import adapt, aero, beam, cli, material
from softarm import io as sio
from softarm.errors import NoConvergence

#: Tip angles must match the reference this closely. A different solver
#: that converges at the same settings agrees to a few 1e-6 deg.
ANGLE_TOL_DEG = 1e-4

#: The solver settings `softarm analyze` uses.
CLI_SETTINGS = beam.SolverSettings(integration_steps=64, shooting_tolerance=1e-7)


def shipped_inputs() -> dict:
    """The shipped config and the inputs it names, loaded as `softarm
    analyze` loads them."""
    data = cli.default_data_dir()
    config = json.loads((data / "config.json").read_text())
    geometry = sio.read_arm_geometry_json(data / config["geometry"])
    rows = json.loads((data / config["material"]["hyperelastic_table"]).read_text())["rows"]
    infill = config["material"]["infill_pct"]
    row = next(r for r in rows if r["rho_pct"] == infill)
    mr_params = material.MooneyRivlinParams(
        row["c10"], row["c01"], row["c20"], row["c02"], row["c11"]
    )
    prop = config["propeller"]
    propeller = aero.PropellerModel.from_nominal(
        thrust=prop["nominal_thrust_n"], rpm=prop["nominal_rpm"]
    )
    return {
        "config": config,
        "geometry": geometry,
        "mr_params": mr_params,
        "propeller": propeller,
        "max_rpm": prop["max_rpm"],
    }


def moment_scale(geometry, loads) -> float:
    """Load moment scale [N m] that the shooting tolerance is relative to."""
    length = geometry.total_length
    return max(
        loads.thrust * length + geometry.linear_density * abs(loads.gravity) * length**2,
        1e-12,
    )


class Workload:
    #: ops per cycle; a run stops only at a cycle boundary
    cycle = 1
    #: cycles per run at most (None: as many as fit in the run time)
    max_cycles = None

    def op(self, i: int):
        raise NotImplementedError

    def check(self, i: int, payload) -> bool:
        raise NotImplementedError


class Analyze(Workload):
    """`softarm analyze` on the shipped config, report written to a file."""

    def __init__(self, refs: dict, seed: int, tmp: Path, size: int | None = None):
        # The headline action always runs on the shipped config; the seed
        # has nothing to choose here.
        self.out = tmp / "analyze.json"
        self.argv = ["analyze", "--out", str(self.out), "--quiet"]
        self.ref_angles = refs["analyze"]["tip_angle_deg"]
        schema_path = cli.default_data_dir().parent / "report.schema.json"
        self.schema = json.loads(schema_path.read_text())
        self.digest = None

    def op(self, i):
        rc = cli.main(self.argv)
        return rc == 0, rc

    def check(self, i, rc):
        if rc != 0:
            return False
        digest = hashlib.sha256(self.out.read_bytes()).hexdigest()
        if self.digest is not None:
            return digest == self.digest
        report = json.loads(self.out.read_text())
        errors = schema_errors(report, self.schema)
        angles = [row["tip_angle_deg"] for row in report["results"]["beam"]["throttle_sweep"]]
        ok = not errors and len(angles) == len(self.ref_angles) and all(
            abs(a - r) <= ANGLE_TOL_DEG for a, r in zip(angles, self.ref_angles)
        )
        if ok:
            self.digest = digest
        return ok


class DesignGrid(Workload):
    """One `beam.solve_elastica` call per case of a 256-case design grid
    (modulus x motor station x throttle) at the CLI solver settings.

    The grid is fixed and the seed only orders it: the failing cases take a
    third to half of a pass, and a fresh grid per seed moved ops_per_s by
    0.14 from seed to seed (README.md). A run makes exactly one pass, so the
    fail share is the grid's.
    """

    max_cycles = 1

    def __init__(self, refs: dict, seed: int, tmp: Path, size: int | None = None):
        inputs = shipped_inputs()
        cases = list(refs["design_grid"]["cases"])
        random.Random(seed).shuffle(cases)
        if size is not None:
            cases = cases[:size]
        self.cycle = len(cases)
        self.cases = []
        for e_pa, station, throttle_pct, ref in cases:
            geometry = dataclasses.replace(inputs["geometry"], motor_station=station)
            rpm = inputs["max_rpm"] * throttle_pct / 100.0
            loads = beam.LoadCase(thrust=aero.thrust_from_rpm(inputs["propeller"], rpm))
            self.cases.append((geometry, e_pa, loads, ref))

    def op(self, i):
        geometry, e_pa, loads, _ = self.cases[i]
        try:
            return True, beam.solve_elastica(geometry, e_pa, loads, CLI_SETTINGS)
        except NoConvergence:
            return False, None

    def check(self, i, solution):
        geometry, _, loads, ref = self.cases[i]
        if solution is None:
            return ref is None  # failed at the reference too: a fail, not a wrong answer
        if not math.isfinite(solution.tip_angle_deg):
            return False
        if ref is not None:
            return abs(solution.tip_angle_deg - ref) <= ANGLE_TOL_DEG
        tolerance = CLI_SETTINGS.shooting_tolerance * moment_scale(geometry, loads)
        return bool(np.all(np.isfinite(solution.stations))) and solution.residual <= tolerance


class TendonWrap(Workload):
    """`beam.tendon_bend` at the default solver settings, then the pipe
    wrap, contact pressure and attachment verdict on the shipped pipe."""

    def __init__(self, refs: dict, seed: int, tmp: Path, size: int | None = None):
        inputs = shipped_inputs()
        self.geometry = inputs["geometry"]
        self.mr_params = inputs["mr_params"]
        pipe = inputs["config"]["pipe"]
        self.pipe = adapt.PipeSpec(pipe["diameter_m"])
        self.contact_width = pipe["contact_width_m"]
        self.infill = inputs["config"]["material"]["infill_pct"]
        self.ref_wrap = refs["tendon_wrap"]["wrap"]
        cases = list(refs["tendon_wrap"]["cases"])
        random.Random(seed).shuffle(cases)
        self.cases = cases[:size] if size is not None else cases
        self.cycle = len(self.cases)

    def op(self, i):
        tension, eccentricity = self.cases[i][:2]
        solution = beam.tendon_bend(self.geometry, self.mr_params, tension, eccentricity)
        wrap = adapt.wrap_geometry(self.geometry, self.pipe)
        pressure = adapt.contact_pressure(tension, self.contact_width, self.geometry.total_length)
        verdict = adapt.attach_check(self.infill, pressure)
        return True, (solution, wrap, verdict)

    def check(self, i, payload):
        solution, wrap, verdict = payload
        _, _, ref_angle, ref_contact, ref_pressure, ref_attached = self.cases[i]
        return (
            abs(solution.tip_angle_deg - ref_angle) <= ANGLE_TOL_DEG
            and solution.contact_expected == ref_contact
            and math.isclose(verdict.pressure, ref_pressure, rel_tol=1e-12, abs_tol=1e-12)
            and verdict.attached == ref_attached
            and math.isclose(wrap.total_turning, self.ref_wrap["total_turning"], rel_tol=1e-12)
            and math.isclose(wrap.coverage_ratio, self.ref_wrap["coverage_ratio"], rel_tol=1e-12)
            and math.isclose(wrap.max_gap, self.ref_wrap["max_gap"], rel_tol=1e-12)
        )


def mr_stress_pa(coeffs, strains: np.ndarray) -> np.ndarray:
    """Uniaxial engineering stress [Pa] of the five-term Mooney-Rivlin model,
    written out here so the fit round trip does not check the program
    against itself."""
    c10, c01, c20, c02, c11 = coeffs
    lam = 1.0 + strains
    j1 = lam**2 + 2.0 / lam - 3.0
    j2 = 2.0 * lam + lam**-2 - 3.0
    dw1 = c10 + 2.0 * c20 * j1 + c11 * j2
    dw2 = c01 + 2.0 * c02 * j2 + c11 * j1
    return 2.0 * (lam - lam**-2) * (dw1 + dw2 / lam) * 1e6


class ReducedCli(Workload):
    """Nine `softarm` commands that never call the elastica solver."""

    LENGTH_M = 0.1
    INERTIA_M4 = 5e-8
    CSV_ROWS = {"motor_station": 71, "arm_angle": 91, "throttle": 101, "infill": 33}

    def __init__(self, refs: dict, seed: int, tmp: Path, size: int | None = None):
        rng = np.random.default_rng(seed)
        base = np.array([-3.19, 4.23, 0.64, -2.65, 4.37])  # shipped 6 % row [MPa]
        self.mr_coeffs = base * (1.0 + 0.2 * rng.uniform(-1.0, 1.0, 5))
        strains = np.linspace(0.0025, 0.5, 200)
        stress_csv = tmp / "stress_strain.csv"
        _write_csv(stress_csv, ["strain", "stress_pa"],
                   zip(strains, mr_stress_pa(self.mr_coeffs, strains)))
        self.flex_modulus = float(np.exp(rng.uniform(math.log(0.5e6), math.log(12e6))))
        forces = np.linspace(0.01, 0.4, 40)
        compliance = self.LENGTH_M**3 / (3.0 * self.flex_modulus * self.INERTIA_M4)
        flex_csv = tmp / "flexural.csv"
        _write_csv(flex_csv, ["force_n", "deflection_m"], zip(forces, forces * compliance))

        def r(lo, hi):
            return f"{rng.uniform(lo, hi):.6g}"

        commands = [
            ["fit-material", "--stress-strain", str(stress_csv), "--infill", r(5, 12)],
            ["fit-material", "--flexural", str(flex_csv), "--length", str(self.LENGTH_M),
             "--inertia", str(self.INERTIA_M4)],
            ["deflect", "--rho", r(5, 12), "--envelope"],
            ["efficiency", "--rpm", r(4000, 6000), "--station", r(0.3, 1.0)],
            ["pipe-fit", "--diameter", r(0.12, 0.4), "--tendon-force", r(2, 48)],
            ["sweep", "--axis", "motor_station", "--rpm", r(3000, 6500)],
            ["sweep", "--axis", "arm_angle", "--rpm", r(4000, 6000)],
            ["sweep", "--axis", "throttle", "--rho", r(5, 12)],
            ["sweep", "--axis", "infill", "--tendon-force", r(2, 48)],
        ]
        # Reports go to standard output, captured in memory: writing them to
        # files made the op time follow the VM's disk stalls.
        self.argvs = commands
        self.cycle = len(self.argvs)
        self.digests: list[str | None] = [None] * self.cycle

    def op(self, i):
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            rc = cli.main(self.argvs[i])
        return rc == 0, (rc, out.getvalue())

    def check(self, i, payload):
        rc, text = payload
        if rc != 0:
            return False
        digest = hashlib.sha256(text.encode()).hexdigest()
        if self.digests[i] is not None:
            return digest == self.digests[i]
        ok = self._check_content(self.argvs[i], text)
        if ok:
            self.digests[i] = digest
        return ok

    def _check_content(self, argv, text) -> bool:
        if argv[0] == "sweep":
            rows = list(csv.reader(text.splitlines()))
            return len(rows) == 1 + self.CSV_ROWS[argv[2]]
        results = json.loads(text)["results"]
        if "--stress-strain" in argv:
            fit = results["material"]["mooney_rivlin"]
            got = [fit[k] for k in ("c10", "c01", "c20", "c02", "c11")]
            return bool(np.allclose(got, self.mr_coeffs, rtol=1e-6, atol=1e-6))
        if "--flexural" in argv:
            got = results["material"]["flexural_modulus_pa"]
            return math.isclose(got, self.flex_modulus, rel_tol=1e-6)
        return bool(results)


def _write_csv(path: Path, header, rows) -> None:
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(header)
        for row in rows:
            writer.writerow([repr(float(v)) for v in row])


def schema_errors(value, schema: dict, where: str = "$") -> list[str]:
    """Validate against the JSON-schema subset `report.schema.json` uses:
    type, required, properties, additionalProperties, items, pattern."""
    kinds = {"object": dict, "array": list, "string": str}
    errors = []
    kind = schema.get("type")
    if kind in kinds and not isinstance(value, kinds[kind]):
        return [f"{where}: expected {kind}"]
    if isinstance(value, dict):
        for key in schema.get("required", ()):
            if key not in value:
                errors.append(f"{where}: missing {key}")
        props = schema.get("properties", {})
        extra = schema.get("additionalProperties", True)
        for key, item in value.items():
            if key in props:
                errors += schema_errors(item, props[key], f"{where}.{key}")
            elif extra is False:
                errors.append(f"{where}: unexpected {key}")
            elif isinstance(extra, dict):
                errors += schema_errors(item, extra, f"{where}.{key}")
    if isinstance(value, list) and "items" in schema:
        for k, item in enumerate(value):
            errors += schema_errors(item, schema["items"], f"{where}[{k}]")
    if isinstance(value, str) and "pattern" in schema and not re.search(schema["pattern"], value):
        errors.append(f"{where}: does not match {schema['pattern']}")
    return errors


WORKLOADS = {
    "analyze": Analyze,
    "design_grid": DesignGrid,
    "tendon_wrap": TendonWrap,
    "reduced_cli": ReducedCli,
}
