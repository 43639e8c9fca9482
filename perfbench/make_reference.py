"""Write `reference.json`: the case banks of the elastica workloads and the
answers the program gives for them.

The stored file was made from the seed code, and later changes are checked
against it, so run this only to extend the banks, never to absorb a change
in the answers. Takes a few minutes:

    python3 perfbench/make_reference.py
"""

from __future__ import annotations

import dataclasses
import itertools
import json
import math
import sys
import tempfile
from pathlib import Path

import numpy as np

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
sys.path.insert(0, str(HERE))

from softarm import adapt, aero, beam, cli  # noqa: E402
from softarm.errors import NoConvergence  # noqa: E402

import workloads  # noqa: E402

TENDON_CASES = 128
MASTER_SEED = 20220428


def _lhs(rng, n: int) -> np.ndarray:
    """One Latin-hypercube column on [0, 1)."""
    return (rng.permutation(n) + rng.random(n)) / n


def _sig(value: float) -> float:
    return float(f"{value:.12g}")


def analyze_reference(tmp: Path) -> dict:
    out = tmp / "analyze.json"
    if cli.main(["analyze", "--out", str(out), "--quiet"]) != 0:
        raise SystemExit("analyze failed on the shipped config")
    rows = json.loads(out.read_text())["results"]["beam"]["throttle_sweep"]
    out.unlink()
    return {"tip_angle_deg": [_sig(r["tip_angle_deg"]) for r in rows]}


def design_grid_reference(rng, inputs: dict) -> dict:
    """Jittered 8 x 4 x 8 lattice: one case in each cell of modulus
    (log-uniform over 0.66-12 MPa: the shipped 8 % row, the 6 % row and a
    print twice as stiff) x motor station (0.5-1.0) x throttle (0-100 % of
    the shipped max_rpm). None marks a case the solver does not converge
    on."""
    log_lo, log_hi = math.log(0.66e6), math.log(12e6)
    cases = []
    for i, j, k in itertools.product(range(8), range(4), range(8)):
        u = rng.random(3)
        e_pa = round(math.exp(log_lo + (i + u[0]) / 8 * (log_hi - log_lo)))
        station = round(0.5 + 0.5 * (j + u[1]) / 4, 6)
        pct = round(100.0 * (k + u[2]) / 8, 4)
        geometry = dataclasses.replace(inputs["geometry"], motor_station=station)
        thrust = aero.thrust_from_rpm(inputs["propeller"], inputs["max_rpm"] * pct / 100.0)
        try:
            sol = beam.solve_elastica(
                geometry, e_pa, beam.LoadCase(thrust=thrust), workloads.CLI_SETTINGS
            )
            ref = _sig(sol.tip_angle_deg)
        except NoConvergence:
            ref = None
        cases.append([e_pa, station, pct, ref])
    fails = sum(c[3] is None for c in cases)
    print(f"design grid: {fails} of {len(cases)} cases fail", file=sys.stderr)
    return {"cases": cases}


def tendon_reference(rng, inputs: dict) -> dict:
    """Tension 0-48 N, eccentricity +-0.01 m, on the shipped arm and pipe."""
    geometry, config = inputs["geometry"], inputs["config"]
    pipe = config["pipe"]
    wrap = adapt.wrap_geometry(geometry, adapt.PipeSpec(pipe["diameter_m"]))
    cases = []
    for tension, ecc in zip(48.0 * _lhs(rng, TENDON_CASES), 0.01 * (2 * _lhs(rng, TENDON_CASES) - 1)):
        tension, ecc = round(float(tension), 4), round(float(ecc), 6)
        sol = beam.tendon_bend(geometry, inputs["mr_params"], tension, ecc)
        pressure = adapt.contact_pressure(tension, pipe["contact_width_m"], geometry.total_length)
        verdict = adapt.attach_check(config["material"]["infill_pct"], pressure)
        cases.append([tension, ecc, _sig(sol.tip_angle_deg), sol.contact_expected,
                      pressure, verdict.attached])
    return {
        "wrap": {
            "total_turning": wrap.total_turning,
            "coverage_ratio": wrap.coverage_ratio,
            "max_gap": wrap.max_gap,
        },
        "cases": cases,
    }


def main() -> None:
    rng = np.random.default_rng(MASTER_SEED)
    inputs = workloads.shipped_inputs()
    with tempfile.TemporaryDirectory(dir=HERE) as tmp:
        refs = {"analyze": analyze_reference(Path(tmp))}
    refs["tendon_wrap"] = tendon_reference(rng, inputs)
    refs["design_grid"] = design_grid_reference(rng, inputs)
    text = json.dumps(refs, separators=(",", ":"))
    (HERE / "reference.json").write_text(text + "\n")


if __name__ == "__main__":
    main()
