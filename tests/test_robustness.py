"""A fixed random corpus of load cases on the shipped arm: every draw either
converges to the shooting tolerance or fails loudly with NoConvergence, the
converged count never falls below its recorded floor, and the results are
pinned bit for bit. Named cases that the solver still fails are strict
xfails."""

import hashlib
import math
import random
from dataclasses import replace

import pytest

from softarm import beam, cli
from softarm.errors import NoConvergence
from softarm.io import read_arm_geometry_json

SEED = 20261018
DRAWS = 400
#: Draws that converge at the floor. Only a solver that converges more of
#: them may raise it.
CONVERGED_FLOOR = 323
#: SHA-256 over the draws, one line each: repr((tip_angle_deg, residual,
#: integrations, steps)), or NoConvergence. A change meant to keep every
#: iterate keeps it; one meant to change them updates it and says why.
CORPUS_DIGEST = "e7f00a0f94ed2b26855e46da4bf571d96db42b07cf803e188ceff9319fde7090"
ARM = read_arm_geometry_json(cli.default_data_dir() / "arm_geometry.json")


def draw_cases(rng: random.Random, n: int):
    """n (modulus [Pa], geometry changes, loads) draws, each drawn in a
    fixed order: modulus, motor station, thrust, tendon tension, droop,
    gravity."""
    for _ in range(n):
        modulus = 10 ** rng.uniform(3, 8)
        station = rng.uniform(0.2, 1)
        thrust = 0.0 if rng.random() < 0.5 else 10 ** rng.uniform(-3, 6)
        tension = 0.0 if rng.random() < 0.5 else rng.uniform(0, 100)
        droop = rng.uniform(-30, 60)
        gravity = rng.uniform(0, 200)
        loads = beam.LoadCase(thrust=thrust, gravity=gravity, tendon_tension=tension,
                              tendon_eccentricity=0.01 if tension > 0 else 0.0)
        yield modulus, {"motor_station": station, "initial_droop_deg": droop}, loads


@pytest.fixture(scope="module")
def outcomes():
    """Each draw's solution, or None where it raised NoConvergence."""
    solutions = []
    for modulus, changes, loads in draw_cases(random.Random(SEED), DRAWS):
        try:
            solutions.append(beam.solve_elastica(replace(ARM, **changes), modulus, loads,
                                                 cli.SOLVER_SETTINGS))
        except NoConvergence:
            solutions.append(None)
    return solutions


def test_corpus_converges_or_raises(outcomes):
    converged = [sol for sol in outcomes if sol is not None]
    for sol in converged:
        assert sol.residual <= cli.SOLVER_SETTINGS.shooting_tolerance
        assert math.isfinite(sol.tip_angle_deg)
    assert len(converged) >= CONVERGED_FLOOR


def test_corpus_results_are_pinned(outcomes):
    digest = hashlib.sha256()
    for sol in outcomes:
        line = "NoConvergence" if sol is None else repr(
            (sol.tip_angle_deg, sol.residual, sol.integrations, sol.steps))
        digest.update(line.encode() + b"\n")
    assert digest.hexdigest() == CORPUS_DIGEST


@pytest.mark.xfail(strict=True, raises=NoConvergence, reason=(
    "false position creeps: one end of the bracket stays put, |f| falls about 21% "
    "per march, and the shooting spends its SHOOTING_MARCHES budget"))
def test_limp_arm_creep_case():
    geometry = replace(ARM, motor_station=0.239, initial_droop_deg=11.56)
    sol = beam.solve_elastica(geometry, 2.79e3, beam.LoadCase(gravity=39.5),
                              cli.SOLVER_SETTINGS)
    assert sol.residual <= cli.SOLVER_SETTINGS.shooting_tolerance
