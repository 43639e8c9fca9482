"""A fixed random corpus of load cases on the shipped arm: every draw either
converges to the shooting tolerance or fails loudly with NoConvergence, and
the converged count never falls below its recorded floor."""

import math
import random
from dataclasses import replace

from softarm import beam, cli
from softarm.errors import NoConvergence
from softarm.io import read_arm_geometry_json

SEED = 20261018
DRAWS = 400
#: Draws that converge at the floor. Only a solver that converges more of
#: them may raise it.
CONVERGED_FLOOR = 323


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


def test_corpus_converges_or_raises():
    arm = read_arm_geometry_json(cli.default_data_dir() / "arm_geometry.json")
    converged = 0
    for modulus, changes, loads in draw_cases(random.Random(SEED), DRAWS):
        try:
            sol = beam.solve_elastica(replace(arm, **changes), modulus, loads,
                                      cli.SOLVER_SETTINGS)
        except NoConvergence:
            continue
        assert sol.residual <= cli.SOLVER_SETTINGS.shooting_tolerance
        assert math.isfinite(sol.tip_angle_deg)
        converged += 1
    assert converged >= CONVERGED_FLOOR
