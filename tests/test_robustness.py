"""A fixed random corpus of load cases on the shipped arm: every draw either
converges to the shooting tolerance or fails loudly with NoConvergence, the
converged count never falls below its recorded floor, and the results are
pinned bit for bit. A case that the solver once failed is pinned by name.
The same generator over GENERATOR_DRAWS draws is a `slow` test, which the
default run deselects: `python -m pytest -m slow tests/test_robustness.py`.
The corpus also checks the solver's scale identities: scaling the forces, or
the lengths, by a power of two keeps every iterate (see test_scale_free)."""

import hashlib
import itertools
import json
import math
import random
import shutil

import pytest

from softarm import beam, cli
from softarm.errors import NoConvergence
from softarm.io import read_arm_geometry_json

SEED = 20261018
DRAWS = 400
#: Draws that converge at the floor. Only a solver that converges more of
#: them may raise it.
CONVERGED_FLOOR = 354
#: SHA-256 over the draws, one line each: repr((tip_angle_deg, residual,
#: integrations, steps)), or NoConvergence. A change meant to keep every
#: iterate keeps it; one meant to change them updates it and says why.
CORPUS_DIGEST = "14b4b8627f5eefb73171c6a50f53a6a596a63e7cf2d326182db5c701c3e642f3"
#: The generator past the corpus (about 10 s), and its converged count at the
#: floor; the corpus is its first DRAWS draws.
GENERATOR_DRAWS = 2400
GENERATOR_FLOOR = 2100
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
        # The tendon, 0.01 m off the neutral axis: -tension*0.01 at each fold.
        moments = [(s, -tension * 0.01) for s in ARM.segment_bounds[1:-1]] if tension > 0 else []
        loads = beam.LoadCase(thrust=thrust, gravity=gravity, point_moments=moments)
        yield modulus, {"motor_station": station, "initial_droop_deg": droop}, loads


def solve_draws(n: int):
    """Each of the first n draws' solution, or None where it raised NoConvergence."""
    solutions = []
    for modulus, changes, loads in draw_cases(random.Random(SEED), n):
        try:
            solutions.append(beam.solve_elastica(ARM.replace(**changes), modulus, loads,
                                                 cli.SOLVER_SETTINGS))
        except NoConvergence:
            solutions.append(None)
    return solutions


def converged_count(solutions) -> int:
    """How many solved, each to the shooting tolerance at a finite angle."""
    converged = [sol for sol in solutions if sol is not None]
    for sol in converged:
        assert sol.residual <= cli.SOLVER_SETTINGS.shooting_tolerance
        assert math.isfinite(sol.tip_angle_deg)
    return len(converged)


@pytest.fixture(scope="module")
def outcomes():
    return solve_draws(DRAWS)


def test_corpus_converges_or_raises(outcomes):
    assert converged_count(outcomes) >= CONVERGED_FLOOR


@pytest.mark.slow
def test_generator_converges_or_raises():
    assert converged_count(solve_draws(GENERATOR_DRAWS)) >= GENERATOR_FLOOR


def test_corpus_results_are_pinned(outcomes):
    digest = hashlib.sha256()
    for sol in outcomes:
        line = "NoConvergence" if sol is None else repr(
            (sol.tip_angle_deg, sol.residual, sol.integrations, sol.steps))
        digest.update(line.encode() + b"\n")
    assert digest.hexdigest() == CORPUS_DIGEST


def test_limp_arm_creep_case():
    # False position used to creep here (one end of the bracket stays put and
    # |f| falls about 21% per march) until the 40-march budget ran out; from
    # the unit-slope first step the bracket closes. The 4-step rung spends
    # its budget and hands the solve to the 8-step rung, which closes it in
    # 4 marches; the 16- and 32-step rungs take 3 each, and the ladder
    # accepts the 64-step rung after 2.
    geometry = ARM.replace(motor_station=0.239, initial_droop_deg=11.56)
    sol = beam.solve_elastica(geometry, 2.79e3, beam.LoadCase(gravity=39.5),
                              cli.SOLVER_SETTINGS)
    assert sol.tip_angle_deg == pytest.approx(-76.6256, abs=1e-4)
    assert (sol.integrations, sol.mesh_steps) == (52, 64)
    assert sol.residual <= cli.SOLVER_SETTINGS.shooting_tolerance


def iterates(sol) -> tuple:
    """What a scale identity keeps of a solution: its angle, residual and counters."""
    return (sol.tip_angle_deg, sol.residual, sol.integrations, sol.steps, sol.mesh_steps,
            sol.contact_expected)


def outcome(solve, *args):
    """The iterates of each solution in solve(*args), or the index of the
    NoConvergence it raises."""
    try:
        return [iterates(sol) for sol in solve(*args)]
    except NoConvergence as exc:
        return exc.index


#: (force, length) factors: the modulus, thrust, weight and point moments
#: times force; the lengths times length, with thrust / length^2, weight /
#: length^3 and moments / length. The march reads the loads only through
#: h M / EI and h^2 F / EI, so both keep every angle, and powers of two keep
#: every float. Each acceptance, clip and give-up rule of the solver is in
#: radians or counts, so none of them may see the scale.
SCALES = [(4.0, 1.0), (1.0, 2.0)]


@pytest.mark.parametrize("force,length", SCALES, ids=["force", "length"])
def test_scale_free(outcomes, force, length):
    arm = ARM.replace(segments=[seg.replace(length=seg.length * length) for seg in ARM.segments])
    scaled = []
    for modulus, changes, loads in draw_cases(random.Random(SEED), DRAWS):
        loads = beam.LoadCase(thrust=loads.thrust * force / length ** 2,
                              gravity=loads.gravity * force / length ** 3,
                              point_moments=[(s * length, m * force / length)
                                             for s, m in loads.point_moments])
        scaled.append(outcome(lambda: [beam.solve_elastica(
            arm.replace(**changes), modulus * force, loads, cli.SOLVER_SETTINGS)]))
    assert scaled == [0 if sol is None else [iterates(sol)] for sol in outcomes]


def test_sweep_and_tendon_are_force_free():
    # The sweep's weight is the arm's linear density times GRAVITY, so the
    # density takes the factor.
    for (modulus, changes, loads), tension in zip(draw_cases(random.Random(SEED), 40),
                                                  itertools.cycle([1.0, 10.0, 100.0])):
        arm = ARM.replace(**changes)
        heavy = arm.replace(linear_density=arm.linear_density * 4)
        thrusts = [0.0, 0.5 * (loads.thrust or 1.0), loads.thrust or 1.0]
        assert outcome(beam.solve_sweep, heavy, modulus * 4, [t * 4 for t in thrusts],
                       cli.SOLVER_SETTINGS) == outcome(beam.solve_sweep, arm, modulus, thrusts,
                                                       cli.SOLVER_SETTINGS)
        assert outcome(lambda: [beam.tendon_bend(heavy, modulus * 4, tension * 4, 0.01)]) == (
            outcome(lambda: [beam.tendon_bend(arm, modulus, tension, 0.01)]))


def test_analyze_report_is_force_free(tmp_path, capsys):
    # The small-strain modulus is 6 (c10 + c01), and the thrust law's
    # coefficient nominal_thrust_n / nominal_rpm^2.
    shutil.copytree(cli.default_data_dir(), tmp_path, dirs_exist_ok=True)
    files = {name: json.loads((tmp_path / name).read_text())
             for name in ["hyperelastic_coeffs.json", "config.json", "arm_geometry.json"]}
    for row in files["hyperelastic_coeffs.json"]["rows"]:
        row["c10"] *= 4
        row["c01"] *= 4
    files["config.json"]["propeller"]["nominal_thrust_n"] *= 4
    files["arm_geometry.json"]["linear_density_kg_m"] *= 4
    for name, data in files.items():
        (tmp_path / name).write_text(json.dumps(data))
    sweeps = []
    for argv in [["analyze"], ["analyze", "--config", str(tmp_path / "config.json")]]:
        assert cli.main(argv) == cli.EXIT_OK
        sweeps.append(json.loads(capsys.readouterr().out)["results"]["beam"]["throttle_sweep"])
    shipped, scaled = sweeps
    assert [row["tip_angle_deg"] for row in scaled] == [row["tip_angle_deg"] for row in shipped]
    assert [row["thrust_n"] for row in scaled] == [row["thrust_n"] * 4 for row in shipped]
