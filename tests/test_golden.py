"""Byte-for-byte outputs of the command line on its shipped inputs.

Each file in tests/data/golden/ is the stdout of one `softarm` command. A
change that is meant to alter an output regenerates its file with
`PYTHONPATH=src python -m softarm.cli <arguments> > tests/data/golden/<file>`
and says so; any other difference is a regression. `fit-material` is left
out: its coefficients come from a least-squares solve whose last digits
depend on the BLAS build.
"""

from pathlib import Path

import pytest

from softarm.cli import EXIT_OK, main

GOLDEN = Path(__file__).parent / "data" / "golden"

COMMANDS = {
    "analyze.json": ["analyze"],
    "deflect_rho6_envelope.json": ["deflect", "--rho", "6", "--envelope"],
    "deflect_rho4_envelope.json": ["deflect", "--rho", "4", "--envelope"],
    "efficiency_rpm4500.json": ["efficiency", "--rpm", "4500"],
    "efficiency_rpm4000.json": ["efficiency", "--rpm", "4000"],
    "efficiency_rpm3000.json": ["efficiency", "--rpm", "3000"],
    "efficiency_rpm7000.json": ["efficiency", "--rpm", "7000"],
    "pipe_fit_d0.2.json": ["pipe-fit", "--diameter", "0.2"],
    "sweep_motor_station.csv": ["sweep", "--axis", "motor_station"],
    "sweep_arm_angle.csv": ["sweep", "--axis", "arm_angle"],
    "sweep_throttle.csv": ["sweep", "--axis", "throttle"],
    "sweep_infill.csv": ["sweep", "--axis", "infill"],
}


@pytest.mark.parametrize("name", COMMANDS)
def test_stdout_matches_golden_file(name, capsys):
    assert main(COMMANDS[name]) == EXIT_OK
    assert capsys.readouterr().out.encode() == (GOLDEN / name).read_bytes()
