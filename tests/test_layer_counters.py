"""Work counters of the layers outside the solver, pinned per command.

For one warm `cli.main` call of each golden command and of `fit-material`,
a profile hook counts the calls of three softarm code objects: the
`__init__` that every frozen record shares (`errors._Record`), the
finiteness check `errors.require_finite` and the solver's march
`beam._march`. Counters do not depend on the machine, so a change that
keeps the work of a command keeps its counts; one that changes it re-pins
them and says why. The test edits no source and wraps no function.
"""

import contextlib
import io
import sys

import pytest

from softarm import beam, cli, errors

#: The code objects counted: the __init__ that every record shares,
#: require_finite and the march.
COUNTED = (beam.LoadCase.__init__.__code__, errors.require_finite.__code__,
           beam._march.__code__)

#: (records, require_finite calls, marches) per warm op.
COUNTS = {
    ("analyze",): (26, 55, 44),
    ("deflect", "--rho", "6", "--envelope"): (2, 2, 0),
    ("deflect", "--rho", "4", "--envelope"): (2, 2, 0),
    ("efficiency", "--rpm", "4500"): (1, 3, 0),
    ("efficiency", "--rpm", "4000"): (1, 3, 0),
    ("efficiency", "--rpm", "3000"): (1, 3, 0),
    ("efficiency", "--rpm", "7000"): (1, 3, 0),
    ("pipe-fit", "--diameter", "0.2"): (8, 8, 0),
    ("sweep", "--axis", "motor_station"): (1, 2, 0),
    ("sweep", "--axis", "arm_angle"): (1, 4, 0),
    ("sweep", "--axis", "throttle"): (1, 2, 0),
    ("sweep", "--axis", "infill"): (38, 39, 0),
    ("fit-material", "--stress-strain", "STRESS"): (2, 4, 0),
    ("fit-material", "--flexural", "FLEX", "--length", "0.1", "--inertia", "5e-8"): (40, 42, 0),
}


def counted_op(argv) -> tuple[int, int, int]:
    """The counts of one cli.main(argv) call after a first, warming one;
    the reports go to a string."""
    counts = dict.fromkeys(COUNTED, 0)

    def profile(frame, event, arg):
        if event == "call" and frame.f_code in counts:
            counts[frame.f_code] += 1

    with contextlib.redirect_stdout(io.StringIO()):
        assert cli.main(argv) == cli.EXIT_OK
        previous = sys.getprofile()
        sys.setprofile(profile)
        try:
            status = cli.main(argv)
        finally:
            sys.setprofile(previous)
    assert status == cli.EXIT_OK
    return tuple(counts.values())


def test_records_share_one_init():
    assert all(cls.__init__.__code__ is COUNTED[0] for cls in errors._Record.__subclasses__())


@pytest.mark.parametrize("argv", COUNTS, ids=" ".join)
def test_counts_per_op(argv, tmp_path):
    stress = tmp_path / "stress_strain.csv"
    stress.write_text("strain,stress_pa\n" + "".join(
        f"{k / 100},{180000 * k / 100 + 40000 * (k / 100) ** 2}\n" for k in range(1, 41)))
    flexural = tmp_path / "flexural.csv"
    flexural.write_text("force_n,deflection_m\n" + "".join(
        f"{k / 100},{k / 100 * 0.0012}\n" for k in range(1, 41)))
    inputs = {"STRESS": str(stress), "FLEX": str(flexural)}
    assert counted_op([inputs.get(a, a) for a in argv]) == COUNTS[argv]
