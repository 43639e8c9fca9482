"""Work counters of the layers outside the solver, pinned per command.

For one warm `cli.main` call of each golden command and of `fit-material`,
a profile hook counts the calls of four softarm code objects: the
`__init__` that every frozen record shares (`errors._Record`), the
finiteness check `errors.require_finite`, the solver's march `beam._march`
and the one read of an input file, `io.read_bytes`. It also sums the bytes
that each read returns, and of those the bytes returned into
`cli._read_input`, which hashes them; and it sums the steps of each march,
those of its panels, and counts the marches given a list of rows, which
record a shape.
Counters do not depend on the machine, so a change that keeps the work of a
command keeps its counts; one that changes it re-pins them and says why.
The test edits no source and wraps no function.
"""

import contextlib
import io
import sys

import pytest

from softarm import beam, cli, errors
from softarm import io as sio

#: The code objects counted: the __init__ that every record shares,
#: require_finite, the march and the read of an input file.
COUNTED = (beam.LoadCase.__init__.__code__, errors.require_finite.__code__,
           beam._march.__code__, sio.read_bytes.__code__)
MARCH, READ = COUNTED[2:]
HASHING = cli._read_input.__code__

#: (records, require_finite calls, marches, input files read, input bytes
#: read, march steps, input bytes hashed, shape marches) per warm op.
#: `analyze` hashes all it reads but its config, 422 bytes.
COUNTS = {
    ("analyze",): (26, 55, 44, 5, 1419, 1012, 997, 0),
    ("deflect", "--rho", "6", "--envelope"): (2, 2, 0, 1, 127, 0, 127, 0),
    ("deflect", "--rho", "4", "--envelope"): (2, 2, 0, 1, 127, 0, 127, 0),
    ("efficiency", "--rpm", "4500"): (1, 3, 0, 1, 41, 0, 41, 0),
    ("efficiency", "--rpm", "4000"): (1, 3, 0, 1, 41, 0, 41, 0),
    ("efficiency", "--rpm", "3000"): (1, 3, 0, 1, 41, 0, 41, 0),
    ("efficiency", "--rpm", "7000"): (1, 3, 0, 1, 41, 0, 41, 0),
    ("pipe-fit", "--diameter", "0.2"): (8, 8, 0, 1, 531, 0, 531, 0),
    ("sweep", "--axis", "motor_station"): (1, 2, 0, 1, 41, 0, 41, 0),
    ("sweep", "--axis", "arm_angle"): (1, 4, 0, 1, 41, 0, 41, 0),
    ("sweep", "--axis", "throttle"): (1, 2, 0, 1, 127, 0, 127, 0),
    ("sweep", "--axis", "infill"): (38, 39, 0, 1, 531, 0, 531, 0),
    ("fit-material", "--stress-strain", "STRESS"): (2, 4, 0, 1, 528, 0, 528, 0),
    ("fit-material", "--flexural", "FLEX", "--length", "0.1", "--inertia", "5e-8"):
        (40, 42, 0, 1, 950, 0, 950, 0),
}


def counted_op(argv) -> tuple[int, ...]:
    """The counts of one cli.main(argv) call after a first, warming one;
    the reports go to a string."""
    counts = dict.fromkeys(COUNTED, 0)
    read = steps = hashed = shapes = 0

    def profile(frame, event, arg):
        nonlocal read, steps, hashed, shapes
        code = frame.f_code
        if event == "call" and code in counts:
            counts[code] += 1
            if code is MARCH:
                steps += sum(panel[3] for panel in frame.f_locals["panels"])
                shapes += frame.f_locals["rows"] is not None
        elif event == "return" and code is READ:
            read += len(arg)
            if frame.f_back.f_code is HASHING:
                hashed += len(arg)

    with contextlib.redirect_stdout(io.StringIO()):
        assert cli.main(argv) == cli.EXIT_OK
        previous = sys.getprofile()
        sys.setprofile(profile)
        try:
            status = cli.main(argv)
        finally:
            sys.setprofile(previous)
    assert status == cli.EXIT_OK
    return (*counts.values(), read, steps, hashed, shapes)


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
