"""Work counters of the layers outside the solver, pinned per command.

For one warm `cli.main` call of each golden command and of `fit-material`,
the call recorder counts the calls of four softarm functions: the
`__init__` that every frozen record shares (`errors._Record`), the
finiteness check `errors.require_finite`, the solver's march `beam._march`
and the one read of an input file, `io.read_bytes`. It also sums the bytes
that each read returns, and of those the bytes returned into
`cli._read_input`, which hashes them; it sums the steps of each march,
those of its panels, and counts the marches given a list of rows, which
record a shape; and it counts the JSON values that `json.dumps` encodes.
Counters do not depend on the machine, so a change that keeps the work of a
command keeps its counts; one that changes it re-pins them and says why.
"""

import contextlib
import io
import json

import pytest

from softarm import beam, cli, errors
from softarm import io as sio

#: The functions counted: the __init__ that every record shares,
#: require_finite, the march, the read of an input file and the encoder.
COUNTED = (beam.LoadCase.__init__, errors.require_finite, beam._march, sio.read_bytes,
           json.dumps)

#: (records, require_finite calls, marches, input files read, input bytes
#: read, march steps, input bytes hashed, shape marches, JSON values
#: encoded) per warm op. `analyze` hashes all it reads but its config, 422
#: bytes; a CSV sweep encodes nothing.
COUNTS = {
    ("analyze",): (26, 55, 44, 5, 1419, 1012, 997, 0, 140),
    ("deflect", "--rho", "6", "--envelope"): (2, 2, 0, 1, 127, 0, 127, 0, 15),
    ("deflect", "--rho", "4", "--envelope"): (2, 2, 0, 1, 127, 0, 127, 0, 15),
    ("efficiency", "--rpm", "4500"): (1, 3, 0, 1, 41, 0, 41, 0, 14),
    ("efficiency", "--rpm", "4000"): (1, 3, 0, 1, 41, 0, 41, 0, 14),
    ("efficiency", "--rpm", "3000"): (1, 3, 0, 1, 41, 0, 41, 0, 14),
    ("efficiency", "--rpm", "7000"): (1, 3, 0, 1, 41, 0, 41, 0, 14),
    ("pipe-fit", "--diameter", "0.2"): (8, 8, 0, 1, 531, 0, 531, 0, 20),
    ("sweep", "--axis", "motor_station"): (1, 2, 0, 1, 41, 0, 41, 0, 0),
    ("sweep", "--axis", "arm_angle"): (1, 4, 0, 1, 41, 0, 41, 0, 0),
    ("sweep", "--axis", "throttle"): (1, 2, 0, 1, 127, 0, 127, 0, 0),
    ("sweep", "--axis", "infill"): (38, 39, 0, 1, 531, 0, 531, 0, 0),
    ("fit-material", "--stress-strain", "STRESS"): (2, 4, 0, 1, 528, 0, 528, 0, 19),
    ("fit-material", "--flexural", "FLEX", "--length", "0.1", "--inertia", "5e-8"):
        (40, 42, 0, 1, 950, 0, 950, 0, 10),
}


def json_values(obj) -> int:
    """The JSON values in obj, itself included: objects, arrays, strings,
    numbers, booleans and nulls. An object's keys are not values."""
    if isinstance(obj, dict):
        return 1 + sum(map(json_values, obj.values()))
    if isinstance(obj, (list, tuple)):
        return 1 + sum(map(json_values, obj))
    return 1


def counted_op(record_calls, argv) -> tuple[int, ...]:
    """The counts of one cli.main(argv) call after a first, warming one;
    the reports go to a string."""
    with contextlib.redirect_stdout(io.StringIO()):
        assert cli.main(argv) == cli.EXIT_OK
        with record_calls(*COUNTED) as (records, checks, marches, reads, dumps):
            status = cli.main(argv)
    assert status == cli.EXIT_OK
    return (len(records), len(checks), len(marches), len(reads),
            sum(len(read.result) for read in reads),
            sum(panel[3] for march in marches for panel in march.args["panels"]),
            sum(len(read.result) for read in reads if read.caller is cli._read_input.__code__),
            sum(march.args["rows"] is not None for march in marches),
            sum(json_values(dump.args["obj"]) for dump in dumps))


def test_records_share_one_init():
    assert all(cls.__init__.__code__ is COUNTED[0].__code__
               for cls in errors._Record.__subclasses__())


@pytest.mark.parametrize("argv", COUNTS, ids=" ".join)
def test_counts_per_op(argv, tmp_path, record_calls):
    stress = tmp_path / "stress_strain.csv"
    stress.write_text("strain,stress_pa\n" + "".join(
        f"{k / 100},{180000 * k / 100 + 40000 * (k / 100) ** 2}\n" for k in range(1, 41)))
    flexural = tmp_path / "flexural.csv"
    flexural.write_text("force_n,deflection_m\n" + "".join(
        f"{k / 100},{k / 100 * 0.0012}\n" for k in range(1, 41)))
    inputs = {"STRESS": str(stress), "FLEX": str(flexural)}
    assert counted_op(record_calls, [inputs.get(a, a) for a in argv]) == COUNTS[argv]
