"""The helpers that the tests share: the call recorder of the work-counter
tests, and the edited copy of the shipped defaults of the input tests.

`record_calls(f, g, ...)` is a context manager that yields one list per
function given, in order, and fills it, while the block runs, with a `Call`
for each call of that function's code object. A profile hook sees each call
however the function was reached (a module attribute, an alias, a default
argument), so nothing is wrapped, and a count reads the arguments by name,
not by position. No function recorded may be a generator: each time one
resumes, the hook sees another call.
"""

import contextlib
import json
import operator
import sys
from functools import reduce
from pathlib import Path

import pytest

from softarm.cli import default_data_dir


class Call:
    """One recorded call: its arguments as bound at entry, by name (a copy of
    the frame's locals then), the value it returned (None when it raised) and
    the code object of its caller."""

    __slots__ = ("args", "result", "caller")

    def __init__(self, args: dict, caller):
        self.args, self.result, self.caller = args, None, caller


@contextlib.contextmanager
def _recording(*functions):
    calls = {function.__code__: [] for function in functions}
    entered = {}  # the frame of each recorded call not yet returned: its Call

    def profile(frame, event, arg):
        # The event first: a C call's event carries its caller's frame.
        if event == "call":
            recorded = calls.get(frame.f_code)
            if recorded is not None:
                entered[frame] = call = Call(dict(frame.f_locals), frame.f_back.f_code)
                recorded.append(call)
        elif event == "return" and frame in entered:  # by frame: a recursive call pairs too
            entered.pop(frame).result = arg

    previous = sys.getprofile()
    sys.setprofile(profile)
    try:
        yield tuple(calls.values())
    finally:
        sys.setprofile(previous)


@pytest.fixture
def record_calls():
    """The call recorder: `with record_calls(beam._march) as (marches,):`."""
    return _recording


#: The value of an edit that deletes its key.
DROP = object()
#: The bytes of each file of the shipped defaults, by name.
DEFAULTS = {path.name: path.read_bytes() for path in default_data_dir().iterdir()}


def copy_defaults(folder, edits=None):
    """Copy the shipped defaults into folder, whose config then names its
    files by relative path, and apply edits in order. A key "name" sets the
    whole text (or bytes) of the file name in folder; a key "name:a.0.b" sets
    the value at the key path a, 0, b (a digit is a list index) of the JSON
    file name, or deletes that key where the value is DROP. A file that
    already holds its bytes is left as it is. Returns folder."""
    files = dict(DEFAULTS)
    for key, value in (edits or {}).items():
        name, _, keys = key.partition(":")
        if not keys:
            files[name] = value.encode() if isinstance(value, str) else value
            continue
        document = json.loads(files[name])
        *parents, last = [int(k) if k.isdigit() else k for k in keys.split(".")]
        holder = reduce(operator.getitem, parents, document)
        if value is DROP:
            del holder[last]
        else:
            holder[last] = value
        files[name] = json.dumps(document).encode()
    for name, data in files.items():
        path = Path(folder, name)
        if not path.exists() or path.read_bytes() != data:
            path.write_bytes(data)
    return Path(folder)
