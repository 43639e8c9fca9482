"""The call recorder that the work-counter tests share.

`record_calls(f, g, ...)` is a context manager that yields one list per
function given, in order, and fills it, while the block runs, with a `Call`
for each call of that function's code object. A profile hook sees each call
however the function was reached (a module attribute, an alias, a default
argument), so nothing is wrapped, and a count reads the arguments by name,
not by position. No function recorded may be a generator: each time one
resumes, the hook sees another call.
"""

import contextlib
import sys

import pytest


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
