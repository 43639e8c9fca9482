"""Machine-speed probe that every op time is scaled by.

The CPU speed of the shared 2-core VM the benchmark was tuned on is not
steady. It switches between a fast and a slow state every few seconds, and
over tens of minutes the level drifts too. CPU time moves with wall time
and steal time is near 0, so no run length averages this out.

So a probe runs before an op whenever `GAP_S` has passed since the last
one, and each op's latency is multiplied by `REFERENCE_S / m`, where `m` is
the median of the last `WINDOW` probe times. The reported times are the
times the op would take on a machine where the probe takes `REFERENCE_S`.
The probe runs no program code, so a change to the program moves the
scaled times as much as the raw ones.

The probe mixes the kinds of work softarm does. A probe made of the RK4
march alone tracked `analyze` but not the CLI commands, which speed up
less than it in the fast state. One scale for a whole run did worse than a
scale per op, because the share of time spent in each state differs from
run to run. README.md gives the measurements.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import math
import statistics
import time
from collections import deque

import numpy as np

REFERENCE_S = 2e-3
#: Probe times the scale is the median of.
WINDOW = 3
#: Take a fresh probe before an op once this long has passed since the last.
GAP_S = 0.02

_X = np.linspace(0.0, 1.0, 50)
_DESIGN = np.column_stack([_X, _X**2, _X**3, np.sin(_X), np.cos(_X)])


def probe() -> float:
    """Seconds taken by a fixed mix of Python and numpy work."""
    t0 = time.perf_counter()
    sin = math.sin
    theta, omega, h = 0.3, 0.0, 1e-3
    for _ in range(200):

        def f(a, b):
            return b, -9.81 * sin(a)

        k1 = f(theta, omega)
        k2 = f(theta + 0.5 * h * k1[0], omega + 0.5 * h * k1[1])
        k3 = f(theta + 0.5 * h * k2[0], omega + 0.5 * h * k2[1])
        k4 = f(theta + h * k3[0], omega + h * k3[1])
        theta += h / 6.0 * (k1[0] + 2.0 * k2[0] + 2.0 * k3[0] + k4[0])
        omega += h / 6.0 * (k1[1] + 2.0 * k2[1] + 2.0 * k3[1] + k4[1])
    parser = argparse.ArgumentParser(prog="probe")
    sub = parser.add_subparsers(dest="command")
    for k in range(3):
        p = sub.add_parser(f"c{k}")
        for j in range(6):
            p.add_argument(f"--opt{j}", type=float, default=1.0)
    parser.parse_args(["c2", "--opt3", "2.5"])
    doc = {"rows": [{"a": i * 0.5, "b": str(i), "c": [i, i + 1]} for i in range(40)]}
    json.loads(json.dumps(doc, sort_keys=True, indent=2))
    writer = csv.writer(io.StringIO())
    for i in range(40):
        writer.writerow([f"{i * 0.1:.10g}", f"{i * 0.2:.10g}"])
    np.linalg.lstsq(_DESIGN, _X, rcond=None)
    np.linalg.svd(_DESIGN, compute_uv=False)
    np.interp(0.37, _X, _X**2)
    return time.perf_counter() - t0


class Speed:
    """Probe times taken during one phase of a run."""

    def __init__(self):
        self.recent: deque[float] = deque(maxlen=WINDOW)
        self.samples: list[float] = []
        self.last = -math.inf

    def sample(self) -> None:
        dt = probe()
        self.recent.append(dt)
        self.samples.append(dt)
        self.last = time.perf_counter()

    def maybe_sample(self) -> None:
        if time.perf_counter() - self.last >= GAP_S:
            self.sample()

    def factor(self) -> float:
        """Scale for a time measured now."""
        return REFERENCE_S / statistics.median(self.recent)

    def summary(self) -> dict:
        return {
            "reference_s": REFERENCE_S,
            "probes": len(self.samples),
            "probe_median_s": statistics.median(self.samples),
            "probe_min_s": min(self.samples),
            "probe_max_s": max(self.samples),
        }
