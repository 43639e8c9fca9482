"""softarm benchmark runner.

    python3 perfbench/run.py --workload analyze --seed 1 --seconds 25 --trace 0

Run from anywhere; the program under test is always the `src/softarm`
next to this directory, imported from source. One caller, no threads, a
closed loop: the next op starts when the previous one has returned.

--trace 0 prints the end-to-end metrics setup_s, ops_per_s, latency_p50_ms
and completed_ratio; latency_tail_ms is on the detail line.
--trace 1 runs every op twice, once plain and once with spans around every
public function of the softarm modules, and prints the per-layer metrics.

The last line of standard output is the result object; the line before it
holds the details: machine, sample counts, the percentile the tail was
taken at, the base of every ratio and the raw (unscaled) times. See
README.md in this directory.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import re
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

from speed import Speed
from tracer import LAYERS, Tracer

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"

#: Fresh interpreters timed for setup_s (after one untimed warm-up that
#: leaves the bytecode cache written) and for the import profile.
SETUP_REPEATS = 9
IMPORT_REPEATS = 3
#: Each set-up child is timed against a fresh interpreter that only imports
#: numpy, started just before it; it runs no softarm code. The in-process
#: probe of speed.py did not track process start-up: over one minute the
#: ratio of set-up to that probe moved by 20 %, the ratio to this child by
#: 6 %. setup_s is the median ratio times SETUP_REFERENCE_S.
SETUP_PROBE = ["-c", "import numpy"]
SETUP_REFERENCE_S = 0.15


def latency_summary(latencies: list[float]) -> dict:
    """Median, and the tail: the highest percentile with at least 10
    samples beyond it (the largest sample when there are 10 or fewer)."""
    ordered = sorted(latencies)
    n = len(ordered)
    k = n - 11 if n > 10 else n - 1
    return {
        "samples": n,
        "p50_ms": statistics.median(ordered) * 1e3,
        "tail_ms": ordered[k] * 1e3,
        "tail_percentile": 100.0 * (k + 1) / n,
        "beyond_tail": n - k - 1,
    }


def machine_info() -> dict:
    import numpy

    info = {
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "numpy": numpy.__version__,
        "nproc": len(os.sched_getaffinity(0)),
        "platform": platform.platform(),
        "cpu_model": platform.processor() or "unknown",
        "caches": {},
    }
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    info["cpu_model"] = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    for index in sorted(Path("/sys/devices/system/cpu/cpu0/cache").glob("index*")):
        try:
            level, kind, size = ((index / f).read_text().strip() for f in ("level", "type", "size"))
        except OSError:
            continue
        info["caches"][f"L{level}-{kind.lower()}"] = size
    return info


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC) + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


def timed_child(args: list[str], **kwargs) -> tuple[float, subprocess.CompletedProcess]:
    t0 = time.perf_counter()
    proc = subprocess.run([sys.executable, *args], env=child_env(), check=True, cwd=ROOT,
                          **kwargs)
    return time.perf_counter() - t0, proc


def probe_child() -> float:
    """SETUP_REFERENCE_S over the time of the set-up probe child."""
    return SETUP_REFERENCE_S / timed_child(SETUP_PROBE)[0]


def measure_setup(workload: str) -> dict:
    """Wall time of a fresh interpreter that imports softarm.cli and loads
    the shipped inputs the workload needs (setup_child.py)."""
    raw, scaled = [], []
    for k in range(SETUP_REPEATS + 1):
        scale = probe_child()
        dt, _ = timed_child([str(HERE / "setup_child.py"), workload],
                            stdout=subprocess.DEVNULL)
        if k:
            raw.append(dt)
            scaled.append(dt * scale)
    return {"setup_s": statistics.median(scaled), "raw_setup_s": statistics.median(raw),
            "samples": len(raw)}


def measure_imports() -> dict:
    """import.numpy_s and import.softarm_s from `python -X importtime`:
    numpy's cumulative time, and the summed self time of softarm modules."""
    numpy_s, softarm_s = [], []
    for _ in range(IMPORT_REPEATS):
        scale = probe_child()
        _, proc = timed_child(["-X", "importtime", "-c", "import softarm.cli"],
                              capture_output=True, text=True)
        np_us = sa_us = 0
        for line in proc.stderr.splitlines():
            m = re.match(r"import time:\s+(\d+) \|\s+(\d+) \|\s*(\S+)", line)
            if not m:
                continue
            self_us, cum_us, name = int(m.group(1)), int(m.group(2)), m.group(3)
            if name == "numpy":
                np_us = max(np_us, cum_us)
            if name == "softarm" or name.startswith("softarm."):
                sa_us += self_us
        numpy_s.append(np_us * 1e-6 * scale)
        softarm_s.append(sa_us * 1e-6 * scale)
    return {"numpy_s": statistics.median(numpy_s), "softarm_s": statistics.median(softarm_s)}


class Counts:
    def __init__(self):
        self.attempted = 0
        self.completed = 0
        self.wrong = 0
        self.errors: dict[str, int] = {}

    def record(self, workload, i, outcome) -> None:
        """outcome is (completed, payload) or the exception the op raised.
        An op is completed when it returned an answer that passed its check."""
        self.attempted += 1
        if isinstance(outcome, BaseException):
            name = type(outcome).__name__
            self.errors[name] = self.errors.get(name, 0) + 1
            self.wrong += 1
            return
        completed, payload = outcome
        if not workload.check(i, payload):
            self.wrong += 1
        elif completed:
            self.completed += 1


def call(workload, i):
    try:
        return workload.op(i)
    except Exception as exc:  # counted as a wrong answer; the run goes on
        return exc


def run_plain(workload, seconds: float) -> dict:
    """Whole cycles of ops until the next cycle would end after `seconds`
    or the workload's max_cycles is reached; at least one cycle. One untimed
    warm-up op first."""
    clock = time.perf_counter
    counts = Counts()
    speed = Speed()
    call(workload, 0)
    raw, scaled = [], []
    start = clock()
    cycles = 0
    while True:
        for i in range(workload.cycle):
            speed.maybe_sample()
            t0 = clock()
            outcome = call(workload, i)
            dt = clock() - t0
            speed.maybe_sample()  # an op longer than GAP_S is bracketed by probes
            raw.append(dt)
            scaled.append(dt * speed.factor())
            counts.record(workload, i, outcome)
        cycles += 1
        elapsed = clock() - start
        if elapsed * (cycles + 1) / cycles > seconds or cycles == workload.max_cycles:
            break
    return {"counts": counts, "raw": raw, "scaled": scaled, "wall_s": elapsed,
            "cycles": cycles, "speed": speed}


def run_traced(workload, tracer, seconds: float) -> dict:
    """Each op runs plain and traced, alternating which goes first, until
    `seconds` have passed; the per-layer numbers come from the traced ops.
    Per-layer times are scaled by the machine speed over the run."""
    clock = time.perf_counter
    counts = Counts()
    speed = Speed()
    call(workload, 0)
    plain_s = traced_s = scaled_s = 0.0
    ops = 0
    start = clock()
    while clock() - start < seconds:
        i = ops % workload.cycle
        speed.maybe_sample()
        for traced in ((False, True) if ops % 2 == 0 else (True, False)):
            if traced:
                tracer.install()
            try:
                t0 = clock()
                outcome = call(workload, i)
                dt = clock() - t0
            finally:
                if traced:
                    tracer.uninstall()
            if traced:
                traced_s += dt
                scaled_s += dt * speed.factor()
                counts.record(workload, i, outcome)
            else:
                plain_s += dt
        ops += 1
    return {"counts": counts, "ops": ops, "plain_s": plain_s, "traced_s": traced_s,
            "scale": scaled_s / traced_s, "speed": speed}


def end_to_end(workload_name: str, workload, seconds: float):
    setup = measure_setup(workload_name)
    run = run_plain(workload, seconds)
    counts, raw, scaled = run["counts"], run["raw"], run["scaled"]
    lat, raw_lat = latency_summary(scaled), latency_summary(raw)
    metrics = {
        "setup_s": (setup["setup_s"], "s"),
        "ops_per_s": (counts.completed / sum(scaled), "1/s"),
        "latency_p50_ms": (lat["p50_ms"], "ms"),
        "completed_ratio": (counts.completed / counts.attempted, "ratio"),
    }
    detail = {
        "latency_tail_ms": {"value": lat["tail_ms"], "unit": "ms"},
        "latency": lat,
        "ops_per_s_base": {"completed": counts.completed, "busy_s": sum(scaled),
                           "wall_s": run["wall_s"], "cycles": run["cycles"]},
        "fail_ratio": {"value": 1 - counts.completed / counts.attempted,
                       "failed": counts.attempted - counts.completed,
                       "attempted": counts.attempted},
        "setup_samples": setup["samples"],
        "speed": run["speed"].summary(),
        "raw": {"setup_s": setup["raw_setup_s"], "ops_per_s": counts.completed / sum(raw),
                "latency_p50_ms": raw_lat["p50_ms"], "latency_tail_ms": raw_lat["tail_ms"]},
    }
    return metrics, detail, counts


def per_layer(workload, tracer, seconds: float):
    imports = measure_imports()
    run = run_traced(workload, tracer, seconds)
    ops, traced_s, scale = run["ops"], run["traced_s"], run["scale"]
    metrics = {}
    self_total = 0.0
    for layer in LAYERS:
        stats = tracer.layers[layer]
        self_total += stats.self_s
        metrics[f"{layer}.calls"] = (stats.calls / ops, "count/op")
        metrics[f"{layer}.self_s"] = (stats.self_s / ops * scale, "s/op")
        metrics[f"{layer}.share"] = (stats.self_s / traced_s, "ratio")
        metrics[f"{layer}.errors"] = (stats.errors / ops, "count/op")
    solves = latency_summary([t * scale for t in tracer.solve_s]) if tracer.solve_s else None
    n_solves = len(tracer.solve_ok)
    metrics["beam.solve_ms_p50"] = (solves["p50_ms"] if solves else 0.0, "ms")
    metrics["beam.solve_ms_tail"] = (solves["tail_ms"] if solves else 0.0, "ms")
    metrics["beam.converged_ratio"] = (
        sum(tracer.solve_ok) / n_solves if n_solves else 1.0, "ratio")
    metrics["beam.stations_per_solve"] = (
        statistics.fmean(tracer.solve_stations) if tracer.solve_stations else 0.0, "count")
    metrics["import.numpy_s"] = (imports["numpy_s"], "s")
    metrics["import.softarm_s"] = (imports["softarm_s"], "s")
    metrics["trace.overhead_ratio"] = (traced_s / run["plain_s"], "ratio")
    detail = {
        "traced_ops": ops,
        "traced_wall_s": traced_s,
        "plain_wall_s": run["plain_s"],
        "self_s_total": self_total,
        "solves": {"attempted": n_solves, "converged": sum(tracer.solve_ok),
                   "latency": solves},
        "speed": run["speed"].summary(),
    }
    return metrics, detail, run["counts"]


def run(workload_name: str, seed: int, seconds: float, trace: bool, size: int | None = None) -> dict:
    """Run one workload; `size` cuts the case list short (smoke tests)."""
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    import softarm
    from softarm import adapt, aero, beam, cli, deflection, material
    from softarm import io as sio

    import workloads

    if Path(softarm.__file__).resolve().parent != (SRC / "softarm").resolve():
        raise RuntimeError(f"imported softarm from {softarm.__file__}, not {SRC}")
    refs = json.loads((HERE / "reference.json").read_text())
    tmp = ROOT / ".perfbench_tmp" / str(os.getpid())
    tmp.mkdir(parents=True)
    try:
        workload = workloads.WORKLOADS[workload_name](refs, seed, tmp, size)
        if trace:
            tracer = Tracer({"cli": cli, "io": sio, "material": material, "beam": beam,
                             "aero": aero, "deflection": deflection, "adapt": adapt})
            metrics, detail, counts = per_layer(workload, tracer, seconds)
        else:
            metrics, detail, counts = end_to_end(workload_name, workload, seconds)
    finally:
        shutil.rmtree(tmp)
        try:
            tmp.parent.rmdir()
        except OSError:
            pass
    detail.update({"workload": workload_name, "seed": seed, "seconds": seconds,
                   "trace": trace, "machine": machine_info(),
                   "wrong_answers": counts.wrong, "op_errors": counts.errors})
    result = {
        "correct": counts.wrong == 0,
        "attempted": counts.attempted,
        "failed": counts.wrong,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }
    return {"result": result, "detail": detail}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=["analyze", "design_grid", "tendon_wrap", "reduced_cli"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args(argv)

    if not (SRC / "softarm" / "__init__.py").is_file():
        print(f"perfbench: no softarm sources under {SRC}", file=sys.stderr)
        return 2
    result = run(args.workload, args.seed, args.seconds, bool(args.trace))
    print(json.dumps(result["detail"], sort_keys=True))
    print(json.dumps(result["result"]))
    return 0


if __name__ == "__main__":
    sys.exit(main())
