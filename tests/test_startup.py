"""Start-up path of the command line: every command but `fit-material` runs
without importing numpy, as does the Mooney-Rivlin stress law, no command
imports the standard-library machinery it does not run, each command imports
a pinned set of modules, the records are built without dataclasses or
inspect, each input file is opened once and read as UTF-8 whatever the
locale, and `analyze --out` opens its report once, without truncating it.
A command whose standard output is closed exits 1 and prints nothing.

Each command runs in a fresh interpreter, because this test process has
imported numpy already. The child imports the same softarm as this process
(a source tree or the installed package), so the test also checks an
installed copy when run from outside the checkout.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import softarm
from softarm.cli import default_data_dir
from softarm.material import MooneyRivlinParams, mr_uniaxial_stress

#: Runs cli.main on its arguments and reports, as the last line of stderr,
#: the exit code and the names of the imported modules.
CHILD = """\
import json, sys
from softarm.cli import main
code = main(sys.argv[1:])
print(json.dumps({"code": code, "modules": sorted(sys.modules)}), file=sys.stderr)
"""

#: Standard-library modules that no command needs at start-up: the data
#: directory is a plain path, annotations are never evaluated, and only
#: --timestamp reads the clock.
MACHINERY = {"importlib.resources", "typing", "datetime", "tempfile", "zipfile"}

NUMPY_FREE = {
    "analyze": ["analyze"],
    "deflect-throttle": ["deflect", "--rho", "6", "--throttle-pct", "50"],
    "deflect-envelope": ["deflect", "--rho", "4", "--envelope"],
    "efficiency": ["efficiency", "--rpm", "4500"],
    "pipe-fit": ["pipe-fit", "--diameter", "0.2"],
    "sweep-motor_station": ["sweep", "--axis", "motor_station"],
    "sweep-arm_angle": ["sweep", "--axis", "arm_angle"],
    "sweep-throttle": ["sweep", "--axis", "throttle"],
    "sweep-infill": ["sweep", "--axis", "infill"],
}


#: Prints the shipped 6% row's uniaxial stress at stretch 1.1, and reports
#: as CHILD does.
STRESS_CHILD = """\
import json, sys
from softarm.material import MooneyRivlinParams, mr_uniaxial_stress
print(repr(mr_uniaxial_stress(MooneyRivlinParams(-3.19, 4.23, 0.64, -2.65, 4.37), 1.1)))
print(json.dumps({"code": 0, "modules": sorted(sys.modules)}), file=sys.stderr)
"""


#: Prints the modules that importing softarm.errors adds, then those that
#: importing softarm.cli adds, and reports as CHILD does.
RECORDS_CHILD = """\
import json, sys
before = set(sys.modules)
import softarm.errors
added = sorted(set(sys.modules) - before)
import softarm.cli
print(json.dumps({"errors_imports": added, "cli_imports": sorted(set(sys.modules) - before)}))
print(json.dumps({"code": 0, "modules": sorted(sys.modules)}), file=sys.stderr)
"""


def child_env(env=None) -> dict:
    """This process's environment with env added, and softarm's parent
    directory first on PYTHONPATH, so a child imports softarm from where
    this process did."""
    env = {**os.environ, **(env or {})}
    package_root = str(Path(softarm.__file__).resolve().parents[1])
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [package_root, env.get("PYTHONPATH")]))
    return env


def run_child(argv, flags=(), child=CHILD, env=None):
    """(exit code, imported module names, stdout) of cli.main(argv), or of
    another child script, in a fresh interpreter, started with the given
    flags and with env added to this process's environment, that imports
    softarm from where this process did."""
    proc = subprocess.run([sys.executable, *flags, "-c", child, *argv], env=child_env(env),
                          capture_output=True, text=True, timeout=120)
    status = json.loads(proc.stderr.splitlines()[-1])
    return status["code"], set(status["modules"]), proc.stdout


@pytest.mark.parametrize("name", NUMPY_FREE)
def test_command_does_not_import_numpy(name):
    code, modules, _ = run_child(NUMPY_FREE[name])
    assert code == 0
    assert "numpy" not in modules


@pytest.mark.parametrize(
    "argv,expected",
    [
        (["analyze"], set()),
        (["sweep", "--axis", "infill"], set()),
        (["efficiency", "--rpm", "4500"], set()),
        (["analyze", "--timestamp"], {"datetime"}),
    ],
    ids=["analyze", "sweep-infill", "efficiency", "analyze-timestamp"],
)
def test_command_imports_no_unused_machinery(argv, expected):
    # -S leaves out the site hooks (.pth files), which may import some of
    # these modules before softarm starts and so hide what softarm imports.
    code, modules, _ = run_child(argv, flags=["-S"])
    assert code == 0
    assert modules & MACHINERY == expected


#: Reports as CHILD does, having imported only what every command needs.
BASE_CHILD = """\
import argparse, csv, hashlib, json, sys
print(json.dumps({"code": 0, "modules": sorted(sys.modules)}), file=sys.stderr)
"""

#: The modules that each command of NUMPY_FREE imports under -S beyond those
#: of BASE_CHILD, on Python 3.11 and 3.12 (3.11.7 and 3.12.1 agree).
#: A change that adds an import, or drops one, updates this set. Other
#: versions import other standard-library modules for the same code: 3.10.13
#: adds warnings and lacks _locale and ipaddress, and 3.13 turns pathlib into
#: a package that imports glob, pwd and grp where urllib.parse was. So
#: elsewhere only the softarm modules are compared.
STARTUP_MODULES = {
    "__future__", "_bz2", "_compression", "_locale", "_lzma", "bz2", "contextlib", "errno",
    "fnmatch", "ipaddress", "locale", "lzma", "math", "ntpath", "pathlib", "shutil", "softarm",
    "softarm.adapt", "softarm.aero", "softarm.beam", "softarm.cli", "softarm.deflection",
    "softarm.errors", "softarm.io", "softarm.material", "urllib", "urllib.parse", "zlib",
}


@pytest.fixture(scope="module")
def base_modules():
    return run_child([], flags=["-S"], child=BASE_CHILD)[1]


@pytest.mark.parametrize("name", NUMPY_FREE)
def test_command_imports_the_pinned_modules(name, base_modules):
    # Under -S, as above; fit-material is left out because -S also leaves
    # site-packages, and with it numpy, off the path.
    code, modules, _ = run_child(NUMPY_FREE[name], flags=["-S"])
    assert code == 0
    added = modules - base_modules
    if sys.version_info[:2] not in {(3, 11), (3, 12)}:
        added = {m for m in added if m.partition(".")[0] == "softarm"}
        expected = {m for m in STARTUP_MODULES if m.partition(".")[0] == "softarm"}
    else:
        expected = STARTUP_MODULES
    assert sorted(added) == sorted(expected)


def test_stress_law_does_not_import_numpy():
    _, modules, out = run_child([], child=STRESS_CHILD)
    assert "numpy" not in modules
    assert float(out) == mr_uniaxial_stress(MooneyRivlinParams(-3.19, 4.23, 0.64, -2.65, 4.37), 1.1)


def test_records_are_built_without_dataclasses():
    # A frozen dataclass compiles its generated methods when its module is
    # imported, and dataclasses imports inspect, which on 3.13.13 imports
    # typing; the records derive from errors._Record instead. ArmGeometry's
    # __dataclass_fields__, which serves perfbench's dataclasses.replace
    # calls, imports nothing.
    _, _, out = run_child([], flags=["-S"], child=RECORDS_CHILD)
    found = json.loads(out)
    assert not {"dataclasses", "inspect"} & set(found["cli_imports"])
    assert set(found["errors_imports"]) <= {"softarm", "softarm.errors", "math"}


RHO6 = MooneyRivlinParams(-3.19, 4.23, 0.64, -2.65, 4.37)


def fit_material_argv(tmp_path):
    """The arguments of a fit-material run on two test files that it writes
    in tmp_path: uniaxial stresses of RHO6, and a flexural slope of 100 N/m."""
    lines = ["strain,stress_pa"]
    for i in range(40):
        lam = 1.01 + 0.0125 * i
        lines.append(f"{lam - 1.0!r},{mr_uniaxial_stress(RHO6, lam) * 1e6!r}")
    (tmp_path / "ss.csv").write_text("\n".join(lines) + "\n")
    (tmp_path / "flex.csv").write_text("force_n,deflection_m\n0.1,0.001\n0.2,0.002\n0.3,0.003\n")
    return ["fit-material", "--stress-strain", str(tmp_path / "ss.csv"),
            "--flexural", str(tmp_path / "flex.csv"), "--length", "0.1", "--inertia", "1e-10"]


def test_fit_material_still_fits(tmp_path):
    code, _, out = run_child(fit_material_argv(tmp_path))
    assert code == 0
    fitted = json.loads(out)["results"]["material"]
    assert fitted["mooney_rivlin"]["c10"] == pytest.approx(RHO6.c10, rel=1e-6)
    # slope 100 N/m, so E = 100 * 0.1**3 / (3 * 1e-10)
    assert fitted["flexural_modulus_pa"] == pytest.approx(1e9 / 3, rel=1e-9)


#: Runs cli.main on its arguments, counting each file opened (through an
#: audit hook, which sees every way of opening one), prints the counts by
#: real path as the last line of stdout, and reports as CHILD does.
OPENS_CHILD = """\
import collections, json, os, sys
opens = collections.Counter()
def count(event, args):
    if event == "open" and isinstance(args[0], (str, os.PathLike)):
        opens[os.path.realpath(args[0])] += 1
sys.addaudithook(count)
from softarm.cli import main
code = main(sys.argv[1:])
print(json.dumps(opens))
print(json.dumps({"code": code, "modules": sorted(sys.modules)}), file=sys.stderr)
"""

#: The shipped files that each command of NUMPY_FREE reads.
INPUTS = {
    "analyze": ["config.json", "arm_geometry.json", "efficiency_table.csv",
                "deflection_coeffs.json", "hyperelastic_coeffs.json"],
    "deflect-throttle": ["deflection_coeffs.json"],
    "deflect-envelope": ["deflection_coeffs.json"],
    "efficiency": ["efficiency_table.csv"],
    "pipe-fit": ["arm_geometry.json"],
    "sweep-motor_station": ["efficiency_table.csv"],
    "sweep-arm_angle": ["efficiency_table.csv"],
    "sweep-throttle": ["deflection_coeffs.json"],
    "sweep-infill": ["arm_geometry.json"],
}


@pytest.mark.parametrize("name", [*NUMPY_FREE, "fit-material"])
def test_each_input_file_is_opened_once(name, tmp_path):
    # The digest in the report is of the bytes parsed, not of a second read.
    data = default_data_dir().resolve()
    if name == "fit-material":
        argv, files = fit_material_argv(tmp_path), [tmp_path / "ss.csv", tmp_path / "flex.csv"]
    else:
        argv, files = NUMPY_FREE[name], [data / f for f in INPUTS[name]]
    code, _, out = run_child(argv, child=OPENS_CHILD)
    assert code == 0
    opens = json.loads(out.splitlines()[-1])
    read = {path: n for path, n in opens.items()
            if Path(path).parent in (data, tmp_path.resolve())}
    assert read == {str(f.resolve()): 1 for f in files}


#: Runs cli.main on its arguments, recording the real path and the flags of
#: each file opened, by os.open or by open, and prints them as the last line
#: of stdout; reports as CHILD does.
OPEN_FLAGS_CHILD = """\
import json, os, sys
opens = []
def record(event, args):
    if event == "open" and isinstance(args[0], (str, os.PathLike)):
        opens.append([os.path.realpath(args[0]), args[2]])
sys.addaudithook(record)
from softarm.cli import main
code = main(sys.argv[1:])
print(json.dumps(opens))
print(json.dumps({"code": code, "modules": sorted(sys.modules)}), file=sys.stderr)
"""


@pytest.mark.parametrize("existing", [False, True], ids=["new", "existing"])
def test_report_is_opened_once_without_truncating(existing, tmp_path):
    # On ext4, an open with O_TRUNC of a non-empty file makes its close
    # start writeback of the new data (auto_da_alloc): 0.1-0.2 ms of an
    # analyze op. The report is written over the old bytes, then cut.
    report = tmp_path / "report.json"
    if existing:
        report.write_bytes(b"x" * 10_000)
    code, _, out = run_child(["analyze", "--out", str(report), "--quiet"], child=OPEN_FLAGS_CHILD)
    assert code == 0
    flags = [f for path, f in json.loads(out.splitlines()[-1]) if path == str(report.resolve())]
    assert len(flags) == 1 and not flags[0] & os.O_TRUNC
    golden = Path(__file__).parent / "data" / "golden" / "analyze.json"
    assert report.read_bytes() == golden.read_bytes()


def test_utf8_input_is_read_whatever_the_locale(tmp_path):
    # JSON is UTF-8 (RFC 8259), and so are the CSV tables: a geometry with a
    # non-ASCII _note reads the same in the C locale, without UTF-8 mode.
    geometry = json.loads((default_data_dir() / "arm_geometry.json").read_bytes())
    geometry["_note"] = "fold angles in °, lengths in mm"
    p = tmp_path / "geometry.json"
    p.write_bytes(json.dumps(geometry, ensure_ascii=False).encode())
    argv = ["pipe-fit", "--diameter", "0.2", "--geometry", str(p)]
    utf8 = run_child(argv, env={"PYTHONUTF8": "1"})
    c_locale = run_child(argv, env={"LC_ALL": "C", "PYTHONUTF8": "0", "PYTHONCOERCECLOCALE": "0"})
    assert utf8[0] == c_locale[0] == 0
    assert c_locale[2] == utf8[2]


@pytest.mark.parametrize("argv", [["analyze"], ["sweep", "--axis", "throttle"]],
                         ids=["json", "csv"])
def test_closed_stdout_exits_1_quietly(argv):
    # The pipe's read end is closed before the child starts, so its first
    # write to stdout fails with EPIPE, as under `softarm ... | head -0`.
    # The child runs the console script's entry point.
    read_end, write_end = os.pipe()
    os.close(read_end)
    try:
        proc = subprocess.run(
            [sys.executable, "-c", "from softarm.cli import entrypoint; entrypoint()", *argv],
            env=child_env(), stdout=write_end, stderr=subprocess.PIPE, text=True, timeout=120)
    finally:
        os.close(write_end)
    assert (proc.returncode, proc.stderr) == (1, "")


@pytest.mark.skipif(not os.path.exists("/dev/full"), reason="no /dev/full")
def test_full_stdout_is_an_output_error():
    # Every write to /dev/full fails with ENOSPC, as on a full disk.
    with open("/dev/full", "w") as full:
        proc = subprocess.run(
            [sys.executable, "-c", "from softarm.cli import entrypoint; entrypoint()", "analyze"],
            env=child_env(), stdout=full, stderr=subprocess.PIPE, text=True, timeout=120)
    assert proc.returncode == 1
    assert proc.stderr.startswith("softarm: output error: [Errno 28] ")
    assert len(proc.stderr.splitlines()) == 1


def test_unwritable_out_is_an_output_error(tmp_path):
    target = tmp_path / "missing" / "r.json"
    proc = subprocess.run(
        [sys.executable, "-c", "from softarm.cli import entrypoint; entrypoint()",
         "efficiency", "--rpm", "4500", "--out", str(target)],
        env=child_env(), capture_output=True, text=True, timeout=120)
    assert (proc.returncode, proc.stdout) == (1, "")
    assert proc.stderr.startswith("softarm: output error: ")
    assert len(proc.stderr.splitlines()) == 1
