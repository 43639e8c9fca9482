"""Start-up path of the command line: every command but `fit-material` runs
without importing numpy, as does the Mooney-Rivlin stress law, no command
imports the standard-library machinery it does not run, each command imports
a pinned set of modules, and the records are built without dataclasses or
inspect.

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


def run_child(argv, flags=(), child=CHILD):
    """(exit code, imported module names, stdout) of cli.main(argv), or of
    another child script, in a fresh interpreter, started with the given
    flags, that imports softarm from where this process did."""
    env = dict(os.environ)
    package_root = str(Path(softarm.__file__).resolve().parents[1])
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [package_root, env.get("PYTHONPATH")]))
    proc = subprocess.run([sys.executable, *flags, "-c", child, *argv], env=env,
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


def test_fit_material_still_fits(tmp_path):
    params = MooneyRivlinParams(-3.19, 4.23, 0.64, -2.65, 4.37)
    lines = ["strain,stress_pa"]
    for i in range(40):
        lam = 1.01 + 0.0125 * i
        lines.append(f"{lam - 1.0!r},{mr_uniaxial_stress(params, lam) * 1e6!r}")
    (tmp_path / "ss.csv").write_text("\n".join(lines) + "\n")
    (tmp_path / "flex.csv").write_text("force_n,deflection_m\n0.1,0.001\n0.2,0.002\n0.3,0.003\n")
    code, _, out = run_child(["fit-material", "--stress-strain", str(tmp_path / "ss.csv"),
                              "--flexural", str(tmp_path / "flex.csv"),
                              "--length", "0.1", "--inertia", "1e-10"])
    assert code == 0
    fitted = json.loads(out)["results"]["material"]
    assert fitted["mooney_rivlin"]["c10"] == pytest.approx(params.c10, rel=1e-6)
    # slope 100 N/m, so E = 100 * 0.1**3 / (3 * 1e-10)
    assert fitted["flexural_modulus_pa"] == pytest.approx(1e9 / 3, rel=1e-9)
