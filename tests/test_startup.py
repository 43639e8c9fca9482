"""Start-up path of the command line: every command but `fit-material` runs
without importing numpy, and no command imports the standard-library
machinery it does not run.

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


def run_child(argv, flags=()):
    """(exit code, imported module names, stdout) of cli.main(argv) in a
    fresh interpreter, started with the given flags, that imports softarm
    from where this process did."""
    env = dict(os.environ)
    package_root = str(Path(softarm.__file__).resolve().parents[1])
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [package_root, env.get("PYTHONPATH")]))
    proc = subprocess.run([sys.executable, *flags, "-c", CHILD, *argv], env=env,
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
