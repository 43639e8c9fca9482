"""Set-up step timed by run.py for setup_s, in a fresh interpreter: import
softarm.cli and load the shipped inputs the workload needs.

    PYTHONPATH=src python3 perfbench/setup_child.py analyze
"""

import json
import sys

from softarm import cli, material
from softarm import io as sio

NEEDS = {
    "analyze": ("geometry", "efficiency_table", "deflection_coeffs", "hyperelastic_table"),
    "design_grid": ("geometry", "hyperelastic_table"),
    "tendon_wrap": ("geometry", "hyperelastic_table"),
    "reduced_cli": ("geometry", "efficiency_table", "deflection_coeffs"),
}


def main(workload: str) -> None:
    data = cli.default_data_dir()
    config = json.loads((data / "config.json").read_text())
    needs = NEEDS[workload]
    if "geometry" in needs:
        sio.read_arm_geometry_json(data / config["geometry"])
    if "efficiency_table" in needs:
        sio.read_efficiency_csv(data / config["efficiency_table"])
    if "deflection_coeffs" in needs:
        sio.read_deflection_coeffs_json(data / config["deflection_coeffs"])
    if "hyperelastic_table" in needs:
        table = json.loads((data / config["material"]["hyperelastic_table"]).read_text())
        for row in table["rows"]:
            material.MooneyRivlinParams(row["c10"], row["c01"], row["c20"], row["c02"], row["c11"])


if __name__ == "__main__":
    main(sys.argv[1])
