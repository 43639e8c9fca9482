"""The input boundary under mutation: a copy of a shipped input (the
deflection coefficients, or the numbers of the analyze config) with one or
two leaves replaced exits 0, 2, 3 or 4 without a traceback; an exit-0 report
holds only finite numbers, and an exit-2 message names the file or the key."""

import contextlib
import io
import json
import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from softarm.cli import default_data_dir, main

COEFFS = json.loads((default_data_dir() / "deflection_coeffs.json").read_text())
POOL = [0, 1, -1, 5e-324, 1e-300, 1e308, -1e308, 10**400, True, None, "x", [], {}]
CONFIG = json.loads((default_data_dir() / "config.json").read_text())
#: The (section, key) of each number in the shipped config.
CONFIG_NUMBERS = [(section, key) for section in ("material", "propeller", "pipe")
                  for key, value in CONFIG[section].items() if not isinstance(value, str)]


def _leaf(old):
    """A value from the pool or, for a number, a scaled copy of the old one."""
    pool = st.sampled_from(POOL)
    if isinstance(old, (int, float)) and not isinstance(old, bool):
        scales = st.sampled_from([-1e300, -10.0, -1.0, 0.5, 2.0, 1e10, 1e300])
        return st.one_of(pool, scales.map(lambda k: old * k))
    return pool


def _mutations(payload):
    keys = st.sets(st.sampled_from(sorted(payload)), min_size=1, max_size=2)
    return keys.flatmap(lambda ks: st.fixed_dictionaries({k: _leaf(payload[k]) for k in ks}))


def _run(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    return code, out.getvalue(), err.getvalue()


def _numbers(node):
    if isinstance(node, dict):
        for value in node.values():
            yield from _numbers(value)
    elif isinstance(node, list):
        for value in node:
            yield from _numbers(value)
    elif isinstance(node, (int, float)) and not isinstance(node, bool):
        yield node


def _reject_constant(name):
    raise AssertionError(f"report holds {name}")


@pytest.fixture(scope="module")
def files(tmp_path_factory):
    """A coefficients copy, rewritten by each example, and a config using it."""
    folder = tmp_path_factory.mktemp("mutation")
    data = default_data_dir()
    config = json.loads((data / "config.json").read_text())
    for key in ("geometry", "efficiency_table"):
        config[key] = str(data / config[key])
    config["material"]["hyperelastic_table"] = str(data / config["material"]["hyperelastic_table"])
    coeffs = folder / "deflection_coeffs.json"
    config["deflection_coeffs"] = str(coeffs)
    (folder / "config.json").write_text(json.dumps(config))
    return coeffs, folder / "config.json"


@settings(max_examples=150, deadline=None)
@given(changes=_mutations(COEFFS), rho=st.sampled_from([4.0, 6.0, 8.0, 12.5]))
def test_mutated_deflection_coefficients(files, changes, rho):
    coeffs, config = files
    coeffs.write_text(json.dumps({**COEFFS, **changes}))
    for argv in (["deflect", "--rho", str(rho), "--envelope", "--coeffs", str(coeffs)],
                 ["analyze", "--config", str(config)]):
        code, out, err = _run(argv)
        assert code in (0, 2, 3, 4), (argv, err)
        if code == 0:
            report = json.loads(out, parse_constant=_reject_constant)
            assert all(math.isfinite(x) for x in _numbers(report))
        elif code == 2:
            assert str(coeffs) in err or any(key in err for key in changes), err


@pytest.fixture(scope="module")
def config_path(tmp_path_factory):
    """Where each example writes its config; file references stay absolute."""
    return tmp_path_factory.mktemp("config") / "config.json"


@settings(max_examples=200, deadline=None)
@given(changes=st.dictionaries(st.sampled_from(CONFIG_NUMBERS),
                               st.sampled_from([*POOL, -5e-324]), min_size=1, max_size=2))
def test_mutated_config_numbers(config_path, changes):
    assert len(CONFIG_NUMBERS) == 7
    data = default_data_dir()
    config = json.loads(json.dumps(CONFIG))
    for key in ("geometry", "efficiency_table", "deflection_coeffs"):
        config[key] = str(data / config[key])
    table = str(data / config["material"]["hyperelastic_table"])
    config["material"]["hyperelastic_table"] = table
    for (section, key), value in changes.items():
        config[section][key] = value
    config_path.write_text(json.dumps(config))
    code, out, err = _run(["analyze", "--config", str(config_path)])
    assert code in (0, 2, 3, 4), err
    if code == 0:
        report = json.loads(out, parse_constant=_reject_constant)
        assert all(math.isfinite(x) for x in _numbers(report))
    elif code == 2:  # the key, or the table the infill selects a row of
        assert any(f"{s}.{k}" in err for s, k in changes) or table in err, err
