"""The frozen records' shared behaviour (errors._Record): binding, frozen
attributes, repr, == and hash, replace and asdict, on every record class."""

import re

import pytest

from softarm.adapt import AttachmentVerdict, PipeSpec, WrapResult
from softarm.aero import EfficiencyTable, PropellerModel
from softarm.beam import BeamSolution, LoadCase, Segment, SolverSettings
from softarm.deflection import DeflectionModelCoeffs, DeflectionSample, EnvelopeReport
from softarm.material import (
    FlexuralSample,
    MooneyRivlinParams,
    StressStrainCurve,
    UniaxialInvariants,
)

#: One valid record of each class, built from keywords in field order.
EXAMPLES = [
    Segment(fold_angle_deg=10.0, length=0.05),
    LoadCase(thrust=1.0, gravity=9.81, point_moments=((0.1, 0.2),)),
    SolverSettings(integration_steps=64, shooting_tolerance=1e-7),
    BeamSolution(tip_angle_deg=-5.0, residual=1e-12, integrations=4, steps=171, mesh_steps=16,
                 plan=("plan",), contact_expected=True),
    PipeSpec(diameter=0.2),
    WrapResult(total_turning=90.0, per_segment_subtended=(30.0, 60.0), coverage_ratio=0.5,
               max_gap=0.001),
    AttachmentVerdict(bendable=True, pressure=2000.0, attached=True),
    EfficiencyTable(rows=((3000.0, 0.5), (5000.0, 0.6))),
    PropellerModel(thrust_coefficient=3e-7),
    DeflectionModelCoeffs(a1=2.4387, a2=-0.1997, b1=-0.162, b2=0.0151, alpha0=-1.0),
    DeflectionSample(infill_rate=6.0, throttle=5.0, angle=-3.0),
    EnvelopeReport(max_abs_deflection=5.0, worst_throttle=10.0, nonlinear_flag=False,
                   passes_14deg=True),
    FlexuralSample(force=0.1, tip_deflection=0.001),
    StressStrainCurve(samples=((0.0, 0.0), (0.1, 1e5))),
    MooneyRivlinParams(c10=-3.19, c01=4.23, c20=0.64, c02=-2.65, c11=4.37),
    UniaxialInvariants(i1=3.0, i2=3.0),
]

records = pytest.mark.parametrize("record", EXAMPLES, ids=lambda r: type(r).__name__)


@records
def test_fields_bind_in_order_from_positions_or_keywords(record):
    fields = record.asdict()
    assert list(vars(record)) == list(fields)  # require_finite names fields in this order
    assert type(record)(*fields.values()) == record == type(record)(**fields)


@records
def test_frozen(record):
    name = next(iter(record.asdict()))
    frozen = f"{type(record).__name__} is frozen: cannot set or delete"
    with pytest.raises(AttributeError, match=f"{frozen} '{name}'"):
        setattr(record, name, 1.0)
    with pytest.raises(AttributeError, match=f"{frozen} 'not_a_field'"):
        record.not_a_field = 1.0
    with pytest.raises(AttributeError, match=f"{frozen} '{name}'"):
        delattr(record, name)
    assert vars(record) == record.asdict()


def binding_fault(record, n, keywords):
    """The TypeError message, as a pattern, of a call that does not bind:
    n positional arguments and these keywords."""
    return re.escape(f"{type(record).__name__}() takes each of {tuple(record.asdict())} once, "
                     f"those without a default too, not {n} positional arguments and "
                     f"{tuple(keywords)}") + "$"


@records
def test_unknown_keyword(record):
    keywords = [*record.asdict(), "not_a_field"]
    with pytest.raises(TypeError, match=binding_fault(record, 0, keywords)):
        type(record)(**record.asdict(), not_a_field=1.0)


@records
def test_repeated_argument(record):
    value = next(iter(record.asdict().values()))
    with pytest.raises(TypeError, match=binding_fault(record, 1, record.asdict())):
        type(record)(value, **record.asdict())


@records
def test_too_many_positional_arguments(record):
    values = list(record.asdict().values())
    with pytest.raises(TypeError, match=binding_fault(record, len(values) + 1, [])):
        type(record)(*values, values[0])


@records
def test_missing_argument(record):
    cls, fields = type(record), record.asdict()
    required = [name for name in fields if not hasattr(cls, name)]  # no default
    if not required:  # every field has a default
        assert cls() == cls(**{name: getattr(cls, name) for name in fields})
        return
    for name in required:
        rest = {k: v for k, v in fields.items() if k != name}
        with pytest.raises(TypeError, match=binding_fault(record, 0, rest)):
            cls(**rest)
    with pytest.raises(TypeError, match=binding_fault(record, len(required) - 1, [])):
        cls(*list(fields.values())[:len(required) - 1])


def test_binding_mixes_positions_and_keywords():
    assert DeflectionModelCoeffs(2.4387, -0.1997, b1=-0.162, b2=0.0151) == EXAMPLES[9].replace(
        alpha0=0.0)
    with pytest.raises(TypeError, match=binding_fault(EXAMPLES[9], 2, ["b1", "alpha0"])):
        DeflectionModelCoeffs(2.4387, -0.1997, b1=-0.162, alpha0=1.0)  # no b2
    # A keyword for a field with a default does not stand in for a missing
    # one (plan), nor does an unknown keyword.
    for extra in ["contact_expected", "not_a_field"]:
        keywords = ["integrations", "steps", "mesh_steps", extra]
        with pytest.raises(TypeError, match=binding_fault(EXAMPLES[3], 2, keywords)):
            BeamSolution(-5.0, 1e-12, **dict.fromkeys(keywords, 1))


@records
def test_equality_and_hash(record):
    copy = type(record)(**record.asdict())
    assert copy == record and not copy != record and hash(copy) == hash(record)
    assert record.__eq__(object()) is NotImplemented
    others = [r for r in EXAMPLES if r is not record]
    assert all(record != other for other in others)


def test_equality_compares_values():
    assert LoadCase(thrust=1.0) != LoadCase(thrust=2.0)
    assert LoadCase(thrust=1.0) == LoadCase(1.0) == LoadCase(1.0, point_moments=[])
    assert MooneyRivlinParams(1, 2, 3, 4, 5) != MooneyRivlinParams(1, 2, 3, 4, 6)


def test_solution_equality_ignores_the_plan():
    solution = EXAMPLES[3]
    other_plan = solution.replace(plan=("another plan",))
    assert other_plan == solution and hash(other_plan) == hash(solution)
    assert "plan" not in repr(solution)
    assert solution.replace(steps=172) != solution


@records
def test_replace_and_asdict(record):
    fields = record.asdict()
    assert record.replace() == record and record.replace() is not record
    name = list(fields)[-1]
    assert record.replace(**{name: fields[name]}).asdict() == fields
    with pytest.raises(TypeError, match=binding_fault(record, 0, [*fields, "not_a_field"])):
        record.replace(not_a_field=1.0)
    fields[name] = "changed"
    assert record.asdict()[name] != "changed"  # a fresh dict on every call


def test_replace_changes_only_the_named_fields():
    coeffs = DeflectionModelCoeffs(2.4387, -0.1997, -0.162, 0.0151)
    assert coeffs.replace(alpha0=-5.0, b2=0.02).asdict() == {
        "a1": 2.4387, "a2": -0.1997, "b1": -0.162, "b2": 0.02, "alpha0": -5.0}
    assert coeffs.alpha0 == 0.0


def test_replace_runs_post_init():
    with pytest.raises(ValueError, match="thrust must be >= 0"):
        LoadCase(thrust=1.0).replace(thrust=-1.0)
    assert LoadCase().replace(point_moments=[[0.1, 0.2]]).point_moments == ((0.1, 0.2),)


def test_repr_matches_the_dataclass_repr():
    assert repr(DeflectionModelCoeffs(2.4387, -0.1997, -0.162, 0.0151)) == (
        "DeflectionModelCoeffs(a1=2.4387, a2=-0.1997, b1=-0.162, b2=0.0151, alpha0=0.0)")
    assert repr(PipeSpec(0.2)) == "PipeSpec(diameter=0.2)"
    assert repr(EXAMPLES[3]) == ("BeamSolution(tip_angle_deg=-5.0, residual=1e-12, "
                                 "integrations=4, steps=171, mesh_steps=16, contact_expected=True)")
