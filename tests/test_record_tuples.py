"""A record field annotated tuple[...] is stored as a tuple, and one annotated
tuple[tuple[...], ...] as a tuple of tuples, whatever iterable is passed
(errors._Record), the annotation a string or a type; BeamSolution.plan,
annotated plain tuple, is stored as given."""

import pytest

from softarm.adapt import WrapResult
from softarm.aero import EfficiencyTable
from softarm.beam import ArmGeometry, BeamSolution, LoadCase, Segment
from softarm.errors import _Record
from softarm.material import StressStrainCurve

#: One valid record of each class with tuple[...] fields, built from tuples,
#: and the names of those fields.
RECORDS = [
    (ArmGeometry(segments=(Segment(10.0, 0.05), Segment(20.0, 0.04)),
                 section_inertia=(2e-10, 1e-10), section_half_depth=0.005),
     ["segments", "section_inertia"]),
    (LoadCase(thrust=1.0, point_moments=((0.1, 0.2), (0.05, -0.1))), ["point_moments"]),
    (WrapResult(total_turning=90.0, per_segment_subtended=(30.0, 60.0), coverage_ratio=0.5,
                max_gap=0.001), ["per_segment_subtended"]),
    (EfficiencyTable(rows=((3000.0, 0.5), (5000.0, 0.6))), ["rows"]),
    (StressStrainCurve(samples=((0.0, 0.0), (0.1, 1e5))), ["samples"]),
]


def as_lists(value):
    """value with each tuple in it, nested ones too, a list."""
    return [as_lists(item) for item in value] if type(value) is tuple else value


def as_generators(value):
    """value with each tuple in it, nested ones too, a generator."""
    return (as_generators(item) for item in value) if type(value) is tuple else value


def is_tuple(value) -> bool:
    """Whether value is a tuple, and so is each tuple or list inside it."""
    return type(value) is tuple and all(
        is_tuple(item) for item in value if isinstance(item, (tuple, list)))


@pytest.mark.parametrize("record,names", RECORDS, ids=[type(r).__name__ for r, _ in RECORDS])
def test_tuple_fields_are_stored_as_tuples(record, names):
    fields = record.asdict()
    built = [type(record)(**{**fields, **{name: convert(fields[name]) for name in names}})
             for convert in (tuple, as_lists, as_generators)]
    assert built == [record] * 3
    assert len({hash(r) for r in built}) == 1
    for each in built:
        assert all(is_tuple(getattr(each, name)) for name in names)


def test_plan_is_stored_as_given():
    plan = ["plan"]
    assert BeamSolution(-5.0, 1e-12, 4, 171, 16, plan).plan is plan


class Annotated(_Record):
    """A record whose annotations are types: this module does not import
    annotations from __future__, as the softarm modules do."""

    rows: tuple[tuple[float, float], ...]
    values: tuple[float, ...] = ()
    raw: tuple = ()


def test_annotations_that_are_types():
    assert Annotated.__annotations__["raw"] is tuple
    raw = [1.0]
    record = Annotated([[1.0, 2.0]], iter([3.0]), raw)
    assert record.asdict() == {"rows": ((1.0, 2.0),), "values": (3.0,), "raw": raw}
    assert record.raw is raw
