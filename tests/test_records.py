"""Value records compare and hash by value; model entities compare field
by field and name their fields in their repr."""

import pytest

from thimac import (
    ActionKind,
    Diagnostic,
    EventDef,
    Flow,
    Region,
    Stage,
    TimeSubthimac,
    Trigger,
)

#: per value record: two equal instances built apart, then a different one
VALUES = {
    "TimeSubthimac": (
        TimeSubthimac(0, 5),
        TimeSubthimac(start=0, end=5),
        TimeSubthimac(0, 6),
    ),
    "EventDef": (
        EventDef("e", "e", frozenset({"s1", "s2"})),
        EventDef(id="e", name="e", region=frozenset({"s2", "s1"}), time=None),
        EventDef("e", "e", frozenset({"s1", "s2"}), TimeSubthimac(0, 1)),
    ),
    "Region": (
        Region(frozenset({"s1", "s2"}), True),
        Region(stages=frozenset({"s2", "s1"}), connected=True),
        Region(frozenset({"s1", "s2"}), False),
    ),
    "Diagnostic": (
        Diagnostic("V5", "warning", "a.create", "dead", 3),
        Diagnostic(
            code="V5", severity="warning", subject="a.create", message="dead", line=3
        ),
        Diagnostic("V5", "warning", "a.create", "dead"),
    ),
}


@pytest.mark.parametrize("name", VALUES)
def test_value_records_compare_and_hash_by_value(name):
    one, same, other = VALUES[name]
    assert type(one).__name__ == name and one is not same
    assert one == same and hash(one) == hash(same)
    assert one != other
    assert {one, same, other} == {one, other}
    assert one._replace() == one and one._asdict() == dict(zip(one._fields, one))
    with pytest.raises(AttributeError):
        one.__setattr__(one._fields[0], None)


def test_value_records_equal_plain_tuples_and_time_stays_checked():
    assert TimeSubthimac(0, 5) == (0, 5)
    assert TimeSubthimac(0, 5)._replace(end=6) == TimeSubthimac(0, 6)
    assert repr(TimeSubthimac(0, 5)) == "TimeSubthimac(start=0, end=5)"
    for start, end in ((-1, 2), (3, 2)):
        with pytest.raises(ValueError, match=f"bad time interval {start}..{end}"):
            TimeSubthimac(start, end)
    with pytest.raises(ValueError):
        TimeSubthimac(0, 5)._replace(end=-1)


def test_entities_compare_by_fields_and_name_them_in_their_repr():
    stage = Stage("s1", ActionKind.CREATE, "t1")
    assert stage == Stage(id="s1", kind=ActionKind.CREATE, owner="t1", alias=None)
    assert stage != Stage("s1", ActionKind.CREATE, "t1", alias="make")
    assert repr(stage) == (
        "Stage(id='s1', kind=<ActionKind.CREATE: 'create'>, owner='t1', alias=None)"
    )
    flow = Flow("f1", "s1", "s2", anchor=1)
    assert flow == Flow(id="f1", src="s1", dst="s2", carries=None, anchor=1)
    assert flow != Flow("f1", "s1", "s2")
    assert flow != Trigger("f1", "s1", "s2") and Trigger("f1", "s1", "s2") != flow
    assert repr(flow) == "Flow(id='f1', src='s1', dst='s2', carries=None, anchor=1)"
    flow.carries = "request"  # entities stay mutable, unhashable and slotted
    assert flow.carries == "request" and flow != Flow("f1", "s1", "s2", anchor=1)
    with pytest.raises(TypeError):
        hash(stage)
    assert not hasattr(stage, "__dict__") and not hasattr(flow, "__dict__")
