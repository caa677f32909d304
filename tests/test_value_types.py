"""The public contract of the two per-trace value types, `Trace` and
`Verdict`: immutable named tuples with fixed fields, and a `Trace` that no
way of making one lets through unvalidated."""

from __future__ import annotations

import pickle

import pytest

from flowsynth import Trace, ValidationError, Verdict

TRACE_FIELDS = ("id", "polarity", "nodes", "origin")
VERDICT_FIELDS = ("trace_id", "accepted", "violation_index", "violating_edge", "source_element", "target_element")

TRACE = Trace("leak", "negative", ("tainted", "mid", "untainted"), "static-expansion")
REJECTED = Verdict("leak", False, 1, ("mid", "untainted"), "Q_mid", "Q_untainted")


def test_field_names_order_and_defaults():
    assert Trace._fields == TRACE_FIELDS
    assert Trace._field_defaults == {"origin": None}
    assert Verdict._fields == VERDICT_FIELDS
    assert Verdict._field_defaults == dict.fromkeys(VERDICT_FIELDS[2:])


def test_construction_by_position_keyword_and_default():
    assert Trace(**dict(zip(TRACE_FIELDS, TRACE))) == TRACE
    assert Trace("t", "positive", ["a", "b"]) == Trace(id="t", polarity="positive", nodes=("a", "b"), origin=None)
    assert Trace("t", "positive", ["a", "b"]).nodes == ("a", "b")
    assert Verdict(**dict(zip(VERDICT_FIELDS, REJECTED))) == REJECTED
    assert Verdict("t", True) == Verdict(trace_id="t", accepted=True) == ("t", True, None, None, None, None)


@pytest.mark.parametrize("value", [TRACE, REJECTED], ids=["Trace", "Verdict"])
def test_equal_values_are_equal_and_hash_alike(value):
    copy = type(value)(*value)
    assert copy == value and copy is not value
    assert hash(copy) == hash(value)
    assert value == tuple(value)  # a named tuple equals the plain tuple of its fields
    assert len({value, copy}) == 1


@pytest.mark.parametrize("value", [TRACE, REJECTED], ids=["Trace", "Verdict"])
def test_values_are_immutable(value):
    with pytest.raises(AttributeError):
        setattr(value, type(value)._fields[0], "other")
    with pytest.raises(AttributeError):
        value.extra = 1


def test_repr_text():
    assert repr(TRACE) == (
        "Trace(id='leak', polarity='negative', nodes=('tainted', 'mid', 'untainted'), origin='static-expansion')"
    )
    assert repr(Verdict("probe", True)) == (
        "Verdict(trace_id='probe', accepted=True, violation_index=None, violating_edge=None, "
        "source_element=None, target_element=None)"
    )
    assert repr(REJECTED) == (
        "Verdict(trace_id='leak', accepted=False, violation_index=1, violating_edge=('mid', 'untainted'), "
        "source_element='Q_mid', target_element='Q_untainted')"
    )


@pytest.mark.parametrize("value", [TRACE, REJECTED], ids=["Trace", "Verdict"])
def test_pickle_round_trip(value):
    loaded = pickle.loads(pickle.dumps(value))
    assert loaded == value and type(loaded) is type(value)


def test_trace_properties():
    assert TRACE.is_negative and not TRACE.is_positive
    assert TRACE.endpoints == ("tainted", "untainted")
    positive = Trace("ok", "positive", ("a", "b"))
    assert positive.is_positive and not positive.is_negative
    assert positive.endpoints == ("a", "b")


@pytest.mark.parametrize(
    "make, message",
    [
        (lambda: Trace("t", "positive", ("a b", "c")), "trace t: invalid node id 'a b'"),
        (lambda: TRACE._replace(nodes=("a b", "c")), "trace leak: invalid node id 'a b'"),
        (lambda: TRACE._replace(nodes=("a",)), "trace leak: a path needs at least 2 nodes, got 1"),
        (lambda: TRACE._replace(polarity="bogus"), "trace leak: unknown polarity 'bogus'"),
        (lambda: Trace._make(("", "bogus", ("x",), None)), "trace id must be a non-empty string"),
        (lambda: Trace._make(("t", "positive", ("a", 1))), "trace t: invalid node id 1"),
    ],
    ids=["constructor", "replace-nodes", "replace-short", "replace-polarity", "make-id", "make-node"],
)
def test_every_way_of_making_a_trace_validates(make, message):
    with pytest.raises(ValidationError) as info:
        make()
    assert str(info.value) == message


def test_replace_and_make_keep_the_type():
    assert type(TRACE._replace(origin=None)) is Trace
    assert TRACE._replace(origin=None) == Trace("leak", "negative", ("tainted", "mid", "untainted"))
    assert type(Trace._make(TRACE)) is Trace and Trace._make(TRACE) == TRACE
