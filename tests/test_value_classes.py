"""The value semantics of the public value classes, one contract for all 15:
the constructor, repr, equality only within a class, the hash of the field
tuple, immutability, copies and pickles at every protocol, the field names
in ``__match_args__``, equality and hashing shared from ``Frozen``, and
``SyllableId``'s ordering by its field tuple."""

import copy
import pickle
from fractions import Fraction

import pytest

from raagmcg import (
    Certificate, CertificateEntry, CheckResult, ClassificationReport, ComponentReport,
    Constants, DefiningGraph, FillResult, MappedSubsurface, Realization, Subsurface, Syllable,
    SyllableId, SyllableOrder, Word,
)

GRAPH = DefiningGraph(("a", "b", "c"), frozenset({frozenset({"a", "b"})}))
OTHER_GRAPH = DefiningGraph(("a", "b", "c"), frozenset())
WORD = Word((Syllable("a", 1), Syllable("c", -2)), GRAPH)
OTHER_WORD = Word((Syllable("b", 3),), GRAPH)
SID = SyllableId("a", 1, 1)
MAPPED = MappedSubsurface(WORD, "a")
SUBSURFACE = Subsurface("Y_a", "a", "alpha_a", frozenset({"c1"}))
CONSTANTS = Constants.create(GRAPH)
ENTRY = CertificateEntry(SID, MAPPED, 42)
COMPONENT = ComponentReport(("a", "c"), WORD, True)

# Per class: (field, value, a different value of that field), in field order.
FIELDS = {
    DefiningGraph: [
        ("vertices", ("a", "b", "c"), ("a", "b", "c", "d")),
        ("edges", frozenset({frozenset({"a", "b"})}), frozenset()),
    ],
    Syllable: [("generator", "a", "b"), ("exponent", -2, 2)],
    Word: [("syllables", WORD.syllables, OTHER_WORD.syllables), ("graph", GRAPH, OTHER_GRAPH)],
    SyllableId: [("generator", "a", "b"), ("exponent", -2, 2), ("occurrence", 1, 2)],
    SyllableOrder: [
        ("elements", (SID, SyllableId("c", -2, 1)), (SID,)),
        ("below", (0, 1), (0, 0)),
    ],
    Subsurface: [
        ("label", "Y_a", "Y_b"),
        ("vertex", "a", "b"),
        ("core", "alpha_a", "alpha_b"),
        ("intersects", frozenset({"c1"}), frozenset()),
    ],
    FillResult: [
        ("components", (("a", "b"),), (("a",), ("b",))),
        ("fills_ambient", True, False),
        ("uncovered_curves", frozenset(), frozenset({"c2"})),
    ],
    Realization: [
        ("graph", GRAPH, OTHER_GRAPH),
        ("subsurfaces", (SUBSURFACE,), ()),
        ("reference_curves", ("c1",), ("c1", "c2")),
        ("ambient_label", "S", "T"),
    ],
    MappedSubsurface: [("prefix", WORD, OTHER_WORD), ("base_vertex", "a", "b")],
    CheckResult: [("ok", False, True), ("detail", "why", "")],
    Constants: [
        ("k0", 10, 11),
        ("d", 6, 7),
        ("k", 42, 43),
        ("c", 84, 85),
        ("a", 2, 3),
        ("b", 10, 11),
        ("tau", dict(CONSTANTS.tau), {"a": 90}),
    ],
    CertificateEntry: [
        ("syllable", SID, SyllableId("a", 1, 2)),
        ("subsurface", MAPPED, MappedSubsurface(OTHER_WORD, "b")),
        ("bound", 42, 42.5),
    ],
    Certificate: [
        ("sigma", WORD, OTHER_WORD),
        ("constants", CONSTANTS, Constants.create(GRAPH, k0=12)),
        ("entries", (ENTRY,), ()),
        ("total", 126, 127.5),
        ("templates", ("d >= 126",), ()),
    ],
    ComponentReport: [
        ("generators", ("a", "c"), ("c",)),
        ("word", WORD, OTHER_WORD),
        ("fills_ambient", True, False),
        ("kind", "pseudo_anosov_on_component", "other"),
    ],
    ClassificationReport: [
        ("input", WORD, OTHER_WORD),
        ("reduced", WORD, OTHER_WORD),
        ("conjugator", Word((), GRAPH), WORD),
        ("r", 1, 2),
        ("components", (COMPONENT,), ()),
        ("overall", "pseudo_anosov", "reducible"),
        ("translation_bound", Fraction(3, 2), None),
    ],
}

CLASSES = list(FIELDS)
IDS = [cls.__name__ for cls in CLASSES]


def _names(cls):
    return tuple(name for name, _, _ in FIELDS[cls])


def _values(cls):
    return tuple(value for _, value, _ in FIELDS[cls])


def _build(cls):
    return cls(**dict(zip(_names(cls), _values(cls))))


def _hash_matches(x, values):
    try:
        expected = hash(values)
    except TypeError:  # a dict field (Constants.tau): neither is hashable
        with pytest.raises(TypeError):
            hash(x)
        return True
    return hash(x) == expected


def test_the_fifteen_public_value_classes():
    assert len(CLASSES) == 15


@pytest.mark.parametrize("cls", CLASSES, ids=IDS)
def test_constructor_fields_and_match_args(cls):
    x = _build(cls)
    assert cls.__match_args__ == _names(cls)
    assert tuple(getattr(x, name) for name in _names(cls)) == _values(cls)
    assert cls(*_values(cls)) == x
    assert isinstance(cls.__doc__, str) and cls.__doc__.strip()


def _expected_repr(x):
    cls = type(x)
    if cls is Word:
        return f"Word({str(x)!r})"
    fields = ", ".join(f"{name}={getattr(x, name)!r}" for name in _names(cls))
    return f"{cls.__qualname__}({fields})"


@pytest.mark.parametrize("cls", CLASSES, ids=IDS)
def test_repr(cls):
    x = _build(cls)
    assert repr(x) == _expected_repr(x)
    if cls is Word:
        assert repr(x) == "Word('a c^-2')"


@pytest.mark.parametrize("cls", CLASSES, ids=IDS)
def test_equality_only_within_the_class(cls):
    x, values = _build(cls), _values(cls)
    assert x == _build(cls) and not x != _build(cls)
    assert x.__eq__(values) is NotImplemented
    assert x != values and values != x
    for i, (_, _, other) in enumerate(FIELDS[cls]):
        changed = cls(*values[:i], other, *values[i + 1:])
        assert x != changed and not x == changed


def test_equal_fields_of_another_class_are_not_equal():
    # A Syllable's field names are a prefix of a SyllableId's, so the field
    # tuples alone would make these two equal.
    x, y = Syllable("a", 1), SyllableId("a", 1, 1)
    assert x.__eq__(y) is NotImplemented and y.__eq__(x) is NotImplemented
    assert x != y and not x == y


@pytest.mark.parametrize("cls", CLASSES, ids=IDS)
def test_hash_is_the_hash_of_the_field_tuple(cls):
    assert _hash_matches(_build(cls), _values(cls))


@pytest.mark.parametrize("cls", CLASSES, ids=IDS)
def test_equality_and_hash_are_the_shared_ones(cls):
    # Frozen derives both from __match_args__; a written-out copy could
    # leave a field out unnoticed.
    assert "__eq__" not in vars(cls) and "__hash__" not in vars(cls)


@pytest.mark.parametrize("cls", CLASSES, ids=IDS)
def test_fields_cannot_be_assigned_or_deleted(cls):
    x = _build(cls)
    for name, value, other in FIELDS[cls]:
        with pytest.raises(AttributeError, match=f"^cannot assign to field '{name}'$"):
            setattr(x, name, other)
        with pytest.raises(AttributeError, match=f"^cannot delete field '{name}'$"):
            delattr(x, name)
        assert getattr(x, name) == value
    with pytest.raises(AttributeError, match="^cannot assign to field 'extra'$"):
        x.extra = 1
    assert not hasattr(x, "extra")


@pytest.mark.parametrize("cls", CLASSES, ids=IDS)
def test_copies_and_pickles_are_equal(cls):
    x = _build(cls)
    copies = [copy.copy(x), copy.deepcopy(x)]
    copies += [pickle.loads(pickle.dumps(x, protocol))
               for protocol in range(pickle.HIGHEST_PROTOCOL + 1)]
    for y in copies:
        # A rebuilt frozenset may list its items in another order, so each
        # repr is checked against its own fields.
        assert type(y) is cls
        assert y == x and repr(y) == _expected_repr(y)
        assert _hash_matches(y, _values(cls))


@pytest.mark.parametrize("cls", CLASSES, ids=IDS)
def test_instance_dict_only_where_not_slotted(cls):
    # Syllable is slotted; the others keep a __dict__ for cached_property
    # and Word's canonical mark.
    assert hasattr(_build(cls), "__dict__") == (cls is not Syllable)


def test_syllable_id_orders_by_its_field_tuple():
    ids = [SyllableId(g, e, o) for g in "ab" for e in (-1, 2) for o in (1, 2)]
    for x in ids:
        for y in ids:
            tx, ty = _values_of(x), _values_of(y)
            assert (x < y, x <= y, x > y, x >= y) == (tx < ty, tx <= ty, tx > ty, tx >= ty)
    assert sorted(reversed(ids)) == ids
    x, values = ids[0], _values_of(ids[0])
    for compare in (x.__lt__, x.__le__, x.__gt__, x.__ge__):
        assert compare(values) is NotImplemented
    with pytest.raises(TypeError):
        x < values
    with pytest.raises(TypeError):
        values >= x


def _values_of(sid):
    return sid.generator, sid.exponent, sid.occurrence
