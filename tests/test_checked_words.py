"""Words built from syllables that are already checked: normal forms,
minimal representatives and the prefixes of a word skip ``__post_init__``
and must equal the words ``Word(...)`` builds and checks.  ``Syllable``
is a slotted frozen dataclass whose equality, hash, repr, copies and
pickles stay those of the plain one."""

import copy
import dataclasses
import pickle
import random

import pytest

from raagmcg import (
    Syllable, UnknownVertex, Word, minimal_representatives, multiply, normalize,
    parse_word,
)

from conftest import random_graph, random_word


def test_syllable_is_slotted_and_round_trips():
    s = Syllable("a", -2)
    assert not hasattr(s, "__dict__")
    assert Syllable.__slots__ == ("generator", "exponent")
    assert repr(s) == "Syllable(generator='a', exponent=-2)"
    assert s == Syllable("a", -2) and hash(s) == hash(("a", -2))
    assert s != Syllable("a", 2) and s != ("a", -2)
    with pytest.raises(dataclasses.FrozenInstanceError):
        s.exponent = 3
    copies = [copy.copy(s), copy.deepcopy(s), dataclasses.replace(s)]
    copies += [pickle.loads(pickle.dumps(s, protocol)) for protocol in
               range(pickle.HIGHEST_PROTOCOL + 1)]
    for other in copies:
        assert type(other) is Syllable
        assert other == s and hash(other) == hash(s) and repr(other) == repr(s)
    assert dataclasses.replace(s, exponent=5) == Syllable("a", 5)


def test_unknown_generator_keeps_message_and_label(pentagon):
    with pytest.raises(UnknownVertex) as err:
        Word((Syllable("a", 1), Syllable("z", 2), Syllable("y", 1)), pentagon)
    assert err.value.message == str(err.value) == "unknown generator 'z'"
    assert err.value.details == {"label": "z"}


def _assert_same_as_checked(word, canonical):
    checked = Word(word.syllables, word.graph)
    assert word == checked and hash(word) == hash(checked) and repr(word) == repr(checked)
    fields = {"syllables": word.syllables, "graph": word.graph}
    assert vars(word) == ({**fields, "_canonical": True} if canonical else fields)


def test_words_over_checked_syllables_equal_checked_words():
    rng = random.Random(2026)
    for _ in range(60):
        graph = random_graph(rng, max_vertices=6)
        u, v = random_word(rng, graph, 8), random_word(rng, graph, 8)
        for word in (normalize(u), multiply(u, v)):
            _assert_same_as_checked(word, canonical=True)
        for rep in minimal_representatives(u, cap=500):
            _assert_same_as_checked(rep, canonical=False)


def test_prefixes_are_the_unmarked_prefix_words(pentagon):
    word = normalize(parse_word("a c^-2 e b d a^3 c", pentagon))
    prefixes = word.prefixes()
    assert [str(p) for p in prefixes] == [
        "", "a", "a c^-2", "a c^-2 e", "a c^-2 e b", "a c^-2 e b d", "a c^-2 e b d a^3",
    ]
    for i, prefix in enumerate(prefixes):
        assert prefix.syllables == word.syllables[:i]
        _assert_same_as_checked(prefix, canonical=False)
    assert Word((), pentagon).prefixes() == []
