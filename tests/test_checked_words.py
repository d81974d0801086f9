"""Words built from syllables that are already checked skip the check of
``Word(...)`` and must equal the words ``Word(...)`` builds and
checks: normal forms, minimal representatives, prefixes, parsed words,
concatenated powers, the results of each move, the reduced word and
conjugator of cyclic reduction, the component words of ``classify`` and
the difference word of the star-coset test.  ``Syllable`` is a slotted
immutable class whose equality, hash, repr, copies and pickles stay
those of the unslotted one."""

import copy
import pickle
import random

import pytest

from raagmcg import (
    DefiningGraph, MoveNotApplicable, Syllable, UnknownVertex, Word, apply_move,
    build_standard_realization, check_representative_independence, classify,
    concatenated_power, cyclically_reduce, minimal_representatives, multiply, normalize,
    parse_word,
)
from raagmcg import subsurface_map

from conftest import random_graph, random_word

F2XF2_EDGES = [("x", "u"), ("x", "v"), ("y", "u"), ("y", "v")]


def test_syllable_is_slotted_and_round_trips():
    s = Syllable("a", -2)
    assert not hasattr(s, "__dict__")
    assert Syllable.__slots__ == ("generator", "exponent")
    assert repr(s) == "Syllable(generator='a', exponent=-2)"
    assert s == Syllable("a", -2) and hash(s) == hash(("a", -2))
    assert s != Syllable("a", 2) and s != ("a", -2)
    with pytest.raises(AttributeError):
        s.exponent = 3
    copies = [copy.copy(s), copy.deepcopy(s), Syllable(s.generator, s.exponent)]
    copies += [pickle.loads(pickle.dumps(s, protocol)) for protocol in
               range(pickle.HIGHEST_PROTOCOL + 1)]
    for other in copies:
        assert type(other) is Syllable
        assert other == s and hash(other) == hash(s) and repr(other) == repr(s)
    assert Syllable(s.generator, exponent=5) == Syllable("a", 5)


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


def _moves(word):
    # Every move that applies to the word, at every position.
    for move in (1, 2, 3):
        for position in range(1, len(word) + 1):
            try:
                yield apply_move(word, move, position)
            except MoveNotApplicable:
                pass


def test_words_over_checked_syllables_equal_checked_words(monkeypatch):
    differences = []
    in_special_subgroup = subsurface_map.in_special_subgroup

    def capture(word, generators):
        differences.append(word)
        return in_special_subgroup(word, generators)

    monkeypatch.setattr(subsurface_map, "in_special_subgroup", capture)
    rng = random.Random(2026)
    built = compared = 0
    for _ in range(60):
        graph = random_graph(rng, max_vertices=6)
        u, v = random_word(rng, graph, 8), random_word(rng, graph, 8)
        raw = random_word(rng, graph, 8, exponents=(-1, 0, 1))
        reduced, conjugator = cyclically_reduce(multiply(u, v))
        assert normalize(reduced) is reduced
        for word in (normalize(u), multiply(u, v), reduced, conjugator):
            _assert_same_as_checked(word, canonical=True)
        words = [parse_word(str(u), graph), parse_word(str(raw), graph, keep_zero_exponents=True)]
        words += [concatenated_power(u, n) for n in range(4)] + list(_moves(raw))
        words += minimal_representatives(u, cap=500)
        built += len(words) - 6
        for word in words:
            _assert_same_as_checked(word, canonical=False)
        differences.clear()
        check_representative_independence(u, cap=500)
        for difference in differences:
            _assert_same_as_checked(difference, canonical=False)
        compared += len(differences)
    assert built > 500 and compared > 1000, (built, compared)


def test_component_words_equal_checked_words():
    graph = DefiningGraph.from_data("xyuv", F2XF2_EDGES)
    realization = build_standard_realization(graph)
    rng = random.Random(31)
    two = 0
    for _ in range(60):
        components = classify(random_word(rng, graph, 12), realization).components
        if len(components) == 2:
            two += 1
            for component in components:
                _assert_same_as_checked(component.word, canonical=False)
    assert two > 30


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
