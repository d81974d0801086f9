"""The canonical mark: every word ``normalize``, ``multiply``, ``invert`` and
``power`` build is a normal form, so ``normalize`` returns it as it is.  The
mark is not a field, so it changes no equality, hash or repr, and a word
built any other way goes through the greedy pass."""

import random

from raagmcg import (
    Word, invert, minimal_representatives, multiply, normalize, parse_word, power,
)

from conftest import random_graph, random_word


def test_normal_forms_are_returned_as_they_are(pentagon):
    u = parse_word("a c a^-1 e b^2", pentagon)
    v = parse_word("b d a^3", pentagon)
    built = [normalize(u), multiply(u, v), invert(u)] + [power(u, n) for n in (-2, 0, 1, 2)]
    for x in built:
        assert normalize(x) is x
        copy = Word(x.syllables, x.graph)
        assert normalize(copy) is not copy
        assert copy == x and hash(copy) == hash(x) and repr(copy) == repr(x)


def test_mark_is_not_a_field():
    assert Word.__match_args__ == ("syllables", "graph")


def test_minimal_representatives_normalize_to_the_normal_form(pentagon):
    word = parse_word("a b^2 d a^-1 c e^3 b", pentagon)
    reps = minimal_representatives(word)
    assert len(reps) > 1
    for rep in reps:
        assert normalize(rep) == normalize(word)


def test_greedy_pass_idempotent_on_unmarked_copies():
    rng = random.Random(11)
    for _ in range(60):
        graph = random_graph(rng, max_vertices=7)
        for _ in range(10):
            canonical = normalize(random_word(rng, graph, 12))
            copy = Word(canonical.syllables, graph)
            again = normalize(copy)
            assert again is not copy and again == canonical
