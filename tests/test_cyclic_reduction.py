"""Cyclic reduction edits one heap across its rounds.  In a round where a
moved maximal syllable cancels a minimal partner that is not the first
syllable, it reads the new canonical order off the heap's masks instead
of normalizing the word again.  Checked against multiplying out every
candidate conjugate, on long conjugates made to have many such rounds,
round by round against ``normalize``, and by counting the normal forms
and heap builds of long conjugates."""

import random

import pytest

import raagmcg.syllables as syllables
import raagmcg.words as words
from raagmcg import (
    DefiningGraph,
    Syllable,
    Word,
    cyclically_reduce,
    invert,
    is_cyclically_reduced,
    normalize,
    parse_word,
)
from conftest import random_graph, random_word
from helpers import trial_cyclic_reduction, trial_is_cyclically_reduced


@pytest.fixture()
def rounds(monkeypatch):
    """Counts of reduction rounds, of those that cancel a minimal partner
    other than the first syllable, of normal forms and of heap builds."""
    find_reduction, normalize_pairs, heap = (
        syllables._find_reduction, words._normalize_pairs, syllables.heap_masks
    )
    counts = {"rounds": 0, "renormalizing": 0, "normal forms": 0, "heaps": 0}

    def reduction_round(live):
        move = find_reduction(live)
        if move is not None:
            moved, target = move
            counts["rounds"] += 1
            counts["renormalizing"] += (
                moved != live.order[0]
                and live.syllables[moved].exponent + live.syllables[target].exponent == 0
            )
        return move

    def normal_form(*args):
        counts["normal forms"] += 1
        return normalize_pairs(*args)

    def heap_build(word):
        counts["heaps"] += 1
        return heap(word)

    monkeypatch.setattr(syllables, "_find_reduction", reduction_round)
    monkeypatch.setattr(words, "_normalize_pairs", normal_form)
    monkeypatch.setattr(syllables, "heap_masks", heap_build)
    return counts


def complement_walk(rng, graph, start, length):
    # Neighbours in the walk neither commute nor share a generator, so
    # nothing in it merges or moves past its neighbours.
    vertex, walk = start, []
    for _ in range(length):
        walk.append(Syllable(vertex, rng.choice((-2, -1, 1, 2))))
        vertex = rng.choice([v for v in graph.vertices if not graph.commute(vertex, v)])
    return walk


def conjugates(rng, count, length, max_vertices, u_length=4):
    """u w u^-1 with w a complement walk from the first vertex v and u a
    word over the neighbours of v: v moves ahead of u in the normal form,
    so the syllables of u^-1 cancel minimal partners behind it."""
    found = []
    while len(found) < count:
        graph = random_graph(rng, max_vertices=max_vertices)
        first = graph.vertices[0]
        star = sorted(graph.neighbors[first], key=graph.index.get)
        if not star or all(graph.commute(first, v) for v in graph.vertices):
            continue
        walk = complement_walk(rng, graph, first, rng.randint(length // 2, length))
        u = random_word(rng, graph, u_length, min_syllables=1, generators=star)
        found.append(Word(u.syllables + tuple(walk) + invert(u).syllables, graph))
    return found


@pytest.mark.parametrize("edges, text, reduced, conjugator", [
    # On the path a - b - c, moving c^-1 to the front cancels c and leaves
    # b a, whose normal form a b starts with another syllable.
    ("ab bc", "b c a c^-1", "a b", "c"),
    # d commutes with all but b: cancelling d lets b pass c, so a partner
    # behind two syllables changes the normal form at position 1.
    ("ab ac bc ad cd", "a c d b d^-1", "a b c", "d"),
])
def test_cancelled_minimal_partner_changes_the_normal_form(edges, text, reduced, conjugator):
    graph = DefiningGraph.from_data(sorted(set(edges) - {" "}), edges.split())
    word = parse_word(text, graph)
    assert normalize(word) == word
    result = cyclically_reduce(word)
    assert tuple(map(str, result)) == (reduced, conjugator)
    assert result == trial_cyclic_reduction(word)
    assert not is_cyclically_reduced(word) and is_cyclically_reduced(result[0])


def random_conjugates(rng, count):
    # Dense graphs, where the greedy pass reorders most of the word.
    found = []
    for _ in range(count):
        graph = random_graph(rng, max_vertices=7, edge_probability=0.75)
        u = random_word(rng, graph, 8, min_syllables=1)
        w = random_word(rng, graph, 40, min_syllables=20)
        found.append(Word(u.syllables + w.syllables + invert(u).syllables, graph))
    return found


def test_live_heap_matches_trial_conjugation_on_long_conjugates(rounds, pentagon):
    rng = random.Random(20261022)
    corpus = random_conjugates(rng, 40) + conjugates(rng, 30, 40, max_vertices=6)
    # A 300-syllable walk from a, conjugated by a walk of b and e, which
    # commute with a: each of the six rounds cancels a minimal partner
    # behind a.
    u = Word(tuple(Syllable("be"[i % 2], rng.choice((-2, -1, 1, 2))) for i in range(6)), pentagon)
    walk = complement_walk(rng, pentagon, "a", 300)
    corpus.append(Word(u.syllables + tuple(walk) + invert(u).syllables, pentagon))
    for word in corpus:
        reduced, conjugator = cyclically_reduce(word)
        assert (reduced, conjugator) == trial_cyclic_reduction(word), word
        assert is_cyclically_reduced(word) == trial_is_cyclically_reduced(word), word
        assert normalize(reduced) is reduced
    assert rounds["renormalizing"] >= 40
    assert rounds["rounds"] - rounds["renormalizing"] >= 40


def test_long_conjugate_costs_normal_forms_only_for_cancelled_minimal_partners(
    rounds, pentagon
):
    # u (a c e b d) u^-1 with u a 300-syllable walk of the pentagon's
    # complement cycle, built without a normal form: about one round per
    # syllable of u.
    rng = random.Random(20261023)
    u = complement_walk(rng, pentagon, "a", 300)
    u_inverse = [Syllable(s.generator, -s.exponent) for s in reversed(u)]
    word = Word(tuple(u + [Syllable(v, 1) for v in "acebd"] + u_inverse), pentagon)
    reduced, _ = cyclically_reduce(word)
    assert len(reduced) == 5 and rounds["rounds"] >= 290
    assert rounds["normal forms"] <= 2 + rounds["renormalizing"]
    assert rounds["heaps"] <= 1 + rounds["renormalizing"]


@pytest.fixture()
def reorders(monkeypatch):
    """Check every reordering round against ``normalize``: the live
    syllables, put back in order off the masks, must be the normal form
    of the word they spelled before.  Returns the count of rounds."""
    reorder, checked = syllables._LiveHeap.reorder, []

    def checked_reorder(live):
        before = Word(live.remaining(), live.graph)
        reorder(live)
        assert live.remaining() == normalize(before).syllables, before
        checked.append(before)

    monkeypatch.setattr(syllables._LiveHeap, "reorder", checked_reorder)
    return checked


def renormalizing_family(rng, graph, length):
    """u w u^-1 on the pentagon with u alternating b and e, which commute
    with a but not with each other, and w a 100-syllable complement walk
    from a: nearly every round cancels a minimal partner behind a."""
    u = [Syllable("be"[i % 2], rng.choice((-2, -1, 1, 2))) for i in range(length)]
    walk = complement_walk(rng, graph, "a", 100)
    u_inverse = [Syllable(s.generator, -s.exponent) for s in reversed(u)]
    return Word(tuple(u + walk + u_inverse), graph)


def test_reordered_rounds_match_normalize(reorders, pentagon):
    # The corpora of the tests above, rebuilt from their seeds, and 2,000
    # more conjugates on graphs of up to 9 vertices.
    corpus = [parse_word("b c a c^-1", DefiningGraph.from_data("abc", ["ab", "bc"]))]
    graph = DefiningGraph.from_data("abcd", "ab ac bc ad cd".split())
    corpus.append(parse_word("a c d b d^-1", graph))
    rng = random.Random(20261022)
    corpus += random_conjugates(rng, 40) + conjugates(rng, 30, 40, max_vertices=6)
    u = Word(tuple(Syllable("be"[i % 2], rng.choice((-2, -1, 1, 2))) for i in range(6)), pentagon)
    walk = complement_walk(rng, pentagon, "a", 300)
    corpus.append(Word(u.syllables + tuple(walk) + invert(u).syllables, pentagon))
    rng = random.Random(20261023)
    u = complement_walk(rng, pentagon, "a", 300)
    u_inverse = [Syllable(s.generator, -s.exponent) for s in reversed(u)]
    corpus.append(Word(tuple(u + [Syllable(v, 1) for v in "acebd"] + u_inverse), pentagon))
    corpus += conjugates(random.Random(20261117), 2000, 40, max_vertices=9)
    for word in corpus:
        cyclically_reduce(word)
    assert len(reorders) >= 1000


def test_renormalizing_family_builds_one_heap(rounds, pentagon):
    word = renormalizing_family(random.Random(7), pentagon, 50)
    result = cyclically_reduce(word)
    counts = dict(rounds)
    assert result == trial_cyclic_reduction(word)
    assert counts["renormalizing"] >= 50
    assert (counts["normal forms"], counts["heaps"]) == (2, 1)


def test_long_renormalizing_family_normalizes_twice(rounds, pentagon):
    cyclically_reduce(renormalizing_family(random.Random(7), pentagon, 200))
    assert rounds["renormalizing"] >= 200 and rounds["normal forms"] == 2
