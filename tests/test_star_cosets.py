"""Subgroup membership and star-coset equality read the free reduction.

``in_special_subgroup`` and ``MappedSubsurface.equivalent`` are compared
with the versions that read normal forms (``reference_in_special_subgroup``
and ``reference_equivalent`` in ``helpers``) on seeded corpora: zero
exponents, canonical and empty words, words whose raw syllables leave the
subgroup while their element does not, mismatched graphs and unknown
vertices.  ``check_representative_independence`` is compared with its
multiplying version, on true maps and on corrupted ones."""

import json
import os
import random
import subprocess
import sys

import pytest

import raagmcg
import raagmcg.subsurface_map as subsurface_map
from raagmcg import (
    CheckResult,
    DefiningGraph,
    GraphMismatch,
    MappedSubsurface,
    Syllable,
    UnknownVertex,
    Word,
    check_representative_independence,
    empty_word,
    in_special_subgroup,
    minimal_representatives,
    multiply,
    normalize,
    parse_word,
    syllable_subsurface_map,
    word_from_pairs,
)
from conftest import random_graph, random_word
from helpers import _ids, reference_equivalent, reference_in_special_subgroup

EXPONENTS = (-2, -1, 0, 1, 2)


def outcome(call):
    """The result of a call, or the type and message of its error."""
    try:
        return call()
    except (GraphMismatch, UnknownVertex) as err:
        return type(err), str(err)


def hidden_detour(rng, word):
    """The same element as ``word`` with g^a ... g^-a wrapped around a run
    of syllables commuting with a random g: the raw syllables use g, the
    element need not."""
    graph = word.graph
    pairs = [(s.generator, s.exponent) for s in word.syllables]
    g, a = rng.choice(graph.vertices), rng.choice((-2, -1, 1, 2))
    i = rng.randint(0, len(pairs))
    j = i
    while j < len(pairs) and graph.commute(g, pairs[j][0]) and rng.random() < 0.7:
        j += 1
    return word_from_pairs(graph, pairs[:i] + [(g, a)] + pairs[i:j] + [(g, -a)] + pairs[j:])


def subgroup_corpus(seed, count):
    """(word, generators) cases: words over a subset, hidden detours of
    them, their normal forms, arbitrary words and empty words."""
    rng = random.Random(seed)
    cases = []
    for _ in range(count):
        graph = random_graph(rng, max_vertices=7)
        subset = rng.sample(graph.vertices, rng.randint(0, len(graph.vertices)))
        inside = random_word(rng, graph, 6, exponents=EXPONENTS, generators=subset or None)
        for word in (
            inside,
            hidden_detour(rng, inside),
            normalize(hidden_detour(rng, inside)),
            random_word(rng, graph, 8, exponents=EXPONENTS),
            empty_word(graph),
            normalize(empty_word(graph)),
        ):
            cases.append((word, subset))
    return cases


def test_subgroup_matches_the_normal_form_reference_on_seeded_words():
    answers = set()
    for word, subset in subgroup_corpus(61, 250):
        got = in_special_subgroup(word, subset)
        assert got == reference_in_special_subgroup(word, subset), (word, subset)
        answers.add(got)
    assert answers == {True, False}


def test_subgroup_reads_the_reduced_word_not_the_raw_one():
    graph = DefiningGraph.from_data("abc", [("a", "b")])
    assert in_special_subgroup(parse_word("a b a^-1", graph), ["b"])
    assert in_special_subgroup(parse_word("a^0 b", graph, keep_zero_exponents=True), "b")
    assert not in_special_subgroup(parse_word("a c a^-1", graph), ["c"])
    canonical = normalize(parse_word("b a", graph))
    assert in_special_subgroup(canonical, "ab") and not in_special_subgroup(canonical, "b")


def test_subgroup_accepts_any_iterable_once():
    graph = DefiningGraph.from_data("abc", [("a", "b")])
    word = parse_word("b a b^-1", graph)
    assert in_special_subgroup(word, (v for v in "ac"))
    assert not in_special_subgroup(word, iter(["b", "c"]))


def test_subgroup_names_the_first_unknown_generator_in_the_order_given():
    rng = random.Random(67)
    for _ in range(200):
        graph = random_graph(rng)
        word = random_word(rng, graph, 5, exponents=EXPONENTS)
        names = list(graph.vertices) + [f"x{i}" for i in range(4)]
        given = rng.sample(names, rng.randint(1, len(names)))
        unknown = [v for v in given if v not in graph.index]
        if not unknown:
            assert outcome(lambda: in_special_subgroup(word, given)) == outcome(
                lambda: reference_in_special_subgroup(word, given))
            continue
        with pytest.raises(UnknownVertex) as caught:
            in_special_subgroup(word, given)
        assert caught.value.details == {"label": unknown[0]}
        assert str(caught.value) == f"unknown vertex {unknown[0]!r}"
        if len(unknown) == 1:
            assert outcome(lambda: in_special_subgroup(word, given)) == outcome(
                lambda: reference_in_special_subgroup(word, given))


UNKNOWN_ORDER_CHILD = """
import json
from raagmcg import DefiningGraph, UnknownVertex, empty_word, in_special_subgroup
graph = DefiningGraph.from_data(["a", "b"], [])
try:
    in_special_subgroup(empty_word(graph), ["a", "zz", "yy", "xx", "ww"])
except UnknownVertex as err:
    print(json.dumps(err.details["label"]))
"""


def test_subgroup_unknown_generator_does_not_depend_on_the_hash_seed():
    src = os.path.dirname(os.path.dirname(os.path.abspath(raagmcg.__file__)))
    seen = set()
    for seed in range(6):
        env = dict(os.environ, PYTHONPATH=src, PYTHONHASHSEED=str(seed))
        out = subprocess.run([sys.executable, "-c", UNKNOWN_ORDER_CHILD], env=env,
                             capture_output=True, text=True, check=True).stdout
        seen.add(json.loads(out))
    assert seen == {"zz"}


def coset_corpus(seed, count):
    """(first, second) pairs of values over one graph: prefixes that
    differ by a star word, by an arbitrary word, or not at all, given
    raw, canonical or empty, on equal or random bases."""
    rng = random.Random(seed)
    cases = []
    for _ in range(count):
        graph = random_graph(rng, max_vertices=7)
        base = rng.choice(graph.vertices)
        prefix = random_word(rng, graph, 6, exponents=EXPONENTS)
        star = sorted(graph.star(base))
        in_star = random_word(rng, graph, 3, exponents=EXPONENTS, generators=star)
        shifted = Word(prefix.syllables + in_star.syllables, graph)
        for first, second in (
            (prefix, shifted),
            (normalize(shifted), hidden_detour(rng, prefix)),
            (prefix, multiply(prefix, random_word(rng, graph, 3, exponents=EXPONENTS))),
            (prefix, prefix),
            (empty_word(graph), in_star),
            (random_word(rng, graph, 6, exponents=EXPONENTS), empty_word(graph)),
        ):
            other_base = base if rng.random() < 0.8 else rng.choice(graph.vertices)
            cases.append((MappedSubsurface(first, base), MappedSubsurface(second, other_base)))
    return cases


def test_equivalent_matches_the_multiplying_reference_on_seeded_values():
    answers = set()
    for first, second in coset_corpus(71, 250):
        for a, b in ((first, second), (second, first)):
            got = a.equivalent(b)
            assert got == reference_equivalent(a, b), (a, b)
            answers.add(got)
    assert answers == {True, False}


def test_equivalent_inverts_the_first_prefix():
    graph = DefiningGraph.from_data("abc", [("a", "b")])
    a = parse_word("a", graph)
    assert MappedSubsurface(a, "c").equivalent(MappedSubsurface(a, "c"))
    assert MappedSubsurface(parse_word("a c", graph), "b").equivalent(
        MappedSubsurface(parse_word("a c b^3", graph), "b"))
    # (a c)^-1 (c a) = c^-1 a^-1 c a, not the identity: the syllables are reversed.
    assert not MappedSubsurface(parse_word("a c", graph), "b").equivalent(
        MappedSubsurface(parse_word("c a", graph), "b"))


def test_equivalent_raises_what_the_reference_raises():
    one = DefiningGraph.from_data("ab", [("a", "b")])
    two = DefiningGraph.from_data("abc", [])
    cases = [
        # Different graphs: GraphMismatch before the star lookup, even when
        # the base is a vertex of neither.
        (MappedSubsurface(parse_word("a", one), "a"), MappedSubsurface(parse_word("a", two), "a")),
        (MappedSubsurface(empty_word(one), "zz"), MappedSubsurface(empty_word(two), "zz")),
        # Different bases: unequal, whatever the graphs.
        (MappedSubsurface(empty_word(one), "a"), MappedSubsurface(empty_word(two), "b")),
        # One graph, an unknown base: the star lookup names it.
        (MappedSubsurface(parse_word("b", one), "zz"), MappedSubsurface(empty_word(one), "zz")),
    ]
    expected = [
        (GraphMismatch, "words live over different defining graphs"),
        (GraphMismatch, "words live over different defining graphs"),
        False,
        (UnknownVertex, "unknown vertex 'zz'"),
    ]
    for (first, second), want in zip(cases, expected):
        assert outcome(lambda: first.equivalent(second)) == want
        assert outcome(lambda: reference_equivalent(first, second)) == want


def multiplying_representative_independence(word, reference):
    """``check_representative_independence`` as it multiplied out each
    prefix, one syllable at a time, against the given values."""
    for rep in minimal_representatives(word):
        prefix = empty_word(word.graph)
        for sid, syllable in zip(_ids(rep), rep.syllables):
            value = MappedSubsurface(prefix, syllable.generator)
            if not reference_equivalent(value, reference[sid]):
                return CheckResult(
                    False, f"syllable {sid.label()} gets a different subsurface in {rep}")
            prefix = multiply(prefix, Word((syllable,), word.graph))
    return CheckResult(True)


def corrupted(assignment, rng):
    """The map with one value's prefix multiplied by a random syllable."""
    sid = rng.choice(list(assignment))
    value = assignment[sid]
    graph = value.prefix.graph
    extra = Word((Syllable(rng.choice(graph.vertices), rng.choice((-1, 1))),), graph)
    return {**assignment, sid: MappedSubsurface(multiply(value.prefix, extra), value.base_vertex)}


def test_representative_independence_matches_the_multiplying_check(monkeypatch, pentagon):
    rng = random.Random(73)
    graphs = [pentagon] + [random_graph(rng, max_vertices=6) for _ in range(8)]
    details = set()
    for trial in range(160):
        graph = graphs[trial % len(graphs)]
        word = random_word(rng, graph, 6, exponents=EXPONENTS)
        assignment = syllable_subsurface_map(word)
        assert check_representative_independence(word) == CheckResult(True)
        assert multiplying_representative_independence(word, assignment) == CheckResult(True)
        if not assignment:
            continue
        bad = corrupted(assignment, rng)
        monkeypatch.setattr(subsurface_map, "syllable_subsurface_map", lambda _: bad)
        got = check_representative_independence(word)
        monkeypatch.undo()
        assert got == multiplying_representative_independence(word, bad)
        details.add(got.ok)
    assert details == {True, False}
