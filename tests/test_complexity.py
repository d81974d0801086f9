"""Complexity guards: traced line events of each linear layer at about 240
and about 940 canonical syllables.

A line event count (``sys.settrace``) is deterministic for a given Python
version, and its ratio between two sizes tells linear work from
quadratic: each layer here reads about ×4 for ×4 syllables, and one made
quadratic reads about ×16.  A guard fails above ×6, which leaves room on
both sides and holds on every Python version, whose counts differ.

The words are random syllables over the 40-vertex graph on which half of
all vertex pairs are edges (the ``random-long`` graph of seed 1), with
exponents ±1 and ±2.  Each input is built before the traced call, so a
quadratic normal form does not hide inside a linear layer's count;
``power_shift_map`` gets the word's cyclic reduction, built the same way.
``normalize`` itself is still quadratic and has no guard here.

``minimal_representatives`` is guarded per representative, on
``(x y)^n u`` in F2×F2 at n = 15 and 60: 31 and 121 syllables, and as
many representatives, since ``u`` may stand at any position.  Each
representative is one root-to-leaf walk of the depth-first search, so
its share of the line events grows with the word's length, not faster.
"""

import random
import sys
from functools import partial

import pytest

from raagmcg import (
    DefiningGraph, check_order_embedding, cyclically_reduce, default_constants,
    in_special_subgroup, is_minimal, make_certificate, minimal_representatives, normalize,
    parse_word, power_shift_map, syllable_order, syllable_subsurface_map, word_from_pairs,
)
from raagmcg.words import heap_masks

SIZES = (250, 1000)  # syllables in; 239 and 948 canonical syllables out
MAX_RATIO = 6


def _graph():
    rng = random.Random("graph-1")
    names = [f"v{i}" for i in range(40)]
    pairs = [(a, b) for i, a in enumerate(names) for b in names[i + 1:]]
    return DefiningGraph.from_data(names, sorted(rng.sample(pairs, len(pairs) // 2)))


def _canonical(graph, k):
    rng = random.Random(11)
    pairs = [(rng.choice(graph.vertices), rng.choice((-2, -1, 1, 2))) for _ in range(k)]
    return normalize(word_from_pairs(graph, pairs))


def line_events(call) -> int:
    """The line events of every frame that ``call()`` runs.  The tracer
    that was set before, such as a coverage run's, is set again after."""
    count = 0

    def tracer(frame, event, arg):
        nonlocal count
        if event == "line":
            count += 1
        return tracer

    previous = sys.gettrace()
    sys.settrace(tracer)
    try:
        call()
    finally:
        sys.settrace(previous)
    return count


# Each layer maps a canonical word to the call whose line events count;
# what the call needs besides the word is built here, untraced.
LAYERS = {
    "heap_masks": lambda word: lambda: heap_masks(word),
    "covering_pairs": lambda word: syllable_order(word).covering_pairs,
    "check_order_embedding": lambda word: lambda: check_order_embedding(word),
    "syllable_subsurface_map": lambda word: lambda: syllable_subsurface_map(word),
    "Certificate.to_json_dict":
        lambda word: make_certificate(word, default_constants(word.graph)).to_json_dict,
    # A canonical word reduces no further, and every generator is allowed,
    # so the whole free reduction is read.
    "in_special_subgroup":
        lambda word: lambda: in_special_subgroup(word, word.graph.vertices),
    # A conjugate of least syllable count, whose support is connected in
    # the complement graph; the square's canonical order is read off.
    "power_shift_map":
        lambda word: partial(power_shift_map, cyclically_reduce(word)[0], 2, 3),
    "parse_word": lambda word: partial(parse_word, str(word), word.graph),
    "str(Word)": lambda word: partial(str, word),
    "SyllableOrder.to_json_dict": lambda word: syllable_order(word).to_json_dict,
    "is_minimal": lambda word: partial(is_minimal, word),
    # Both words are cyclically reduced already: a round tries every
    # candidate, and none lowers the count.
    "cyclically_reduce": lambda word: partial(cyclically_reduce, word),
}


@pytest.fixture(scope="module")
def words():
    graph = _graph()
    return [_canonical(graph, k) for k in SIZES]


@pytest.mark.parametrize("layer", LAYERS)
def test_layer_is_linear_in_line_events(words, layer):
    small, large = (line_events(LAYERS[layer](word)) for word in words)
    assert large <= MAX_RATIO * small, (layer, small, large, large / small)


def test_minimal_representatives_is_linear_per_representative():
    graph = DefiningGraph.from_data("xyuv", [("x", "u"), ("x", "v"), ("y", "u"), ("y", "v")])
    per_representative = []
    for n in (15, 60):
        word = normalize(word_from_pairs(graph, [(g, 1) for g in "xy" * n] + [("u", 1)]))
        reps = []
        events = line_events(lambda: reps.extend(minimal_representatives(word)))
        assert len(reps) == len(word.syllables) == 2 * n + 1
        per_representative.append(events / len(reps))
    small, large = per_representative
    assert large <= MAX_RATIO * small, (small, large, large / small)
