"""The dependence poset (heap) behind the syllable order, cyclic reduction
and the order-embedding check, compared with the exhaustive enumeration
of minimal representatives it replaced."""

import random

from raagmcg import (
    DefiningGraph,
    build_standard_realization,
    check_order_embedding,
    classify,
    cyclically_reduce,
    is_cyclically_reduced,
    parse_word,
    syllable_order,
)
from conftest import random_graph, random_word
from helpers import (
    enumerated_cyclic_reduction,
    enumerated_is_cyclically_reduced,
    enumerated_order,
    enumerated_order_embedding,
    probed_covering_pairs,
)


def test_heap_matches_enumeration_on_random_words():
    rng = random.Random(20261018)
    compared = 0
    while compared < 500:
        graph = random_graph(rng, max_vertices=7)
        for _ in range(5):
            word = random_word(rng, graph, 12)
            order = syllable_order(word)
            elements, precedes = enumerated_order(word)
            assert order.elements == elements, word
            assert order.precedes == precedes, word
            assert order.covering_pairs() == probed_covering_pairs(elements, precedes), word
            assert cyclically_reduce(word) == enumerated_cyclic_reduction(word), word
            assert is_cyclically_reduced(word) == enumerated_is_cyclically_reduced(word), word
            assert check_order_embedding(word) == enumerated_order_embedding(word), word
            compared += 1


def test_classify_long_commuting_interleaving():
    # (x y)^50 (u v)^50 has C(200, 100) minimal representatives.
    graph = DefiningGraph.from_data(
        "xyuv", [("x", "u"), ("x", "v"), ("y", "u"), ("y", "v")]
    )
    word = parse_word("x y " * 50 + "u v " * 50, graph)
    report = classify(word, build_standard_realization(graph))
    assert report.overall == "reducible"
    assert len(report.reduced.syllables) == 200
    assert report.conjugator.is_empty
    assert [c.generators for c in report.components] == [("x", "y"), ("u", "v")]
