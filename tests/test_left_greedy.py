"""The greedy pass of the normal form against ``reference_left_greedy``,
the pass that scanned the commutation matrix: both pick the same
syllables on seeded words over random small graphs and over a
40-vertex graph holding half of all possible edges."""

import random

from raagmcg import DefiningGraph, normalize
from raagmcg.words import _encode, _minimal_pairs

from conftest import random_graph, random_word
from helpers import reference_left_greedy


def reference_normal_form(word):
    comm = word.graph.commutation_matrix
    return reference_left_greedy(_minimal_pairs(_encode(word), comm), comm)


def half_dense_graph(rng: random.Random, n: int) -> DefiningGraph:
    vertices = [f"v{i}" for i in range(n)]
    pairs = [(vertices[i], vertices[j]) for i in range(n) for j in range(i + 1, n)]
    return DefiningGraph.from_data(vertices, rng.sample(pairs, len(pairs) // 2))


def test_greedy_pass_matches_reference_on_small_graphs():
    rng = random.Random(1969)
    for _ in range(300):
        graph = random_graph(rng, max_vertices=9)
        for _ in range(10):
            word = random_word(rng, graph, 30)
            assert _encode(normalize(word)) == reference_normal_form(word)


def test_greedy_pass_matches_reference_on_long_words():
    rng = random.Random(1979)
    graph = half_dense_graph(rng, 40)
    for _ in range(24):
        word = random_word(rng, graph, 300)
        assert _encode(normalize(word)) == reference_normal_form(word)
