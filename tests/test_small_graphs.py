"""Every graph on 4 vertices up to isomorphism (11 of them) and every word
of at most 3 syllables with exponents -1 and 1 (585 words per graph):
``SyllableOrder.covering_pairs``, which peels the Hasse edges off the heap
masks, and ``cyclically_reduce``, which reads its rounds off the heap it
edits, on every such input.

The references are not independent of the library.
``probed_covering_pairs`` probes the order's own pair set, which
``syllable_order`` reads off the same masks, and ``trial_cyclic_reduction``
multiplies each candidate conjugate out with ``multiply`` and
``normalize``.  So this checks the two walks against the facts they are
read from, at every small input, and not those facts themselves; oracles
that share no code with ``words`` are the next step."""

from itertools import combinations, permutations, product

import pytest

from raagmcg import DefiningGraph, Syllable, Word, cyclically_reduce, syllable_order
from helpers import probed_covering_pairs, trial_cyclic_reduction

VERTICES = "abcd"
SYLLABLES = [Syllable(v, e) for v in VERTICES for e in (-1, 1)]


def graphs_up_to_isomorphism() -> list[DefiningGraph]:
    """One graph per isomorphism class: the first edge set, in the order
    of the bit masks over the 6 pairs, whose relabellings were not seen."""
    pairs = list(combinations(VERTICES, 2))
    relabellings = [dict(zip(VERTICES, p)) for p in permutations(VERTICES)]
    found = {}
    for bits in range(1 << len(pairs)):
        edges = [u + v for i, (u, v) in enumerate(pairs) if bits >> i & 1]
        key = min(
            tuple(sorted("".join(sorted(image[u] + image[v])) for u, v in edges))
            for image in relabellings
        )
        found.setdefault(key, edges)
    return [DefiningGraph.from_data(VERTICES, edges) for edges in found.values()]


GRAPHS = graphs_up_to_isomorphism()
GRAPH_IDS = [" ".join(u + v for u, v in graph.sorted_edges()) or "edgeless" for graph in GRAPHS]


def short_words(graph: DefiningGraph) -> list[Word]:
    return [Word(syllables, graph) for n in range(4) for syllables in product(SYLLABLES, repeat=n)]


def test_the_graphs_are_the_eleven_classes():
    assert len(GRAPHS) == 11
    assert sorted(len(graph.edges) for graph in GRAPHS) == [0, 1, 2, 2, 3, 3, 3, 4, 4, 5, 6]
    assert len(short_words(GRAPHS[0])) == 585


@pytest.mark.parametrize("graph", GRAPHS, ids=GRAPH_IDS)
def test_covering_pairs_match_probing_every_middle_syllable(graph):
    for word in short_words(graph):
        order = syllable_order(word)
        assert order.covering_pairs() == probed_covering_pairs(order.elements, order.precedes), word


@pytest.mark.parametrize("graph", GRAPHS, ids=GRAPH_IDS)
def test_cyclic_reduction_matches_trial_conjugation(graph):
    for word in short_words(graph):
        assert cyclically_reduce(word) == trial_cyclic_reduction(word), word
