"""The dependence poset (heap) behind the syllable order, cyclic reduction
and the order-embedding check, compared with the exhaustive enumeration
of minimal representatives it replaced (and, for cyclic reduction on
longer words, with trial conjugation), and the down-set reading of the
subsurface values compared with their word arithmetic.  ``heap_masks``
is read on minimal words that are not canonical too: every word of the
swap closure, and the concatenated powers that ``verify`` reads."""

import random

from raagmcg import (
    DefiningGraph,
    MappedSubsurface,
    Word,
    build_standard_realization,
    check_order_embedding,
    SyllableId,
    classify,
    concatenated_power,
    cyclically_reduce,
    invert,
    is_cyclically_reduced,
    normalize,
    parse_word,
    power,
    syllable_order,
    syllable_subsurface_map,
)
from raagmcg.words import heap_masks
from conftest import random_graph, random_word
from helpers import (
    enumerated_cyclic_reduction,
    enumerated_is_cyclically_reduced,
    enumerated_order,
    enumerated_order_embedding,
    positional_ids,
    probed_covering_pairs,
    swap_closure_representatives,
    trial_cyclic_reduction,
    trial_is_cyclically_reduced,
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


def _heap_pairs(word):
    # The heap of a minimal word as (lower, upper) pairs of occurrence ids.
    ids = [SyllableId(*t) for t in positional_ids(
        (s.generator, s.exponent) for s in word.syllables
    )]
    return frozenset(
        (ids[i], ids[j]) for j, mask in enumerate(heap_masks(word))
        for i in range(j) if mask >> i & 1
    )


def test_heap_of_every_minimal_word_is_the_order():
    rng = random.Random(20261022)
    compared = 0
    while compared < 2000:
        graph = random_graph(rng, max_vertices=7)
        word = random_word(rng, graph, 9)
        _, precedes = enumerated_order(word)
        for rep in swap_closure_representatives(word):
            assert _heap_pairs(rep) == precedes, rep
            compared += 1


def test_heap_of_a_concatenated_power_is_the_powers_order():
    # A reduced word whose support is connected in the complement graph
    # has minimal powers, and its concatenations are minimal words.
    rng = random.Random(20261023)
    compared = 0
    while compared < 300:
        graph = random_graph(rng, max_vertices=7)
        reduced, _ = cyclically_reduce(random_word(rng, graph, 8))
        support = list(reduced.support())
        if len(support) < 2 or len(graph.complement().components(support)) != 1:
            continue
        for n in range(1, 5):
            assert _heap_pairs(concatenated_power(reduced, n)) == (
                syllable_order(power(reduced, n)).precedes
            ), (reduced, n)
        compared += 1


def test_heap_reduction_matches_trial_conjugation_on_long_words():
    # Conjugates u c u^-1 of up to 49 syllables, beyond the reach of the
    # enumeration above, against multiplying out every candidate.
    rng = random.Random(20261021)
    shortened = 0
    for _ in range(200):
        graph = random_graph(rng, max_vertices=10)
        for _ in range(5):
            u = random_word(rng, graph, 12)
            c = random_word(rng, graph, 25)
            word = Word(u.syllables + c.syllables + invert(u).syllables, graph)
            reduced, conjugator = cyclically_reduce(word)
            assert (reduced, conjugator) == trial_cyclic_reduction(word), word
            assert is_cyclically_reduced(word) == trial_is_cyclically_reduced(word), word
            shortened += len(reduced.syllables) < len(normalize(word).syllables)
    assert shortened > 500


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


def _down_set_masks(word):
    # Bit i of masks[j] is set when syllable i precedes syllable j.
    order = syllable_order(word)
    position = {sid: p for p, sid in enumerate(order.elements)}
    masks = [0] * len(order.elements)
    for s, t in order.precedes:
        masks[position[t]] |= 1 << position[s]
    return masks


def test_star_coset_equality_is_read_off_down_sets():
    rng = random.Random(20261019)
    outcomes = []
    for _ in range(400):
        graph = random_graph(rng, max_vertices=7)
        word = normalize(random_word(rng, graph, 14))
        syllables = word.syllables
        below = _down_set_masks(word)

        def down_set():
            density = rng.random()
            mask = 0
            for p in range(len(syllables)):
                if rng.random() < density:
                    mask |= 1 << p | below[p]
            return mask

        def word_on(mask):
            return Word(tuple(s for p, s in enumerate(syllables) if mask >> p & 1), graph)

        for _ in range(5):
            d, p, v = down_set(), down_set(), rng.choice(graph.vertices)
            star = graph.star(v)
            expected = all(
                s.generator in star for q, s in enumerate(syllables) if (d ^ p) >> q & 1
            )
            equal = MappedSubsurface(word_on(d), v).equivalent(MappedSubsurface(word_on(p), v))
            assert equal == expected, (word, d, p, v)
            outcomes.append(equal)
    assert 0.2 < sum(outcomes) / len(outcomes) < 0.8


def test_subsurface_prefixes_are_normal_forms():
    rng = random.Random(20261020)
    for _ in range(300):
        graph = random_graph(rng, max_vertices=7)
        word = random_word(rng, graph, 16)
        canonical = normalize(word)
        prefixes = [str(value.prefix) for value in syllable_subsurface_map(word).values()]
        assert prefixes == [
            str(normalize(Word(canonical.syllables[:i], graph)))
            for i in range(len(canonical.syllables))
        ], word


def test_order_embedding_long_commuting_interleaving():
    graph = DefiningGraph.from_data(
        "xyuv", [("x", "u"), ("x", "v"), ("y", "u"), ("y", "v")]
    )
    word = parse_word("x y " * 50 + "u v " * 50, graph)
    assert check_order_embedding(word).ok
