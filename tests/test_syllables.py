import random
from collections import Counter

import pytest

from raagmcg import (
    DefiningGraph,
    NotCyclicallyReduced,
    ShiftMapUndefined,
    SyllableId,
    concatenated_power,
    cyclically_reduce,
    equal_elements,
    invert,
    is_cyclically_reduced,
    minimal_representatives,
    multiply,
    normalize,
    parse_word,
    power,
    power_shift_map,
    syllable_ids,
    syllable_order,
    word_from_pairs,
)
from conftest import random_graph, random_word
from helpers import conjugacy_oracle_min_syllables, reference_covering_pairs


def w(text, graph):
    return parse_word(text, graph)


# -- syllable identities -------------------------------------------------------


def test_syllable_ids_positions(pentagon):
    assert syllable_ids(w("a c a", pentagon)) == (
        SyllableId("a", 1, 1), SyllableId("c", 1, 1), SyllableId("a", 1, 2),
    )
    assert syllable_ids(w("", pentagon)) == ()
    assert syllable_ids(w("a^2 c", pentagon)) == (
        SyllableId("a", 2, 1), SyllableId("c", 1, 1),
    )


def test_equal_syllables_keep_relative_order(pentagon):
    # Same-generator same-exponent syllables never cross in any minimal
    # representative.
    rng = random.Random(17)
    for _ in range(100):
        word = normalize(random_word(rng, pentagon, 6))
        for rep in minimal_representatives(word):
            counts = {}
            for s in rep.syllables:
                key = (s.generator, s.exponent)
                counts[key] = counts.get(key, 0) + 1
            # occurrence ranks are assigned left to right, so they are
            # increasing by construction; the real content is checked in
            # the order tests, here we just confirm multiset stability
            base = {}
            for s in word.syllables:
                key = (s.generator, s.exponent)
                base[key] = base.get(key, 0) + 1
            assert counts == base


# -- the partial order ----------------------------------------------------------


def test_order_commuting_pair_incomparable(pentagon):
    order = syllable_order(w("a b", pentagon))
    assert order.precedes == frozenset()


def test_order_blocked_pair_comparable(pentagon):
    order = syllable_order(w("a c", pentagon))
    assert order.precedes == {
        (SyllableId("a", 1, 1), SyllableId("c", 1, 1)),
    }


def test_order_three_letter_word(pentagon):
    # Min(a b c) = {abc, acb, bac}: b and c swap in acb, a and b swap in
    # bac, so the only surviving relation is a before c.
    reps = {str(x) for x in minimal_representatives(w("a b c", pentagon))}
    assert reps == {"a b c", "a c b", "b a c"}
    order = syllable_order(w("a b c", pentagon))
    assert order.precedes == {
        (SyllableId("a", 1, 1), SyllableId("c", 1, 1)),
    }


def test_order_hasse_covers(pentagon):
    order = syllable_order(w("a c a", pentagon))
    assert order.covering_pairs() == [
        (SyllableId("a", 1, 1), SyllableId("c", 1, 1)),
        (SyllableId("c", 1, 1), SyllableId("a", 1, 2)),
    ]
    dot = order.to_dot()
    assert '"a^1#1" -> "c^1#1";' in dot
    data = order.to_json_dict()
    assert data["elements"] == ["a^1#1", "c^1#1", "a^1#2"]


def _half_dense_graph(rng, n=40):
    # n vertices and exactly half of the vertex pairs as edges.
    names = [f"v{i}" for i in range(n)]
    pairs = [(a, b) for i, a in enumerate(names) for b in names[i + 1:]]
    return DefiningGraph.from_data(names, sorted(rng.sample(pairs, len(pairs) // 2)))


def test_covering_pairs_match_the_mask_reference_on_long_words():
    # Canonical words of 200 to 600 syllables on a 40-vertex graph, where
    # an element has up to 40 predecessors.
    rng = random.Random(20261020)
    graph = _half_dense_graph(rng)
    lengths = []
    for _ in range(6):
        order = syllable_order(random_word(rng, graph, 650, min_syllables=220))
        lengths.append(len(order.elements))
        assert order.covering_pairs() == reference_covering_pairs(order)
    assert min(lengths) >= 200 and max(lengths) <= 600


def test_covering_pairs_match_the_mask_reference_on_interleavings():
    graph = DefiningGraph.from_data("xyuv", [("x", "u"), ("x", "v"), ("y", "u"), ("y", "v")])
    for n in range(51):
        word = word_from_pairs(graph, [("x", 1), ("y", 1)] * n + [("u", 1), ("v", 1)] * n)
        order = syllable_order(word)
        covering = order.covering_pairs()
        assert covering == reference_covering_pairs(order), n
        assert len(covering) == max(4 * n - 2, 0), n


def test_every_minimal_word_extends_the_order(pentagon):
    from raagmcg.syllables import _ids_of_sequence

    rng = random.Random(19)
    for _ in range(100):
        word = normalize(random_word(rng, pentagon, 6))
        order = syllable_order(word)
        reps = minimal_representatives(word)
        sequences = [_ids_of_sequence(rep.syllables) for rep in reps]
        for seq in sequences:
            pos = {sid: i for i, sid in enumerate(seq)}
            for s, t in order.precedes:
                assert pos[s] < pos[t]
        # Maximality: every unordered pair swaps somewhere.
        elements = order.elements
        for i, s in enumerate(elements):
            for t in elements[i + 1:]:
                if order.comparable(s, t):
                    continue
                relative = {
                    seq.index(s) < seq.index(t) for seq in sequences
                }
                assert relative == {True, False}


# -- shift maps -------------------------------------------------------------------


def test_shift_map_blocked_pair(pentagon):
    shift = power_shift_map(w("a c", pentagon), 1, 2)
    assert shift == {
        SyllableId("a", 1, 1): SyllableId("a", 1, 2),
        SyllableId("c", 1, 1): SyllableId("c", 1, 2),
    }
    assert set(shift.values()) <= set(syllable_ids(power(w("a c", pentagon), 2)))


def test_shift_map_rejects_degenerate_range(pentagon):
    with pytest.raises(ValueError):
        power_shift_map(w("a c", pentagon), 2, 2)


@pytest.mark.parametrize("m, n", [(1.5, 2), (1, "x"), (True, 2), (1, 2.0), ("1", 2)])
def test_shift_map_rejects_exponents_that_are_not_integers(pentagon, m, n):
    with pytest.raises(ValueError, match="integers"):
        power_shift_map(w("a c", pentagon), m, n)


def test_shift_map_rejects_single_generator(pentagon):
    with pytest.raises(ShiftMapUndefined):
        power_shift_map(w("a", pentagon), 1, 3)


def test_shift_map_rejects_disconnected_support(pentagon):
    # a, b commute: the square of "a b" collapses to a^2 b^2, so there is
    # no block structure to shift.
    with pytest.raises(ShiftMapUndefined):
        power_shift_map(w("a b", pentagon), 1, 2)


def test_shift_map_rejects_unreduced(pentagon):
    with pytest.raises(NotCyclicallyReduced):
        power_shift_map(w("a c a^-1", pentagon), 1, 2)


def test_shift_map_keys_follow_the_canonical_order_of_the_power():
    # At m >= 2 the concatenation of m copies of w is often not in
    # canonical order: with only a and c commuting, w = a b c is canonical
    # but w^2 is a b a c b c.  The keys must come in the order of
    # syllable_ids(power(w, m)), each value shifted by n - m times the
    # count of its syllable in w.
    rng = random.Random(3)
    checked = reordered = 0
    while checked < 300:
        graph = random_graph(rng, max_vertices=7)
        word = cyclically_reduce(random_word(rng, graph, 10, min_syllables=2))[0]
        if len(word.support()) < 2 or len(
                graph.complement().components(sorted(word.support()))) != 1:
            continue
        counts = Counter((s.generator, s.exponent) for s in word.syllables)
        for m, n in ((2, 3), (3, 5)):
            base = power(word, m)
            expected = [
                (sid, SyllableId(sid.generator, sid.exponent,
                                 sid.occurrence + (n - m) * counts[sid.generator, sid.exponent]))
                for sid in syllable_ids(base)
            ]
            assert list(power_shift_map(word, m, n).items()) == expected, (str(word), m, n)
            reordered += base.syllables != concatenated_power(word, m).syllables
        checked += 1
    assert reordered >= 50, reordered  # so the order is really tested


def test_shift_map_preserves_order(pentagon):
    word = w("a c e", pentagon)
    order1 = syllable_order(word)
    order2 = syllable_order(power(word, 2))
    shift = power_shift_map(word, 1, 2)
    for s, t in order1.precedes:
        assert (shift[s], shift[t]) in order2.precedes


# -- cyclic reduction ----------------------------------------------------------------


def test_cyclic_reduction_visible_conjugation(pentagon):
    reduced, conjugator = cyclically_reduce(w("a c a^-1", pentagon))
    assert str(reduced) == "c"
    assert str(conjugator) == "a"


def test_cyclic_reduction_fixed_point(pentagon):
    reduced, conjugator = cyclically_reduce(w("a c", pentagon))
    assert str(reduced) == "a c"
    assert conjugator.is_empty
    assert conjugacy_oracle_min_syllables(w("a c", pentagon), 2) == 2


def test_cyclic_reduction_through_commuting(pentagon):
    reduced, conjugator = cyclically_reduce(w("b a c b^-1", pentagon))
    assert str(reduced) == "a c"
    assert conjugacy_oracle_min_syllables(w("b a c b^-1", pentagon), 2) == 2


def test_cyclic_reduction_conjugation_identity(pentagon):
    rng = random.Random(23)
    for _ in range(150):
        word = random_word(rng, pentagon, 5)
        reduced, conjugator = cyclically_reduce(word)
        rebuilt = multiply(multiply(conjugator, reduced), invert(conjugator))
        assert equal_elements(rebuilt, word)
        assert is_cyclically_reduced(reduced)


def test_cyclic_reduction_matches_conjugacy_oracle(pentagon):
    rng = random.Random(29)
    for _ in range(40):
        word = random_word(rng, pentagon, 4)
        reduced, _ = cyclically_reduce(word)
        assert len(reduced.syllables) == conjugacy_oracle_min_syllables(word, 3)


def test_cyclic_reduction_matches_conjugacy_oracle_on_random_graphs():
    from conftest import random_graph

    rng = random.Random(31)
    for _ in range(40):
        graph = random_graph(rng, max_vertices=5, edge_probability=rng.uniform(0.1, 0.9))
        word = random_word(rng, graph, 4)
        reduced, _ = cyclically_reduce(word)
        assert len(reduced.syllables) == conjugacy_oracle_min_syllables(word, 3)
