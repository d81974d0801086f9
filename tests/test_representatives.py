"""The heap walk of ``minimal_representatives`` against a worklist closure
under move-(3) swaps: the same words in the same order, and
``CapExceeded`` exactly when the count passes the cap.  The walk itself,
``linear_extensions``, is also run on the live syllables left after
dropping a down-set, with a limit."""

import random

import pytest

from raagmcg import (
    CapExceeded, DefiningGraph, Word, empty_word, minimal_representatives, normalize, parse_word,
    word_from_pairs,
)
from raagmcg.words import heap_masks, linear_extensions
from conftest import random_graph, random_word
from helpers import swap_closure_representatives


def _check_against_closure(word):
    expected = swap_closure_representatives(word)
    count = len(expected)
    assert minimal_representatives(word) == expected, word
    for cap in sorted({1, count - 1, count, count + 1}):
        if count > max(cap, 1):
            with pytest.raises(CapExceeded) as err:
                minimal_representatives(word, cap)
            assert (err.value.message, err.value.details) == (
                f"more than {cap} minimal representatives", {"cap": cap}
            ), (word, cap)
        else:
            assert minimal_representatives(word, cap) == expected, (word, cap)
    return count


def test_heap_walk_matches_swap_closure_on_random_words():
    rng = random.Random(20261023)
    counts = []
    for _ in range(300):
        graph = random_graph(rng, max_vertices=7, edge_probability=rng.choice((0.5, 0.8)))
        counts.append(_check_against_closure(empty_word(graph)))
        for _ in range(3):
            counts.append(_check_against_closure(random_word(rng, graph, 12)))
    # Half the words have several representatives, some of them thousands.
    assert sum(count > 1 for count in counts) > 500 and max(counts) > 1000


def test_representatives_share_the_normal_form_syllables(pentagon):
    canonical = normalize(parse_word("a b c a^2 d e b", pentagon))
    reps = minimal_representatives(canonical)
    assert len(reps) > 1
    own = {id(s) for s in canonical.syllables}
    assert all(id(s) in own for rep in reps for s in rep.syllables)


def test_long_pentagon_power_has_one_representative(pentagon):
    # 2,000 syllables: the walk keeps its own stack, so no recursion limit.
    word = parse_word("a c e b d " * 400, pentagon)
    reps = minimal_representatives(word)
    assert reps == [Word(word.syllables, pentagon)]


@pytest.mark.parametrize("n, count", [(3, 924), (4, 12_870)])
def test_interleaving_walk_matches_swap_closure(n, count):
    # (x y)^n (u v)^n in F2 x F2: C(4n, 2n) words, and a ready set of two
    # generators at almost every depth.
    graph = DefiningGraph.from_data("xyuv", [("x", "u"), ("x", "v"), ("y", "u"), ("y", "v")])
    word = word_from_pairs(graph, [("x", 1), ("y", 1)] * n + [("u", 1), ("v", 1)] * n)
    reps = minimal_representatives(word)
    assert len(reps) == count
    assert reps == swap_closure_representatives(word)


def _drop_down_set(rng, below, k, canonical_prefix):
    # The positions left after dropping a prefix of a linear extension, a
    # down-set of the heap: of the canonical order, or of one built by
    # placing a random ready syllable at each step.
    order, placed = [], 0
    while len(order) < k:
        ready = [p for p in range(k) if not placed >> p & 1 and below[p] & ~placed == 0]
        p = ready[0] if canonical_prefix else rng.choice(ready)
        order.append(p)
        placed |= 1 << p
    dropped = set(order[:rng.randint(0, k)])
    return [p for p in range(k) if p not in dropped]


def test_walk_on_the_syllables_left_after_a_down_set_matches_swap_closure():
    # The masks read on the positions left are the heap of the word those
    # syllables spell, so the walk lists that word's minimal words, the
    # first ``limit`` of them.
    rng = random.Random(20261024)
    proper = counts = 0
    for _ in range(300):
        graph = random_graph(rng, max_vertices=7, edge_probability=rng.choice((0.5, 0.8)))
        canonical = normalize(random_word(rng, graph, 16, min_syllables=8))
        syllables, below = canonical.syllables, heap_masks(canonical)
        for canonical_prefix in (True, False):
            positions = _drop_down_set(rng, below, len(syllables), canonical_prefix)
            left = Word(tuple(syllables[p] for p in positions), graph)
            expected = [rep.syllables for rep in swap_closure_representatives(left)]
            for limit in (1, 2, len(expected) + 1):
                paths = linear_extensions(syllables, positions, below, graph, limit)
                assert [tuple(syllables[p] for p in path) for path in paths] == expected[:limit]
            proper += 0 < len(positions) < len(syllables)
            counts += len(expected) > 2
    # Most cuts are proper, and many leave more than two orders, so a limit
    # of 2 cuts the list short.
    assert proper > 300 and counts > 150
