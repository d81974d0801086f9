"""Each public entry point above ``words`` normalizes its input once and
reads every later fact off that canonical word and its heap.

``_normalize_pairs`` is the one routine behind ``normalize``,
``multiply``, ``invert`` and ``power``, so counting its calls counts every
normal form computed.  Cyclic reduction normalizes once more, for the
conjugator, however many rounds it takes: a round reads the canonical
order of the shorter conjugate off the heap."""

import pytest

import raagmcg.syllables as syllables
import raagmcg.words as words
from raagmcg import (
    MappedSubsurface,
    build_standard_realization,
    check_order_embedding,
    check_representative_independence,
    classify,
    cyclically_reduce,
    default_constants,
    in_special_subgroup,
    make_certificate,
    normalize,
    parse_word,
    syllable_order,
    verify_power_properties,
)

# The pentagon's filling word, and a conjugate u (a c e b d) u^-1 by a walk
# of the complement cycle, which takes three rounds to reduce.
WORDS = ["a c e b d", "d b e a c e b d e^-1 b^-1 d^-1"]


@pytest.fixture()
def counted(monkeypatch):
    """Run a call and return (normal forms computed, reduction rounds)."""
    normalize_pairs, find_reduction = words._normalize_pairs, syllables._find_reduction
    counts = {}

    def normal_form(*args):
        counts["normal forms"] += 1
        return normalize_pairs(*args)

    def reduction_round(current):
        found = find_reduction(current)
        counts["rounds"] += found is not None
        return found

    monkeypatch.setattr(words, "_normalize_pairs", normal_form)
    monkeypatch.setattr(syllables, "_find_reduction", reduction_round)

    def run(call):
        counts.update({"normal forms": 0, "rounds": 0})
        call()
        return counts["normal forms"], counts["rounds"]

    return run


@pytest.mark.parametrize("text", WORDS)
def test_order_embedding_and_certificate_normalize_once(counted, pentagon, text):
    word = parse_word(text, pentagon)
    constants = default_constants(pentagon)
    for call in (
        lambda: syllable_order(word),
        lambda: check_order_embedding(word),
        lambda: make_certificate(word, constants),
    ):
        assert counted(call) == (1, 0)


@pytest.mark.parametrize("text", WORDS)
def test_reduction_normalizes_the_word_and_the_conjugator(counted, pentagon, text):
    word = parse_word(text, pentagon)
    realization = build_standard_realization(pentagon)
    for call in (lambda: cyclically_reduce(word), lambda: classify(word, realization)):
        assert counted(call) == (2, 0 if text == "a c e b d" else 3)


def test_verify_power_properties_normalizes_once(counted, pentagon):
    # One normal form for the word; its powers 2, 3, 4 (the oracle's range)
    # and 6 (r + 1 with r = 5) are read off concatenations of it, which
    # ``is_minimal`` tests and ``heap_masks`` orders without normalizing.
    word = parse_word("a c e b d", pentagon)
    assert counted(lambda: verify_power_properties(word)) == (1, 0)


@pytest.mark.parametrize("text", WORDS)
def test_subgroup_and_coset_tests_compute_no_normal_form(counted, pentagon, text):
    # Both read the free reduction, of the word or of prefix^-1 * other.
    word = parse_word(text, pentagon)
    normal_forms = []
    assert counted(lambda: normal_forms.append(normalize(word))) == (1, 0)
    canonical = normal_forms[0]
    for call in (
        lambda: in_special_subgroup(word, "ace"),
        lambda: in_special_subgroup(canonical, "bd"),
        lambda: MappedSubsurface(word, "a").equivalent(MappedSubsurface(canonical, "a")),
        lambda: MappedSubsurface(canonical, "c").equivalent(MappedSubsurface(word, "c")),
    ):
        assert counted(call) == (0, 0)


@pytest.mark.parametrize("text", WORDS)
def test_representative_independence_normalizes_once(counted, pentagon, text):
    # The values and the representatives come from one canonical word, and
    # each representative's prefixes are compared as they stand.
    word = parse_word(text, pentagon)
    assert counted(lambda: check_representative_independence(word)) == (1, 0)
