import random
from fractions import Fraction

import pytest

import raagmcg.classification as classification
import raagmcg.words as words
from raagmcg import (
    NotCyclicallyReduced,
    NotFilling,
    RaagError,
    build_standard_realization,
    classify,
    cyclically_reduce,
    equal_elements,
    multiply,
    normalize,
    parse_word,
    power,
    translation_length_bound,
    verify_power_properties,
)
from conftest import random_graph, random_word
from helpers import reference_power_checks


def w(text, graph):
    return parse_word(text, graph)


def test_classify_filling_word(pentagon, pentagon_realization):
    report = classify(w("a c e b d", pentagon), pentagon_realization)
    assert report.overall == "pseudo_anosov"
    assert report.r == 5
    assert report.translation_bound == Fraction(1, 11)
    assert len(report.components) == 1
    assert report.components[0].fills_ambient


def test_classify_commuting_pair(pentagon, pentagon_realization):
    report = classify(w("a b", pentagon), pentagon_realization)
    assert report.overall == "reducible"
    assert [c.generators for c in report.components] == [("a",), ("b",)]
    assert all(not c.fills_ambient for c in report.components)
    assert all(c.kind == "pseudo_anosov_on_component" for c in report.components)
    assert report.translation_bound is None


def test_classify_conjugate_of_generator(pentagon, pentagon_realization):
    report = classify(w("a c a^-1", pentagon), pentagon_realization)
    assert report.overall == "reducible"
    assert str(report.reduced) == "c"
    assert [c.generators for c in report.components] == [("c",)]
    assert not report.components[0].fills_ambient


def test_classify_identity(pentagon, pentagon_realization):
    report = classify(w("", pentagon), pentagon_realization)
    assert report.overall == "identity"
    assert report.r == 0
    assert report.components == ()
    assert report.translation_bound is None


def test_component_subwords_multiply_back(pentagon, pentagon_realization):
    rng = random.Random(61)
    for _ in range(80):
        word = random_word(rng, pentagon, 5)
        report = classify(word, pentagon_realization)
        product = w("", pentagon)
        for component in report.components:
            product = multiply(product, component.word)
        assert equal_elements(product, report.reduced)


def test_component_words_are_canonical_on_random_graphs():
    # The classifier restricts the canonical reduced word to each
    # component without normalizing it again; see the classify docstring.
    rng = random.Random(20261022)
    checked = 0
    for _ in range(200):
        graph = random_graph(rng, max_vertices=8)
        realization = build_standard_realization(graph)
        for _ in range(5):
            report = classify(random_word(rng, graph, 16), realization)
            for component in report.components:
                assert component.word == normalize(component.word), report.input
                checked += len(component.word.syllables) > 1
    assert checked > 500


def test_component_count_matches_complement(pentagon, pentagon_realization):
    rng = random.Random(67)
    for _ in range(80):
        word = random_word(rng, pentagon, 5)
        report = classify(word, pentagon_realization)
        support = sorted(report.reduced.support(), key=pentagon.index.get)
        if not support:
            assert report.components == ()
            continue
        expected = pentagon.complement().components(support)
        assert tuple(c.generators for c in report.components) == expected


def test_classification_of_powers(pentagon, pentagon_realization):
    rng = random.Random(71)
    for _ in range(40):
        word = random_word(rng, pentagon, 4)
        base = classify(word, pentagon_realization)
        for n in (2, 3):
            lifted = classify(power(word, n), pentagon_realization)
            assert lifted.overall == base.overall
            assert {c.generators for c in lifted.components} == {
                c.generators for c in base.components
            }
            assert lifted.translation_bound == base.translation_bound


def test_translation_bound_values(pentagon, pentagon_realization):
    assert translation_length_bound(w("a c e b d", pentagon), pentagon_realization) == Fraction(1, 11)
    with pytest.raises(NotFilling):
        translation_length_bound(w("a c e c", pentagon), pentagon_realization)
    with pytest.raises(NotFilling):
        translation_length_bound(w("a", pentagon), pentagon_realization)


def test_translation_bound_monotone_in_r():
    bounds = [Fraction(1, 2 * r + 1) for r in range(1, 8)]
    assert bounds == sorted(bounds, reverse=True)


def test_report_json_shape(pentagon, pentagon_realization):
    data = classify(w("a c e b d", pentagon), pentagon_realization).to_json_dict()
    assert data["overall"] == "pseudo_anosov"
    assert data["translation_bound"] == "1/11"
    assert data["assumptions"] == [
        "tau_X(f_i) >= C for all i",
        "realization is nice",
    ]


def test_verify_properties_filling_word(pentagon):
    report = verify_power_properties(w("a c e b d", pentagon))
    assert all(entry["status"] == "pass" for entry in report.values())


def test_verify_properties_non_filling_support(pentagon):
    report = verify_power_properties(w("a c", pentagon))
    assert report["image_coverage"]["status"] == "precondition_unmet"
    assert report["power_minimality"]["status"] == "pass"
    assert report["square_precedence"]["status"] == "pass"
    assert report["power_comparability"]["status"] == "pass"


def test_verify_properties_empty_word(pentagon):
    report = verify_power_properties(w("", pentagon))
    assert all(entry["status"] == "pass" for entry in report.values())


def test_verify_properties_degenerate_support(pentagon):
    report = verify_power_properties(w("a^2", pentagon))
    assert report["power_minimality"]["status"] == "precondition_unmet"
    report = verify_power_properties(w("a b", pentagon))
    assert report["square_precedence"]["status"] == "precondition_unmet"


def test_verify_properties_rejects_unreduced(pentagon):
    with pytest.raises(NotCyclicallyReduced):
        verify_power_properties(w("a c a^-1", pentagon))


def _verify_outcome(check, word, max_power):
    try:
        return check(word, max_power=max_power)
    except RaagError as err:
        return type(err).__name__, err.message, err.details


def test_verify_matches_power_normal_form_reference():
    # Reduced words over random graphs, each checked with max_power 2, 3
    # and 4, against the checks that normalize every power and read its
    # pair set through the shift maps.
    rng = random.Random(3)
    seen = set()
    for _ in range(150):
        graph = random_graph(rng, max_vertices=6)
        for max_power in (2, 3, 4):
            reduced, _ = cyclically_reduce(random_word(rng, graph, 6))
            report = _verify_outcome(verify_power_properties, reduced, max_power)
            assert report == _verify_outcome(reference_power_checks, reduced, max_power), reduced
            if isinstance(report, dict):
                seen.add(report["power_comparability"]["status"])
    assert seen == {"pass", "precondition_unmet"}


def _without(lower, upper):
    # heap_masks with one relation dropped: syllable ``lower`` no longer
    # lies below the syllable at position ``upper`` of the concatenation.
    def masks(word):
        below = words.heap_masks(word)
        below[upper] &= ~(1 << lower)
        return below

    return masks


MINIMAL = {"status": "pass", "note": "powers 2..4 stay minimal"}
ALL_LABELS = "['a^1#1', 'c^1#1', 'e^1#1', 'b^1#1', 'd^1#1']"
FIRST_PAIRS = (
    "[('a^1#1', 'a^1#1'), ('a^1#1', 'c^1#1'), ('a^1#1', 'e^1#1'), "
    "('a^1#1', 'b^1#1'), ('a^1#1', 'd^1#1')]"
)


@pytest.mark.parametrize(
    "name, patch, minimality, misses, miss_pairs",
    [
        ("heap_masks", lambda word: [0] * len(word.syllables), MINIMAL, ALL_LABELS, FIRST_PAIRS),
        ("is_minimal", lambda word: False,
         {"status": "fail", "note": "powers [2, 3, 4] collapse"}, ALL_LABELS, FIRST_PAIRS),
        # c of block 1 below c of block 2 (position 6), read by the square
        ("heap_masks", _without(1, 6), MINIMAL, "['c^1#1']", None),
        # c of block 1 below d of the last block, read by the sixth power
        ("heap_masks", _without(1, -1), MINIMAL, None, "[('c^1#1', 'd^1#1')]"),
    ],
    ids=["no-order", "collapsed", "square-pair", "last-block-pair"],
)
def test_verify_reports_unordered_or_collapsed_powers_as_failures(
    monkeypatch, pentagon, name, patch, minimality, misses, miss_pairs
):
    # None of this can happen to a reduced word with a connected support,
    # so the library is patched: concatenations that lose order relations,
    # or that are not minimal, whose heaps are then not the powers'.
    monkeypatch.setattr(classification, name, patch)
    report = verify_power_properties(w("a c e b d", pentagon))
    assert report["power_minimality"] == minimality
    assert report["square_precedence"] == (
        {"status": "pass", "note": "every syllable precedes its shifted copy"}
        if misses is None
        else {"status": "fail", "note": f"syllables {misses} do not precede their shifts"}
    )
    assert report["power_comparability"] == (
        {"status": "pass", "note": "all pairs comparable across 5 blocks"}
        if miss_pairs is None
        else {"status": "fail", "note": f"incomparable pairs {miss_pairs}"}
    )


def test_classify_rejects_foreign_graph(pentagon, pentagon_realization):
    from raagmcg import DefiningGraph

    other = DefiningGraph.from_data("ab", [])
    with pytest.raises(ValueError):
        classify(w("a", other), pentagon_realization)


def test_foreign_graph_is_graph_mismatch(pentagon, pentagon_realization):
    from raagmcg import DefiningGraph, GraphMismatch

    other = DefiningGraph.from_data("ab", [])
    with pytest.raises(GraphMismatch) as err:
        classify(w("a", other), pentagon_realization)
    assert isinstance(err.value, ValueError)
    assert err.value.message == "word and realization use different defining graphs"


def test_verify_rejects_realization_over_another_graph(pentagon):
    from raagmcg import DefiningGraph, GraphMismatch, build_standard_realization

    edgeless = build_standard_realization(DefiningGraph.from_data("abcde", []))
    with pytest.raises(GraphMismatch) as err:
        verify_power_properties(w("a c e b d", pentagon), realization=edgeless)
    assert err.value.message == "word and realization use different defining graphs"
    with pytest.raises(NotCyclicallyReduced):  # the reducedness check still comes first
        verify_power_properties(w("a c a^-1", pentagon), realization=edgeless)
