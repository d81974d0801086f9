import random

import pytest

from raagmcg import (
    CapExceeded,
    MoveNotApplicable,
    SearchBudgetExceeded,
    Syllable,
    Word,
    apply_move,
    concatenated_power,
    empty_word,
    equal_elements,
    in_special_subgroup,
    invert,
    is_minimal,
    minimal_representatives,
    multiply,
    normalize,
    oracle_min_syllables,
    parse_word,
    power,
    word_from_pairs,
)
from conftest import random_word


def w(text, graph):
    return parse_word(text, graph)


# -- parsing ---------------------------------------------------------------


def test_parse_grammar(pentagon):
    word = parse_word("a c^-2 b^3", pentagon)
    assert word.syllables == (
        Syllable("a", 1), Syllable("c", -2), Syllable("b", 3),
    )
    assert str(word) == "a c^-2 b^3"


def test_parse_empty_is_identity(pentagon):
    assert parse_word("", pentagon).is_empty
    assert parse_word("   ", pentagon).is_empty


def test_parse_drops_zero_exponents(pentagon):
    assert str(normalize(parse_word("a^0 b", pentagon))) == "b"
    assert parse_word("a^0", pentagon).is_empty
    raw = parse_word("a^0 b", pentagon, keep_zero_exponents=True)
    assert raw.syllables[0].exponent == 0


def test_exponents_are_ascii_integers(pentagon):
    word = parse_word("a^-0 b^007 c^-12 d^" + "9" * 30, pentagon)
    assert str(word) == "b^7 c^-12 d^" + "9" * 30


def test_parse_rejects_garbage(pentagon):
    with pytest.raises(ValueError):
        parse_word("a^x", pentagon)
    with pytest.raises(Exception):
        parse_word("z", pentagon)


# -- moves -------------------------------------------------------------------


def test_move_two_merges(pentagon):
    word = w("a^2 a^3", pentagon)
    assert str(apply_move(word, 2, 1)) == "a^5"


def test_move_three_swaps_commuting(pentagon):
    word = w("a b", pentagon)
    assert str(apply_move(word, 3, 1)) == "b a"


def test_move_three_rejects_non_commuting(pentagon):
    with pytest.raises(MoveNotApplicable):
        apply_move(w("a c", pentagon), 3, 1)


def test_move_one_removes_zero_exponent(pentagon):
    word = parse_word("a^0 b", pentagon, keep_zero_exponents=True)
    assert str(apply_move(word, 1, 1)) == "b"
    with pytest.raises(MoveNotApplicable):
        apply_move(w("a b", pentagon), 1, 1)
    for position in (0, 3):
        with pytest.raises(MoveNotApplicable) as err:
            apply_move(word, 1, position)
        assert err.value.details == {"position": position, "reason": "range"}


@pytest.mark.parametrize("move", [0, 4])
def test_unknown_move_is_not_applicable(pentagon, move):
    with pytest.raises(MoveNotApplicable) as err:
        apply_move(w("a b", pentagon), move, 1)
    assert err.value.message == f"unknown move {move}"
    assert err.value.details == {"position": 1, "reason": "unknown move"}


def test_concatenated_power_is_unreduced_and_needs_nonnegative_n(pentagon):
    word = w("a b a^-1", pentagon)
    assert str(concatenated_power(word, 2)) == "a b a^-1 a b a^-1"
    assert concatenated_power(word, 0).is_empty
    with pytest.raises(ValueError, match="n must be nonnegative"):
        concatenated_power(word, -1)


def test_move_two_can_create_zero_exponent(pentagon):
    word = w("a a^-1", pentagon)
    merged = apply_move(word, 2, 1)
    assert merged.syllables == (Syllable("a", 0),)
    assert str(apply_move(merged, 1, 1)) == ""


# -- normalization ------------------------------------------------------------


def test_normalize_cancels_through_commuting(pentagon):
    word = w("a b a^-1", pentagon)
    assert str(normalize(word)) == "b"
    assert oracle_min_syllables(word) == 1


def test_normalize_fixes_blocked_word(pentagon):
    word = w("a c", pentagon)
    assert str(normalize(word)) == "a c"
    assert oracle_min_syllables(word) == 2


def test_normalize_empty(pentagon):
    assert normalize(empty_word(pentagon)).is_empty
    assert oracle_min_syllables(empty_word(pentagon)) == 0


def test_normalize_idempotent_and_monotone(pentagon):
    rng = random.Random(7)
    for _ in range(300):
        word = random_word(rng, pentagon, 6)
        canonical = normalize(word)
        assert normalize(canonical) == canonical
        assert len(canonical.syllables) <= len(word.syllables)
        assert canonical.letter_length() <= word.letter_length()


def test_is_minimal(pentagon):
    assert not is_minimal(w("a b a", pentagon))  # commuting merge
    assert is_minimal(w("a c a", pentagon))      # oracle minimum is 3
    assert oracle_min_syllables(w("a c a", pentagon)) == 3
    assert is_minimal(empty_word(pentagon))


# -- arithmetic ----------------------------------------------------------------


def test_multiply_cancels(pentagon):
    assert multiply(w("a", pentagon), w("a^-1", pentagon)).is_empty


def test_invert_reverses_and_negates(pentagon):
    assert str(invert(w("a c^2", pentagon))) == "c^-2 a^-1"


def test_power_of_blocked_word_is_minimal(pentagon):
    squared = power(w("a c", pentagon), 2)
    assert str(squared) == "a c a c"
    assert oracle_min_syllables(Word(w("a c", pentagon).syllables * 2, pentagon)) == 4


def test_power_negative_and_zero(pentagon):
    word = w("a c", pentagon)
    assert power(word, 0).is_empty
    assert equal_elements(power(word, -2), invert(power(word, 2)))


def test_group_axioms_random(pentagon):
    rng = random.Random(11)
    for _ in range(150):
        u = random_word(rng, pentagon, 4)
        v = random_word(rng, pentagon, 4)
        t = random_word(rng, pentagon, 4)
        assert equal_elements(multiply(multiply(u, v), t), multiply(u, multiply(v, t)))
        assert multiply(u, invert(u)).is_empty
        assert equal_elements(u, normalize(u))


def test_equal_elements(pentagon):
    assert equal_elements(w("a b", pentagon), w("b a", pentagon))
    assert not equal_elements(w("a c", pentagon), w("c a", pentagon))


def test_equal_rejects_mixed_graphs(pentagon):
    from raagmcg import DefiningGraph

    other = DefiningGraph.from_data("ab", [])
    with pytest.raises(ValueError):
        equal_elements(w("a", pentagon), w("a", other))


# -- special subgroups ----------------------------------------------------------


def test_special_subgroup_membership(pentagon):
    assert in_special_subgroup(w("a^2 b^-1", pentagon), {"a", "b"})
    assert not in_special_subgroup(w("a c a^-1", pentagon), {"c"})
    assert in_special_subgroup(empty_word(pentagon), set())


def test_special_subgroup_closed_under_products(pentagon):
    rng = random.Random(13)
    for _ in range(100):
        t_size = rng.randint(1, 4)
        t = set(rng.sample(pentagon.vertices, t_size))
        u = random_word(rng, pentagon, 4, generators=sorted(t))
        v = random_word(rng, pentagon, 4, generators=sorted(t))
        assert in_special_subgroup(multiply(u, v), t)


# -- minimal representatives ------------------------------------------------------


def test_minimal_representatives_examples(pentagon):
    assert [str(x) for x in minimal_representatives(w("a b", pentagon))] == ["a b", "b a"]
    assert [str(x) for x in minimal_representatives(w("a c", pentagon))] == ["a c"]
    reps = minimal_representatives(w("a c e b d", pentagon))
    assert all(len(rep.syllables) == 5 for rep in reps)
    for rep in reps:
        assert oracle_min_syllables(rep) == 5


def test_minimal_representatives_cap(pentagon):
    with pytest.raises(CapExceeded):
        minimal_representatives(w("a b", pentagon), cap=1)


def test_oracle_budget(pentagon):
    # a, b commute, so the move graph of "a b a b" has many reorderings.
    with pytest.raises(SearchBudgetExceeded):
        oracle_min_syllables(w("a b a b", pentagon), budget=2)


def test_normalize_matches_oracle_on_random_graphs():
    # The pentagon has no triangles; exercise dense and sparse
    # commutation patterns too, including complete and edgeless graphs.
    from conftest import random_graph

    rng = random.Random(1111)
    checked = 0
    while checked < 300:
        p = rng.choice([0.0, 0.2, 0.5, 0.8, 1.0])
        graph = random_graph(rng, max_vertices=6, edge_probability=p)
        word = random_word(rng, graph, 5)
        try:
            oracle = oracle_min_syllables(word, 200_000)
        except SearchBudgetExceeded:
            continue
        assert len(normalize(word).syllables) == oracle
        checked += 1


def test_word_from_pairs(pentagon):
    word = word_from_pairs(pentagon, [("a", 2), ("c", -1)])
    assert str(word) == "a^2 c^-1"


def test_large_exponents_no_overflow(pentagon):
    word = word_from_pairs(pentagon, [("a", 10**30), ("c", 1)])
    assert power(word, 3).letter_length() == 3 * (10**30 + 1)


def test_mixed_graphs_are_graph_mismatch(pentagon):
    from raagmcg import DefiningGraph, GraphMismatch

    other = DefiningGraph.from_data("ab", [])
    for call in (multiply, equal_elements):
        with pytest.raises(GraphMismatch) as err:
            call(w("a", pentagon), w("a", other))
        assert isinstance(err.value, ValueError)
        assert err.value.message == "words live over different defining graphs"
        assert err.value.details == {}
