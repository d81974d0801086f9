import random
from fractions import Fraction

import pytest

import raagmcg.subsurface_map as subsurface_map
from raagmcg import (
    Constants,
    DefiningGraph,
    InvalidConstants,
    MappedSubsurface,
    SyllableId,
    SyllableOrder,
    check_order_embedding,
    check_representative_independence,
    default_constants,
    empty_word,
    is_cyclically_reduced,
    make_certificate,
    multiply,
    normalize,
    parse_word,
    power,
    power_shift_map,
    syllable_order,
    syllable_subsurface_map,
)
from conftest import random_graph, random_word
from helpers import reference_order_embedding


def w(text, graph):
    return parse_word(text, graph)


# -- the map itself ------------------------------------------------------------


def test_map_blocked_pair(pentagon):
    assignment = syllable_subsurface_map(w("a c", pentagon))
    assert {k.label(): (str(v.prefix), v.base_vertex) for k, v in assignment.items()} == {
        "a^1#1": ("", "a"),
        "c^1#1": ("a", "c"),
    }


def test_map_commuting_prefix_collapses(pentagon):
    assignment = syllable_subsurface_map(w("a b", pentagon))
    value = assignment[SyllableId("b", 1, 1)]
    trivial = MappedSubsurface(empty_word(pentagon), "b")
    assert value.equivalent(trivial)  # a lies in the star of b


def test_map_empty(pentagon):
    assert syllable_subsurface_map(w("", pentagon)) == {}


def test_equivalence_is_star_coset(pentagon):
    u = MappedSubsurface(w("a c", pentagon), "a")
    v = MappedSubsurface(w("a c b", pentagon), "a")
    assert u.equivalent(v)  # the prefixes differ by b, and b lies in star(a)
    distinct = MappedSubsurface(w("a c^2", pentagon), "a")
    assert not u.equivalent(distinct)  # they differ by c, outside star(a)
    other_base = MappedSubsurface(w("a c", pentagon), "c")
    assert not u.equivalent(other_base)


def test_representative_independence_examples(pentagon):
    for text in ("a b", "a c e", "a c a"):
        assert check_representative_independence(w(text, pentagon)).ok


def test_representative_independence_random(pentagon):
    rng = random.Random(43)
    for _ in range(150):
        word = random_word(rng, pentagon, 6)
        assert check_representative_independence(word).ok


def test_order_embedding_examples(pentagon):
    assert check_order_embedding(w("a b", pentagon)).ok
    assert check_order_embedding(w("a c a", pentagon)).ok
    assert check_order_embedding(w("", pentagon)).ok


def test_order_embedding_distinguishes_repeats(pentagon):
    assignment = syllable_subsurface_map(w("a c a", pentagon))
    first = assignment[SyllableId("a", 1, 1)]
    second = assignment[SyllableId("a", 1, 2)]
    assert not first.equivalent(second)  # prefixes differ by a c outside star(a)


def test_order_embedding_random_cyclically_reduced(pentagon):
    rng = random.Random(47)
    checked = 0
    while checked < 60:
        word = random_word(rng, pentagon, 5)
        if not is_cyclically_reduced(word):
            continue
        assert check_order_embedding(word).ok
        checked += 1


def _corrupted(order, rng, vertices):
    # The heap with one bit dropped, one bit added or one generator renamed.
    ids, below = list(order.elements), list(order.below)
    k = len(ids)
    kind = rng.choice(("drop", "add", "rename"))
    ordered = [(i, j) for j in range(k) for i in range(j) if below[j] >> i & 1]
    unordered = [(i, j) for j in range(k) for i in range(j) if not below[j] >> i & 1]
    if kind == "drop" and ordered:
        i, j = rng.choice(ordered)
        below[j] ^= 1 << i
    elif kind == "add" and unordered:
        i, j = rng.choice(unordered)
        below[j] |= 1 << i
    else:
        p = rng.randrange(k)
        s = ids[p]
        other = rng.choice([v for v in vertices if v != s.generator])
        ids[p] = SyllableId(other, s.exponent, s.occurrence)
    return SyllableOrder(tuple(ids), tuple(below))


def test_order_embedding_matches_the_pair_loops_on_corrupted_heaps(monkeypatch):
    # The heap of a minimal word never fails the check, so the check is
    # fed corrupted heaps of seeded words and compared with its pair loops.
    rng = random.Random(20261021)
    details = []
    while len(details) < 2_000:
        graph = random_graph(rng, max_vertices=6, edge_probability=rng.choice((0.3, 0.6)))
        word = normalize(random_word(rng, graph, 9, min_syllables=2))
        if len(word) < 2:
            continue
        corrupted = _corrupted(syllable_order(word), rng, graph.vertices)
        monkeypatch.setattr(subsurface_map, "syllable_order", lambda _: corrupted)
        result = check_order_embedding(word)
        assert (result.ok, result.detail) == reference_order_embedding(corrupted, graph), word
        details.append(result.detail)
    for needle in ("map to the same subsurface", "with non-commuting generators",
                   "is not the shared-prefix translate of its base"):
        assert sum(needle in detail for detail in details) >= 20, needle


def test_map_commutes_with_power_shifts(pentagon):
    # The subsurface of a shifted syllable is the original subsurface
    # translated by the (n-1)-st power of the word.
    rng = random.Random(53)
    checked = 0
    while checked < 40:
        word = normalize(random_word(rng, pentagon, 4, min_syllables=1))
        if not is_cyclically_reduced(word):
            continue
        support = sorted(word.support(), key=pentagon.index.get)
        if len(support) < 2:
            continue
        if len(pentagon.complement().components(support)) != 1:
            continue
        n = rng.randint(2, 3)
        shift = power_shift_map(word, 1, n)
        base_map = syllable_subsurface_map(word)
        power_map = syllable_subsurface_map(power(word, n))
        translate = power(word, n - 1)
        for sid, target in shift.items():
            expected = MappedSubsurface(
                multiply(translate, base_map[sid].prefix), base_map[sid].base_vertex
            )
            assert power_map[target].equivalent(expected)
        checked += 1


# -- constants and certificates ---------------------------------------------------


def test_default_constants(pentagon):
    constants = default_constants(pentagon)
    assert (constants.k0, constants.d, constants.k, constants.c) == (10, 6, 42, 84)
    assert constants.a == 2 and constants.b == 10
    assert all(constants.tau[v] == 84 for v in pentagon.vertices)


def test_constants_reject_small_k(pentagon):
    with pytest.raises(InvalidConstants) as err:
        Constants.create(pentagon, k=15)
    assert "K >= 20" in err.value.message


def test_constants_reject_recipe_mismatch(pentagon):
    with pytest.raises(InvalidConstants):
        Constants.create(pentagon, k=50)  # 10 + 20 + 12 = 42 != 50


def test_constants_reject_bad_tau(pentagon):
    with pytest.raises(InvalidConstants):
        Constants.create(pentagon, tau={v: 10 for v in pentagon.vertices})
    with pytest.raises(InvalidConstants):
        Constants.create(pentagon, tau={"a": 84})


def test_constants_reject_bad_shape(pentagon):
    with pytest.raises(InvalidConstants):
        Constants.create(pentagon, a=0.5)
    with pytest.raises(InvalidConstants):
        Constants.create(pentagon, b=-1)
    with pytest.raises(InvalidConstants):
        Constants.create(pentagon, k0=0, d=6)
    with pytest.raises(InvalidConstants, match="D must be nonnegative") as err:
        Constants.create(pentagon, k0=100, d=-1)  # K = 118 passes the checks before D's
    assert err.value.details == {"field": "D"}
    for tau in (5, "ab", [1, 2]):  # none of them can be turned into a dict
        with pytest.raises(InvalidConstants, match="tau must be a mapping") as err:
            Constants.create(pentagon, tau=tau)
        assert err.value.details == {"field": "tau"}


def test_constants_accept_a_real_that_is_neither_int_nor_float(pentagon):
    # A Fraction is a numbers.Real: K = 10 + 20 + 2 * 5/2, and C and every
    # tau default to 2 * K, so each check meets a Fraction.
    constants = Constants.create(pentagon, d=Fraction(5, 2))
    assert constants.k == 35 and isinstance(constants.k, Fraction)
    assert constants.tau == dict.fromkeys(pentagon.vertices, 70)


def test_hand_built_constants_out_of_float_range_are_typed(pentagon):
    # K0 + 20 + 2*D mixes an int too large for a float with a float; only
    # validate sees it, as the pack never went through Constants.create.
    constants = Constants(
        k0=10**400, d=2.5, k=42, c=84, a=2, b=10, tau={v: 84 for v in pentagon.vertices}
    )
    with pytest.raises(InvalidConstants) as err:
        make_certificate(w("a c", pentagon), constants)
    assert err.value.details == {"field": "K"}


@pytest.mark.parametrize(
    "overrides, field, message",
    [
        ({"k": -10**5000}, "K", "K >= 20 violated"),
        ({"k0": -10**5000}, "K", "K >= 20 violated"),
        ({"c": 10**5000}, "C", "C must equal 2*K"),
        ({"tau": {"a": -10**5000, "b": 84, "c": 84, "d": 84, "e": 84}}, "tau",
         "tau(a) is below C"),
    ],
    ids=["K", "K0", "C", "tau"],
)
def test_constants_past_the_int_digit_limit_are_typed(pentagon, overrides, field, message):
    # Values too long for int-to-str are left out of the message.
    with pytest.raises(InvalidConstants) as err:
        Constants.create(pentagon, **overrides)
    assert (err.value.message, err.value.details) == (message, {"field": field})


@pytest.mark.parametrize(
    "tau_a, message",
    [
        ("x", "tau(a) must be a real number"),
        (float("nan"), "tau(a) must be finite (got nan)"),
        (float("inf"), "tau(a) must be finite (got inf)"),
    ],
    ids=["str", "nan", "inf"],
)
def test_constants_reject_tau_that_is_not_a_finite_number(pentagon, tau_a, message):
    tau = {v: 84 for v in pentagon.vertices}
    tau["a"] = tau_a
    with pytest.raises(InvalidConstants) as err:
        Constants.create(pentagon, tau=tau)
    assert (err.value.message, err.value.details) == (message, {"field": "tau"})


@pytest.mark.parametrize(
    "overrides, field, message",
    [
        ({"a": float("nan")}, "A", "A must be finite (got nan)"),
        ({"b": float("inf")}, "B", "B must be finite (got inf)"),
        ({"a": "x"}, "A", "A must be a real number"),
        ({"k0": "x"}, "K0", "K0 must be a real number"),
        ({"k0": float("nan")}, "K0", "K0 must be finite (got nan)"),
        ({"k": "x"}, "K", "K must be a real number"),
        ({"k": None}, "K", "K must be a real number"),
        ({"k": float("nan")}, "K", "K must be finite (got nan)"),
        ({"k": float("inf")}, "K", "K must be finite (got inf)"),
        ({"tau": 5}, "tau", "tau must be a mapping"),
        ({"tau": None}, "tau", "tau must be a mapping"),
    ],
    ids=["A-nan", "B-inf", "A-str", "K0-str", "K0-nan", "K-str", "K-none", "K-nan", "K-inf",
         "tau-int", "tau-none"],
)
def test_hand_built_constants_that_are_not_finite_numbers_are_typed(overrides, field, message):
    # Only validate sees a pack that never went through Constants.create,
    # and make_certificate validates the pack it is given.
    graph = DefiningGraph.from_data("ab", [])
    fields = {"k0": 10, "d": 6, "k": 42, "c": 84, "a": 2, "b": 10, "tau": {"a": 84, "b": 84}}
    constants = Constants(**{**fields, **overrides})
    for call in (lambda: constants.validate(graph),
                 lambda: make_certificate(w("a b", graph), constants)):
        with pytest.raises(InvalidConstants) as err:
            call()
        assert (err.value.message, err.value.details) == (message, {"field": field})


def test_certificate_arithmetic(pentagon):
    constants = default_constants(pentagon)
    certificate = make_certificate(w("a^2 c^-1", pentagon), constants)
    assert [e.bound for e in certificate.entries] == [84, 42]
    assert certificate.total == 126
    assert certificate.templates == (
        "d_MM >= (126 - 10)/2",
        "d_WP >= (126 - 10)/2",
        "d_T >= (126 - 10)/2",
    )
    data = certificate.to_json_dict()
    assert data["total"] == 126
    assert data["entries"][0] == {
        "syllable": "a^2#1", "prefix": "", "base": "a", "bound": 84,
    }


def test_certificate_empty_word(pentagon):
    certificate = make_certificate(w("", pentagon), default_constants(pentagon))
    assert certificate.entries == () and certificate.total == 0


def test_certificate_total_monotone_in_k(pentagon):
    small = default_constants(pentagon)
    large = Constants.create(pentagon, k0=10, d=10)  # K = 50
    word = w("a c e", pentagon)
    assert make_certificate(word, large).total > make_certificate(word, small).total


def test_certificate_total_is_k_times_letter_length(pentagon):
    rng = random.Random(59)
    constants = default_constants(pentagon)
    for _ in range(100):
        word = random_word(rng, pentagon, 5)
        certificate = make_certificate(word, constants)
        assert certificate.total == 42 * normalize(word).letter_length()
