"""Certificates, classifications and syllable ids are built in one walk
over the canonical word's checked syllables.

``make_certificate`` reads its entries off the list behind
``syllable_subsurface_map``, so no syllable id is hashed;
``Certificate.to_json_dict`` prints a prefix of sigma as sigma's first
tokens; ``classify`` fills a single-component support once.  Each is
compared with the body it replaced (``tests/helpers.py``) on seeded
corpora, byte for byte in the JSON."""

import json
import random
import sys

import pytest

import raagmcg.classification as classification
from raagmcg import (
    Certificate,
    CertificateEntry,
    Constants,
    DefiningGraph,
    IntegerTooLong,
    MappedSubsurface,
    Syllable,
    SyllableId,
    Word,
    build_standard_realization,
    classify,
    default_constants,
    make_certificate,
    minimal_representatives,
    parse_word,
    power,
    syllable_subsurface_map,
    word_from_pairs,
)
from conftest import random_graph, random_word
from helpers import (
    reference_certificate_json,
    reference_classify,
    reference_make_certificate,
    reference_subsurface_map,
)

CYCLE = "acebd"  # the pentagon's complement: consecutive letters never commute
F2XF2_EDGES = [("x", "u"), ("x", "v"), ("y", "u"), ("y", "v")]


def dumps(data) -> str:
    return json.dumps(data, indent=2)


def filling_walk(rng: random.Random, length: int) -> list[tuple[str, int]]:
    """A closed walk on the complement cycle through all five vertices,
    with random nonzero exponents: cyclically reduced and filling."""
    while True:
        pos = [0]
        for _ in range(length - 1):
            pos.append((pos[-1] + rng.choice((1, -1))) % 5)
        if (pos[-1] - pos[0]) % 5 in (1, 4) and len(set(pos)) == 5:
            return [(CYCLE[p], rng.choice((-3, -2, -1, 1, 2, 3))) for p in pos]


def assert_certificate_matches(word: Word, constants: Constants) -> None:
    certificate = make_certificate(word, constants)
    reference = reference_make_certificate(word, constants)
    assert certificate == reference
    assert dumps(certificate.to_json_dict()) == dumps(reference_certificate_json(reference))
    assert (list(syllable_subsurface_map(word).items())
            == list(reference_subsurface_map(word).items()))


# -- the work saved ----------------------------------------------------------------


@pytest.fixture()
def counted(monkeypatch):
    """Run a call and return (SyllableId hashes, fill calls)."""
    syllable_hash, fill = SyllableId.__hash__, classification.fill
    counts = {}

    def hashed(sid):
        counts["hashes"] += 1
        return syllable_hash(sid)

    def filled(*args):
        counts["fills"] += 1
        return fill(*args)

    monkeypatch.setattr(SyllableId, "__hash__", hashed)
    monkeypatch.setattr(classification, "fill", filled)

    def run(call):
        counts.update({"hashes": 0, "fills": 0})
        call()
        return counts["hashes"], counts["fills"]

    return run


@pytest.mark.parametrize("text", ["a c e b d", "a^2 c^-1 e b d^3 a c e^-2 b d"])
def test_certificate_hashes_no_syllable_id(counted, pentagon, text):
    word = parse_word(text, pentagon)
    constants = default_constants(pentagon)
    assert counted(lambda: make_certificate(word, constants)) == (0, 0)
    # The map itself is a dict keyed by id: one hash per syllable.
    assert counted(lambda: syllable_subsurface_map(word)) == (len(word), 0)


@pytest.mark.parametrize("text", ["a c e b d", "d b e a c e b d e^-1 b^-1 d^-1"])
def test_classify_fills_a_filling_pentagon_word_once(counted, pentagon, pentagon_realization,
                                                     text):
    report = []
    assert counted(lambda: report.append(classify(parse_word(text, pentagon),
                                                  pentagon_realization))) == (0, 1)
    assert report[0].components[0].word is report[0].reduced


def test_classify_fills_each_of_two_components(counted):
    graph = DefiningGraph.from_data("xyuv", F2XF2_EDGES)
    realization = build_standard_realization(graph)
    word = parse_word("x y u v", graph)
    assert counted(lambda: classify(word, realization)) == (0, 3)


# -- certificates against the dict-keyed reference ----------------------------------


def test_certificates_match_the_reference_on_pentagon_powers(pentagon):
    constants = default_constants(pentagon)
    for base in ("a c e b d", "a^2 c^-1 e b^-3 d", "a^-1 d^-1 b^-1 e^-1 c^-1"):
        for n in range(1, 9):
            assert_certificate_matches(power(parse_word(base, pentagon), n), constants)


def test_certificates_match_the_reference_on_filling_walks(pentagon):
    rng = random.Random(2024)
    constants = [default_constants(pentagon),
                 Constants.create(pentagon, k0=2.5, d=0.25, a=1.5, b=0.5)]
    for length in (5, *range(7, 40)):
        word = word_from_pairs(pentagon, filling_walk(rng, length))
        assert_certificate_matches(word, constants[length % 2])


def test_certificates_match_the_reference_on_random_graphs():
    rng = random.Random(77)
    for _ in range(120):
        graph = random_graph(rng, max_vertices=7)
        assert_certificate_matches(random_word(rng, graph, 14), default_constants(graph))


def test_certificate_matches_the_reference_on_a_long_word():
    rng = random.Random(5)
    names = [f"v{i}" for i in range(20)]
    pairs = [(a, b) for i, a in enumerate(names) for b in names[i + 1:]]
    graph = DefiningGraph.from_data(names, rng.sample(pairs, len(pairs) // 2))
    word = random_word(rng, graph, 300, min_syllables=300)
    assert len(make_certificate(word, default_constants(graph)).entries) > 200
    assert_certificate_matches(word, default_constants(graph))


def test_empty_certificate_matches_the_reference(pentagon):
    assert_certificate_matches(parse_word("", pentagon), default_constants(pentagon))


# -- hand-built certificates: the str(prefix) fallback -----------------------------


def with_prefixes(certificate: Certificate, prefixes) -> Certificate:
    entries = tuple(
        CertificateEntry(e.syllable, MappedSubsurface(prefix, e.subsurface.base_vertex), e.bound)
        for e, prefix in zip(certificate.entries, prefixes)
    )
    return with_parts(certificate, entries=entries)


def with_parts(certificate: Certificate, sigma=None, entries=None) -> Certificate:
    # The certificate with sigma or its entries replaced.
    return Certificate(
        certificate.sigma if sigma is None else sigma, certificate.constants,
        certificate.entries if entries is None else entries, certificate.total,
        certificate.templates,
    )


def test_prefixes_that_are_not_sigmas_print_as_themselves(pentagon):
    word = parse_word("a^2 b c^-1 d e a", pentagon)
    certificate = make_certificate(word, default_constants(pentagon))
    sigma = certificate.sigma
    k = len(sigma)
    reps = minimal_representatives(sigma)
    assert len(reps) > 1
    equal = [Word(tuple(Syllable(s.generator, s.exponent) for s in p.syllables), pentagon)
             for p in sigma.prefixes()]
    variants = [
        [Word((), pentagon)] * k,  # all empty
        [Word(sigma.syllables[:i + 1], pentagon) for i in range(k)],  # one syllable too many
        [Word(sigma.syllables[1:i + 1], pentagon) for i in range(k)],  # shifted by one
        list(reversed(sigma.prefixes())),
        equal,  # equal syllables, other objects
        *(rep.prefixes() for rep in reps),
    ]
    for prefixes in variants:
        hand_built = with_prefixes(certificate, prefixes)
        assert dumps(hand_built.to_json_dict()) == dumps(reference_certificate_json(hand_built))


def test_more_entries_than_sigma_has_syllables(pentagon):
    certificate = make_certificate(parse_word("a c e", pentagon), default_constants(pentagon))
    extra = certificate.entries[-1]
    longer = with_parts(certificate, entries=certificate.entries + (extra, extra))
    shorter = with_parts(certificate, sigma=parse_word("a c", pentagon))
    for hand_built in (longer, shorter):
        assert dumps(hand_built.to_json_dict()) == dumps(reference_certificate_json(hand_built))


def test_integers_too_long_to_print_raise_as_before(pentagon):
    huge = 10 ** sys.get_int_max_str_digits()
    word = word_from_pairs(pentagon, [("a", huge), ("c", 1)])
    constants = default_constants(pentagon)
    for build in (make_certificate, reference_make_certificate):
        with pytest.raises(IntegerTooLong):
            build(word, constants)
    certificate = make_certificate(parse_word("a c e", pentagon), constants)
    big = word_from_pairs(pentagon, [("a", 1), ("c", huge)])
    entries = certificate.entries
    cases = [
        with_parts(certificate, sigma=big),  # sigma itself
        with_prefixes(certificate, [big.prefixes()[0], big.prefixes()[1], big]),  # a prefix
        with_parts(certificate, entries=entries[:1] + (  # an entry's label
            CertificateEntry(SyllableId("c", huge, 1), entries[1].subsurface, entries[1].bound),
        ) + entries[2:]),
    ]
    for hand_built in cases:
        for to_json in (Certificate.to_json_dict, reference_certificate_json):
            with pytest.raises(IntegerTooLong):
                to_json(hand_built)


# -- classification against the per-component reference ------------------------------


def assert_report_matches(word, realization):
    report = classify(word, realization)
    reference = reference_classify(word, realization)
    assert report == reference
    assert dumps(report.to_json_dict()) == dumps(reference.to_json_dict())
    return report


def test_reports_match_the_reference_on_two_component_f2xf2_words():
    graph = DefiningGraph.from_data("xyuv", F2XF2_EDGES)
    realization = build_standard_realization(graph)
    rng = random.Random(31)
    two = 0
    for _ in range(150):
        report = assert_report_matches(random_word(rng, graph, 12), realization)
        two += len(report.components) == 2
    assert two > 80


def test_reports_match_the_reference_on_single_components_that_do_not_fill(
        pentagon, pentagon_realization):
    rng = random.Random(41)
    seen = 0
    for generators in ("ac", "ace", "ce", "bda", "acebd"):
        for _ in range(30):
            word = random_word(rng, pentagon, 10, generators=generators)
            report = assert_report_matches(word, pentagon_realization)
            if len(report.components) == 1 and not report.components[0].fills_ambient:
                seen += 1
    assert seen > 60


def test_reports_match_the_reference_on_random_graphs():
    rng = random.Random(53)
    for _ in range(120):
        graph = random_graph(rng, max_vertices=7)
        assert_report_matches(random_word(rng, graph, 12), build_standard_realization(graph))


# -- the commutation matrix -----------------------------------------------


def assert_matrix_is_the_edge_relation(graph: DefiningGraph) -> None:
    vertices = graph.vertices
    assert graph.commutation_matrix == tuple(
        tuple(u == v or graph.has_edge(u, v) for v in vertices) for u in vertices
    )


@pytest.mark.parametrize("n", [1, 2, 5, 12])
def test_commutation_matrix_of_edgeless_and_complete_graphs(n):
    names = [f"v{i}" for i in range(n)]
    complete = [(a, b) for i, a in enumerate(names) for b in names[i + 1:]]
    for graph in (DefiningGraph.from_data(names, []), DefiningGraph.from_data(names, complete)):
        assert_matrix_is_the_edge_relation(graph)
    assert DefiningGraph.from_data(names, complete).commutation_matrix == ((True,) * n,) * n


def test_commutation_matrix_matches_has_edge_on_seeded_graphs():
    rng = random.Random(71)
    for _ in range(60):
        assert_matrix_is_the_edge_relation(
            random_graph(rng, max_vertices=12, edge_probability=rng.random())
        )
