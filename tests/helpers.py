"""Independent brute-force routines the tests check the library against.

Everything above the greedy-pass reference is deliberately written
from scratch against the move definitions, without reusing the
library's search or ordering code.  ``reference_left_greedy`` keeps the
normal form's greedy pass as it scanned the commutation matrix, before
it read the dependence tuples.  ``swap_closure_representatives``
sorts the swap closure of the normal form, the reference for the heap
walk of ``minimal_representatives``.  The enumeration references at the
end keep the exhaustive algorithms that the dependence poset replaced,
run over that closure rather than over ``minimal_representatives``, so
that nothing compared with the heap is computed from the heap; and the
trial-conjugation reduction that multiplies out each candidate
conjugate instead of reading the merge off the heap.
``reference_power_checks`` keeps the power checks of
``verify_power_properties`` as they read normal forms of the powers,
shift maps and pair sets, before they read the heap of each power's
concatenation.  ``reference_covering_pairs`` keeps the Hasse edges as
they were read off every pair of masks, before they came from the last
syllable of each generator; ``reference_order_embedding`` keeps the pair
loops of ``check_order_embedding``, to be fed the same heap, corrupted
or not.  ``reference_in_special_subgroup`` and ``reference_equivalent``
keep the subgroup and star-coset tests as they read the normal form of
the word, and of the multiplied-out prefix^-1 * other, before they read
the free reduction; ``enumerated_order_embedding`` compares values with
``reference_equivalent``.  ``reference_make_certificate``,
``reference_certificate_json`` and ``reference_classify`` keep the
certificate, its JSON and the classification as they were built before
one walk over the canonical word fed them: the assignment as a dict
keyed by syllable id, every prefix formatted on its own, and one
``fill`` per component, each component word checked again.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import product

from raagmcg import (
    DEFAULT_CAP,
    Certificate,
    CertificateEntry,
    CheckResult,
    ClassificationReport,
    ComponentReport,
    Constants,
    GraphMismatch,
    IntegerTooLong,
    MappedSubsurface,
    NotCyclicallyReduced,
    Realization,
    Syllable,
    SyllableId,
    SyllableOrder,
    Word,
    build_standard_realization,
    concatenated_power,
    cyclically_reduce,
    empty_word,
    fill,
    invert,
    is_cyclically_reduced,
    multiply,
    normalize,
    oracle_min_syllables,
    power,
    power_shift_map,
    syllable_order,
    syllable_subsurface_map,
    word_from_pairs,
)
from raagmcg.subsurface_map import _fmt, _total


def naive_swap_closure(word: Word) -> set[tuple[tuple[str, int], ...]]:
    """Closure of a word under single adjacent commuting swaps, grown from
    a worklist over a plain set: each word is scanned once, when it is
    taken off the worklist."""
    graph = word.graph
    start = tuple((s.generator, s.exponent) for s in word.syllables)
    closure = {start}
    pending = [start]
    while pending:
        w = pending.pop()
        for i in range(len(w) - 1):
            (g, e), (h, f) = w[i], w[i + 1]
            if g != h and graph.has_edge(g, h):
                swapped = w[:i] + ((h, f), (g, e)) + w[i + 2:]
                if swapped not in closure:
                    closure.add(swapped)
                    pending.append(swapped)
    return closure


def swap_closure_representatives(word: Word) -> list[Word]:
    """The ``naive_swap_closure`` of the normal form, as words sorted by
    their (vertex index, exponent) pairs."""
    graph = word.graph

    def key(pairs):
        return [(graph.index[g], e) for g, e in pairs]

    closure = naive_swap_closure(normalize(word))
    return [word_from_pairs(graph, pairs) for pairs in sorted(closure, key=key)]


def positional_ids(syllables) -> list[tuple[str, int, int]]:
    counts: dict[tuple[str, int], int] = {}
    out = []
    for g, e in syllables:
        counts[(g, e)] = counts.get((g, e), 0) + 1
        out.append((g, e, counts[(g, e)]))
    return out


def intersection_order(closure) -> set[tuple[tuple, tuple]]:
    """Pairs (s, t) such that s comes before t in every word of the
    closure, on positionally-identified syllables."""
    words = [positional_ids(w) for w in closure]
    ids = set(words[0])
    pairs = set()
    for s in ids:
        for t in ids:
            if s == t:
                continue
            if all(w.index(s) < w.index(t) for w in words):
                pairs.add((s, t))
    return pairs


def conjugacy_oracle_min_syllables(word: Word, letter_bound: int) -> int:
    """Minimum syllable count over all conjugates by words of letter
    length up to ``letter_bound`` (exhaustive at desk scale)."""
    graph = word.graph
    letters = [
        Word((Syllable(g, e),), graph) for g in graph.vertices for e in (1, -1)
    ]
    best = len(normalize(word).syllables)
    for length in range(1, letter_bound + 1):
        for combo in product(letters, repeat=length):
            tau = combo[0]
            for factor in combo[1:]:
                tau = multiply(tau, factor)
            conjugate = multiply(multiply(tau, word), invert(tau))
            best = min(best, len(conjugate.syllables))
    return best


# -- greedy-pass reference ------------------------------------------------------


def reference_left_greedy(pairs, comm):
    """The greedy pass of the normal form as it was before it read
    ``DefiningGraph.dependence``: each pending syllable blocks the
    generators whose row of the commutation matrix is False.  Takes the
    minimal (vertex index, exponent) pairs and the matrix."""
    # Among the syllables movable to the front (everything earlier
    # commutes with them), emit the one with the smallest vertex index.
    # Movable candidates always carry distinct generators, so the index
    # breaks every tie.
    n = len(comm)
    pending = list(pairs)
    out = []
    while pending:
        best = None
        blocked: set[int] = set()
        for i, (g, _) in enumerate(pending):
            if g not in blocked and (best is None or g < pending[best][0]):
                best = i
            row = comm[g]
            blocked.update(h for h in range(n) if not row[h])
        out.append(pending.pop(best))
    return tuple(out)


# -- enumeration references ----------------------------------------------------


def _ids(word: Word) -> list[SyllableId]:
    return [SyllableId(*t) for t in positional_ids(
        (s.generator, s.exponent) for s in word.syllables
    )]


def enumerated_order(word: Word) -> tuple[tuple, frozenset]:
    """(elements, precedes) by intersecting the positional orders of all
    words of the swap closure."""
    canonical = normalize(word)
    elements = tuple(_ids(canonical))
    precedes = None
    for rep in swap_closure_representatives(canonical):
        ids = _ids(rep)
        pairs = {(s, t) for i, s in enumerate(ids) for t in ids[i + 1:]}
        precedes = pairs if precedes is None else precedes & pairs
    return elements, frozenset(precedes or ())


def probed_covering_pairs(elements, precedes) -> list[tuple]:
    """Hasse edges by probing every middle element, sorted by position."""
    covers = [
        (s, t) for s, t in precedes
        if not any((s, u) in precedes and (u, t) in precedes for u in elements)
    ]
    pos = {sid: i for i, sid in enumerate(elements)}
    return sorted(covers, key=lambda p: (pos[p[0]], pos[p[1]]))


def _enumerated_reduction(current: Word):
    # For every sorted minimal representative, try conjugating away its
    # first syllable and then its last; the first strict decrease wins.
    # Outcomes are memoised per conjugation, which keeps the order.
    k = len(current.syllables)
    tried = {}
    for rep in swap_closure_representatives(current):
        for side, syllable in (("first", rep.syllables[0]), ("last", rep.syllables[-1])):
            if (side, syllable) not in tried:
                one = Word((syllable,), current.graph)
                if side == "first":
                    found = (multiply(multiply(invert(one), current), one), one)
                else:
                    found = (multiply(multiply(one, current), invert(one)), invert(one))
                tried[side, syllable] = found if len(found[0].syllables) < k else None
            if tried[side, syllable] is not None:
                return tried[side, syllable]
    return None


def enumerated_cyclic_reduction(word: Word) -> tuple[Word, Word]:
    """(reduced, conjugator) by the sorted-representatives candidate loop."""
    current = normalize(word)
    conjugator = empty_word(word.graph)
    while current.syllables:
        found = _enumerated_reduction(current)
        if found is None:
            break
        current, factor = found
        conjugator = multiply(conjugator, factor)
    return current, conjugator


def enumerated_is_cyclically_reduced(word: Word) -> bool:
    current = normalize(word)
    return not current.syllables or _enumerated_reduction(current) is None


def _trial_reduction(current: Word):
    # Conjugate the first syllable to the back, then each maximal syllable
    # of the heap, right to left and skipping position 0, to the front;
    # the first conjugate with fewer syllables wins.
    syllables = current.syllables
    k = len(syllables)
    first = Word(syllables[:1], current.graph)
    candidate = multiply(multiply(invert(first), current), first)
    if len(candidate.syllables) < k:
        return candidate, first
    order = syllable_order(current)
    below_something = {s for s, _ in order.precedes}
    for p in range(k - 1, 0, -1):
        if order.elements[p] not in below_something:
            last = Word((syllables[p],), current.graph)
            candidate = multiply(multiply(last, current), invert(last))
            if len(candidate.syllables) < k:
                return candidate, invert(last)
    return None


def trial_cyclic_reduction(word: Word) -> tuple[Word, Word]:
    """(reduced, conjugator) by multiplying out every candidate conjugate."""
    current = normalize(word)
    conjugator = empty_word(word.graph)
    while True:
        found = _trial_reduction(current)
        if found is None:
            return current, conjugator
        current, factor = found
        conjugator = multiply(conjugator, factor)


def trial_is_cyclically_reduced(word: Word) -> bool:
    return _trial_reduction(normalize(word)) is None


def reference_in_special_subgroup(u: Word, generators) -> bool:
    """Subgroup membership read off the normal form.  Unknown generators
    are checked in the iteration order of a set."""
    gens = set(generators)
    for g in gens:
        u.graph.require_vertex(g)
    return all(s.generator in gens for s in normalize(u).syllables)


def reference_equivalent(first: MappedSubsurface, second: MappedSubsurface) -> bool:
    """Star-coset equality by multiplying out first.prefix^-1 * second.prefix."""
    if first.base_vertex != second.base_vertex:
        return False
    difference = multiply(invert(first.prefix), second.prefix)
    return reference_in_special_subgroup(difference, first.prefix.graph.star(first.base_vertex))


def enumerated_order_embedding(word: Word) -> CheckResult:
    """The order-embedding check with adjacency witnesses found by
    scanning the sorted minimal representatives."""
    canonical = normalize(word)
    reference = syllable_subsurface_map(canonical)
    ids = list(reference)
    for i in range(len(ids)):
        for j in range(i + 1, len(ids)):
            if reference_equivalent(reference[ids[i]], reference[ids[j]]):
                return CheckResult(
                    False,
                    f"{ids[i].label()} and {ids[j].label()} map to the same subsurface",
                )
    _, precedes = enumerated_order(canonical)
    graph = word.graph
    reps = [(rep, _ids(rep)) for rep in swap_closure_representatives(canonical)]
    for i, s in enumerate(ids):
        for t in ids[i + 1:]:
            if (s, t) in precedes or (t, s) in precedes:
                continue
            if not graph.has_edge(s.generator, t.generator):
                return CheckResult(
                    False,
                    f"unordered pair {s.label()}, {t.label()} with non-commuting generators",
                )
            witness = None
            for rep, rep_ids in reps:
                ps, pt = rep_ids.index(s), rep_ids.index(t)
                if abs(ps - pt) == 1:
                    witness = Word(rep.syllables[:min(ps, pt)], graph)
                    break
            if witness is None:
                return CheckResult(
                    False, f"unordered pair {s.label()}, {t.label()} never becomes adjacent"
                )
            for sid in (s, t):
                if not reference_equivalent(MappedSubsurface(witness, sid.generator),
                                            reference[sid]):
                    return CheckResult(
                        False,
                        f"{sid.label()} is not the shared-prefix translate of its base",
                    )
    return CheckResult(True)


# -- power-check reference -------------------------------------------------------

PASS = "pass"
FAIL = "fail"
PRECONDITION_UNMET = "precondition_unmet"


def reference_power_checks(
    word: Word,
    cap: int = DEFAULT_CAP,
    realization: Realization | None = None,
    oracle_budget: int = DEFAULT_CAP,
    max_power: int = 4,
) -> dict[str, dict]:
    """The whole ``verify_power_properties`` report, with each power's
    normal form, ``power_shift_map`` and the ``precedes`` pair sets of the
    square and the (r+1)-st power."""
    canonical = normalize(word)
    if not is_cyclically_reduced(canonical):
        raise NotCyclicallyReduced("word is not conjugacy-minimal")
    graph = canonical.graph
    if realization is None:
        realization = build_standard_realization(graph)
    elif realization.graph != graph:
        raise GraphMismatch("word and realization use different defining graphs")
    r = len(canonical.support())
    if r == 0:
        status = {"status": PASS, "note": "empty word; nothing to check"}
        return {
            "image_coverage": dict(status),
            "power_minimality": dict(status),
            "square_precedence": dict(status),
            "power_comparability": dict(status),
        }

    filled = fill(realization, [s.generator for s in canonical.syllables])
    report: dict[str, dict] = {}
    if filled.fills_ambient:
        report["image_coverage"] = {
            "status": PASS,
            "note": "every reference curve meets a syllable image",
        }
    else:
        uncovered = sorted(filled.uncovered_curves, key=realization.reference_curves.index)
        report["image_coverage"] = {
            "status": PRECONDITION_UNMET,
            "note": f"support does not fill; uncovered curves {uncovered}",
        }

    if r < 2 or len(filled.components) != 1:
        note = (
            "support has a single generator"
            if r < 2
            else "support is disconnected in the complement graph"
        )
        skipped = {"status": PRECONDITION_UNMET, "note": note}
        report["power_minimality"] = dict(skipped)
        report["square_precedence"] = dict(skipped)
        report["power_comparability"] = dict(skipped)
        return report

    k = len(canonical.syllables)
    checked = range(2, max_power + 1)
    powers = {n: power(canonical, n) for n in {*checked, 2, r + 1}}
    bad_powers = []
    for n in checked:
        found = oracle_min_syllables(concatenated_power(canonical, n), oracle_budget)
        if found != n * k or len(powers[n].syllables) != n * k:
            bad_powers.append(n)
    report["power_minimality"] = (
        {"status": PASS, "note": f"powers 2..{max_power} stay minimal"}
        if not bad_powers
        else {"status": FAIL, "note": f"powers {bad_powers} collapse"}
    )

    square_order = syllable_order(powers[2])
    shift_one = power_shift_map(canonical, 1, 2)
    ids = list(shift_one)
    misses = [s.label() for s in ids if (s, shift_one[s]) not in square_order.precedes]
    report["square_precedence"] = (
        {"status": PASS, "note": "every syllable precedes its shifted copy"}
        if not misses
        else {"status": FAIL, "note": f"syllables {misses} do not precede their shifts"}
    )

    high_order = syllable_order(powers[r + 1])
    shift_r = power_shift_map(canonical, 1, r + 1)
    miss_pairs = [
        (s.label(), t.label())
        for s in ids
        for t in ids
        if (s, shift_r[t]) not in high_order.precedes
    ]
    report["power_comparability"] = (
        {"status": PASS, "note": f"all pairs comparable across {r} blocks"}
        if not miss_pairs
        else {"status": FAIL, "note": f"incomparable pairs {miss_pairs[:5]}"}
    )
    return report


# -- heap-consumer references ------------------------------------------------------


def reference_covering_pairs(order: SyllableOrder) -> list[tuple[SyllableId, SyllableId]]:
    """The Hasse edges of the heap: each element's mask minus the masks of
    the elements in it, read for every pair of positions."""
    below = order.below
    covers = []
    for mask in below:
        through = 0  # everything below something below this element
        for i, lower in enumerate(below):
            if mask >> i & 1:
                through |= lower
        covers.append(mask & ~through)
    ids = order.elements
    return [(s, t) for i, s in enumerate(ids) for t, c in zip(ids, covers) if c >> i & 1]


def reference_order_embedding(order: SyllableOrder, graph) -> tuple[bool, str]:
    """(ok, detail) of the three pair tests of ``check_order_embedding``
    on the given heap of a word over ``graph``."""
    ids, below = order.elements, order.below
    outside = {}
    for v in {s.generator for s in ids}:
        star = graph.star(v)
        outside[v] = sum(1 << p for p, s in enumerate(ids) if s.generator not in star)
    for i, s in enumerate(ids):
        for j, t in enumerate(ids[i + 1:], i + 1):
            v = s.generator
            if v == t.generator and not outside[v] & (((1 << i) - 1) ^ ((1 << j) - 1)):
                return False, f"{s.label()} and {t.label()} map to the same subsurface"
    for i, s in enumerate(ids):
        for j, t in enumerate(ids[i + 1:], i + 1):
            if below[j] >> i & 1:
                continue
            if outside[s.generator] >> j & 1:
                return (False,
                        f"unordered pair {s.label()}, {t.label()} with non-commuting generators")
            down = below[i] | below[j]
            for p, sid in ((i, s), (j, t)):
                if outside[sid.generator] & (down ^ ((1 << p) - 1)):
                    return False, f"{sid.label()} is not the shared-prefix translate of its base"
    return True, ""


# -- certificate and classification references -----------------------------------


def reference_text(word: Word) -> str:
    """``str(word)``, formatted syllable by syllable."""
    try:
        return " ".join(
            s.generator if s.exponent == 1 else f"{s.generator}^{s.exponent}"
            for s in word.syllables
        )
    except ValueError:  # an exponent past the int-to-str digit limit
        raise IntegerTooLong() from None


def reference_subsurface_map(word: Word) -> dict[SyllableId, MappedSubsurface]:
    """The syllable-to-subsurface map keyed by id, each prefix checked
    again through ``Word(...)`` and each id counted with ``positional_ids``."""
    canonical = normalize(word)
    syllables, graph = canonical.syllables, canonical.graph
    ids = positional_ids((s.generator, s.exponent) for s in syllables)
    return {
        SyllableId(*sid): MappedSubsurface(Word(syllables[:i], graph), s.generator)
        for i, (sid, s) in enumerate(zip(ids, syllables))
    }


def reference_make_certificate(word: Word, constants: Constants) -> Certificate:
    """``make_certificate`` with its entries read off the dict of
    ``reference_subsurface_map``."""
    constants.validate(word.graph)
    canonical = normalize(word)
    total = _total(constants.k, sum(abs(s.exponent) for s in canonical.syllables))
    entries = tuple(
        CertificateEntry(sid, sub, constants.k * abs(sid.exponent))
        for sid, sub in reference_subsurface_map(canonical).items()
    )
    rhs = f"({_fmt(total)} - {_fmt(constants.b)})/{_fmt(constants.a)}"
    templates = (f"d_MM >= {rhs}", f"d_WP >= {rhs}", f"d_T >= {rhs}")
    return Certificate(canonical, constants, entries, total, templates)


def reference_certificate_json(certificate: Certificate) -> dict:
    """``Certificate.to_json_dict`` with every prefix formatted on its own."""
    return {
        "sigma": reference_text(certificate.sigma),
        "constants": certificate.constants.to_json_dict(),
        "entries": [
            {
                "syllable": e.syllable.label(),
                "prefix": reference_text(e.subsurface.prefix),
                "base": e.subsurface.base_vertex,
                "bound": e.bound,
            }
            for e in certificate.entries
        ],
        "total": certificate.total,
        "templates": list(certificate.templates),
    }


def reference_classify(word: Word, realization: Realization) -> ClassificationReport:
    """``classify`` with one ``fill`` per component and every component
    word checked again through ``Word(...)``."""
    if word.graph != realization.graph:
        raise GraphMismatch("word and realization use different defining graphs")
    canonical = normalize(word)
    reduced, conjugator = cyclically_reduce(canonical)
    support = sorted({s.generator for s in reduced.syllables}, key=word.graph.index.get)
    r = len(support)
    if r == 0:
        return ClassificationReport(canonical, reduced, conjugator, 0, (), "identity", None)
    components = tuple(
        ComponentReport(
            generators=part,
            word=Word(tuple(s for s in reduced.syllables if s.generator in part), word.graph),
            fills_ambient=fill(realization, part).fills_ambient,
        )
        for part in fill(realization, support).components
    )
    pseudo_anosov = len(components) == 1 and components[0].fills_ambient
    return ClassificationReport(
        canonical, reduced, conjugator, r, components,
        "pseudo_anosov" if pseudo_anosov else "reducible",
        Fraction(1, 2 * r + 1) if pseudo_anosov else None,
    )
