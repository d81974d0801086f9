"""Independent brute-force routines the tests check the library against.

Everything above the enumeration references is deliberately written
from scratch against the move definitions, without reusing the
library's search or ordering code.  ``swap_closure_representatives``
sorts the swap closure of the normal form, the reference for the heap
walk of ``minimal_representatives``.  The enumeration references at the
end keep the exhaustive algorithms that the dependence poset replaced,
run over that closure rather than over ``minimal_representatives``, so
that nothing compared with the heap is computed from the heap; and the
trial-conjugation reduction that multiplies out each candidate
conjugate instead of reading the merge off the heap.
"""

from __future__ import annotations

from itertools import product

from raagmcg import (
    CheckResult,
    MappedSubsurface,
    Syllable,
    SyllableId,
    Word,
    empty_word,
    invert,
    multiply,
    normalize,
    syllable_order,
    syllable_subsurface_map,
    word_from_pairs,
)


def naive_swap_closure(word: Word) -> set[tuple[tuple[str, int], ...]]:
    """Fixpoint closure of a word under single adjacent commuting swaps,
    via repeated full rescans of a plain set."""
    graph = word.graph
    start = tuple((s.generator, s.exponent) for s in word.syllables)
    closure = {start}
    grew = True
    while grew:
        grew = False
        for w in list(closure):
            for i in range(len(w) - 1):
                (g, e), (h, f) = w[i], w[i + 1]
                if g != h and graph.has_edge(g, h):
                    swapped = w[:i] + ((h, f), (g, e)) + w[i + 2:]
                    if swapped not in closure:
                        closure.add(swapped)
                        grew = True
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


def enumerated_order_embedding(word: Word) -> CheckResult:
    """The order-embedding check with adjacency witnesses found by
    scanning the sorted minimal representatives."""
    canonical = normalize(word)
    reference = syllable_subsurface_map(canonical)
    ids = list(reference)
    for i in range(len(ids)):
        for j in range(i + 1, len(ids)):
            if reference[ids[i]].equivalent(reference[ids[j]]):
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
                if not MappedSubsurface(witness, sid.generator).equivalent(reference[sid]):
                    return CheckResult(
                        False,
                        f"{sid.label()} is not the shared-prefix translate of its base",
                    )
    return CheckResult(True)
