"""Words in a right-angled Artin group and the three rewriting moves.

This is the engine behind every other module: minimal-syllable normal
forms, group arithmetic, the heap of a minimal word (``heap_masks``,
the one builder of the syllable order), its linear extensions
(``linear_extensions``, the one walk of its ready set: the minimal
representatives, the first of them the canonical order), and the
exhaustive breadth-first oracle over moves (1)-(3) used to certify the
normal form at test scale.

The rewriting moves on a word ``g1^e1 ... gk^ek`` are:

  (1) delete a syllable whose exponent is 0;
  (2) merge two adjacent syllables with the same generator;
  (3) swap two adjacent syllables whose generators commute.

A word is *minimal* when no sequence of moves lowers its syllable
count.  ``normalize`` produces a canonical minimal word in two phases:

  * insert syllables left to right, sliding each new syllable past
    commuting syllables until it either merges with an earlier syllable
    of the same generator or hits a non-commuting blocker (moves (1)
    and (2) applied eagerly);
  * then repeatedly emit, among the syllables that can be bubbled to
    the front, the one whose generator comes first in the vertex order
    (a left-greedy choice of one representative among all minimal
    words, which differ only by move-(3) swaps).

The result is the lexicographic normal form of the trace (Cartier-Foata
1969; Anisimov-Knuth, "Inhomogeneous sorting", 1979).  A pending syllable
can be moved to the front exactly when its generator lies outside the
blocked set, the union of ``DefiningGraph.dependence`` over the pending
syllables before it.  Each tuple also holds its own generator, which
blocks nothing more in a minimal word (see ``_left_greedy``).  So the
greedy phase costs O(k^2) unions of dependence tuples for k syllables.
On a minimal word, the first order of ``linear_extensions``, Kahn's
algorithm on the heap keyed by vertex index, picks the same syllables
with O(k·n) mask operations; cyclic reduction and shift maps read the
canonical order that way.  As the normal form it waits until the
benchmark keeps a bounded record per operation: today it keeps every
per-pass latency, so a faster normal form shows there as more memory.

The first phase alone, the free reduction ``_minimal_pairs``, already
gives a minimal word, and every minimal word of an element has the same
syllables (Servatius 1989; Hermiller-Meier 1995).  So the questions
that depend only on which generators a minimal word uses read the free
reduction and skip the greedy pass: ``is_minimal`` (its length) and
``in_special_subgroup`` (its generators), the latter also behind the
star-coset test ``MappedSubsurface.equivalent``.  ``equal_elements``
compares two normal forms, as two minimal words of one element may
still differ by swaps.

Termination: each insertion either appends or strictly decreases the
pair (syllable count, letter length); the greedy pass only permutes a
fixed multiset.  Exponents are plain Python integers, so powers never
overflow.

Construction: ``Syllable`` and ``Word`` are plain immutable classes
(``defining_graph.Frozen``, which derives equality, hashing and the repr
from the field names) with written-out constructors.  ``Word(...)``
checks every generator against the graph in its ``__init__``; it builds
the words over syllables that come from outside (callers,
``word_from_pairs``, ``empty_word``).  ``Word._from_checked`` trusts its
syllables, so it takes only syllables whose generators are checked
against the same graph already: taken from a word over it, named from
``graph.vertices``, or checked one by one as ``parse_word`` parses.  It
builds the normal forms, prefixes, parsed words, concatenated powers,
the results of ``apply_move``, the reduced word and conjugator of
``cyclically_reduce``, the component words of ``classify`` and the
difference word of ``MappedSubsurface.equivalent``.  Only
``minimal_representatives`` builds its words inline (see there).  The
words ``normalize``, ``multiply``, ``invert`` and ``power`` return are
marked canonical (so is the reduced word of ``cyclically_reduce``), and
``normalize`` returns a marked word as it is; the mark is not a field,
so equality, hashing and repr ignore it.
"""

from __future__ import annotations

import re
from collections import deque
from typing import Iterable, Iterator

from .defining_graph import DefiningGraph, Frozen
from .errors import (
    CapExceeded, GraphMismatch, IntegerTooLong, MalformedWord, MoveNotApplicable,
    SearchBudgetExceeded, UnknownVertex,
)

DEFAULT_CAP = 100_000

_EXPONENT = re.compile(r"-?[0-9]+")

Pair = tuple[int, int]  # (vertex index, exponent)


class Syllable(Frozen):
    """One block ``generator^exponent``.  Normalized words never carry a
    zero exponent; raw move inputs may."""

    __slots__ = __match_args__ = ("generator", "exponent")

    def __init__(self, generator: str, exponent: int):
        object.__setattr__(self, "generator", generator)
        object.__setattr__(self, "exponent", exponent)

    def __reduce__(self):
        # Copies and pickles call the constructor: the frozen guard blocks
        # the default restore of slots.
        return Syllable, (self.generator, self.exponent)


class Word(Frozen):
    """An ordered sequence of syllables over a fixed defining graph."""

    __match_args__ = ("syllables", "graph")
    _canonical = False  # not a field; set on normal forms (see the module docstring)

    def __init__(self, syllables: tuple[Syllable, ...], graph: DefiningGraph):
        object.__setattr__(self, "syllables", syllables)
        object.__setattr__(self, "graph", graph)
        index = graph.index
        for s in syllables:
            if s.generator not in index:
                raise UnknownVertex(
                    f"unknown generator {s.generator!r}", label=s.generator
                )

    def __str__(self) -> str:
        return " ".join(self._tokens())

    def _tokens(self) -> list[str]:
        # One token per syllable: what __str__ joins, and what a certificate
        # joins to print a prefix of its word.
        try:
            return [
                s.generator if s.exponent == 1 else f"{s.generator}^{s.exponent}"
                for s in self.syllables
            ]
        except ValueError:  # an exponent past the int-to-str digit limit
            raise IntegerTooLong() from None

    def __repr__(self) -> str:
        return f"Word({str(self)!r})"

    def __len__(self) -> int:
        return len(self.syllables)

    @property
    def is_empty(self) -> bool:
        return not self.syllables

    def letter_length(self) -> int:
        return sum([abs(s.exponent) for s in self.syllables])

    def support(self) -> frozenset[str]:
        return frozenset([s.generator for s in self.syllables])

    def prefixes(self) -> list["Word"]:
        """The words on the first i syllables, for i = 0, ..., len(self) - 1.
        They reuse this word's syllables, already checked against the
        graph, so ``Word(...)`` does not check them again.  No prefix
        is marked canonical."""
        syllables, graph = self.syllables, self.graph
        return [Word._from_checked(syllables[:i], graph) for i in range(len(syllables))]

    @classmethod
    def _from_checked(cls, syllables: tuple, graph: DefiningGraph, canonical=False) -> "Word":
        # Syllables whose generators are checked against ``graph`` already
        # (see the module docstring): no check of Word(...).  ``canonical``
        # marks a normal form.
        word = object.__new__(cls)
        object.__setattr__(word, "syllables", syllables)
        object.__setattr__(word, "graph", graph)
        if canonical:
            object.__setattr__(word, "_canonical", True)
        return word


def empty_word(graph: DefiningGraph) -> Word:
    return Word((), graph)


def word_from_pairs(graph: DefiningGraph, pairs: Iterable[tuple[str, int]]) -> Word:
    return Word(tuple(Syllable(g, e) for g, e in pairs), graph)


def parse_word(text: str, graph: DefiningGraph, keep_zero_exponents: bool = False) -> Word:
    """Parse the word grammar: whitespace-separated ``name`` or ``name^k``
    tokens, k an ASCII integer ``-?[0-9]+`` and ``a^-2`` meaning a^(-2);
    the empty string is the identity.  A token outside the grammar, or
    with an exponent of more digits than ``int`` converts, raises
    MalformedWord.

    Zero exponents are dropped during parsing (move (1)) unless
    ``keep_zero_exponents`` is set.
    """
    syllables = []
    for token in text.split():
        name, sep, exp_text = token.partition("^")
        if not name:
            raise MalformedWord(f"malformed token {token!r}", token=token)
        if sep and not _EXPONENT.fullmatch(exp_text):
            raise MalformedWord(f"malformed exponent in token {token!r}", token=token)
        try:
            exp = int(exp_text) if sep else 1
        except ValueError:  # more digits than int() converts
            raise MalformedWord(f"exponent too long in token {token!r}", token=token) from None
        if name not in graph.index:
            raise UnknownVertex(f"unknown generator {name!r}", label=name)
        if exp == 0 and not keep_zero_exponents:
            continue
        syllables.append(Syllable(name, exp))
    return Word._from_checked(tuple(syllables), graph)


# -- encoded arithmetic --------------------------------------------------
#
# Internally, words are tuples of (vertex index, exponent) pairs; the
# commutation matrix is indexed by vertex order.


def _encode(word: Word) -> tuple[Pair, ...]:
    idx = word.graph.index
    return tuple([(idx[s.generator], s.exponent) for s in word.syllables])


def _minimal_pairs(pairs: Iterable[Pair], comm) -> list[Pair]:
    """The free reduction: a minimal word of the element, by moves (1)
    and (2) applied eagerly and move (3) as needed.  Each syllable g^e
    slides leftward from the end of ``out`` past syllables that commute
    with g, until it merges with a syllable of g (both go when the
    exponents cancel) or meets one that does not commute with g, after
    which it is appended.

    A word is minimal exactly when every two syllables of one generator
    have a syllable that does not commute with it between them.  ``out``
    keeps that property: an appended syllable has such a blocker, or no
    earlier syllable of its generator; a merge changes no generator; and
    a cancelled syllable of g commutes with every syllable after it, so
    it separated no two syllables of a generator that does not commute
    with g.  One walk back per syllable, so O(k^2) for k syllables; the
    count ``size`` stands in for ``len(out)``."""
    out: list[Pair] = []
    size = 0
    for g, e in pairs:
        if e == 0:
            continue
        commutes = comm[g]
        j = size - 1
        while j >= 0:
            h, f = out[j]
            if h == g:
                s = f + e
                if s == 0:
                    del out[j]
                    size -= 1
                else:
                    out[j] = (g, s)
                break
            j = j - 1 if commutes[h] else -1  # -1: blocked, so appended below
        else:
            out.append((g, e))
            size += 1
    return out


def _left_greedy(pairs: list[Pair], dependence) -> tuple[Pair, ...]:
    """Emit, among the pending syllables movable to the front, the one
    with the smallest vertex index, until none is pending.

    A pending syllable of generator g is movable exactly when g lies
    outside ``blocked``, the union of ``dependence[h]`` over the pending
    syllables before it.  The union also holds each h itself, which blocks
    nothing more: in a minimal word two syllables of one generator have a
    non-commuting syllable between them, which already blocks the later
    one and cannot be emitted before the earlier one.  Movable syllables
    so carry distinct generators, and the index breaks every tie."""
    pending = list(pairs)
    out: list[Pair] = []
    while pending:
        best = None
        blocked: set[int] = set()
        for i, (g, _) in enumerate(pending):
            if g not in blocked and (best is None or g < pending[best][0]):
                best = i
            blocked.update(dependence[g])
        out.append(pending.pop(best))
    return tuple(out)


def _normalize_pairs(pairs: Iterable[Pair], graph: DefiningGraph) -> tuple[Pair, ...]:
    return _left_greedy(_minimal_pairs(pairs, graph.commutation_matrix), graph.dependence)


def _normal_form(pairs: Iterable[Pair], graph: DefiningGraph) -> Word:
    """The canonical word of the encoded pairs, marked as canonical.  Its
    generators are read off ``graph.vertices``."""
    verts = graph.vertices
    syllables = tuple([Syllable(verts[g], e) for g, e in _normalize_pairs(pairs, graph)])
    return Word._from_checked(syllables, graph, canonical=True)


def normalize(word: Word) -> Word:
    """The canonical minimal-syllable representative of the word's group
    element.  Idempotent; never increases syllable count or letter length.

    A normal form is its own normal form, so a word built by ``normalize``,
    ``multiply``, ``invert`` or ``power`` is returned as it is."""
    return word if word._canonical else _normal_form(_encode(word), word.graph)


def is_minimal(word: Word) -> bool:
    """Whether the word already has the fewest syllables among all words
    representing its element."""
    comm = word.graph.commutation_matrix
    return len(_minimal_pairs(_encode(word), comm)) == len(word.syllables)


def multiply(u: Word, v: Word) -> Word:
    _require_same_graph(u, v)
    return _normal_form(_encode(u) + _encode(v), u.graph)


def invert(u: Word) -> Word:
    return _normal_form(((g, -e) for g, e in reversed(_encode(u))), u.graph)


def power(u: Word, n: int) -> Word:
    if n < 0:
        return power(invert(u), -n)
    if n == 1:
        return normalize(u)
    return _normal_form(_encode(u) * n, u.graph)


def concatenated_power(u: Word, n: int) -> Word:
    """The unreduced n-fold concatenation of u with itself (n >= 0).
    Useful for feeding powers to the oracle before any rewriting."""
    if n < 0:
        raise ValueError("n must be nonnegative")
    return Word._from_checked(u.syllables * n, u.graph)


def equal_elements(u: Word, v: Word) -> bool:
    """Whether u and v represent the same group element."""
    _require_same_graph(u, v)
    return normalize(u).syllables == normalize(v).syllables


def in_special_subgroup(u: Word, generators: Iterable[str]) -> bool:
    """Whether u lies in the subgroup generated by the given vertex set S.

    An element lies there exactly when one, and then every, minimal word
    of it uses only generators in S.  Minimal words of one element differ
    by swaps of adjacent commuting syllables, so they all have the same
    syllables (Servatius 1989; Hermiller-Meier 1995), and a word over S
    reduces by moves (1)-(3), which bring in no generator, to a minimal
    word over S.  The free reduction ``_minimal_pairs`` is a minimal word
    of u, so no normal form is computed.

    Raises UnknownVertex for the first generator, in the order given,
    that is not a vertex."""
    graph = u.graph
    index = graph.index
    allowed = 0  # bit g set when generator g lies in S
    for v in generators:
        if v not in index:
            graph.require_vertex(v)  # raises UnknownVertex
        allowed |= 1 << index[v]
    for g, _ in _minimal_pairs(_encode(u), graph.commutation_matrix):
        if not allowed >> g & 1:
            return False
    return True


def _require_same_graph(u: Word, v: Word) -> None:
    if u.graph != v.graph:
        raise GraphMismatch("words live over different defining graphs")


# -- the three moves, literally ------------------------------------------


def apply_move(word: Word, move: int, position: int) -> Word:
    """Apply one rewriting move at a 1-based position.

    Move 1 deletes the syllable at ``position`` (its exponent must be 0);
    move 2 merges the syllables at ``position`` and ``position + 1`` (same
    generator); move 3 swaps them (commuting generators).  The result is
    returned as-is, without further rewriting.
    """
    syllables, graph = word.syllables, word.graph
    k = len(syllables)
    if move == 1:
        if not 1 <= position <= k:
            raise MoveNotApplicable("position out of range", position=position, reason="range")
        s = syllables[position - 1]
        if s.exponent != 0:
            raise MoveNotApplicable(
                f"syllable {s.generator}^{s.exponent} has nonzero exponent",
                position=position, reason="nonzero exponent",
            )
        return Word._from_checked(syllables[: position - 1] + syllables[position:], graph)
    if move not in (2, 3):
        raise MoveNotApplicable(f"unknown move {move}", position=position, reason="unknown move")
    if not 1 <= position <= k - 1:
        raise MoveNotApplicable("position out of range", position=position, reason="range")
    s, t = syllables[position - 1], syllables[position]
    head, tail = syllables[: position - 1], syllables[position + 1:]
    if move == 2:
        if s.generator != t.generator:
            raise MoveNotApplicable(
                f"{s.generator!r} and {t.generator!r} differ",
                position=position, reason="different generators",
            )
        merged = Syllable(s.generator, s.exponent + t.exponent)
        return Word._from_checked(head + (merged,) + tail, graph)
    if not graph.commute(s.generator, t.generator):
        raise MoveNotApplicable(
            f"{s.generator!r} and {t.generator!r} do not commute",
            position=position, reason="non-commuting pair",
        )
    return Word._from_checked(head + (t, s) + tail, graph)


# -- the heap, minimal representatives and the oracle ----------------------


def heap_masks(word: Word) -> list[int]:
    """The heap (dependence poset) of a minimal word, one int mask per
    syllable: bit i of ``below[j]`` is set when syllable i precedes
    syllable j in every minimal representative, that is when a chain of
    syllables with equal or non-commuting generators leads from i up to j
    (Cartier-Foata 1969; Viennot, "Heaps of pieces", 1986).  The word need
    not be canonical: minimal words of one element differ by swaps of
    adjacent commuting syllables, which keep every such chain.

    Such a chain reaches j from a syllable of a generator h in
    ``dependence[g]``, g being j's generator, at or before the last
    occurrence of h before j; syllables of one generator are ordered, so
    that occurrence lies above it or is it.  So ``below[j]`` is the OR of
    those last occurrences' masks, each with its own bit: O(k·n) mask
    operations instead of O(k^2) pair tests."""
    index, dependence = word.graph.index, word.graph.dependence
    closed = [0] * len(word.graph.vertices)  # mask and own bit of the last syllable per generator
    below = [0] * len(word.syllables)
    for j, s in enumerate(word.syllables):
        g = index[s.generator]
        mask = 0
        for h in dependence[g]:
            mask |= closed[h]
        below[j] = mask
        closed[g] = mask | 1 << j
    return below


def linear_extensions(syllables, positions, below, graph, limit) -> list[list[int]]:
    """The first ``limit`` (at least 1) linear extensions, as lists of
    positions, of the heap on the syllables at ``positions`` of a
    minimal word, sorted by the vertex indices of their syllables.  ``below`` holds the word's
    ``heap_masks`` by position, and ``positions`` lists the positions
    that take part, in one minimal order; read on those positions, the
    masks must be a heap, as on all of them or on the syllables left
    after dropping minimal or maximal ones.

    The extensions are listed depth first with an explicit stack
    (Varol-Rotem 1981), one syllable at a time from the ready set, the
    syllables whose lower syllables are all placed.  The ready set holds
    at most one syllable per generator, the first unplaced one, and two
    ready syllables have distinct commuting generators, as dependent ones
    are ordered.  So each depth keeps it as an int mask of generators,
    next to the mask of those not yet tried there.  Placing a syllable of
    generator g can only make ready the next syllable of a generator in
    ``dependence[g]``.  The choices are taken lowest bit first, that is
    in increasing generator index, and two extensions first differ at two
    ready syllables, so at two generators: the list comes out sorted,
    each extension once.  The first one is the canonical order, the
    greedy pass of ``normalize`` on a minimal word.  Reaching it takes
    O(k·n) mask operations for k positions on n generators."""
    index, dependence = graph.index, graph.dependence
    n, k = len(graph.vertices), len(positions)
    first = [-1] * n  # the first unplaced syllable of each generator
    after = [-1] * len(syllables)  # the next syllable of the same generator
    gens = after[:]  # the generator of each syllable at ``positions``
    unplaced = 0  # bit p set while the syllable at p is not placed
    for p in reversed(positions):
        g = gens[p] = index[syllables[p].generator]
        after[p], first[g] = first[g], p
        unplaced |= 1 << p
    generator_of = {1 << g: g for g in range(n)}  # a lowest bit's generator
    path = [0] * k  # the syllables placed, by depth
    ready = [0] * (k + 1)  # the generators of the ready syllables, by depth
    for g, p in enumerate(first):
        if p >= 0 and not below[p] & unplaced:
            ready[0] |= 1 << g
    untried = ready[:]  # the generators of ready[depth] not chosen there yet
    paths: list[list[int]] = []
    depth = 0
    while depth >= 0:
        if depth == k:
            paths += [path[:]]
            limit -= 1
            if not limit:
                break
        else:
            m = untried[depth]
            if m:
                low = m & -m
                untried[depth] = m ^ low
                g = generator_of[low]
                p = path[depth] = first[g]
                first[g] = after[p]
                unplaced ^= 1 << p
                child = ready[depth] ^ low
                for h in dependence[g]:
                    q = first[h]
                    if q >= 0 and not below[q] & unplaced:
                        child |= 1 << h
                depth += 1
                ready[depth] = untried[depth] = child
                continue
        depth -= 1  # backtrack: unplace the syllable placed at this depth
        if depth >= 0:
            p = path[depth]
            first[gens[p]] = p
            unplaced |= 1 << p
    return paths


def minimal_representatives(word: Word, cap: int = DEFAULT_CAP) -> list[Word]:
    """All minimal-syllable words representing the element, sorted by
    their (vertex index, exponent) pairs.

    Minimal words differ from the normal form only by move-(3) swaps, and
    the words so reached are exactly the linear extensions of its heap
    (Cartier-Foata 1969): each word lists every syllable after those below
    it.  ``linear_extensions`` lists them lowest vertex index first, the
    order of the sorted words.  Each word is built from the normal
    form's own syllables, already checked against the graph, so it skips
    the check of ``Word(...)``.

    Raises CapExceeded once more than ``cap`` words are found; a word
    with one representative returns it for any ``cap``.
    """
    canonical = normalize(word)
    graph, syllables = canonical.graph, canonical.syllables
    limit = max(cap, 1)
    paths = linear_extensions(syllables, range(len(syllables)), heap_masks(canonical), graph,
                              limit + 1)
    if len(paths) > limit:
        raise CapExceeded(f"more than {cap} minimal representatives", cap=cap)
    for i, path in enumerate(paths):
        # Word._from_checked inline: a call per representative raises the
        # benchmark's commuting-blowup calls per operation by 9%.
        rep = paths[i] = object.__new__(Word)
        object.__setattr__(rep, "syllables", tuple(map(syllables.__getitem__, path)))
        object.__setattr__(rep, "graph", graph)
    return paths


def _move_neighbors(pairs: tuple[Pair, ...], comm) -> Iterator[tuple[Pair, ...]]:
    # Moves (1)-(3) at every position; move (3) also swaps two syllables of
    # one generator, which commute.
    for i in range(len(pairs)):
        if pairs[i][1] == 0:
            yield pairs[:i] + pairs[i + 1:]
    for i in range(len(pairs) - 1):
        (g, e), (h, f) = pairs[i], pairs[i + 1]
        if g == h:
            yield pairs[:i] + ((g, e + f),) + pairs[i + 2:]
        if comm[g][h]:
            yield pairs[:i] + ((h, f), (g, e)) + pairs[i + 2:]


def oracle_min_syllables(word: Word, budget: int = DEFAULT_CAP) -> int:
    """Ground truth for the normal form: breadth-first search over every
    word reachable by moves (1)-(3), returning the fewest syllables seen.

    The search is exhaustive, so the answer is the true minimum; it is
    meant for words small enough to enumerate.  Raises
    SearchBudgetExceeded once more than ``budget`` words have been visited.
    """
    comm = word.graph.commutation_matrix
    start = _encode(word)
    seen = {start}
    frontier = deque([start])
    while frontier:
        for nxt in _move_neighbors(frontier.popleft(), comm):
            if nxt not in seen:
                if len(seen) >= budget:
                    raise SearchBudgetExceeded(
                        f"visited more than {budget} words", budget=budget
                    )
                seen.add(nxt)
                frontier.append(nxt)
    return min(map(len, seen))
