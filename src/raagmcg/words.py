"""Words in a right-angled Artin group and the three rewriting moves.

This is the engine behind every other module: minimal-syllable normal
forms, group arithmetic, the heap of a canonical word (``heap_masks``,
the one builder of the syllable order), enumeration of all minimal
representatives as the linear extensions of that heap, and the
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

Termination: each insertion either appends or strictly decreases the
pair (syllable count, letter length); the greedy pass only permutes a
fixed multiset.  Exponents are plain Python integers, so powers never
overflow.

The words ``normalize``, ``multiply``, ``invert`` and ``power`` return are
marked canonical (so is the reduced word of ``cyclically_reduce``), and
``normalize`` returns a marked word as it is; the mark is not a field,
so equality, hashing and repr ignore it.
"""

from __future__ import annotations

import re
from collections import deque
from dataclasses import dataclass
from typing import Iterable, Iterator

from .defining_graph import DefiningGraph
from .errors import (
    CapExceeded, GraphMismatch, MalformedWord, MoveNotApplicable, SearchBudgetExceeded,
    UnknownVertex,
)

DEFAULT_CAP = 100_000

_EXPONENT = re.compile(r"-?[0-9]+")

Pair = tuple[int, int]  # (vertex index, exponent)


@dataclass(frozen=True)
class Syllable:
    """One block ``generator^exponent``.  Normalized words never carry a
    zero exponent; raw move inputs may."""

    generator: str
    exponent: int


@dataclass(frozen=True)
class Word:
    """An ordered sequence of syllables over a fixed defining graph."""

    syllables: tuple[Syllable, ...]
    graph: DefiningGraph
    _canonical = False  # not a field; set on normal forms (see the module docstring)

    def __post_init__(self):
        for s in self.syllables:
            if s.generator not in self.graph.index:
                raise UnknownVertex(
                    f"unknown generator {s.generator!r}", label=s.generator
                )

    def __str__(self) -> str:
        return " ".join(
            s.generator if s.exponent == 1 else f"{s.generator}^{s.exponent}"
            for s in self.syllables
        )

    def __repr__(self) -> str:
        return f"Word({str(self)!r})"

    def __len__(self) -> int:
        return len(self.syllables)

    def __mul__(self, other: "Word") -> "Word":
        return multiply(self, other)

    @property
    def is_empty(self) -> bool:
        return not self.syllables

    def letter_length(self) -> int:
        return sum(abs(s.exponent) for s in self.syllables)

    def support(self) -> frozenset[str]:
        return frozenset(s.generator for s in self.syllables)

    def normalize(self) -> "Word":
        return normalize(self)

    def is_minimal(self) -> bool:
        return is_minimal(self)

    def inverse(self) -> "Word":
        return invert(self)

    def power(self, n: int) -> "Word":
        return power(self, n)


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
    return Word(tuple(syllables), graph)


# -- encoded arithmetic --------------------------------------------------
#
# Internally, words are tuples of (vertex index, exponent) pairs; the
# commutation matrix is indexed by vertex order.


def _encode(word: Word) -> tuple[Pair, ...]:
    idx = word.graph.index
    return tuple((idx[s.generator], s.exponent) for s in word.syllables)


def _decode(pairs: Iterable[Pair], graph: DefiningGraph) -> Word:
    verts = graph.vertices
    return Word(tuple(Syllable(verts[g], e) for g, e in pairs), graph)


def _push(out: list[Pair], g: int, e: int, comm) -> None:
    # Slide g^e leftward from the end of ``out`` until it merges with a
    # syllable of the same generator or is blocked.  Keeps ``out`` minimal.
    if e == 0:
        return
    j = len(out) - 1
    while j >= 0:
        gj, ej = out[j]
        if gj == g:
            s = ej + e
            if s == 0:
                del out[j]
            else:
                out[j] = (g, s)
            return
        if not comm[gj][g]:
            break
        j -= 1
    out.append((g, e))


def _minimal_pairs(pairs: Iterable[Pair], comm) -> list[Pair]:
    out: list[Pair] = []
    for g, e in pairs:
        _push(out, g, e, comm)
    return out


def _left_greedy(pairs: list[Pair], comm) -> tuple[Pair, ...]:
    # Among the syllables movable to the front (everything earlier
    # commutes with them), emit the one with the smallest vertex index.
    # Movable candidates always carry distinct generators, so the index
    # breaks every tie.
    n = len(comm)
    pending = list(pairs)
    out: list[Pair] = []
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


def _normalize_pairs(pairs: Iterable[Pair], comm) -> tuple[Pair, ...]:
    return _left_greedy(_minimal_pairs(pairs, comm), comm)


def _normal_form(pairs: Iterable[Pair], graph: DefiningGraph) -> Word:
    """The canonical word of the encoded pairs, marked as canonical."""
    word = _decode(_normalize_pairs(pairs, graph.commutation_matrix), graph)
    object.__setattr__(word, "_canonical", True)
    return word


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
    return Word(u.syllables * n, u.graph)


def equal_elements(u: Word, v: Word) -> bool:
    """Whether u and v represent the same group element."""
    _require_same_graph(u, v)
    return normalize(u).syllables == normalize(v).syllables


def in_special_subgroup(u: Word, generators: Iterable[str]) -> bool:
    """Whether u lies in the subgroup generated by the given vertex set.
    An element lies there exactly when its normal form only uses those
    generators."""
    gens = set(generators)
    for g in gens:
        u.graph.require_vertex(g)
    return all(s.generator in gens for s in normalize(u).syllables)


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
    k = len(word.syllables)
    if move == 1:
        if not 1 <= position <= k:
            raise MoveNotApplicable("position out of range", position=position, reason="range")
        s = word.syllables[position - 1]
        if s.exponent != 0:
            raise MoveNotApplicable(
                f"syllable {s.generator}^{s.exponent} has nonzero exponent",
                position=position, reason="nonzero exponent",
            )
        return Word(word.syllables[: position - 1] + word.syllables[position:], word.graph)
    if move not in (2, 3):
        raise MoveNotApplicable(f"unknown move {move}", position=position, reason="unknown move")
    if not 1 <= position <= k - 1:
        raise MoveNotApplicable("position out of range", position=position, reason="range")
    s, t = word.syllables[position - 1], word.syllables[position]
    if move == 2:
        if s.generator != t.generator:
            raise MoveNotApplicable(
                f"{s.generator!r} and {t.generator!r} differ",
                position=position, reason="different generators",
            )
        merged = Syllable(s.generator, s.exponent + t.exponent)
        return Word(
            word.syllables[: position - 1] + (merged,) + word.syllables[position + 1:],
            word.graph,
        )
    if not word.graph.commute(s.generator, t.generator):
        raise MoveNotApplicable(
            f"{s.generator!r} and {t.generator!r} do not commute",
            position=position, reason="non-commuting pair",
        )
    return Word(
        word.syllables[: position - 1] + (t, s) + word.syllables[position + 1:],
        word.graph,
    )


# -- the heap, minimal representatives and the oracle ----------------------


def heap_masks(word: Word) -> list[int]:
    """The heap (dependence poset) of a canonical word, one int mask per
    syllable: bit i of ``below[j]`` is set when syllable i precedes
    syllable j in every minimal representative, that is when a chain of
    syllables with equal or non-commuting generators leads from i up to j
    (Cartier-Foata 1969; Viennot, "Heaps of pieces", 1986).

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


def minimal_representatives(word: Word, cap: int = DEFAULT_CAP) -> list[Word]:
    """All minimal-syllable words representing the element, sorted by
    their (vertex index, exponent) pairs.

    Minimal words differ from the normal form only by move-(3) swaps, and
    the words so reached are exactly the linear extensions of its heap
    (Cartier-Foata 1969): each word lists every syllable after those below
    it.  They are listed depth first with an explicit stack (Varol-Rotem
    1981), one syllable at a time from the ready set, the syllables whose
    lower syllables are all placed.  The ready set holds at most one
    syllable per generator, the first unplaced one, and two ready
    syllables have distinct commuting generators, as dependent ones are
    ordered.  Placing a syllable of generator g can only make ready the
    next syllable of a generator in ``dependence[g]``.  The choices are
    taken in increasing generator index, and two words first differ at
    two ready syllables, so at two generators: the list comes out
    sorted, each word once.  Each word is built from the normal form's
    own syllables.

    Raises CapExceeded once more than ``cap`` words are found; a word
    with one representative returns it for any ``cap``.
    """
    canonical = normalize(word)
    graph, syllables = canonical.graph, canonical.syllables
    k = len(syllables)
    below, dependence, index = heap_masks(canonical), graph.dependence, graph.index
    gens = [index[s.generator] for s in syllables]
    first = [-1] * len(graph.vertices)  # the first unplaced syllable of each generator
    after = [-1] * k  # the next syllable of the same generator
    for p in range(k - 1, -1, -1):
        after[p], first[gens[p]] = first[gens[p]], p
    unplaced = (1 << k) - 1
    path = [0] * k  # the syllables placed, by depth
    ready = [[g for g, p in enumerate(first) if p >= 0 and not below[p]]] + [None] * k
    cursor = [0] * (k + 1)  # the next choice in ready[depth]
    reps: list[Word] = []
    depth = 0
    while depth >= 0:
        if depth == k:
            if reps and len(reps) >= cap:
                raise CapExceeded(f"more than {cap} minimal representatives", cap=cap)
            reps.append(Word(tuple(map(syllables.__getitem__, path)), graph))
        else:
            choices, c = ready[depth], cursor[depth]
            if c < len(choices):
                cursor[depth] = c + 1
                g = choices[c]
                p = path[depth] = first[g]
                first[g] = after[p]
                unplaced ^= 1 << p
                child = choices[:c] + choices[c + 1:]
                for h in dependence[g]:
                    q = first[h]
                    if q >= 0 and not below[q] & unplaced:
                        child.append(h)
                child.sort()
                depth += 1
                ready[depth], cursor[depth] = child, 0
                continue
        depth -= 1  # backtrack: unplace the syllable placed at this depth
        if depth >= 0:
            p = path[depth]
            first[gens[p]] = p
            unplaced |= 1 << p
    return reps


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
