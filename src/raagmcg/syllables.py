"""Stable syllable identities, the strict partial order on them, shift
maps between syllables of powers, and cyclic (conjugacy-minimal)
reduction.

All of it comes from the heap of a minimal word: i lies below j when
a chain of syllables with equal or non-commuting generators leads from i
up to j (Cartier-Foata 1969; Viennot, "Heaps of pieces", 1986).  The
minimal words are its linear extensions, in which equal generators never
pass each other, so (generator, exponent, occurrence rank) names a
syllable in all of them.  ``words.heap_masks`` builds it, for this
module and for the enumeration of minimal words alike: one int mask per
syllable, bit i of ``below[j]`` set when syllable i lies below syllable
j.  ``SyllableOrder`` keeps those masks as they are:

  * the order is the masks, and its pair set is built only when read;
  * the Hasse edges of j come from its predecessors, the last
    syllable of each generator before j that lies below j: those below
    no other predecessor;
  * the minimal syllables have an empty mask, and the maximal ones are
    in no mask; they can be moved to the front and to the back.

So cyclic reduction reads each step off the heap as well: a minimal and
a different maximal syllable with one generator merge when one of them
is conjugated around the word, and no trial conjugate is computed.

Each public function normalizes its input, and ``normalize`` returns a
canonical word as it is: a caller passes on the word it has normalized,
and no normal form is computed twice.  ``heap_masks`` takes a minimal
word, canonical or not, and ``_find_reduction`` the heap of a canonical
one, which cyclic reduction builds once and edits across its rounds: a
round that changes the canonical order reads the new one off the masks,
so a reduction normalizes only the word and the conjugator.  A shift map
reads the canonical order of w^m off the heap of the concatenation of m
copies of w, which is minimal, so only w is normalized.
"""

from __future__ import annotations

from functools import cached_property, total_ordering
from typing import Sequence

from .defining_graph import Frozen
from .errors import IntegerTooLong, NotCyclicallyReduced, ShiftMapUndefined
from .words import Syllable, Word, concatenated_power, heap_masks, normalize


@total_ordering
class SyllableId(Frozen):
    """(generator, exponent, occurrence): the occurrence rank counts equal
    syllables left to right in any minimal word.  Ids compare and order
    as their field tuples, and only against ids."""

    __match_args__ = ("generator", "exponent", "occurrence")

    def __init__(self, generator: str, exponent: int, occurrence: int):
        object.__setattr__(self, "generator", generator)
        object.__setattr__(self, "exponent", exponent)
        object.__setattr__(self, "occurrence", occurrence)

    def __lt__(self, other):
        if other.__class__ is self.__class__:
            return self._fields(self) < other._fields(other)
        return NotImplemented

    def label(self) -> str:
        try:
            return f"{self.generator}^{self.exponent}#{self.occurrence}"
        except ValueError:  # an exponent past the int-to-str digit limit
            raise IntegerTooLong() from None


def _ids_of_sequence(syllables: Sequence[Syllable]) -> list[SyllableId]:
    # One walk, and no builtin call per syllable: the list is allocated
    # once and the count is read with ``in``, not ``dict.get``.
    counts: dict[tuple[str, int], int] = {}
    ids = [None] * len(syllables)
    for p, s in enumerate(syllables):
        key = s.generator, s.exponent
        counts[key] = n = counts[key] + 1 if key in counts else 1
        ids[p] = SyllableId(s.generator, s.exponent, n)
    return ids


def syllable_ids(word: Word) -> tuple[SyllableId, ...]:
    """The syllables of the canonical form of ``word``, as stable ids in
    canonical positional order."""
    return tuple(_ids_of_sequence(normalize(word).syllables))


class SyllableOrder(Frozen):
    """The strict partial order: s precedes t iff s comes before t in
    every minimal representative.  It is kept as the heap: bit i of
    ``below[j]`` is set when ``elements[i]`` precedes ``elements[j]``."""

    __match_args__ = ("elements", "below")

    def __init__(self, elements: tuple[SyllableId, ...], below: tuple[int, ...]):
        object.__setattr__(self, "elements", elements)
        object.__setattr__(self, "below", below)

    @cached_property
    def precedes(self) -> frozenset[tuple[SyllableId, SyllableId]]:
        """The order as a set of (lower, upper) pairs, built when first read."""
        ids = self.elements
        return frozenset(
            [(ids[i], ids[j]) for j, mask in enumerate(self.below)
             for i in range(j) if mask >> i & 1]
        )

    def comparable(self, s: SyllableId, t: SyllableId) -> bool:
        return (s, t) in self.precedes or (t, s) in self.precedes

    def covering_pairs(self) -> list[tuple[SyllableId, SyllableId]]:
        """Transitive reduction: the Hasse diagram edges, ordered by the
        positions of their ends in ``elements``.

        It needs ``below`` to be the heap of a minimal word whose
        syllables ``elements`` lists in one minimal order, as
        ``syllable_order`` builds it: i lies below j exactly when a chain
        of syllables with equal or non-commuting generators leads from i
        up to j.  So two syllables of one generator are ordered, and a
        cover i of j has a generator h equal to or not commuting with
        j's.  Then i is the last syllable of h before j: a later one
        would lie above i and below j.  A predecessor p of j, the last
        syllable of its generator before j that lies below j, is a cover
        unless it lies below another predecessor, since a chain from p up
        to j ends in a cover.  One walk keeps the last position of each
        generator: O(k·n) mask operations for k syllables on n
        generators, not O(k^2)."""
        ids, below = self.elements, self.below
        last: dict[str, int] = {}  # the last position of each generator so far
        lasts = last.values()  # a live view of it
        uppers: list[list[int]] = [[] for _ in ids]  # the covers above each position
        for j, s in enumerate(ids):
            mask, through = below[j], 0  # through: everything below a predecessor
            for p in lasts:
                if mask >> p & 1:
                    through |= below[p]
            for p in lasts:
                if mask >> p & 1 and not through >> p & 1:
                    uppers[p].append(j)
            last[s.generator] = j
        return [(s, ids[j]) for s, js in zip(ids, uppers) for j in js]

    def to_json_dict(self) -> dict:
        return {
            "elements": [s.label() for s in self.elements],
            "covering": [[s.label(), t.label()] for s, t in self.covering_pairs()],
        }

    def to_dot(self, name: str = "syllable_order") -> str:
        lines = [f"digraph {name} {{"]
        for s in self.elements:
            lines.append(f'  "{s.label()}";')
        for s, t in self.covering_pairs():
            lines.append(f'  "{s.label()}" -> "{t.label()}";')
        lines.append("}")
        return "\n".join(lines) + "\n"


def syllable_order(word: Word) -> SyllableOrder:
    """The heap of the canonical form: s precedes t iff s comes before t
    in every minimal representative."""
    canonical = normalize(word)
    return SyllableOrder(syllable_ids(canonical), tuple(heap_masks(canonical)))


# -- shift maps between powers ---------------------------------------------


def power_shift_map(word: Word, m: int, n: int) -> dict[SyllableId, SyllableId]:
    """Map each syllable of word^m to its copy n - m blocks later in
    word^n (so the block-j copy of a syllable goes to block j + n - m).

    Requires integers 1 <= m < n (a bool is not one; any other m or n
    raises the same ValueError first) and a cyclically reduced word whose support has
    a connected complement graph with at least two generators; those
    conditions keep powers of minimal words minimal, so the blocks stay
    intact.  Single-generator words are rejected: their powers merge
    into one syllable and there is no block structure to shift.

    Why no block collapses: two syllables of one generator g in blocks
    that are not adjacent have a whole copy of w between them, and w
    holds a generator that does not commute with g, since the support is
    connected in the complement graph.  So a syllable of g can merge
    only across the cut of w·w, between the last syllable of g in the
    first copy, with only syllables commuting with g after it, and the
    first in the second copy, with only such syllables before it: one
    syllable of g maximal in the heap of w and one minimal.  In a
    cyclically reduced word they are a single syllable, or conjugating
    one around the word would merge it into the other.  That syllable is
    then comparable to nothing, so g commutes with the rest of the
    support, and g alone is a component of the support in the complement
    graph, which the precondition excludes.  So w^m has m·len(w)
    syllables, and each block is a copy of w.

    The concatenation of m copies of w is therefore a minimal word of
    w^m, and no normal form of w^m is computed: ``heap_masks`` of a
    minimal word is its heap, and on that heap Kahn's algorithm keyed by
    vertex index (``_LiveHeap.reorder``) lists the canonical order, as
    ``cyclically_reduce`` argues.  A syllable's id does not depend on the
    minimal word it is read from, so the keys, the values and the order
    of the keys are those read off the normal form of w^m.
    """
    integers = (isinstance(m, int) and isinstance(n, int)
                and not isinstance(m, bool) and not isinstance(n, bool))
    if not integers or not 1 <= m < n:
        raise ValueError("need integers m, n with 1 <= m < n")
    w = normalize(word)
    if not is_cyclically_reduced(w):
        raise NotCyclicallyReduced("word is not conjugacy-minimal")
    support = sorted(w.support(), key=w.graph.index.get)
    if len(support) < 2:
        raise ShiftMapUndefined(
            "support has fewer than two generators; power blocks merge",
            support=support,
        )
    if len(w.graph.complement().components(support)) != 1:
        raise ShiftMapUndefined(
            "support is disconnected in the complement graph; power blocks may merge",
            support=support,
        )
    last = {(sid.generator, sid.exponent): sid for sid in syllable_ids(w)}
    base = _LiveHeap(concatenated_power(w, m))
    base.reorder()
    shift: dict[SyllableId, SyllableId] = {}
    for sid in _ids_of_sequence(base.remaining()):
        step = last[(sid.generator, sid.exponent)].occurrence
        shift[sid] = SyllableId(
            sid.generator, sid.exponent, sid.occurrence + (n - m) * step
        )
    return shift


# -- cyclic reduction --------------------------------------------------------


class _LiveHeap:
    """A minimal word kept as its heap: ``syllables`` and the
    ``heap_masks`` masks ``below`` by position, and the positions still in
    the word, in order, as ``order`` and as the bit mask ``live``.
    ``order`` starts as the word's own order and is the canonical order
    after ``reorder()``.  Cyclic reduction edits the heap of a canonical
    word; ``power_shift_map`` reorders that of a concatenated power."""

    def __init__(self, word: Word):
        self.graph = word.graph
        self.syllables = list(word.syllables)
        self.below = heap_masks(word)
        self.order = list(range(len(self.syllables)))
        self.live = (1 << len(self.syllables)) - 1

    def remove(self, position: int) -> None:
        self.order.remove(position)
        self.live &= ~(1 << position)

    def reorder(self) -> None:
        # Kahn's algorithm on the live masks, keyed by vertex index; see
        # cyclically_reduce.
        unplaced = [[] for _ in self.graph.vertices]  # each generator's live syllables, last first
        for p in reversed(self.order):
            unplaced[self.graph.index[self.syllables[p].generator]].append(p)
        left, ready, touched, self.order = self.live, 0, range(len(unplaced)), []
        while True:
            for h in touched:  # emitting g can make ready only a generator in dependence[g]
                if unplaced[h] and not self.below[unplaced[h][-1]] & left:
                    ready |= 1 << h
            if not ready:
                return
            g = (ready & -ready).bit_length() - 1  # the ready generator of least index
            p = unplaced[g].pop()
            self.order.append(p)
            ready, left, touched = ready ^ 1 << g, left ^ 1 << p, self.graph.dependence[g]

    def remaining(self) -> tuple[Syllable, ...]:
        return tuple([self.syllables[p] for p in self.order])


def _find_reduction(heap: _LiveHeap) -> tuple[int, int] | None:
    # The first strict decrease as (moved, target) positions: the moved
    # syllable goes around the word and merges into the target; see
    # cyclically_reduce.
    order, below, live, syllables = heap.order, heap.below, heap.live, heap.syllables
    if not order:
        return None
    not_maximal = 0
    for p in order:
        not_maximal |= below[p]
    minimal = {syllables[i].generator: i for i in order if not below[i] & live}
    first = order[0]
    maximal = [p for p in reversed(order) if p != first and not not_maximal >> p & 1]
    partners = [(p, minimal.get(syllables[p].generator, p)) for p in maximal]
    moves = [(first, p) for p, i in partners if i == first] + [(p, i) for p, i in partners if i != p]
    return moves[0] if moves else None


def cyclically_reduce(word: Word) -> tuple[Word, Word]:
    """A representative with the fewest syllables in the conjugacy class,
    plus a conjugator: word = conjugator * reduced * conjugator^-1.

    Each round conjugates away the first canonical syllable, or else a
    maximal syllable t of the heap (right to left, position 0 skipped),
    taking the first that lowers the count.  That is the order of trying
    the first, then the last, syllable of each sorted minimal word: the
    canonical word sorts first, the first word ending in t is it with t
    moved last, and for maximal t_p, t_q at p < q those words first
    differ at p, where the greedy pass put t_p before its available
    successor.  No later word is needed: another minimal syllable
    shortens only by merging with a same-generator maximal t, not at
    position 0, which then shortens too; a maximal syllable at position
    0 commutes with all others and merges with none.

    No conjugate is tried out: the heap says which one is shorter.
    Moving the first syllable to the back shortens exactly when a
    maximal syllable p >= 1 has its generator, and moving a maximal t_p
    to the front exactly when a minimal syllable i != p has its
    generator; there is at most one such partner, as two syllables of
    one generator are ordered.  The shorter conjugate is then the
    canonical word with the moved syllable dropped and its exponent
    added to its partner's.  Everything after a maximal syllable (or
    before a minimal one) commutes with it and has another generator, so
    the moved syllable slides to its partner.  Removing a maximal or
    minimal syllable creates no new merge: a chain that kept two equal
    generators apart would have to pass through it, and nothing lies
    above a maximal or below a minimal syllable.  That covers a partner
    whose exponent sums to zero, too: it is maximal or minimal itself.
    Without a partner the moved syllable is blocked before it meets its
    generator, and the count stays.

    The rounds edit one heap, built once, and drop syllables from it
    instead of normalizing each shorter conjugate.  For the same reason
    as above, no chain between two syllables that stay passes through a
    dropped one, so the masks, read on the positions left, are the heap
    of the shorter conjugate.  Those positions, in order, are its
    canonical word, except in one case.  The greedy pass emits the first
    syllable first, and a maximal syllable blocks nothing, so deleting
    either one leaves every other greedy choice unchanged; a new
    exponent changes none, as the pass reads only generators.  That
    covers moving the first syllable, whether or not its maximal partner
    cancels to zero, and a maximal syllable whose minimal partner keeps
    a nonzero exponent.  The exception is a minimal partner other than
    the first syllable that cancels to zero: the syllables it blocked
    may now come earlier, even first.  On the path graph a - b - c, the
    canonical word b c a c^-1 moves c^-1 to the front, which cancels c
    and leaves b a, whose normal form a b changes position 0 (the
    conjugator is c).  Only that round puts ``order`` back in canonical
    order, and it reads that order off the live masks, the heap of the
    word left, which is minimal.  On a minimal word ``normalize`` merges
    nothing, and its greedy pass emits, among the syllables with nothing
    pending below them, the one with the smallest vertex index.  That is
    Kahn's algorithm keyed by vertex index (``_LiveHeap.reorder``): the
    ready syllables are the live ones whose mask meets no unplaced live
    position; they carry distinct generators, as two syllables of one
    generator are ordered, so the index breaks every tie; and emitting a
    syllable of generator g can only make ready the first unplaced
    syllable of a generator in ``dependence[g]``, as a cover of a heap
    joins two dependent syllables.  So a reduction builds one heap, and
    normalizes at most the word and, once at the end, the conjugator,
    the product of the rounds' factors.

    The fixed point is conjugacy-minimal: no generator labels a minimal
    and a different maximal syllable, so it is cyclically reduced, and
    cyclically reduced conjugates differ by cyclic permutations and
    commutations (Servatius, "Automorphisms of graph groups", 1989).
    These keep the syllable count of the word read around a circle,
    which a fixed point has exactly, as nothing merges across its cut.
    The rounds only shorten and always stop at a fixed point, so no
    conjugate has fewer syllables.
    """
    current = _LiveHeap(normalize(word))
    factors = []
    while (move := _find_reduction(current)) is not None:
        moved, target = move
        s, t = current.syllables[moved], current.syllables[target]
        moved_first = moved == current.order[0]
        factors.append(s if moved_first else Syllable(s.generator, -s.exponent))
        current.remove(moved)
        if s.exponent + t.exponent:
            current.syllables[target] = Syllable(t.generator, s.exponent + t.exponent)
        else:
            current.remove(target)
            if not moved_first:
                current.reorder()
    # The canonical word's checked syllables, kept canonical by the edits.
    reduced = Word._from_checked(current.remaining(), current.graph, canonical=True)
    return reduced, normalize(Word._from_checked(tuple(factors), current.graph))


def is_cyclically_reduced(word: Word) -> bool:
    return _find_reduction(_LiveHeap(normalize(word))) is None
