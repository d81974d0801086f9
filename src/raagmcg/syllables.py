"""Stable syllable identities, the strict partial order on them, shift
maps between syllables of powers, and cyclic (conjugacy-minimal)
reduction.

All of it comes from the heap of the canonical word: i lies below j when
a chain of syllables with equal or non-commuting generators leads from i
up to j (Cartier-Foata 1969; Viennot, "Heaps of pieces", 1986).  The
minimal words are its linear extensions, in which equal generators never
pass each other, so (generator, exponent, occurrence rank) names a
syllable in all of them.  ``words.heap_masks`` builds it, for this
module and for the enumeration of minimal words alike: one int mask per
syllable, bit i of ``below[j]`` set when syllable i lies below syllable
j.  ``SyllableOrder`` keeps those masks as they are:

  * the order is the masks, and its pair set is built only when read;
  * the Hasse edges of j are ``below[j]`` minus the masks of the
    syllables in it;
  * the minimal syllables have an empty mask, and the maximal ones are
    in no mask; they can be moved to the front and to the back.

So cyclic reduction reads each step off the heap as well: a minimal and
a different maximal syllable with one generator merge when one of them
is conjugated around the word, and no trial conjugate is computed.

Each public function normalizes its input, and ``normalize`` returns a
canonical word as it is: a caller passes on the word it has normalized,
and no normal form is computed twice.  ``heap_masks`` takes a canonical
word, and ``_find_reduction`` the heap of one, which cyclic reduction keeps
and edits across its rounds.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Sequence

from .errors import NotCyclicallyReduced, ShiftMapUndefined
from .words import Syllable, Word, heap_masks, normalize, power


@dataclass(frozen=True, order=True)
class SyllableId:
    """(generator, exponent, occurrence): the occurrence rank counts equal
    syllables left to right in any minimal word."""

    generator: str
    exponent: int
    occurrence: int

    def label(self) -> str:
        return f"{self.generator}^{self.exponent}#{self.occurrence}"


def _ids_of_sequence(syllables: Sequence[Syllable]) -> list[SyllableId]:
    counts: dict[tuple[str, int], int] = {}
    ids = []
    for s in syllables:
        key = (s.generator, s.exponent)
        counts[key] = counts.get(key, 0) + 1
        ids.append(SyllableId(s.generator, s.exponent, counts[key]))
    return ids


def syllable_ids(word: Word) -> tuple[SyllableId, ...]:
    """The syllables of the canonical form of ``word``, as stable ids in
    canonical positional order."""
    return tuple(_ids_of_sequence(normalize(word).syllables))


@dataclass(frozen=True)
class SyllableOrder:
    """The strict partial order: s precedes t iff s comes before t in
    every minimal representative.  It is kept as the heap: bit i of
    ``below[j]`` is set when ``elements[i]`` precedes ``elements[j]``."""

    elements: tuple[SyllableId, ...]
    below: tuple[int, ...]

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
        positions of their ends in ``elements``."""
        below = self.below
        covers = []
        for mask in below:
            through = 0  # everything below something below this element
            for i, lower in enumerate(below):
                if mask >> i & 1:
                    through |= lower
            covers.append(mask & ~through)
        ids = self.elements
        return [(s, t) for i, s in enumerate(ids) for t, c in zip(ids, covers) if c >> i & 1]

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

    Requires 1 <= m < n and a cyclically reduced word whose support has
    a connected complement graph with at least two generators; those
    conditions keep powers of minimal words minimal, so the blocks stay
    intact.  Single-generator words are rejected: their powers merge
    into one syllable and there is no block structure to shift.
    """
    if not 1 <= m < n:
        raise ValueError("need 1 <= m < n")
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
    base = power(w, m)
    if len(base.syllables) != m * len(w.syllables):
        raise ShiftMapUndefined("power of the word collapsed", m=m)
    shift: dict[SyllableId, SyllableId] = {}
    for sid in syllable_ids(base):
        step = last[(sid.generator, sid.exponent)].occurrence
        shift[sid] = SyllableId(
            sid.generator, sid.exponent, sid.occurrence + (n - m) * step
        )
    return shift


# -- cyclic reduction --------------------------------------------------------


class _LiveHeap:
    """The canonical word that cyclic reduction edits, kept as its heap:
    ``syllables`` and the ``heap_masks`` masks ``below`` by position, and the
    positions still in the word, in order, as ``order`` and as the bit
    mask ``live``."""

    def __init__(self, word: Word):
        self.graph = word.graph
        self.syllables = list(word.syllables)
        self.below = heap_masks(word)
        self.order = list(range(len(self.syllables)))
        self.live = (1 << len(self.syllables)) - 1

    def remove(self, position: int) -> None:
        self.order.remove(position)
        self.live &= ~(1 << position)

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
    conjugator is c).  Only that round normalizes the word left and
    builds its heap again.  The conjugator, the product of the rounds'
    factors, is normalized once at the end.

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
                current = _LiveHeap(normalize(Word(current.remaining(), current.graph)))
    reduced = Word(current.remaining(), current.graph)
    object.__setattr__(reduced, "_canonical", True)  # the edits keep it canonical
    return reduced, normalize(Word(tuple(factors), current.graph))


def is_cyclically_reduced(word: Word) -> bool:
    return _find_reduction(_LiveHeap(normalize(word))) is None
