"""The map sending each syllable of a word to a subsurface of the
ambient surface, in symbolic form, together with its consistency checks
and the quasi-isometry lower-bound certificates.

The syllable at position i of a minimal word maps to the image of its
generator's supporting subsurface under the mapping classes of the
prefix before it.  Symbolically the value is the pair (prefix word,
base vertex), and the prefix only matters modulo the subgroup generated
by the star of the base vertex: generators commuting with the base fix
its subsurface.

Every prefix used here is the word on a down-set of the heap of the
canonical word, so both are read off it without word arithmetic:

  * the values take the first i canonical syllables as they stand
    (``Word.prefixes``, which does not check those syllables again);
    ``make_certificate`` passes on the word it has normalized, which
    ``normalize`` returns as it is, so no normal form is computed twice,
    and takes its entries from the same list of (id, value) pairs as
    the map, in canonical order, with no dict keyed by id; its JSON
    prints each prefix as the first tokens of the canonical word;
  * the order-embedding check reads the syllable ids and the heap masks
    off ``syllable_order``: the ids give each position's generator and
    the support, ``below[i] | below[j]`` is the union of two down-sets,
    and the unordered pairs are read row by row off ``below``;
  * it decides star-coset equality of two down-sets from the generators
    on their symmetric difference, with one mask per base vertex v, bit
    p set when syllable p has its generator outside star(v); the same
    masks say whether two unordered syllables commute.

``MappedSubsurface.equivalent`` decides the same coset equality for
any two prefixes, from the free reduction of prefix^-1 * other: it
multiplies nothing out (the tests keep the version that did, as
``reference_equivalent``).  ``check_representative_independence``,
which walks every minimal representative, stays as the reference the
tests compare against.

Certificates record, per syllable, the guaranteed projection distance
K * |exponent| between a basepoint marking and its image, where

    K = K0 + 20 + 2*D,

K0 being the distance-formula threshold of the ambient surface and D a
bound on the pairwise base projections.  The basepoint marking is an
uninterpreted symbol: certificates are inequality templates, never
evaluated geometrically, and the default constants are model
parameters, not derived from any surface.
"""

from __future__ import annotations

import math
from typing import Mapping

from .defining_graph import DefiningGraph, Frozen
from .errors import GraphMismatch, IntegerTooLong, InvalidConstants
from .syllables import SyllableId, _ids_of_sequence, syllable_order
from .words import (
    DEFAULT_CAP,
    Syllable,
    Word,
    in_special_subgroup,
    minimal_representatives,
    normalize,
)


class MappedSubsurface(Frozen):
    """A translate of a base subsurface: (prefix word, base vertex).

    Two values denote the same subsurface iff the base vertices agree
    and the prefixes differ by an element of the star subgroup of the
    base.
    """

    __match_args__ = ("prefix", "base_vertex")

    def __init__(self, prefix: Word, base_vertex: str):
        object.__setattr__(self, "prefix", prefix)
        object.__setattr__(self, "base_vertex", base_vertex)

    def equivalent(self, other: "MappedSubsurface") -> bool:
        """Whether prefix^-1 * other.prefix lies in the star subgroup of
        the common base.  The concatenation is the first prefix's
        syllables reversed, with negated exponents, then the other's, and
        ``in_special_subgroup`` reads its free reduction: no normal form
        is computed.  Both prefixes hold syllables already checked against
        the common graph, so the word skips the check of ``Word(...)``."""
        if self.base_vertex != other.base_vertex:
            return False
        graph = self.prefix.graph
        if graph != other.prefix.graph:
            raise GraphMismatch("words live over different defining graphs")
        inverse = [Syllable(s.generator, -s.exponent) for s in reversed(self.prefix.syllables)]
        difference = Word._from_checked((*inverse, *other.prefix.syllables), graph)
        return in_special_subgroup(difference, graph.star(self.base_vertex))


def syllable_subsurface_map(word: Word) -> dict[SyllableId, MappedSubsurface]:
    """Assign to each syllable of the canonical form the translate of its
    generator's subsurface by the prefix before it.  The values do not
    depend on the choice of minimal representative (modulo star cosets);
    ``check_representative_independence`` certifies this exhaustively.

    A prefix of the canonical word is its own canonical form: it is
    minimal, and on it the greedy pass of ``normalize`` makes the same
    choice at every step as on the whole word, as a syllable movable to
    the front of the prefix is movable to the front of the word.  So the
    prefixes are ``canonical.prefixes()``, built over its checked
    syllables without checking them again."""
    return dict(_mapped(normalize(word)))


def _mapped(canonical: Word) -> list[tuple[SyllableId, MappedSubsurface]]:
    # The values of syllable_subsurface_map, in canonical order: the one
    # source of the assignment, for the map and for make_certificate.
    return [
        (sid, MappedSubsurface(prefix, sid.generator))
        for sid, prefix in zip(_ids_of_sequence(canonical.syllables), canonical.prefixes())
    ]


class CheckResult(Frozen):
    """The outcome of a check, and the first counterexample when it fails."""

    __match_args__ = ("ok", "detail")

    def __init__(self, ok: bool, detail: str = ""):
        object.__setattr__(self, "ok", ok)
        object.__setattr__(self, "detail", detail)


def check_representative_independence(word: Word, cap: int = DEFAULT_CAP) -> CheckResult:
    """Recompute the syllable-to-subsurface values along every minimal
    representative and compare with the canonical values under star-coset
    equality.  Returns the first counterexample found, if any.

    A value's prefix is the word on the syllables before it in the
    representative as they stand (``rep.prefixes()``): ``equivalent``
    reads only the element, so no prefix is multiplied out.  The word is
    normalized once, for both the values and the representatives."""
    canonical = normalize(word)
    reference = syllable_subsurface_map(canonical)
    for rep in minimal_representatives(canonical, cap):
        for sid, prefix in zip(_ids_of_sequence(rep.syllables), rep.prefixes()):
            if not MappedSubsurface(prefix, sid.generator).equivalent(reference[sid]):
                return CheckResult(
                    False,
                    f"syllable {sid.label()} gets a different subsurface in {rep}",
                )
    return CheckResult(True)


def check_order_embedding(word: Word) -> CheckResult:
    """Check that distinct syllables map to distinct subsurfaces and that
    every pair unordered by the syllable order maps to disjoint
    subsurfaces: a common translate, by the union of the pair's
    down-sets, of two base subsurfaces attached to commuting generators.

    Every prefix compared here is the word on a down-set of the heap:
    the first i syllables, or the union of two down-sets.  Two translates
    of the subsurface of v by down-sets P and Q are equal exactly when no
    syllable of P ^ Q has its generator outside star(v):

      * no syllable of P - Q is ordered with one of Q - P, as each set
        is closed downwards, so their generators differ and commute;
      * so P^-1 Q is the word on P - Q, inverted, followed by the word
        on Q - P, and it is minimal: nothing merges across, and each part
        is convex in the heap, so a non-commuting syllable still lies
        between any two of its syllables with one generator;
      * a minimal word lies in the subgroup generated by a vertex set
        exactly when all of its generators lie in that set.

    Bit p of ``outside[v]`` marks syllable p as outside star(v), so each
    test is one mask operation and no prefix is multiplied out.  That
    covers the commutation test too: two unordered syllables have
    distinct generators, which commute exactly when the second is not
    outside the star of the first.  ``outside[v]`` is the OR of the
    position masks of the generators outside star(v): O(k + n·m) for k
    syllables, m of them distinct generators, on n vertices.

    The check reads the heap it is given, never one recomputed from the
    word, and reports the same pair as a loop over all pairs (i, j),
    i < j, in order: the least failing pair of the first test, or else
    of the second.  It reaches that pair without such a loop:

      * The first test fails on i and a later j of the same generator v
        when ``outside[v]`` misses bits i..j-1.  Those bands grow with j,
        so if some j fails with i, the next occurrence of v after i
        fails with it too.  The answer is the least i that fails with
        its next occurrence: O(k) mask operations.
      * The second test goes row by row, j ascending.  The syllables
        before j and unordered with it are the bits of
        ``((1 << j) - 1) & ~below[j]``, read lowest first, and each pair
        runs the tests in the loop's order: commutation, then the shared
        prefix of i, then that of j.  So a row stops at its least
        failing i.  A later row can only better that pair with a smaller
        i, so it reads only the bits below the best i so far.  On a
        chain, ``below[j]`` is all of ``(1 << j) - 1``, and no pair is
        read; in general at most the unordered pairs are.

    Labels are formatted for the reported pair only.
    """
    order = syllable_order(word)
    ids, below = order.elements, order.below
    positions: dict[str, int] = {}  # bit p set when syllable p has the generator
    last: dict[str, int] = {}  # the last position of each generator so far
    after = [0] * len(ids)  # the next position of the same generator, 0 if none
    for p, s in enumerate(ids):
        v = s.generator
        if v in last:
            after[last[v]] = p
            positions[v] |= 1 << p
        else:
            positions[v] = 1 << p
        last[v] = p
    outside = {}
    for v in positions:
        star = word.graph.star(v)
        mask = 0
        for h, at in positions.items():
            if h not in star:
                mask |= at
        outside[v] = mask
    for i, s in enumerate(ids):
        j = after[i]
        if j and not outside[s.generator] & ((1 << j) - (1 << i)):
            return CheckResult(
                False, f"{s.label()} and {ids[j].label()} map to the same subsurface"
            )
    position = {1 << p: p for p in range(len(ids))}  # a lowest bit's position
    found = None  # the best failure so far: (s, t) non-commuting, or (s, None)
    bound = -1  # the positions i below the best failing i
    for j, t in enumerate(ids):
        prefix = (1 << j) - 1
        unordered = prefix & ~below[j] & bound
        while unordered:
            low = unordered & -unordered
            unordered ^= low
            i = position[low]
            s = ids[i]
            if outside[s.generator] >> j & 1:
                found = (s, t)  # non-commuting generators
            else:
                down = below[i] | below[j]
                if outside[s.generator] & (down ^ (low - 1)):
                    found = (s, None)  # s is not the shared-prefix translate
                elif outside[t.generator] & (down ^ prefix):
                    found = (t, None)
                else:
                    continue
            bound = low - 1
            break
    if found is None:
        return CheckResult(True)
    s, t = found
    if t is None:
        return CheckResult(False, f"{s.label()} is not the shared-prefix translate of its base")
    return CheckResult(
        False, f"unordered pair {s.label()}, {t.label()} with non-commuting generators"
    )


# -- constants and certificates ---------------------------------------------


def _check_number(name: str, value) -> None:
    # int and float first: the Real ABC hook costs two more calls, and
    # numbers is imported only for a value of another type.
    if not isinstance(value, (int, float)):
        from numbers import Real
        if not isinstance(value, Real):
            raise InvalidConstants(f"{name} must be a real number", field=name)
    if not -math.inf < value < math.inf:
        raise InvalidConstants(f"{name} must be finite (got {value})", field=name)


def _k_sum(k0, d):
    # K0 + 20 + 2*D, typed when an int too large for a float meets a float.
    try:
        return k0 + 20 + 2 * d
    except OverflowError:
        raise InvalidConstants(
            "K0 + 20 + 2*D is out of floating-point range", field="K"
        ) from None


def _invalid(field: str, plain: str, template: str, *values) -> InvalidConstants:
    """InvalidConstants with ``template`` filled in with ``values``, or
    with ``plain`` when a value is an int past the int-to-str digit limit
    and cannot be printed."""
    try:
        message = template.format(*values)
    except ValueError:
        message = plain
    return InvalidConstants(message, field=field)


class Constants(Frozen):
    """The constant pack behind a certificate.

    k = k0 + 20 + 2*d, the threshold above which projection distances
    accumulate; c = 2*k, the translation length every generator's
    mapping class must beat; (a, b) the coarse-comparison constants of
    the ambient distance formulas; tau the per-vertex translation
    lengths assumed for the generators.  A dict tau makes a pack unhashable.
    """

    __match_args__ = ("k0", "d", "k", "c", "a", "b", "tau")

    def __init__(self, k0: float, d: float, k: float, c: float, a: float, b: float,
                 tau: Mapping[str, float]):
        object.__setattr__(self, "k0", k0)
        object.__setattr__(self, "d", d)
        object.__setattr__(self, "k", k)
        object.__setattr__(self, "c", c)
        object.__setattr__(self, "a", a)
        object.__setattr__(self, "b", b)
        object.__setattr__(self, "tau", tau)

    @classmethod
    def create(
        cls,
        graph: DefiningGraph,
        k0: float = 10,
        d: float = 6,
        a: float = 2,
        b: float = 10,
        k: float | None = None,
        c: float | None = None,
        tau: Mapping[str, float] | None = None,
    ) -> "Constants":
        for name, value in (("K0", k0), ("D", d), ("A", a), ("B", b)):
            _check_number(name, value)
        if k is None:
            k = _k_sum(k0, d)
        _check_number("K", k)
        if c is None:
            c = 2 * k
        if tau is None:
            tau = {v: c for v in graph.vertices}
        try:
            tau = dict(tau)
        except (TypeError, ValueError):  # not a mapping, nor a sequence of pairs
            raise InvalidConstants("tau must be a mapping", field="tau") from None
        constants = cls(k0=k0, d=d, k=k, c=c, a=a, b=b, tau=tau)
        constants.validate(graph)
        return constants

    def validate(self, graph: DefiningGraph) -> None:
        # A pack built by create has passed these already; a hand-built one
        # has not, and _k_sum and the comparisons below need numbers.
        for name, value in (
            ("K0", self.k0), ("D", self.d), ("A", self.a), ("B", self.b), ("K", self.k)
        ):
            _check_number(name, value)
        if self.k < 20:
            raise _invalid("K", "K >= 20 violated", "K >= 20 violated (K = {})", self.k)
        k_sum = _k_sum(self.k0, self.d)
        if self.k != k_sum:
            raise _invalid(
                "K", "K must equal K0 + 20 + 2*D",
                "K must equal K0 + 20 + 2*D (got K = {}, K0 + 20 + 2*D = {})", self.k, k_sum,
            )
        if self.k0 <= 0:
            raise InvalidConstants("K0 must be positive", field="K0")
        if self.d < 0:
            raise InvalidConstants("D must be nonnegative", field="D")
        if self.c != 2 * self.k:
            raise _invalid("C", "C must equal 2*K", "C must equal 2*K (got {})", self.c)
        if self.a < 1:
            raise InvalidConstants("A must be at least 1", field="A")
        if self.b < 0:
            raise InvalidConstants("B must be nonnegative", field="B")
        # dict first: the Mapping ABC hook costs two more calls.
        if not isinstance(self.tau, dict) and not isinstance(self.tau, Mapping):
            raise InvalidConstants("tau must be a mapping", field="tau")
        for v in graph.vertices:
            if v not in self.tau:
                raise InvalidConstants(f"tau undefined for vertex {v!r}", field="tau")
            tau = self.tau[v]
            if not isinstance(tau, (int, float)):
                from numbers import Real
                if not isinstance(tau, Real):
                    raise InvalidConstants(f"tau({v}) must be a real number", field="tau")
            if tau < self.c:
                raise _invalid(
                    "tau", f"tau({v}) is below C", "tau({}) = {} is below C = {}",
                    v, tau, self.c,
                )
            # tau is now at least C, or NaN; an infinite C is named by the C check.
            if not tau < math.inf and self.c < math.inf:
                raise InvalidConstants(f"tau({v}) must be finite (got {tau})", field="tau")
        _check_number("C", self.c)  # last, so the checks above keep their order

    def to_json_dict(self) -> dict:
        return {
            "K0": self.k0,
            "D": self.d,
            "K": self.k,
            "C": self.c,
            "A": self.a,
            "B": self.b,
            "tau": {v: self.tau[v] for v in sorted(self.tau)},
        }


def default_constants(graph: DefiningGraph) -> Constants:
    """Model parameters K0 = 10, D = 6 (so K = 42, C = 84), A = 2, B = 10;
    not derived from any surface."""
    return Constants.create(graph)


class CertificateEntry(Frozen):
    """One syllable of a certificate, its subsurface and its projection lower bound."""

    __match_args__ = ("syllable", "subsurface", "bound")

    def __init__(self, syllable: SyllableId, subsurface: MappedSubsurface, bound: float):
        object.__setattr__(self, "syllable", syllable)
        object.__setattr__(self, "subsurface", subsurface)
        object.__setattr__(self, "bound", bound)


class Certificate(Frozen):
    """Per-syllable projection lower bounds and their aggregation into
    distance lower-bound templates for the marking graph, Weil-Petersson
    and Teichmueller metrics."""

    __match_args__ = ("sigma", "constants", "entries", "total", "templates")

    def __init__(self, sigma: Word, constants: Constants, entries: tuple[CertificateEntry, ...],
                 total: float, templates: tuple[str, ...]):
        object.__setattr__(self, "sigma", sigma)
        object.__setattr__(self, "constants", constants)
        object.__setattr__(self, "entries", entries)
        object.__setattr__(self, "total", total)
        object.__setattr__(self, "templates", templates)

    def to_json_dict(self) -> dict:
        """The certificate as JSON data.  A prefix equal to sigma's first
        i syllables, as entry i's prefix is in every certificate that
        ``make_certificate`` builds, prints as sigma's first i tokens
        joined: one tuple comparison, of the same syllable objects, instead
        of formatting the prefix again.  Any other prefix prints as
        ``str(prefix)``."""
        tokens, syllables = self.sigma._tokens(), self.sigma.syllables
        return {
            "sigma": " ".join(tokens),
            "constants": self.constants.to_json_dict(),
            "entries": [
                {
                    "syllable": e.syllable.label(),
                    "prefix": (
                        " ".join(tokens[:i]) if e.subsurface.prefix.syllables == syllables[:i]
                        else str(e.subsurface.prefix)
                    ),
                    "base": e.subsurface.base_vertex,
                    "bound": e.bound,
                }
                for i, e in enumerate(self.entries)
            ],
            "total": self.total,
            "templates": list(self.templates),
        }


def make_certificate(word: Word, constants: Constants) -> Certificate:
    """One entry per syllable of the canonical form, each bounding the
    projection distance to its subsurface from below by K * |exponent|;
    the entries sum to K times the letter length, which feeds the
    distance-formula templates.

    All the mapped subsurfaces are nonannular, so the Weil-Petersson
    template keeps the full sum and the Teichmueller template has an
    empty annular term.

    The entries come from one walk over the canonical word's checked
    syllables, the (id, prefix, base vertex) walk behind
    ``syllable_subsurface_map``, in canonical order: no dict keyed by
    syllable id is built, so no id is hashed.
    """
    constants.validate(word.graph)
    canonical = normalize(word)
    k = constants.k
    total = _total(k, canonical.letter_length())
    entries = tuple([
        CertificateEntry(sid, value, k * abs(sid.exponent)) for sid, value in _mapped(canonical)
    ])
    rhs = f"({_fmt(total)} - {_fmt(constants.b)})/{_fmt(constants.a)}"
    templates = (
        f"d_MM >= {rhs}",
        f"d_WP >= {rhs}",
        f"d_T >= {rhs}",
    )
    return Certificate(canonical, constants, entries, total, templates)


def _total(k, letters: int):
    # K times the letter length, typed when a float K makes it overflow.
    # Every entry bound K * |exponent| is at most the total, so a finite
    # total keeps them all finite; an int K stays exact.
    try:
        total = k * letters
    except OverflowError:  # letters too large for a float
        total = math.inf
    if total == math.inf:
        raise InvalidConstants(
            "K times the letter length is out of floating-point range", field="K"
        )
    return total


def _fmt(x) -> str:
    if isinstance(x, float) and x.is_integer():
        return str(int(x))
    try:
        return str(x)
    except ValueError:  # an int past the int-to-str digit limit
        raise IntegerTooLong() from None
