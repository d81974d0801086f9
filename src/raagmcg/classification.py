"""Thurston-type classification of the mapping classes carried by group
elements, via conjugacy reduction and the component structure of the
complement graph.

A word is first replaced by a conjugacy-minimal representative.  Its
support splits along the components of the complement graph; the
commuting subwords supported on the components act independently, each
pseudo-Anosov on the piece its subsurfaces fill.  The whole mapping
class is pseudo-Anosov exactly when there is a single component whose
subsurfaces fill the ambient surface, and in that case the curve
complex translation length is bounded below by 1/(2r + 1), where r is
the number of distinct generators used.

The classifier asserts these conclusions under the model's standing
assumptions (nice realization, generator translation lengths at least
C); the report carries those assumptions explicitly since the actual
mapping classes stay symbolic.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

from .defining_graph import Frozen
from .errors import GraphMismatch, NotCyclicallyReduced, NotFilling
from .realization import Realization, build_standard_realization, fill
from .syllables import cyclically_reduce, is_cyclically_reduced, syllable_ids
from .words import (
    DEFAULT_CAP, Word, concatenated_power, heap_masks, is_minimal, normalize, oracle_min_syllables,
)

if TYPE_CHECKING:
    from fractions import Fraction

ASSUMPTIONS = ("tau_X(f_i) >= C for all i", "realization is nice")

COMPONENT_KIND = "pseudo_anosov_on_component"


class ComponentReport(Frozen):
    """One component of a classification: its generators, its word, and
    whether its subsurfaces fill the ambient surface."""

    __match_args__ = ("generators", "word", "fills_ambient", "kind")

    def __init__(self, generators: tuple[str, ...], word: Word, fills_ambient: bool,
                 kind: str = COMPONENT_KIND):
        object.__setattr__(self, "generators", generators)
        object.__setattr__(self, "word", word)
        object.__setattr__(self, "fills_ambient", fills_ambient)
        object.__setattr__(self, "kind", kind)


class ClassificationReport(Frozen):
    """The Thurston-type report of ``classify``: the cyclic reduction, its
    components and the overall type."""

    __match_args__ = (
        "input", "reduced", "conjugator", "r", "components", "overall", "translation_bound",
    )

    def __init__(self, input: Word, reduced: Word, conjugator: Word, r: int,
                 components: tuple[ComponentReport, ...], overall: str,
                 translation_bound: Fraction | None):
        object.__setattr__(self, "input", input)
        object.__setattr__(self, "reduced", reduced)
        object.__setattr__(self, "conjugator", conjugator)
        object.__setattr__(self, "r", r)
        object.__setattr__(self, "components", components)
        object.__setattr__(self, "overall", overall)
        object.__setattr__(self, "translation_bound", translation_bound)

    def to_json_dict(self) -> dict:
        return {
            "input": str(self.input),
            "reduced": str(self.reduced),
            "conjugator": str(self.conjugator),
            "r": self.r,
            "components": [
                {
                    "generators": list(c.generators),
                    "word": str(c.word),
                    "fills_ambient": c.fills_ambient,
                    "type": c.kind,
                }
                for c in self.components
            ],
            "overall": self.overall,
            "translation_bound": (
                str(self.translation_bound) if self.translation_bound is not None else None
            ),
            "assumptions": list(ASSUMPTIONS),
        }


def classify(word: Word, realization: Realization) -> ClassificationReport:
    """Conjugacy-reduce the word, split its support along the complement
    graph, and report the Thurston type of each piece.

    The word of a component is the canonical reduced word restricted to
    the component's generators, and it is already canonical.  Generators
    of different components commute, so every blocker of a component's
    generator, and every chain that keeps two of its equal syllables
    apart, lies in that component: the heap of the word is the disjoint
    union of the components' heaps, and the restriction stays minimal.
    The greedy pass emits the smallest movable generator, so on a
    disjoint union it restricts to the greedy pass of each part.

    The reduced word's syllables are checked already, so a component's
    word is built from them without checking them again.  When the
    complement graph leaves one component, that component is the whole
    support: its word is the reduced word, and its fill is the support's
    fill, so ``fill`` runs once.
    """
    if word.graph != realization.graph:
        raise GraphMismatch("word and realization use different defining graphs")
    canonical = normalize(word)
    reduced, conjugator = cyclically_reduce(canonical)
    support = sorted(reduced.support(), key=word.graph.index.get)
    r = len(support)
    if r == 0:
        return ClassificationReport(canonical, reduced, conjugator, 0, (), "identity", None)
    filled = fill(realization, support)
    if len(filled.components) == 1:
        components = [ComponentReport(filled.components[0], reduced, filled.fills_ambient)]
    else:
        components = []
        for part in filled.components:
            part_word = Word._from_checked(
                tuple([s for s in reduced.syllables if s.generator in part]), reduced.graph
            )
            components.append(
                ComponentReport(part, part_word, fill(realization, part).fills_ambient)
            )
    overall, bound = "reducible", None
    if len(components) == 1 and components[0].fills_ambient:
        # Imported here, as only this report holds a fraction: fractions
        # loads decimal, which the first access to the package skips.
        from fractions import Fraction
        overall, bound = "pseudo_anosov", Fraction(1, 2 * r + 1)
    return ClassificationReport(
        canonical, reduced, conjugator, r, tuple(components), overall, bound
    )


def translation_length_bound(word: Word, realization: Realization) -> Fraction:
    """The certified asymptotic lower bound 1/(2r + 1) on the curve
    complex translation length; defined only for words whose image is
    pseudo-Anosov on the whole ambient surface."""
    report = classify(word, realization)
    if report.overall != "pseudo_anosov":
        raise NotFilling(
            f"mapping class is {report.overall}, not pseudo-Anosov on the ambient surface",
            overall=report.overall,
        )
    return report.translation_bound


# -- brute-force verification of the power structure -------------------------

PASS = "pass"
FAIL = "fail"
PRECONDITION_UNMET = "precondition_unmet"


def _entry(status: str, note: str) -> dict[str, str]:
    return {"status": status, "note": note}


def verify_power_properties(
    word: Word,
    cap: int = DEFAULT_CAP,
    realization: Realization | None = None,
    oracle_budget: int = DEFAULT_CAP,
    max_power: int = 4,
) -> dict[str, dict]:
    """Brute-force re-derivation of the facts the classifier rests on,
    for one conjugacy-minimal word:

    * image_coverage: every reference curve meets the subsurface of some
      syllable whose prefix fixes the curve (so the syllable images fill
      whenever the support does);
    * power_minimality: the n-fold concatenations stay syllable-minimal
      for n up to ``max_power``, per the exhaustive oracle;
    * square_precedence: in the square, every syllable precedes its
      shifted copy;
    * power_comparability: in the (r+1)-st power, every syllable precedes
      every shifted syllable, r the number of distinct generators.

    The last three need a support of at least two generators spanning a
    connected piece of the complement graph; outside that the status is
    ``precondition_unmet``.  Likewise image_coverage reports
    ``precondition_unmet`` when the support's subsurfaces do not fill.
    Both are read off one ``fill`` of the support.  A realization over
    another defining graph raises GraphMismatch, as in ``classify``.
    ``cap`` bounds nothing: no check here enumerates representatives.

    Every power is read off the n-fold concatenation of the canonical
    word, and only the word itself is normalized.  Under the
    preconditions that concatenation is a minimal word of w^n, its blocks
    copies of w (``power_shift_map`` gives the argument), so its
    ``heap_masks`` are the syllable order of w^n, and position b·k + i,
    k the syllable count of w, holds the copy of syllable i in block
    b + 1, the one ``power_shift_map`` sends syllable i to.  So syllable
    i precedes its shifted copy when bit i of ``square[k + i]`` is set,
    and precedes the last block's copy of syllable j when bit i of
    ``high[r·k + j]`` is; the labels are the ``syllable_ids`` of the
    word.  The exhaustive oracle still checks every power before any
    order is read; a concatenation that collapsed would have another
    heap, and its dependent check would fail with every syllable or pair
    reported missing.
    """
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
        return {
            name: _entry(PASS, "empty word; nothing to check")
            for name in ("image_coverage", "power_minimality", "square_precedence",
                         "power_comparability")
        }

    # Coverage: a curve that some syllable's base meets is met by the first
    # such syllable, and the prefix before it only uses subsurfaces missing
    # the curve, hence fixes it in the model.  ``fill`` meets the generators
    # in syllable order, so a vertex without a subsurface is reported at
    # its first syllable.
    filled = fill(realization, [s.generator for s in canonical.syllables])
    if filled.fills_ambient:
        report = {"image_coverage": _entry(PASS, "every reference curve meets a syllable image")}
    else:
        uncovered = sorted(filled.uncovered_curves, key=realization.reference_curves.index)
        report = {"image_coverage": _entry(
            PRECONDITION_UNMET, f"support does not fill; uncovered curves {uncovered}"
        )}

    if r < 2 or len(filled.components) != 1:
        note = (
            "support has a single generator"
            if r < 2
            else "support is disconnected in the complement graph"
        )
        for name in ("power_minimality", "square_precedence", "power_comparability"):
            report[name] = _entry(PRECONDITION_UNMET, note)
        return report

    k = len(canonical.syllables)
    checked = range(2, max_power + 1)
    concatenations = {n: concatenated_power(canonical, n) for n in {*checked, 2, r + 1}}
    minimal = {n: is_minimal(power) for n, power in concatenations.items()}
    bad_powers = [
        n for n in checked
        if oracle_min_syllables(concatenations[n], oracle_budget) != n * k or not minimal[n]
    ]
    report["power_minimality"] = (
        _entry(PASS, f"powers 2..{max_power} stay minimal")
        if not bad_powers
        else _entry(FAIL, f"powers {bad_powers} collapse")
    )

    # A collapsed concatenation is read as no order at all.
    square, high = [
        heap_masks(concatenations[n]) if minimal[n] else [0] * (n * k) for n in (2, r + 1)
    ]
    ids = syllable_ids(canonical)
    misses = [s.label() for i, s in enumerate(ids) if not square[k + i] >> i & 1]
    report["square_precedence"] = (
        _entry(PASS, "every syllable precedes its shifted copy")
        if not misses
        else _entry(FAIL, f"syllables {misses} do not precede their shifts")
    )
    miss_pairs = [
        (s.label(), t.label())
        for i, s in enumerate(ids)
        for j, t in enumerate(ids)
        if not high[r * k + j] >> i & 1
    ]
    report["power_comparability"] = (
        _entry(PASS, f"all pairs comparable across {r} blocks")
        if not miss_pairs
        else _entry(FAIL, f"incomparable pairs {miss_pairs[:5]}")
    )
    return report
