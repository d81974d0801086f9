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

from dataclasses import dataclass
from fractions import Fraction

from .errors import GraphMismatch, NotCyclicallyReduced, NotFilling
from .realization import Realization, build_standard_realization, fill
from .syllables import cyclically_reduce, is_cyclically_reduced, power_shift_map, syllable_order
from .words import DEFAULT_CAP, Word, concatenated_power, normalize, oracle_min_syllables, power

ASSUMPTIONS = ("tau_X(f_i) >= C for all i", "realization is nice")

COMPONENT_KIND = "pseudo_anosov_on_component"


@dataclass(frozen=True)
class ComponentReport:
    generators: tuple[str, ...]
    word: Word
    fills_ambient: bool
    kind: str = COMPONENT_KIND


@dataclass(frozen=True)
class ClassificationReport:
    input: Word
    reduced: Word
    conjugator: Word
    r: int
    components: tuple[ComponentReport, ...]
    overall: str
    translation_bound: Fraction | None

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
    """
    if word.graph != realization.graph:
        raise GraphMismatch("word and realization use different defining graphs")
    canonical = normalize(word)
    reduced, conjugator = cyclically_reduce(canonical)
    support = sorted(reduced.support(), key=word.graph.index.get)
    r = len(support)
    if r == 0:
        return ClassificationReport(canonical, reduced, conjugator, 0, (), "identity", None)
    fill_result = fill(realization, support)
    components = []
    for part in fill_result.components:
        components.append(
            ComponentReport(
                generators=part,
                word=Word(tuple(s for s in reduced.syllables if s.generator in part), word.graph),
                fills_ambient=fill(realization, part).fills_ambient,
            )
        )
    pseudo_anosov = len(components) == 1 and components[0].fills_ambient
    overall = "pseudo_anosov" if pseudo_anosov else "reducible"
    bound = Fraction(1, 2 * r + 1) if pseudo_anosov else None
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
        status = {"status": PASS, "note": "empty word; nothing to check"}
        return {
            "image_coverage": dict(status),
            "power_minimality": dict(status),
            "square_precedence": dict(status),
            "power_comparability": dict(status),
        }

    # Coverage: a curve that some syllable's base meets is met by the first
    # such syllable, and the prefix before it only uses subsurfaces missing
    # the curve, hence fixes it in the model.  ``fill`` meets the generators
    # in syllable order, so a vertex without a subsurface is reported at
    # its first syllable.
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
