"""Mutation checks: each entry breaks one line of the library in a copy of
``src/`` and names the tests that must then fail.

Run from anywhere, with pytest installed:

    python tests/mutations.py              # every entry
    python tests/mutations.py reorder-key  # entries named on the command line

For each entry the script copies ``src/`` to a temporary directory,
replaces the entry's old text (which must occur exactly once in its file)
with the new text, and runs pytest on the entry's test ids with
``PYTHONPATH`` on the copy.  A nonzero pytest exit kills the mutation, and
so does a run that is stopped after ``TIMEOUT`` seconds (a mutant that
makes a loop endless); a zero exit lets it survive.  An old text that is
missing or occurs twice is an error, so a refactor of the code an entry
names must update the entry instead of dropping it silently.  Before any
mutation, every named test must pass on the unedited copy, or a kill
would prove nothing.

The file name has no ``test_`` prefix, so tier-1 does not collect it.
Exits 0 when every entry is killed and 1 otherwise.
"""

from __future__ import annotations

import os
import shutil
import subprocess
import sys
import tempfile
from dataclasses import dataclass
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


@dataclass(frozen=True)
class Mutation:
    name: str
    file: str  # relative to src/raagmcg
    old: str
    new: str
    tests: tuple[str, ...]  # pytest node ids, relative to the repository root


WALK_TEST = (
    "tests/test_representatives.py::"
    "test_walk_on_the_syllables_left_after_a_down_set_matches_swap_closure"
)
EMBEDDING_TEST = (
    "tests/test_subsurface_map.py::test_order_embedding_matches_the_pair_loops_on_corrupted_heaps"
)

MUTATIONS = [
    # Cyclic reduction: the round that reads the canonical order off the
    # masks, the first order of the walk on the live syllables, whose masks
    # still hold the bits of the dropped ones.
    Mutation(
        "reorder-ready-test",
        "words.py",
        "if p >= 0 and not below[p] & unplaced:",
        "if p >= 0 and not below[p]:",
        (
            "tests/test_cyclic_reduction.py::test_reordered_rounds_match_normalize",
            WALK_TEST,
        ),
    ),
    Mutation(
        "reorder-key",
        "words.py",
        "low = m & -m",
        "low = m & -m if m & m - 1 == 0 else m & m - 1 & -(m & m - 1)",
        (
            "tests/test_cyclic_reduction.py::test_reordered_rounds_match_normalize",
            WALK_TEST,
        ),
    ),
    Mutation(
        "reorder-trigger",
        "syllables.py",
        "            if not moved_first:\n                current.reorder()",
        "            if moved_first:\n                current.reorder()",
        (
            "tests/test_cyclic_reduction.py::test_cancelled_minimal_partner_changes_the_normal_form",
            "tests/test_cyclic_reduction.py::test_renormalizing_family_builds_one_heap",
        ),
    ),
    Mutation(
        "reduction-first-syllable-priority",
        "syllables.py",
        "moves = [(first, p) for p, i in partners if i == first] + [(p, i) for p, i in partners if i != p]",
        "moves = [(p, i) for p, i in partners if i != p] + [(first, p) for p, i in partners if i == first]",
        ("tests/test_cyclic_reduction.py::test_live_heap_matches_trial_conjugation_on_long_conjugates",),
    ),
    Mutation(
        "reduction-live-minimal",
        "syllables.py",
        "minimal = {syllables[i].generator: i for i in order if not below[i] & live}",
        "minimal = {syllables[i].generator: i for i in order if not below[i]}",
        ("tests/test_cyclic_reduction.py::test_live_heap_matches_trial_conjugation_on_long_conjugates",),
    ),
    # Shift maps: the canonical order of w^m, read off the concatenation's heap.
    Mutation(
        "shift-map-reorder",
        "syllables.py",
        "    base.reorder()\n",
        "",
        ("tests/test_syllables.py::test_shift_map_keys_follow_the_canonical_order_of_the_power",),
    ),
    # The syllable order.
    Mutation(
        "hasse-covers",
        "syllables.py",
        "if mask >> p & 1 and not through >> p & 1:",
        "if mask >> p & 1:",
        ("tests/test_syllables.py::test_order_hasse_covers",),
    ),
    Mutation(
        "hasse-through",
        "syllables.py",
        "through |= below[p]",
        "through = below[p]",
        ("tests/test_syllables.py::test_covering_pairs_match_the_mask_reference_on_long_words",),
    ),
    Mutation(
        "hasse-last-position",
        "syllables.py",
        "last[s.generator] = j",
        "last.setdefault(s.generator, j)",
        (
            "tests/test_syllables.py::test_covering_pairs_match_the_mask_reference_on_long_words",
            "tests/test_syllables.py::test_covering_pairs_match_the_mask_reference_on_interleavings",
        ),
    ),
    Mutation(
        "syllable-occurrence",
        "syllables.py",
        "counts[key] = n = counts[key] + 1 if key in counts else 1",
        "counts[key] = n = 1",
        ("tests/test_syllables.py::test_syllable_ids_positions",),
    ),
    # Constants: a hand-built pack is checked as numbers.
    Mutation(
        "constants-number-check",
        "subsurface_map.py",
        "            _check_number(name, value)\n        if self.k < 20:",
        "            pass\n        if self.k < 20:",
        ("tests/test_subsurface_map.py::test_hand_built_constants_that_are_not_finite_numbers_are_typed",),
    ),
    Mutation(
        "constants-other-reals",
        "subsurface_map.py",
        "if not isinstance(value, Real):",
        "if True:",
        ("tests/test_subsurface_map.py::test_constants_accept_a_real_that_is_neither_int_nor_float",),
    ),
    Mutation(
        "constants-d-sign",
        "subsurface_map.py",
        "if self.d < 0:",
        "if self.d < -1:",
        ("tests/test_subsurface_map.py::test_constants_reject_bad_shape",),
    ),
    # Certificates: the entries of the one walk, and sigma's tokens as prefixes.
    Mutation(
        "certificate-bound-abs",
        "subsurface_map.py",
        "k * abs(sid.exponent)",
        "k * sid.exponent",
        ("tests/test_one_walk.py::test_certificates_match_the_reference_on_pentagon_powers",),
    ),
    Mutation(
        "certificate-prefix-tokens",
        "subsurface_map.py",
        '" ".join(tokens[:i])',
        '" ".join(tokens[:i - 1])',
        ("tests/test_one_walk.py::test_certificates_match_the_reference_on_pentagon_powers",),
    ),
    # The order-embedding check, fed corrupted heaps: each of its three tests,
    # the next occurrence the first test reads, and the best-i bound of the rows.
    Mutation(
        "embedding-same-subsurface",
        "subsurface_map.py",
        "if nxt and not outside[s.generator] & (nxt - (1 << i)):",
        "if False:",
        (EMBEDDING_TEST,),
    ),
    Mutation(
        "embedding-non-commuting",
        "subsurface_map.py",
        "if outside[s.generator] >> j & 1:",
        "if False:",
        (EMBEDDING_TEST,),
    ),
    Mutation(
        "embedding-shared-prefix",
        "subsurface_map.py",
        "                if outside[s.generator] & (down ^ (low - 1)):\n"
        "                    found = (s, None)  # s is not the shared-prefix translate\n"
        "                elif outside[t.generator] & (down ^ prefix):",
        "                if False:\n"
        "                    found = (s, None)  # s is not the shared-prefix translate\n"
        "                elif False:",
        (EMBEDDING_TEST,),
    ),
    Mutation(
        "embedding-next-but-one",
        "subsurface_map.py",
        "nxt = later & -later",
        "later &= later - 1; nxt = later & -later",
        (EMBEDDING_TEST,),
    ),
    Mutation(
        "embedding-best-i-bound",
        "subsurface_map.py",
        "unordered = prefix & ~below[j] & bound",
        "unordered = prefix & ~below[j]",
        (EMBEDDING_TEST,),
    ),
    # The canonical mark, written by Word._from_checked for normal forms and
    # for the reduced word of cyclic reduction.
    Mutation(
        "normal-form-canonical-mark",
        "words.py",
        "Word._from_checked(syllables, graph, canonical=True)",
        "Word._from_checked(syllables, graph, canonical=False)",
        ("tests/test_canonical_mark.py::test_normal_forms_are_returned_as_they_are",),
    ),
    Mutation(
        "reduced-canonical-mark",
        "syllables.py",
        "canonical=True",
        "canonical=False",
        ("tests/test_checked_words.py::test_words_over_checked_syllables_equal_checked_words",),
    ),
    # The one decoder of graph and realization JSON.
    Mutation(
        "json-decoder-line",
        "errors.py",
        "line=err.lineno",
        "line=err.colno",
        (
            "tests/test_realization.py::test_loaders_map_json_failures_alike[syntax-graph]",
            "tests/test_realization.py::test_loaders_map_json_failures_alike[syntax-realization]",
        ),
    ),
    Mutation(
        "json-decoder-constants",
        "errors.py",
        "json.JSONDecoder(parse_constant=_reject_constant, parse_float=_finite_float)",
        "json.JSONDecoder(parse_float=_finite_float)",
        (
            "tests/test_realization.py::test_loaders_map_json_failures_alike[nan-graph]",
            "tests/test_cli_fuzz.py::test_cli_fixed_cases_numbers_outside_standard_json",
        ),
    ),
    # The heap and the dependence relation behind it; a heap that ORs over
    # every earlier syllable is still right, and only its guard sees it.
    Mutation(
        "heap-quadratic",
        "words.py",
        "        for h in dependence[g]:\n            mask |= closed[h]\n",
        "        for i in range(j):\n"
        "            if index[word.syllables[i].generator] in dependence[g]:\n"
        "                mask |= below[i] | 1 << i\n",
        ("tests/test_complexity.py::test_layer_is_linear_in_line_events[heap_masks]",),
    ),
    Mutation(
        "heap-own-bit",
        "words.py",
        "closed[g] = mask | 1 << j",
        "closed[g] = mask",
        (
            "tests/test_heap.py::test_heap_matches_enumeration_on_random_words",
            "tests/test_representatives.py::test_heap_walk_matches_swap_closure_on_random_words",
        ),
    ),
    Mutation(
        "dependence-first-member",
        "defining_graph.py",
        "tuple([j for j, commutes in enumerate(row) if i == j or not commutes])",
        "tuple([j for j, commutes in enumerate(row) if i == j or not commutes][1:])",
        (
            "tests/test_left_greedy.py::test_greedy_pass_matches_reference_on_small_graphs",
            "tests/test_left_greedy.py::test_greedy_pass_matches_reference_on_long_words",
        ),
    ),
    Mutation(
        "push-cancel",
        "words.py",
        "                if s == 0:\n                    del out[j]",
        "                if False:\n                    del out[j]",
        ("tests/test_words.py::test_multiply_cancels",),
    ),
    # The literal moves: move 1's range, and n >= 0 for a concatenated power.
    Mutation(
        "move-one-range",
        "words.py",
        "if not 1 <= position <= k:",
        "if False:",
        ("tests/test_words.py::test_move_one_removes_zero_exponent",),
    ),
    Mutation(
        "concatenated-power-sign",
        "words.py",
        "    if n < 0:\n        raise ValueError",
        "    if n < -1:\n        raise ValueError",
        ("tests/test_words.py::test_concatenated_power_is_unreduced_and_needs_nonnegative_n",),
    ),
    # Subgroup and star-coset tests: the free reduction of the word, and the
    # inverse of the first prefix.
    Mutation(
        "subgroup-raw-word",
        "words.py",
        "_minimal_pairs(_encode(u), graph.commutation_matrix)",
        "_encode(u)",
        (
            "tests/test_star_cosets.py::test_subgroup_matches_the_normal_form_reference_on_seeded_words",
            "tests/test_star_cosets.py::test_subgroup_reads_the_reduced_word_not_the_raw_one",
        ),
    ),
    Mutation(
        "coset-inverse-sign",
        "subsurface_map.py",
        "Syllable(s.generator, -s.exponent)",
        "Syllable(s.generator, s.exponent)",
        (
            "tests/test_star_cosets.py::test_equivalent_matches_the_multiplying_reference_on_seeded_values",
            "tests/test_star_cosets.py::test_equivalent_inverts_the_first_prefix",
        ),
    ),
    Mutation(
        "greedy-tie-break",
        "words.py",
        "if g not in blocked and (best is None or g < pending[best][0]):",
        "if g not in blocked and (best is None or g > pending[best][0]):",
        ("tests/test_left_greedy.py::test_greedy_pass_matches_reference_on_small_graphs",),
    ),
    Mutation(
        "representatives-lowest-bit",
        "words.py",
        "low = m & -m",
        "low = 1 << m.bit_length() - 1",
        (
            "tests/test_representatives.py::test_heap_walk_matches_swap_closure_on_random_words",
            "tests/test_representatives.py::test_interleaving_walk_matches_swap_closure[3-924]",
        ),
    ),
    Mutation(
        "representatives-wrong-path",
        "words.py",
        "tuple(map(syllables.__getitem__, path))",
        "tuple(map(syllables.__getitem__, sorted(path)))",
        ("tests/test_representatives.py::test_heap_walk_matches_swap_closure_on_random_words",),
    ),
    # The walk stops once it has listed ``limit`` orders.
    Mutation(
        "walk-limit-countdown",
        "words.py",
        "limit -= 1",
        "limit -= 2",
        (WALK_TEST,),
    ),
    Mutation(
        "representatives-ready-test",
        "words.py",
        "if q >= 0 and not below[q] & unplaced:",
        "if q >= 0:",
        ("tests/test_representatives.py::test_heap_walk_matches_swap_closure_on_random_words",),
    ),
    # A ready set rebuilt over every syllable at each step lists the same
    # words, and only its guard sees it.
    Mutation(
        "representatives-quadratic",
        "words.py",
        "                child = ready[depth] ^ low\n"
        "                for h in dependence[g]:\n"
        "                    q = first[h]\n"
        "                    if q >= 0 and not below[q] & unplaced:\n"
        "                        child |= 1 << h\n",
        "                child = 0\n"
        "                for q in range(k):\n"
        "                    if unplaced >> q & 1 and not below[q] & unplaced:\n"
        "                        child |= 1 << gens[q]\n",
        ("tests/test_complexity.py::test_minimal_representatives_is_linear_per_representative",),
    ),
    # classify: a single component reuses the support's fill, which may not fill.
    Mutation(
        "classify-single-component-fill",
        "classification.py",
        "ComponentReport(filled.components[0], reduced, filled.fills_ambient)",
        "ComponentReport(filled.components[0], reduced, True)",
        (
            "tests/test_one_walk.py::"
            "test_reports_match_the_reference_on_single_components_that_do_not_fill",
        ),
    ),
    # verify: a power that is not minimal is reported, not ordered.
    Mutation(
        "verify-power-minimality",
        "classification.py",
        "minimal = {n: is_minimal(power) for n, power in concatenations.items()}",
        "minimal = {n: True for n in concatenations}",
        ("tests/test_classification.py::test_verify_reports_unordered_or_collapsed_powers_as_failures",),
    ),
    # Niceness of a realization: one-sided incidence is nesting, and the
    # mismatch message names which way disjointness and commuting disagree.
    Mutation(
        "niceness-nesting-test",
        "realization.py",
        "if (a.core in b.intersects) != overlap:",
        "if (a.core in b.intersects) == overlap:",
        ("tests/test_realization.py::test_one_sided_incidence_is_nesting",),
    ),
    Mutation(
        "niceness-mismatch-messages",
        "realization.py",
        "if overlap else",
        "if not overlap else",
        (
            "tests/test_realization.py::test_overlap_on_edge_is_mismatch",
            "tests/test_realization.py::test_disjoint_on_non_edge_is_mismatch",
        ),
    ),
    # The move-graph oracle: a word it has seen goes back on the frontier,
    # so swapping two equal syllables never ends the search.  The named
    # test hangs, and the time limit of the run kills it.
    Mutation(
        "oracle-seen-test",
        "words.py",
        "if nxt not in seen:",
        "if nxt in seen:",
        ("tests/test_acceptance.py::test_normalization_matches_exhaustive_oracle",),
    ),
    # The CLI: an answer past the int-to-str digit limit is IntegerTooLong.
    Mutation(
        "emit-json-digit-limit",
        "cli.py",
        "    except ValueError:\n        raise IntegerTooLong() from None",
        "    except OverflowError:\n        raise IntegerTooLong() from None",
        ("tests/test_cli_fuzz.py::test_cli_fixed_cases_integers_too_long_to_print",),
    ),
    # The CLI: a one-shot parser prints the full parser's usage line.
    Mutation(
        "parser-metavar",
        "cli.py",
        'metavar = "{" + ",".join(COMMANDS) + "}" if one else None',
        "metavar = None",
        ("tests/test_startup.py::test_usage_matrix_matches_the_full_parser",),
    ),
    # Value classes: the hash of the field tuple, the ordering of syllable
    # ids, and the frozen guard.
    Mutation(
        "syllable-hash-field",
        "defining_graph.py",
        "return hash(self._fields(self))",
        "return hash(self._fields(self)[:1])",
        ("tests/test_value_classes.py::test_hash_is_the_hash_of_the_field_tuple[Syllable]",),
    ),
    Mutation(
        "syllable-id-order-field",
        "syllables.py",
        "return self._fields(self) < other._fields(other)",
        "return self._fields(self) <= other._fields(other)",
        ("tests/test_value_classes.py::test_syllable_id_orders_by_its_field_tuple",),
    ),
    Mutation(
        "frozen-eq-class",
        "defining_graph.py",
        "        if other.__class__ is self.__class__:\n"
        "            return self._fields(self) == other._fields(other)\n"
        "        return NotImplemented",
        "        return self._fields(self) == self._fields(other)",
        ("tests/test_value_classes.py::test_equality_only_within_the_class[Syllable]",
         "tests/test_value_classes.py::test_equal_fields_of_another_class_are_not_equal"),
    ),
    Mutation(
        "frozen-assignment",
        "defining_graph.py",
        "        raise AttributeError(f\"cannot assign to field {name!r}\")",
        "        object.__setattr__(self, name, value)",
        ("tests/test_value_classes.py::test_fields_cannot_be_assigned_or_deleted",),
    ),
]


# Seconds one pytest run may take: the run of every named test on the
# unedited copy takes about 12 s, and a mutant's run a few seconds.
TIMEOUT = 40


def pytest_exit(src: Path, tests) -> int | None:
    """The pytest exit code, or None when the run is stopped at TIMEOUT."""
    # -o pythonpath= drops the pyproject setting that puts the repository's
    # own src/ ahead of PYTHONPATH.
    env = {**os.environ, "PYTHONPATH": str(src)}
    command = [sys.executable, "-m", "pytest", "-q", "-x", "-p", "no:cacheprovider",
               "-o", "pythonpath=", *tests]
    try:
        return subprocess.run(command, cwd=ROOT, env=env, stdout=subprocess.DEVNULL,
                              stderr=subprocess.DEVNULL, timeout=TIMEOUT).returncode
    except subprocess.TimeoutExpired:
        return None


def main(names: list[str]) -> int:
    unknown = set(names) - {m.name for m in MUTATIONS}
    if unknown:
        print(f"unknown mutations: {sorted(unknown)}", file=sys.stderr)
        return 2
    chosen = [m for m in MUTATIONS if not names or m.name in names]
    with tempfile.TemporaryDirectory() as tmp:
        clean = Path(tmp, "clean")
        shutil.copytree(ROOT / "src", clean, ignore=shutil.ignore_patterns("__pycache__"))
        tests = sorted({t for m in chosen for t in m.tests})
        if pytest_exit(clean, tests) != 0:
            print("the named tests fail on the unedited source", file=sys.stderr)
            return 1
        survived = 0
        for m in chosen:
            copy = Path(tmp, m.name)
            shutil.copytree(clean, copy, ignore=shutil.ignore_patterns("__pycache__"))
            path = copy / "raagmcg" / m.file
            text = path.read_text()
            if text.count(m.old) != 1:
                print(f"{m.name}: old text occurs {text.count(m.old)} times in {m.file}",
                      file=sys.stderr)
                return 1
            path.write_text(text.replace(m.old, m.new))
            code = pytest_exit(copy, m.tests)
            survived += code == 0
            print(f"{'SURVIVED' if code == 0 else 'killed'}  {m.name}"
                  + (f" (timed out after {TIMEOUT} s)" if code is None else ""))
            shutil.rmtree(copy)
    print(f"{len(chosen) - survived} of {len(chosen)} mutations killed")
    return 1 if survived else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
