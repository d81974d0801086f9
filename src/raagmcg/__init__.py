"""Syllable normal forms in right-angled Artin groups, the partial order
on syllables, symbolic subsurface images, Thurston-type classification,
and quasi-isometry lower-bound certificates.

``import raagmcg`` loads no submodule. The first access to a name in
``__all__`` loads all seven and binds every public name at once.
"""

__version__ = "0.1.0"

__all__ = [
    "DEFAULT_CAP",
    "Certificate",
    "CertificateEntry",
    "CheckResult",
    "ClassificationReport",
    "ComponentReport",
    "Constants",
    "DefiningGraph",
    "FillResult",
    "MappedSubsurface",
    "Realization",
    "Subsurface",
    "Syllable",
    "SyllableId",
    "SyllableOrder",
    "Word",
    "apply_move",
    "build_standard_realization",
    "check_order_embedding",
    "check_representative_independence",
    "classify",
    "concatenated_power",
    "cyclically_reduce",
    "default_constants",
    "empty_word",
    "equal_elements",
    "fill",
    "in_special_subgroup",
    "invert",
    "is_cyclically_reduced",
    "is_minimal",
    "make_certificate",
    "minimal_representatives",
    "multiply",
    "normalize",
    "oracle_min_syllables",
    "parse_word",
    "power",
    "power_shift_map",
    "syllable_ids",
    "syllable_order",
    "syllable_subsurface_map",
    "translation_length_bound",
    "validate_realization",
    "verify_power_properties",
    "word_from_pairs",
    # errors
    "RaagError",
    "CapExceeded",
    "DanglingEdge",
    "DisjointnessMismatch",
    "DuplicateCurve",
    "DuplicateVertex",
    "GraphMismatch",
    "IntegerTooLong",
    "InvalidConstants",
    "MalformedGraph",
    "MalformedRealization",
    "MalformedWord",
    "MoveNotApplicable",
    "NestingDetected",
    "NotCyclicallyReduced",
    "NotFilling",
    "SearchBudgetExceeded",
    "SelfLoop",
    "ShiftMapUndefined",
    "UnknownCurve",
    "UnknownVertex",
]


def __getattr__(name):
    if name not in __all__:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    from . import (
        classification, defining_graph, errors, realization, subsurface_map, syllables, words,
    )

    namespace = globals()
    for module in (errors, defining_graph, words, syllables, realization, subsurface_map,
                   classification):
        public = vars(module)
        namespace.update((n, public[n]) for n in __all__ if n in public)
    return namespace[name]


def __dir__():
    return sorted(set(globals()) | set(__all__))
