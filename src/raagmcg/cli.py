"""Command-line front end.

Exit codes: 0 on success, 1 on domain errors (with a machine-readable
error JSON on stdout), 2 on usage errors.

A one-shot call pays only for its own command: each command imports the
modules it calls, and the parser builds only the subcommand parser that
``argv[0]`` names (all of them when it names none).
"""

from __future__ import annotations

import argparse
import json
import os
import sys

from .errors import (
    GraphMismatch, IntegerTooLong, MalformedGraph, MalformedRealization, RaagError,
)

ENV_CAP = "RAAGMCG_CAP"

# name: (help, output formats, default format), in the order of --help.
COMMANDS = {
    "normalize": ("canonical minimal-syllable form", ["text", "json"], "text"),
    "min-enum": ("all minimal representatives", ["text", "json"], "json"),
    "order": ("syllable partial order", ["dot", "json"], "dot"),
    "reduce": ("conjugacy-minimal form and conjugator", ["text", "json"], "json"),
    "oracle": ("exhaustive minimal syllable count", ["text", "json"], "text"),
    "realize": ("build or validate a realization", ["json", "dot"], "json"),
    "classify": ("Thurston type report", ["json"], "json"),
    "verify": ("brute-force checks of the power structure", ["json"], "json"),
    "certify": ("quasi-isometry lower-bound certificate", ["json"], "json"),
}


def _cap(text: str) -> int:
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"cap must be an integer, got {text!r}") from None
    if value <= 0:
        raise argparse.ArgumentTypeError(f"cap must be positive, got {value}")
    return value


def _default_cap(parser: argparse.ArgumentParser) -> int:
    try:
        return _cap(os.environ.get(ENV_CAP, "100000"))
    except argparse.ArgumentTypeError as err:
        parser.error(f"{ENV_CAP}: {err}")


def _number(text: str):
    try:
        return int(text)
    except ValueError:
        return float(text)


def _read(path: str, error: type[RaagError], kind: str) -> str:
    try:
        with open(path, "r", encoding="utf-8") as handle:
            return handle.read()
    except UnicodeDecodeError as err:
        raise error(
            f"{kind} file is not UTF-8: {err.reason} at byte {err.start}", offset=err.start
        ) from None
    except OSError as err:
        raise error(f"{kind} file cannot be read: {err.strerror}", path=path) from None


def _load_graph(path: str):
    from .defining_graph import DefiningGraph

    return DefiningGraph.from_json(_read(path, MalformedGraph, "graph"))


def _load_realization(source: str, graph):
    from .realization import Realization, build_standard_realization, validate_realization

    if source == "std":
        realization = build_standard_realization(graph)
    else:
        realization = Realization.from_json(_read(source, MalformedRealization, "realization"))
        if realization.graph != graph:
            raise GraphMismatch("realization graph differs from --graph")
    validate_realization(realization)
    return realization


def _emit(text: str) -> None:
    sys.stdout.write(text)
    if not text.endswith("\n"):
        sys.stdout.write("\n")


def _emit_json(obj) -> None:
    # allow_nan=False raises for no float here: the constants are checked
    # finite, and the JSON decoder admits no NaN or infinity into a graph
    # or a realization.  So a ValueError is the int-to-str digit limit.
    try:
        text = json.dumps(obj, indent=2, allow_nan=False)
    except ValueError:
        raise IntegerTooLong() from None
    _emit(text)


def build_parser(command: str | None = None) -> argparse.ArgumentParser:
    """The parser of ``command``'s subcommand alone, or of all of them when
    ``command`` names none: the help listing and the "invalid choice" error
    need every subcommand, a named one needs only its own."""
    parser = argparse.ArgumentParser(
        prog="raagmcg",
        description=(
            "Syllable normal forms in right-angled Artin groups and the "
            "Thurston types of their mapping class images."
        ),
    )
    cap = _default_cap(parser)
    one = command in COMMANDS
    # Naming all nine keeps the usage line of a one-subcommand parser; the
    # full parser keeps argparse's own metavar, which its errors print.
    metavar = "{" + ",".join(COMMANDS) + "}" if one else None
    sub = parser.add_subparsers(dest="command", required=True, metavar=metavar)
    for name in [command] if one else COMMANDS:
        help_text, formats, default_format = COMMANDS[name]
        p = sub.add_parser(name, help=help_text)
        if name == "realize":
            p.add_argument("--graph", required=True)
            p.add_argument(
                "--realization", default="std", help='"std" or a path to a realization JSON'
            )
            p.add_argument("--format", choices=formats, default=default_format)
            continue
        p.add_argument("--graph", required=True, help="path to a graph JSON file")
        p.add_argument("--word", required=True, help="word in the token grammar")
        p.add_argument("--min-cap", type=_cap, default=cap, dest="min_cap")
        p.add_argument("--search-cap", type=_cap, default=cap, dest="search_cap")
        p.add_argument("--format", choices=formats, default=default_format)
        if name in ("classify", "verify"):
            p.add_argument("--realization", default="std")
        elif name == "certify":
            p.add_argument("--k0", type=_number, default=10)
            p.add_argument("--d", type=_number, default=6)
            p.add_argument("--a", type=_number, default=2)
            p.add_argument("--b", type=_number, default=10)
            p.add_argument("--k", type=_number, default=None, help="explicit K override")
    return parser


def run(args: argparse.Namespace) -> int:
    graph = _load_graph(args.graph)
    command = args.command
    if command == "realize":
        realization = _load_realization(args.realization, graph)
        if args.format == "dot":
            _emit(graph.to_dot("gamma") + graph.complement().to_dot("gamma_complement"))
        else:
            _emit_json(realization.to_json_dict())
        return 0

    from .words import minimal_representatives, normalize, oracle_min_syllables, parse_word

    word = parse_word(args.word, graph)
    if command == "normalize":
        result = normalize(word)
        if args.format == "json":
            _emit_json({"input": str(word), "normalized": str(result)})
        else:
            _emit(str(result))
    elif command == "min-enum":
        canonical = normalize(word)
        reps = minimal_representatives(canonical, args.min_cap)
        if args.format == "json":
            _emit_json(
                {"word": str(canonical), "count": len(reps),
                 "members": [str(r) for r in reps]}
            )
        else:
            _emit("\n".join(str(r) for r in reps))
    elif command == "order":
        from .syllables import syllable_order

        order = syllable_order(word)
        if args.format == "json":
            _emit_json(order.to_json_dict())
        else:
            _emit(order.to_dot())
    elif command == "reduce":
        from .syllables import cyclically_reduce

        reduced, conjugator = cyclically_reduce(word)
        if args.format == "json":
            _emit_json(
                {"input": str(word), "reduced": str(reduced), "conjugator": str(conjugator)}
            )
        else:
            _emit(f"reduced: {reduced}\nconjugator: {conjugator}")
    elif command == "oracle":
        count = oracle_min_syllables(word, args.search_cap)
        if args.format == "json":
            _emit_json({"word": str(word), "min_syllables": count})
        else:
            _emit(str(count))
    elif command == "classify":
        from .classification import classify

        realization = _load_realization(args.realization, graph)
        report = classify(word, realization)
        _emit_json(report.to_json_dict())
    elif command == "verify":
        from .classification import verify_power_properties

        realization = _load_realization(args.realization, graph)
        canonical = normalize(word)
        report = verify_power_properties(
            canonical, realization=realization, oracle_budget=args.search_cap
        )
        _emit_json({"word": str(canonical), "checks": report})
    elif command == "certify":
        from .subsurface_map import Constants, make_certificate

        constants = Constants.create(
            graph, k0=args.k0, d=args.d, a=args.a, b=args.b, k=args.k
        )
        certificate = make_certificate(word, constants)
        _emit_json(certificate.to_json_dict())
    else:  # pragma: no cover - build_parser admits only the names in COMMANDS
        raise AssertionError(command)
    return 0


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else list(argv)
    args = build_parser(argv[0] if argv else None).parse_args(argv)
    try:
        return run(args)
    except RaagError as err:
        _emit_json(err.to_json_dict())
        return 1
    except (OSError, ValueError, MemoryError) as err:
        # MemoryError: a certificate's JSON grows as the square of the word.
        _emit_json({"error": type(err).__name__, "message": str(err), "details": {}})
        return 1


if __name__ == "__main__":
    sys.exit(main())
