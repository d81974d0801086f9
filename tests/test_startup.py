"""What a one-shot call loads: the package binds its public names on first
use, each CLI command imports only the modules it calls, and the parser
builds only the subcommand parser it runs."""

import argparse
import json
import os
import subprocess
import sys

import pytest

import raagmcg
from raagmcg import cli

SRC = os.path.dirname(os.path.dirname(os.path.abspath(raagmcg.__file__)))

SUBMODULES = {
    "errors", "defining_graph", "words", "syllables", "realization", "subsurface_map",
    "classification",
}
BASE = {"errors", "defining_graph", "cli"}
WORDS = BASE | {"words"}
MODULES_BY_COMMAND = {
    "normalize": WORDS,
    "min-enum": WORDS,
    "oracle": WORDS,
    "order": WORDS | {"syllables"},
    "reduce": WORDS | {"syllables"},
    "realize": BASE | {"realization"},
    "classify": WORDS | {"syllables", "realization", "classification"},
    "verify": WORDS | {"syllables", "realization", "classification"},
    "certify": WORDS | {"syllables", "subsurface_map"},
}

# Runs in a fresh interpreter and prints one JSON object: the submodules
# loaded by ``import raagmcg``, the public names bound before and after the
# first attribute access, the submodules each command loads, and whether
# any of that loaded ``dataclasses``.  Between
# commands the package is dropped from sys.modules, so each one starts cold.
CHILD = """
import contextlib, io, json, sys
graph_path, commands = sys.argv[1], sys.argv[2:]

def loaded():
    return sorted(name[len("raagmcg."):] for name in sys.modules
                  if name.startswith("raagmcg."))

import raagmcg
report = {"import": loaded(), "bound_before": sorted(set(raagmcg.__all__) & set(vars(raagmcg)))}
raagmcg.DefiningGraph
report["bound_after"] = sorted(set(raagmcg.__all__) & set(vars(raagmcg)))
report["after_access"] = loaded()
for command in commands:
    for name in [name for name in sys.modules if name.split(".")[0] == "raagmcg"]:
        del sys.modules[name]
    from raagmcg.cli import main
    argv = [command, "--graph", graph_path]
    if command != "realize":
        argv += ["--word", "a c e b d"]
    with contextlib.redirect_stdout(io.StringIO()):
        code = main(argv)
    report[command] = [code, loaded()]
report["dataclasses"] = "dataclasses" in sys.modules
print(json.dumps(report))
"""


@pytest.fixture(scope="module")
def child_report(tmp_path_factory, pentagon):
    path = tmp_path_factory.mktemp("startup") / "pentagon.json"
    path.write_text(pentagon.to_json())
    env = dict(os.environ, PYTHONPATH=SRC)
    out = subprocess.run(
        [sys.executable, "-c", CHILD, str(path), *MODULES_BY_COMMAND],
        env=env, capture_output=True, text=True, check=True,
    ).stdout
    return json.loads(out)


def test_import_loads_no_submodule(child_report):
    assert child_report["import"] == []
    assert child_report["bound_before"] == []


def test_first_access_binds_every_public_name(child_report):
    assert child_report["bound_after"] == sorted(raagmcg.__all__)
    assert set(child_report["after_access"]) == SUBMODULES


@pytest.mark.parametrize("command", list(MODULES_BY_COMMAND))
def test_command_loads_only_its_modules(child_report, command):
    code, modules = child_report[command]
    assert code == 0
    assert set(modules) == MODULES_BY_COMMAND[command]


# The standard-library modules the package imports at module level.  A new
# module-level import in the library has to be added here, where a review
# sees it.
STDLIB_IMPORTS = (
    "__future__", "collections", "functools", "itertools", "json", "math",
    "operator", "re", "sys", "typing",
)

# Prints the modules loaded by ``import raagmcg`` and the first access to
# a public name, in a fresh interpreter.
FIRST_ACCESS_CHILD = """
import sys
before = set(sys.modules)
import raagmcg
raagmcg.DefiningGraph
print(*sorted(set(sys.modules) - before))
"""

# Prints the modules loaded by importing the names on the command line,
# in a fresh interpreter.
STDLIB_CHILD = """
import sys
before = set(sys.modules)
for name in sys.argv[1:]:
    __import__(name)
print(*sorted(set(sys.modules) - before))
"""


def _child_modules(code, *args):
    env = dict(os.environ, PYTHONPATH=SRC)
    out = subprocess.run([sys.executable, "-c", code, *args], env=env,
                         capture_output=True, text=True, check=True).stdout
    return set(out.split())


def test_first_access_loads_only_the_listed_standard_library():
    # Deterministic where the set-up time is not: a module-level import
    # the list does not name fails here.
    loaded = _child_modules(FIRST_ACCESS_CHILD)
    allowed = _child_modules(STDLIB_CHILD, *STDLIB_IMPORTS)
    package = {name for name in loaded if name.split(".")[0] == "raagmcg"}
    assert {f"raagmcg.{name}" for name in SUBMODULES} <= package
    assert loaded - package <= allowed, sorted(loaded - package - allowed)


# Prints how many times ``import raagmcg`` and the first access to a public
# name compile source text (``compile`` audit events of "<string>" source,
# as ``exec`` and ``eval`` of a string raise), in a fresh interpreter.  The
# listed standard library is imported first, so only the package counts.
COMPILE_CHILD = """
import sys
for name in sys.argv[1:]:
    __import__(name)
compiled = []
sys.addaudithook(lambda event, args: event == "compile" and args[1] == "<string>"
                 and compiled.append(args[0]))
import raagmcg
raagmcg.DefiningGraph
print(len(compiled))
"""


def test_first_access_compiles_no_generated_source():
    # The value classes are plain classes, so no class body is built from
    # text at import: a class decorator that generates methods (105
    # compiles for dataclass on the 15 classes) fails here, independent of
    # timing.  So does a module-level import of fractions, whose decimal
    # builds a namedtuple: classify imports it where it is used.
    env = dict(os.environ, PYTHONPATH=SRC)
    out = subprocess.run([sys.executable, "-c", COMPILE_CHILD, *STDLIB_IMPORTS], env=env,
                         capture_output=True, text=True, check=True).stdout
    assert int(out) == 0


def test_public_names_are_the_submodules_objects():
    raagmcg.DefiningGraph
    namespace = vars(raagmcg)
    for name in raagmcg.__all__:
        value = namespace[name]
        home = sys.modules[getattr(value, "__module__", "raagmcg.words")]
        assert getattr(home, name) is value, name


def test_star_import_dir_and_unknown_names():
    namespace = {}
    exec("from raagmcg import *", namespace)
    assert set(raagmcg.__all__) <= set(namespace)
    assert set(raagmcg.__all__) <= set(dir(raagmcg))
    assert "__version__" in dir(raagmcg)
    with pytest.raises(AttributeError, match="nope"):
        raagmcg.nope


def test_no_command_loads_dataclasses(child_report):
    # The value classes are plain classes: neither the first access nor
    # any command pays for importing dataclasses (and inspect, ast, dis).
    assert child_report["dataclasses"] is False


def _parse(parser, argv, capsys):
    with pytest.raises(SystemExit) as err:
        parser.parse_args(argv)
    captured = capsys.readouterr()
    return err.value.code, captured.out, captured.err


@pytest.mark.parametrize("command", list(MODULES_BY_COMMAND))
def test_per_command_parser_prints_what_the_full_parser_prints(capsys, command):
    missing = [command] if command == "realize" else [command, "--graph", "g.json"]
    for argv in ([command, "--help"], missing):
        full = _parse(cli.build_parser(), argv, capsys)
        with pytest.raises(SystemExit) as err:
            cli.main(argv)
        captured = capsys.readouterr()
        assert (err.value.code, captured.out, captured.err) == full


@pytest.mark.parametrize("argv", [[], ["--help"], ["bogus"], ["--graph", "g.json"]])
def test_top_level_usage_matches_the_full_parser(capsys, argv):
    full = _parse(cli.build_parser(), argv, capsys)
    assert _parse(cli.build_parser(argv[0] if argv else None), argv, capsys) == full


def test_main_reads_sys_argv(capsys, monkeypatch, tmp_path, pentagon):
    path = tmp_path / "pentagon.json"
    path.write_text(pentagon.to_json())
    monkeypatch.setattr(
        sys, "argv", ["raagmcg", "normalize", "--graph", str(path), "--word", "a b a^-1"]
    )
    assert cli.main() == 0
    assert capsys.readouterr().out == "b\n"


def _count_parsers(monkeypatch):
    built = []
    init = argparse.ArgumentParser.__init__

    def counting_init(self, *args, **kwargs):
        built.append(self)
        init(self, *args, **kwargs)

    monkeypatch.setattr(argparse.ArgumentParser, "__init__", counting_init)
    return built


@pytest.mark.parametrize("command", list(MODULES_BY_COMMAND))
def test_one_shot_call_builds_two_parsers(monkeypatch, tmp_path, pentagon, command):
    path = tmp_path / "pentagon.json"
    path.write_text(pentagon.to_json())
    argv = [command, "--graph", str(path)]
    if command != "realize":
        argv += ["--word", "a c e b d"]
    built = _count_parsers(monkeypatch)
    assert cli.main(argv) == 0
    assert len(built) == 2


@pytest.mark.parametrize("command", [None, "bogus"])
def test_full_parser_builds_every_subcommand(monkeypatch, command):
    built = _count_parsers(monkeypatch)
    cli.build_parser(command)
    assert len(built) == 1 + len(cli.COMMANDS)


def _outcome(parser, argv, capsys):
    code = namespace = None
    try:
        namespace = vars(parser.parse_args(argv))
    except SystemExit as err:
        code = err.code
    captured = capsys.readouterr()
    return code, captured.out, captured.err, namespace


def test_usage_matrix_matches_the_full_parser(capsys):
    # The top-level cases; then each command bare, with -h and without
    # --word, and its valid arguments followed by an extra positional, an
    # unknown flag, a bad --format, --min-cap 0, --k0 x and a trailing
    # --realization (for most commands the last two are unknown flags).
    cases = [[], ["-h"], ["--help"], ["bogus"], ["--graph", "g.json"]]
    for command in cli.COMMANDS:
        base = [command, "--graph", "g.json"]
        if command != "realize":
            base += ["--word", "a"]
        cases += [
            [command], [command, "-h"], [command, "--graph", "g.json"], base + ["extra"],
            base + ["--bogus"], base + ["--format", "xml"], base + ["--min-cap", "0"],
            base + ["--k0", "x"], base + ["--realization"],
        ]
    assert len(cases) == 86
    for argv in cases:
        full = _outcome(cli.build_parser(), argv, capsys)
        one = _outcome(cli.build_parser(argv[0] if argv else None), argv, capsys)
        assert one == full, argv
