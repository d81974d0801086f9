"""The only private name one package module imports from another is
``_ids_of_sequence`` in ``subsurface_map``: the reference check
``check_representative_independence`` names the syllables of minimal
words that are not canonical."""

import ast
import pathlib

import raagmcg

PACKAGE = pathlib.Path(raagmcg.__file__).parent


def private_imports():
    found = set()
    for path in sorted(PACKAGE.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.ImportFrom) and (
                node.level or (node.module or "").split(".")[0] == "raagmcg"
            ):
                found.update(
                    (path.stem, alias.name) for alias in node.names
                    if alias.name.startswith("_")
                )
    return found


def test_only_private_import_is_ids_of_sequence():
    assert private_imports() == {("subsurface_map", "_ids_of_sequence")}
