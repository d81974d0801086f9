"""Construction rules the package keeps in one module each.

Only ``words.py`` builds a ``Word`` without the check of ``Word(...)``
(``object.__new__`` and ``object.__setattr__``) or writes the canonical
mark ``_canonical``: every other module goes through
``Word._from_checked``.  A value class's ``__init__`` sets its own fields
with ``object.__setattr__(self, ...)``, which builds no word.  The decoder of the graph and realization JSON is
``errors.decode_json``, the only code that names ``JSONDecodeError``."""

import ast
import pathlib

import raagmcg

PACKAGE = pathlib.Path(raagmcg.__file__).parent


def _own_field_stores(tree):
    # The object.__setattr__ attributes of the calls object.__setattr__(self,
    # ...) in an __init__: a value class setting its own fields.
    return {
        id(node.func) for init in ast.walk(tree)
        if isinstance(init, ast.FunctionDef) and init.name == "__init__"
        for node in ast.walk(init)
        if isinstance(node, ast.Call) and node.args
        and isinstance(node.args[0], ast.Name) and node.args[0].id == "self"
    }


def _findings(path):
    # (what, line) for each object.__new__/__setattr__ call other than a
    # value class's own field stores, each store of the _canonical
    # attribute or use of the name as text, each function named _decode
    # and each reference to JSONDecodeError.
    tree = ast.parse(path.read_text(encoding="utf-8"))
    own = _own_field_stores(tree)
    for node in ast.walk(tree):
        if (isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
                and node.value.id == "object" and node.attr in ("__new__", "__setattr__")
                and id(node) not in own):
            yield f"object.{node.attr}", node.lineno
        elif isinstance(node, ast.Attribute) and node.attr == "_canonical" and isinstance(
                node.ctx, ast.Store):
            yield "_canonical store", node.lineno
        elif isinstance(node, ast.Constant) and node.value == "_canonical":
            yield "_canonical text", node.lineno
        elif isinstance(node, ast.FunctionDef) and node.name == "_decode":
            yield "_decode", node.lineno
        elif isinstance(node, ast.Attribute) and node.attr == "JSONDecodeError":
            yield "JSONDecodeError", node.lineno


def test_only_words_builds_unchecked_words_and_only_errors_decodes_json():
    found = {}
    for path in sorted(PACKAGE.glob("*.py")):
        for what, _ in _findings(path):
            found.setdefault(path.name, []).append(what)
    words = set(found.pop("words.py"))
    assert words == {"object.__new__", "object.__setattr__", "_canonical text"}
    assert found == {"errors.py": ["JSONDecodeError"]}
