import json

import pytest

import raagmcg.words as words
from raagmcg import MalformedWord, Realization, parse_word
from raagmcg.cli import main


@pytest.fixture()
def pentagon_path(tmp_path, pentagon):
    path = tmp_path / "pentagon.json"
    path.write_text(pentagon.to_json())
    return str(path)


def run_cli(capsys, *argv):
    code = main(list(argv))
    return code, capsys.readouterr().out


def test_normalize_text(capsys, pentagon_path):
    code, out = run_cli(capsys, "normalize", "--graph", pentagon_path, "--word", "a^0 b")
    assert code == 0
    assert out == "b\n"


def test_normalize_json(capsys, pentagon_path):
    code, out = run_cli(
        capsys, "normalize", "--graph", pentagon_path, "--word", "a b a^-1",
        "--format", "json",
    )
    assert code == 0
    assert json.loads(out) == {"input": "a b a^-1", "normalized": "b"}


def test_min_enum(capsys, pentagon_path):
    code, out = run_cli(capsys, "min-enum", "--graph", pentagon_path, "--word", "a b")
    assert code == 0
    assert json.loads(out) == {"word": "a b", "count": 2, "members": ["a b", "b a"]}
    code, out = run_cli(
        capsys, "min-enum", "--graph", pentagon_path, "--word", "a b", "--format", "text"
    )
    assert (code, out) == (0, "a b\nb a\n")


def test_order_dot(capsys, pentagon_path):
    code, out = run_cli(capsys, "order", "--graph", pentagon_path, "--word", "a c a")
    assert code == 0
    assert out.count("->") == 2
    assert '"a^1#1" -> "c^1#1";' in out
    assert '"c^1#1" -> "a^1#2";' in out


def test_reduce(capsys, pentagon_path):
    code, out = run_cli(capsys, "reduce", "--graph", pentagon_path, "--word", "a c a^-1")
    assert code == 0
    assert json.loads(out) == {"input": "a c a^-1", "reduced": "c", "conjugator": "a"}


def test_oracle(capsys, pentagon_path):
    code, out = run_cli(capsys, "oracle", "--graph", pentagon_path, "--word", "a b a^-1")
    assert code == 0
    assert out == "1\n"


def test_realize_round_trip(capsys, pentagon_path, pentagon_realization):
    code, out = run_cli(capsys, "realize", "--graph", pentagon_path)
    assert code == 0
    assert Realization.from_json(out) == pentagon_realization


def test_realize_dot(capsys, pentagon_path):
    code, out = run_cli(capsys, "realize", "--graph", pentagon_path, "--format", "dot")
    assert code == 0
    assert "graph gamma {" in out and "graph gamma_complement {" in out


def test_classify_json(capsys, pentagon_path):
    code, out = run_cli(
        capsys, "classify", "--graph", pentagon_path, "--realization", "std",
        "--word", "a c e b d",
    )
    assert code == 0
    data = json.loads(out)
    assert data["overall"] == "pseudo_anosov"
    assert data["translation_bound"] == "1/11"


def test_certify_json(capsys, pentagon_path):
    code, out = run_cli(capsys, "certify", "--graph", pentagon_path, "--word", "a^2 c^-1")
    assert code == 0
    data = json.loads(out)
    assert data["total"] == 126
    assert data["templates"][0] == "d_MM >= (126 - 10)/2"


def test_certify_rejects_bad_k(capsys, pentagon_path):
    code, out = run_cli(
        capsys, "certify", "--graph", pentagon_path, "--word", "a", "--k", "15",
    )
    assert code == 1
    data = json.loads(out)
    assert data["error"] == "InvalidConstants"


def test_verify_json(capsys, pentagon_path):
    code, out = run_cli(capsys, "verify", "--graph", pentagon_path, "--word", "a c e b d")
    assert code == 0
    data = json.loads(out)
    assert all(entry["status"] == "pass" for entry in data["checks"].values())


def test_domain_error_is_machine_readable(capsys, pentagon_path):
    code, out = run_cli(capsys, "normalize", "--graph", pentagon_path, "--word", "z")
    assert code == 1
    data = json.loads(out)
    assert data["error"] == "UnknownVertex"
    assert data["details"]["label"] == "z"


def test_usage_error_exits_2(capsys, pentagon_path):
    with pytest.raises(SystemExit) as err:
        main(["normalize", "--graph", pentagon_path])  # missing --word
    assert err.value.code == 2


def test_outputs_are_deterministic(capsys, pentagon_path):
    _, first = run_cli(
        capsys, "classify", "--graph", pentagon_path, "--realization", "std",
        "--word", "b d a c e",
    )
    _, second = run_cli(
        capsys, "classify", "--graph", pentagon_path, "--realization", "std",
        "--word", "b d a c e",
    )
    assert first == second


def test_emitted_json_reparses(capsys, pentagon_path):
    for argv in (
        ["min-enum", "--graph", pentagon_path, "--word", "a b"],
        ["order", "--graph", pentagon_path, "--word", "a c", "--format", "json"],
        ["classify", "--graph", pentagon_path, "--word", "a b"],
        ["certify", "--graph", pentagon_path, "--word", "a c"],
        ["verify", "--graph", pentagon_path, "--word", "a c"],
        ["realize", "--graph", pentagon_path],
    ):
        code, out = run_cli(capsys, *argv)
        assert code == 0
        json.loads(out)


def test_custom_realization_path(capsys, tmp_path, pentagon_path, pentagon_realization):
    path = tmp_path / "real.json"
    path.write_text(pentagon_realization.to_json())
    code, out = run_cli(
        capsys, "classify", "--graph", pentagon_path, "--realization", str(path),
        "--word", "a b",
    )
    assert code == 0
    assert json.loads(out)["overall"] == "reducible"


@pytest.mark.parametrize("flag, value", [("--k0", "inf"), ("--a", "nan"), ("--b", "inf")])
def test_certify_rejects_non_finite_constants(capsys, pentagon_path, flag, value):
    code, out = run_cli(
        capsys, "certify", "--graph", pentagon_path, "--word", "a", flag, value,
    )
    assert code == 1
    data = json.loads(out, parse_constant=pytest.fail)  # Infinity or NaN fails
    assert data["error"] == "InvalidConstants"


@pytest.mark.parametrize("payload, key", [
    ({"edges": []}, "vertices"),
    ({"vertices": ["a"], "edges": "a"}, "edges"),
    (["a", "b"], None),
])
def test_malformed_graph_is_machine_readable(capsys, tmp_path, payload, key):
    path = tmp_path / "graph.json"
    path.write_text(json.dumps(payload))
    code, out = run_cli(capsys, "normalize", "--graph", str(path), "--word", "a")
    assert code == 1
    data = json.loads(out)
    assert data["error"] == "MalformedGraph"
    assert data["details"].get("key") == key


@pytest.mark.parametrize("token", ["^", "a^", "a^1.5", "a^٣", "a^２", "a^1_0", "a^+2"])
def test_malformed_word_token_is_machine_readable(capsys, pentagon, pentagon_path, token):
    # The exponent grammar is ASCII -?[0-9]+, not whatever int() accepts.
    with pytest.raises(MalformedWord) as err:
        parse_word(f"b {token} c", pentagon)
    assert isinstance(err.value, ValueError)
    assert err.value.details == {"token": token}
    code, out = run_cli(capsys, "normalize", "--graph", pentagon_path, "--word", f"b {token} c")
    assert code == 1
    assert json.loads(out) == err.value.to_json_dict()


@pytest.mark.parametrize("which, error", [
    ("graph", "MalformedGraph"), ("realization", "MalformedRealization"),
])
def test_unparsable_json_file_is_machine_readable(capsys, tmp_path, pentagon_path, which, error):
    path = tmp_path / "broken.json"
    path.write_text('{"vertices": ["a"],\n  oops}')
    graph = str(path) if which == "graph" else pentagon_path
    code, out = run_cli(
        capsys, "classify", "--graph", graph, "--realization", str(path), "--word", "a",
    )
    assert code == 1
    data = json.loads(out)
    assert data["error"] == error
    assert data["details"] == {"line": 2, "column": 3}


@pytest.mark.parametrize("which, error", [
    ("graph", "MalformedGraph"), ("realization", "MalformedRealization"),
])
@pytest.mark.parametrize("content, offset", [
    (b"\xff\xfe{\x00}\x00", 0),
    ('{"vertices": ["\u00e9"], "edges": []}'.encode("latin-1"), 15),
])
def test_file_not_utf8_is_machine_readable(
    capsys, tmp_path, pentagon_path, which, error, content, offset
):
    path = tmp_path / "latin.json"
    path.write_bytes(content)
    graph = str(path) if which == "graph" else pentagon_path
    code, out = run_cli(
        capsys, "classify", "--graph", graph, "--realization", str(path), "--word", "a",
    )
    assert code == 1
    data = json.loads(out)
    assert data["error"] == error
    assert data["details"] == {"offset": offset}


def test_min_cap_bounds_only_min_enum(capsys, pentagon_path):
    code, out = run_cli(
        capsys, "min-enum", "--graph", pentagon_path, "--word", "a b", "--min-cap", "1",
    )
    assert code == 1
    assert json.loads(out)["error"] == "CapExceeded"
    for command in ("order", "reduce", "classify", "verify"):
        code, _ = run_cli(
            capsys, command, "--graph", pentagon_path, "--word", "a b", "--min-cap", "1",
        )
        assert code == 0


@pytest.mark.parametrize("edge", [5, "ab", ["a", "b", "c"]])
def test_malformed_graph_edge_is_machine_readable(capsys, tmp_path, edge):
    path = tmp_path / "graph.json"
    path.write_text(json.dumps({"vertices": ["a", "b", "c"], "edges": [edge]}))
    code, out = run_cli(capsys, "normalize", "--graph", str(path), "--word", "a")
    assert code == 1
    data = json.loads(out)
    assert data["error"] == "MalformedGraph"
    assert data["details"] == {"key": "edges", "edge": edge}


@pytest.mark.parametrize("vertex", [["a"], 1, None, "a b", "a^1", "a#1", 'a"b', "a\\b"])
def test_malformed_graph_vertex_is_machine_readable(capsys, tmp_path, vertex):
    path = tmp_path / "graph.json"
    path.write_text(json.dumps({"vertices": [vertex, "b"], "edges": []}))
    code, out = run_cli(capsys, "normalize", "--graph", str(path), "--word", "b")
    assert code == 1
    data = json.loads(out)
    assert data["error"] == "MalformedGraph"
    assert data["details"] == {"key": "vertices", "vertex": vertex}


@pytest.mark.parametrize("missing", [True, False], ids=["missing", "ill-typed"])
@pytest.mark.parametrize(
    "key", ["graph", "curves", "subsurfaces", "ambient", "vertex", "core", "intersects"]
)
def test_malformed_realization_is_machine_readable(
    capsys, tmp_path, pentagon_path, pentagon_realization, key, missing
):
    payload = pentagon_realization.to_json_dict()
    holder = payload if key in payload else payload["subsurfaces"][2]
    if missing:
        del holder[key]
    else:
        holder[key] = 5
    path = tmp_path / "real.json"
    path.write_text(json.dumps(payload))
    code, out = run_cli(
        capsys, "classify", "--graph", pentagon_path, "--realization", str(path),
        "--word", "a b",
    )
    assert code == 1
    data = json.loads(out)
    assert data["error"] == "MalformedRealization"
    assert data["details"]["key"] == key
    assert data["details"].get("index") == (None if holder is payload else 2)


@pytest.mark.parametrize("flag, value", [
    ("--min-cap", "0"), ("--min-cap", "-1"), ("--search-cap", "0"), ("--search-cap", "-5"),
])
def test_non_positive_caps_are_usage_errors(capsys, pentagon_path, flag, value):
    with pytest.raises(SystemExit) as err:
        main(["oracle", "--graph", pentagon_path, "--word", "a", flag, value])
    assert err.value.code == 2
    assert capsys.readouterr().out == ""


@pytest.mark.parametrize("raw", ["junk", "0", "-2"])
def test_bad_cap_environment_is_usage_error(capsys, monkeypatch, pentagon_path, raw):
    monkeypatch.setenv("RAAGMCG_CAP", raw)
    with pytest.raises(SystemExit) as err:
        main(["normalize", "--graph", pentagon_path, "--word", "a"])
    assert err.value.code == 2
    assert "RAAGMCG_CAP" in capsys.readouterr().err


def test_cap_environment_sets_the_default(capsys, monkeypatch, pentagon_path):
    monkeypatch.setenv("RAAGMCG_CAP", "1")
    code, out = run_cli(capsys, "min-enum", "--graph", pentagon_path, "--word", "a b")
    assert code == 1
    assert json.loads(out)["details"] == {"cap": 1}


@pytest.mark.parametrize("command", ["realize", "classify", "verify"])
def test_realization_over_another_graph_is_graph_mismatch(
    capsys, tmp_path, pentagon_path, command
):
    from raagmcg import DefiningGraph, build_standard_realization

    path = tmp_path / "real.json"
    path.write_text(build_standard_realization(DefiningGraph.from_data("ab", [])).to_json())
    argv = [command, "--graph", pentagon_path, "--realization", str(path)]
    if command != "realize":
        argv += ["--word", "a"]
    code, out = run_cli(capsys, *argv)
    assert code == 1
    assert json.loads(out) == {
        "error": "GraphMismatch",
        "message": "realization graph differs from --graph",
        "details": {},
    }


def test_undeclared_curve_is_machine_readable(
    capsys, tmp_path, pentagon_path, pentagon_realization
):
    payload = pentagon_realization.to_json_dict()
    payload["subsurfaces"][1]["intersects"].append("delta")
    path = tmp_path / "real.json"
    path.write_text(json.dumps(payload))
    code, out = run_cli(capsys, "realize", "--graph", pentagon_path, "--realization", str(path))
    assert code == 1
    assert json.loads(out) == {
        "error": "UnknownCurve",
        "message": "subsurface X_b meets undeclared curves ['delta']",
        "details": {"label": "X_b"},
    }


@pytest.mark.parametrize("flags", [
    ["--k0", "1" + "0" * 400, "--d", "2.5"],
    ["--k0", "2.5", "--d", "-1" + "0" * 400],
    ["--k0", "1" + "0" * 400, "--d", "2.5", "--k", "42"],
])
def test_certify_rejects_constants_out_of_float_range(capsys, pentagon_path, flags):
    code, out = run_cli(capsys, "certify", "--graph", pentagon_path, "--word", "a", *flags)
    assert code == 1
    assert json.loads(out) == {
        "error": "InvalidConstants",
        "message": "K0 + 20 + 2*D is out of floating-point range",
        "details": {"field": "K"},
    }


@pytest.mark.parametrize("command, normal_forms", [("verify", 1), ("min-enum", 1)])
def test_commands_normalize_as_often_as_the_library(
    capsys, monkeypatch, pentagon_path, command, normal_forms
):
    # ``verify`` normalizes the word and reads its powers off concatenations,
    # as the library call does; ``min-enum`` enumerates from the normal form
    # it prints.
    normalize_pairs, calls = words._normalize_pairs, []

    def counted(*args):
        calls.append(args)
        return normalize_pairs(*args)

    monkeypatch.setattr(words, "_normalize_pairs", counted)
    code, _ = run_cli(capsys, command, "--graph", pentagon_path, "--word", "a c e b d")
    assert code == 0
    assert len(calls) == normal_forms


def test_memory_error_is_an_error_json(capsys, monkeypatch, pentagon_path):
    # A certificate's JSON grows as the square of the word; running out of
    # memory ends in the error JSON and exit code 1, not a traceback.
    import raagmcg.subsurface_map as subsurface_map

    def out_of_memory(word, constants):
        raise MemoryError()

    monkeypatch.setattr(subsurface_map, "make_certificate", out_of_memory)
    code, out = run_cli(capsys, "certify", "--graph", pentagon_path, "--word", "a c e b d")
    assert code == 1
    assert json.loads(out) == {"error": "MemoryError", "message": "", "details": {}}
