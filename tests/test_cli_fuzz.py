"""A fixed-seed fuzz corpus through every subcommand of ``cli.main``, in
process: valid and mutated graph JSON, realization JSON mutated from
``realize`` output, and word strings with junk tokens.  Every case must
end in exit 0, in exit 1 with an error JSON on stdout that names a
``RaagError`` subclass, or in exit 2 from argparse; no other exception
may escape.  Fixed cases after the seeded corpus cover float overflow in
certificates, integers of more digits than ``int`` converts, files
that cannot be opened, JSON nested past the parser's stack and a
realization that declares a curve twice."""

import contextlib
import copy
import io
import json
import random

from raagmcg import errors
from raagmcg.cli import main

SEED = 20261018
CASES = 300
CAP = "500"
FORMATS = {
    "normalize": ["text", "json"], "min-enum": ["text", "json"], "order": ["dot", "json"],
    "reduce": ["text", "json"], "oracle": ["text", "json"], "realize": ["json", "dot"],
    "classify": ["json"], "verify": ["json"], "certify": ["json"],
}

JUNK_TOKENS = ["^", "a^", "^2", "zz", "a^٣", "a^２", "a^1.5", "a^^2", "a^2^3",
               "a^+2", "a^-0", "a^1_0", "é", "#", "a#1", "a^" + "9" * 30]
BAD_LABELS = [5, None, "", "a b", "a^1", "x#", ["a"], {"a": 1}, True]
BIG = "1" + "0" * 400  # an int too large for a float
NUMBERS = ["10", "6", "0", "-3", "2.5", "inf", "nan", "1e308", BIG, "-" + BIG, "abc", "0x10"]
RAAG_ERRORS = {
    name for name, value in vars(errors).items()
    if isinstance(value, type) and issubclass(value, errors.RaagError)
}


def _strict_json(text):
    def reject(constant):
        raise ValueError(f"non-standard JSON constant {constant}")

    return json.loads(text, parse_constant=reject)


def _graph_payload(rng):
    n = rng.randint(1, 5)
    vertices = [chr(ord("a") + i) for i in range(n)]
    edges = [[u, v] for i, u in enumerate(vertices) for v in vertices[i + 1:]
             if rng.random() < 0.5]
    return {"vertices": vertices, "edges": edges}


def _mutate_graph(rng, payload):
    data = copy.deepcopy(payload)
    vertices, edges = data["vertices"], data["edges"]
    kind = rng.randrange(9)
    if kind == 0:
        del data[rng.choice(["vertices", "edges"])]
    elif kind == 1:
        data[rng.choice(["vertices", "edges"])] = rng.choice(["ab", 3, {"a": "b"}, None])
    elif kind == 2:
        vertices[rng.randrange(len(vertices))] = rng.choice(BAD_LABELS)
    elif kind == 3:
        edges.append([vertices[0], vertices[0]])
    elif kind == 4:
        edges.append([vertices[0], "nowhere"])
    elif kind == 5:
        vertices.append(rng.choice(vertices))
    elif kind == 6:
        edges.append(rng.choice([[vertices[0]], vertices[:1] * 3, "ab", 7, [1, 2]]))
    elif kind == 7:
        return rng.choice([[], "graph", 42, None])
    else:
        return json.dumps(data)[: rng.randrange(1, 20)]  # truncated text
    return data


def _mutate_realization(rng, payload):
    data = copy.deepcopy(payload)
    subs = data["subsurfaces"]
    kind = rng.randrange(10)
    if kind == 0:
        del data[rng.choice(["graph", "curves", "ambient", "subsurfaces"])]
    elif kind == 1:
        data[rng.choice(["graph", "curves", "ambient", "subsurfaces"])] = rng.choice(
            [5, "x", [1], None, {"a": 1}])
    elif kind == 2 and subs:
        del subs[rng.randrange(len(subs))]
    elif kind == 3 and subs:
        subs.append(copy.deepcopy(rng.choice(subs)))
    elif kind == 4 and subs:
        rng.choice(subs)["intersects"].append(rng.choice(["delta", 5]))
    elif kind == 5 and subs:
        rng.choice(subs)[rng.choice(["vertex", "core"])] = rng.choice(["zz", "tau_a", 3, None])
    elif kind == 6 and subs:
        entry = rng.choice(subs)
        entry["intersects"] = entry["intersects"][:1]
    elif kind == 7 and subs:
        rng.choice(subs)["label"] = rng.choice([5, ["x"], "Y"])
    elif kind == 8:
        data["graph"] = _mutate_graph(rng, data["graph"])
    else:
        data["graph"]["edges"] = []
    return data


def _word(rng, vertices):
    tokens = []
    for _ in range(rng.randint(0, 6)):
        if rng.random() < 0.15:
            tokens.append(rng.choice(JUNK_TOKENS))
        else:
            name = rng.choice(vertices) if vertices else "a"
            tokens.append(name + rng.choice(["", "^2", "^-1", "^-2", "^0", "^3"]))
    return " ".join(tokens)


def _run(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = main(argv)
            usage = False
        except SystemExit as exit_:
            code, usage = exit_.code, True
    return code, usage, out.getvalue()


def _cases(rng, tmp_path):
    commands = list(FORMATS)
    for case in range(CASES):
        command = commands[case % len(commands)]
        payload = _graph_payload(rng)
        vertices = payload["vertices"]
        valid_file = tmp_path / f"valid{case}.json"
        valid_file.write_text(json.dumps(payload))
        graph_file = tmp_path / f"graph{case}.json"
        with_realization = command in ("realize", "classify", "verify") and rng.random() < 0.7
        mutate = rng.random() < (0.15 if with_realization else 0.4)
        graph = _mutate_graph(rng, payload) if mutate else payload
        graph_file.write_text(graph if isinstance(graph, str) else json.dumps(graph))
        argv = [command, "--graph", str(graph_file)]
        if with_realization:
            code, _, text = _run(["realize", "--graph", str(valid_file)])
            assert code == 0, text
            realization = json.loads(text)
            if rng.random() < 0.8:
                realization = _mutate_realization(rng, realization)
            real_file = tmp_path / f"real{case}.json"
            real_file.write_text(json.dumps(realization))
            argv += ["--realization", str(real_file)]
        if command != "realize":
            argv += ["--word", _word(rng, vertices), "--min-cap", CAP, "--search-cap", CAP]
        if rng.random() < 0.5:
            argv += ["--format", rng.choice(FORMATS[command]) if rng.random() < 0.9 else "yaml"]
        if command == "certify":
            for flag in ["--k0", "--d"] + rng.sample(["--a", "--b", "--k"], rng.randint(0, 2)):
                argv += [flag, rng.choice(NUMBERS)]
        yield argv


def test_cli_fuzz_exit_codes_and_error_json(tmp_path):
    rng = random.Random(SEED)
    escapes, codes = [], []
    for argv in _cases(rng, tmp_path):
        try:
            code, usage, out = _run(argv)
        except Exception as err:  # an escape: record it and go on
            escapes.append((argv, repr(err)))
            continue
        codes.append(code)
        if usage or code == 2:
            assert usage and code == 2, argv
            continue
        assert code in (0, 1), argv
        if code == 1:
            data = _strict_json(out)
            assert set(data) == {"error", "message", "details"}, argv
            assert isinstance(data["details"], dict), argv
            assert data["error"] in RAAG_ERRORS, argv
    assert escapes == []
    assert {0, 1, 2} <= set(codes)


HUGE = "1" + "0" * 5000  # more digits than int() converts by default


def test_cli_fixed_cases_name_raag_errors(tmp_path):
    graph = tmp_path / "graph.json"
    graph.write_text(json.dumps({"vertices": ["a", "b"], "edges": []}))
    huge_graph = tmp_path / "huge_graph.json"
    huge_graph.write_text('{"vertices": ["a"], "edges": [], "n": %s}' % HUGE)
    realization = tmp_path / "realization.json"
    code, _, text = _run(["realize", "--graph", str(graph)])
    assert code == 0, text
    realization.write_text(text.replace('"standard"', '"standard", "n": ' + HUGE))
    missing, directory = str(tmp_path / "missing.json"), str(tmp_path)
    certify = ["certify", "--graph", str(graph)]
    classify = ["classify", "--graph", str(graph), "--word", "a b"]
    cases = [
        (certify + ["--k0", "1.5", "--word", "a^" + BIG], "InvalidConstants", {"field": "K"}),
        (certify + ["--k0", "1e308", "--word", "a"], "InvalidConstants", {"field": "C"}),
        (certify + ["--k0", "1e306", "--word", "a^1000"], "InvalidConstants", {"field": "K"}),
        (["normalize", "--graph", str(graph), "--word", "a^" + HUGE], "MalformedWord",
         {"token": "a^" + HUGE}),
        (["normalize", "--graph", str(huge_graph), "--word", "a"], "MalformedGraph", {}),
        (classify + ["--realization", str(realization)], "MalformedRealization", {}),
        (["normalize", "--graph", missing, "--word", "a"], "MalformedGraph", {"path": missing}),
        (["order", "--graph", directory, "--word", "a"], "MalformedGraph", {"path": directory}),
        (classify + ["--realization", missing], "MalformedRealization", {"path": missing}),
        (classify + ["--realization", directory], "MalformedRealization", {"path": directory}),
    ]
    for argv, error, details in cases:
        code, usage, out = _run(argv)
        assert (code, usage) == (1, False), argv
        data = _strict_json(out)
        assert (data["error"], data["details"]) == (error, details), argv


def test_cli_fixed_cases_nested_json_and_duplicate_curves(tmp_path):
    graph = tmp_path / "graph.json"
    graph.write_text(json.dumps({"vertices": ["a", "b"], "edges": []}))
    nested = tmp_path / "nested.json"  # deeper than the JSON parser's stack
    nested.write_text("[" * 100_000 + "]" * 100_000)
    code, _, text = _run(["realize", "--graph", str(graph)])
    assert code == 0, text
    data = json.loads(text)
    data["curves"].append("tau_b")
    duplicate = tmp_path / "duplicate.json"
    duplicate.write_text(json.dumps(data))
    on_graph = ["--graph", str(graph), "--word", "a", "--realization"]
    cases = [
        (["normalize", "--graph", str(nested), "--word", "a"], "MalformedGraph", {}),
        (["classify"] + on_graph + [str(nested)], "MalformedRealization", {}),
        (["classify"] + on_graph + [str(duplicate)], "DuplicateCurve", {"curve": "tau_b"}),
        (["verify"] + on_graph + [str(duplicate)], "DuplicateCurve", {"curve": "tau_b"}),
    ]
    for argv, error, details in cases:
        code, usage, out = _run(argv)
        assert (code, usage) == (1, False), argv
        data = _strict_json(out)
        assert (data["error"], data["details"]) == (error, details), argv
