import json
import os
import random
import subprocess
import sys

import pytest

import raagmcg

from raagmcg import (
    DanglingEdge,
    DefiningGraph,
    DuplicateVertex,
    MalformedGraph,
    SelfLoop,
    UnknownVertex,
)
from conftest import random_graph


def test_pentagon_validates(pentagon):
    pentagon.validate()
    assert pentagon.vertices == ("a", "b", "c", "d", "e")


def test_self_loop_rejected():
    with pytest.raises(SelfLoop):
        DefiningGraph.from_data(["a"], [("a", "a")])


def test_dangling_edge_rejected():
    with pytest.raises(DanglingEdge) as err:
        DefiningGraph.from_data(["a", "b"], [("a", "c")])
    assert err.value.details["label"] == "c"


# Prints the message of each bad graph, built in a fresh interpreter.
BAD_GRAPHS_CHILD = """
import json
from raagmcg import DefiningGraph, RaagError
messages = []
for vertices, edges in (["c"], [("a", "b")]), (["a", "b"], [("b", "z"), ("a", "y")]):
    try:
        DefiningGraph.from_data(vertices, edges)
    except RaagError as err:
        messages.append(err.message)
print(json.dumps(messages))
"""


def test_reported_bad_edge_does_not_depend_on_the_hash_seed():
    src = os.path.dirname(os.path.dirname(os.path.abspath(raagmcg.__file__)))
    seen = set()
    for seed in range(1, 7):
        env = dict(os.environ, PYTHONPATH=src, PYTHONHASHSEED=str(seed))
        out = subprocess.run([sys.executable, "-c", BAD_GRAPHS_CHILD], env=env,
                             capture_output=True, text=True, check=True).stdout
        seen.add(tuple(json.loads(out)))
    assert seen == {(
        "edge endpoint 'a' is not a vertex",
        "edge endpoint 'y' is not a vertex",
    )}


def test_duplicate_vertex_rejected():
    with pytest.raises(DuplicateVertex):
        DefiningGraph.from_data(["a", "a"], [])


@pytest.mark.parametrize("vertex", ['a"b', "a\\b", '"', "\\", "a b", "c^2", "d#1", "e\u2003", 1])
def test_unquotable_label_rejected_by_every_constructor(vertex):
    # DOT output writes labels between double quotes, the word grammar
    # splits on whitespace and '^', and a syllable id's label on '#'; so
    # no constructor accepts a label holding one of them, or one that is
    # not a string, and all raise the error of the JSON loader.
    builds = (
        lambda: DefiningGraph.from_data(["b", vertex], [("b", vertex)]),
        lambda: DefiningGraph((vertex,), frozenset()),
        lambda: DefiningGraph.from_json_dict({"vertices": ["b", vertex], "edges": []}),
    )
    errors = []
    for build in builds:
        with pytest.raises(MalformedGraph) as err:
            build()
        assert err.value.details == {"key": "vertices", "vertex": vertex}
        errors.append(err.value.message)
    assert len(set(errors)) == 1


def test_pentagon_complement_is_pentagram(pentagon):
    # Direct adjacency over all 10 pairs: the complement is the 5-cycle
    # a-c-e-b-d-a, and it is connected.
    comp = pentagon.complement()
    expected = {
        frozenset(p) for p in [("a", "c"), ("c", "e"), ("e", "b"), ("b", "d"), ("d", "a")]
    }
    assert comp.edges == expected
    assert len(comp.components(pentagon.vertices)) == 1


def test_complement_is_built_once(pentagon):
    assert pentagon.complement() is pentagon.complement()


def test_complement_of_complete_graph_is_edgeless():
    k3 = DefiningGraph.from_data("abc", [("a", "b"), ("b", "c"), ("a", "c")])
    assert k3.complement().edges == frozenset()


def test_complement_of_single_vertex():
    g = DefiningGraph.from_data(["a"], [])
    comp = g.complement()
    assert comp.vertices == ("a",) and comp.edges == frozenset()


def test_components_on_subsets(pentagon):
    comp = pentagon.complement()
    assert comp.components(["a", "b", "c", "d", "e"]) == (("a", "b", "c", "d", "e"),)
    # a, b adjacent in the pentagon itself: one part there ...
    assert pentagon.components(["a", "b"]) == (("a", "b"),)
    # ... but no edge between them in the complement: two parts.
    assert comp.components(["a", "b"]) == (("a",), ("b",))


def test_components_unknown_vertex(pentagon):
    with pytest.raises(UnknownVertex):
        pentagon.components(["a", "z"])


def test_star(pentagon):
    assert pentagon.star("a") == {"a", "b", "e"}
    edgeless = DefiningGraph.from_data("ab", [])
    assert edgeless.star("a") == {"a"}
    k3 = DefiningGraph.from_data("abc", [("a", "b"), ("b", "c"), ("a", "c")])
    assert k3.star("a") == {"a", "b", "c"}


def test_star_unknown_vertex(pentagon):
    with pytest.raises(UnknownVertex):
        pentagon.star("z")


def test_complement_involution_random():
    rng = random.Random(2024)
    for _ in range(50):
        g = random_graph(rng, max_vertices=8)
        assert g.complement().complement() == g


def test_star_symmetry_random():
    rng = random.Random(2025)
    for _ in range(30):
        g = random_graph(rng, max_vertices=8)
        for v in g.vertices:
            assert v in g.star(v)
            for u in g.vertices:
                assert (u in g.star(v)) == (v in g.star(u))


def test_components_partition_and_maximality_random():
    rng = random.Random(2026)
    for _ in range(30):
        g = random_graph(rng, max_vertices=8)
        parts = g.components(g.vertices)
        flattened = [v for part in parts for v in part]
        assert sorted(flattened) == sorted(g.vertices)
        # No edge joins two distinct parts (exhaustive pair scan).
        for i, p in enumerate(parts):
            for q in parts[i + 1:]:
                for u in p:
                    for v in q:
                        assert not g.has_edge(u, v)


def test_json_round_trip(pentagon):
    assert DefiningGraph.from_json(pentagon.to_json()) == pentagon


def test_dot_export(pentagon):
    dot = pentagon.to_dot()
    assert dot.startswith("graph gamma {")
    assert '"a" -- "b";' in dot
    comp_dot = pentagon.complement().to_dot("gamma_complement")
    assert '"a" -- "c";' in comp_dot
