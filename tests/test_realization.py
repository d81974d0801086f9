import json
import os
import pathlib
import random
import subprocess
import sys

import pytest

from raagmcg import (
    DefiningGraph,
    DisjointnessMismatch,
    DuplicateCurve,
    DuplicateVertex,
    NestingDetected,
    Realization,
    Subsurface,
    UnknownVertex,
    build_standard_realization,
    fill,
    validate_realization,
)
from conftest import random_graph


def test_standard_pentagon(pentagon, pentagon_realization):
    validate_realization(pentagon_realization)
    assert len(pentagon_realization.subsurfaces) == 5
    assert len(pentagon_realization.reference_curves) == 10
    # Non-neighbors of a are c, d.
    assert pentagon_realization.subsurface_for("a").intersects == {
        "tau_a", "gamma_a", "gamma_c", "gamma_d",
    }


def test_standard_edgeless_pair_overlaps():
    g = DefiningGraph.from_data("ab", [])
    r = build_standard_realization(g)
    validate_realization(r)
    xa, xb = r.subsurface_for("a"), r.subsurface_for("b")
    assert xb.core in xa.intersects and xa.core in xb.intersects


def test_standard_complete_pair_disjoint():
    g = DefiningGraph.from_data("ab", [("a", "b")])
    r = build_standard_realization(g)
    validate_realization(r)
    xa, xb = r.subsurface_for("a"), r.subsurface_for("b")
    assert xb.core not in xa.intersects and xa.core not in xb.intersects


def test_single_vertex_realization():
    g = DefiningGraph.from_data(["a"], [])
    validate_realization(build_standard_realization(g))


def test_overlap_on_edge_is_mismatch():
    # X_a and X_b witness an overlap (each meets the other's core) while
    # a and b commute: condition (1) violated.
    g = DefiningGraph.from_data("ab", [("a", "b")])
    bad = Realization(
        graph=g,
        subsurfaces=(
            Subsurface("X_a", "a", "gamma_a", frozenset({"gamma_a", "gamma_b", "tau_a"})),
            Subsurface("X_b", "b", "gamma_b", frozenset({"gamma_b", "gamma_a", "tau_b"})),
        ),
        reference_curves=("gamma_a", "gamma_b", "tau_a", "tau_b"),
        ambient_label="custom",
    )
    with pytest.raises(DisjointnessMismatch):
        validate_realization(bad)


def test_disjoint_on_non_edge_is_mismatch():
    g = DefiningGraph.from_data("ab", [])
    bad = Realization(
        graph=g,
        subsurfaces=(
            Subsurface("X_a", "a", "gamma_a", frozenset({"gamma_a", "tau_a"})),
            Subsurface("X_b", "b", "gamma_b", frozenset({"gamma_b", "tau_b"})),
        ),
        reference_curves=("gamma_a", "gamma_b", "tau_a", "tau_b"),
        ambient_label="custom",
    )
    with pytest.raises(DisjointnessMismatch):
        validate_realization(bad)


def test_one_sided_incidence_is_nesting():
    g = DefiningGraph.from_data("ab", [])
    bad = Realization(
        graph=g,
        subsurfaces=(
            Subsurface("X_a", "a", "gamma_a", frozenset({"gamma_a", "gamma_b", "tau_a"})),
            Subsurface("X_b", "b", "gamma_b", frozenset({"gamma_b", "tau_b"})),
        ),
        reference_curves=("gamma_a", "gamma_b", "tau_a", "tau_b"),
        ambient_label="custom",
    )
    with pytest.raises(NestingDetected):
        validate_realization(bad)


def test_duplicate_subsurface_is_duplicate_vertex():
    g = DefiningGraph.from_data("ab", [])
    standard = build_standard_realization(g)
    x_a, x_b = standard.subsurfaces
    bad = Realization(g, (x_a, x_b, x_a), standard.reference_curves, "custom")
    with pytest.raises(DuplicateVertex) as err:
        validate_realization(bad)
    assert err.value.details == {"label": "a"}


def test_duplicate_reference_curve_is_duplicate_curve():
    g = DefiningGraph.from_data("ab", [])
    standard = build_standard_realization(g)
    curves = standard.reference_curves
    bad = Realization(g, standard.subsurfaces, curves + curves[1:2] + curves[:1], "custom")
    with pytest.raises(DuplicateCurve) as err:
        validate_realization(bad)
    assert err.value.details == {"curve": curves[1]}


def test_standard_realization_validates_on_random_graphs():
    rng = random.Random(31)
    for _ in range(60):
        g = random_graph(rng, max_vertices=8)
        validate_realization(build_standard_realization(g))


def test_fill_full_vertex_set(pentagon, pentagon_realization):
    result = fill(pentagon_realization, pentagon.vertices)
    assert result.fills_ambient
    assert result.components == (("a", "b", "c", "d", "e"),)
    assert result.uncovered_curves == frozenset()


def test_fill_single_vertex(pentagon_realization):
    result = fill(pentagon_realization, ["a"])
    assert result.components == (("a",),)
    assert not result.fills_ambient
    assert "tau_b" in result.uncovered_curves


def test_fill_commuting_pair(pentagon_realization):
    result = fill(pentagon_realization, ["a", "b"])
    assert result.components == (("a",), ("b",))
    assert not result.fills_ambient


def test_fill_component_count_matches_complement_random():
    rng = random.Random(37)
    for _ in range(40):
        g = random_graph(rng, max_vertices=7)
        r = build_standard_realization(g)
        result = fill(r, g.vertices)
        assert result.fills_ambient
        assert len(result.components) == len(g.complement().components(g.vertices))


def test_fill_monotone_coverage(pentagon, pentagon_realization):
    rng = random.Random(41)
    verts = list(pentagon.vertices)
    for _ in range(40):
        small = rng.sample(verts, rng.randint(1, 4))
        extra = [v for v in verts if v not in small]
        large = small + rng.sample(extra, rng.randint(1, len(extra)))
        covered_small = set(pentagon_realization.reference_curves) - fill(
            pentagon_realization, small
        ).uncovered_curves
        covered_large = set(pentagon_realization.reference_curves) - fill(
            pentagon_realization, large
        ).uncovered_curves
        assert covered_small <= covered_large


def test_fill_errors(pentagon_realization):
    with pytest.raises(ValueError):
        fill(pentagon_realization, [])
    with pytest.raises(UnknownVertex):
        fill(pentagon_realization, ["z"])


def test_realization_json_round_trip(pentagon_realization):
    text = pentagon_realization.to_json()
    again = Realization.from_json(text)
    assert again == pentagon_realization


def _without(realization, vertex):
    subsurfaces = tuple(x for x in realization.subsurfaces if x.vertex != vertex)
    return Realization(
        realization.graph, subsurfaces, realization.reference_curves, "custom"
    )


def test_missing_subsurface_is_unknown_vertex(pentagon, pentagon_realization):
    from raagmcg import classify, parse_word, verify_power_properties

    partial = _without(pentagon_realization, "e")
    word = parse_word("a c e b d", pentagon)
    calls = (
        lambda: partial.subsurface_for("e"),
        lambda: fill(partial, ["a", "e"]),
        lambda: classify(word, partial),
        lambda: verify_power_properties(word, realization=partial),
    )
    for call in calls:
        with pytest.raises(UnknownVertex) as err:
            call()
        assert err.value.details == {"label": "e"}
        assert err.value.message == "no subsurface declared for vertex 'e'"
    with pytest.raises(UnknownVertex):
        validate_realization(partial)


def test_undeclared_curve_is_unknown_curve(pentagon, pentagon_realization):
    from raagmcg import UnknownCurve

    x_a = pentagon_realization.subsurface_for("a")
    stray = Subsurface(x_a.label, "a", x_a.core, x_a.intersects | {"delta"})
    bad = Realization(
        pentagon, (stray,) + pentagon_realization.subsurfaces[1:],
        pentagon_realization.reference_curves, "custom",
    )
    with pytest.raises(UnknownCurve) as err:
        validate_realization(bad)
    assert not isinstance(err.value, UnknownVertex)
    assert err.value.message == "subsurface X_a meets undeclared curves ['delta']"
    assert err.value.details == {"label": "X_a"}


MISSING_C_AND_E = """
import json
from raagmcg import (
    DefiningGraph, Realization, UnknownVertex, build_standard_realization, classify, fill,
    parse_word, verify_power_properties,
)

pentagon = DefiningGraph.from_data("abcde", ["ab", "bc", "cd", "de", "ea"])
full = build_standard_realization(pentagon)
partial = Realization(
    pentagon, tuple(x for x in full.subsurfaces if x.vertex not in "ce"),
    full.reference_curves, "custom",
)
calls = {
    "classify": lambda: classify(parse_word("a c e b d", pentagon), partial),
    "fill": lambda: fill(partial, ["e", "a", "c", "e"]),
    "verify": lambda: verify_power_properties(
        parse_word("e b d a c", pentagon), realization=partial
    ),
}
labels = {}
for name, call in calls.items():
    try:
        call()
    except UnknownVertex as err:
        labels[name] = err.details["label"]
print(json.dumps(labels))
"""


@pytest.mark.parametrize("hash_seed", ["0", "1"])
def test_first_missing_subsurface_ignores_hash_seed(hash_seed):
    # fill looks the subsurfaces up in the order of its indices: classify
    # passes the support in vertex order, verify in syllable order.
    src = pathlib.Path(__file__).resolve().parent.parent / "src"
    env = dict(os.environ, PYTHONPATH=str(src), PYTHONHASHSEED=hash_seed)
    out = subprocess.run(
        [sys.executable, "-c", MISSING_C_AND_E], env=env,
        capture_output=True, text=True, check=True,
    ).stdout
    assert json.loads(out) == {"classify": "c", "fill": "e", "verify": "e"}
