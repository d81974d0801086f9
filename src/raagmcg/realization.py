"""Combinatorial model of a system of overlapping subsurfaces realizing
a defining graph inside an ambient surface.

The ambient surface is modeled by a finite set of reference curves, not
by an actual triangulated surface.  Each subsurface records which
reference curves meet it, plus a designated *core* curve marking its
position.  The pairwise relation between two subsurfaces is read off
the core incidences:

  * each meets the other's core        -> they overlap transversally;
  * exactly one meets the other's core -> one is nested in the other;
  * neither meets the other's core     -> they are disjoint.

A realization is *nice* when disjointness happens exactly on the edges
of the defining graph and every intersecting pair overlaps (no
nesting).  "The subsurfaces fill the ambient surface" is operationalized
as "every reference curve meets one of them"; for user-supplied
realizations this under-approximates the set of essential curves, and
the realization is trusted to list enough reference curves.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from functools import cached_property
from itertools import combinations
from typing import Iterable

from .defining_graph import DefiningGraph
from .errors import (
    DisjointnessMismatch,
    DuplicateCurve,
    DuplicateVertex,
    MalformedRealization,
    NestingDetected,
    UnknownCurve,
    UnknownVertex,
)


@dataclass(frozen=True)
class Subsurface:
    label: str
    vertex: str
    core: str
    intersects: frozenset[str]


@dataclass(frozen=True)
class FillResult:
    components: tuple[tuple[str, ...], ...]
    fills_ambient: bool
    uncovered_curves: frozenset[str]


@dataclass(frozen=True)
class Realization:
    graph: DefiningGraph
    subsurfaces: tuple[Subsurface, ...]
    reference_curves: tuple[str, ...]
    ambient_label: str

    def subsurface_for(self, vertex: str) -> Subsurface:
        self.graph.require_vertex(vertex)
        try:
            return self._by_vertex[vertex]
        except KeyError:
            raise UnknownVertex(
                f"no subsurface declared for vertex {vertex!r}", label=vertex
            ) from None

    @cached_property
    def _by_vertex(self) -> dict[str, Subsurface]:
        return {x.vertex: x for x in self.subsurfaces}

    def to_json_dict(self) -> dict:
        return {
            "graph": self.graph.to_json_dict(),
            "ambient": self.ambient_label,
            "curves": list(self.reference_curves),
            "subsurfaces": [
                {
                    "vertex": x.vertex,
                    "core": x.core,
                    "intersects": sorted(
                        x.intersects, key=self.reference_curves.index
                    ),
                }
                for x in self.subsurfaces
            ],
        }

    def to_json(self) -> str:
        return json.dumps(self.to_json_dict(), indent=2)

    @classmethod
    def from_json_dict(cls, data: dict) -> "Realization":
        """Raises MalformedRealization, naming the key, unless ``data`` is
        an object with an object under "graph", a list of strings under
        "curves", a string under "ambient" and a list under "subsurfaces"
        of objects with strings under "vertex" and "core" and a list of
        strings under "intersects"."""
        where = "realization JSON"
        _require_object(data, where)
        graph = DefiningGraph.from_json_dict(_field(data, "graph", dict, where))
        curves = tuple(_field(data, "curves", _STRINGS, where))
        ambient = _field(data, "ambient", str, where)
        subs = []
        for n, entry in enumerate(_field(data, "subsurfaces", list, where)):
            where = f"subsurface entry {n}"
            _require_object(entry, where, key="subsurfaces", index=n)
            vertex = _field(entry, "vertex", str, where, index=n)
            subs.append(
                Subsurface(
                    label=entry.get("label", f"X_{vertex}"),
                    vertex=vertex,
                    core=_field(entry, "core", str, where, index=n),
                    intersects=frozenset(_field(entry, "intersects", _STRINGS, where, index=n)),
                )
            )
        return cls(graph, tuple(subs), curves, ambient)

    @classmethod
    def from_json(cls, text: str) -> "Realization":
        try:
            data = json.loads(text)
        except json.JSONDecodeError as err:
            raise MalformedRealization(
                f"realization is not valid JSON: {err}", line=err.lineno, column=err.colno
            ) from None
        except ValueError as err:  # an integer of more digits than int() converts
            raise MalformedRealization(f"realization JSON cannot be read: {err}") from None
        except RecursionError:  # arrays or objects nested past the parser's stack
            raise MalformedRealization("realization JSON is nested too deeply") from None
        return cls.from_json_dict(data)


_STRINGS = "a list of strings"
_KINDS = {dict: "an object", list: "a list", str: "a string"}


def _require_object(data, where: str, **details) -> None:
    if not isinstance(data, dict):
        raise MalformedRealization(f"{where} must be an object", **details)


def _field(data: dict, key: str, kind, where: str, **details):
    """``data[key]``, checked to be of ``kind``: a type, or _STRINGS."""
    value = data.get(key)
    if kind is _STRINGS:
        ok = isinstance(value, list) and all(isinstance(x, str) for x in value)
    else:
        ok = isinstance(value, kind)
    if not ok:
        wanted = _KINDS.get(kind, kind)
        raise MalformedRealization(f"{where} needs {wanted} under {key!r}", key=key, **details)
    return value


def build_standard_realization(graph: DefiningGraph) -> Realization:
    """The annuli-and-tori construction, in combinatorial shadow: one
    annulus per vertex, annuli glued along squares on non-edges, and a
    one-holed torus glued into each annulus.

    Reference curves: the core curve gamma_v of each annulus and one
    essential curve tau_v inside each torus.  The torus at v meets its
    own tau_v and gamma_v, and gamma_u for every u that fails to commute
    with v, since those annuli cross the annulus of v.
    """
    gammas = {v: f"gamma_{v}" for v in graph.vertices}
    taus = {v: f"tau_{v}" for v in graph.vertices}
    curves = tuple(gammas[v] for v in graph.vertices) + tuple(
        taus[v] for v in graph.vertices
    )
    subs = []
    for v in graph.vertices:
        outside_star = [u for u in graph.vertices if u != v and not graph.has_edge(u, v)]
        incidences = {taus[v], gammas[v]} | {gammas[u] for u in outside_star}
        subs.append(
            Subsurface(
                label=f"X_{v}", vertex=v, core=gammas[v], intersects=frozenset(incidences)
            )
        )
    return Realization(graph, tuple(subs), curves, "standard")


def _pair_relation(a: Subsurface, b: Subsurface) -> str:
    meets_ab = b.core in a.intersects
    meets_ba = a.core in b.intersects
    if meets_ab and meets_ba:
        return "overlap"
    if meets_ab or meets_ba:
        return "nested"
    return "disjoint"


def validate_realization(realization: Realization) -> None:
    """Check that no reference curve is declared twice, then the two
    niceness conditions against the declared incidences, raising on the
    first violation."""
    graph = realization.graph
    seen_vertices = set()
    curve_set = set(realization.reference_curves)
    if len(curve_set) < len(realization.reference_curves):
        curve = next(c for i, c in enumerate(realization.reference_curves)
                     if c in realization.reference_curves[:i])
        raise DuplicateCurve(f"reference curve {curve!r} is declared twice", curve=curve)
    for x in realization.subsurfaces:
        graph.require_vertex(x.vertex)
        if x.vertex in seen_vertices:
            raise DuplicateVertex(
                f"two subsurfaces declared for vertex {x.vertex!r}", label=x.vertex
            )
        seen_vertices.add(x.vertex)
        unknown = (x.intersects | {x.core}) - curve_set
        if unknown:
            raise UnknownCurve(
                f"subsurface {x.label} meets undeclared curves {sorted(unknown)}",
                label=x.label,
            )
    missing = set(graph.vertices) - seen_vertices
    if missing:
        raise UnknownVertex(
            f"no subsurface declared for vertices {sorted(missing)}",
            label=sorted(missing)[0],
        )
    for a, b in combinations(realization.subsurfaces, 2):
        relation = _pair_relation(a, b)
        is_edge = graph.has_edge(a.vertex, b.vertex)
        if relation == "nested":
            raise NestingDetected(
                f"{a.label} and {b.label} intersect without overlapping",
                i=a.vertex, j=b.vertex,
            )
        if relation == "disjoint" and not is_edge:
            raise DisjointnessMismatch(
                f"{a.label} and {b.label} are disjoint but {a.vertex!r}, {b.vertex!r} "
                "do not commute",
                i=a.vertex, j=b.vertex,
            )
        if relation == "overlap" and is_edge:
            raise DisjointnessMismatch(
                f"{a.label} and {b.label} overlap but {a.vertex!r}, {b.vertex!r} commute",
                i=a.vertex, j=b.vertex,
            )


def fill(realization: Realization, indices: Iterable[str]) -> FillResult:
    """Fill data for the subsurfaces attached to ``indices``: one
    component per connected piece of the complement graph on the index
    set, filling the ambient surface iff every reference curve meets one
    of the subsurfaces.  The subsurfaces are looked up in the order of
    ``indices``, so a vertex without one is reported at its first
    occurrence there."""
    index_list = list(indices)
    if not index_list:
        raise ValueError("indices must be nonempty")
    for v in index_list:
        realization.graph.require_vertex(v)
    components = realization.graph.complement().components(index_list)
    covered: set[str] = set()
    for v in dict.fromkeys(index_list):
        covered |= realization.subsurface_for(v).intersects
    uncovered = frozenset(set(realization.reference_curves) - covered)
    return FillResult(components, not uncovered, uncovered)
