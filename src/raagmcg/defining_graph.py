"""Defining graphs of right-angled Artin groups.

Vertices are the group generators; an edge means the two generators
commute.  The complement graph (edges exactly on non-commuting pairs)
drives the component decomposition used by the classifier, and vertex
stars drive every coset test downstream.

Graphs are immutable after construction and the input order of the
vertices is kept: it is the tie-breaking order for all canonical forms.
"""

from __future__ import annotations

import json
import re
from functools import cached_property, partial
from itertools import combinations
from operator import attrgetter
from typing import Iterable, Sequence

from .errors import (
    DanglingEdge, DuplicateVertex, MalformedGraph, SelfLoop, UnknownVertex, decode_json,
)


_BREAKS = re.compile(r"[\s^#]")  # what the word grammar and syllable id labels split on


def _check_label(vertex) -> None:
    """Raise MalformedGraph unless the vertex is a string that the word
    grammar reads back (no whitespace or '^'), that a syllable id's
    label keeps apart from its exponent and rank (no '#'), and that DOT
    output can quote (no '"' or '\\')."""
    if not isinstance(vertex, str) or _BREAKS.search(vertex):
        problem = "is not a string without whitespace, '^' or '#'"
    elif '"' in vertex or "\\" in vertex:
        problem = "holds '\"' or '\\', which DOT output cannot quote"
    else:
        return
    raise MalformedGraph(f"graph vertex {vertex!r} {problem}", key="vertices", vertex=vertex)


def _edge_error(edge, shape: str) -> MalformedGraph:
    return MalformedGraph(f"graph edge {edge!r} is not {shape}", key="edges", edge=edge)


class Frozen:
    """The base of the package's immutable value classes.

    Each subclass names its fields in order in ``__match_args__`` (at
    least two, so ``_fields`` returns a tuple) and writes out its own
    ``__init__``, one ``object.__setattr__`` per field.  This base gives
    the rest, from the field tuple ``_fields(self)``: equality (only
    against the same class), the hash, the repr ``Name(field=value,
    ...)``, and ``AttributeError`` on any assignment or deletion.  It is
    not in ``__all__``."""

    __slots__ = ()
    __match_args__: tuple[str, ...] = ()

    def __init_subclass__(cls):
        cls._fields = attrgetter(*cls.__match_args__)

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return self._fields(self) == other._fields(other)
        return NotImplemented

    def __hash__(self):
        return hash(self._fields(self))

    def __repr__(self) -> str:
        fields = ", ".join([f"{name}={getattr(self, name)!r}" for name in self.__match_args__])
        return f"{type(self).__qualname__}({fields})"

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")


class DefiningGraph(Frozen):
    """A finite simple graph on named generators."""

    __match_args__ = ("vertices", "edges")

    def __init__(self, vertices: tuple[str, ...], edges: frozenset[frozenset[str]]):
        object.__setattr__(self, "vertices", vertices)
        object.__setattr__(self, "edges", edges)
        self.validate()

    @classmethod
    def from_data(cls, vertices: Sequence[str], edges: Iterable[Sequence[str]]) -> "DefiningGraph":
        """The graph on ``vertices`` with one edge per pair of vertex names
        in ``edges`` (a two-letter string is such a pair).  An edge that is
        not two hashable names raises MalformedGraph; ``validate`` checks
        the rest."""
        pairs = []
        for edge in edges:
            try:
                pair = frozenset(edge) if len(edge) == 2 else None
            except TypeError:  # no length, or an unhashable name
                pair = None
            if pair is None:
                raise _edge_error(edge, "two hashable vertex names")
            pairs += [pair]
        return cls(tuple(vertices), frozenset(pairs))

    @classmethod
    def from_json_dict(cls, data: dict) -> "DefiningGraph":
        if not isinstance(data, dict):
            raise MalformedGraph("graph JSON must be an object")
        for key in ("vertices", "edges"):
            if not isinstance(data.get(key), list):
                raise MalformedGraph(f"graph JSON needs a list under {key!r}", key=key)
        for vertex in data["vertices"]:  # validate checks too, after the edges
            _check_label(vertex)
        for edge in data["edges"]:
            if not (isinstance(edge, list) and len(edge) == 2
                    and all(isinstance(v, str) for v in edge)):
                raise _edge_error(edge, "a list of two vertex names")
        return cls.from_data(data["vertices"], data["edges"])

    @classmethod
    def from_json(cls, text: str) -> "DefiningGraph":
        return cls.from_json_dict(decode_json(text, MalformedGraph, "graph"))

    def validate(self) -> None:
        """Re-check the construction invariants, raising on the first violation."""
        seen = set()
        for v in self.vertices:
            if not v:
                raise DuplicateVertex("empty vertex label", label=v)
            _check_label(v)  # before the set lookup, which needs a hashable label
            if v in seen:
                raise DuplicateVertex(f"duplicate vertex {v!r}", label=v)
            seen.add(v)
        # An edge is a frozenset of two vertices, or of one (a self-loop).
        # Of the edges of another shape the least by repr is reported, and
        # then edges and endpoints are read in sorted order, so the one
        # reported does not hang on the hash seed.  They compare as text,
        # so an endpoint that is not a string is reported, not compared.
        malformed = [e for e in self.edges if e.__class__ is not frozenset or not 0 < len(e) < 3]
        if malformed:
            raise _edge_error(min(malformed, key=repr), "a frozenset of one or two vertices")
        for edge in sorted(map(partial(sorted, key=str), self.edges), key=str):
            if edge[0] == edge[-1]:
                raise SelfLoop(f"self-loop at {edge[0]!r}", label=edge[0])
            for v in edge:
                if v not in seen:
                    raise DanglingEdge(f"edge endpoint {v!r} is not a vertex", label=v)

    # -- lookups ---------------------------------------------------------

    @cached_property
    def index(self) -> dict[str, int]:
        return {v: i for i, v in enumerate(self.vertices)}

    @cached_property
    def neighbors(self) -> dict[str, frozenset[str]]:
        nbrs: dict[str, set[str]] = {v: set() for v in self.vertices}
        for u, v in self.edges:  # validated: two distinct vertices each
            nbrs[u].add(v)
            nbrs[v].add(u)
        return {v: frozenset(s) for v, s in nbrs.items()}

    def require_vertex(self, v: str) -> None:
        if v not in self.index:
            raise UnknownVertex(f"unknown vertex {v!r}", label=v)

    def has_edge(self, u: str, v: str) -> bool:
        return frozenset((u, v)) in self.edges

    def commute(self, u: str, v: str) -> bool:
        """Whether the generators u, v commute as group elements."""
        return u == v or self.has_edge(u, v)

    @cached_property
    def commutation_matrix(self) -> tuple[tuple[bool, ...], ...]:
        """commutation_matrix[i][j] is True iff generators i, j commute
        (equal generators included).  Indexed by vertex order, and built
        from the edge set: one step per vertex and per edge, not per pair."""
        n, index = len(self.vertices), self.index
        rows = [[False] * n for _ in range(n)]
        for i, row in enumerate(rows):
            row[i] = True
        for u, v in self.edges:  # validated: two distinct vertices each
            i, j = index[u], index[v]
            rows[i][j] = rows[j][i] = True
        return tuple([tuple(row) for row in rows])

    @cached_property
    def dependence(self) -> tuple[tuple[int, ...], ...]:
        """dependence[i] lists, in vertex order, generator i and the
        generators that do not commute with it: the ones whose syllables
        never pass a syllable of i.  It is the one source of the
        dependence relation for the words module: the greedy pass of the
        normal form, ``heap_masks`` and ``linear_extensions`` read it.
        Computed on first use, not when the graph is built."""
        return tuple([
            tuple([j for j, commutes in enumerate(row) if i == j or not commutes])
            for i, row in enumerate(self.commutation_matrix)
        ])

    # -- graph operations --------------------------------------------------

    def star(self, v: str) -> frozenset[str]:
        """The vertex together with its neighbors: the generators whose
        mapping classes fix the subsurface attached to v."""
        self.require_vertex(v)
        return self.neighbors[v] | {v}

    def complement(self) -> "DefiningGraph":
        """Same vertices; edges exactly on the non-edges of this graph.
        Built once per graph."""
        return self._complement

    @cached_property
    def _complement(self) -> "DefiningGraph":
        pairs = map(frozenset, combinations(self.vertices, 2))
        return DefiningGraph(self.vertices, frozenset([p for p in pairs if p not in self.edges]))

    def components(self, subset: Iterable[str]) -> tuple[tuple[str, ...], ...]:
        """Connected components of the induced subgraph on ``subset``.

        Parts are tuples sorted by vertex order, and the partition is
        sorted by its first member, so the output is deterministic.
        """
        sub = list(subset)
        for v in sub:
            self.require_vertex(v)
        unvisited, parts = set(sub), []
        for v in sorted(unvisited, key=self.index.get):
            if v in unvisited:  # the least vertex of a new part
                unvisited.discard(v)
                part, stack = [v], [v]
                while stack:
                    found = self.neighbors[stack.pop()] & unvisited
                    unvisited -= found
                    part += found
                    stack += found
                parts += [tuple(sorted(part, key=self.index.get))]
        return tuple(parts)

    # -- serialization ---------------------------------------------------

    def sorted_edges(self) -> list[tuple[str, str]]:
        pairs = [tuple(sorted(e, key=self.index.get)) for e in self.edges]
        return sorted(pairs, key=lambda p: (self.index[p[0]], self.index[p[1]]))

    def to_json_dict(self) -> dict:
        return {
            "vertices": list(self.vertices),
            "edges": [list(p) for p in self.sorted_edges()],
        }

    def to_json(self) -> str:
        return json.dumps(self.to_json_dict(), indent=2)

    def to_dot(self, name: str = "gamma") -> str:
        lines = [f"graph {name} {{"]
        for v in self.vertices:
            lines.append(f'  "{v}";')
        for u, v in self.sorted_edges():
            lines.append(f'  "{u}" -- "{v}";')
        lines.append("}")
        return "\n".join(lines) + "\n"
