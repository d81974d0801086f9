import faulthandler
import os
import random

import pytest

from raagmcg import DefiningGraph, Syllable, Word, build_standard_realization

# A test still running after this many seconds ends the run with the
# traceback of every thread, so a loop that never ends fails by name
# instead of hanging.  The slowest test takes about 2 s, and about 9 s
# under the tracer of tests/coverage.py.
TEST_TIME_LIMIT = 60
_stderr = None


def pytest_configure(config):
    # A test's own stderr is captured, and lost when the limit ends the
    # process: the traceback goes to a copy of the real stderr, taken here,
    # while no test runs.
    global _stderr
    _stderr = os.dup(2)


def pytest_unconfigure(config):
    os.close(_stderr)


@pytest.fixture(autouse=True)
def time_limit():
    faulthandler.dump_traceback_later(TEST_TIME_LIMIT, exit=True, file=_stderr)
    yield
    faulthandler.cancel_dump_traceback_later()


PENTAGON_EDGES = [("a", "b"), ("b", "c"), ("c", "d"), ("d", "e"), ("e", "a")]


@pytest.fixture(scope="session")
def pentagon():
    return DefiningGraph.from_data("abcde", PENTAGON_EDGES)


@pytest.fixture(scope="session")
def pentagon_realization(pentagon):
    return build_standard_realization(pentagon)


def random_word(rng: random.Random, graph: DefiningGraph, max_syllables: int,
                exponents=(-2, -1, 1, 2), min_syllables: int = 0,
                generators=None) -> Word:
    gens = list(generators) if generators is not None else list(graph.vertices)
    k = rng.randint(min_syllables, max_syllables)
    syllables = tuple(
        Syllable(rng.choice(gens), rng.choice(exponents)) for _ in range(k)
    )
    return Word(syllables, graph)


def random_graph(rng: random.Random, max_vertices: int = 6, edge_probability: float = 0.5):
    n = rng.randint(2, max_vertices)
    vertices = [f"v{i}" for i in range(n)]
    edges = [
        (vertices[i], vertices[j])
        for i in range(n)
        for j in range(i + 1, n)
        if rng.random() < edge_probability
    ]
    return DefiningGraph.from_data(vertices, edges)
