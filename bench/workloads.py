"""The four workloads: their graphs, their seeded operation lists and the
checks on every answer.

This module never imports raagmcg itself; the benchmark passes the
imported package in as ``R``.  That keeps the timed set-up honest: the
set-up probe imports this module first and starts its clock just before
``import raagmcg``.

An operation calls the package through attribute lookups on ``R`` at
call time (``R.normalize(w)``, never a captured function), so the span
wrappers of a traced run see every call.
"""

from __future__ import annotations

import os
import random
from math import comb

from freegroups import ProductOfFrees, exponent_sums, invert, project

WORKLOADS = ("pentagon-powers", "commuting-blowup", "random-long", "cli-oneshot")

PENTAGON = ("abcde", [("a", "b"), ("b", "c"), ("c", "d"), ("d", "e"), ("e", "a")])
# The complement of the pentagon is the 5-cycle a c e b d: consecutive
# letters never commute, so walks on it give words with exactly one
# minimal representative.
CYCLE = "acebd"
F2XF2 = ("xyuv", [("x", "u"), ("x", "v"), ("y", "u"), ("y", "v")])
K_DEFAULT = 42  # K0 + 20 + 2*D for the default constants K0 = 10, D = 6
PENTAGON_BOUND = "1/11"  # 1/(2r + 1) with r = 5
RANDOM_VERTICES = 40
EXPONENTS = (-3, -2, -1, 1, 2, 3)


class CheckFailed(Exception):
    pass


def expect(condition, message):
    if not condition:
        raise CheckFailed(message)


class Op:
    """One operation: ``run`` calls the package; ``check`` raises
    CheckFailed on a wrong answer.  CLI operations carry ``argv``."""

    __slots__ = ("label", "run", "check", "argv")

    def __init__(self, label, run, check, argv=None):
        self.label, self.run, self.check, self.argv = label, run, check, argv


class Context:
    """What the timed set-up builds: graphs, realizations and, for the CLI
    workload, the graph and realization files."""

    def __init__(self):
        self.graphs = {}
        self.realizations = {}
        self.files = {}
        self.data = {}


# -- set-up --------------------------------------------------------------------


def graph_data(workload, seed):
    """Vertex and edge lists of every graph the workload uses; benchmark
    data, made before the set-up clock starts."""
    if workload == "pentagon-powers":
        return {"pentagon": PENTAGON}
    if workload == "commuting-blowup":
        return {"f2xf2": F2XF2}
    if workload == "random-long":
        # Exactly half of all vertex pairs are edges, so every seed gives
        # the same density and comparable costs.
        rng = random.Random(f"graph-{seed}")
        names = [f"v{i}" for i in range(RANDOM_VERTICES)]
        pairs = [(a, b) for i, a in enumerate(names) for b in names[i + 1:]]
        return {"random40": (names, sorted(rng.sample(pairs, len(pairs) // 2)))}
    if workload == "cli-oneshot":
        return {"pentagon": PENTAGON, "f2xf2": F2XF2}
    raise ValueError(f"unknown workload {workload!r}")


def build(R, workload, data, workdir):
    """The set-up a user pays: graphs and realizations through the public
    API and, for the CLI, the JSON files its commands read."""
    ctx = Context()
    ctx.data = data
    for name, (vertices, edges) in data.items():
        graph = R.DefiningGraph.from_data(vertices, edges)
        ctx.graphs[name] = graph
        if workload != "random-long":
            ctx.realizations[name] = R.build_standard_realization(graph)
    if workload == "cli-oneshot":
        os.makedirs(workdir, exist_ok=True)
        for name, graph in ctx.graphs.items():
            path = os.path.join(workdir, f"{name}.json")
            with open(path, "w", encoding="utf-8") as handle:
                handle.write(graph.to_json())
            ctx.files[name] = path
            path = os.path.join(workdir, f"{name}-realization.json")
            with open(path, "w", encoding="utf-8") as handle:
                handle.write(ctx.realizations[name].to_json())
            ctx.files[f"{name}-realization"] = path
    return ctx


def make_ops(R, workload, ctx, seed):
    rng = random.Random(f"{workload}-{seed}")
    maker = {
        "pentagon-powers": _pentagon_ops,
        "commuting-blowup": _blowup_ops,
        "random-long": _random_long_ops,
        "cli-oneshot": _cli_ops,
    }[workload]
    return maker(R, ctx, rng)


# -- word helpers ----------------------------------------------------------------


def pairs_of(word):
    return [(s.generator, s.exponent) for s in word.syllables]


def render(pairs):
    return " ".join(g if e == 1 else f"{g}^{e}" for g, e in pairs)


def parse_text(text):
    out = []
    for token in text.split():
        name, _, exp = token.partition("^")
        out.append((name, int(exp) if exp else 1))
    return out


def power_pairs(base, n):
    return [(g, 1) for g in base] * n


def interleaving(n):
    return [("x", 1), ("y", 1)] * n + [("u", 1), ("v", 1)] * n


def cycle_walk(rng, length):
    """A closed walk of the given length on the complement 5-cycle that
    visits all five vertices: the word is cyclically reduced, filling and
    its own unique minimal representative.  Length 6 is impossible: a
    closed walk covering the cycle winds once (5 + 2j steps) or goes out
    and back (at least 8 steps)."""
    if length < 5 or length == 6:
        raise ValueError(f"no covering closed walk of length {length}")
    while True:
        pos = [0]
        for _ in range(length - 1):
            pos.append((pos[-1] + rng.choice((1, -1))) % 5)
        if (pos[-1] - pos[0]) % 5 in (1, 4) and len(set(pos)) == 5:
            start = rng.randrange(5)
            return [(CYCLE[(p + start) % 5], rng.choice(EXPONENTS)) for p in pos]


def random_pairs(rng, generators, length):
    return [(rng.choice(generators), rng.choice(EXPONENTS)) for _ in range(length)]


def alternating_pairs(rng, generators, length):
    """A freely reduced word of exactly ``length`` syllables in the free
    group on two generators."""
    first = rng.randrange(2)
    return [(generators[(first + i) % 2], rng.choice(EXPONENTS)) for i in range(length)]


def split_syllables(rng, pairs, splits):
    """The same element with ``splits`` syllables g^e written as
    g^a g^(e-a), so normalizing has merges to do."""
    out = list(pairs)
    for _ in range(splits):
        i = rng.randrange(len(out))
        g, e = out[i]
        a = rng.choice([x for x in EXPONENTS if x != e])
        out[i:i + 1] = [(g, a), (g, e - a)]
    return out


def letter_length(pairs):
    return sum(abs(e) for _, e in pairs)


# -- pentagon-powers ---------------------------------------------------------------

# Larger powers give 10-45 ms calls, whose best-of times moved by up to
# 1.9x between runs on a shared VM, against about 10% for short calls.
POWER_RANGE = range(1, 9)
EMBED_RANGE = range(1, 6)
VERIFY_RANGE = range(1, 3)
# Every length from 5 to 24 that a covering walk can have (not 6), so the
# latency percentiles do not jump between sparse lengths from seed to seed.
FILLING_LENGTHS = (5, *range(7, 25))


def _check_pseudo_anosov(report, pairs):
    k = len(pairs)
    expect(report.overall == "pseudo_anosov", f"overall {report.overall}")
    expect(str(report.translation_bound) == PENTAGON_BOUND, f"bound {report.translation_bound}")
    expect(report.conjugator.is_empty, f"conjugator {report.conjugator}")
    expect(len(report.reduced) == k, f"reduced has {len(report.reduced)} syllables, not {k}")
    expect(report.r == 5, f"r = {report.r}")
    expect(len(report.components) == 1 and report.components[0].fills_ambient,
           "expected one filling component")


def _check_certificate(cert, pairs):
    expect(cert.total == K_DEFAULT * letter_length(pairs), f"total {cert.total}")
    expect(len(cert.entries) == len(pairs), f"{len(cert.entries)} entries")
    expect(all(e.bound == K_DEFAULT * abs(e.syllable.exponent) for e in cert.entries),
           "entry bound is not K * |exponent|")


def _check_chain(result, pairs):
    order, covering = result
    k = len(pairs)
    expect(len(order.precedes) == comb(k, 2), f"{len(order.precedes)} ordered pairs")
    expect(len(covering) == max(k - 1, 0), f"{len(covering)} covering pairs")
    pos = {sid: i for i, sid in enumerate(order.elements)}
    expect(all(pos[t] == pos[s] + 1 for s, t in covering), "covering pair not consecutive")


def _order_with_covering(R, word):
    order = R.syllable_order(word)
    return order, order.covering_pairs()


def _pentagon_ops(R, ctx, rng):
    graph = ctx.graphs["pentagon"]
    realization = ctx.realizations["pentagon"]
    constants = R.default_constants(graph)
    ops = []

    def add_unique_word_ops(tag, pairs, conjugate_by=None):
        word = R.word_from_pairs(graph, pairs)
        ops.append(Op(f"normalize {tag}", lambda: R.normalize(word),
                      lambda r: expect(pairs_of(r) == pairs, "normal form differs")))
        ops.append(Op(f"classify {tag}", lambda: R.classify(word, realization),
                      lambda r: _check_pseudo_anosov(r, pairs)))
        ops.append(Op(f"certify {tag}", lambda: R.make_certificate(word, constants),
                      lambda r: _check_certificate(r, pairs)))
        if conjugate_by is not None:
            conj = R.word_from_pairs(graph, conjugate_by + pairs + invert(conjugate_by))
            ops.append(Op(f"conjugate-reduce {tag}", lambda: R.cyclically_reduce(conj),
                          lambda r: expect(len(r[0]) == len(pairs),
                                           f"reduced conjugate has {len(r[0])} syllables")))
        return word

    for n in POWER_RANGE:
        pairs = power_pairs(CYCLE, n)
        u = cycle_walk(rng, 5)[:4]
        word = add_unique_word_ops(f"n={n}", pairs, conjugate_by=u)
        ops.append(Op(f"order n={n}", lambda w=word: _order_with_covering(R, w),
                      lambda r, p=pairs: _check_chain(r, p)))
        ops.append(Op(f"reduce n={n}", lambda w=word: R.cyclically_reduce(w),
                      lambda r, p=pairs: expect(pairs_of(r[0]) == p and r[1].is_empty,
                                                "not already cyclically reduced")))
        if n in EMBED_RANGE:
            ops.append(Op(f"embedding n={n}", lambda w=word: R.check_order_embedding(w),
                          lambda r: expect(r.ok, r.detail)))
        if n in VERIFY_RANGE:
            ops.append(Op(f"verify n={n}",
                          lambda w=word: R.verify_power_properties(w, realization=realization),
                          _check_verify_passes))
    for i, length in enumerate(FILLING_LENGTHS):
        pairs = cycle_walk(rng, length)
        word = add_unique_word_ops(f"filling#{i} k={length}", pairs)
        ops.append(Op(f"embedding filling#{i}", lambda w=word: R.check_order_embedding(w),
                      lambda r: expect(r.ok, r.detail)))
    return ops


def _check_verify_passes(report):
    for name, entry in report.items():
        expect(entry["status"] == "pass", f"{name}: {entry}")
    expect(len(report) == 4, f"{len(report)} checks")


# -- commuting-blowup ----------------------------------------------------------------

INTERLEAVE_RANGE = range(1, 4)
# Syllables per free factor of the seeded F2 x F2 words: at most
# C(7, 3) = 35 representatives.  Calls on (4, 4) words took 12-18 ms, and
# when the shared machine slowed they slowed 1.4-1.5x, short calls 1.24x.
FACTOR_SIZES = ((1, 1), (1, 2), (2, 1), (2, 2), (1, 3), (3, 1), (2, 3), (3, 2), (1, 4),
                (4, 1), (2, 4), (4, 2), (3, 3), (3, 3), (3, 4), (4, 3), (3, 4), (4, 3))


def _check_reps(reps, facts):
    seen = set()
    for rep in reps:
        pairs = pairs_of(rep)
        left = [p for p in pairs if p[0] in ProductOfFrees.LEFT]
        right = [p for p in pairs if p[0] in ProductOfFrees.RIGHT]
        expect(left == facts.left and right == facts.right, f"representative {rep} is wrong")
        seen.add(tuple(pairs))
    expect(len(seen) == len(reps), "duplicate representatives")
    expect(len(reps) == facts.representative_count(),
           f"{len(reps)} representatives, not {facts.representative_count()}")


def _check_product_order(result, facts):
    order, covering = result
    expect(len(order.precedes) == facts.order_size(), f"{len(order.precedes)} ordered pairs")
    expect(len(covering) == facts.covering_size(), f"{len(covering)} covering pairs")


def _check_product_classify(report, facts):
    parts = facts.components()
    expect(report.overall == ("identity" if not parts else "reducible"),
           f"overall {report.overall}")
    got = [list(c.generators) for c in report.components]
    expect(got == parts, f"components {got}, not {parts}")
    expect(len(report.reduced) == facts.reduced_length(), f"reduced {report.reduced}")


def _blowup_ops(R, ctx, rng):
    graph = ctx.graphs["f2xf2"]
    realization = ctx.realizations["f2xf2"]
    ops = []

    def add(tag, pairs, with_normalize, whole=True):
        word = R.word_from_pairs(graph, pairs)
        facts = ProductOfFrees(pairs)
        if with_normalize:
            ops.append(Op(f"normalize {tag}", lambda: R.normalize(word),
                          lambda r: expect(pairs_of(r) == facts.normal_form(),
                                           f"normal form {r}")))
        ops.append(Op(f"min-enum {tag}", lambda: R.minimal_representatives(word),
                      lambda r: _check_reps(r, facts)))
        if whole:
            ops.append(Op(f"order {tag}", lambda: _order_with_covering(R, word),
                          lambda r: _check_product_order(r, facts)))
            ops.append(Op(f"reduce {tag}", lambda: R.cyclically_reduce(word),
                          lambda r: expect(len(r[0]) == facts.reduced_length(),
                                           f"reduced {r[0]}")))
            ops.append(Op(f"classify {tag}", lambda: R.classify(word, realization),
                          lambda r: _check_product_classify(r, facts)))
            ops.append(Op(f"embedding {tag}", lambda: R.check_order_embedding(word),
                          lambda r: expect(r.ok, r.detail)))

    # At n = 3, order takes 30-50 ms and reduce, classify and embedding
    # 0.1-0.6 s each; samples that long are too unsteady on a shared VM
    # and would cut the number of passes, so n = 3 keeps only min-enum.
    for n in INTERLEAVE_RANGE:
        add(f"n={n}", interleaving(n), with_normalize=False, whole=n < 3)
    for i, (p, q) in enumerate(FACTOR_SIZES):
        left = split_syllables(rng, alternating_pairs(rng, "xy", p), 1)
        right = split_syllables(rng, alternating_pairs(rng, "uv", q), 1)
        merged = []
        while left or right:
            side = left if (left and (not right or rng.random() < 0.5)) else right
            merged.append(side.pop(0))
        add(f"random#{i}", merged, with_normalize=True)
    return ops


# -- random-long ---------------------------------------------------------------------

# Every length from 10 to 45: with gaps between lengths, the median and
# the 90th percentile jump from one length to the next as the seed
# changes the words.
LONG_LENGTHS = tuple(range(10, 46))
SUBGROUP_SIZE = 20
PROJECTION_PAIRS = 6


class RandomLongFacts:
    """Benchmark-side knowledge of the random graph: adjacency from the
    edge list and a few sampled non-adjacent vertex pairs."""

    def __init__(self, graph_pairs, rng):
        names, edges = graph_pairs
        self.names = names
        self.adjacent = {frozenset(e) for e in edges}
        non_edges = [(a, b) for i, a in enumerate(names) for b in names[i + 1:]
                     if frozenset((a, b)) not in self.adjacent]
        self.free_pairs = rng.sample(non_edges, PROJECTION_PAIRS)

    def commute(self, g, h):
        return g == h or frozenset((g, h)) in self.adjacent

    def perturb(self, rng, pairs):
        """Same group element: random commuting swaps and inserted
        g^a g^-a pairs."""
        out = list(pairs)
        for _ in range(len(out)):
            i = rng.randrange(len(out) - 1)
            if out[i][0] != out[i + 1][0] and self.commute(out[i][0], out[i + 1][0]):
                out[i], out[i + 1] = out[i + 1], out[i]
        for _ in range(max(len(out) // 10, 1)):
            g, a = rng.choice(self.names), rng.choice(EXPONENTS)
            i = rng.randrange(len(out) + 1)
            out[i:i] = [(g, a), (g, -a)]
        return out

    def check_projections(self, before, after):
        for g, h in self.free_pairs:
            expect(project(before, (g, h)) == project(after, (g, h)),
                   f"projection to F({g}, {h}) changed")


def _random_long_ops(R, ctx, rng):
    graph = ctx.graphs["random40"]
    names, edges = ctx.data["random40"]
    facts = RandomLongFacts((names, edges), rng)
    ops = []
    for length in LONG_LENGTHS:
        pairs = random_pairs(rng, names, length)
        text = render(pairs)
        word = R.word_from_pairs(graph, pairs)
        same = R.word_from_pairs(graph, facts.perturb(rng, pairs))
        extra = rng.choice(names)
        other = R.word_from_pairs(graph, pairs + [(extra, 1)])
        subset = rng.sample(names, SUBGROUP_SIZE)
        inside = R.word_from_pairs(graph, random_pairs(rng, subset, length))
        outside_sums = {g for g in exponent_sums(pairs) if g not in subset}
        tag = f"k={length}"

        def check_parse(r, text=text, length=length):
            expect(len(r) == length and str(r) == text, "parse changed the word")

        def check_normal(r, word=word, same=same, pairs=pairs):
            got = pairs_of(r)
            expect(len(got) <= len(pairs), "normal form is longer than the word")
            expect(pairs_of(R.normalize(r)) == got, "normalize is not idempotent")
            expect(pairs_of(R.normalize(same)) == got,
                   "normal form changed under commuting swaps or inserted g^a g^-a")
            facts.check_projections(pairs, got)

        def check_power(r, pairs=pairs):
            facts.check_projections(pairs + pairs, pairs_of(r))

        def check_outside(r, outside_sums=outside_sums):
            # Nonzero exponent sum outside the subset rules membership out;
            # otherwise the abelianization cannot decide and nothing is checked.
            if outside_sums:
                expect(r is False, "word with generators outside the subgroup accepted")

        ops += [
            Op(f"parse {tag}", lambda text=text: R.parse_word(text, graph), check_parse),
            Op(f"normalize {tag}", lambda w=word: R.normalize(w), check_normal),
            Op(f"round-trip {tag}", lambda w=word: R.multiply(w, R.invert(w)),
               lambda r: expect(r.is_empty, "w * w^-1 is not empty")),
            Op(f"power {tag}", lambda w=word: R.power(w, 2), check_power),
            Op(f"equal {tag}", lambda w=word, s=same: R.equal_elements(w, s),
               lambda r: expect(r is True, "perturbed word reported unequal")),
            Op(f"unequal {tag}", lambda w=word, o=other: R.equal_elements(w, o),
               lambda r: expect(r is False, "w and w*g reported equal")),
            Op(f"subgroup-in {tag}",
               lambda w=inside, s=subset: R.in_special_subgroup(w, s),
               lambda r: expect(r is True, "word over the subset rejected")),
            Op(f"subgroup-out {tag}",
               lambda w=word, s=subset: R.in_special_subgroup(w, s), check_outside),
        ]
    return ops


# -- cli-oneshot ---------------------------------------------------------------------

CLI_POWERS = range(1, 4)
CLI_FILLING_LENGTHS = (7, 12)
CLI_INTERLEAVINGS = range(1, 3)
CLI_FACTOR_SIZES = ((2, 2), (3, 3))


def _cli_ops(R, ctx, rng):
    pent, prod = ctx.files["pentagon"], ctx.files["f2xf2"]
    ops = []

    def add(command, graph_file, pairs, check, *extra):
        argv = [command, "--graph", graph_file, "--word", render(pairs), *extra]
        ops.append(Op(f"{command} {render(pairs)[:40]}", None, check, argv))

    def pentagon_word(pairs, conjugation_free):
        k = len(pairs)
        text = render(pairs)
        add("normalize", pent, pairs,
            lambda d: expect(d["normalized"] == text, f"normalized {d['normalized']}"),
            "--format", "json")
        add("classify", pent, pairs, lambda d: _check_cli_pseudo_anosov(d, k),
            "--realization", ctx.files["pentagon-realization"])
        add("certify", pent, pairs,
            lambda d: expect(d["total"] == K_DEFAULT * letter_length(pairs),
                             f"total {d['total']}"))
        if conjugation_free:
            add("order", pent, pairs,
                lambda d: expect(len(d["elements"]) == k and len(d["covering"]) == k - 1,
                                 "pentagon power order is not a chain"),
                "--format", "json")
            add("reduce", pent, pairs,
                lambda d: expect(d["reduced"] == text and d["conjugator"] == "",
                                 f"reduced {d['reduced']}"),
                "--format", "json")

    def product_word(pairs, with_enum):
        facts = ProductOfFrees(pairs)
        add("normalize", prod, pairs,
            lambda d: expect(d["normalized"] == render(facts.normal_form()),
                             f"normalized {d['normalized']}"),
            "--format", "json")
        add("order", prod, pairs,
            lambda d: expect(len(d["covering"]) == facts.covering_size(),
                             f"{len(d['covering'])} covering pairs"),
            "--format", "json")
        add("reduce", prod, pairs,
            lambda d: expect(len(parse_text(d["reduced"])) == facts.reduced_length(),
                             f"reduced {d['reduced']}"),
            "--format", "json")
        add("classify", prod, pairs, lambda d: _check_cli_product(d, facts))
        if with_enum:
            add("min-enum", prod, pairs,
                lambda d: expect(d["count"] == facts.representative_count(),
                                 f"count {d['count']}"),
                "--format", "json")

    for n in CLI_POWERS:
        pentagon_word(power_pairs(CYCLE, n), conjugation_free=True)
    for length in CLI_FILLING_LENGTHS:
        pentagon_word(cycle_walk(rng, length), conjugation_free=False)
    for n in CLI_INTERLEAVINGS:
        product_word(interleaving(n), with_enum=True)
    for p, q in CLI_FACTOR_SIZES:
        product_word(alternating_pairs(rng, "xy", p) + alternating_pairs(rng, "uv", q),
                     with_enum=False)
    for name, (vertices, _) in (("pentagon", PENTAGON), ("f2xf2", F2XF2)):
        argv = ["realize", "--graph", ctx.files[name],
                "--realization", ctx.files[f"{name}-realization"]]
        ops.append(Op(f"realize {name}", None,
                      lambda d, v=vertices: _check_cli_realization(d, v), argv))
    return ops


def _check_cli_pseudo_anosov(data, k):
    expect(data["overall"] == "pseudo_anosov", f"overall {data['overall']}")
    expect(data["translation_bound"] == PENTAGON_BOUND, f"bound {data['translation_bound']}")
    expect(data["conjugator"] == "", f"conjugator {data['conjugator']}")
    expect(len(parse_text(data["reduced"])) == k, f"reduced {data['reduced']}")


def _check_cli_product(data, facts):
    parts = facts.components()
    expect(data["overall"] == ("identity" if not parts else "reducible"),
           f"overall {data['overall']}")
    got = [c["generators"] for c in data["components"]]
    expect(got == parts, f"components {got}")


def _check_cli_realization(data, vertices):
    expect(data["graph"]["vertices"] == list(vertices), "vertices changed")
    expect([s["vertex"] for s in data["subsurfaces"]] == list(vertices), "subsurfaces")
    expect(len(data["curves"]) == 2 * len(vertices), f"{len(data['curves'])} curves")

