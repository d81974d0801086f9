"""Differential check: one digest per corpus of a tree's outputs, to show
that a change keeps every output of its parent, or to name the corpora
whose outputs it changes.

Run from anywhere, with the standard library only:

    python tests/differential.py                 # this tree's digests
    python tests/differential.py --against PATH  # this tree against the checkout at PATH

Each tree runs in child interpreters, one per PYTHONHASHSEED in
``HASH_SEEDS``, with ``PYTHONPATH`` on that tree's ``src/``.  The inputs
are this script's and those of ``tests/test_cli_fuzz.py`` in this tree,
so both trees see the same ones.  A child that runs longer than
``TIMEOUT`` seconds is stopped, and the script exits naming the tree and
the hash seed.  The corpora:

  * ``cli-fuzz-<seed>`` and ``cli-structure-<seed>``: exit code, stdout
    and stderr of ``cli.main`` over the seeded fuzz and structural corpora
    of ``tests/test_cli_fuzz.py``, at three seeds each;
  * library results over seeded words on seeded graphs (at most 7
    vertices), on the pentagon and on F2 x F2: normal forms, ``parse_word``
    (junk tokens included), ``apply_move`` at every move and position,
    ``concatenated_power``, ``cyclically_reduce``, ``minimal_representatives``
    with a cap, the covers of ``syllable_order``, certificate JSON,
    ``check_order_embedding``, ``classify`` and ``verify_power_properties``
    reports, ``fill``, and (``power-shift``) the ordered label pairs of
    ``power_shift_map`` on cyclically reduced words at (m, n) = (1, 2),
    (2, 3) and (3, 5);
  * ``long-words``: normal forms, covers, cyclic reduction, certificates
    and the embedding check of 200-400-syllable words on a seeded
    40-vertex graph.

A case's record is the repr of its result, or of the error it raised
(type, message, details), with the temporary directory's path replaced.
The digest of a corpus hashes its records in order.  Alone, the script
prints one line per corpus: digest, case count, name.  With ``--against``
it compares each corpus with the other tree's under each hash seed and
prints, for a corpus that differs, its first differing cases on both
sides, from just before the first differing character.  Exits 0 when every corpus is
the same under every hash seed (and, with ``--against``, in both trees),
and 1 otherwise.

The file name has no ``test_`` prefix, so tier-1 does not collect it.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import os
import random
import subprocess
import sys
import tempfile
from pathlib import Path

HERE = Path(__file__).resolve().parent
HASH_SEEDS = ("0", "1", "2")
SHOWN = 5  # differing cases printed per corpus
KEPT = 4000  # characters of a record the child reports, after its hash
WINDOW = 160  # characters of a record printed, from just before the first difference
TIMEOUT = 30  # seconds for one child: about ten times its run, so a quadratic regression ends it


# -- the child: run every corpus on the raagmcg that PYTHONPATH names ------------


def _record(call):
    try:
        return repr(call())
    except Exception as err:  # every error is an output to compare
        details = getattr(err, "details", None)
        return repr(("error", type(err).__name__, str(err), details))


def _graph(rng, max_vertices=7, edge_probability=0.5):
    import raagmcg

    n = rng.randint(2, max_vertices)
    vertices = [f"v{i}" for i in range(n)]
    edges = [(vertices[i], vertices[j]) for i in range(n) for j in range(i + 1, n)
             if rng.random() < edge_probability]
    return raagmcg.DefiningGraph.from_data(vertices, edges)


def _word(rng, graph, max_syllables, exponents=(-2, -1, 1, 2)):
    import raagmcg

    return raagmcg.word_from_pairs(graph, [
        (rng.choice(graph.vertices), rng.choice(exponents))
        for _ in range(rng.randint(0, max_syllables))
    ])


def _fixed_graphs():
    import raagmcg

    pentagon = raagmcg.DefiningGraph.from_data(
        "abcde", [("a", "b"), ("b", "c"), ("c", "d"), ("d", "e"), ("e", "a")])
    f2xf2 = raagmcg.DefiningGraph.from_data(
        "xyuv", [("x", "u"), ("x", "v"), ("y", "u"), ("y", "v")])
    return [pentagon, f2xf2]


def _graphs_and_words(seed, count, max_syllables, exponents=(-2, -1, 1, 2)):
    # (graph, word) pairs: seeded graphs, then the pentagon and F2 x F2.
    rng = random.Random(seed)
    fixed = _fixed_graphs()
    for case in range(count):
        graph = _graph(rng) if case % 3 else fixed[case // 3 % 2]
        yield graph, _word(rng, graph, max_syllables, exponents)


def library_corpora():
    import raagmcg as R

    corpora = {}

    def corpus(name, cases):
        corpora[name] = [(key, _record(call)) for key, call in cases]

    def keyed(pairs, *calls):
        # One case per (graph, word) and call: the key names the word.
        for n, (graph, word) in enumerate(pairs):
            for name, call in calls:
                yield f"{n} {name} {word} | {' '.join(graph.vertices)}", (
                    lambda call=call, graph=graph, word=word: call(graph, word))

    corpus("normalize", keyed(
        _graphs_and_words(1, 600, 14),
        ("normalize", lambda g, w: R.normalize(w)),
        ("multiply", lambda g, w: R.multiply(w, R.invert(R.power(w, 2)))),
        ("is_minimal", lambda g, w: R.is_minimal(w)),
    ))
    junk = ["^", "a^", "^2", "zz", "a^1.5", "a^^2", "a^+2", "a^-0", "a^0", "é", "a^" + "9" * 30]

    def texts():
        rng = random.Random(2)
        for graph in _fixed_graphs() * 100:
            names = list(graph.vertices) + junk
            tokens = [rng.choice(names) + rng.choice(["", "^0", "^-1", "^3", "^007"])
                      for _ in range(rng.randint(0, 6))]
            yield graph, " ".join(tokens)

    corpus("parse_word", (
        (f"{n} {keep} {text!r}", lambda graph=graph, text=text, keep=keep:
         R.parse_word(text, graph, keep_zero_exponents=keep))
        for n, (graph, text) in enumerate(texts()) for keep in (False, True)
    ))

    def moves():
        for n, (graph, word) in enumerate(_graphs_and_words(3, 200, 6, (-1, 0, 1))):
            for move in (0, 1, 2, 3, 4):
                for position in range(len(word) + 2):
                    yield f"{n} {word} {move}@{position}", (
                        lambda word=word, move=move, position=position:
                        R.apply_move(word, move, position))

    corpus("apply_move", moves())
    corpus("concatenated_power", (
        (f"{n} {word} ^{k}", lambda word=word, k=k: R.concatenated_power(word, k))
        for n, (graph, word) in enumerate(_graphs_and_words(4, 200, 8)) for k in (-1, 0, 1, 3)
    ))

    def conjugates():
        rng = random.Random(5)
        for graph, word in _graphs_and_words(6, 400, 10):
            u = _word(rng, graph, 6)
            yield graph, R.multiply(R.multiply(u, word), R.invert(u))

    corpus("cyclically_reduce", keyed(
        conjugates(),
        ("reduce", lambda g, w: R.cyclically_reduce(w)),
        ("is_reduced", lambda g, w: R.is_cyclically_reduced(w)),
    ))
    corpus("minimal_representatives", keyed(
        _graphs_and_words(7, 300, 10),
        ("reps", lambda g, w: R.minimal_representatives(w, cap=200)),
    ))
    corpus("syllable_order", keyed(
        _graphs_and_words(8, 400, 14),
        ("covers", lambda g, w: R.syllable_order(w).to_json_dict()),
    ))
    corpus("certificate", keyed(
        _graphs_and_words(9, 300, 12),
        ("certify", lambda g, w: json.dumps(
            R.make_certificate(w, R.default_constants(g)).to_json_dict())),
        ("map", lambda g, w: sorted(
            (sid.label(), str(value.prefix), value.base_vertex)
            for sid, value in R.syllable_subsurface_map(w).items())),
    ))
    corpus("check_order_embedding", keyed(
        _graphs_and_words(10, 400, 14),
        ("embedding", lambda g, w: R.check_order_embedding(w)),
        ("independence", lambda g, w: R.check_representative_independence(w, cap=50)),
    ))
    corpus("classify", keyed(
        _graphs_and_words(11, 400, 12),
        ("classify", lambda g, w: json.dumps(
            R.classify(w, R.build_standard_realization(g)).to_json_dict())),
    ))
    corpus("verify", keyed(
        _graphs_and_words(12, 200, 4),
        ("verify", lambda g, w: R.verify_power_properties(
            R.cyclically_reduce(w)[0], oracle_budget=2000)),
    ))

    def fills():
        rng = random.Random(13)
        for n in range(300):
            graph = _graph(rng)
            realization = R.build_standard_realization(graph)
            if n % 2:  # one vertex without a subsurface
                dropped = rng.choice(graph.vertices)
                realization = R.Realization(
                    graph, tuple(x for x in realization.subsurfaces if x.vertex != dropped),
                    realization.reference_curves, "partial")
            names = list(graph.vertices) + ["zz"] * (n % 5 == 0)
            indices = [rng.choice(names) for _ in range(rng.randint(0, 5))]

            def call(realization=realization, indices=indices):
                result = R.fill(realization, indices)
                return result.components, result.fills_ambient, sorted(result.uncovered_curves)

            yield f"{n} {indices} | {' '.join(graph.vertices)}", call

    corpus("fill", fills())

    def reduced_words():
        for graph, word in _graphs_and_words(15, 400, 12):
            yield graph, R.cyclically_reduce(word)[0]

    corpus("power-shift", keyed(reduced_words(), *[
        (f"{m}->{n}", lambda g, w, m=m, n=n: [
            (s.label(), t.label()) for s, t in R.power_shift_map(w, m, n).items()])
        for m, n in ((1, 2), (2, 3), (3, 5))
    ]))

    def long_words():
        rng = random.Random(14)
        graph = R.DefiningGraph.from_data(
            [f"v{i}" for i in range(40)],
            [(f"v{i}", f"v{j}") for i in range(40) for j in range(i + 1, 40)
             if rng.random() < 0.5])
        for k in (200, 300, 400):
            pairs = [(rng.choice(graph.vertices), rng.choice((-2, -1, 1, 2))) for _ in range(k)]
            yield graph, R.word_from_pairs(graph, pairs)

    corpus("long-words", keyed(
        long_words(),
        ("normalize", lambda g, w: R.normalize(w)),
        ("covers", lambda g, w: R.syllable_order(w).to_json_dict()),
        ("reduce", lambda g, w: R.cyclically_reduce(w)),
        ("certify", lambda g, w: json.dumps(
            R.make_certificate(w, R.default_constants(g)).to_json_dict())),
        ("embedding", lambda g, w: R.check_order_embedding(w)),
    ))
    return corpora


def _cli(argv):
    from raagmcg.cli import main

    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = main(argv)
        except SystemExit as exit_:
            code = exit_.code
    return code, out.getvalue(), err.getvalue()


def cli_corpora(tmp):
    import test_cli_fuzz as fuzz

    corpora = {}
    for offset in range(3):
        seed = fuzz.SEED + offset
        work = Path(tmp, f"fuzz{seed}")
        work.mkdir()
        corpora[f"cli-fuzz-{seed}"] = [
            (" ".join(argv), _record(lambda argv=argv: _cli(argv)))
            for argv in fuzz._cases(random.Random(seed), work)
        ]
        seed = fuzz.STRUCTURE_SEED + offset
        work = Path(tmp, f"structure{seed}")
        work.mkdir()
        corpora[f"cli-structure-{seed}"] = [
            (f"{case} {' '.join(argv)}", _record(lambda argv=argv: _cli(argv)))
            for case, argv in fuzz._structural_cases(random.Random(seed), work)
        ]
    return corpora


def child() -> None:
    import raagmcg

    with tempfile.TemporaryDirectory() as tmp:
        corpora = {**cli_corpora(tmp), **library_corpora()}
        report = {
            "package": raagmcg.__file__,
            "corpora": {
                name: [[key.replace(tmp, "<tmp>"), record.replace(tmp, "<tmp>")]
                       for key, record in cases]
                for name, cases in corpora.items()
            },
        }
    for cases in report["corpora"].values():
        for case in cases:  # a record's hash, and its first KEPT characters to show
            case[1:] = [hashlib.sha256(case[1].encode()).hexdigest()[:16], case[1][:KEPT]]
    json.dump(report, sys.stdout)


# -- the parent: run the children and compare -------------------------------------


def run_tree(root: Path, hash_seed: str) -> dict:
    src = (root / "src").resolve()
    env = {**os.environ, "PYTHONPATH": str(src), "PYTHONHASHSEED": hash_seed}
    try:
        done = subprocess.run([sys.executable, str(Path(__file__).resolve()), "--child"],
                              env=env, capture_output=True, text=True, timeout=TIMEOUT)
    except subprocess.TimeoutExpired:
        sys.exit(f"the corpora took more than {TIMEOUT} s on {root} (PYTHONHASHSEED={hash_seed})")
    if done.returncode:
        sys.exit(f"the corpora failed on {root} (PYTHONHASHSEED={hash_seed}):\n{done.stderr}")
    report = json.loads(done.stdout)
    if not Path(report["package"]).resolve().is_relative_to(src):
        sys.exit(f"{root}: raagmcg was imported from {report['package']}, not {src}")
    return report["corpora"]


def digest(cases) -> str:
    return hashlib.sha256("".join(h for _, h, _ in cases).encode()).hexdigest()[:16]


def compare(ours, theirs) -> list[str]:
    # The differing cases, by key, shown on both sides.
    lines = []
    theirs_by_key = {key: (h, preview) for key, h, preview in theirs}
    differing = [(key, h, preview) for key, h, preview in ours
                 if theirs_by_key.get(key, (None,))[0] != h]
    lines.append(f"  {len(differing)} of {len(ours)} cases differ "
                 f"(the other side has {len(theirs)})")
    for key, _, preview in differing[:SHOWN]:
        other = theirs_by_key.get(key, (None, "<no such case>"))[1]
        at = next((i for i, (a, b) in enumerate(zip(preview, other)) if a != b),
                  min(len(preview), len(other)))
        start = max(0, at - 40)
        lines += [f"  case {key[:WINDOW]}", f"    from character {start}:",
                  f"    this:  {preview[start:start + WINDOW]}",
                  f"    other: {other[start:start + WINDOW]}"]
    return lines


def main(argv) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--against", type=Path, help="the root of another checkout")
    parser.add_argument("--child", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.child:  # this script's directory, sys.path[0], holds test_cli_fuzz
        child()
        return 0
    ours = {seed: run_tree(HERE.parent, seed) for seed in HASH_SEEDS}
    status = 0
    first = ours[HASH_SEEDS[0]]
    for seed in HASH_SEEDS[1:]:
        for name in first:
            if digest(ours[seed][name]) != digest(first[name]):
                print(f"{name}: differs between PYTHONHASHSEED {HASH_SEEDS[0]} and {seed}")
                print("\n".join(compare(ours[seed][name], first[name])))
                status = 1
    if args.against is None:
        for name, cases in first.items():
            print(f"{digest(cases)}  {len(cases):6d}  {name}")
        return status
    for seed in HASH_SEEDS:
        theirs = run_tree(args.against, seed)
        for name in sorted(set(ours[seed]) | set(theirs)):
            mine, other = ours[seed].get(name, []), theirs.get(name, [])
            same = digest(mine) == digest(other) and name in theirs and name in ours[seed]
            print(f"{'same   ' if same else 'DIFFERS'}  PYTHONHASHSEED={seed}  {name}")
            if not same:
                print("\n".join(compare(mine, other)))
                status = 1
    return status


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
