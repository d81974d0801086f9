"""Benchmark of raagmcg, end to end and layer by layer.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout; the package is imported from ``src/``
of that checkout.  The last line of standard output is one JSON object
with ``correct``, ``attempted``, ``failed`` and ``metrics``: the
end-to-end metrics with ``--trace 0``, the per-layer metrics with
``--trace 1``.  Details (per-operation times, and the spans of the last
traced pass) go to ``bench/out/``.  See bench/README.md.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import io
import json
import math
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time

BENCH = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(BENCH, "out")
sys.path.insert(0, BENCH)

import tracer as tracing  # noqa: E402
import workloads  # noqa: E402
from workloads import CheckFailed  # noqa: E402

SETUP_PROBES = 7
CLI_PROBES = 5
CLI_MAIN_PASSES = 3
LATENCY_SAMPLES = 100
HASH_SEED = "0"

# Runs in a fresh interpreter: benchmark data first, then the clock covers
# exactly ``import raagmcg`` plus the workload's graphs and realizations.
SETUP_PROBE = """
import sys, time
bench, src, workload, seed, workdir = sys.argv[1:6]
sys.path.insert(0, bench)
import workloads
data = workloads.graph_data(workload, seed)
sys.path.insert(0, src)
start = time.perf_counter()
import raagmcg
workloads.build(raagmcg, workload, data, workdir)
print(time.perf_counter() - start)
"""


def import_package():
    if not os.path.isfile(os.path.join(SRC, "raagmcg", "__init__.py")):
        raise SystemExit(f"no raagmcg sources under {SRC}; run from a checkout root")
    sys.path.insert(0, SRC)
    import raagmcg
    import raagmcg.cli  # noqa: F401  (cli-oneshot and the CLI reference figures)

    if not os.path.abspath(raagmcg.__file__).startswith(SRC + os.sep):
        raise SystemExit(f"imported raagmcg from {raagmcg.__file__}, not from {SRC}")
    return raagmcg


def child_env():
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


def nearest_rank(values, q):
    ordered = sorted(values)
    return ordered[max(math.ceil(q * len(ordered)) - 1, 0)]


# -- set-up ----------------------------------------------------------------------


def setup_seconds(workload, seed, workdir):
    """Median over fresh interpreters of import plus graph building."""
    times = []
    for i in range(SETUP_PROBES):
        probe_dir = os.path.join(workdir, f"probe{i}")
        out = subprocess.run(
            [sys.executable, "-c", SETUP_PROBE, BENCH, SRC, workload, str(seed), probe_dir],
            cwd=ROOT, capture_output=True, text=True, check=True,
        ).stdout
        times.append(float(out.split()[-1]))
    return statistics.median(times)


# -- in-process operations ---------------------------------------------------------


class Passes:
    """Per-operation samples over interleaved passes of the operation
    list, plus the answers of the first pass."""

    def __init__(self, ops):
        self.ops = ops
        self.samples = [[] for _ in ops]
        self.fails = [0] * len(ops)
        self.answers = [None] * len(ops)
        self.count = 0

    def run(self, execute, domain_error):
        gc.collect()
        clock = time.perf_counter
        for i, op in enumerate(self.ops):
            start = clock()
            try:
                answer = execute(op)
            except domain_error as err:
                # Drop the traceback: its frames would keep the failed
                # operation's memory alive through the later passes.
                answer = err.with_traceback(None)
                self.fails[i] += 1
            self.samples[i].append(clock() - start)
            if self.count == 0:
                self.answers[i] = answer
        self.count += 1

    def best(self):
        return [min(s) for s in self.samples]

    def check_failures_repeat(self):
        for op, fails in zip(self.ops, self.fails):
            if 0 < fails < self.count:
                raise CheckFailed(f"{op.label} failed in {fails} of {self.count} passes")


def until(start, seconds, step, at_least=1):
    """Run ``step`` (one whole pass) ``at_least`` times, and again while
    the next pass is expected to end within ``seconds`` of ``start``."""
    begun = time.perf_counter()
    done = 0
    while True:
        step()
        done += 1
        now = time.perf_counter()
        if done >= at_least and now + (now - begun) / done > start + seconds:
            return


def check_answers(ops, answers, domain_error):
    for op, answer in zip(ops, answers):
        if isinstance(answer, domain_error):
            continue
        try:
            op.check(answer)
        except CheckFailed as err:
            raise CheckFailed(f"{op.label}: {err}") from None


def latency_summary(latencies, completed, busy):
    """Throughput over operation time, and latency percentiles in which a
    failed operation counts as infinitely slow."""
    return {
        "ops_per_s": (completed / busy, "op/s"),
        "op_p50_ms": (nearest_rank(latencies, 0.5) * 1e3, "ms"),
        "op_p90_ms": (nearest_rank(latencies, 0.9) * 1e3, "ms"),
    }


# -- CLI operations ------------------------------------------------------------------


def spawn_cli(argv, env):
    """One ``python -m raagmcg`` process: (exit code, stdout, seconds,
    peak RSS in kB)."""
    start = time.perf_counter()
    proc = subprocess.Popen(
        [sys.executable, "-m", "raagmcg", *argv],
        cwd=ROOT, env=env, stdout=subprocess.PIPE, stderr=subprocess.DEVNULL,
    )
    with proc.stdout:
        out = proc.stdout.read()
    _, status, usage = os.wait4(proc.pid, 0)
    elapsed = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    return proc.returncode, out.decode(), elapsed, usage.ru_maxrss


def cli_in_process(R, argv):
    """Exit code and stdout of ``cli.main`` called in this process."""
    buffer = io.StringIO()
    with contextlib.redirect_stdout(buffer):
        code = R.cli.main(argv)
    return code, buffer.getvalue()


def cli_answer(R, code, out):
    """The parsed JSON of a successful command, or a RaagError for a domain
    error (exit 1 with an error JSON); anything else is a wrong answer."""
    try:
        data = json.loads(out)
    except ValueError:
        data = None
    if code == 0 and data is not None:
        return data
    if code == 1 and isinstance(data, dict) and "error" in data:
        return R.RaagError(data.get("message", ""))
    raise CheckFailed(f"exit code {code} with stdout {out[:200]!r}")


def cli_execute(R, op):
    answer = cli_answer(R, *cli_in_process(R, op.argv))
    if isinstance(answer, R.RaagError):
        raise answer
    return answer


# -- the two kinds of run --------------------------------------------------------------


def end_to_end(R, workload, seed, seconds, ctx, workdir):
    # The set-up probes and the counted pass, which is also the warm-up
    # pass, run inside the window, so a run takes --seconds in all.
    start = time.perf_counter()
    ops = workloads.make_ops(R, workload, ctx, seed)
    metrics = {"setup_s": (setup_seconds(workload, seed, workdir), "s")}
    if workload == "cli-oneshot":
        counted = [tracing.count_calls(lambda: cli_in_process(R, op.argv)) for op in ops]
        outputs = [output for output, _ in counted]
        calls = [n for _, n in counted]
        attempted, failed, timing, details = timed_children(R, ops, outputs, start, seconds)
    else:
        calls = [tracing.count_calls(op.run)[1] for op in ops]
        attempted, failed, timing, details = timed_passes(R, ops, start, seconds)
    metrics.update(timing)
    metrics["calls_per_op"] = (sum(calls) / len(ops), "calls")
    for entry, n in zip(details, calls):
        entry["calls"] = n
    return attempted, failed, metrics, {"operations": details}


def timed_passes(R, ops, start, seconds):
    """In-process operations: each one's latency is its best time over
    interleaved passes."""
    passes = Passes(ops)
    until(start, seconds, lambda: passes.run(lambda op: op.run(), R.RaagError))
    peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    passes.check_failures_repeat()
    check_answers(ops, passes.answers, R.RaagError)
    best = passes.best()
    failed_ops = {i for i, f in enumerate(passes.fails) if f}
    latencies = [math.inf if i in failed_ops else t for i, t in enumerate(best)]
    timing = latency_summary(latencies, len(ops) - len(failed_ops), sum(best))
    timing["peak_rss_mb"] = (peak, "MB")
    details = [{"op": op.label, "best_ms": min(ts) * 1e3, "passes": len(ts)}
               for op, ts in zip(ops, passes.samples)]
    return passes.count * len(ops), passes.count * len(failed_ops), timing, details


def timed_children(R, ops, outputs, start, seconds):
    """One ``python -m raagmcg`` child per operation; every child is one
    latency sample.  ``outputs`` are the in-process (code, stdout) pairs
    the children must reproduce byte for byte."""
    env = child_env()
    samples, rss = [], []

    def one_pass():
        for i, op in enumerate(ops):
            code, out, elapsed, peak = spawn_cli(op.argv, env)
            if (code, out) != outputs[i]:
                raise CheckFailed(f"{op.label}: subprocess and in-process outputs differ")
            ok = not isinstance(cli_answer(R, code, out), R.RaagError)
            samples.append((i, elapsed, ok))
            rss.append(peak)

    # At least LATENCY_SAMPLES children, so that ten lie beyond p90.
    until(start, seconds, one_pass, at_least=math.ceil(LATENCY_SAMPLES / len(ops)))
    check_answers(ops, [cli_answer(R, *output) for output in outputs], R.RaagError)
    failed = sum(not ok for _, _, ok in samples)
    latencies = [t if ok else math.inf for _, t, ok in samples]
    timing = latency_summary(latencies, len(samples) - failed, sum(t for _, t, _ in samples))
    timing["peak_rss_mb"] = (max(rss) / 1024, "MB")
    per_op = [[] for _ in ops]
    for i, t, _ in samples:
        per_op[i].append(t * 1e3)
    details = [{"op": op.label, "ms": ms} for op, ms in zip(ops, per_op)]
    return len(samples), failed, timing, details


def cli_reference(R, seed, workdir, cli_ops=None):
    """Bare interpreter start, the import of raagmcg.cli above it, and the
    median in-process cli.main time over the cli-oneshot commands."""
    def median_spawn(args, env=None):
        times = []
        for _ in range(CLI_PROBES):
            start = time.perf_counter()
            subprocess.run(args, cwd=ROOT, env=env, check=True, stdout=subprocess.DEVNULL)
            times.append(time.perf_counter() - start)
        return statistics.median(times)

    interpreter = median_spawn([sys.executable, "-c", "pass"])
    imported = median_spawn([sys.executable, "-c", "import raagmcg.cli"], child_env())
    if cli_ops is None:
        data = workloads.graph_data("cli-oneshot", seed)
        ctx = workloads.build(R, "cli-oneshot", data, os.path.join(workdir, "cli"))
        cli_ops = workloads.make_ops(R, "cli-oneshot", ctx, seed)
    passes = Passes(cli_ops)
    for _ in range(CLI_MAIN_PASSES):
        passes.run(lambda op: cli_execute(R, op), R.RaagError)
    return {
        "cli.interpreter_ms": (interpreter * 1e3, "ms"),
        "cli.import_ms": ((imported - interpreter) * 1e3, "ms"),
        "cli.main_ms": (statistics.median(passes.best()) * 1e3, "ms"),
    }


def layered(R, workload, seed, seconds, ctx, workdir):
    ops = workloads.make_ops(R, workload, ctx, seed)
    domain_error = R.RaagError
    if workload == "cli-oneshot":
        def execute(op):
            return cli_execute(R, op)
    else:
        def execute(op):
            return op.run()

    # The CLI reference figures are taken inside the window, first.
    start = time.perf_counter()
    metrics = cli_reference(R, seed, workdir, ops if workload == "cli-oneshot" else None)
    tracer = tracing.Tracer(R)
    plain, traced = Passes(ops), Passes(ops)
    layer_passes, reps = [], 0

    def pair():
        nonlocal reps
        plain.run(execute, domain_error)
        tracer.reset()
        tracer.install()
        try:
            traced.run(lambda op: tracer.run_op(lambda: execute(op)), domain_error)
        finally:
            tracer.uninstall()
        layer_passes.append(tracer.layer_totals())
        reps = tracer.reps_enumerated

    until(start, seconds, pair)
    plain.check_failures_repeat()
    traced.check_failures_repeat()
    check_answers(ops, plain.answers, domain_error)
    check_answers(ops, traced.answers, domain_error)
    attempted = (plain.count + traced.count) * len(ops)
    failed = sum(plain.fails) + sum(traced.fails)

    for name in tracing.LAYER_NAMES:
        metrics[f"{name}.self_ms"] = (min(p[name][1] for p in layer_passes) / 1e6, "ms")
        metrics[f"{name}.calls"] = (layer_passes[-1][name][0], "count")
    metrics[tracing.REPS_COUNTER] = (reps, "count")
    base, with_spans = sum(plain.best()), sum(traced.best())
    metrics["trace.base_ms"] = (base * 1e3, "ms")
    metrics["trace.traced_ms"] = (with_spans * 1e3, "ms")
    metrics["trace.overhead_ratio"] = (with_spans / base, "ratio")
    spans = [list(s) for s in tracer.spans]
    return attempted, failed, metrics, {"spans_of_last_traced_pass": spans}


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    R = import_package()
    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    workdir = os.path.join(OUT, f"work-{tag}-{os.getpid()}")
    data = workloads.graph_data(args.workload, args.seed)
    ctx = workloads.build(R, args.workload, data, os.path.join(workdir, "files"))
    run = layered if args.trace else end_to_end
    correct, error = True, None
    try:
        attempted, failed, metrics, details = run(
            R, args.workload, args.seed, args.seconds, ctx, workdir)
    except CheckFailed as err:
        correct, error = False, str(err)
        attempted, failed, metrics, details = 1, 0, {}, {}
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    os.makedirs(OUT, exist_ok=True)
    with open(os.path.join(OUT, f"{tag}.json"), "w", encoding="utf-8") as handle:
        json.dump({"workload": args.workload, "seed": args.seed, "error": error,
                   "metrics": metrics, **details}, handle)
    if error:
        print(f"wrong answer: {error}", file=sys.stderr)
    print(json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    if os.environ.get("PYTHONHASHSEED") != HASH_SEED:
        # Set and dict probes call the dataclass __eq__ of raagmcg's values
        # on hash collisions, so call counts depend on the hash seed.
        os.execve(sys.executable, [sys.executable, *sys.argv],
                  {**os.environ, "PYTHONHASHSEED": HASH_SEED})
    sys.exit(main())
