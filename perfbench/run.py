"""bookram benchmark: one command for the three workloads.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from anywhere inside a checkout that has ``src/bookram``.  The run sets
up its inputs from the seed (timed as ``setup_s``), computes the reference
answers, then repeats whole rounds of the workload's operations, as many as
come nearest to ``--seconds``, checking every output.  The last line of stdout
is the result object; the lines before it record the environment, the
workload's own figures and, with ``--trace 1``, every per-layer figure.

With ``--trace 1`` rounds alternate between untraced and traced; the spans
go to ``.bench_out/`` and the gap between the two kinds of round is reported
as the tracing overhead.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from collections import Counter, defaultdict
from contextlib import nullcontext
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

import tracing

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
SETUP_REPEATS = 9
THREAD_VARIABLES = (
    "OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS", "BOOKRAM_THREADS",
)
IMPORT_PROBE = (
    "import sys, time; sys.path.insert(0, sys.argv[1]); t = time.perf_counter(); "
    "import bookram.cli; print(time.perf_counter() - t)"
)


def environment() -> dict:
    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas.get("name"),
        "blas_version": blas.get("version"),
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),
        "thread_variables": {name: os.environ.get(name) for name in THREAD_VARIABLES},
    }


def time_import() -> float:
    """Seconds a fresh interpreter takes to import bookram and its modules."""
    done = subprocess.run(
        [sys.executable, "-c", IMPORT_PROBE, str(SRC)],
        capture_output=True, text=True, timeout=120, check=True,
    )
    return float(done.stdout.strip())


def trace_targets():
    """(module, function, span namer, counter hook) for every public function
    the per-layer figures cover."""

    def named(name):
        return lambda args, kwargs: name

    def max_book_name(args, kwargs):
        k = kwargs.get("k", args[1] if len(args) > 1 else None)
        threads = kwargs.get("threads", args[2] if len(args) > 2 else 1)
        if k in (2, 3):
            return f"books.max_book_k{k}"
        return "books.max_book_parallel" if threads > 1 else "books.max_book_bitset"

    def count(key, of):
        def hook(result, counts):
            counts[key] += of(result)
        return hook

    def clauses(text):
        header = text[text.index("\np cnf ") + 1 :].split("\n", 1)[0]
        return int(header.split()[3])

    def coloured_edges(reduced):
        states = reduced.edge_colours
        return sum(states[i][j] is not None for i in range(len(states)) for j in range(i))

    spans = [
        ("bookram.cli", "main", named("cli.main"), None),
        ("bookram.colouring", "parse_colouring", None, None),
        ("bookram.colouring", "emit_colouring", None, None),
        ("bookram.books", "max_book", max_book_name, None),
        ("bookram.books", "local_profile", None, None),
        ("bookram.books", "has_mono_book", None, None),
        ("bookram.books", "verify_certificate", None, None),
        ("bookram.search", "ramsey_book", None, None),
        ("bookram.search", "find_witness", None, count("search.nodes", lambda r: r.nodes)),
        ("bookram.sat", "sat_export", None, count("sat.clauses", clauses)),
        ("bookram.sat", "solve_dimacs", None, None),
        ("bookram.constructions", "random_colouring", None, None),
        ("bookram.constructions", "multicolour_blowup", None, None),
        ("bookram.constructions", "verify_no_book_multicolour", None, None),
        ("bookram.constructions", "search_hypergraph_base", None, None),
        ("bookram.constructions", "hypergraph_blowup", None, None),
        ("bookram.constructions", "hyper_max_book", None, None),
        ("bookram.lemmas", "dichotomy_certify", None, count("lemmas.samples", lambda r: r.samples)),
        ("bookram.lemmas", "degprod_certify", None, count("lemmas.samples", lambda r: r.samples)),
        ("bookram.regularity", "make_partition", None, None),
        ("bookram.regularity", "build_reduced", None, count("regularity.coloured_edges", coloured_edges)),
        ("bookram.regularity", "extract_book", None,
         count("regularity.candidates", lambda r: len(r[1].candidates))),
    ]
    return [
        (module, func, namer or named(f"{module.split('.')[1]}.{func}"), hook)
        for module, func, namer, hook in spans
    ]


def per_layer(tracer, rounds: int, tally: Counter, overhead: float) -> dict:
    """Per-layer figures per traced round, named as in BENCHMARK.json."""
    self_s = {name: t / rounds for name, t in tracer.self_times().items()}
    counts = {name: c / rounds for name, c in tracer.counts.items()}
    out = {}
    for name in (
        "colouring.parse_colouring", "colouring.emit_colouring",
        "books.max_book_k2", "books.max_book_k3", "books.max_book_bitset",
        "books.max_book_parallel", "books.local_profile", "books.has_mono_book",
        "books.verify_certificate", "search.find_witness", "sat.sat_export",
        "sat.solve_dimacs", "constructions.random_colouring",
        "constructions.verify_no_book_multicolour", "constructions.hyper_max_book",
        "lemmas.dichotomy_certify", "lemmas.degprod_certify",
        "regularity.make_partition", "regularity.build_reduced", "regularity.extract_book",
    ):
        out[name + "_s"] = (self_s.get(name, 0.0), "s")
    for name in ("search.nodes", "sat.clauses", "lemmas.samples",
                 "regularity.coloured_edges", "regularity.candidates"):
        out[name] = (counts.get(name, 0), "count")
    out["regularity.exact_pages"] = (tally.get("exact_pages", 0), "count")
    for rate, num, den in (("search.nodes_per_s", "search.nodes", "search.find_witness"),
                           ("sat.clauses_per_s", "sat.clauses", "sat.sat_export")):
        out[rate] = (counts.get(num, 0) / self_s[den] if self_s.get(den) else 0.0, "1/s")
    out["cli.overhead_s"] = (self_s.get("cli.main", 0.0), "s")
    out["trace.overhead_pct"] = (100.0 * overhead, "%")
    return out


def load_benchmark_spec() -> dict:
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as fh:
        return json.load(fh)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "bookram" / "cli.py").is_file():
        print(f"error: no bookram sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import workloads

    if args.workload not in workloads.WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; choose from "
              f"{', '.join(workloads.WORKLOADS)}", file=sys.stderr)
        return 2
    spec = load_benchmark_spec()

    workdir = ROOT / ".bench_work" / f"{args.workload}-{args.seed}-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        return measure(args, spec, workloads, str(workdir))
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


@dataclass
class Interval:
    """One timed operation: its round, its group and its perf_counter span."""

    round: int
    traced: bool
    name: str
    group: str
    start: float
    end: float


@dataclass
class Outcome:
    """What the rounds did and found."""

    intervals: list[Interval] = field(default_factory=list)
    attempted: int = 0
    failed: int = 0
    failures: dict[str, str] = field(default_factory=dict)
    problems: list[str] = field(default_factory=list)
    digests: dict[str, str] = field(default_factory=dict)
    tally: Counter = field(default_factory=Counter)
    rounds: int = 0


def measure(args, spec, workloads, workdir: str) -> int:
    print(json.dumps({"environment": environment()}), flush=True)
    setup_s = []
    for _ in range(SETUP_REPEATS):
        workload = workloads.WORKLOADS[args.workload](args.seed, workdir)
        imported = time_import()
        start = time.perf_counter()
        workload.build()
        setup_s.append(imported + time.perf_counter() - start)
    workload.prepare()
    tracer = tracing.Tracer()
    outcome = run_rounds(args, workload, tracer)

    plain = [iv for iv in outcome.intervals if not iv.traced]
    detail = {
        "workload": args.workload,
        "seed": args.seed,
        "rounds": outcome.rounds,
        "setup_s": setup_s,
        "round_s": round_seconds(plain),
        "figures": figures(workload, plain, outcome.tally),
        "op_median_s": {name: statistics.median(ts) for name, ts in op_seconds(plain).items()},
        "failures": outcome.failures,
        "problems": outcome.problems,
        "outputs_sha256": digest("".join(
            f"{name}:{d}\n" for name, d in sorted(outcome.digests.items())).encode()),
    }
    if args.trace:
        traced = [iv for iv in outcome.intervals if iv.traced]
        overhead = round_seconds(traced) / round_seconds(plain) - 1.0
        rounds = len({iv.round for iv in traced})
        layers = per_layer(tracer, rounds, outcome.tally, overhead)
        out_dir = ROOT / ".bench_out"
        out_dir.mkdir(exist_ok=True)
        spans_path = out_dir / f"spans-{args.workload}-seed{args.seed}.jsonl"
        tracer.write(spans_path)
        detail["per_layer"] = {name: {"value": v, "unit": u} for name, (v, u) in layers.items()}
        detail["spans_file"] = str(spans_path.relative_to(ROOT))
        metrics = {m["name"]: {"value": layers[m["name"]][0], "unit": m["unit"]}
                   for m in spec["per_layer"]}
    else:
        values = {
            "setup_s": statistics.median(setup_s),
            "round_s": round_seconds(plain),
            "certificate_pages": outcome.tally.get("pages", 0),
        }
        metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
                   for m in spec["end_to_end"]}
    print(json.dumps(detail), flush=True)
    print(json.dumps({
        "correct": not outcome.problems,
        "attempted": outcome.attempted,
        "failed": outcome.failed,
        "metrics": metrics,
    }), flush=True)
    return 0


def op_seconds(intervals: list[Interval]) -> dict[str, list[float]]:
    out = defaultdict(list)
    for iv in intervals:
        out[iv.name].append(iv.end - iv.start)
    return out


def round_seconds(intervals: list[Interval]) -> float:
    """One round's time: the sum over operations of each one's median."""
    return sum(statistics.median(ts) for ts in op_seconds(intervals).values())


def another_round(rounds: int, elapsed: float, seconds: float) -> bool:
    """Whether one more round, as long as the mean so far, ends nearer to
    ``seconds`` than stopping now: rounds of large inputs take a good part
    of a run, and finishing whichever round is open would stretch a run by up
    to one round and vary its length with the machine's speed."""
    return rounds == 0 or elapsed + elapsed / rounds / 2 < seconds


def run_rounds(args, workload, tracer) -> Outcome:
    """As many whole rounds as come nearest to ``--seconds``, at least one;
    with tracing, rounds alternate between untraced and traced, starting
    untraced, and at least one of each runs."""
    outcome = Outcome(tally=Counter(workload.extra_tally()))
    targets = trace_targets()
    start = time.perf_counter()
    while (another_round(outcome.rounds, time.perf_counter() - start, args.seconds)
           or (args.trace and outcome.rounds < 2)):
        traced = bool(args.trace) and outcome.rounds % 2 == 1
        restore = tracing.instrument(tracer, targets) if traced else None
        try:
            for op in workload.round_ops():
                outcome.attempted += 1
                tracer.operation = outcome.attempted
                t0 = time.perf_counter()
                try:
                    with tracer.span("op:" + op.name) if traced else nullcontext():
                        out = op.run()
                except Exception as exc:  # the program gave no answer: count it
                    outcome.failed += 1
                    outcome.failures.setdefault(op.name, "".join(
                        traceback.format_exception_only(type(exc), exc)).strip()[:300])
                    out = None
                outcome.intervals.append(Interval(
                    outcome.rounds, traced, op.name, op.group, t0, time.perf_counter()))
                if out is not None:
                    inspect(op, out, outcome)
        finally:
            if restore is not None:
                restore()
        outcome.rounds += 1
    return outcome


def inspect(op, out, outcome: Outcome) -> None:
    """Check one output: it must repeat the first round's bytes, and the
    first output of each operation is compared with the reference."""
    try:
        new = digest(op.canon(out))
        if op.name in outcome.digests:
            if outcome.digests[op.name] != new:
                outcome.problems.append(f"{op.name}: output differs between rounds")
            return
        outcome.digests[op.name] = new
        op.check(out)
        for key, value in op.tally(out).items():
            outcome.tally[key] += value
    except Exception as exc:  # a wrong or unreadable answer
        outcome.problems.append(f"{op.name}: {type(exc).__name__}: {exc}"[:300])


def digest(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def figures(workload, plain: list[Interval], tally: Counter) -> dict:
    """The workload's own end-to-end figures, from the untraced rounds."""
    out = {}
    for fig in workload.figures:
        group = [iv for iv in plain if iv.group == fig.group]
        if fig.mode == "each":
            samples = [iv.end - iv.start for iv in group]
        else:
            per_round = defaultdict(float)
            for iv in group:
                per_round[iv.round] += iv.end - iv.start
            samples = list(per_round.values())
        out[fig.name] = {"value": statistics.median(samples), "unit": "s"}
    for key in ("pages", "search_nodes", "lemma_samples", "exact_pages"):
        if key in tally:
            out[key] = {"value": tally[key], "unit": "count"}
    if tally.get("exact_pages"):
        out["pages_share_of_exact"] = {"value": tally["pages"] / tally["exact_pages"], "unit": "1"}
    return out


if __name__ == "__main__":
    sys.exit(main())
