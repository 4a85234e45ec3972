"""The three bookram workloads.

Each workload writes its input files from the seed (``build``), computes the
reference answers with ``reference`` (``prepare``), and lists the operations
of one round (``round_ops``).  An operation is one call into bookram, through
the CLI entry point ``bookram.cli.main`` or a module's public function; its
``check`` compares the output with the reference and raises ``CheckFailed``.
Functions are looked up on their module at call time, so the tracer's
wrappers see every call.
"""

from __future__ import annotations

import io
import itertools
import os
from dataclasses import dataclass
from typing import Callable

import numpy as np

import reference as ref
from bookram import books, cli, colouring, constructions, lemmas, sat, search


class CheckFailed(Exception):
    """An output disagrees with the reference."""


class OpFailed(Exception):
    """The program gave no answer: the CLI exited with an unexpected code."""


def expect(condition: bool, message: str) -> None:
    if not condition:
        raise CheckFailed(message)


@dataclass
class Op:
    """One operation of a round.  ``run`` is timed; ``canon`` gives the bytes
    that must repeat in every round, ``check`` compares them with the
    reference (once per distinct output) and ``tally`` the counts the output
    carries, such as certificate pages."""

    name: str
    group: str
    run: Callable[[], object]
    check: Callable[[object], None]
    canon: Callable[[object], bytes] = lambda out: repr(out).encode()
    tally: Callable[[object], dict] = lambda out: {}


@dataclass(frozen=True)
class Figure:
    """A workload's own end-to-end figure: ``each`` is the median over single
    operations of the group, ``sum`` the median over rounds of the group's
    total time."""

    name: str
    group: str
    mode: str


def run_cli(argv, stdout_path=None, ok=(0,)) -> str:
    """Run ``bookram.cli.main`` in process; stdout goes to ``stdout_path``
    when given (as a shell redirect would), else it is returned."""
    if stdout_path is None:
        buf = io.StringIO()
        code = cli.main(list(argv), out=buf)
        text = buf.getvalue()
    else:
        with open(stdout_path, "w", encoding="utf-8") as fh:
            code = cli.main(list(argv), out=fh)
        text = ""
    if code not in ok:
        raise OpFailed(f"bookram {' '.join(argv)} exited with {code}")
    return text


def read(path) -> str:
    with open(path, encoding="utf-8") as fh:
        return fh.read()


def file_bytes(path) -> bytes:
    with open(path, "rb") as fh:
        return fh.read()


def matrix_of(col) -> np.ndarray:
    """Colour matrix of a bookram Colouring, read from its documented bitmask
    rows (bit v of ``adj[c][u]`` set iff edge uv has colour c)."""
    n = col.n
    out = np.full((n, n), ref.NO_EDGE, dtype=np.uint8)
    nbytes = (n + 7) // 8
    for c in range(col.q):
        for u, mask in enumerate(col.adj[c]):
            row = np.unpackbits(
                np.frombuffer(mask.to_bytes(nbytes, "little"), dtype=np.uint8),
                bitorder="little",
                count=n,
            )
            out[u, row.astype(bool)] = c
    return out


def hyper_dict(h) -> dict:
    """s-set -> colour of a bookram HyperColouring (lexicographic order)."""
    return dict(zip(itertools.combinations(range(h.n), h.s), h.colours))


class Workload:
    name = ""
    figures: tuple[Figure, ...] = ()

    def __init__(self, seed: int, workdir: str) -> None:
        self.seed = seed % (1 << 32)  # numpy and the CLI take non-negative seeds
        self.workdir = workdir

    def path(self, name: str) -> str:
        return os.path.join(self.workdir, name)

    def rng(self, stream: int) -> np.random.Generator:
        return np.random.default_rng([self.seed, stream])

    def build(self) -> None:
        """Write the input files (timed as set-up)."""

    def prepare(self) -> None:
        """Compute the reference answers (untimed)."""

    def round_ops(self) -> list[Op]:
        raise NotImplementedError

    def extra_tally(self) -> dict:
        """Counts fixed by the inputs rather than by any output."""
        return {}


# ------------------------------------------------------------ large colourings


DEEP_N = 192


class LargeColourings(Workload):
    """KNC parse and emit, the dense k=2/k=3 path, and the bitset and
    process-pool spine searches on colourings of 192 to 2053 vertices."""

    name = "large-colourings"
    figures = (
        Figure("book_k2_s", "book_k2", "each"),
        Figure("book_k3_s", "book_k3", "each"),
        Figure("book_deep_s", "book_deep", "sum"),
        Figure("book_deep_mt_s", "book_deep_mt", "sum"),
        Figure("profile_s", "profile", "each"),
        Figure("construct_s", "construct", "each"),
    )

    def build(self) -> None:
        self.cols = {
            "r2048": ref.random_colouring(2048, self.rng(1)),
            "p2053": ref.paley_colouring(2053),
            "r1024": ref.random_colouring(1024, self.rng(2)),
            "deep": ref.random_colouring(DEEP_N, self.rng(3)),
            "r256": ref.random_colouring(256, self.rng(4)),
        }
        for name, col in self.cols.items():
            with open(self.path(name + ".knc"), "w", encoding="ascii") as fh:
                fh.write(ref.write_knc(col, 2))

    def prepare(self) -> None:
        self.expected = {
            "r2048": ref.max_book(self.cols["r2048"], 2, 2),
            "p2053": ref.paley_book(2053),
            "r1024": ref.max_book(self.cols["r1024"], 2, 3),
        }
        self.profile = ref.profile(self.cols["r256"], 2, 3)
        self.deep_answer: dict[int, str] = {}
        self.construct_seed = 1_000_003 * self.seed + 17

    def _book_op(self, group: str, name: str, k: int, threads: int | None) -> Op:
        cert = self.path(f"{name}-k{k}-t{threads}.cert")
        argv = ([] if threads is None else ["--threads", str(threads)]) + [
            "book", "--input", self.path(name + ".knc"), "--k", str(k), "--out", cert,
        ]

        def run():
            run_cli(argv)
            text = read(cert)
            if threads == 1:
                self.deep_answer[k] = text
            return text

        def check(text):
            colour, spine, pages = ref.read_book(text)
            fault = ref.certificate_fault(self.cols[name], colour, spine, pages, complete=True)
            expect(fault is None, f"{name} k={k}: {fault}")
            if name in self.expected:
                got = (len(pages), colour, spine)
                expect(got == self.expected[name], f"{name} k={k}: {got} != {self.expected[name]}")
            if threads == 2:
                expect(text == self.deep_answer.get(k), f"k={k}: --threads 2 disagrees with 1")

        return Op(
            f"book-{name}-k{k}-t{threads}", group, run, check,
            canon=str.encode, tally=lambda text: {"pages": len(ref.read_book(text)[2])},
        )

    def round_ops(self) -> list[Op]:
        ops = [
            self._book_op("book_k2", "r2048", 2, None),
            self._book_op("book_k2", "p2053", 2, None),
            self._book_op("book_k3", "r1024", 3, None),
        ]
        for threads, group in ((1, "book_deep"), (2, "book_deep_mt")):
            for k in (4, 5):
                ops.append(self._book_op(group, "deep", k, threads))
        tsv = self.path("r256-k3.tsv")

        def profile():
            run_cli(["profile", "--input", self.path("r256.knc"), "--k", "3", "--out", tsv])
            return read(tsv)

        def check_profile(text):
            expect(ref.read_profile_tsv(text) == self.profile, "K_256 k=3 profile differs")

        ops.append(Op("profile-r256-k3", "profile", profile, check_profile, canon=str.encode))
        out = self.path("construct-2048.knc")

        def construct():
            run_cli(["construct", "random", "--N", "2048", "--seed", str(self.construct_seed)], out)
            return out

        def check_construct(path):
            col, q = ref.read_knc(read(path))
            expect(col.shape[0] == 2048 and q == 2, "construct random: wrong N or q")
            share = float((np.triu(col, 1) == 1).sum()) / (2048 * 2047 // 2)
            expect(abs(share - 0.5) < 0.005, f"construct random: colour-1 share {share:.4f}")

        ops.append(Op("construct-random-2048", "construct", construct, check_construct, canon=file_bytes))
        return ops


# ---------------------------------------------------------------- small exact


RAMSEY = ((1, 1), (1, 2), (1, 3), (2, 1), (2, 2))
GRID = tuple((k, n, size) for k, n in ((1, 1), (1, 2), (2, 1), (2, 2)) for size in range(2, 8))
SOLVES = ((2, 2, 9), (1, 4, 7))
EXPORT = ("3", "3", "24")
BLOWUP_T = 40
STAR_N = 40
STAR_BUDGET = 200_000
LEMMA_SAMPLES = 100_000
DICHOTOMY_T = (1.0, 2.0, 5.0)


class SmallExact(Workload):
    """Exact Ramsey values by DFS, SAT export and solving, the lemma grids
    and the blow-up certificates: small inputs, heavy search."""

    name = "small-exact"
    figures = (
        Figure("ramsey_s", "ramsey", "sum"),
        Figure("sat_solve_s", "sat_solve", "sum"),
        Figure("sat_export_s", "sat_export", "sum"),
        Figure("certify_s", "certify", "sum"),
        Figure("star_search_s", "star_search", "sum"),
    )

    def prepare(self) -> None:
        self.lemma_seed = 100_000 * self.seed
        self.hyper_seed = 1_000_003 * self.seed + 3
        self.blowup_ref = ref.blowup_colouring(ref.pentagon_colouring(), 2, BLOWUP_T)
        self.blowup_best = ref.max_book(self.blowup_ref, 3, 3)
        self.blowup = None

    def round_ops(self) -> list[Op]:
        ops = [self._ramsey_op(k, n) for k, n in RAMSEY]
        ops += [self._agree_op(*case) for case in GRID]
        ops += [self._solve_op(*case) for case in SOLVES]
        ops.append(self._export_op())
        ops += [self._dichotomy_op(k, t) for k in range(1, 7) for t in DICHOTOMY_T]
        ops += [self._degprod_op(l, k) for l in range(1, 11) for k in range(1, min(6, l) + 1)]
        ops += self._blowup_ops()
        ops.append(self._hyper_op())
        ops.append(self._star_op())
        return ops

    def _ramsey_op(self, k: int, n: int) -> Op:
        want = ref.ramsey_closed_form(k, n)

        def check(res):
            expect(res.status == search.EXACT and res.ramsey_number == want,
                   f"r(B_{n}^({k})) = {res.ramsey_number} ({res.status}), want {want}")
            witness = matrix_of(res.witness)
            expect(witness.shape[0] == want - 1, f"r(B_{n}^({k})) witness has wrong size")
            expect(not ref.has_book_bruteforce(witness, k, n), f"r(B_{n}^({k})) witness has a book")

        return Op(
            f"ramsey-{k}-{n}", "ramsey", lambda: search.ramsey_book(k, n), check,
            canon=lambda res: repr((res.status, res.lower, res.upper, res.nodes,
                                    matrix_of(res.witness).tobytes())).encode(),
            tally=lambda res: {"search_nodes": res.nodes},
        )

    def _agree_op(self, k: int, n: int, size: int) -> Op:
        avoidable = size < ref.ramsey_closed_form(k, n)

        def run():
            dfs = search.find_witness(k, n, size)
            cnf = sat.sat_export(k, n, size)
            return dfs, cnf, sat.solve_dimacs(cnf)

        def check(out):
            dfs, cnf, (status, model) = out
            tag = f"k={k} n={n} N={size}"
            expect((dfs.status == search.FOUND) == avoidable, f"{tag}: DFS says {dfs.status}")
            expect((status == sat.SAT) == avoidable, f"{tag}: SAT says {status}")
            expect(ref.cnf_fault(cnf) is None, f"{tag}: {ref.cnf_fault(cnf)}")
            if avoidable:
                for col in (matrix_of(dfs.colouring), ref.model_colouring(cnf, model)):
                    expect(not ref.has_book_bruteforce(col, k, n), f"{tag}: witness has a book")

        return Op(
            f"agree-{k}-{n}-{size}", "sat_solve", run, check,
            canon=lambda out: repr((out[0].status, out[0].nodes, out[1], out[2])).encode(),
        )

    def _solve_op(self, k: int, n: int, size: int) -> Op:
        avoidable = size < ref.ramsey_closed_form(k, n)

        def run():
            cnf = sat.sat_export(k, n, size)
            return cnf, sat.solve_dimacs(cnf)

        def check(out):
            cnf, (status, model) = out
            expect(ref.cnf_fault(cnf) is None, f"({k},{n},{size}): {ref.cnf_fault(cnf)}")
            expect((status == sat.SAT) == avoidable, f"({k},{n},{size}): SAT says {status}")
            if avoidable:
                col = ref.model_colouring(cnf, model)
                expect(not ref.has_book_bruteforce(col, k, n), f"({k},{n},{size}): model has a book")

        return Op(f"solve-{k}-{n}-{size}", "sat_solve", run, check, canon=lambda out: repr(out).encode())

    def _export_op(self) -> Op:
        out = self.path("k3n3N24.cnf")

        def run():
            run_cli(["sat-export", "--k", EXPORT[0], "--n", EXPORT[1], "--N", EXPORT[2], "--out", out])
            return out

        def check(path):
            fault = ref.cnf_fault(read(path))
            expect(fault is None, f"sat-export {EXPORT}: {fault}")

        return Op("sat-export-3-3-24", "sat_export", run, check, canon=file_bytes)

    def _dichotomy_op(self, k: int, t: float) -> Op:
        seed = self.lemma_seed + 100 * k + DICHOTOMY_T.index(t)

        def check(rep):
            tag = f"dichotomy k={k} t={t}"
            low = ref.dichotomy_minimum(k, t)
            expect(rep.violations == 0, f"{tag}: {rep.violations} violations")
            expect(rep.samples == LEMMA_SAMPLES + 3**k, f"{tag}: {rep.samples} samples")
            expect(low - 1e-6 <= rep.min_value <= low + 1e-3, f"{tag}: minimum {rep.min_value}")
            at_min = ref.dichotomy_lhs(rep.argmin, t)
            expect(abs(at_min - rep.min_value) <= 1e-9 * (1 + abs(at_min)), f"{tag}: argmin value")
            margin = ref.dichotomy_lhs(rep.worst_witness, t) - low
            expect(abs(margin - rep.worst_margin) <= 1e-9 * (1 + abs(margin)), f"{tag}: worst margin")

        return Op(
            f"dichotomy-{k}-{t}", "certify",
            lambda: lemmas.dichotomy_certify(k, t, LEMMA_SAMPLES, seed, 1e-9), check,
            canon=lambda rep: rep.to_tsv().encode(), tally=lambda rep: {"lemma_samples": rep.samples},
        )

    def _degprod_op(self, l: int, k: int) -> Op:
        seed = self.lemma_seed + 1000 + 10 * l + k

        def check(rep):
            tag = f"degprod l={l} k={k}"
            expect(rep.violations == 0, f"{tag}: {rep.violations} violations")
            expect(rep.samples == LEMMA_SAMPLES + 2**l + 7 * l, f"{tag}: {rep.samples} samples")
            w = rep.worst_witness
            floor = ref.degprod_floor(sum(w), k)
            expect(ref.elementary_symmetric(w, k) >= floor - 1e-9 * (1 + floor), f"{tag}: worst witness below the floor")

        return Op(
            f"degprod-{l}-{k}", "certify",
            lambda: lemmas.degprod_certify(l, k, LEMMA_SAMPLES, seed, 1e-9), check,
            canon=lambda rep: rep.to_tsv().encode(), tally=lambda rep: {"lemma_samples": rep.samples},
        )

    def _blowup_ops(self) -> list[Op]:
        out = self.path(f"blowup-{BLOWUP_T}.knc")
        t = BLOWUP_T
        pages = ref.blowup_book(t)[0]

        def construct():
            run_cli(["construct", "blowup", "--n", str(t)], out)
            return out

        def check_construct(path):
            col, q = ref.read_knc(read(path))
            expect(q == 3 and np.array_equal(col, self.blowup_ref), "pentagon blow-up differs")

        def no_book():
            self.blowup = colouring.parse_colouring(read(out))
            return constructions.verify_no_book_multicolour(self.blowup, 3, pages + 1)

        def book():
            verdict = constructions.verify_no_book_multicolour(self.blowup, 3, pages)
            cert = verdict.certificate
            if cert is None:
                return verdict.ok, None, False
            accepted = books.verify_certificate(self.blowup, cert, pages).ok
            return verdict.ok, (cert.colour, cert.spine, cert.pages), accepted

        def check_book(result):
            ok, cert, accepted = result
            expect(not ok and cert is not None, f"blow-up: no book with {pages} pages reported")
            got = (len(cert[2]), cert[0], cert[1])
            expect(got == ref.blowup_book(t) == self.blowup_best, f"blow-up book {got}")
            fault = ref.certificate_fault(self.blowup_ref, *cert, complete=True)
            expect(fault is None and accepted, f"blow-up certificate: {fault}, program check {accepted}")

        return [
            Op("construct-blowup", "certify", construct, check_construct, canon=file_bytes),
            Op("blowup-no-book", "certify", no_book,
               lambda v: expect(v.ok, f"blow-up: a book with {pages + 1} pages reported")),
            Op("blowup-book", "certify", book, check_book,
               tally=lambda r: {"pages": 0 if r[1] is None else len(r[1][2])}),
        ]

    def _hyper_op(self) -> Op:
        def run():
            base = constructions.search_hypergraph_base(5, 3, 4, seed=self.hyper_seed)
            blown = constructions.hypergraph_blowup(base, 3, 12)
            return base, blown, constructions.hyper_max_book(blown, 12)

        def check(out):
            base, blown, cert = out
            expect(not ref.has_mono_hyperclique(hyper_dict(base), 5, 3, 4), "base has a mono K_4^(3)")
            want_colours = ref.hyper_blowup(hyper_dict(base), 5, 3, 3)
            expect(hyper_dict(blown) == want_colours, "hypergraph blow-up colours differ")
            want = ref.hyper_max_book(want_colours, 15, 3, 12)
            got = None if cert is None else (cert.page_count, cert.colour, cert.spine, cert.pages)
            expect(got == want, f"hypergraph max book {got} != {want}")
            expect(want is None or want[0] < 3, "hypergraph blow-up has a 3-page book")

        return Op("hyper-blowup", "certify", run, check,
                  tally=lambda out: {"pages": 0 if out[2] is None else out[2].page_count})

    def _star_op(self) -> Op:
        """search --k 1 --n 40 under a node budget: any answer must bracket
        r(B_40^(1)) = 79 with a witness free of 40-page stars."""
        witness = self.path("star-witness.knc")
        want = ref.ramsey_closed_form(1, STAR_N)

        def run():
            if os.path.exists(witness):
                os.remove(witness)
            argv = ["search", "--k", "1", "--n", str(STAR_N), "--max-nodes", str(STAR_BUDGET),
                    "--witness", witness]
            return run_cli(argv, ok=(0, 3))

        def check(text):
            rows = dict(line.split("\t") for line in text.splitlines())
            lower, upper = int(rows["lower"]), rows["upper"]
            expect(lower < want and (upper == "?" or int(upper) >= want),
                   f"star bracket [{lower}, {upper}] excludes {want}")
            expect(rows["status"] != "exact" or int(rows["ramsey"]) == want, "wrong exact star value")
            if lower > 0:
                col, _ = ref.read_knc(read(witness))
                expect(col.shape[0] == lower, "star witness has the wrong size")
                expect(not ref.has_book_bruteforce(col, 1, STAR_N), "star witness has a 40-star")

        return Op("search-star-40", "star_search", run, check, canon=str.encode)


# ----------------------------------------------------------- density pipeline


PIPELINE_MIX = (
    (16, 1, 4), (24, 2, 4), (64, 2, 8), (128, 3, 8), (256, 2, 8),
    (24, 3, 4), (96, 1, 8), (192, 2, 4), (16, 2, 8), (256, 3, 8),
)
PIPELINE_RUNS = tuple(
    (i, n, k, m) for i, (n, k, m) in enumerate(itertools.islice(itertools.cycle(PIPELINE_MIX), 50))
)


class DensityPipeline(Workload):
    """The 50-run criterion-7 mix through ``bookram pipeline --trace``."""

    name = "density-pipeline"
    figures = (Figure("pipeline_s", "pipeline", "sum"),)

    def build(self) -> None:
        self.cols = {}
        for i, n, _, _ in PIPELINE_RUNS:
            col = ref.random_colouring(n, self.rng(i))
            self.cols[i] = col
            with open(self.path(f"in{i}.knc"), "w", encoding="ascii") as fh:
                fh.write(ref.write_knc(col, 2))

    def prepare(self) -> None:
        self.exact = {i: ref.max_book(self.cols[i], 2, k)[0] for i, _, k, _ in PIPELINE_RUNS}

    def extra_tally(self) -> dict:
        return {"exact_pages": sum(self.exact.values())}

    def round_ops(self) -> list[Op]:
        return [self._pipeline_op(*run) for run in PIPELINE_RUNS]

    def _pipeline_op(self, i: int, n: int, k: int, m: int) -> Op:
        trace = self.path(f"trace{i}.log")
        argv = ["pipeline", "--input", self.path(f"in{i}.knc"), "--k", str(k), "--parts", str(m),
                "--eta", "0.3", "--delta", "0.3", "--seed", str(1_000_003 * self.seed + i),
                "--steps", "30", "--trace", trace]

        def run():
            return run_cli(argv), read(trace)

        def check(out):
            text, log = out
            tag = f"pipeline run {i} (N={n} k={k} m={m})"
            expect(log.startswith("extract\t"), f"{tag}: trace does not start with the header")
            if text == "NOSPINE\n":
                expect("\nwinner\tnone\n" in log, f"{tag}: NOSPINE but the trace names a winner")
                return
            colour, spine, pages = ref.read_book(text)
            fault = ref.certificate_fault(self.cols[i], colour, spine, pages, complete=False)
            expect(fault is None, f"{tag}: {fault}")
            expect(len(spine) == k and len(pages) <= self.exact[i],
                   f"{tag}: {len(pages)} pages above the exact maximum {self.exact[i]}")

        def pages(out):
            return {"pages": 0 if out[0] == "NOSPINE\n" else len(ref.read_book(out[0])[2])}

        return Op(f"pipeline-{i}", "pipeline", run, check,
                  canon=lambda out: (out[0] + out[1]).encode(), tally=pages)


WORKLOADS = {w.name: w for w in (LargeColourings, SmallExact, DensityPipeline)}

