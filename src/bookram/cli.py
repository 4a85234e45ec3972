"""Command-line entry point exposing every subsystem as a subcommand.

Exit codes: 0 success / property holds, 1 property violated or certificate
rejected, 2 usage or parse error, 3 inconclusive (budget exhausted), 4
internal error (a one-line message, never a traceback).
Subcommands with a --seed are byte-reproducible; nothing is written outside
paths given on the command line.
"""

from __future__ import annotations

import argparse
import functools
import math
import sys

from . import books, constructions, lemmas, regularity, sat, search
from .colouring import (
    emit_certificate,
    emit_colouring,
    emit_hypercolouring,
    parse_certificate,
    parse_colouring,
    parse_hypercolouring,
)

EXIT_OK = 0
EXIT_VIOLATED = 1
EXIT_USAGE = 2
EXIT_INCONCLUSIVE = 3
EXIT_INTERNAL = 4


def _read(path: str) -> str:
    with open(path, "r", encoding="utf-8") as fh:
        return fh.read()


def _write(path: str | None, text: str, out) -> None:
    if path:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        out.write(text)


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The parser every ``main`` call reuses: ``parse_args`` fills a fresh
    namespace each time, so no parsed value carries over."""
    parser = argparse.ArgumentParser(
        prog="bookram",
        description="Monochromatic book statistics and small book Ramsey numbers",
    )
    parser.add_argument("--threads", type=int, default=None, help="no effect; kept for compatibility")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("book", help="maximum monochromatic book of a colouring")
    p.add_argument("--input", required=True)
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--out", default=None, help="write the certificate here instead of stdout")

    p = sub.add_parser("profile", help="page-count histogram per colour")
    p.add_argument("--input", required=True)
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--out", default=None)

    p = sub.add_parser("search", help="exact book Ramsey number by exhaustive DFS")
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--max-nodes", type=int, default=50_000_000)
    p.add_argument("--max-seconds", type=float, default=300.0)
    p.add_argument("--witness", default=None, help="write the best witness colouring here")

    p = sub.add_parser("sat-export", help="DIMACS CNF for a book-avoidance instance")
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--N", type=int, required=True, dest="size")
    p.add_argument("--cap", type=int, default=sat.DEFAULT_CLAUSE_CAP)
    p.add_argument("--out", default=None)

    p = sub.add_parser("construct", help="lower-bound colouring generators")
    gsub = p.add_subparsers(dest="generator", required=True)
    g = gsub.add_parser("random", help="seeded uniform red/blue colouring")
    g.add_argument("--N", type=int, required=True, dest="size")
    g.add_argument("--seed", type=int, required=True)
    g = gsub.add_parser("paley", help="Paley colouring of K_q for a prime q = 1 mod 4")
    g.add_argument("--q", type=int, required=True)
    g = gsub.add_parser("blowup", help="multicolour blow-up of a base colouring")
    g.add_argument("--base", default=None, help="KNC file; bundled pentagon when omitted")
    g.add_argument("--n", type=int, required=True, help="part size")
    g = gsub.add_parser("hblowup", help="s-uniform hypergraph blow-up")
    g.add_argument("--base", required=True, help="KNSC file")
    g.add_argument("--n", type=int, required=True, help="part size")
    g.add_argument("--k", type=int, required=True, help="target spine size (multiple of s)")

    p = sub.add_parser("verify", help="check a book certificate against a colouring")
    p.add_argument("--input", required=True)
    p.add_argument("--cert", required=True)
    p.add_argument("--n", type=int, required=True)

    p = sub.add_parser("lemmas", help="numerical lemma certification")
    lsub = p.add_subparsers(dest="lemma", required=True)
    l = lsub.add_parser("dichotomy")
    l.add_argument("--k", type=int, required=True)
    l.add_argument("--t", type=float, default=1.0)
    l.add_argument("--samples", type=int, default=100_000)
    l.add_argument("--seed", type=int, default=0)
    l.add_argument("--tol", type=float, default=1e-9)
    l.add_argument("--bound-offset", type=float, default=0.0)
    l = lsub.add_parser("degprod")
    l.add_argument("--l", type=int, required=True, dest="ell")
    l.add_argument("--k", type=int, required=True)
    l.add_argument("--samples", type=int, default=100_000)
    l.add_argument("--seed", type=int, default=0)
    l.add_argument("--tol", type=float, default=1e-9)

    p = sub.add_parser("pipeline", help="partition, reduce, and extract a book")
    p.add_argument("--input", required=True)
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--parts", type=int, required=True)
    p.add_argument("--eta", type=float, default=0.05)
    p.add_argument("--delta", type=float, default=0.1)
    p.add_argument("--t-max", type=int, default=3)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--steps", type=int, default=200)
    p.add_argument("--trace", default=None, help="write the extraction trace here")
    return parser


def main(argv=None, out=None) -> int:
    out = out or sys.stdout
    try:
        args = build_parser().parse_args(argv)
    except SystemExit as exc:
        return EXIT_USAGE if exc.code else EXIT_OK
    try:
        return _dispatch(args, out)
    except (ValueError, OSError) as exc:
        # a refusal, FormatError and sat.CnfSizeError included
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except Exception as exc:
        print(f"error: internal: {type(exc).__name__}: {exc}", file=sys.stderr)
        return EXIT_INTERNAL


def _dispatch(args, out) -> int:
    if args.threads is not None and args.threads < 1:
        raise ValueError(f"--threads must be at least 1, got {args.threads}")
    # the spine size is checked before the input is read, so a bad --k costs
    # no parse and no pipeline stage
    if args.command in ("book", "profile", "pipeline") and args.k < 1:
        raise ValueError(f"--k must be at least 1, got {args.k}")

    if args.command == "book":
        col = parse_colouring(_read(args.input))
        cert = books.max_book(col, args.k)
        if cert is None:
            _write(args.out, "NOSPINE\n", out)
        else:
            _write(args.out, emit_certificate(cert), out)
        return EXIT_OK

    if args.command == "profile":
        col = parse_colouring(_read(args.input))
        profile = books.local_profile(col, args.k)
        _write(args.out, books.profile_tsv(profile), out)
        return EXIT_OK

    if args.command == "search":
        # a NaN deadline compares false with every time and would drop the cap
        if not args.max_seconds >= 0:
            raise ValueError(f"--max-seconds must be a number >= 0, got {args.max_seconds}")
        if args.max_nodes < 0:
            raise ValueError(f"--max-nodes must be >= 0, got {args.max_nodes}")
        budget = search.Budget(args.max_nodes, args.max_seconds)
        result = search.ramsey_book(args.k, args.n, budget)
        upper = "?" if result.upper is None else str(result.upper)
        out.write(
            f"k\t{result.k}\nn\t{result.n}\nstatus\t{result.status}\n"
            f"lower\t{result.lower}\nupper\t{upper}\nnodes\t{result.nodes}\n"
        )
        if result.status == search.EXACT:
            out.write(f"ramsey\t{result.ramsey_number}\n")
        if args.witness and result.witness is not None:
            _write(args.witness, emit_colouring(result.witness), out)
        return EXIT_OK if result.status == search.EXACT else EXIT_INCONCLUSIVE

    if args.command == "sat-export":
        text = sat.sat_export(args.k, args.n, args.size, clause_cap=args.cap)
        _write(args.out, text, out)
        return EXIT_OK

    if args.command == "construct":
        if args.generator == "random":
            col = constructions.random_colouring(args.size, args.seed)
            out.write(emit_colouring(col))
            return EXIT_OK
        if args.generator == "paley":
            out.write(emit_colouring(constructions.paley_colouring(args.q)))
            return EXIT_OK
        if args.generator == "blowup":
            base = (
                constructions.pentagon_colouring()
                if args.base is None
                else parse_colouring(_read(args.base))
            )
            out.write(emit_colouring(constructions.multicolour_blowup(base, args.n)))
            return EXIT_OK
        base = parse_hypercolouring(_read(args.base))
        out.write(
            emit_hypercolouring(constructions.hypergraph_blowup(base, args.n, args.k))
        )
        return EXIT_OK

    if args.command == "verify":
        col = parse_colouring(_read(args.input))
        cert = parse_certificate(_read(args.cert))
        verdict = books.verify_certificate(col, cert, args.n)
        if verdict.ok:
            out.write("accept\n")
            return EXIT_OK
        out.write(f"reject\t{verdict.reason}\t{verdict.witness}\n")
        return EXIT_VIOLATED

    if args.command == "lemmas":
        # every comparison with NaN is false, so a NaN tolerance or offset
        # would count no violation at all
        if not 0 < args.tol < math.inf:
            raise ValueError(f"--tol must be a finite number > 0, got {args.tol}")
        if args.lemma == "dichotomy":
            if not math.isfinite(args.bound_offset):
                raise ValueError(f"--bound-offset must be finite, got {args.bound_offset}")
            if not 0 <= args.t < math.inf:
                raise ValueError(f"--t must be a finite number >= 0, got {args.t}")
            report = lemmas.dichotomy_certify(
                args.k, args.t, args.samples, args.seed, args.tol, args.bound_offset
            )
        else:
            report = lemmas.degprod_certify(
                args.ell, args.k, args.samples, args.seed, args.tol
            )
        out.write(report.to_tsv())
        return EXIT_OK if report.violations == 0 else EXIT_VIOLATED

    if args.command == "pipeline":
        for flag, value in (("--eta", args.eta), ("--delta", args.delta)):
            if not 0.0 <= value <= 1.0:
                raise ValueError(f"{flag} must lie in [0, 1], got {value}")
        for flag, value in (("--steps", args.steps), ("--t-max", args.t_max)):
            if value < 0:
                raise ValueError(f"{flag} must be >= 0, got {value}")
        col = parse_colouring(_read(args.input))
        # refused here, before make_partition's swap search and subset scoring
        if col.q != 2:
            raise ValueError("the reduced-graph pipeline is two-colour only")
        if not 1 <= args.parts <= col.n:
            raise ValueError(f"--parts must lie in 1..{col.n}, got {args.parts}")
        partition = regularity.make_partition(
            col, args.parts, args.seed, args.steps, eta=args.eta
        )
        reduced = regularity.build_reduced(
            col, partition, args.eta, args.delta, seed=args.seed
        )
        cert, trace = regularity.extract_book(col, reduced, args.k, t_max=args.t_max)
        if args.trace:
            _write(args.trace, trace.render(), out)
        if cert is None:
            out.write("NOSPINE\n")
        else:
            out.write(emit_certificate(cert))
        return EXIT_OK

    raise AssertionError(f"unhandled command {args.command}")


def console_main() -> None:
    sys.exit(main())


if __name__ == "__main__":
    console_main()
