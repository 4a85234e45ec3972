"""End-to-end CLI behaviour: subcommands, formats, exit codes."""

import io

import pytest

from bookram import constructions, regularity, sat, search
from bookram.cli import (
    EXIT_INCONCLUSIVE,
    EXIT_INTERNAL,
    EXIT_OK,
    EXIT_USAGE,
    EXIT_VIOLATED,
    main,
)
from bookram.colouring import emit_certificate, emit_colouring, parse_colouring
from bookram.constructions import paley_colouring, pentagon_colouring
from bookram.books import max_book

from conftest import all_one_colour


def run(argv):
    out = io.StringIO()
    code = main(argv, out=out)
    return code, out.getvalue()


@pytest.fixture
def pentagon_file(tmp_path):
    path = tmp_path / "pentagon.knc"
    path.write_text(emit_colouring(pentagon_colouring()))
    return str(path)


class TestBookCommand:
    def test_pentagon_zero_page_result(self, pentagon_file):
        code, text = run(["book", "--k", "2", "--input", pentagon_file])
        assert code == EXIT_OK
        assert text.splitlines()[0] == "BOOK 0 2 0"

    def test_nospine(self, pentagon_file):
        code, text = run(["book", "--k", "3", "--input", pentagon_file])
        assert code == EXIT_OK and text == "NOSPINE\n"

    def test_out_file(self, pentagon_file, tmp_path):
        dest = tmp_path / "best.cert"
        code, text = run(["book", "--k", "2", "--input", pentagon_file, "--out", str(dest)])
        assert code == EXIT_OK and text == ""
        assert dest.read_text().startswith("BOOK 0 2 0")


class TestProfileCommand:
    def test_pentagon_profile(self, pentagon_file):
        code, text = run(["profile", "--k", "1", "--input", pentagon_file])
        assert code == EXIT_OK
        assert text == "colour\t0\n2\t5\ncolour\t1\n2\t5\n"


class TestSearchCommand:
    def test_exact_r6(self, tmp_path):
        witness = tmp_path / "w.knc"
        code, text = run(["search", "--k", "2", "--n", "1", "--witness", str(witness)])
        assert code == EXIT_OK
        lines = dict(l.split("\t") for l in text.splitlines())
        assert lines["status"] == "exact"
        assert lines["ramsey"] == "6"
        col = parse_colouring(witness.read_text())
        assert col.n == 5

    def test_budget_inconclusive(self):
        code, text = run(["search", "--k", "2", "--n", "2", "--max-nodes", "40"])
        assert code == EXIT_INCONCLUSIVE
        assert "bounded" in text

    def test_budgeted_star_search_brackets_r79(self, tmp_path):
        # r(B_40^(1)) = 79; the search passes 46 vertices (1,035 edges, more
        # than Python's default recursion limit) before its budget runs out
        witness = tmp_path / "w.knc"
        code, text = run(["search", "--k", "1", "--n", "40", "--max-nodes", "200000",
                          "--witness", str(witness)])
        assert code == EXIT_INCONCLUSIVE
        lines = dict(l.split("\t") for l in text.splitlines())
        assert lines["status"] == "bounded"
        assert 46 < int(lines["lower"]) < 79
        assert lines["upper"] == "?"
        col = parse_colouring(witness.read_text())
        assert col.n == int(lines["lower"])
        # a 40-page star is a vertex of monochromatic degree 40
        assert all(col.adj[c][v].bit_count() < 40 for c in (0, 1) for v in range(col.n))

    def test_invalid_parameters(self):
        code, _ = run(["search", "--k", "0", "--n", "1"])
        assert code == EXIT_USAGE

    @pytest.mark.parametrize(
        "flag, value",
        [("--max-seconds", "nan"), ("--max-seconds", "-1"), ("--max-nodes", "-1")],
    )
    def test_budget_flags_refused(self, flag, value, capsys):
        # a NaN deadline would never be reached, so the search would run to
        # the node cap however long that takes
        code, text = run(["search", "--k", "2", "--n", "2", flag, value])
        assert code == EXIT_USAGE and text == ""
        assert flag in capsys.readouterr().err

    @pytest.mark.parametrize("flag", ["--max-seconds", "--max-nodes"])
    def test_zero_budget_is_bounded(self, flag):
        code, text = run(["search", "--k", "2", "--n", "2", flag, "0"])
        assert code == EXIT_INCONCLUSIVE
        lines = dict(l.split("\t") for l in text.splitlines())
        assert lines["status"] == "bounded" and lines["nodes"] == "0"

    def test_internal_error_is_one_line(self, monkeypatch, capsys):
        def broken(*args):
            raise RuntimeError("search produced an invalid witness; pruning is broken")

        monkeypatch.setattr(search, "ramsey_book", broken)
        code, text = run(["search", "--k", "2", "--n", "1"])
        assert code == EXIT_INTERNAL and text == ""
        err = capsys.readouterr().err
        assert err == (
            "error: internal: RuntimeError: search produced an invalid witness; "
            "pruning is broken\n"
        )


class TestVerifyCommand:
    def test_accepts_then_rejects_corrupted(self, tmp_path):
        col = all_one_colour(5)
        knc = tmp_path / "c.knc"
        knc.write_text(emit_colouring(col))
        cert = max_book(col, 2)
        good = tmp_path / "good.cert"
        good.write_text(emit_certificate(cert))
        code, text = run(["verify", "--input", str(knc), "--cert", str(good), "--n", "3"])
        assert code == EXIT_OK and text == "accept\n"
        bad = tmp_path / "bad.cert"
        bad.write_text("BOOK 1 2 1\n1 2\n3\n")
        code, text = run(["verify", "--input", str(knc), "--cert", str(bad), "--n", "1"])
        assert code == EXIT_VIOLATED
        assert text.startswith("reject\tspine-not-clique")

    def test_parse_error_is_usage(self, tmp_path):
        knc = tmp_path / "broken.knc"
        knc.write_text("KNC 1 3 2\n0\n0\n")
        cert = tmp_path / "x.cert"
        cert.write_text("BOOK 0 1 0\n1\n\n")
        code, _ = run(["verify", "--input", str(knc), "--cert", str(cert), "--n", "0"])
        assert code == EXIT_USAGE


    @pytest.mark.parametrize(
        "text, reason, witness",
        [
            ("BOOK 2 2 0\n1 2\n\n", "colour", "(2,)"),
            ("BOOK 0 0 0\n\n\n", "empty-spine", "()"),
            ("BOOK 0 2 3\n1 2\n3 4 5\n", "too-few-pages", "(3, 4)"),
        ],
    )
    def test_rejections(self, text, reason, witness, tmp_path):
        knc = tmp_path / "c.knc"
        knc.write_text(emit_colouring(all_one_colour(5)))
        cert = tmp_path / "x.cert"
        cert.write_text(text)
        code, out = run(["verify", "--input", str(knc), "--cert", str(cert), "--n", "4"])
        assert code == EXIT_VIOLATED
        assert out == f"reject\t{reason}\t{witness}\n"


#: Inputs each parser refuses, one per refusal message: (command, file text,
#: message).  The file is given to ``book --input`` (KNC), ``construct
#: hblowup --base`` (KNSC) or ``verify --cert`` (BOOK).
_REFUSED_FILES = [
    ("knc", "KNX 1 3 2\n00\n0\n", "line 1: expected header"),
    ("knc", "KNC 1 x 2\n00\n0\n", "line 1: non-integer N or q in header"),
    ("knc", "KNC 1 0 2\n", "line 1: vertex count 0 < 1"),
    ("knc", "KNC 1 3 11\n00\n0\n", "line 1: colour count 11 outside 2..10"),
    ("knc", "KNC 1 3 2\n02\n0\n", "line 2: bad colour digit '2' for q=2"),
    ("knc", "KNC 1 3 2\n00\n0\n0\n", "line 4: unexpected extra data line"),
    ("knc", "KNC 1 3 2\n0\n0\n", "line 2: row for vertex 1 has 1 digits, expected 2"),
    ("knc", "# only a comment\n", "missing KNC header"),
    ("knc", "", "missing KNC header"),
    ("knc", "KNC 1 3 2\n00\n", "expected 2 data rows, found 1"),
    ("knc", "# a\n# b\nKNC 1 x 2\n00\n0\n", "line 3: non-integer N or q in header"),
    ("knc", "\nKNC 1 3 2\n00\n0\n", "line 1: expected header 'KNC 1 <N> <q>'"),
    ("knsc", "KNSC 2 4 3\n", "line 1: expected header"),
    ("knsc", "KNSC 1 4 x\n", "line 1: non-integer N or s in header"),
    ("knsc", "KNSC 1 4 2\n", "line 1: uniformity 2 < 3"),
    ("knsc", "KNSC 1 3 4\n", "line 1: vertex count 3 < s"),
    ("knsc", "KNSC 1 60 6\n", "line 1: C(60,6) exceeds cap"),
    ("knsc", "KNSC 1 3 3\n1 2 0\n", "line 2: expected 3 vertices and a colour"),
    ("knsc", "KNSC 1 3 3\n1 2 x 0\n", "line 2: non-integer field"),
    ("knsc", "KNSC 1 3 3\n1 2 3 0\n1 2 3 0\n", "line 3: unexpected extra edge line"),
    ("knsc", "KNSC 1 4 3\n1 2 4 0\n", "line 2: edge out of lexicographic order"),
    ("knsc", "KNSC 1 3 3\n1 2 3 2\n", "line 2: hypergraph colour 2 not in {0,1}"),
    ("knsc", "", "missing KNSC header"),
    ("knsc", "KNSC 1 4 3\n1 2 3 0\n", "expected 4 edge lines, found 1"),
    ("knsc", "# only a comment\n", "missing KNSC header"),
    ("knsc", "# a\n# b\nKNSC 1 4 x\n", "line 3: non-integer N or s in header"),
    ("knsc", "\nKNSC 1 3 3\n1 2 3 0\n", "line 1: expected header 'KNSC 1 <N> <s>'"),
    ("book", "", "empty certificate"),
    ("book", "# only a comment\n", "empty certificate"),
    ("book", "# a\n# b\nBOOK 0 2 x\n1 2\n\n", "line 3: non-integer header field"),
    ("book", "\nBOOK 0 2 0\n1 2\n\n", "line 1: expected header 'BOOK <colour> <k> <pages>'"),
    ("book", "BOOK 0 2\n1 2\n\n", "line 1: expected header"),
    ("book", "BOOK 0 2 x\n1 2\n\n", "line 1: non-integer header field"),
    ("book", "# c\nBOOK 0 2 0\n", "missing spine line"),
    ("book", "# c\nBOOK 0 2 0\n1 x\n\n", "line 3: non-integer spine vertex"),
    ("book", "BOOK 0 2 1\n1 2\n# c\nx\n", "line 4: non-integer page vertex"),
    ("book", "BOOK 0 2 0\n1\n\n", "line 2: header says k=2 but spine has 1 vertices"),
    ("book", "BOOK 0 2 2\n1 2\n3\n", "line 3: header says 2 pages but found 1"),
    ("book", "BOOK 0 2 2\n1 2\n", "header says 2 pages but found 0"),
    ("book", "BOOK 0 2 0\n2 1\n\n", "line 2: spine vertices must be strictly ascending"),
    ("book", "BOOK 0 2 2\n1 2\n4 3\n", "line 3: page vertices must be strictly ascending"),
    ("book", "BOOK 0 2 1\n1 2\n3\nBOOK 0 2 1\n1 2\n3\n",
     "line 4: unexpected line after the page line"),
]


class TestParseRefusals:
    @pytest.mark.parametrize("kind, text, message", _REFUSED_FILES)
    def test_refused_with_one_line(self, kind, text, message, tmp_path, capsys):
        path = tmp_path / f"input.{kind}"
        path.write_text(text)
        knc = tmp_path / "c.knc"
        knc.write_text(emit_colouring(all_one_colour(5)))
        argv = {
            "knc": ["book", "--input", str(path), "--k", "2"],
            "knsc": ["construct", "hblowup", "--base", str(path), "--n", "1", "--k", "3"],
            "book": ["verify", "--input", str(knc), "--cert", str(path), "--n", "0"],
        }[kind]
        code, out = run(argv)
        assert code == EXIT_USAGE and out == ""
        err = capsys.readouterr().err
        assert err.startswith(f"error: {message}") and err.count("\n") == 1


class TestConstructCommand:
    def test_random_is_reproducible(self):
        a = run(["construct", "random", "--N", "30", "--seed", "5"])
        b = run(["construct", "random", "--N", "30", "--seed", "5"])
        assert a == b and a[0] == EXIT_OK

    def test_blowup_default_pentagon(self):
        code, text = run(["construct", "blowup", "--n", "3"])
        assert code == EXIT_OK
        col = parse_colouring(text)
        assert col.n == 15 and col.q == 3

    @pytest.mark.parametrize(
        "argv",
        [
            ["construct", "random", "--N", "16", "--seed", "1"],
            ["construct", "blowup", "--n", "4"],
            ["construct", "paley", "--q", "17"],
        ],
    )
    def test_vertex_cap_refused(self, argv, monkeypatch, capsys):
        # checked against a small cap, so a missing check allocates little
        monkeypatch.setattr(constructions, "MAX_GENERATED_VERTICES", 15)
        code, text = run(argv)
        assert code == EXIT_USAGE and text == ""
        assert "15" in capsys.readouterr().err

    def test_paley(self):
        code, text = run(["construct", "paley", "--q", "13"])
        assert code == EXIT_OK and text == emit_colouring(paley_colouring(13))

    @pytest.mark.parametrize("q", ["15", "1", "-3", "7"])
    def test_paley_refuses_non_primes_1_mod_4(self, q, capsys):
        code, text = run(["construct", "paley", "--q", q])
        assert code == EXIT_USAGE and text == ""
        assert "not a prime congruent to 1 mod 4" in capsys.readouterr().err

    def test_blowup_of_ten_colours_refused(self, tmp_path, capsys):
        # the blow-up adds an eleventh colour, which KNC cannot hold
        base = tmp_path / "base.knc"
        base.write_text(emit_colouring(all_one_colour(4, 9, q=10)))
        code, text = run(["construct", "blowup", "--base", str(base), "--n", "2"])
        assert code == EXIT_USAGE and text == ""
        assert "10 colours" in capsys.readouterr().err
        code, text = run(["construct", "blowup", "--base", str(base), "--n", "1"])
        assert code == EXIT_USAGE and text == ""

    def test_hblowup_cap_refused_before_enumerating(self, tmp_path, monkeypatch, capsys):
        # 6,000 vertices hold C(6000, 3) edges, far above the cap; not one
        # base colour may be looked up before the refusal
        from bookram.colouring import HyperColouring

        def no_lookup(self, edge):
            raise AssertionError("edge enumerated before the cap check")

        monkeypatch.setattr(HyperColouring, "colour_of", no_lookup)
        base = tmp_path / "base.knsc"
        base.write_text("KNSC 1 3 3\n1 2 3 0\n")
        code, text = run(["construct", "hblowup", "--base", str(base), "--n", "2000", "--k", "3"])
        assert code == EXIT_USAGE and text == ""
        assert "exceeds cap" in capsys.readouterr().err

    def test_hblowup_roundtrip(self, tmp_path):
        from bookram.colouring import emit_hypercolouring, parse_hypercolouring
        from bookram.constructions import search_hypergraph_base

        base = tmp_path / "base.knsc"
        base.write_text(emit_hypercolouring(search_hypergraph_base(5, 3, 4, seed=1)))
        code, text = run(
            ["construct", "hblowup", "--base", str(base), "--n", "2", "--k", "12"]
        )
        assert code == EXIT_OK
        assert parse_hypercolouring(text).n == 10

    def test_hblowup_bad_spine_multiple(self, tmp_path):
        from bookram.colouring import emit_hypercolouring
        from bookram.constructions import search_hypergraph_base

        base = tmp_path / "base.knsc"
        base.write_text(emit_hypercolouring(search_hypergraph_base(5, 3, 4, seed=1)))
        # 10 is no multiple of the uniformity 3; 0 and -3 are, but no spine size
        for k in ("10", "0", "-3"):
            code, text = run(["construct", "hblowup", "--base", str(base), "--n", "2", "--k", k])
            assert code == EXIT_USAGE and text == ""


class TestSatExportCommand:
    def test_export_and_solve(self):
        from bookram.sat import solve_dimacs

        code, text = run(["sat-export", "--k", "1", "--n", "1", "--N", "2"])
        assert code == EXIT_OK
        assert solve_dimacs(text)[0] == "UNSAT"

    def test_cap_refusal(self):
        code, _ = run(["sat-export", "--k", "3", "--n", "2", "--N", "40", "--cap", "100"])
        assert code == EXIT_USAGE


class TestLemmasCommand:
    def test_dichotomy_clean(self):
        code, text = run(
            ["lemmas", "dichotomy", "--k", "3", "--samples", "2000", "--seed", "2"]
        )
        assert code == EXIT_OK
        assert "violations\t0" in text

    def test_dichotomy_perturbed_violates(self):
        code, text = run(
            [
                "lemmas",
                "dichotomy",
                "--k",
                "2",
                "--samples",
                "2000",
                "--seed",
                "2",
                "--bound-offset",
                "1e-3",
            ]
        )
        assert code == EXIT_VIOLATED

    PERTURBED = ["lemmas", "dichotomy", "--k", "2", "--samples", "2000", "--seed", "2",
                 "--bound-offset", "1e-3"]

    def test_perturbed_counts_violations(self):
        code, text = run(self.PERTURBED)
        assert code == EXIT_VIOLATED and "violations\t173\n" in text

    @pytest.mark.parametrize(
        "flag, value",
        [("--tol", "nan"), ("--tol", "inf"), ("--tol", "0"), ("--tol", "-1e-9"),
         ("--bound-offset", "nan"), ("--bound-offset", "inf"), ("--bound-offset", "-inf"),
         ("--t", "nan"), ("--t", "inf"), ("--t", "-1")],
    )
    def test_flags_that_certify_anything_refused(self, flag, value, capsys):
        # the perturbed run has 173 violations; none of these may hide them
        # or end in a traceback
        code, text = run(self.PERTURBED + [f"{flag}={value}"])
        assert code == EXIT_USAGE and text == ""
        err = capsys.readouterr().err
        assert err.startswith(f"error: {flag} ") and err.count("\n") == 1

    @pytest.mark.parametrize("value", ["nan", "inf", "0"])
    def test_degprod_tolerance_refused(self, value, capsys):
        code, text = run(["lemmas", "degprod", "--l", "4", "--k", "2", "--samples", "10",
                          "--tol", value])
        assert code == EXIT_USAGE and text == ""
        assert "--tol" in capsys.readouterr().err

    def test_zero_t_runs(self):
        code, text = run(["lemmas", "dichotomy", "--k", "2", "--samples", "10", "--t", "0"])
        assert code == EXIT_OK and "violations\t0" in text

    def test_degprod_clean(self):
        code, text = run(
            ["lemmas", "degprod", "--l", "6", "--k", "3", "--samples", "2000", "--seed", "3"]
        )
        assert code == EXIT_OK
        assert "violations\t0" in text

    def test_degprod_empty_product(self):
        # e_0 = 1 = C(c, 0) on every vector, so k = 0 certifies
        code, text = run(["lemmas", "degprod", "--l", "3", "--k", "0", "--samples", "5"])
        assert code == EXIT_OK
        assert "violations\t0" in text

    @pytest.mark.parametrize("k, t", [("2", "1.2e154"), ("2", "1.4e154"), ("5", "1e100")])
    def test_powers_past_the_doubles_refused(self, k, t, capsys):
        # t^k, or its k-fold sum in a sampled row, is no finite double
        code, text = run(["lemmas", "dichotomy", "--k", k, "--t", t, "--samples", "10"])
        assert code == EXIT_USAGE and text == ""
        err = capsys.readouterr().err
        assert "not a finite double" in err and err.count("\n") == 1

    def test_large_finite_t_runs(self):
        code, text = run(["lemmas", "dichotomy", "--k", "2", "--t", "1e153", "--samples", "10"])
        assert code == EXIT_OK and "violations\t0" in text

    def test_lattices_past_the_cap_refused(self, capsys):
        for argv in (["degprod", "--l", "40", "--k", "3"], ["dichotomy", "--k", "30"]):
            code, text = run(["lemmas", *argv, "--samples", "10"])
            assert code == EXIT_USAGE and text == ""
            assert "cap" in capsys.readouterr().err


class TestPipelineCommand:
    def test_trace_and_certificate(self, tmp_path):
        knc = tmp_path / "r.knc"
        code, text = run(["construct", "random", "--N", "64", "--seed", "9"])
        knc.write_text(text)
        trace = tmp_path / "trace.log"
        code, text = run(
            [
                "pipeline",
                "--input",
                str(knc),
                "--k",
                "2",
                "--parts",
                "4",
                "--eta",
                "0.3",
                "--delta",
                "0.3",
                "--seed",
                "9",
                "--trace",
                str(trace),
            ]
        )
        assert code == EXIT_OK
        assert text.startswith("BOOK") or text == "NOSPINE\n"
        logged = trace.read_text()
        assert logged.startswith("extract\t")
        assert "winner" in logged

    def test_reproducible(self, tmp_path):
        knc = tmp_path / "r.knc"
        knc.write_text(run(["construct", "random", "--N", "48", "--seed", "2"])[1])
        args = ["pipeline", "--input", str(knc), "--k", "1", "--parts", "4",
                "--eta", "0.3", "--delta", "0.3", "--seed", "4"]
        assert run(args) == run(args)

    @pytest.mark.parametrize(
        "flag, value",
        [("--eta", "-1"), ("--eta", "1.5"), ("--eta", "nan"), ("--delta", "-0.1"),
         ("--delta", "2")],
    )
    def test_density_parameters_refused_before_reading(self, flag, value, capsys):
        # the input does not exist, so only a check made before reading it
        # can name the flag
        code, text = run(["pipeline", "--input", "/nonexistent/x.knc", "--k", "2",
                          "--parts", "4", flag, value])
        assert code == EXIT_USAGE and text == ""
        assert flag in capsys.readouterr().err

    @pytest.mark.parametrize("flag", ["--steps", "--t-max"])
    def test_negative_counts_refused_before_reading(self, flag, capsys):
        code, text = run(["pipeline", "--input", "/nonexistent/x.knc", "--k", "2",
                          "--parts", "4", flag, "-1"])
        assert code == EXIT_USAGE and text == ""
        assert flag in capsys.readouterr().err

    @pytest.mark.parametrize("command", [["book"], ["profile"], ["pipeline", "--parts", "4"]],
                             ids=["book", "profile", "pipeline"])
    @pytest.mark.parametrize("k", ["0", "-2"])
    def test_spine_size_refused_before_reading(self, command, k, capsys):
        # the input does not exist, so an error naming --k, not the file,
        # comes from a check made before reading it
        code, text = run([*command, "--input", "/nonexistent/x.knc", "--k", k])
        assert code == EXIT_USAGE and text == ""
        err = capsys.readouterr().err
        assert "--k" in err and "nonexistent" not in err

    def test_more_than_two_colours_refused_before_partition(self, tmp_path, monkeypatch, capsys):
        # the 3-colour pentagon blow-up is refused right after the parse,
        # before the partition search runs
        def no_partition(*args, **kwargs):
            raise AssertionError("make_partition ran on a 3-colour input")

        monkeypatch.setattr(regularity, "make_partition", no_partition)
        knc = tmp_path / "blowup.knc"
        knc.write_text(run(["construct", "blowup", "--n", "4"])[1])
        code, text = run(["pipeline", "--input", str(knc), "--k", "2", "--parts", "4"])
        assert code == EXIT_USAGE and text == ""
        assert "the reduced-graph pipeline is two-colour only" in capsys.readouterr().err

    def test_zero_counts_run(self, tmp_path):
        knc = tmp_path / "r.knc"
        knc.write_text(run(["construct", "random", "--N", "16", "--seed", "1"])[1])
        for flag in ("--steps", "--t-max"):
            code, text = run(["pipeline", "--input", str(knc), "--k", "2", "--parts", "4",
                              flag, "0"])
            assert code == EXIT_OK and (text.startswith("BOOK") or text == "NOSPINE\n")

    @pytest.mark.parametrize("parts", ["0", "-3", "17"])
    def test_parts_outside_vertex_range_refused(self, parts, tmp_path, capsys):
        knc = tmp_path / "r.knc"
        knc.write_text(run(["construct", "random", "--N", "16", "--seed", "1"])[1])
        code, text = run(["pipeline", "--input", str(knc), "--k", "2", "--parts", parts])
        assert code == EXIT_USAGE and text == ""
        assert "--parts" in capsys.readouterr().err

    def test_parameter_bounds_run(self, tmp_path):
        knc = tmp_path / "r.knc"
        knc.write_text(run(["construct", "random", "--N", "16", "--seed", "1"])[1])
        # k = 1100 puts 2^k past the largest double
        for extra in (["--k", "1", "--parts", "1", "--eta", "0", "--delta", "1"],
                      ["--k", "1", "--parts", "16", "--eta", "1", "--delta", "0"],
                      ["--k", "1100", "--parts", "4"]):
            code, text = run(["pipeline", "--input", str(knc), "--steps", "3", *extra])
            assert code == EXIT_OK and (text.startswith("BOOK") or text == "NOSPINE\n")


class TestThreads:
    def test_explicit_threads(self, pentagon_file):
        code, text = run(["--threads", "2", "book", "--k", "2", "--input", pentagon_file])
        assert code == EXIT_OK and text.splitlines()[0] == "BOOK 0 2 0"

    @pytest.mark.parametrize(
        "command",
        [
            ["book", "--k", "2", "--input", "{knc}"],
            ["profile", "--k", "2", "--input", "{knc}"],
            ["search", "--k", "1", "--n", "1"],
            ["construct", "random", "--N", "5", "--seed", "1"],
            # refused before the input is read
            ["book", "--k", "2", "--input", "{missing}"],
        ],
        ids=["book", "profile", "search", "construct-random", "book-missing-input"],
    )
    def test_invalid_threads(self, pentagon_file, tmp_path, command, capsys):
        missing = str(tmp_path / "missing.knc")
        argv = [arg.format(knc=pentagon_file, missing=missing) for arg in command]
        code, text = run(["--threads", "0"] + argv)
        assert code == EXIT_USAGE and text == ""
        assert "--threads" in capsys.readouterr().err


class TestUsageErrors:
    def test_unknown_subcommand(self):
        code, _ = run(["frobnicate"])
        assert code == EXIT_USAGE

    def test_missing_required(self):
        code, _ = run(["book", "--k", "2"])
        assert code == EXIT_USAGE

    def test_missing_file(self):
        code, _ = run(["book", "--k", "2", "--input", "/nonexistent/x.knc"])
        assert code == EXIT_USAGE


class TestParserReuse:
    def test_successive_calls_share_no_values(self, monkeypatch, pentagon_file):
        # main builds its parser once; every call must still see only its
        # own arguments and the defaults
        seen = []
        monkeypatch.setattr("bookram.cli._dispatch", lambda args, out: seen.append(vars(args)) or 0)
        assert run(["--threads", "2", "search", "--k", "1", "--n", "2", "--max-nodes", "5"])[0] == 0
        assert run(["sat-export", "--k", "2", "--n", "1", "--N", "5"])[0] == 0
        assert run(["search", "--k", "3", "--n", "1"])[0] == 0
        assert run(["book", "--k", "2"])[0] == EXIT_USAGE
        assert seen == [
            {"threads": 2, "command": "search", "k": 1, "n": 2, "max_nodes": 5,
             "max_seconds": 300.0, "witness": None},
            {"threads": None, "command": "sat-export", "k": 2, "n": 1, "size": 5,
             "cap": sat.DEFAULT_CLAUSE_CAP, "out": None},
            {"threads": None, "command": "search", "k": 3, "n": 1, "max_nodes": 50_000_000,
             "max_seconds": 300.0, "witness": None},
        ]
        monkeypatch.undo()
        code, text = run(["book", "--k", "2", "--input", pentagon_file])
        assert code == EXIT_OK and text.splitlines()[0] == "BOOK 0 2 0"
