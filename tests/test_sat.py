"""CNF export semantics, the reference solver, and DFS agreement."""

import hashlib
import itertools

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bookram.books import has_mono_book
from bookram.sat import (
    SAT,
    UNSAT,
    CnfSizeError,
    _sequential_counter_clauses,
    decode_model,
    estimate_clauses,
    parse_dimacs,
    sat_export,
    solve_dimacs,
)
from bookram.colouring import BLUE
from bookram.search import FOUND, find_witness


def edge_index(size):
    """Each pair u < v to its 1-based edge variable, in lexicographic order."""
    return {e: t for t, e in enumerate(itertools.combinations(range(size), 2), 1)}


def reference_export(k, n, size):
    """The per-clause export that the array-built ``sat_export`` replaced:
    one tuple per clause, formatted with ``str``."""
    evar = edge_index(size)
    next_var = len(evar) + 1
    clauses = []

    def edge_lit(u, v, colour):
        var = evar[(u, v) if u < v else (v, u)]
        return var if colour == BLUE else -var

    for spine in itertools.combinations(range(size), k):
        for colour in (0, 1):
            lits = [edge_lit(u, v, colour) for u, v in itertools.combinations(spine, 2)]
            mono = next_var
            next_var += 1
            for lit in lits:
                clauses.append((-mono, lit))
            clauses.append((mono, *[-lit for lit in lits]))
            page_vars = []
            spine_set = set(spine)
            for v in range(size):
                if v in spine_set:
                    continue
                p = next_var
                next_var += 1
                page_vars.append(p)
                plits = [edge_lit(v, u, colour) for u in spine]
                for lit in plits:
                    clauses.append((-p, lit))
                clauses.append((p, *[-lit for lit in plits]))
            bound = n - 1
            if len(page_vars) <= bound:
                continue
            if bound == 0:
                for p in page_vars:
                    clauses.append((-mono, -p))
            else:
                extra, next_var = _sequential_counter_clauses(mono, page_vars, bound, next_var)
                clauses.extend(extra)

    out = [
        f"c book-avoidance instance: K_{size}, spine K_{k}, forbid {n} pages",
        "c edge variable true = blue, false = red",
        "c cardinality encoding: sequential counter, conditional on mono-spine indicator",
    ]
    for (u, v), t in evar.items():
        out.append(f"c edge {u + 1} {v + 1} -> var {t}")
    out.append(f"p cnf {next_var - 1} {len(clauses)}")
    for cl in clauses:
        out.append(" ".join(str(l) for l in cl) + " 0")
    return "\n".join(out) + "\n"


class TestEncoding:
    def test_single_edge_unsat(self):
        # K_2 with k=1, n=1: either colour of the lone edge completes a book
        status, _ = solve_dimacs(sat_export(1, 1, 2))
        assert status == UNSAT

    def test_k2_n1_size5_sat_and_decodes(self):
        status, model = solve_dimacs(sat_export(2, 1, 5))
        assert status == SAT
        col = decode_model(5, model)
        assert not has_mono_book(col, 2, 1)

    def test_k2_n1_size6_unsat(self):
        status, _ = solve_dimacs(sat_export(2, 1, 6))
        assert status == UNSAT

    def test_estimate_matches_emitted(self):
        for k, n, size in ((1, 1, 4), (1, 2, 5), (2, 1, 5), (2, 2, 6), (3, 2, 6)):
            text = sat_export(k, n, size)
            header = next(l for l in text.splitlines() if l.startswith("p cnf"))
            _, _, nvars, nclauses = header.split()
            _, clauses = parse_dimacs(text)
            assert len(clauses) == int(nclauses) == estimate_clauses(k, n, size)
            assert int(nvars) >= len(edge_index(size))

    def test_header_edge_map(self):
        # "c edge variable true = blue, false = red" also starts with "c edge "
        lines = [
            l for l in sat_export(2, 1, 5).splitlines() if l.startswith("c edge ") and "->" in l
        ]
        want = [f"c edge {u + 1} {v + 1} -> var {t}" for (u, v), t in edge_index(5).items()]
        assert lines == want

    def test_cap_refusal_carries_estimate(self):
        with pytest.raises(CnfSizeError) as err:
            sat_export(3, 2, 30, clause_cap=1000)
        assert err.value.estimate == estimate_clauses(3, 2, 30)

    def test_parameter_validation(self):
        with pytest.raises(ValueError):
            sat_export(0, 1, 4)


class TestExportMatchesReference:
    def test_grid(self):
        for k in range(1, 5):
            for n in range(1, 5):
                for size in range(2, 10):
                    assert sat_export(k, n, size) == reference_export(k, n, size), (k, n, size)

    @given(st.integers(1, 4), st.integers(1, 4), st.integers(2, 9))
    @settings(max_examples=60, deadline=None)
    def test_random_box(self, k, n, size):
        assert sat_export(k, n, size) == reference_export(k, n, size)

    def test_chunked_formatting(self, monkeypatch):
        # 112 blocks of 93 literals each, formatted 1, 10 and 32 blocks a pass
        for width in (1, 1000, 3000):
            monkeypatch.setattr("bookram.sat._CHUNK_LITERALS", width)
            assert sat_export(3, 2, 8) == reference_export(3, 2, 8)

    def test_pinned_digest_k3_n3_size24(self):
        text = sat_export(3, 3, 24)
        assert len(text) == 15_549_696
        assert hashlib.sha256(text.encode()).hexdigest() == (
            "8e49e12ca19a91c9522264b253f14d887de764ad799560ce539c7afe934f8669"
        )


class TestSequentialCounter:
    @pytest.mark.parametrize("t,bound", [(3, 1), (4, 2), (5, 3), (2, 1)])
    def test_exact_semantics(self, t, bound):
        # with the guard forced true, the counter admits exactly the
        # assignments with at most `bound` of the t inputs true
        guard = 1
        xs = list(range(2, 2 + t))
        clauses, _ = _sequential_counter_clauses(guard, xs, bound, 2 + t)
        for pattern in itertools.product((False, True), repeat=t):
            lines = ["p cnf 99 0"]
            for cl in clauses:
                lines.append(" ".join(str(l) for l in cl) + " 0")
            lines.append("1 0")
            for x, val in zip(xs, pattern):
                lines.append(f"{x if val else -x} 0")
            status, _ = solve_dimacs("\n".join(lines))
            expected = SAT if sum(pattern) <= bound else UNSAT
            assert status == expected, (pattern, bound)

    def test_guard_off_releases_constraint(self):
        guard = 1
        xs = [2, 3]
        clauses, _ = _sequential_counter_clauses(guard, xs, 1, 4)
        lines = ["p cnf 9 0"]
        for cl in clauses:
            lines.append(" ".join(str(l) for l in cl) + " 0")
        lines += ["-1 0", "2 0", "3 0"]
        status, _ = solve_dimacs("\n".join(lines))
        assert status == SAT


class TestSolver:
    def test_trivial(self):
        assert solve_dimacs("p cnf 2 2\n1 2 0\n-1 0\n")[0] == SAT
        assert solve_dimacs("p cnf 1 2\n1 0\n-1 0\n")[0] == UNSAT

    def test_model_satisfies_all_clauses(self):
        text = sat_export(2, 2, 6)
        status, model = solve_dimacs(text)
        assert status == SAT
        truth = {abs(l): l > 0 for l in model}
        _, clauses = parse_dimacs(text)
        for cl in clauses:
            assert any(truth[abs(l)] == (l > 0) for l in cl)

    @pytest.mark.parametrize(
        "k, n, size, nvars, digest",
        [
            (2, 2, 9, 1044, "8f6dd31b1a06a7d93637c6912b3c5029df55217c8f49442b22fc3131680f7206"),
            (2, 2, 7, 441, "77160b822d54f06d47386cb466ad9347396715cbee3490e33909c7a7a8618a01"),
        ],
    )
    def test_pinned_models(self, k, n, size, nvars, digest):
        # the model pins the watch order and the branching rule (lowest
        # unassigned variable, false first), not only the model's validity
        status, model = solve_dimacs(sat_export(k, n, size))
        assert status == SAT and len(model) == nvars
        text = " ".join(str(lit) for lit in model)
        assert hashlib.sha256(text.encode()).hexdigest() == digest

    def test_pinned_unsat(self):
        assert solve_dimacs(sat_export(1, 4, 7)) == (UNSAT, None)

    def test_literal_beyond_header_refused(self):
        # values are indexed by literal, so -3 would alias literal 2's slot
        with pytest.raises(ValueError):
            solve_dimacs("p cnf 2 1\n1 -3 0\n")
        with pytest.raises(ValueError):
            solve_dimacs("1 0\n")


class TestAgreementSmallGrid:
    def test_dfs_and_sat_agree_up_to_size6(self):
        for k, n in ((1, 1), (1, 2), (2, 1), (2, 2)):
            for size in range(2, 7):
                dfs = find_witness(k, n, size)
                status, model = solve_dimacs(sat_export(k, n, size))
                assert (dfs.status == FOUND) == (status == SAT), (k, n, size)
                if status == SAT:
                    col = decode_model(size, model)
                    assert not has_mono_book(col, k, n)
