"""Core data model: KNC/KNSC/BOOK parsing, clique and page primitives."""

import itertools
from math import comb

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bookram.colouring import (
    HYPER_ENTRY_CAP,
    BookCertificate,
    Colouring,
    FormatError,
    HyperColouring,
    _pack_rows,
    _subset_rank,
    _unpack_rows,
    bits,
    clique_pages,
    common_pages,
    count_mono_cliques,
    emit_certificate,
    emit_colouring,
    emit_hypercolouring,
    mono_cliques,
    parse_certificate,
    parse_colouring,
    parse_hypercolouring,
)
from bookram.constructions import random_colouring

from conftest import all_one_colour, random_small

# Exhaustively derived minimum of total monochromatic triangles over all
# 2-colourings of K_6 (full 2^15 enumeration; re-derived in the acceptance
# suite).  The pentagon witnesses the K_5 value 0.
GOODMAN_K6_MIN = 2


class TestParseColouring:
    def test_all_red_k3(self):
        col = parse_colouring("KNC 1 3 2\n00\n0\n")
        assert col.n == 3 and col.q == 2
        assert all(col.colour_of(u, v) == 0 for u, v in itertools.combinations(range(3), 2))

    def test_single_blue_edge(self):
        col = parse_colouring("KNC 1 2 2\n1\n")
        assert col.colour_of(0, 1) == 1

    def test_comments_ignored(self):
        col = parse_colouring("# header comment\nKNC 1 3 2\n# between\n01\n1\n")
        assert col.colour_of(0, 1) == 0
        assert col.colour_of(0, 2) == 1
        assert col.colour_of(1, 2) == 1

    def test_single_vertex(self):
        col = parse_colouring("KNC 1 1 2\n")
        assert col.n == 1

    @pytest.mark.parametrize(
        "text,line",
        [
            ("KNX 1 3 2\n00\n0\n", 1),
            ("KNC 2 3 2\n00\n0\n", 1),
            ("KNC 1 0 2\n", 1),
            ("KNC 1 3 1\n00\n0\n", 1),
            ("KNC 1 3 2\n0\n0\n", 2),
            ("KNC 1 3 2\n00\n0\n0\n", 4),
            ("KNC 1 3 2\n02\n0\n", 2),
            ("KNC 1 3 2\n00\n", None),
            ("", None),  # no header, and no line to name
            ("# only a comment\n", None),
            ("KNC 1 2 2\n\u0661\n", 2),  # Arabic-Indic one: a digit, not ASCII
            ("KNC 1 2 2\n\u00b2\n", 2),  # superscript two: isdigit() but no int()
        ],
    )
    def test_errors_name_lines(self, text, line):
        with pytest.raises(FormatError) as err:
            parse_colouring(text)
        assert err.value.line == line

    def test_emit_all_red_k3(self):
        assert emit_colouring(all_one_colour(3)) == "KNC 1 3 2\n00\n0\n"

    def test_emit_refuses_more_than_ten_colours(self):
        # one digit per edge: colour 10 would be written as ':', which the
        # parser refuses
        assert parse_colouring(emit_colouring(all_one_colour(4, 9, q=10))).q == 10
        with pytest.raises(ValueError, match="at most 10 colours"):
            emit_colouring(all_one_colour(4, 10, q=11))

    def test_parse_emit_identity_on_values(self):
        for seed in range(10):
            col = random_small(7, seed)
            assert parse_colouring(emit_colouring(col)) == col

    def test_emit_parse_identity_on_canonical_texts(self):
        # 100 random files across sizes and colour counts
        cases = [(n, seed, q) for seed in range(25) for (n, q) in ((6, 2), (9, 3), (5, 4), (12, 2))]
        for n, seed, q in cases:
            text = emit_colouring(random_small(n, seed, q))
            assert emit_colouring(parse_colouring(text)) == text

    @given(st.data())
    @settings(max_examples=60, deadline=None)
    def test_roundtrip_with_comments_crlf_and_trailing_spaces(self, data):
        n = data.draw(st.integers(1, 40))
        q = data.draw(st.integers(2, 10))
        rows = [
            data.draw(st.text("0123456789"[:q], min_size=n - 1 - i, max_size=n - 1 - i))
            for i in range(n - 1)
        ]
        lines = [f"KNC 1 {n} {q}"] + rows
        text = ""
        for line in lines:
            if data.draw(st.booleans()):
                text += "# " + data.draw(st.text("abc 01", max_size=8)) + "\r\n"
            text += line + " " * data.draw(st.integers(0, 3)) + "\r\n"
        col = parse_colouring(text)
        assert col == Colouring.from_edge_colours(n, q, lambda u, v: int(rows[u][v - u - 1]))
        assert emit_colouring(col) == "\n".join(lines) + "\n"

    def test_validate_rejects_asymmetric(self):
        col = all_one_colour(3)
        adj = [list(col.adj[0]), list(col.adj[1])]
        adj[0][0] &= ~2  # recolour 0->1 without touching 1->0
        adj[1][0] |= 2
        bad = Colouring(3, 2, (tuple(adj[0]), tuple(adj[1])))
        with pytest.raises(ValueError):
            bad.validate()


class TestPackRows:
    @given(st.data())
    @settings(max_examples=60, deadline=None)
    def test_row_subset_roundtrip(self, data):
        n = data.draw(st.integers(1, 80))
        col = random_colouring(n, data.draw(st.integers(0, 10_000)))
        picked = data.draw(st.lists(st.integers(0, n - 1), max_size=2 * n))
        rows = [col.adj[0][u] for u in picked]
        matrix = _unpack_rows(rows, n)
        assert matrix.shape == (len(picked), n)
        for r, u in enumerate(picked):
            assert list(matrix[r]) == [(col.adj[0][u] >> v) & 1 for v in range(n)]
        assert _pack_rows(matrix) == tuple(rows)


class TestDenseForm:
    @given(st.data())
    @settings(max_examples=30, deadline=None)
    def test_matrix_and_dense_match_the_edge_colours(self, data):
        # sizes on both sides of a 256-row strip edge
        n = data.draw(st.sampled_from([1, 255, 256, 257, 513]))
        q = data.draw(st.integers(2, 11))
        table = np.random.default_rng(data.draw(st.integers(0, 2**32))).integers(0, q, (n, n))
        col = Colouring.from_edge_colours(n, q, lambda u, v, t=table.tolist(): t[u][v])
        want = np.triu(table, 1)
        want += want.T
        np.fill_diagonal(want, q)
        matrix = col.matrix()
        assert matrix.shape == (n, n) and (matrix == want).all()
        assert Colouring.from_matrix(want, q) == col
        assert Colouring.from_matrix(matrix, q) == col
        for c in range(q):
            dense = col.dense(c)
            assert dense.dtype == np.uint8
            # bit v of row u is character v of the reversed binary digits
            bits_text = "".join(format(row, f"0{n}b")[::-1] for row in col.adj[c])
            oracle = np.frombuffer(bits_text.encode(), dtype=np.uint8).reshape(n, n) - ord("0")
            assert (dense == oracle).all()
            u, v = data.draw(st.integers(0, n - 1)), data.draw(st.integers(0, n - 1))
            assert dense[u, v] == (col.adj[c][u] >> v) & 1

    def test_matrix_holds_colours_above_255(self):
        col = Colouring.from_edge_colours(4, 300, lambda u, v: 299 - 100 * u - v)
        matrix = col.matrix()
        assert matrix[0, 1] == 298 and matrix[2, 3] == 96 and matrix[1, 1] == 300
        assert Colouring.from_matrix(matrix, 300) == col


class TestMonoCliques:
    def test_all_red_k4_triangles(self):
        col = all_one_colour(4)
        assert list(mono_cliques(col, 0, 3)) == [(0, 1, 2), (0, 1, 3), (0, 2, 3), (1, 2, 3)]
        assert list(mono_cliques(col, 1, 3)) == []

    def test_pentagon_triangle_free(self, pentagon):
        assert list(mono_cliques(pentagon, 0, 3)) == []
        assert list(mono_cliques(pentagon, 1, 3)) == []

    def test_k_greater_than_n_empty(self):
        assert list(mono_cliques(all_one_colour(3), 0, 5)) == []

    def test_k10_matches_triple_loop(self):
        col = random_colouring(10, 42)
        for c in (0, 1):
            brute = 0
            for a, b, d in itertools.combinations(range(10), 3):
                if col.colour_of(a, b) == col.colour_of(a, d) == col.colour_of(b, d) == c:
                    brute += 1
            assert sum(1 for _ in mono_cliques(col, c, 3)) == brute

    def test_lexicographic_order(self):
        col = random_small(9, 3)
        for c in (0, 1):
            for k in (1, 2, 3):
                got = list(mono_cliques(col, c, k))
                assert got == sorted(got)
                assert len(set(got)) == len(got)

    def test_count_matches_induced_edge_oracle(self):
        # independent, bitset-free: a k-set is mono iff its induced colour-c
        # edge count is C(k,2)
        for seed in range(5):
            col = random_small(10, seed)
            for c in (0, 1):
                for k in (2, 3, 4):
                    brute = sum(
                        1
                        for vs in itertools.combinations(range(10), k)
                        if sum(col.colour_of(u, v) == c for u, v in itertools.combinations(vs, 2))
                        == comb(k, 2)
                    )
                    assert count_mono_cliques(col, k)[c] == brute


class TestCliquePages:
    """The clique-extension kernel against ``itertools.combinations``."""

    @staticmethod
    def brute(col, c, candidates, inter, size):
        out = []
        for clique in itertools.combinations(bits(candidates), size):
            if all(col.colour_of(u, v) == c for u, v in itertools.combinations(clique, 2)):
                pages = inter
                for v in clique:
                    pages &= col.adj[c][v]
                out.append((clique, pages))
        return out

    @given(st.data())
    @settings(max_examples=150, deadline=None)
    def test_matches_combinations(self, data):
        n = data.draw(st.integers(1, 14))
        q = data.draw(st.sampled_from((2, 3)))
        col = random_small(n, data.draw(st.integers(0, 10_000)), q)
        c = data.draw(st.integers(0, q - 1))
        inter = data.draw(st.integers(0, col.full_mask()))
        candidates = inter & data.draw(st.integers(0, col.full_mask()))
        size = data.draw(st.integers(0, 5))
        expected = self.brute(col, c, candidates, inter, size)
        # the same cliques in the same order, each with the AND of its rows
        assert list(clique_pages(col.adj[c], candidates, inter, size)) == expected
        # an int bar yields exactly the successive strict records above it
        start = data.draw(st.integers(-1, n))
        bar, records = start, []
        for clique, pages in expected:
            if pages.bit_count() > bar:
                bar = pages.bit_count()
                records.append((clique, pages))
        assert list(clique_pages(col.adj[c], candidates, inter, size, start)) == records

    def test_branch_ends_short_of_candidates(self):
        # 20 of the 22 candidates of an all-red K_24: a walk that extends
        # every prefix of the candidates reads a row about 2^22 times
        class CountingRows(list):
            reads = 0

            def __getitem__(self, v):
                self.reads += 1
                return super().__getitem__(v)

        col = all_one_colour(24)
        rows = CountingRows(col.adj[0])
        got = [clique for clique, _ in clique_pages(rows, (1 << 22) - 1, col.full_mask(), 20)]
        assert got == list(itertools.combinations(range(22), 20))
        assert rows.reads < 5000


class TestCommonPages:
    def test_all_red(self):
        col = all_one_colour(9)
        for k in (1, 2, 3):
            spine = tuple(range(k))
            assert common_pages(col, 0, spine).bit_count() == 9 - k

    def test_pentagon_red_edge_has_no_pages(self, pentagon):
        assert common_pages(pentagon, 0, (0, 1)) == 0

    def test_matches_naive_scan_k64(self):
        import random as _r

        col = random_colouring(64, 5)
        rng = _r.Random(0)
        for _ in range(50):
            c = rng.randrange(2)
            spine = rng.sample(range(64), rng.randrange(1, 4))
            naive = {
                v
                for v in range(64)
                if v not in spine and all(col.colour_of(v, u) == c for u in spine)
            }
            assert set(bits(common_pages(col, c, spine))) == naive

    def test_page_clique_duality_small(self):
        # |pages(S)| equals the number of vertices completing S to a larger
        # mono clique, for every mono spine at N <= 12
        for seed in (0, 1):
            col = random_small(12, seed)
            for c in (0, 1):
                for k in (1, 2, 3):
                    for spine in mono_cliques(col, c, k):
                        completions = sum(
                            1
                            for v in range(12)
                            if v not in spine
                            and all(col.colour_of(v, u) == c for u in spine)
                        )
                        assert common_pages(col, c, spine).bit_count() == completions


class TestCountMonoCliques:
    def test_all_red_k6(self):
        assert count_mono_cliques(all_one_colour(6), 3) == (20, 0)

    def test_pentagon(self, pentagon):
        assert count_mono_cliques(pentagon, 3) == (0, 0)

    def test_goodman_k6_floor_subsample(self):
        # the frozen floor comes from the independent full enumeration oracle
        # (re-run in the acceptance suite); spot-check a subsample here
        for x in range(0, 1 << 15, 97):
            col = Colouring.from_edge_colours(
                6, 2, lambda u, v: (x >> _edge_pos(u, v)) & 1
            )
            assert sum(count_mono_cliques(col, 3)) >= GOODMAN_K6_MIN

    def test_k1_counts_every_vertex_per_colour(self, pentagon):
        assert count_mono_cliques(pentagon, 1) == (5, 5)

    def test_clique_above_vertex_count(self, pentagon):
        # all n vertices of an all-red K_n close no (n + 1)-clique
        for col in (all_one_colour(1), all_one_colour(4), pentagon):
            for k in (col.n + 1, col.n + 2):
                assert count_mono_cliques(col, k) == (0, 0)

    @given(st.integers(0, 10_000), st.integers(2, 10))
    @settings(max_examples=30, deadline=None)
    def test_colour_partition(self, seed, n):
        col = random_small(n, seed)
        assert sum(col.edge_count(c) for c in range(col.q)) == comb(n, 2)
        for k in (2, 3):
            if k <= n:
                assert sum(count_mono_cliques(col, k)) <= comb(n, k)


_K6_EDGE_POS = {e: i for i, e in enumerate(itertools.combinations(range(6), 2))}


def _edge_pos(u, v):
    return _K6_EDGE_POS[(min(u, v), max(u, v))]


class TestHyperColouring:
    def test_rank_matches_enumeration(self):
        for n in range(3, 13):
            for s in range(3, min(n, 6) + 1):
                for i, e in enumerate(itertools.combinations(range(n), s)):
                    assert _subset_rank(e, n, s) == i

    @pytest.mark.parametrize(
        "t, match",
        [
            ((0, 2, 1), "not a sorted 3-subset"),
            ((0, 1, 1), "not a sorted 3-subset"),
            ((0, 1), "not a sorted 3-subset"),
            ((0, 1, 2, 3), "not a sorted 3-subset"),
            ((-1, 0, 1), "out of range"),
            ((0, 1, 5), "out of range"),
        ],
    )
    def test_rank_refusals(self, t, match):
        with pytest.raises(ValueError, match=match):
            _subset_rank(t, 5, 3)

    def test_roundtrip(self):
        import random as _r

        rng = _r.Random(9)
        h = HyperColouring.from_edge_colours(6, 3, lambda e: rng.randrange(2))
        text = emit_hypercolouring(h)
        assert parse_hypercolouring(text) == h
        assert emit_hypercolouring(parse_hypercolouring(text)) == text

    def test_parse_errors(self):
        good = emit_hypercolouring(
            HyperColouring.from_edge_colours(5, 3, lambda e: 0)
        )
        lines = good.splitlines()
        with pytest.raises(FormatError):
            parse_hypercolouring("\n".join(["KNSC 2 5 3"] + lines[1:]))
        with pytest.raises(FormatError):
            parse_hypercolouring("\n".join([lines[0]] + lines[2:] + [lines[1]]))
        with pytest.raises(FormatError):
            parse_hypercolouring("\n".join(lines[:-1] + ["3 4 5 7"]))
        with pytest.raises(FormatError):
            parse_hypercolouring("\n".join(lines[:-1]))

    def test_entry_cap(self):
        with pytest.raises(FormatError):
            parse_hypercolouring("KNSC 1 60 6\n")

    def test_entry_cap_refused_before_enumerating(self):
        calls = 0

        def colour_of(edge):
            nonlocal calls
            calls += 1
            return 0

        with pytest.raises(ValueError, match="exceeds cap"):
            HyperColouring.from_edge_colours(300, 3, colour_of)
        assert calls == 0
        assert comb(300, 3) > HYPER_ENTRY_CAP >= comb(290, 3)
        HyperColouring.from_edge_colours(9, 3, colour_of)
        assert calls == comb(9, 3)


class TestCertificateIO:
    def test_roundtrip(self):
        cert = BookCertificate(1, (0, 2, 5), (1, 3))
        text = emit_certificate(cert)
        assert text == "BOOK 1 3 2\n1 3 6\n2 4\n"
        assert parse_certificate(text) == cert

    def test_empty_pages(self):
        cert = BookCertificate(0, (0, 1), ())
        assert parse_certificate(emit_certificate(cert)) == cert

    @pytest.mark.parametrize(
        "text",
        [
            "BOKK 0 2 0\n1 2\n\n",
            "BOOK 0 3 0\n1 2\n\n",
            "BOOK 0 2 1\n1 2\n\n",
            "BOOK 0 2 0\n2 1\n\n",
        ],
    )
    def test_errors(self, text):
        with pytest.raises(FormatError):
            parse_certificate(text)

    @pytest.mark.parametrize(
        "text,line",
        [
            ("", None),
            ("# only a comment\n", None),
            ("BOOK 0 2 1\n", None),
            ("BOOK 0 2 1\n1 2\n", None),  # a missing page line reads as empty
            ("# c\nBOKK 0 2 0\n1 2\n\n", 2),
            ("# c\nBOOK 0 x 0\n1 2\n\n", 2),
            ("# note\nBOOK 0 2 1\n1 x\n3\n", 3),
            ("BOOK 0 2 1\n# c\n1 2\n# d\n3 y\n", 5),
            ("# c\n# d\nBOOK 0 3 0\n1 2\n\n", 4),
            ("# c\n# d\nBOOK 0 2 1\n1 2\n5 4\n", 5),
            ("BOOK 0 2 0\n# c\n2 1\n\n", 3),
            ("BOOK 0 2 2\n1 2\n# c\n5 4\n", 4),
            ("BOOK 0 2 1\n1 2\n3\nBOOK 0 2 1\n1 2\n3\n", 4),
            ("BOOK 0 2 0\n1 2\n\n# c\n\n", 5),
        ],
    )
    def test_errors_name_lines(self, text, line):
        # file lines, comments counted; none when the line is missing
        with pytest.raises(FormatError) as err:
            parse_certificate(text)
        assert err.value.line == line
        assert str(err.value).startswith("line ") == (line is not None)

    def test_comments_after_the_page_line(self):
        assert parse_certificate("BOOK 0 2 1\n1 2\n3\n# end\n") == BookCertificate(0, (0, 1), (2,))
