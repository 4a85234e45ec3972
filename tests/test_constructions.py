"""Generators for lower-bound colourings and their exact verifiers."""

import itertools
import tracemalloc
from math import comb

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bookram import constructions
from bookram.colouring import (
    HYPER_ENTRY_CAP,
    Colouring,
    HyperColouring,
    _pack_rows,
    common_pages,
    emit_certificate,
    emit_colouring,
    mono_cliques,
)
from bookram.constructions import (
    MAX_GENERATED_VERTICES,
    hyper_max_book,
    hypergraph_blowup,
    multicolour_blowup,
    paley_colouring,
    pentagon_colouring,
    random_colouring,
    search_hypergraph_base,
    verify_no_book_multicolour,
)

from conftest import all_one_colour


class TestRandomColouring:
    def test_single_vertex_edgeless(self):
        col = random_colouring(1, 3)
        assert col.n == 1 and col.edge_count(0) == col.edge_count(1) == 0

    def test_determinism_bytes(self):
        a = emit_colouring(random_colouring(50, 7))
        b = emit_colouring(random_colouring(50, 7))
        assert a == b

    def test_different_seeds_differ(self):
        assert random_colouring(20, 1) != random_colouring(20, 2)

    def test_vertex_cap(self, monkeypatch):
        # checked against a small cap, so a missing check allocates little
        assert MAX_GENERATED_VERTICES == 1 << 14
        monkeypatch.setattr(constructions, "MAX_GENERATED_VERTICES", 12)
        assert random_colouring(12, 0).n == 12
        with pytest.raises(ValueError, match="12"):
            random_colouring(13, 0)

    def test_valid_colouring(self):
        random_colouring(33, 5).validate()

    @pytest.mark.parametrize("n", [1, 2, 7, 64, 333])
    def test_edges_read_the_upper_triangle_of_the_draw(self, n):
        # edge (u, v), u < v, takes the draw's entry in row u, column v
        draw = np.random.default_rng(n).integers(0, 2, size=(n, n), dtype=np.uint8)
        col = random_colouring(n, n)
        for u, v in itertools.combinations(range(n), 2):
            assert col.colour_of(u, v) == draw[u, v]
        col.validate()

    @pytest.mark.parametrize("n", [1, 2, 7, 255, 256, 257, 333, 2048])
    def test_equals_the_triu_construction(self, n):
        # the upper triangle of the draw symmetrised out of place, with 2 on
        # the diagonal, as the colouring was first built
        for seed in (1, 2):
            draw = np.random.default_rng(seed).integers(0, 2, size=(n, n), dtype=np.uint8)
            matrix = np.triu(draw, 1)
            matrix |= matrix.T
            np.fill_diagonal(matrix, 2)
            want = Colouring(n, 2, tuple(_pack_rows(matrix == c) for c in range(2)))
            assert random_colouring(n, seed) == want

    def test_peak_memory_is_one_matrix(self):
        # the draw is n^2 bytes and the bitmask rows add under half of that;
        # the triu construction held three n^2 arrays at once
        n = 1024
        tracemalloc.start()
        try:
            random_colouring(n, 1)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2 * n * n

    def test_edge_fraction_n2048(self):
        # binomial model: red fraction within 4 sigma, sigma = 1/(2 sqrt(E))
        edges = comb(2048, 2)
        sigma = 1 / (2 * edges**0.5)
        for seed in range(30):
            col = random_colouring(2048, seed)
            frac = col.edge_count(0) / edges
            assert abs(frac - 0.5) < 4 * sigma, (seed, frac)

    def test_seed_batch_statistics_stable(self):
        # shifting the seed range must not move the edge-count statistics
        edges = comb(256, 2)
        means = []
        for base in (0, 10_000):
            counts = [random_colouring(256, base + s).edge_count(0) for s in range(30)]
            means.append(sum(counts) / len(counts))
        # each mean has std ~ sqrt(E)/2/sqrt(30); allow 8 of those
        assert abs(means[0] - means[1]) < 8 * (edges**0.5 / 2) / 30**0.5


class TestPaleyColouring:
    @pytest.mark.parametrize("p", [5, 13, 17, 29, 101, 257, 1021])
    def test_equals_the_difference_rule(self, p):
        # red where v - u is a nonzero square mod p, edge by edge
        squares = {x * x % p for x in range(1, p)}
        want = Colouring.from_edge_colours(p, 2, lambda u, v: 0 if (v - u) % p in squares else 1)
        col = paley_colouring(p)
        assert col == want
        col.validate()

    def test_p5_is_the_pentagon(self):
        # red 5-cycle 0-1-2-3-4-0, blue complement
        cycle = Colouring.from_edge_colours(5, 2, lambda u, v: 0 if v - u in (1, 4) else 1)
        assert paley_colouring(5) == pentagon_colouring() == cycle

    @pytest.mark.parametrize("p", [-5, 0, 1, 2, 3, 7, 9, 15, 21, 25, 1023])
    def test_refuses_all_but_primes_1_mod_4(self, p):
        with pytest.raises(ValueError, match="not a prime congruent to 1 mod 4"):
            paley_colouring(p)

    def test_vertex_cap(self, monkeypatch):
        # checked against a small cap, before the primality test
        monkeypatch.setattr(constructions, "MAX_GENERATED_VERTICES", 12)
        assert paley_colouring(5).n == 5
        with pytest.raises(ValueError, match="12"):
            paley_colouring(13)

    def test_peak_memory_below_one_matrix(self):
        # rows come from views of one doubled difference row, a strip at a
        # time, so no p-by-p array is built
        p = 2053
        tracemalloc.start()
        try:
            paley_colouring(p)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < p * p


class TestMulticolourBlowup:
    def test_single_red_edge_base_by_hand(self):
        base = all_one_colour(2)  # one red edge, q=2 with blue unused
        col = multicolour_blowup(base, 2)
        assert col.n == 4 and col.q == 3
        # parts {0,1} and {2,3}: internal edges carry the fresh colour 2
        assert col.colour_of(0, 1) == 2
        assert col.colour_of(2, 3) == 2
        for u, v in ((0, 2), (0, 3), (1, 2), (1, 3)):
            assert col.colour_of(u, v) == 0

    @given(st.data())
    @settings(max_examples=80, deadline=None)
    def test_every_edge_follows_the_rule(self, data):
        # across parts the template colour, inside a part the fresh colour
        q = data.draw(st.integers(2, 4))
        n = data.draw(st.integers(1, 7))
        p = data.draw(st.integers(1, 4))
        colours = data.draw(st.lists(st.integers(0, q - 1), min_size=n * n, max_size=n * n))
        base = Colouring.from_edge_colours(n, q, lambda u, v: colours[u * n + v])
        col = multicolour_blowup(base, p)
        col.validate()
        assert (col.n, col.q) == (n * p, q + 1)
        for u, v in itertools.combinations(range(n * p), 2):
            want = q if u // p == v // p else base.colour_of(u // p, v // p)
            assert col.colour_of(u, v) == want

    def test_vertex_cap(self, monkeypatch):
        monkeypatch.setattr(constructions, "MAX_GENERATED_VERTICES", 15)
        assert multicolour_blowup(pentagon_colouring(), 3).n == 15
        with pytest.raises(ValueError, match="15"):
            multicolour_blowup(pentagon_colouring(), 4)

    def test_pentagon_blowup_shape(self):
        col = multicolour_blowup(pentagon_colouring(), 3)
        assert col.n == 15 and col.q == 3
        col.validate()
        assert col.edge_count(2) == 5 * comb(3, 2)
        assert col.edge_count(0) == col.edge_count(1) == 5 * 9

    def test_pentagon_blowup_has_no_b3_spine3(self):
        col = multicolour_blowup(pentagon_colouring(), 3)
        verdict = verify_no_book_multicolour(col, 3, 3)
        assert verdict.ok and verdict.certificate is None

    def test_reject_returns_offending_certificate(self):
        verdict = verify_no_book_multicolour(all_one_colour(5), 2, 1)
        assert not verdict.ok
        cert = verdict.certificate
        assert cert.page_count >= 1 and cert.colour == 0

    def test_accept_when_pages_cannot_fit(self):
        col = random_colouring(8, 2)
        assert verify_no_book_multicolour(col, 2, 7).ok  # pages <= N-k = 6
        assert verify_no_book_multicolour(col, 9, 1).ok  # spine larger than N

    def test_blowup_soundness_over_bases(self):
        # a base with no monochromatic K_k blows up to a colouring with no
        # monochromatic book of spine k and part-size pages
        import random as _r

        bases = [pentagon_colouring()]
        rng = _r.Random(12)
        while True:  # 3-coloured K_6 with no mono triangle (r(K_3;3) = 17)
            cand = _random_q_colouring(6, 3, rng)
            if all(not list(mono_cliques(cand, c, 3)) for c in range(3)):
                bases.append(cand)
                break
        for base in bases:
            assert all(not list(mono_cliques(base, c, 3)) for c in range(base.q))
            for n in (1, 2, 3, 4):
                col = multicolour_blowup(base, n)
                assert verify_no_book_multicolour(col, 3, n).ok, (base.q, n)

    def test_internal_colour_book_scaling(self):
        # inside a blow-up the fresh colour's books live within one part:
        # a spine of size k <= n has exactly n - k pages, and no spine exists
        # for k > n
        base = pentagon_colouring()
        for n, k in ((3, 2), (3, 3), (4, 2)):
            col = multicolour_blowup(base, n)
            q = base.q
            best = -1
            for spine in mono_cliques(col, q, k):
                best = max(best, common_pages(col, q, spine).bit_count())
            assert best == n - k
        col = multicolour_blowup(base, 2)
        assert list(mono_cliques(col, base.q, 3)) == []


def _random_q_colouring(n, q, rng):
    from bookram.colouring import Colouring

    return Colouring.from_edge_colours(n, q, lambda u, v: rng.randrange(q))


def _blowup_rule_oracle(base: HyperColouring, part_size: int, edge) -> int:
    """Independent re-evaluation of the three-case blow-up rule."""
    parts = [v // part_size for v in edge]
    if len(set(parts)) == len(parts):
        return base.colour_of(tuple(sorted(set(parts))))
    if len(set(parts)) == 1:
        return 0
    return 1


class TestHypergraphBlowup:
    def test_part_size_one_is_base_relabelled(self):
        base = search_hypergraph_base(5, 3, 4, seed=1)
        col = hypergraph_blowup(base, 1, 3)
        for e in itertools.combinations(range(5), 3):
            assert col.colour_of(e) == base.colour_of(e)

    def test_all_same_case_empty_at_part_size_2(self):
        base = HyperColouring.from_edge_colours(4, 3, lambda e: 1)
        col = hypergraph_blowup(base, 2, 3)
        # no 3 vertices share a part of size 2, so nothing can be red via the
        # "all same" case; audit every edge against the rule
        for e in itertools.combinations(range(8), 3):
            got = col.colour_of(e)
            assert got == _blowup_rule_oracle(base, 2, e)
            if len({v // 2 for v in e}) == 1:
                pytest.fail("impossible: three vertices inside a part of two")

    def test_searched_base_blowup_audited(self):
        base = search_hypergraph_base(5, 3, 4, seed=3)
        col = hypergraph_blowup(base, 3, 12)
        assert col.n == 15
        for e in itertools.combinations(range(15), 3):
            assert col.colour_of(e) == _blowup_rule_oracle(base, 3, e)

    def test_spine_multiple_validation(self):
        base = search_hypergraph_base(5, 3, 4, seed=1)
        with pytest.raises(ValueError):
            hypergraph_blowup(base, 3, 10)


class TestHyperMaxBook:
    def test_all_red_k5_spine3(self):
        h = HyperColouring.from_edge_colours(5, 3, lambda e: 0)
        cert = hyper_max_book(h, 3)
        assert cert.colour == 0
        assert cert.spine == (0, 1, 2)
        assert cert.page_count == 2

    def test_certificate_renders(self):
        h = HyperColouring.from_edge_colours(5, 3, lambda e: 0)
        assert emit_certificate(hyper_max_book(h, 3)) == "BOOK 0 3 2\n1 2 3\n4 5\n"

    def test_spine_cap_refused_before_enumerating(self, monkeypatch):
        h = HyperColouring.from_edge_colours(40, 3, lambda e: 0)
        assert comb(40, 10) > HYPER_ENTRY_CAP
        monkeypatch.setattr(constructions, "_all_coloured", lambda *args: pytest.fail("enumerated"))
        with pytest.raises(ValueError, match="cap"):
            hyper_max_book(h, 10)

    def test_spine_equals_vertex_count(self):
        h = HyperColouring.from_edge_colours(5, 3, lambda e: 0)
        cert = hyper_max_book(h, 5)
        assert cert.page_count == 0

    def test_searched_base_avoids_forbidden_clique(self):
        base = search_hypergraph_base(5, 3, 4, seed=3)
        for block in itertools.combinations(range(5), 4):
            colours = {base.colour_of(e) for e in itertools.combinations(block, 3)}
            assert len(colours) == 2

    def test_blowup_has_no_12_spine_book_with_3_pages(self):
        base = search_hypergraph_base(5, 3, 4, seed=3)
        col = hypergraph_blowup(base, 3, 12)
        cert = hyper_max_book(col, 12)
        # pigeonhole forces >= 3 spine vertices into one part, whose edge is
        # red, while some cross pair forces blue, so no spine survives at all
        assert cert is None

    def test_vacuous_spine_size(self):
        h = HyperColouring.from_edge_colours(5, 3, lambda e: 1)
        cert = hyper_max_book(h, 2)  # k = s-1: no edges inside the spine
        assert cert is not None
        assert cert.colour == 0 or cert.page_count >= 0

    def test_min_spine_validation(self):
        h = HyperColouring.from_edge_colours(5, 3, lambda e: 0)
        with pytest.raises(ValueError):
            hyper_max_book(h, 1)
