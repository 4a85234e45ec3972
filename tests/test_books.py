"""Maximum-book extraction, certificate checking, and the page profile."""

import itertools
import math
import random
import threading
import tracemalloc
from unittest import mock

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from bookram import books
from bookram.books import (
    has_mono_book,
    local_profile,
    max_book,
    profile_tsv,
    verify_certificate,
)
from bookram.colouring import (
    BookCertificate,
    Colouring,
    bits,
    clique_pages,
    common_pages,
    count_mono_cliques,
    mask_of,
)
from bookram.constructions import (
    multicolour_blowup,
    paley_colouring,
    pentagon_colouring,
    random_colouring,
)

from conftest import all_one_colour, random_small


def _oracle_form(cert: BookCertificate | None):
    """A certificate as the oracles' (pages, colour, spine), or None."""
    return None if cert is None else (cert.page_count, cert.colour, cert.spine)


def _max_book_dense(col: Colouring, k: int):
    """``max_book`` in the oracles' form; its page count is the number of
    pages ``_certificate`` read back from the colouring."""
    return _oracle_form(max_book(col, k))


def _profile_dense(col: Colouring, k: int):
    """``local_profile`` in the form of ``_profile_enumerate``."""
    profile = local_profile(col, k)
    return list(profile.histograms), _oracle_form(profile.best)


def _max_book_bitset(col: Colouring, k: int):
    """Reference copy of the clique-extension search the dense descent
    replaced: pages are popcounts of the running neighbourhood intersection,
    and each spine found raises the bar.  Returns (pages, colour, spine) or
    None."""
    best = None
    bar = -1  # below every page count, so it prunes only spines that cannot close
    full = col.full_mask()
    for c in range(col.q):
        for spine, pages in clique_pages(col.adj[c], full, full, k, bar):
            bar = pages.bit_count()
            best = (bar, c, spine)
    return best


def _profile_enumerate(col: Colouring, k: int):
    """Reference copy of the one-spine-at-a-time profile: per-colour page
    histograms and the best (pages, colour, spine), in lexicographic order."""
    histograms: list[dict[int, int]] = []
    best = None
    full = col.full_mask()
    for c in range(col.q):
        hist: dict[int, int] = {}
        for spine, mask in clique_pages(col.adj[c], full, full, k):
            pages = mask.bit_count()
            hist[pages] = hist.get(pages, 0) + 1
            if best is None or pages > best[0]:
                best = (pages, c, spine)
        histograms.append(hist)
    return histograms, best


def _is_clique(col: Colouring, c: int, spine) -> bool:
    """True iff every two vertices of ``spine`` are joined in colour c."""
    m = mask_of(spine)
    return all((col.adj[c][v] | 1 << v) & m == m for v in spine)


def _brute_force(col: Colouring, k: int):
    """(histograms, best certificate) over every k-subset of the vertices,
    kept when it is a clique in the colour: the most pages, then the lowest
    colour, then the lexicographically smallest spine."""
    histograms, best = [], None
    for c in range(col.q):
        hist: dict[int, int] = {}
        for spine in itertools.combinations(range(col.n), k):
            if not _is_clique(col, c, spine):
                continue
            pages = common_pages(col, c, spine)
            hist[pages.bit_count()] = hist.get(pages.bit_count(), 0) + 1
            if best is None or pages.bit_count() > best.page_count:
                best = BookCertificate(c, spine, tuple(bits(pages)))
        histograms.append(hist)
    return tuple(histograms), best


class TestMaxBook:
    def test_all_red_k7(self):
        cert = max_book(all_one_colour(7), 2)
        assert cert.colour == 0
        assert cert.spine == (0, 1)
        assert cert.page_count == 5

    def test_pentagon_zero_pages_both_colours(self, pentagon):
        cert = max_book(pentagon, 2)
        assert cert.page_count == 0
        assert cert.spine == (0, 1)  # lex-smallest red edge, colour 0 wins tie

    def test_no_spine_is_distinct_from_zero_pages(self, pentagon):
        assert max_book(pentagon, 3) is None
        zero = max_book(pentagon, 2)
        assert zero is not None and zero.page_count == 0

    def test_k64_matches_double_loop(self):
        col = random_colouring(64, 11)
        best = -1
        for c in (0, 1):
            for u, v in itertools.combinations(range(64), 2):
                if col.colour_of(u, v) != c:
                    continue
                pages = common_pages(col, c, (u, v)).bit_count()
                best = max(best, pages)
        cert = max_book(col, 2)
        assert cert.page_count == best
        assert verify_certificate(col, cert, cert.page_count).ok

    @pytest.mark.parametrize("size", [64, 200])
    @pytest.mark.parametrize("k", [2, 3])
    def test_dense_equals_bitset(self, size, k):
        for seed in (1, 2, 3):
            col = random_colouring(size, seed)
            assert _max_book_dense(col, k) == _max_book_bitset(col, k)

    @given(st.integers(1, 24), st.integers(2, 4), st.integers(0, 10**6), st.sampled_from((2, 3)))
    @settings(max_examples=200, deadline=None)
    def test_dense_equals_bitset_on_small_colourings(self, n, q, seed, k):
        # max_book takes the dense path for k in {2, 3} at every size
        col = random_small(n, seed, q)
        assert _max_book_dense(col, k) == _max_book_bitset(col, k)

    def test_dispatch_above_threshold_matches(self):
        col = random_colouring(200, 4)
        cert = max_book(col, 3)  # dense path
        pages, colour, spine = _max_book_bitset(col, 3)
        assert (cert.page_count, cert.colour, cert.spine) == (pages, colour, spine)

    def test_dense_equals_bitset_under_heavy_ties(self):
        # two red blocks joined in blue: masses of equal-page spines force
        # the tie-breaking of both paths to agree exactly
        col = Colouring.from_edge_colours(
            200, 2, lambda u, v: 0 if (u < 100) == (v < 100) else 1
        )
        for k in (2, 3):
            assert _max_book_dense(col, k) == _max_book_bitset(col, k)

    def test_dense_equals_bitset_on_three_colours(self):
        # q = 3 and N = 200: colours 0 and 1 are triangle-free blow-ups of
        # the pentagon, colour 2 is five disjoint K_40, so ties abound
        col = multicolour_blowup(pentagon_colouring(), 40)
        for k in (2, 3):
            assert _max_book_dense(col, k) == _max_book_bitset(col, k)

    def test_deterministic_tiebreak_prefers_smaller_colour(self):
        # swap colours of the pentagon: identical structure, max must pick colour 0
        swapped = Colouring(5, 2, (pentagon_adj(1), pentagon_adj(0)))
        cert = max_book(swapped, 2)
        assert cert.colour == 0


def pentagon_adj(c):
    return pentagon_colouring().adj[c]


#: Primes p = 1 (mod 4) up to 1021, the orders of the Paley colourings here.
PALEY_PRIMES = [p for p in range(5, 1022, 4) if all(p % d for d in range(2, math.isqrt(p) + 1))]


def _full_path(col: Colouring, k: int) -> BookCertificate | None:
    """``max_book`` with the circulant check answering False, so every
    smallest spine vertex is walked."""
    with mock.patch.object(Colouring, "is_circulant", lambda self: False):
        return max_book(col, k)


@st.composite
def circulants(draw):
    """A random circulant colouring of K_n, n <= 40, in q <= 3 colours: the
    colour of edge (u, v) depends on the distance min(v - u, u - v) mod n."""
    n, q = draw(st.integers(1, 40)), draw(st.integers(2, 3))
    by_distance = draw(st.lists(st.integers(0, q - 1), min_size=n // 2, max_size=n // 2))
    return Colouring.from_edge_colours(
        n, q, lambda u, v: by_distance[min((v - u) % n, (u - v) % n) - 1]
    )


def _flipped(col: Colouring, u: int, v: int) -> Colouring:
    """``col`` with the 2-colour edge (u, v) given the other colour."""
    matrix = col.matrix()
    matrix[u, v] = matrix[v, u] = 1 - matrix[u, v]
    return Colouring.from_matrix(matrix, 2)


class TestPaleyOracle:
    # Rousseau and Sheehan: every edge of P_q has exactly (q - 5)/4 common
    # neighbours in its own colour, so that is the maximum k=2 book
    @pytest.mark.parametrize("q", PALEY_PRIMES)
    def test_max_book_k2_closed_form(self, q):
        col = paley_colouring(q)
        cert = max_book(col, 2)
        assert cert.colour == 0
        assert cert.page_count == (q - 5) // 4
        assert verify_certificate(col, cert, cert.page_count).ok

    # the maximum k=3 books measured on the full path
    @pytest.mark.parametrize(
        "q, pages",
        [(13, 0), (17, 0), (29, 2), (37, 4), (41, 4), (53, 6), (61, 6), (101, 12), (1021, 132)],
    )
    def test_max_book_k3_measured(self, q, pages):
        col = paley_colouring(q)
        cert = max_book(col, 3)
        assert cert.colour == 0 and cert.page_count == pages
        assert verify_certificate(col, cert, pages).ok

    @pytest.mark.parametrize("q", [q for q in PALEY_PRIMES if q <= 257])
    def test_max_book_k4_equals_full_path(self, q):
        col = paley_colouring(q)
        assert max_book(col, 4) == _full_path(col, 4)

    def test_dense_equals_bitset(self):
        col = paley_colouring(197)
        for k in (2, 3):
            assert _max_book_dense(col, k) == _max_book_bitset(col, k)


def _walked(monkeypatch):
    """Record the ``stop`` of every ``_spine_blocks`` call, and the smallest
    spine vertex of every row of the blocks it yields."""
    stops, firsts = [], set()
    blocks = books._spine_blocks

    def recorded(a, k, bar=lambda: -1, stop=None):
        stops.append(stop)
        for heads, labels, pages, mask in blocks(a, k, bar, stop):
            firsts.update(map(int, heads[:, 0] if heads.shape[1] else labels))
            yield heads, labels, pages, mask

    monkeypatch.setattr(books, "_spine_blocks", recorded)
    return stops, firsts


class TestCirculant:
    @given(circulants(), st.integers(1, 5))
    @settings(max_examples=300, deadline=None)
    def test_certificate_equals_full_path(self, col, k):
        assert col.is_circulant()
        cert = max_book(col, k)
        assert cert == _full_path(col, k)
        assert _oracle_form(cert) == _max_book_bitset(col, k)

    def test_check(self, pentagon):
        assert pentagon.is_circulant() and all_one_colour(9).is_circulant()
        assert all_one_colour(1).is_circulant()
        assert not random_colouring(64, 1).is_circulant()
        # the blow-up is block-major: vertex v lies in part v // 2
        assert not multicolour_blowup(pentagon, 2).is_circulant()

    @pytest.mark.parametrize("u, v", [(0, 1), (3, 17), (27, 28)])
    def test_flipped_edge_takes_the_full_path(self, u, v, monkeypatch):
        # rows u and v alone stop being rotations of row 0, so the check
        # reads on to row u, and the best spine may avoid vertex 0
        col = _flipped(paley_colouring(29), u, v)
        assert not col.is_circulant()
        stops, _ = _walked(monkeypatch)
        for k in (2, 3, 4):
            cert = max_book(col, k)
            assert cert == _full_path(col, k)
            assert _oracle_form(cert) == _max_book_bitset(col, k)
        assert set(stops) == {col.n}

    def test_max_book_walks_vertex_zero_alone(self, monkeypatch):
        stops, firsts = _walked(monkeypatch)
        for k in (1, 2, 3, 4):
            max_book(paley_colouring(29), k)
        assert stops == [1, 1] * 4 and firsts == {0}
        for k in (1, 2, 3, 4):
            max_book(random_colouring(29, 1), k)
        assert stops[8:] == [29, 29] * 4 and len(firsts) > 1

    @pytest.mark.parametrize("k", [1, 2, 3])
    def test_local_profile_walks_every_vertex(self, k, monkeypatch):
        col = paley_colouring(37)
        stops, firsts = _walked(monkeypatch)
        assert _profile_dense(col, k) == _profile_enumerate(col, k)
        assert stops == [None, None] and len(firsts) > 1
        assert local_profile(col, k).best == max_book(col, k)


def _in_threads(monkeypatch):
    """Make the dense path run its colours on two threads whatever the
    machine and colouring size; returns the (thread, BLAS share) of every
    worker's call to the BLAS limit, which still reaches OpenBLAS when numpy's
    has it."""
    real = books._blas_thread_limit()
    calls = []

    def limit(share):
        calls.append((threading.get_ident(), share))
        return 0 if real is None else real(share)

    monkeypatch.setattr(books, "_blas_thread_limit", lambda: limit)
    monkeypatch.setattr(books, "_usable_cpus", lambda: 2)
    monkeypatch.setattr(books, "THREADED_MIN_VERTICES", 1)
    return calls


THREADED_INPUTS = {
    "random-200": lambda: random_colouring(200, 6),
    # self-complementary: both colours tie, so colour 0 must win
    "paley-13": lambda: paley_colouring(13),
    "two-blocks-200": lambda: Colouring.from_edge_colours(
        200, 2, lambda u, v: 0 if (u < 100) == (v < 100) else 1
    ),
    # q = 3 colours on two workers
    "pentagon-blowup-200": lambda: multicolour_blowup(pentagon_colouring(), 40),
    # colour 1 has no edge, so no spine
    "empty-colour-60": lambda: Colouring.from_edge_colours(60, 3, lambda u, v: 0 if (u + v) % 3 else 2),
}


class TestColourThreads:
    @pytest.mark.parametrize("k", [2, 3])
    @pytest.mark.parametrize("name", sorted(THREADED_INPUTS))
    def test_threads_equal_one_worker_and_oracles(self, name, k, monkeypatch):
        col = THREADED_INPUTS[name]()
        with monkeypatch.context() as m:
            m.setattr(books, "_blas_thread_limit", lambda: None)
            assert books._colour_workers(col) == 1
            one_worker = (_max_book_dense(col, k), _profile_dense(col, k))
        calls = _in_threads(monkeypatch)
        assert books._colour_workers(col) == 2
        threaded = (_max_book_dense(col, k), _profile_dense(col, k))
        assert calls and all(ident != threading.get_ident() and share == 1 for ident, share in calls)
        assert threaded == one_worker
        assert threaded[0] == _max_book_bitset(col, k)
        assert threaded[1] == _profile_enumerate(col, k)

    def test_paley_tie_goes_to_colour_zero(self, monkeypatch):
        _in_threads(monkeypatch)
        col = paley_colouring(13)
        for k in (2, 3):
            pages, colour, _ = _max_book_dense(col, k)
            assert colour == 0 and pages == (2 if k == 2 else 0)

    def test_task_exception_reaches_caller(self, monkeypatch):
        _in_threads(monkeypatch)

        def task(c):
            if c == 1:
                raise RuntimeError("colour 1 failed")
            return c

        with pytest.raises(RuntimeError, match="colour 1 failed"):
            books._map_colours(THREADED_INPUTS["pentagon-blowup-200"](), task)

    @pytest.mark.parametrize("cause", ["no-limit", "one-cpu", "small"])
    def test_one_worker_starts_no_thread(self, cause, monkeypatch):
        _in_threads(monkeypatch)
        if cause == "no-limit":
            monkeypatch.setattr(books, "_blas_thread_limit", lambda: None)
        elif cause == "one-cpu":
            monkeypatch.setattr(books, "_usable_cpus", lambda: 1)
        else:
            monkeypatch.setattr(books, "THREADED_MIN_VERTICES", 201)
        col = THREADED_INPUTS["pentagon-blowup-200"]()
        before = threading.active_count()
        seen = books._map_colours(col, lambda c: (c, threading.get_ident(), threading.active_count()))
        assert seen == [(c, threading.get_ident(), before) for c in range(col.q)]

    def test_blas_limit_is_per_thread(self):
        limit = books._blas_thread_limit()
        assert limit is None or callable(limit)
        if limit is not None:
            # it returns the calling thread's previous setting
            shares = []
            worker = threading.Thread(target=lambda: shares.extend((limit(1), limit(1))))
            worker.start()
            worker.join(timeout=10)
            assert not worker.is_alive() and shares[1] == 1


    @pytest.mark.parametrize("k", [4, 5])
    @pytest.mark.parametrize("name", ["random-200", "paley-13", "pentagon-blowup-200", "empty-colour-60"])
    def test_threads_deep_spines_equal_oracle(self, name, k, monkeypatch):
        col = THREADED_INPUTS[name]()
        calls = _in_threads(monkeypatch)
        assert _max_book_dense(col, k) == _max_book_bitset(col, k)
        assert calls and all(ident != threading.get_ident() for ident, _ in calls)

    def test_calling_thread_blas_limit_restored(self):
        # the descent runs on one OpenBLAS thread and must hand the calling
        # thread back its own limit, which every later product in the
        # process inherits
        limit = books._blas_thread_limit()
        if limit is None:
            pytest.skip("numpy's OpenBLAS has no per-thread limit")
        original = limit(3)
        try:
            assert max_book(random_colouring(64, 1), 4) is not None
            assert limit(3) == 3
        finally:
            limit(original)


def _small_colouring(kind: str, n: int, q: int, seed: int) -> Colouring:
    """A colouring of K_n in q colours: uniform ("random"); uniform over all
    but the last colour, which stays empty ("empty-colour"); consecutive
    blocks of a random size that are cliques of colour 0, so equal books
    abound ("blocks"); or every edge in the last colour ("one-colour")."""
    rng = random.Random(seed)
    if kind == "random":
        return Colouring.from_edge_colours(n, q, lambda u, v: rng.randrange(q))
    if kind == "empty-colour":
        return Colouring.from_edge_colours(n, q, lambda u, v: rng.randrange(q - 1))
    if kind == "blocks":
        size = rng.randrange(1, 7)
        return Colouring.from_edge_colours(
            n, q, lambda u, v: 0 if u // size == v // size else 1 + (u + v) % (q - 1)
        )
    return Colouring.from_edge_colours(n, q, lambda u, v: q - 1)


class TestDescent:
    @given(
        st.sampled_from(("random", "empty-colour", "blocks", "one-colour")),
        st.integers(1, 20),
        st.sampled_from((2, 3)),
        st.integers(1, 6),
        st.integers(0, 10**6),
    )
    @example("blocks", 20, 3, 6, 0)  # K_6 blocks of colour 0: 3 of them tie at 0 pages
    @example("blocks", 20, 2, 6, 1)  # blocks of 5: k above colour 0's clique number
    @example("one-colour", 5, 2, 6, 0)  # k above n
    @settings(max_examples=300, deadline=None)
    def test_matches_brute_force(self, kind, n, q, k, seed):
        col = _small_colouring(kind, n, q, seed)
        histograms, best = _brute_force(col, k)
        assert max_book(col, k) == best
        profile = local_profile(col, k)
        assert profile.histograms == histograms
        assert profile.best == best

    @pytest.mark.parametrize(
        "col, k",
        [
            (pentagon_colouring(), 3),
            # colours 0 and 1 are triangle-free and colour 2 is five K_2
            (multicolour_blowup(pentagon_colouring(), 2), 3),
            (all_one_colour(7), 6),
            (all_one_colour(7), 8),
        ],
        ids=["pentagon-3", "blowup-10-3", "red-7-6", "red-7-8"],
    )
    def test_clique_number_edges_match_brute_force(self, col, k):
        histograms, best = _brute_force(col, k)
        assert max_book(col, k) == best
        assert local_profile(col, k).histograms == histograms

    @pytest.mark.parametrize("k", [4, 5])
    @pytest.mark.parametrize(
        "make",
        [
            lambda: paley_colouring(29),
            lambda: paley_colouring(37),
            lambda: paley_colouring(101),
            lambda: random_colouring(192, 23),
            lambda: random_colouring(192, 24),
        ],
        ids=["paley-29", "paley-37", "paley-101", "random-192-23", "random-192-24"],
    )
    def test_certificates_match_reference(self, make, k):
        # P_29 and P_37 have no monochromatic K_5, so both searches give None
        col = make()
        found = _max_book_bitset(col, k)
        assert _max_book_dense(col, k) == found
        assert (found is None) == (k == 5 and col.n < 100)
        if found is not None:
            _, colour, spine = found
            pages = tuple(bits(common_pages(col, colour, spine)))
            assert max_book(col, k) == BookCertificate(colour, spine, pages)

    @pytest.mark.parametrize("k", [4, 5])
    def test_paley_profiles_match_reference(self, k):
        for q in (29, 37):
            col = paley_colouring(q)
            assert _profile_dense(col, k) == _profile_enumerate(col, k)

    @pytest.mark.parametrize("chunk", [1, 7])
    def test_chunk_size_leaves_results(self, chunk, monkeypatch):
        monkeypatch.setattr(books, "_CHUNK", chunk)
        col = random_colouring(48, 3)
        for k in (4, 5):
            assert _max_book_dense(col, k) == _max_book_bitset(col, k)
            assert _profile_dense(col, k) == _profile_enumerate(col, k)

    @given(st.integers(1, 16), st.integers(3, 6), st.integers(-1, 6), st.integers(0, 10**6))
    @settings(max_examples=200, deadline=None)
    def test_fixed_bar_reaches_exactly_the_live_prefixes(self, n, k, bar, seed):
        # with a bar that stays put, the last-level rows are the (k-1)-cliques
        # whose smallest vertex has k-1 later neighbours and more than bar + k-1
        # neighbours, and whose every prefix of 3 or more vertices has more
        # pages than bar plus the picks still to make, in lexicographic order
        col = random_small(n, seed)
        rows = col.adj[0]

        def live(prefix):
            u = prefix[0]
            if (rows[u] >> u + 1).bit_count() < k - 1 or rows[u].bit_count() - (k - 1) <= bar:
                return False
            return all(common_pages(col, 0, prefix[:size]).bit_count() - (k - size) > bar
                       for size in range(3, k))

        expected = [
            prefix
            for prefix in itertools.combinations(range(n), k - 1)
            if _is_clique(col, 0, prefix) and live(prefix)
        ]
        reached = []
        for heads, labels, pages, mask in books._spine_blocks(col.dense(0), k, lambda: bar):
            for r, j in zip(*mask.nonzero()):
                spine = (*map(int, heads[r]), int(labels[j]))
                assert pages[r, j] == common_pages(col, 0, spine).bit_count()
                assert _is_clique(col, 0, spine)
            reached += [tuple(map(int, head)) for head in heads]
        assert reached == expected

    @pytest.mark.parametrize("k", [4, 5, 6])
    def test_all_red_reaches_one_row(self, k, monkeypatch):
        # every k-spine of the all-red K_12 has 12 - k pages, so once the
        # first is found no branch can beat it: with one-row chunks the
        # descent reaches a single last-level row, where a prune keeping
        # ties or a bar read once per level would reach more
        monkeypatch.setattr(books, "_CHUNK", 1)
        rows = []
        blocks = books._spine_blocks

        def counted(*args):
            for block in blocks(*args):
                rows.append(len(block[0]))
                yield block

        monkeypatch.setattr(books, "_spine_blocks", counted)
        cert = max_book(all_one_colour(12), k)
        assert (cert.colour, cert.spine, cert.page_count) == (0, tuple(range(k)), 12 - k)
        assert rows == [1]

    def test_memory_is_bounded(self):
        # the descent builds at most _CHUNK clique rows a level at a time;
        # building every extension of a level at once would take gigabytes
        col = random_colouring(384, 2)
        tracemalloc.start()
        try:
            assert max_book(col, 5) is not None
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 64 * 2**20


class TestHasMonoBook:
    def test_all_red_k6(self):
        assert has_mono_book(all_one_colour(6), 2, 4)

    def test_pentagon(self, pentagon):
        assert not has_mono_book(pentagon, 2, 1)

    def test_spine_above_vertex_count(self, pentagon):
        # no spine of more than n vertices fits K_n, even in one colour
        for col in (all_one_colour(1), all_one_colour(4), pentagon):
            for k in (col.n + 1, col.n + 2):
                assert not has_mono_book(col, k, 1)

    def test_agrees_with_max_book_on_random_triples(self):
        rng = random.Random(17)
        for _ in range(200):
            n = rng.randrange(4, 12)
            col = random_small(n, rng.randrange(10_000))
            k = rng.randrange(1, 4)
            bound = rng.randrange(1, 6)
            cert = max_book(col, k)
            expected = cert is not None and cert.page_count >= bound
            assert has_mono_book(col, k, bound) == expected


class TestVerifyCertificate:
    def test_accepts_valid(self):
        col = all_one_colour(5)
        cert = BookCertificate(0, (0, 1), (2, 3, 4))
        assert verify_certificate(col, cert, 3).ok

    def test_rejects_bad_page_with_witness_pair(self, pentagon):
        # vertex 3 is not a red neighbour of 0
        cert = BookCertificate(0, (0, 1), (3,))
        verdict = verify_certificate(pentagon, cert, 1)
        assert not verdict.ok
        assert verdict.reason == "page-not-joined"
        assert verdict.witness == (3, 0)

    def test_rejects_out_of_range(self):
        col = all_one_colour(4)
        verdict = verify_certificate(col, BookCertificate(0, (0, 9), ()), 0)
        assert verdict.reason == "range" and verdict.witness == (9,)

    def test_fuzzed_mutations_all_rejected_with_real_reasons(self):
        col = random_small(10, 23)
        cert = max_book(col, 2)
        assert verify_certificate(col, cert, cert.page_count).ok
        rng = random.Random(5)
        rejected = 0
        attempts = 0
        while rejected < 100 and attempts < 3000:
            attempts += 1
            mutated = _mutate(cert, rng)
            verdict = verify_certificate(col, mutated, cert.page_count)
            if verdict.ok:
                continue  # a mutation may accidentally stay valid
            rejected += 1
            assert _recheck_reason(col, mutated, cert.page_count, verdict)
        assert rejected == 100

    def test_check_order_is_documented_first_failure(self):
        col = all_one_colour(5)
        # both a range error and a join error: range wins
        verdict = verify_certificate(col, BookCertificate(0, (0, 7), (0,)), 1)
        assert verdict.reason == "range"


def _mutate(cert: BookCertificate, rng: random.Random) -> BookCertificate:
    kind = rng.randrange(5)
    spine, pages, colour = list(cert.spine), list(cert.pages), cert.colour
    if kind == 0 and pages:
        pages[rng.randrange(len(pages))] = rng.randrange(12)
    elif kind == 1:
        spine[rng.randrange(len(spine))] = rng.randrange(12)
    elif kind == 2:
        colour = 1 - colour
    elif kind == 3 and pages:
        pages[rng.randrange(len(pages))] = spine[0]
    else:
        pages = pages + [rng.randrange(15)]
    return BookCertificate(colour, tuple(spine), tuple(pages))


def _recheck_reason(col, cert, n, verdict) -> bool:
    """Independent re-check that the named violation really holds."""
    reason, witness = verdict.reason, verdict.witness
    if reason == "range":
        (v,) = witness
        return not 0 <= v < col.n
    if reason == "colour":
        return not 0 <= cert.colour < col.q
    if reason == "spine-duplicate":
        return len(set(cert.spine)) != len(cert.spine)
    if reason == "page-duplicate":
        return len(set(cert.pages)) != len(cert.pages)
    if reason == "spine-not-clique":
        u, v = witness
        return col.colour_of(u, v) != cert.colour
    if reason == "page-overlaps-spine":
        (v,) = witness
        return v in cert.spine
    if reason == "page-not-joined":
        p, u = witness
        return col.colour_of(p, u) != cert.colour
    if reason == "too-few-pages":
        return len(cert.pages) < n
    return False


class TestLocalProfile:
    def test_all_red_k5(self):
        profile = local_profile(all_one_colour(5), 2)
        assert profile.histograms == ({3: 10}, {})

    def test_pentagon_k1(self, pentagon):
        profile = local_profile(pentagon, 1)
        assert profile.histograms == ({2: 5}, {2: 5})

    def test_totals_match_clique_counts(self):
        for seed in (3, 4):
            col = random_small(11, seed)
            for k in (1, 2, 3):
                profile = local_profile(col, k)
                counts = count_mono_cliques(col, k)
                for c in (0, 1):
                    assert sum(profile.histograms[c].values()) == counts[c]

    def test_best_matches_max_book(self):
        col = random_small(12, 9)
        for k in (1, 2, 3):
            assert local_profile(col, k).best == max_book(col, k)

    def test_k128_mean_close_to_binomial_model(self):
        # under the binomial model a spine's page count is Bin(N-2, 1/4);
        # the per-colour histogram mean must sit within 3 sigma of (N-2)/4
        sigma = (126 * (1 / 4) * (3 / 4)) ** 0.5
        for seed in (101, 102, 103):
            col = random_colouring(128, seed)
            profile = local_profile(col, 2)
            for c in (0, 1):
                hist = profile.histograms[c]
                total = sum(hist.values())
                mean = sum(p * m for p, m in hist.items()) / total
                assert abs(mean - 126 / 4) < 3 * sigma

    def test_tsv_rendering(self, pentagon):
        text = profile_tsv(local_profile(pentagon, 1))
        assert text == "colour\t0\n2\t5\ncolour\t1\n2\t5\n"

    @pytest.mark.parametrize("k", [2, 3])
    def test_dense_equals_enumeration(self, k):
        for col in (
            random_colouring(200, 5),
            paley_colouring(197),
            # two red blocks joined in blue, and three colours: heavy ties
            Colouring.from_edge_colours(200, 2, lambda u, v: 0 if (u < 100) == (v < 100) else 1),
            multicolour_blowup(pentagon_colouring(), 40),
        ):
            assert _profile_dense(col, k) == _profile_enumerate(col, k)


class TestInvariants:
    def test_spine_page_sum_identity(self):
        # per colour, total pages over size-k spines = (k+1) * (#mono (k+1)-cliques)
        for seed in range(6):
            col = random_small(12, seed)
            for k in (1, 2, 3):
                totals = _page_totals(local_profile(col, k))
                bigger = count_mono_cliques(col, k + 1)
                for c in (0, 1):
                    assert totals[c] == (k + 1) * bigger[c]

    def test_max_at_least_average(self):
        for seed in range(4):
            col = random_small(10, seed)
            for k in (1, 2):
                cert = max_book(col, k)
                counts = count_mono_cliques(col, k)
                totals = _page_totals(local_profile(col, k))
                spines = sum(counts)
                if spines:
                    assert cert.page_count * spines >= sum(totals)

    def test_goodman_floor_pentagon(self, pentagon):
        assert sum(count_mono_cliques(pentagon, 3)) == 0

    def test_vertex_extension_monotone(self):
        rng = random.Random(31)
        for seed in range(10):
            col = random_small(8, seed)
            base = max_book(col, 2).page_count
            extended = Colouring.from_edge_colours(
                9,
                2,
                lambda u, v: col.colour_of(u, v) if v < 8 else rng.randrange(2),
            )
            assert max_book(extended, 2).page_count >= base


def _page_totals(profile):
    """Per colour, the sum of page counts over all spines of the profile."""
    return tuple(sum(p * n for p, n in hist.items()) for hist in profile.histograms)
