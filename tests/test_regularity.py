"""Density pipeline: regularity checks, partitions, reduced graphs,
transversal spines, and the extraction case analysis."""

import dataclasses
import itertools
import math
import random
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bookram.books import max_book, verify_certificate
from bookram.colouring import BLUE, RED, Colouring, common_pages, mask_of, mono_cliques
from bookram.constructions import random_colouring
from bookram import regularity
from bookram.regularity import (
    EquitablePartition,
    ReducedGraph,
    _FUZZ,
    _SELF_PROBES,
    _find_blowup,
    _probe_deviations,
    _probe_draws,
    _probe_floor,
    _regular_subsets,
    _stacked_hits,
    _transversal_scan,
    balanced_swap_search,
    build_reduced,
    extract_book,
    make_partition,
    transversal_best_spine,
)

from conftest import all_one_colour, random_small


def two_block_colouring(half: int) -> Colouring:
    """Red inside each of two blocks, blue across."""
    return Colouring.from_edge_colours(
        2 * half, 2, lambda u, v: 0 if (u < half) == (v < half) else 1
    )


def matching_colouring(half: int) -> Colouring:
    """Red perfect matching between the two halves, blue elsewhere."""
    return Colouring.from_edge_colours(
        2 * half, 2, lambda u, v: 0 if v - u == half else 1
    )


# Reference oracles: the bitmask loops that the dense regularity code
# replaced, kept to pin the random draws and every float they produce.


def pair_density(col, colour, a, b):
    """Edge density of ``colour`` between vertex sets a and b.

    Uses the ordered-pair convention e(A,B)/|A||B| throughout, so for a == b
    both orientations of each internal edge are counted and the diagonal is
    not.
    """
    a, b = tuple(a), tuple(b)
    if not a or not b:
        raise ValueError("density of an empty set is undefined")
    mb = mask_of(b)
    hits = sum((col.adj[colour][u] & mb).bit_count() for u in a)
    return hits / (len(a) * len(b))


def reference_sampled_check(col, colour, a, b, eps, trials, seed):
    """The first of ``trials`` random probe pairs of (a, b) whose density
    deviates from the pair's by more than eps, as (its trial number from 1,
    its sorted vertices of a, of b, its density), or None when no trial
    does; one pair_density per trial."""
    a, b = tuple(a), tuple(b)
    base = pair_density(col, colour, a, b)
    qa = max(1, math.ceil(eps * len(a) - 1e-9))
    qb = max(1, math.ceil(eps * len(b) - 1e-9))
    rng = np.random.default_rng(seed)
    for trial in range(trials):
        su = int(rng.integers(qa, len(a) + 1))
        sv = int(rng.integers(qb, len(b) + 1))
        usub = tuple(sorted(a[i] for i in rng.choice(len(a), su, replace=False)))
        vsub = tuple(sorted(b[i] for i in rng.choice(len(b), sv, replace=False)))
        d = pair_density(col, colour, usub, vsub)
        if abs(d - base) > eps + 1e-12:
            return trial + 1, usub, vsub, d
    return None


def sampled_check(col, colour, a, b, eps, trials, seed=0):
    """The gate verdict of _probe_deviations on the a x b block of one
    colour alone."""
    a, b = tuple(a), tuple(b)
    block = col.dense(colour).take(a, 0).take(b, 1)
    return bool(_probe_deviations([block], eps, trials, [seed], False)[0] <= eps + _FUZZ)


def assert_gate_probes(seeds, trials, eps, sizes):
    """The probes _probe_draws decodes for gates of ``sizes`` (pairs of side
    lengths) at eps equal the per-trial calls of each seed."""
    qa, na, qb, nb = zip(
        *((regularity._probe_floor(eps, x), x, regularity._probe_floor(eps, y), y) for x, y in sizes)
    )
    want = [loop_probes(s, trials, *z) for s, z in zip(seeds, zip(qa, na, qb, nb))]
    assert batched_probes(seeds, trials, qa, na, qb, nb) == want


def reference_loopless_density(col, colour, a, b):
    mb = mask_of(b)
    hits = sum((col.adj[colour][u] & mb).bit_count() for u in a)
    denom = len(a) * len(b) - len(set(a) & set(b))
    return hits / denom if denom else None


def reference_self_score(col, verts, eta, rng, probes=24):
    """The self-regularity score of a vertex tuple, from bitmask rows."""
    base = reference_loopless_density(col, RED, verts, verts)
    q = max(1, math.ceil(eta * len(verts) - 1e-9))
    worst = 0.0
    for _ in range(probes):
        su = int(rng.integers(q, len(verts) + 1))
        sv = int(rng.integers(q, len(verts) + 1))
        usub = [verts[i] for i in rng.choice(len(verts), su, replace=False)]
        vsub = [verts[i] for i in rng.choice(len(verts), sv, replace=False)]
        dens = reference_loopless_density(col, RED, usub, vsub)
        if dens is not None:
            worst = max(worst, abs(dens - base))
    return worst


def reference_swap_search(col, m, seed, steps):
    """balanced_swap_search with every probe density a pair_density call."""
    rng = np.random.default_rng(seed)
    perm = rng.permutation(col.n)
    classes = [[] for _ in range(m)]
    for pos, v in enumerate(perm):
        classes[pos % m].append(int(v))
    for cl in classes:
        cl.sort()
    patterns = []
    for cl in classes:
        psize = max(1, len(cl) // 2)
        patterns.append(
            [tuple(sorted(int(i) for i in rng.choice(len(cl), psize, replace=False))) for _ in range(3)]
        )

    def pair_score(i, j):
        base = pair_density(col, RED, classes[i], classes[j])
        worst = 0.0
        for pa in patterns[i]:
            for pb in patterns[j]:
                dens = pair_density(col, RED, [classes[i][p] for p in pa], [classes[j][p] for p in pb])
                worst = max(worst, abs(dens - base))
        return worst

    score = {(i, j): pair_score(i, j) for i in range(m) for j in range(i + 1, m)}
    initial = total = sum(score.values())
    for _ in range(steps if m >= 2 else 0):
        i, j = (int(x) for x in rng.choice(m, 2, replace=False))
        u = classes[i][int(rng.integers(len(classes[i])))]
        v = classes[j][int(rng.integers(len(classes[j])))]
        for cl, out, into in ((classes[i], u, v), (classes[j], v, u)):
            cl.remove(out)
            cl.append(into)
            cl.sort()
        new_vals = {key: pair_score(*key) for key in score if i in key or j in key}
        delta = 0.0
        for key, nv in new_vals.items():
            delta += nv - score[key]
        if delta < -1e-12:
            score.update(new_vals)
            total += delta
        else:
            for cl, out, into in ((classes[i], v, u), (classes[j], u, v)):
                cl.remove(out)
                cl.append(into)
                cl.sort()
    return classes, initial, total


def _self_regularity_score(block, eta, seed):
    """The self-regularity score of one square block, drawn from a fresh
    generator of ``seed``."""
    return float(_probe_deviations([block], eta, _SELF_PROBES, [seed], True)[0])


# The two loops that _probe_deviations replaced, as they were: the gate
# verdicts of build_reduced and the subset scores of _regular_subsets.


def _sampled_gates(blocks, eps: float, trials: int, seeds) -> np.ndarray:
    """Sampled regularity of each 0/1 block, its probes drawn from a fresh
    generator of its own seed: True where no probe's density deviates from
    the block's by more than eps."""
    na = [b.shape[0] for b in blocks]
    nb = [b.shape[1] for b in blocks]
    qa = [_probe_floor(eps, n) for n in na]
    qb = [_probe_floor(eps, n) for n in nb]
    base = np.array([int(b.sum()) / b.size for b in blocks])
    # no trial at all leaves every gate passed
    passed = np.ones(len(blocks), dtype=bool)
    for lo, su, sv, rows_a, rows_b in _probe_draws(seeds, trials, qa, na, qb, nb):
        part = slice(lo, lo + len(su))
        dens = _stacked_hits(blocks[part], rows_a, rows_b) / (su * sv)
        passed[part] = (np.abs(dens - base[part, None]) <= eps + _FUZZ).all(1)
    return passed


def _self_regularity_scores(blocks, eta, seeds) -> list[float]:
    """For each square red 0/1 block, the max sampled deviation
    |d(U', V') - d(W, W)| over _SELF_PROBES random probe pairs drawn from a
    fresh generator of its own seed in ``seeds``.  Densities are loopless:
    they count only ordered pairs of distinct vertices, so a complete graph
    scores exactly 1 at any size.  Lower is better; probes with no such pair
    are skipped."""
    n = [len(b) for b in blocks]
    q = [_probe_floor(eta, size) for size in n]
    # below two vertices no probe has a pair, so the base is never read
    base = np.array([int(b.sum()) / max(size * size - size, 1) for b, size in zip(blocks, n)])
    worst = np.zeros(len(blocks))
    for lo, su, sv, rows_u, rows_v in _probe_draws(seeds, _SELF_PROBES, q, n, q, n):
        part = slice(lo, lo + len(su))
        hits = _stacked_hits(blocks[part], rows_u, rows_v)
        pairs = su * sv - (rows_u * rows_v).sum(2)
        dev = np.abs(hits / np.maximum(pairs, 1) - base[part, None])
        worst[part] = np.maximum(worst[part], np.where(pairs > 0, dev, 0.0).max(1))
    return worst.tolist()


def red_matrix(col, verts):
    """0/1 red adjacency among ``verts``, read edge by edge."""
    return np.array(
        [[int(u != v and col.colour_of(u, v) == RED) for v in verts] for u in verts],
        dtype=np.uint8,
    )


def colouring_for(kind: str, n: int, seed: int) -> Colouring:
    if kind == "matching":
        return matching_colouring(n // 2)
    if kind == "two-block":
        return two_block_colouring(n // 2)
    return random_small(n, seed)


class TestPairDensity:
    def test_all_red(self):
        col = all_one_colour(8)
        assert pair_density(col, 0, range(3), range(3, 8)) == 1.0
        assert pair_density(col, 1, range(3), range(3, 8)) == 0.0

    def test_pentagon_vertex_row(self, pentagon):
        assert pair_density(pentagon, 0, (0,), (1, 2, 3, 4)) == 0.5

    def test_self_pair_counts_both_orientations(self):
        col = all_one_colour(4)
        # e(A,A) = 12 ordered pairs over |A|^2 = 16
        assert pair_density(col, 0, range(4), range(4)) == 0.75

    def test_matches_naive_double_loop(self):
        import random as _r

        col = random_colouring(64, 9)
        rng = _r.Random(1)
        for _ in range(50):
            a = rng.sample(range(64), rng.randrange(1, 10))
            b = rng.sample(range(64), rng.randrange(1, 10))
            naive = sum(
                1 for u in a for v in b if u != v and col.colour_of(u, v) == 0
            ) / (len(a) * len(b))
            assert pair_density(col, 0, a, b) == pytest.approx(naive)

    def test_empty_set_rejected(self):
        with pytest.raises(ValueError):
            pair_density(all_one_colour(3), 0, (), (1,))


@pytest.fixture
def decoded(monkeypatch):
    """The trial counts of the _decode_probes calls, in order."""
    counts = []
    original = regularity._decode_probes
    monkeypatch.setattr(
        regularity, "_decode_probes", lambda *args: counts.append(args[1]) or original(*args)
    )
    return counts


class TestEpsRegularCheck:
    """The sampled eps-regularity check of one pair: the gate verdict of
    _probe_deviations on its block against the per-trial oracle."""

    def test_sampled_finds_matching_violation(self):
        col = matching_colouring(10)
        a, b = range(10), range(10, 20)
        got = sampled_check(col, RED, a, b, 0.2, 10_000, seed=4)
        want = reference_sampled_check(col, RED, a, b, 0.2, 10_000, 4)
        assert want is not None and got == (want is None)
        *_, dens = want
        assert abs(dens - pair_density(col, RED, a, b)) > 0.2
        assert_gate_probes([4], 10_000, 0.2, [(10, 10)])

    @given(st.data())
    @settings(max_examples=150, deadline=None)
    def test_sampled_matches_reference(self, data):
        kind = data.draw(st.sampled_from(["random", "matching", "two-block"]))
        n = data.draw(st.integers(4, 48).map(lambda x: x - x % 2))
        col = colouring_for(kind, n, data.draw(st.integers(0, 10_000)))
        a = data.draw(st.lists(st.integers(0, n - 1), min_size=1, max_size=n, unique=True))
        b = data.draw(st.lists(st.integers(0, n - 1), min_size=1, max_size=n, unique=True))
        colour = data.draw(st.sampled_from([RED, BLUE]))
        eps = data.draw(st.floats(0.01, 0.6))
        trials = data.draw(st.integers(1, 300))
        seed = data.draw(st.one_of(st.integers(0, 2**32), st.lists(st.integers(0, 9999), max_size=4)))
        got = sampled_check(col, colour, a, b, eps, trials, seed)
        want = reference_sampled_check(col, colour, a, b, eps, trials, seed)
        assert got == (want is None)
        assert_gate_probes([seed], trials, eps, [(len(a), len(b))])

    def test_sampled_decodes_long_runs_in_one_call(self, decoded):
        # 2,000 trials of a 16 by 16 block fit one call of _CELL_CAP cells,
        # whether a trial fails or none does
        col = matching_colouring(16)
        a, b = range(16), range(16, 32)
        assert reference_sampled_check(col, RED, a, b, 0.1, 2000, 1)[0] == 218
        assert sampled_check(col, RED, a, b, 0.1, 2000, seed=1) is False
        assert reference_sampled_check(col, RED, a, b, 0.9, 2000, 1) is None
        assert sampled_check(col, RED, a, b, 0.9, 2000, seed=1) is True
        assert decoded == [2000, 2000]
        for eps in (0.1, 0.9):
            assert_gate_probes([1], 2000, eps, [(16, 16)])

    def test_sampled_gate_above_the_cap_is_one_call(self, decoded, monkeypatch):
        # a cap of 100 trials of this block does not split one gate's run:
        # all 2,000 trials are decoded in one call, with the reference verdict
        monkeypatch.setattr(regularity, "_CELL_CAP", 2 * 16 * 100)
        col = matching_colouring(16)
        a, b = range(16), range(16, 32)
        got = sampled_check(col, RED, a, b, 0.1, 2000, seed=1)
        want = reference_sampled_check(col, RED, a, b, 0.1, 2000, 1)
        assert got == (want is None)
        assert want[0] == 218 and decoded == [2000]
        decoded.clear()
        assert sampled_check(col, RED, a, b, 0.9, 2000, seed=1) is True
        assert reference_sampled_check(col, RED, a, b, 0.9, 2000, 1) is None
        assert decoded == [2000]
        decoded.clear()
        assert_gate_probes([1], 2000, 0.1, [(16, 16)])
        assert decoded == [2000]

    def test_sampled_matches_reference_on_irregular_pairs(self):
        # the matching and two-block pairs fail in some trial, so failing
        # verdicts are compared, not just "regular", and every probe of
        # these seeds is compared with the calls
        irregular = 0
        for col, a, b in (
            (matching_colouring(12), range(12), range(12, 24)),
            (two_block_colouring(12), range(6, 18), range(24)),
        ):
            for eps in (0.05, 0.1, 0.2):
                assert_gate_probes(list(range(5)), 200, eps, [(len(a), len(b))] * 5)
                for colour in (RED, BLUE):
                    for seed in range(5):
                        got = sampled_check(col, colour, a, b, eps, 200, seed)
                        want = reference_sampled_check(col, colour, a, b, eps, 200, seed)
                        assert got == (want is None)
                        irregular += want is not None
        assert irregular >= 30


class TestPickRegularSubset:
    def test_two_vertex_class_is_itself(self):
        col = all_one_colour(6)
        assert _regular_subsets(col, [(2, 5)], 0.2, 8, [[0]]) == [(2, 5)]

    def test_all_red_returns_first_candidate(self):
        col = all_one_colour(8)
        verts = tuple(range(8))
        (got,) = _regular_subsets(col, [verts], 0.2, 5, [[3]])
        rng = np.random.default_rng([3])
        first = tuple(sorted(verts[i] for i in rng.choice(8, 4, replace=False)))
        assert got == first

    def test_chosen_score_at_most_median(self):
        col = random_colouring(64, 21)
        verts = tuple(range(16))
        trials = 9
        (got,) = _regular_subsets(col, [verts], 0.25, trials, [[8]])
        rng = np.random.default_rng([8])
        cands = [
            tuple(sorted(verts[i] for i in rng.choice(16, 8, replace=False)))
            for _ in range(trials)
        ]
        cands.append(verts)
        scores = [
            reference_self_score(col, c, 0.25, np.random.default_rng([8, 101, ci]))
            for ci, c in enumerate(cands)
        ]
        chosen = min(
            (s for c, s in zip(cands, scores) if c == got), default=None
        )
        assert chosen is not None
        assert chosen <= sorted(scores)[len(scores) // 2]

    @given(st.data())
    @settings(max_examples=150, deadline=None)
    def test_self_score_matches_reference(self, data):
        kind = data.draw(st.sampled_from(["random", "matching", "two-block"]))
        n = data.draw(st.integers(4, 48).map(lambda x: x - x % 2))
        col = colouring_for(kind, n, data.draw(st.integers(0, 10_000)))
        verts = tuple(
            sorted(data.draw(st.lists(st.integers(0, n - 1), min_size=1, max_size=n, unique=True)))
        )
        eta = data.draw(st.floats(0.01, 0.6))
        seed = data.draw(st.integers(0, 2**32))
        got = _self_regularity_score(red_matrix(col, verts), eta, seed)
        want = reference_self_score(col, verts, eta, np.random.default_rng(seed))
        assert repr(got) == repr(want)

    @given(st.data())
    @settings(max_examples=40, deadline=None)
    def test_pick_matches_reference_scores(self, data):
        n = data.draw(st.integers(6, 48))
        col = random_small(n, data.draw(st.integers(0, 10_000)))
        verts = tuple(
            data.draw(st.lists(st.integers(0, n - 1), min_size=3, max_size=n, unique=True))
        )
        eta = data.draw(st.floats(0.01, 0.6))
        trials = data.draw(st.integers(1, 12))
        seed = data.draw(st.integers(0, 2**32))
        # today's candidate order and scores, from the bitmask oracle
        ordered = tuple(sorted(verts))
        size = max(2, (len(ordered) + 1) // 2)
        rng = np.random.default_rng([seed])
        cands = [
            tuple(sorted(ordered[i] for i in rng.choice(len(ordered), size, replace=False)))
            for _ in range(trials)
        ]
        cands.append(ordered)
        best = None
        for ci, cand in enumerate(cands):
            score = reference_self_score(col, cand, eta, np.random.default_rng([seed, 101, ci]))
            if best is None or score < best[0] - 1e-12:
                best = (score, cand)
        assert _regular_subsets(col, [ordered], eta, trials, [[seed]]) == [best[1]]


def loop_probes(seed, trials, qa, na, qb, nb):
    """Per-trial calls of a fresh Generator of ``seed``: (su, sv, sorted
    positions, sorted positions) per probe."""
    rng = np.random.default_rng(seed)
    probes = []
    for _ in range(trials):
        su = int(rng.integers(qa, na + 1))
        sv = int(rng.integers(qb, nb + 1))
        ia = sorted(int(i) for i in rng.choice(na, su, replace=False))
        ib = sorted(int(i) for i in rng.choice(nb, sv, replace=False))
        probes.append((su, sv, ia, ib))
    return probes


def batched_probes(seeds, trials, qa, na, qb, nb):
    """_probe_draws over ``seeds``: what loop_probes gives for each seed, in
    order."""
    probes = [[] for _ in seeds]
    for first, su, sv, rows_a, rows_b in _probe_draws(seeds, trials, qa, na, qb, nb):
        for g, t in np.ndindex(su.shape):
            ia = np.flatnonzero(rows_a[g, t]).tolist()
            ib = np.flatnonzero(rows_b[g, t]).tolist()
            probes[first + g].append((int(su[g, t]), int(sv[g, t]), ia, ib))
    return probes


@pytest.fixture
def loop_chunks(monkeypatch):
    """Counts the chunks _probe_draws hands to the per-trial fallback."""
    calls = []
    original = regularity._probe_loop

    def counted(*args):
        calls.append(args[1:])
        return original(*args)

    monkeypatch.setattr(regularity, "_probe_loop", counted)
    return calls


class TestProbeDraws:
    @given(st.data())
    @settings(max_examples=120, deadline=None)
    def test_matches_generator_calls(self, data):
        # up to 300 trials of up to three seeds, in one batch
        na = data.draw(st.integers(1, 70))
        nb = data.draw(st.integers(1, 70))
        qa = data.draw(st.integers(1, na))
        qb = data.draw(st.integers(1, nb))
        trials = data.draw(st.integers(0, 300))
        seed = st.one_of(st.integers(0, 2**32), st.lists(st.integers(0, 9999), max_size=5))
        seeds = data.draw(st.lists(seed, min_size=1, max_size=3))
        want = [loop_probes(s, trials, qa, na, qb, nb) for s in seeds]
        assert batched_probes(seeds, trials, qa, na, qb, nb) == want

    def test_rejected_draw_matches_reference(self, loop_chunks):
        # this gate's raw stream holds a draw that numpy's bounded integer
        # rejects, so its one chunk comes from the per-trial calls
        seed = [13552, 7919, 1, 2, 3]
        want = [loop_probes(seed, 120, 10, 32, 10, 32)]
        assert batched_probes([seed], 120, 10, 32, 10, 32) == want
        assert len(loop_chunks) == 1
        # next to another generator, only its own chunk comes from the calls
        want = [loop_probes(s, 120, 10, 32, 10, 32) for s in (4, seed)]
        assert batched_probes([4, seed], 120, 10, 32, 10, 32) == want
        assert len(loop_chunks) == 2
        col = random_colouring(64, 5)
        a, b = range(32), range(32, 64)
        for colour in (RED, BLUE):
            got = sampled_check(col, colour, a, b, 0.3, 120, seed)
            want = reference_sampled_check(col, colour, a, b, 0.3, 120, seed)
            assert got == (want is None)
        assert len(loop_chunks) == 4

    def test_rejected_floyd_draw(self, loop_chunks):
        # seed 24662 reads an output that one of Floyd's draws on [0, j]
        # rejects (the other rejections above fall on sizes and shuffles)
        want = [loop_probes(s, 100, 1, 70, 1, 70) for s in (24661, 24662)]
        assert batched_probes([24661, 24662], 100, 1, 70, 1, 70) == want
        assert loop_chunks == [(100, 1, 70, 1, 70)]

    def test_rejected_size_draw(self, loop_chunks):
        # seed 11733's first 32-bit output x has x * 9714 mod 2**32 below
        # 2**32 mod 9714 = 9622, so a draw on a span of 9,714 rejects it;
        # first the a-side size reads it, then the b-side one
        x = int(np.random.default_rng(11733).bit_generator.random_raw()) & 0xFFFFFFFF
        assert x * 9714 % 2**32 < 2**32 % 9714 == 9622
        for sizes in ((1, 9714, 1, 3), (3, 3, 1, 9714)):
            assert batched_probes([11733], 5, *sizes) == [loop_probes(11733, 5, *sizes)]
        assert len(loop_chunks) == 2

    def test_large_population_falls_back(self, loop_chunks):
        # above 10,000 Generator.choice may shuffle a tail instead of running
        # Floyd's algorithm; 5,000 of 10,001 takes that path
        for seed in (0, 1):
            want = loop_probes(seed, 2, 5000, 10_001, 1, 3)
            assert batched_probes([seed], 2, 5000, 10_001, 1, 3) == [want]
        assert len(loop_chunks) == 2

    @given(st.data())
    @settings(max_examples=40, deadline=None)
    def test_mixed_generators_match_generator_calls(self, data):
        # seeds of different set sizes decoded in one batch, int and list
        # seeds mixed
        trials = data.draw(st.integers(0, 300))
        count = data.draw(st.integers(1, 40))
        seed = st.one_of(st.integers(0, 2**32), st.lists(st.integers(0, 9999), max_size=5))
        seeds, sizes = [], []
        for _ in range(count):
            na = data.draw(st.integers(1, 70))
            nb = data.draw(st.integers(1, 70))
            sizes.append((data.draw(st.integers(1, na)), na, data.draw(st.integers(1, nb)), nb))
            seeds.append(data.draw(seed))
        want = [loop_probes(s, trials, *z) for s, z in zip(seeds, sizes)]
        qa, na, qb, nb = zip(*sizes)
        assert batched_probes(seeds, trials, qa, na, qb, nb) == want

    def test_tiny_cell_cap_splits_alike(self, monkeypatch):
        # a cap below one seed's trials leaves it one batch, and a cap below
        # several seeds' splits them into batches; neither changes a probe
        sizes = [(3, 9, 5, 40), (10, 32, 10, 32), (1, 1, 2, 7), (30, 70, 1, 70), (4, 12, 4, 12)]
        seeds = [[13552, 7919, 1, 2, 3], 8, [5, 5], 0, 77]
        want = [loop_probes(s, 150, *z) for s, z in zip(seeds, sizes)]
        qa, na, qb, nb = zip(*sizes)
        for cap in (1, 100, 700, 20_000):
            monkeypatch.setattr(regularity, "_CELL_CAP", cap)
            assert batched_probes(seeds, 150, qa, na, qb, nb) == want
            col = random_colouring(64, 5)
            a, b = range(32), range(32, 64)
            got = sampled_check(col, RED, a, b, 0.3, 150, seeds[0])
            assert got == (reference_sampled_check(col, RED, a, b, 0.3, 150, seeds[0]) is None)
            assert_gate_probes(seeds[:1], 150, 0.3, [(32, 32)])

    def test_wide_gate_is_one_call(self, decoded):
        # 120 trials of 1,100-wide sides are more than _CELL_CAP cells, and
        # still one decoding call
        q = regularity._probe_floor(0.3, 1100)
        assert 2 * 120 * 1100 > regularity._CELL_CAP
        want = [loop_probes([7, 7919, 0, 1, 0], 120, q, 1100, q, 1100)]
        assert batched_probes([[7, 7919, 0, 1, 0]], 120, q, 1100, q, 1100) == want
        assert decoded == [120]

    def test_rejected_gate_falls_back_alone(self, loop_chunks):
        # the pinned rejecting gate among other gates of one batched call:
        # only its generator is drawn by the calls, every verdict is exact
        col = random_colouring(96, 5)
        gates = [
            (range(32), range(32, 64), [13552, 7919, 1, 2, 0]),
            (range(0, 96, 3), range(1, 96, 3), 4),
            (range(16), range(40, 72), [13552, 7919, 1, 2, 1]),
            (range(32), range(32, 64), [13552, 7919, 1, 2, 3]),
            (range(50, 70), range(20), 11),
            (range(64, 96), range(32, 64), [2, 7919, 0, 1, 2]),
        ]
        red = col.dense(RED)
        blocks = [red.take(a, 0).take(b, 1) for a, b, _ in gates]
        seeds = [seed for _, _, seed in gates]
        found = _probe_deviations(blocks, 0.3, 120, seeds, False) <= 0.3 + _FUZZ
        assert loop_chunks == [(120, 10, 32, 10, 32)]
        for (a, b, seed), got in zip(gates, found.tolist()):
            want = reference_sampled_check(col, RED, a, b, 0.3, 120, seed)
            assert got == (want is None)
        assert_gate_probes(seeds, 120, 0.3, [(len(a), len(b)) for a, b, _ in gates])
        assert loop_chunks == [(120, 10, 32, 10, 32)] * 2

    def test_wide_generator_falls_back_alone(self, loop_chunks):
        # a side above 10,000 among narrow generators of one batch: only the
        # wide one is drawn by the calls
        sizes = [(1, 5, 1, 5), (5000, 10_001, 1, 3), (2, 9, 3, 7)]
        seeds = [0, 1, [2, 3]]
        want = [loop_probes(s, 3, *z) for s, z in zip(seeds, sizes)]
        qa, na, qb, nb = zip(*sizes)
        assert batched_probes(seeds, 3, qa, na, qb, nb) == want
        assert loop_chunks == [(3, 5000, 10_001, 1, 3)]

    def test_oversized_probes_raise_like_the_calls(self):
        col = random_colouring(16, 1)
        a, b = range(8), range(8, 16)
        with pytest.raises(ValueError):
            reference_sampled_check(col, RED, a, b, 1.5, 10, 0)
        with pytest.raises(ValueError):
            sampled_check(col, RED, a, b, 1.5, 10)
        with pytest.raises(ValueError):
            _self_regularity_score(red_matrix(col, tuple(a)), 1.5, 0)
        # no trial draws nothing, so nothing is raised and the gate passes
        got = sampled_check(col, RED, a, b, 1.5, 0)
        assert got is True and reference_sampled_check(col, RED, a, b, 1.5, 0, 0) is None


class TestProbeDeviations:
    """_probe_deviations against the two loops it replaced: its gate
    verdicts and its loopless scores equal theirs bit for bit."""

    @given(st.data())
    @settings(max_examples=150, deadline=None)
    def test_matches_replaced_loops(self, data):
        # a cap of 1 or 300 cells puts these blocks in several batches; the
        # smallest blocks are drawn often, as their probes may hold no pair
        count = data.draw(st.integers(1, 8))
        side = st.one_of(st.integers(1, 3), st.integers(1, 40))
        eps = data.draw(st.floats(0, 1))
        trials = data.draw(st.integers(0, 200))
        cap = data.draw(st.sampled_from((regularity._CELL_CAP, 1, 300, 3000)))
        rng = np.random.default_rng(data.draw(st.integers(0, 2**32)))
        gates, squares = [], []
        for _ in range(count):
            rows, cols = data.draw(side), data.draw(side)
            density = data.draw(st.sampled_from((0.0, 0.1, 0.5, 0.9, 1.0)))
            gates.append((rng.random((rows, cols)) < density).view(np.uint8))
            square = (rng.random((rows, rows)) < density).view(np.uint8)
            np.fill_diagonal(square, 0)
            squares.append(square)
        seed = st.one_of(st.integers(0, 2**32), st.lists(st.integers(0, 9999), max_size=5))
        seeds = data.draw(st.lists(seed, min_size=count, max_size=count))
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(regularity, "_CELL_CAP", cap)
            worst = _probe_deviations(gates, eps, trials, seeds, False)
            assert (worst <= eps + _FUZZ).tolist() == _sampled_gates(gates, eps, trials, seeds).tolist()
            scores = _probe_deviations(squares, eps, _SELF_PROBES, seeds, True)
            assert repr(scores.tolist()) == repr(_self_regularity_scores(squares, eps, seeds))
        # with no trial every deviation is 0
        assert not _probe_deviations(squares, eps, 0, seeds, True).any()
        if not trials:
            assert not worst.any()

    def test_blocks_without_pairs(self):
        # a single vertex holds no ordered pair of distinct vertices, and
        # neither does a probe of one vertex against itself in a complete
        # pair; both score 0, like a complete graph of any size
        single = np.zeros((1, 1), dtype=np.uint8)
        blocks = [single, single, 1 - np.eye(2, dtype=np.uint8), 1 - np.eye(9, dtype=np.uint8)]
        seeds = [0, [5, 5], 3, 4]
        for eta in (0.0, 0.3, 1.0):
            scores = _probe_deviations(blocks, eta, _SELF_PROBES, seeds, True).tolist()
            assert scores == _self_regularity_scores(blocks, eta, seeds) == [0.0] * 4
        # the complete pair's probes include one vertex against itself,
        # which the oracle skips and a mask-free deviation would score 1
        ((_, su, sv, rows_u, rows_v),) = _probe_draws([3], _SELF_PROBES, 1, 2, 1, 2)
        assert ((su[0] == 1) & (sv[0] == 1) & ((rows_u[0] * rows_v[0]).sum(1) == 1)).any()

    def test_rejected_size_draw(self, loop_chunks):
        # seed 11733's first output is rejected on a span of 9,714 (see
        # TestProbeDraws.test_rejected_size_draw), so each of these gates'
        # probes come from the calls themselves
        noisy = (np.random.default_rng(2).random((9714, 3)) < 0.5).view(np.uint8)
        blocks = [noisy, np.zeros_like(noisy)]
        worst = _probe_deviations(blocks, 0.0, 5, [11733] * 2, False)
        want = _sampled_gates(blocks, 0.0, 5, [11733] * 2).tolist()
        assert (worst <= _FUZZ).tolist() == want == [False, True]
        assert len(loop_chunks) == 4


class TestWideGate:
    """One 3,000 by 6,000 gate: its memory and its exact edge counts."""

    def test_memory_of_one_wide_gate(self):
        # a float64 stack of the block alone is 137 MiB; the float32 stack
        # and marks keep the whole call near 76 MiB
        block = np.random.default_rng(3).integers(0, 2, (3000, 6000), dtype=np.uint8)
        tracemalloc.start()
        try:
            _probe_deviations([block], 0.3, 120, [[7, 7919, 0, 1, 0]], False)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 110 * 2**20

    def test_stacked_hits_count_exactly(self):
        # a 97%-dense block's edge count lies above 2**24 and is odd, so no
        # float32 sum can hold it; the float64 sum of float32 column counts
        # does
        block = (np.random.default_rng(5).integers(0, 100, (3000, 6000), dtype=np.uint8) < 97).view(
            np.uint8
        )
        edges = int(block.sum())
        assert edges > 2**24 and edges % 2 == 1
        rows_a = np.ones((1, 1, 3000), dtype=np.float32)
        rows_b = np.ones((1, 1, 6000), dtype=np.float32)
        assert regularity._stacked_hits([block], rows_a, rows_b).tolist() == [[edges]]


class TestMakePartition:
    def test_singletons_at_m_equals_n(self):
        col = all_one_colour(6)
        part = make_partition(col, 6, seed=0, steps=0)
        assert all(len(c) == 1 for c in part.classes)
        assert part.subsets == part.classes

    def test_zero_steps_deterministic(self):
        col = random_colouring(32, 4)
        a = make_partition(col, 4, seed=9, steps=0)
        b = make_partition(col, 4, seed=9, steps=0)
        assert a == b

    def test_equitable_and_partitioning(self):
        col = random_colouring(30, 2)
        part = make_partition(col, 7, seed=3, steps=20)
        sizes = [len(c) for c in part.classes]
        assert max(sizes) - min(sizes) <= 1
        assert sorted(v for c in part.classes for v in c) == list(range(30))

    @given(st.data())
    @settings(max_examples=40, deadline=None)
    def test_swap_search_matches_reference(self, data):
        # class sizes may differ by one, so probe sets of unequal size meet
        n = data.draw(st.integers(2, 48))
        col = random_small(n, data.draw(st.integers(0, 10_000)))
        m = data.draw(st.integers(1, min(8, n)))
        seed = data.draw(st.integers(0, 10_000))
        steps = data.draw(st.integers(0, 30))
        got = balanced_swap_search(col, m, seed, steps)
        assert repr(got) == repr(reference_swap_search(col, m, seed, steps))

    @given(st.data())
    @settings(max_examples=25, deadline=None)
    def test_batched_subsets_match_reference_picks(self, data):
        # every class's candidates are scored in one batch; each class's
        # pick must be what the bitmask oracle picks for it alone
        n = data.draw(st.integers(2, 64))
        col = random_small(n, data.draw(st.integers(0, 10_000)))
        m = data.draw(st.integers(1, min(8, n)))
        seed = data.draw(st.integers(0, 10_000))
        eta = data.draw(st.floats(0.01, 0.6))
        trials = data.draw(st.integers(0, 12))
        classes = [tuple(cl) for cl in balanced_swap_search(col, m, seed, 5)[0]]
        seeds = [[seed, 7919, idx] for idx in range(m)]
        subsets = _regular_subsets(col, classes, eta, trials, seeds)
        # make_partition is the same two steps with its fixed trial count
        part = make_partition(col, m, seed=seed, steps=5, eta=eta)
        assert part.classes == tuple(classes)
        assert part.subsets == tuple(
            _regular_subsets(col, classes, eta, regularity._SUBSET_TRIALS, seeds)
        )
        for idx, (cl, sub) in enumerate(zip(classes, subsets)):
            size = max(2, (len(cl) + 1) // 2)
            if size >= len(cl):
                assert sub == cl
                continue
            rng = np.random.default_rng([seed, 7919, idx])
            cands = [
                tuple(sorted(cl[i] for i in rng.choice(len(cl), size, replace=False)))
                for _ in range(trials)
            ]
            cands.append(cl)
            best = None
            for ci, cand in enumerate(cands):
                score = reference_self_score(
                    col, cand, eta, np.random.default_rng([seed, 7919, idx, 101, ci])
                )
                if best is None or score < best[0] - 1e-12:
                    best = (score, cand)
            assert sub == best[1]

    def test_local_search_is_monotone(self):
        col = random_colouring(128, 6)
        _, initial, final = balanced_swap_search(col, 8, seed=6, steps=200)
        assert final <= initial + 1e-12


def per_gate_reduced(col, part, eta, delta, trials=120, seed=0):
    """(edge colours, deleted) of build_reduced from pair_density and one
    reference_sampled_check call per gate, in edge order, gate by gate."""
    m = part.m
    classes, subsets = part.classes, part.subsets
    states = [[None] * m for _ in range(m)]
    for i in range(m):
        for j in range(i + 1, m):
            d_vv = pair_density(col, RED, classes[i], classes[j])
            if not all(
                abs(pair_density(col, RED, x, y) - d_vv) <= eta + 1e-12
                for x, y in ((subsets[i], classes[j]), (subsets[j], classes[i]), (subsets[i], subsets[j]))
            ):
                continue
            pairs = (
                (classes[i], classes[j]),
                (subsets[i], classes[j]),
                (subsets[j], classes[i]),
                (subsets[i], subsets[j]),
            )
            if all(
                reference_sampled_check(col, RED, x, y, eta, trials, [seed, 7919, i, j, idx]) is None
                for idx, (x, y) in enumerate(pairs)
            ):
                states[i][j] = states[j][i] = RED if d_vv >= 1.0 - delta - 1e-12 else BLUE
    deleted = set()
    while True:
        degs = [
            (sum(1 for j in range(m) if j != i and j not in deleted and states[i][j] is None), -i)
            for i in range(m)
            if i not in deleted
        ]
        if not degs or max(degs)[0] <= math.sqrt(eta) * m + 1e-12:
            return tuple(tuple(row) for row in states), frozenset(deleted)
        deleted.add(-max(degs)[1])


CRITERION_7_MIX = [
    (16, 4), (24, 4), (64, 8), (128, 8), (256, 8), (24, 4), (96, 8), (192, 4), (16, 8), (256, 8),
]


class TestBuildReduced:
    def test_all_red(self):
        col = all_one_colour(16)
        part = make_partition(col, 4, seed=0, steps=0, eta=0.2)
        red = build_reduced(col, part, eta=0.2, delta=0.1, seed=0)
        assert red.deleted == frozenset()
        assert all(c == 0 for c in red.vertex_colours)
        for i in range(4):
            for j in range(4):
                if i != j:
                    assert red.edge_colours[i][j] == 0

    def test_all_blue(self):
        col = all_one_colour(16, colour=1)
        part = make_partition(col, 4, seed=0, steps=0, eta=0.2)
        red = build_reduced(col, part, eta=0.2, delta=0.1, seed=0)
        assert all(c == 1 for c in red.vertex_colours)
        for i in range(4):
            for j in range(4):
                if i != j:
                    assert red.edge_colours[i][j] == 1

    def test_stored_densities_recompute(self):
        col = random_colouring(128, 13)
        part = make_partition(col, 8, seed=13, steps=0)
        red = build_reduced(col, part, eta=0.05, delta=0.1, seed=13)
        for i in range(8):
            for j in range(8):
                assert red.d_vv[i][j] == pair_density(col, 0, part.classes[i], part.classes[j])
                assert red.d_wv[i][j] == pair_density(col, 0, part.subsets[i], part.classes[j])
                assert red.d_ww[i][j] == pair_density(col, 0, part.subsets[i], part.subsets[j])

    @given(st.data())
    @settings(max_examples=40, deadline=None)
    def test_density_tables_equal_pair_density(self, data):
        n = data.draw(st.integers(2, 48))
        col = random_small(n, data.draw(st.integers(0, 10_000)))
        m = data.draw(st.integers(1, min(8, n)))
        seed = data.draw(st.integers(0, 10_000))
        part = make_partition(col, m, seed=seed, steps=data.draw(st.integers(0, 20)), eta=0.3)
        red = build_reduced(col, part, eta=0.3, delta=0.3, seed=seed)
        classes, subsets = part.classes, part.subsets
        for i in range(m):
            for j in range(m):
                assert red.d_vv[i][j] == pair_density(col, RED, classes[i], classes[j])
                assert red.d_wv[i][j] == pair_density(col, RED, subsets[i], classes[j])
                assert red.d_ww[i][j] == pair_density(col, RED, subsets[i], subsets[j])
            blue_inside = pair_density(col, BLUE, subsets[i], subsets[i])
            want = RED if red.d_ww[i][i] >= blue_inside else BLUE
            assert red.vertex_colours[i] == want

    def test_invariants_audited(self):
        col = random_colouring(128, 14)
        part = make_partition(col, 8, seed=14, steps=0)
        red = build_reduced(col, part, eta=0.05, delta=0.1, seed=14)
        threshold = math.sqrt(0.05) * 8
        for i in red.survivors():
            unc = sum(
                1
                for j in red.survivors()
                if j != i and red.edge_colours[i][j] is None
            )
            assert unc <= threshold + 1e-9
        for i in range(8):
            for j in range(8):
                if red.edge_colours[i][j] == 0:
                    assert red.d_vv[i][j] >= 1 - 0.1 - 1e-9

    def test_threshold_monotone_in_delta(self):
        col = random_colouring(96, 15)
        part = make_partition(col, 6, seed=15, steps=0, eta=0.3)
        loose = build_reduced(col, part, eta=0.3, delta=0.3, seed=15)
        tight = build_reduced(col, part, eta=0.3, delta=0.15, seed=15)
        for i in range(6):
            for j in range(6):
                # identical gates, so the uncoloured set matches; shrinking
                # delta never turns a blue edge red
                assert (loose.edge_colours[i][j] is None) == (
                    tight.edge_colours[i][j] is None
                )
                if tight.edge_colours[i][j] == 0:
                    assert loose.edge_colours[i][j] == 0

    @pytest.mark.parametrize("eta", [0.3, 0.05, 0.5])
    def test_matches_per_gate_checks(self, eta):
        # the criterion-7 mix, and one and two parts; an edge's later gates
        # are drawn only when its earlier ones pass, as in the per-gate loop
        runs = [(seed, n, m) for seed, (n, m) in enumerate(CRITERION_7_MIX)]
        runs += [(10, 32, 1), (11, 32, 2), (12, 17, 2)]
        coloured = 0
        for seed, n, m in runs:
            col = random_colouring(n, seed)
            part = make_partition(col, m, seed=seed, steps=30, eta=eta)
            red = build_reduced(col, part, eta=eta, delta=0.3, seed=seed)
            want = per_gate_reduced(col, part, eta, 0.3, seed=seed)
            assert (red.edge_colours, red.deleted) == want
            coloured += sum(c is not None for row in red.edge_colours for c in row)
        # some edges pass every gate, so the comparison is not all-uncoloured
        assert coloured > 0

    def test_deviation_at_the_bar_passes(self):
        # red across the two classes exactly when u + v is even, so every
        # gate is a 4 x 4 block of density 1/2, and a probe on two vertices
        # of one parity a side deviates by exactly 1/2, which is eta + _FUZZ
        eta = 0.499999999999
        assert eta + _FUZZ == 0.5
        col = Colouring.from_edge_colours(8, 2, lambda u, v: int((u < 4) != (v < 4) and (u + v) % 2))
        classes = (tuple(range(4)), tuple(range(4, 8)))
        part = EquitablePartition(classes, classes)
        gate = col.dense(RED).take(classes[0], 0).take(classes[1], 1)
        seed = regularity._derive_seed(3, 0, 1, 0)
        assert _probe_deviations([gate], eta, regularity._GATE_TRIALS, [seed], False).tolist() == [0.5]
        red = build_reduced(col, part, eta=eta, delta=0.3, seed=3)
        assert red.edge_colours[0][1] == BLUE
        assert (red.edge_colours, red.deleted) == per_gate_reduced(col, part, eta, 0.3, seed=3)

    def test_deterministic(self):
        col = random_colouring(64, 16)
        part = make_partition(col, 4, seed=16, steps=10)
        a = build_reduced(col, part, eta=0.3, delta=0.2, seed=16)
        b = build_reduced(col, part, eta=0.3, delta=0.2, seed=16)
        assert a == b


class TestTransversalBestSpine:
    def test_all_red_pages_are_union_minus_spine(self):
        col = all_one_colour(10)
        parts = [(0, 1, 2), (3, 4, 5)]
        pages = [(6, 7), (8, 9)]
        cert = transversal_best_spine(col, 0, parts, pages)
        assert cert.spine == (0, 3)
        assert cert.pages == (6, 7, 8, 9)

    def test_pentagon_cherry_free_zero_pages_not_nospine(self, pentagon):
        full = tuple(range(5))
        cert = transversal_best_spine(pentagon, 0, [full, full], [full])
        assert cert is not None
        assert cert.page_count == 0

    def test_no_transversal_clique_is_none(self, pentagon):
        # no red triangle in the pentagon
        full = tuple(range(5))
        assert transversal_best_spine(pentagon, 0, [full] * 3, [full]) is None

    def test_matches_bruteforce_on_k96(self):
        col = random_colouring(96, 17)
        part = make_partition(col, 6, seed=17, steps=0)
        u1, u2 = part.classes[0], part.classes[1]
        pages = [part.classes[3], part.classes[4]]
        page_set = set(pages[0]) | set(pages[1])
        best = -1
        for u in u1:
            for v in u2:
                if u != v and col.colour_of(u, v) == 0:
                    count = sum(
                        1
                        for w in page_set
                        if w not in (u, v)
                        and col.colour_of(w, u) == 0
                        and col.colour_of(w, v) == 0
                    )
                    best = max(best, count)
        cert = transversal_best_spine(col, 0, [u1, u2], pages)
        got = -1 if cert is None else cert.page_count
        assert got == best

    def test_repeated_parts_allow_distinct_vertices(self):
        col = all_one_colour(6)
        w = (0, 1, 2)
        cert = transversal_best_spine(col, 0, [w, w], [(3, 4, 5)])
        assert cert.spine == (0, 1)
        assert cert.page_count == 3

    def test_parts_past_the_recursion_limit(self):
        # 1,200 distinct parts, past Python's default limit of 1,000 frames,
        # so the scan cannot nest one generator per part
        n = 1500
        col = Colouring.from_matrix(np.where(np.eye(n, dtype=bool), 2, 0), 2)
        cert = transversal_best_spine(col, 0, [(v,) for v in range(1200)], [tuple(range(n))])
        assert cert.spine == tuple(range(1200)) and cert.page_count == 300

    def test_averaging_identity_small(self):
        # sum of page counts over transversal spines equals the number of
        # (spine, page) configurations, counted independently from the
        # mono (k+1)-clique side
        for seed in (1, 2, 3):
            col = random_small(12, seed)
            parts = [tuple(range(0, 4)), tuple(range(4, 10))]
            pages = [tuple(range(8, 12))]
            for c in (0, 1):
                _, count, total = _transversal_scan(col, c, parts, pages)
                rhs = 0
                page_set = set(pages[0])
                for clique in mono_cliques(col, c, 3):
                    for x in clique:
                        if x not in page_set:
                            continue
                        rest = tuple(v for v in clique if v != x)
                        if _has_sdr(rest, parts):
                            rhs += 1
                assert total == rhs

    def test_overlapping_parts_match_bruteforce(self):
        # parts that overlap without being equal are refused
        col = random_small(12, 1)
        with pytest.raises(ValueError):
            _transversal_scan(col, 0, [(0, 1), (0, 1, 2)], [range(12)])
        with pytest.raises(ValueError):
            transversal_best_spine(col, 0, [(0, 1), (1, 2), (1, 2)], [range(12)])
        # disjoint parts with interleaved labels, some listed twice: the scan
        # meets the spines part by part, not in lexicographic order, and
        # must still count them all and pick the smallest of the best
        a, b, c3 = (1, 4, 7, 10), (0, 3, 6, 9, 11), (2, 5, 8)
        pages = [tuple(range(3, 12))]
        page_mask = mask_of(pages[0])
        for seed in (1, 2, 3, 4):
            col = all_one_colour(12) if seed == 4 else random_small(12, seed)
            for c in (0, 1):
                for spine_parts in ([a, b, a], [a, b, a, c3], [c3, b, a, a], [b, b, b]):
                    k = len(spine_parts)
                    fits = [s for s in mono_cliques(col, c, k) if _has_sdr(s, spine_parts)]
                    got = [(common_pages(col, c, s) & page_mask).bit_count() for s in fits]
                    _, count, total = _transversal_scan(col, c, spine_parts, pages)
                    assert (count, total) == (len(fits), sum(got))
                    cert = transversal_best_spine(col, c, spine_parts, pages)
                    if not fits:
                        assert cert is None
                    else:
                        assert (cert.page_count, cert.spine) == (max(got), fits[got.index(max(got))])

    def test_max_at_least_average(self):
        col = random_colouring(48, 18)
        parts = [tuple(range(0, 16)), tuple(range(16, 32))]
        pages = [tuple(range(32, 48))]
        cert = transversal_best_spine(col, 0, parts, pages)
        _, count, total = _transversal_scan(col, 0, parts, pages)
        assert cert.page_count * count >= total

    @given(st.data())
    @settings(max_examples=60, deadline=None)
    def test_repeated_masks_match_bruteforce(self, data):
        # parts drawn with repeats from three pairwise disjoint masks, each
        # vertex in at most one of them
        n = 9
        col = random_small(n, data.draw(st.integers(0, 10**6)))
        owner = data.draw(st.lists(st.sampled_from((None, 0, 1, 2)), min_size=n, max_size=n))
        masks = [tuple(v for v in range(n) if owner[v] == i) for i in range(3)]
        spine_parts = data.draw(st.lists(st.sampled_from(masks), min_size=1, max_size=4))
        vertex_sets = st.lists(st.integers(0, n - 1), min_size=1, max_size=n, unique=True)
        pages = [tuple(sorted(data.draw(vertex_sets)))]
        c = data.draw(st.sampled_from((RED, BLUE)))
        page_mask = mask_of(pages[0])
        fits = [s for s in mono_cliques(col, c, len(spine_parts)) if _has_sdr(s, spine_parts)]
        got = [(common_pages(col, c, s) & page_mask).bit_count() for s in fits]
        _, count, total = _transversal_scan(col, c, spine_parts, pages)
        assert (count, total) == (len(fits), sum(got))
        cert = transversal_best_spine(col, c, spine_parts, pages)
        if not fits:
            assert cert is None
        else:
            assert (cert.page_count, cert.spine) == (max(got), fits[got.index(max(got))])

    def test_twenty_copies_of_one_part(self):
        # case A's spine parts at k = 20: one kernel level asks for 20
        # vertices of a 3-vertex part and ends at once
        col = all_one_colour(24)
        assert _transversal_scan(col, RED, [(0, 1, 2)] * 20, [range(24)]) == (None, 0, 0)
        best, count, total = _transversal_scan(col, RED, [tuple(range(6))] * 4, [range(24)])
        assert (count, total) == (math.comb(6, 4), 20 * math.comb(6, 4))
        assert best == (20, (0, 1, 2, 3), mask_of(range(4, 24)))


def _has_sdr(vertices, parts):
    """Can the vertices be assigned one-to-one to parts they belong to?"""
    for perm in itertools.permutations(vertices):
        if all(v in set(p) for v, p in zip(perm, parts)):
            return True
    return False


class TestExtractBook:
    def test_all_red_case_a_full_pages(self):
        col = all_one_colour(12)
        part = make_partition(col, 3, seed=1, steps=0, eta=0.2)
        red = build_reduced(col, part, eta=0.2, delta=0.1, seed=1)
        for k in (1, 2):
            cert, trace = extract_book(col, red, k)
            assert cert.page_count == 12 - k
            winner = trace.candidates[trace.winner]
            assert winner.case == "A"

    def test_two_block_blue_case(self):
        col = two_block_colouring(4)
        part = EquitablePartition(
            (tuple(range(4)), tuple(range(4, 8))),
            (tuple(range(4)), tuple(range(4, 8))),
        )
        red = build_reduced(col, part, eta=0.2, delta=0.2, seed=0)
        assert red.edge_colours[0][1] == 1
        assert red.vertex_colours == (0, 0)
        cert, trace = extract_book(col, red, 1)
        # spine sits in one part, pages are the opposite part
        assert cert.colour == 1
        assert cert.page_count == 4
        spine_part = 0 if cert.spine[0] < 4 else 1
        assert all((p >= 4) == (spine_part == 0) for p in cert.pages)

    def test_random_dominated_by_max_book(self):
        col = random_colouring(256, 19)
        part = make_partition(col, 8, seed=19, steps=40, eta=0.3)
        red = build_reduced(col, part, eta=0.3, delta=0.3, seed=19)
        cert, trace = extract_book(col, red, 2)
        assert cert is not None
        assert verify_certificate(col, cert, 0).ok
        assert cert.page_count <= max_book(col, 2).page_count

    def test_trace_is_deterministic_bytes(self):
        col = random_colouring(96, 20)
        part = make_partition(col, 6, seed=20, steps=25, eta=0.3)
        red = build_reduced(col, part, eta=0.3, delta=0.3, seed=20)
        a = extract_book(col, red, 2)[1].render()
        b = extract_book(col, red, 2)[1].render()
        assert a == b

    def test_nospine_possible_with_trace(self, pentagon):
        # the pentagon has no monochromatic triangle anywhere, so k=3 yields
        # no certificate from any prescription
        part = make_partition(pentagon, 2, seed=0, steps=0, eta=0.4)
        red = build_reduced(pentagon, part, eta=0.4, delta=0.4, seed=0)
        cert, trace = extract_book(pentagon, red, 3)
        assert cert is None
        assert trace.winner is None
        assert any(line.startswith("winner\tnone") for line in trace.lines)


def reduced_of(states) -> ReducedGraph:
    """A reduced graph on singleton classes with the given edge colours."""
    m = len(states)
    singles = tuple((i,) for i in range(m))
    zeros = ((0.0,) * m,) * m
    part = EquitablePartition(singles, singles)
    return ReducedGraph(part, 0.0, 0.0, (RED,) * m, states, zeros, zeros, zeros, frozenset())


def reference_find_blowup(states, verts, k, t_max, blue):
    """The blow-up search as a filter over every t-subset of the pool."""

    def internal_colour(part):
        if len(part) == 1:
            return "vacuous"
        colours = {states[u][v] for u, v in itertools.combinations(part, 2)}
        if len(colours) == 1 and None not in colours:
            return colours.pop()
        return "mixed"

    def cross_blue(pa, pb):
        return all(states[u][v] == blue for u in pa for v in pb)

    for t in range(min(t_max, len(verts) // k if k else 0), 0, -1):
        parts = []

        def rec(pool):
            if len(parts) == k:
                return True
            floor = parts[-1][0] if parts else -1
            for cand in itertools.combinations(pool, t):
                if cand[0] <= floor or internal_colour(cand) == "mixed":
                    continue
                if any(not cross_blue(cand, p) for p in parts):
                    continue
                parts.append(cand)
                if rec([v for v in pool if v not in cand]):
                    return True
                parts.pop()
            return False

        if k >= 1 and rec(list(verts)):
            return t, tuple(parts)
    return None


def is_blowup(states, blow, k, blue):
    t, parts = blow
    if len(parts) != k or any(len(p) != t for p in parts):
        return False
    if [p[0] for p in parts] != sorted(p[0] for p in parts):
        return False
    for p in parts:
        colours = {states[u][v] for u, v in itertools.combinations(p, 2)}
        if None in colours or len(colours) > 1:
            return False
    return all(
        states[u][v] == blue for p, q in itertools.combinations(parts, 2) for u in p for v in q
    )


class TestFindBlowup:
    @given(st.data())
    @settings(max_examples=300, deadline=None)
    def test_matches_subset_search(self, data):
        m = data.draw(st.integers(1, 11))
        states = [[None] * m for _ in range(m)]
        for i, j in itertools.combinations(range(m), 2):
            states[i][j] = states[j][i] = data.draw(st.sampled_from((None, RED, BLUE)))
        states = tuple(tuple(row) for row in states)
        verts = sorted(data.draw(st.sets(st.integers(0, m - 1))))
        k = data.draw(st.integers(1, 4))
        t_max = data.draw(st.integers(0, 5))
        blue = data.draw(st.sampled_from((RED, BLUE)))
        got = _find_blowup(reduced_of(states), verts, k, t_max, blue)
        assert got == reference_find_blowup(states, verts, k, t_max, blue)

    def test_random_k64_probe(self):
        # the reduced graph of `pipeline --k 2 --parts 64 --t-max 30 --eta 0.9
        # --delta 0.9` on `construct random --N 64 --seed 1`, where a search
        # over every t-subset of the pool does not end for t near 30
        col = random_colouring(64, 1)
        part = make_partition(col, 64, seed=0, steps=200, eta=0.9)
        red = build_reduced(col, part, 0.9, 0.9, seed=0)
        verts = red.survivors()
        assert len(verts) == 64
        blow = _find_blowup(red, verts, 2, 30, BLUE)
        assert blow == (5, ((0, 14, 28, 30, 58), (6, 20, 26, 52, 57)))
        assert is_blowup(red.edge_colours, blow, 2, BLUE)
        blow = _find_blowup(red, verts, 2, 30, RED)
        assert blow is not None and is_blowup(red.edge_colours, blow, 2, RED)

    def test_parts_past_the_recursion_limit(self):
        # 1,100 singleton parts, past Python's default limit of 1,000 frames,
        # so the search cannot nest one generator per part
        m = 1200
        states = tuple(tuple(None if i == j else BLUE for j in range(m)) for i in range(m))
        blow = _find_blowup(reduced_of(states), list(range(m)), 1100, 3, BLUE)
        assert blow == (1, tuple((v,) for v in range(1100)))

    def test_all_red_pool_is_peeled(self, monkeypatch):
        # no blue edge, so no vertex has the t blue neighbours a blow-up of
        # two t-parts needs: the peel empties the pool for every t, where the
        # first level would otherwise walk every red t-clique of 64 vertices
        m = 64
        states = tuple(tuple(None if i == j else RED for j in range(m)) for i in range(m))
        streams = regularity.clique_pages
        yields = 0

        def bounded(*args):
            nonlocal yields
            for found in streams(*args):
                yields += 1
                if yields > 1000:
                    raise AssertionError("the blow-up search walked past 1000 cliques")
                yield found

        monkeypatch.setattr(regularity, "clique_pages", bounded)
        red = reduced_of(states)
        assert _find_blowup(red, list(range(m)), 2, 30, BLUE) is None
        # joined in red instead, every vertex stays and the first parts win
        assert _find_blowup(red, list(range(m)), 2, 30, RED) == (
            30, (tuple(range(30)), tuple(range(30, 60)))
        )


@st.composite
def partial_reduced(draw):
    """A reduced graph on singleton classes: random edge colours (some
    uncoloured), a random deleted set and subset densities on a coarse grid,
    so that tuple values tie."""
    m = draw(st.integers(1, 9))
    states = [[None] * m for _ in range(m)]
    for i, j in itertools.combinations(range(m), 2):
        states[i][j] = states[j][i] = draw(st.sampled_from((None, RED, BLUE)))
    grid = st.sampled_from((0.0, 0.25, 0.5, 0.75, 1.0))
    d_wv = tuple(tuple(draw(grid) for _ in range(m)) for _ in range(m))
    deleted = frozenset(draw(st.sets(st.integers(0, m - 1))))
    states = tuple(tuple(row) for row in states)
    return dataclasses.replace(reduced_of(states), d_wv=d_wv, deleted=deleted)


def reference_best_tuple(reduced, tuples, colour):
    """Tuple choice with admissible classes found by scanning every class."""
    states = reduced.edge_colours
    best = None
    for tup in tuples:
        page_idx = [
            j
            for j in range(reduced.m)
            if j not in reduced.deleted
            and j not in tup
            and all(states[a][j] is not None for a in tup)
        ]
        value = sum(
            math.prod(reduced.subset_density(colour, a, j) for a in tup) for j in page_idx
        )
        if best is None or value > best[0] + 1e-12:
            best = (value, tup, page_idx)
    return None if best is None else best[1:]


class TestReducedRows:
    @given(partial_reduced(), st.data())
    @settings(max_examples=300, deadline=None)
    def test_best_tuple_matches_scan(self, reduced, data):
        m = reduced.m
        k = data.draw(st.integers(1, 3))
        colour = data.draw(st.sampled_from((RED, BLUE)))
        pools = [
            sorted(data.draw(st.sets(st.integers(0, m - 1), max_size=3))) for _ in range(k)
        ]
        for tuples in (
            lambda: itertools.product(*pools),
            lambda: itertools.combinations_with_replacement(pools[0], k),
        ):
            got = regularity._best_tuple(reduced, tuples(), colour)
            assert got == reference_best_tuple(reduced, tuples(), colour)

    @given(partial_reduced())
    @settings(max_examples=200, deadline=None)
    def test_rows_match_edge_colours(self, reduced):
        m = reduced.m
        assert len(reduced.rows) == 2
        for c, rows in enumerate(reduced.rows):
            assert len(rows) == m
            for i in range(m):
                for j in range(m):
                    want = i != j and j not in reduced.deleted and reduced.edge_colours[i][j] == c
                    assert bool(rows[i] >> j & 1) == want
            assert all(row >> m == 0 for row in rows)

    def test_rows_of_a_built_graph(self):
        # two blocks on the first 64 vertices, random edges to the rest: the
        # deleted class keeps a coloured edge, which its row must drop
        rng = random.Random(1)
        col = Colouring.from_edge_colours(
            96, 2, lambda u, v: rng.randrange(2) if v >= 64 else int((u < 32) != (v < 32))
        )
        part = make_partition(col, 6, seed=1, steps=0, eta=0.25)
        red = build_reduced(col, part, eta=0.25, delta=0.3, seed=1)
        surv = red.survivors()
        assert red.deleted == {4}
        assert any(c is not None for c in red.edge_colours[4])
        for i in range(6):
            for c in (RED, BLUE):
                want = [j for j in surv if j != i and red.edge_colours[i][j] == c]
                assert [j for j in range(8) if red.rows[c][i] >> j & 1] == want
