"""Desk-scale density-partition pipeline with exact verification.

Builds an equitable partition by seeded local search, picks a
well-behaved subset inside each class, colours a reduced graph by density
thresholds (red above 1 - delta, blue otherwise, edges failing the sampled
regularity and density-agreement gates stay uncoloured), and extracts a
monochromatic book by trying every applicable spine prescription of the
case analysis exactly.  Every emitted certificate is re-verified; the
pipeline is a lower-bounding heuristic and never claims more than it checks.
"""

from __future__ import annotations

import heapq
import itertools
import math
from collections import Counter
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .books import verify_certificate
from .colouring import (
    BLUE,
    RED,
    BookCertificate,
    Colouring,
    bits,
    clique_pages,
    emit_certificate,
    mask_of,
)

_FUZZ = 1e-12
# Generator.choice(n, s, replace=False) runs Floyd's algorithm up to this
# population and may shuffle a tail instead above it
_FLOYD_LIMIT = 10_000
# probe rows times row width that one decoding call of several seeds holds:
# a call keeps about two raw outputs (int64) and a float32 mark per cell, so
# this bounds it to a few megabytes, and a gate stage of 28 gates of 32 by 32
# vertices with 120 trials (the criterion-7 mix's largest) still fits in one
# call.  A single seed is one call whatever its size; its arrays stay near
# the float32 copy of its block that _stacked_hits builds
_CELL_CAP = 1 << 18
# trials of each sampled regularity gate of the reduced graph
_GATE_TRIALS = 120
# random candidate subsets of a class, scored besides the class itself
_SUBSET_TRIALS = 12
# probe pairs of a candidate subset's self-regularity score
_SELF_PROBES = 24
# numpy draws an integer on [0, r] from a 32-bit output x as x(r + 1) >> 32
# and draws again when x(r + 1) mod 2**32 falls below entry r (Lemire's
# method).  Decoded draws have r <= _FLOYD_LIMIT, so x(r + 1) < 2**46 and all
# of this is exact in int64, with no unsigned operand to promote
_REDRAW_BELOW = (1 << 32) % np.arange(1, _FLOYD_LIMIT + 2, dtype=np.int64)
_LOW32 = 0xFFFFFFFF


def _probe_floor(eps: float, size: int) -> int:
    """Least probe size on a set of ``size`` vertices."""
    return max(1, math.ceil(eps * size - 1e-9))


def _probe_draws(seeds, trials: int, qa, na, qb, nb):
    """Yield ``trials`` random probes from a fresh generator of each seed in
    ``seeds`` (anything ``np.random.default_rng`` takes), seed g drawing
    subsets of at least qa[g] of na[g] and qb[g] of nb[g] positions (scalars
    apply to every seed).

    Probe t of seed g is what round t of ``su = rng.integers(qa, na + 1)``,
    ``sv = rng.integers(qb, nb + 1)``, ``rng.choice(na, su, replace=False)``
    and ``rng.choice(nb, sv, replace=False)`` returns, in that order, for
    ``rng = np.random.default_rng(seeds[g])``.  A batch is
    (first, su, sv, rows_a, rows_b) for seeds first, first + 1, ...: su and
    sv have one row per seed and one column per trial, rows_a and rows_b one
    float32 0/1 mark row per probe, padded to the widest set of the batch.
    Batches of several seeds stay within _CELL_CAP cells.  A seed with a
    side above _FLOYD_LIMIT forms a batch of its own, drawn by the calls
    themselves.
    """
    streams = len(seeds)
    qa, na, qb, nb = (
        np.broadcast_to(np.asarray(x, dtype=np.int64), (streams,)) for x in (qa, na, qb, nb)
    )
    if trials <= 0:
        return
    if ((qa > na) | (qb > nb)).any():
        raise ValueError("probes do not fit their sets")
    width = np.maximum(na, nb).tolist()
    rows = 2 * trials
    lo = 0
    while lo < streams:
        hi, wide = lo + 1, width[lo]
        while hi < streams and max(wide, width[hi]) <= min(
            _FLOYD_LIMIT, _CELL_CAP // (rows * (hi + 1 - lo))
        ):
            wide = max(wide, width[hi])
            hi += 1
        if wide > _FLOYD_LIMIT:
            sizes = (int(x[lo]) for x in (qa, na, qb, nb))
            probes = tuple(x[None] for x in _probe_loop(seeds[lo], trials, *sizes))
        else:
            part = slice(lo, hi)
            probes = _decode_probes(seeds[part], trials, qa[part], na[part], qb[part], nb[part])
        yield (lo,) + probes
        lo = hi


def _probe_loop(seed, count: int, qa: int, na: int, qb: int, nb: int):
    """One seed's ``count`` probes of _probe_draws, from the Generator calls
    themselves."""
    rng = np.random.default_rng(seed)
    sizes = np.empty((2, count), dtype=np.int64)
    rows_a = np.zeros((count, na), dtype=np.float32)
    rows_b = np.zeros((count, nb), dtype=np.float32)
    for t in range(count):
        su = int(rng.integers(qa, na + 1))
        sv = int(rng.integers(qb, nb + 1))
        rows_a[t, rng.choice(na, su, replace=False)] = 1.0
        rows_b[t, rng.choice(nb, sv, replace=False)] = 1.0
        sizes[:, t] = su, sv
    return sizes[0], sizes[1], rows_a, rows_b


def _decode_probes(seeds, count: int, qa, na, qb, nb):
    """(su, sv, rows_a, rows_b) of ``count`` probes from each seed, as
    _probe_draws gives them, decoded from the raw 32-bit outputs the calls
    read; every side is at most _FLOYD_LIMIT.  A seed whose draws include one
    that numpy rejects is drawn by the calls themselves instead.

    A draw on [0, 0] reads nothing.  ``choice(n, s, replace=False)`` runs
    Floyd's algorithm: for j = n - s .. n - 1 it draws on [0, j] and takes
    the value unless it is already taken, then j.  It then shuffles with one
    draw on [0, i] for each i = s - 1 .. 1, which leaves the set as it is.
    """
    raw, base = _raw_outputs(seeds, count * (2 + 2 * (na + nb)))
    probes, rejected = _decode_outputs(raw, base, count, qa, na, qb, nb)
    for g in np.flatnonzero(rejected).tolist():
        a, b = int(na[g]), int(nb[g])
        su, sv, rows_a, rows_b = _probe_loop(seeds[g], count, int(qa[g]), a, int(qb[g]), b)
        probes[0][g], probes[1][g], probes[2][g, :, :a], probes[3][g, :, :b] = su, sv, rows_a, rows_b
    return probes


def _raw_outputs(seeds, words):
    """At least words[g] of the first 32-bit outputs of a fresh generator of
    each seed, as int64 in one array, and where each seed's run begins.  A
    PCG64 output gives its low half first, then its high half."""
    drawn = [(need + 1) // 2 for need in words.tolist()]
    at = np.cumsum([0] + [2 * d for d in drawn])
    raw = np.empty(at[-1], dtype=np.int64)
    for seed, d, lo in zip(seeds, drawn, at.tolist()):
        out = np.random.default_rng(seed).bit_generator.random_raw(d).astype("<u8", copy=False)
        raw[lo : lo + 2 * d] = out.view("<u4")
    return raw, at[:-1]


def _decode_outputs(raw, base, count: int, qa, na, qb, nb):
    """The probes of _decode_probes for seeds whose 32-bit outputs begin at
    ``base`` in ``raw``: ((su, sv, rows_a, rows_b), which seeds hit a
    rejected draw)."""
    streams = len(base)
    da, db = (na > qa).astype(np.int64), (nb > qb).astype(np.int64)
    span = np.stack([na - qa + 1, nb - qb + 1])
    # a side of size s reads s Floyd draws (s - 1 when s = n, as the draw on
    # [0, 0] reads nothing) and s - 1 shuffle draws; reads[origin + u] is that
    # count for a size draw of value u, and on the a side it also counts the
    # trial's da + db size draws
    origin = (np.cumsum(span) - span.ravel()).reshape(2, streams)
    owner = np.repeat(np.arange(2 * streams), span.ravel())
    size = np.concatenate([qa, qb])[owner] + np.arange(len(owner)) - origin.ravel()[owner]
    reads = 2 * size - 1 - (size == np.concatenate([na, nb])[owner])
    reads[owner < streams] += (da + db)[owner[owner < streams]]

    # walk every generator's trials in lockstep, one step per trial
    shift = np.stack([np.zeros_like(da), da])
    heads = np.empty((count + 1, streams), dtype=np.int64)
    heads[0] = base
    drawn = np.empty((count, 2, streams), dtype=np.int64)
    for t in range(count):
        np.right_shift(raw.take(heads[t] + shift) * span, 32, out=drawn[t])
        step = reads.take(drawn[t] + origin)
        heads[t + 1] = heads[t] + step[0] + step[1]
    first = heads[:count].T
    rejected = np.zeros(streams, dtype=bool)
    for side in (0, 1):
        x = raw.take(first + shift[side][:, None]) * span[side][:, None]
        rejected |= ((x & _LOW32) < _REDRAW_BELOW[span[side] - 1][:, None]).any(1)

    su = qa[:, None] + drawn[:, 0].T
    sv = qb[:, None] + drawn[:, 1].T
    # one row per probe side: the a sides of every generator's trials, then
    # the b sides
    a_at = first + (da + db)[:, None]
    b_at = a_at + 2 * su - 1 - (su == na[:, None])
    marks, bad = _floyd_marks(
        raw,
        np.concatenate([np.repeat(na, count), np.repeat(nb, count)]),
        np.concatenate([su.ravel(), sv.ravel()]),
        np.concatenate([a_at.ravel(), b_at.ravel()]),
    )
    rejected[np.flatnonzero(bad) % (streams * count) // count] = True
    marks = marks.reshape(2, streams, count, -1)
    rows_a = marks[0, :, :, : na.max()].astype(np.float32)
    rows_b = marks[1, :, :, : nb.max()].astype(np.float32)
    return (su, sv, rows_a, rows_b), rejected


def _floyd_marks(raw, n, s, at):
    """For each row r, 0/1 marks of the positions ``choice(n[r], s[r],
    replace=False)`` returns when its draws read the outputs of ``raw`` from
    at[r] on, and whether one of those draws is rejected."""
    width = int(n.max())
    # rows by size, largest first, so the rows still drawing at Floyd step
    # low + k (and the shuffle's draw on [0, k]) are a prefix
    order = np.argsort(-s)
    n, s, at = n[order], s[order], at[order]
    low = n - s
    skip = np.maximum(low, 1)
    # step low + k reads output floyd_at + k, so offset views of raw and of
    # the thresholds serve a whole column
    floyd_at = at + low - skip
    shuffle_at = at + n - skip + s - 1
    row_at = order * width
    low_at = row_at + low
    live = np.searchsorted(-s, -np.arange(s[0]), side="left")
    marks = np.zeros(len(s) * width, dtype=bool)
    bad = np.zeros(len(s), dtype=bool)
    for k, c in enumerate(live.tolist()):
        x = raw[k:].take(floyd_at[:c])
        x *= low[:c] + (k + 1)
        cell = row_at[:c] + (x >> 32)
        marks[np.where(marks.take(cell), low_at[:c] + k, cell)] = True
        x &= _LOW32
        bad[:c] |= x < _REDRAW_BELOW[k:].take(low[:c])
        if k:
            x = raw.take(shuffle_at[:c] - k)
            x *= k + 1
            x &= _LOW32
            bad[:c] |= x < _REDRAW_BELOW[k]
    rejected = np.empty_like(bad)
    rejected[order] = bad
    return marks.reshape(len(s), width), rejected


def _stacked_hits(blocks, rows_a, rows_b) -> np.ndarray:
    """Edges of each 0/1 block between each of its probe pairs: block g
    against rows_a[g] and rows_b[g], the blocks zero-padded to the rows.
    Each column count is at most a side's size, below 2**24, so float32
    holds it exactly; a pair's total may not be, so it is summed in
    float64."""
    stack = np.zeros((len(blocks), rows_a.shape[2], rows_b.shape[2]), dtype=np.float32)
    for g, block in enumerate(blocks):
        stack[g, : block.shape[0], : block.shape[1]] = block
    return (rows_a @ stack * rows_b).sum(2, dtype=np.float64)


def _probe_deviations(blocks, eps: float, trials: int, seeds, loopless: bool) -> np.ndarray:
    """Largest |d(U', V') - d(A, B)| of each 0/1 block over ``trials`` probe
    pairs drawn from a fresh generator of its own seed in ``seeds``; 0 for a
    block with no trial.  A loopless block is square, and its densities
    count only ordered pairs of distinct vertices, so a complete graph has
    density exactly 1 at any size; probes with no such pair are skipped."""
    na = [b.shape[0] for b in blocks]
    nb = [b.shape[1] for b in blocks]
    qa = [_probe_floor(eps, n) for n in na]
    qb = [_probe_floor(eps, n) for n in nb]
    # below two vertices no loopless probe has a pair, so the base is never read
    base = np.array([int(b.sum()) / max(b.size - loopless * len(b), 1) for b in blocks])
    worst = np.zeros(len(blocks))
    for lo, su, sv, rows_a, rows_b in _probe_draws(seeds, trials, qa, na, qb, nb):
        part = slice(lo, lo + len(su))
        pairs = su * sv - (rows_a * rows_b).sum(2) if loopless else su * sv
        hits = _stacked_hits(blocks[part], rows_a, rows_b)
        dev = np.abs(hits / np.maximum(pairs, 1) - base[part, None])
        worst[part] = np.where(pairs > 0, dev, 0.0).max(1)
    return worst


def _regular_subsets(col: Colouring, classes, eta: float, trials: int, seeds) -> list:
    """For each class (a sorted tuple of vertices) and its seed (a list of
    ints), the one among ``trials`` seeded random subsets of size
    max(2, ceil(|class|/2)) and the class itself with the best sampled
    self-regularity score, its largest loopless probe deviation; a class
    below three vertices is its own pick.  The candidates of every class are
    scored in one batch."""
    red = col.dense(RED)
    plans, blocks, probe_seeds = [], [], []
    for verts, seed in zip(classes, seeds):
        size = max(2, (len(verts) + 1) // 2)
        if size >= len(verts):
            plans.append((verts, None))
            continue
        rng = np.random.default_rng(seed)
        # candidates as sorted positions into verts (so their vertices are
        # sorted too), each scored with its own seed; the class itself
        # comes last
        cands = [np.sort(rng.choice(len(verts), size, replace=False)) for _ in range(trials)]
        cands.append(np.arange(len(verts)))
        inside = red.take(verts, 0).take(verts, 1)
        blocks += [inside.take(pos, 0).take(pos, 1) for pos in cands]
        probe_seeds += [[*seed, 101, ci] for ci in range(trials + 1)]
        plans.append((verts, cands))
    scores = iter(_probe_deviations(blocks, eta, _SELF_PROBES, probe_seeds, True).tolist())
    picks = []
    for verts, cands in plans:
        if cands is None:
            picks.append(verts)
            continue
        best = None
        for pos, score in zip(cands, scores):
            if best is None or score < best[0] - _FUZZ:
                best = (score, pos)
        picks.append(tuple(verts[i] for i in best[1]))
    return picks


@dataclass(frozen=True)
class EquitablePartition:
    """Vertex classes of near-equal size with a chosen subset inside each."""

    classes: tuple[tuple[int, ...], ...]
    subsets: tuple[tuple[int, ...], ...]

    @property
    def m(self) -> int:
        return len(self.classes)

    def __post_init__(self):
        sizes = [len(c) for c in self.classes]
        if sizes and max(sizes) - min(sizes) > 1:
            raise ValueError("partition is not equitable")
        for w, v in zip(self.subsets, self.classes):
            if not w or not set(w) <= set(v):
                raise ValueError("subsets must be nonempty parts of their class")


def balanced_swap_search(col: Colouring, m: int, seed: int, steps: int):
    """Seeded balanced class assignment plus pair-swap local search.

    The irregularity proxy is the sum over class pairs of the worst red
    density deviation across a fixed family of random subset probes; a swap
    is kept only when the proxy strictly decreases.  Returns
    (classes, initial proxy score, final proxy score).
    """
    if not 1 <= m <= col.n:
        raise ValueError("need 1 <= m <= vertex count")
    rng = np.random.default_rng(seed)
    perm = rng.permutation(col.n)
    classes: list[list[int]] = [[] for _ in range(m)]
    for pos, v in enumerate(perm):
        classes[pos % m].append(int(v))
    for cl in classes:
        cl.sort()

    # three probe patterns per class: rows of a 0/1 matrix over the positions
    # in the (sorted) class, which keeps its size under swaps
    patterns: list[np.ndarray] = []
    psizes: list[int] = []
    for cl in classes:
        pats = np.zeros((3, len(cl)), dtype=np.int64)
        psize = max(1, len(cl) // 2)
        for row in pats:
            row[rng.choice(len(cl), psize, replace=False)] = 1
        patterns.append(pats)
        psizes.append(psize)
    red = col.dense(RED)

    def pair_score(i: int, j: int) -> float:
        block = red.take(classes[i], 0).take(classes[j], 1)
        base = int(np.count_nonzero(block)) / block.size
        # red edges between every probe set of i and every probe set of j
        dens = (patterns[i] @ block @ patterns[j].T) / (psizes[i] * psizes[j])
        return float(np.abs(dens - base).max())

    score = {}
    for i in range(m):
        for j in range(i + 1, m):
            score[(i, j)] = pair_score(i, j)
    initial = total = sum(score.values())

    for _ in range(steps if m > 1 else 0):
        i, j = (int(x) for x in rng.choice(m, 2, replace=False))
        ui = int(rng.integers(len(classes[i])))
        vj = int(rng.integers(len(classes[j])))
        old = classes[i], classes[j]
        classes[i] = sorted(old[0][:ui] + old[0][ui + 1 :] + [old[1][vj]])
        classes[j] = sorted(old[1][:vj] + old[1][vj + 1 :] + [old[0][ui]])
        delta = 0.0
        new_vals = {}
        for key in score:
            if i in key or j in key:
                nv = pair_score(*key)
                new_vals[key] = nv
                delta += nv - score[key]
        if delta < -_FUZZ:
            score.update(new_vals)
            total += delta
        else:
            classes[i], classes[j] = old
    return classes, initial, total


def make_partition(
    col: Colouring, m: int, seed: int, steps: int, eta: float = 0.05
) -> EquitablePartition:
    """Equitable partition by balanced_swap_search, with the per-class
    subsets chosen by _regular_subsets from _SUBSET_TRIALS candidates (a
    singleton class is its own subset)."""
    classes, _, _ = balanced_swap_search(col, m, seed, steps)
    subsets = _regular_subsets(
        col,
        [tuple(cl) for cl in classes],
        eta,
        _SUBSET_TRIALS,
        [_derive_seed(seed, idx) for idx in range(len(classes))],
    )
    return EquitablePartition(tuple(tuple(cl) for cl in classes), tuple(subsets))


def _derive_seed(seed: int, *parts: int):
    return [seed, 7919, *parts]


@dataclass(frozen=True)
class ReducedGraph:
    """One vertex per class: vertex colours by majority inside the chosen
    subset, edge colours by red-density threshold, gated by sampled
    regularity; high uncoloured-degree vertices are deleted greedily."""

    partition: EquitablePartition
    eta: float
    delta: float
    vertex_colours: tuple[int, ...]
    edge_colours: tuple[tuple[int | None, ...], ...]
    d_vv: tuple[tuple[float, ...], ...]
    d_wv: tuple[tuple[float, ...], ...]
    d_ww: tuple[tuple[float, ...], ...]
    deleted: frozenset[int]

    @property
    def m(self) -> int:
        return self.partition.m

    def survivors(self) -> list[int]:
        return [i for i in range(self.m) if i not in self.deleted]

    def subset_density(self, colour: int, i: int, j: int) -> float:
        """Density of ``colour`` from the subset W_i to the class V_j."""
        red = self.d_wv[i][j]
        return red if colour == RED else 1.0 - red

    @cached_property
    def rows(self) -> tuple[tuple[int, ...], tuple[int, ...]]:
        """Red and blue bitmask rows over the surviving classes: bit j of
        row i is set when j survives deletion, j != i and edge (i, j) has
        that colour."""
        alive = mask_of(self.survivors())
        return tuple(
            tuple(
                mask_of(j for j, st in enumerate(row) if st == c and j != i) & alive
                for i, row in enumerate(self.edge_colours)
            )
            for c in (RED, BLUE)
        )


def build_reduced(
    col: Colouring,
    partition: EquitablePartition,
    eta: float,
    delta: float,
    seed: int = 0,
) -> ReducedGraph:
    """Colour the reduced graph of a partition.

    An edge (i, j) stays uncoloured unless the sampled regularity checks, of
    _GATE_TRIALS trials each, for (V_i, V_j), (W_i, V_j), (W_j, V_i) and
    (W_i, W_j) all pass and the stored red densities agree within eta.
    Coloured edges are red when the red density is at least 1 - delta (ties
    red) and blue otherwise.  Vertices with more than sqrt(eta) * m
    uncoloured incident edges are deleted greedily, worst degree first,
    lowest index on ties.
    """
    if col.q != 2:
        raise ValueError("the reduced-graph pipeline is two-colour only")
    m = partition.m
    classes, subsets = partition.classes, partition.subsets
    # row i of an indicator is the 0/1 vector of the i-th set, so the
    # products below count the ordered edge pairs between every two sets
    in_class = np.zeros((m, col.n), dtype=np.int64)
    in_subset = np.zeros((m, col.n), dtype=np.int64)
    for i in range(m):
        in_class[i, list(classes[i])] = 1
        in_subset[i, list(subsets[i])] = 1
    red = col.dense(RED)
    to_class = red @ in_class.T
    to_subset = red @ in_subset.T

    # int64 counts over int64 sizes give the float64 of Python's int / int
    class_sizes, subset_sizes = in_class.sum(1), in_subset.sum(1)
    subset_hits = in_subset @ to_subset
    d_vv = (in_class @ to_class) / np.outer(class_sizes, class_sizes)
    d_wv = (in_subset @ to_class) / np.outer(subset_sizes, class_sizes)
    d_ww = subset_hits / np.outer(subset_sizes, subset_sizes)
    # every edge is red or blue, so the blue ordered pairs inside W_i are the
    # size(size - 1) off-diagonal pairs less the red ones
    blue_inside = (subset_sizes * (subset_sizes - 1) - subset_hits.diagonal()) / subset_sizes**2
    vcols = np.where(d_ww.diagonal() >= blue_inside, RED, BLUE)

    agree = (
        (abs(d_wv - d_vv) <= eta + _FUZZ)
        & (abs(d_wv.T - d_vv) <= eta + _FUZZ)
        & (abs(d_ww - d_vv) <= eta + _FUZZ)
    )
    alive = np.argwhere(np.triu(agree, 1))
    # gate idx of an edge is drawn only when it passed gates 0 .. idx - 1;
    # each stage scores the gates of every edge still alive in one batch
    for idx in range(4):
        if not len(alive):
            break
        gates = []
        pairs = alive.tolist()
        for i, j in pairs:
            x, y = (
                (classes[i], classes[j]),
                (subsets[i], classes[j]),
                (subsets[j], classes[i]),
                (subsets[i], subsets[j]),
            )[idx]
            gates.append(red.take(x, 0).take(y, 1))
        seeds = [_derive_seed(seed, i, j, idx) for i, j in pairs]
        alive = alive[_probe_deviations(gates, eta, _GATE_TRIALS, seeds, False) <= eta + _FUZZ]
    passed = np.zeros((m, m), dtype=bool)
    passed[alive[:, 0], alive[:, 1]] = True
    passed |= passed.T
    states = np.where(passed, np.where(d_vv >= 1.0 - delta - _FUZZ, RED, BLUE), None)

    # argmax keeps the first of equal degrees, so ties go to the lowest
    # index; a deleted class scores -1 and is never picked again
    uncoloured = ~passed & ~np.eye(m, dtype=bool)
    limit = math.sqrt(eta) * m + _FUZZ
    kept = np.ones(m, dtype=bool)
    while (degree := np.where(kept, (uncoloured & kept).sum(1), -1)).max(initial=-1) > limit:
        kept[degree.argmax()] = False

    return ReducedGraph(
        partition=partition,
        eta=eta,
        delta=delta,
        vertex_colours=tuple(vcols.tolist()),
        edge_colours=tuple(map(tuple, states.tolist())),
        d_vv=tuple(map(tuple, d_vv.tolist())),
        d_wv=tuple(map(tuple, d_wv.tolist())),
        d_ww=tuple(map(tuple, d_ww.tolist())),
        deleted=frozenset(np.flatnonzero(~kept).tolist()),
    )


def _transversal_scan(col: Colouring, colour: int, spine_parts, page_parts):
    """Enumerate the colour-c cliques with one vertex in each spine part,
    each vertex set once, their pages counted inside the union of the page
    parts.  Spine parts must be pairwise equal or disjoint (a part listed j
    times gives j distinct vertices); others raise ValueError.  Returns
    (best, count, total_pages) where best is (page count, spine, page mask)
    or None, the smallest sorted spine winning ties."""
    copies = Counter(mask_of(p) for p in spine_parts)
    masks = list(copies)
    if any(a & b for a, b in itertools.combinations(masks, 2)):
        raise ValueError("spine parts must be pairwise equal or disjoint")
    rows = col.adj[colour]
    page_mask = mask_of(v for p in page_parts for v in p)
    best: tuple[int, tuple[int, ...], int] | None = None
    count = 0
    total = 0

    def walk(lo, hi, picks, inter):
        # the cliques of parts lo .. hi - 1 among the common neighbours of the
        # picks so far, a leaf as (earlier picks, last clique, neighbours) so
        # no leaf builds a tuple; halving the range nests log2(parts)
        # generators, where one per part passes the recursion limit
        if hi - lo > 1:
            mid = (lo + hi) // 2
            for head, clique, between in walk(lo, mid, picks, inter):
                yield from walk(mid, hi, (*head, *clique), between)
        elif hi > lo:
            mask = masks[lo]
            for clique, narrowed in clique_pages(rows, mask & inter, inter, copies[mask]):
                yield picks, clique, narrowed
        else:
            yield picks, (), inter  # no parts: one empty spine

    for picks, clique, inter in walk(0, len(masks), (), col.full_mask()):
        pages = inter & page_mask
        size = pages.bit_count()
        count += 1
        total += size
        if best is None or size >= best[0]:
            spine = tuple(sorted(itertools.chain(picks, clique)))
            if best is None or size > best[0] or spine < best[1]:
                best = (size, spine, pages)
    return best, count, total


def transversal_best_spine(
    col: Colouring, colour: int, spine_parts, page_parts
) -> BookCertificate | None:
    """Best book over cliques with one spine vertex per given part, pages
    counted inside the union of the page parts.

    The winner's page count is at least the exact average over all such
    cliques; ties go to the lexicographically smallest spine.  No transversal
    clique at all gives None.
    """
    best, count, total = _transversal_scan(col, colour, spine_parts, page_parts)
    if best is None:
        return None
    pages, spine, mask = best
    if pages * count < total:
        raise RuntimeError("maximum fell below the average; enumeration is broken")
    return BookCertificate(colour, spine, tuple(bits(mask)))


@dataclass(frozen=True)
class CandidateRecord:
    """One spine prescription tried by the extraction case analysis."""

    case: str
    cert: BookCertificate | None


@dataclass(frozen=True)
class ExtractionTrace:
    lines: tuple[str, ...]
    candidates: tuple[CandidateRecord, ...]
    winner: int | None

    def render(self) -> str:
        return "\n".join(self.lines) + "\n"


def _find_blowup(reduced: ReducedGraph, verts: list[int], k: int, t_max: int, blue: int):
    """Largest t <= t_max admitting k disjoint t-subsets of ``verts``, each a
    monochromatic clique in the reduced edge colouring, pairwise joined
    entirely in ``blue``.  Deterministic lexicographic search; parts are
    ordered by their smallest element."""
    rows = reduced.rows

    def blowups(count, allowed, t):
        # every run of ``count`` parts in ``allowed`` in lexicographic order,
        # with the vertices a further part may use: those above a part's
        # smallest joined to it in blue (the blue rows hold no vertex of
        # their own, so the part is left out too).  Halving the count nests
        # the generators log2(k) deep, as in _transversal_scan
        if count > 1:
            for head, rest in blowups(count // 2, allowed, t):
                for tail, narrowed in blowups(count - count // 2, rest, t):
                    yield head + tail, narrowed
            return
        # the red and the blue t-cliques in one lexicographic stream; a single
        # vertex is a clique of both colours, so t = 1 reads one of them
        streams = [clique_pages(r, allowed, allowed, t) for r in rows[: 1 if t == 1 else 2]]
        for part, _ in heapq.merge(*streams):
            narrowed = allowed & -(2 << part[0])
            for v in part:
                narrowed &= rows[blue][v]
            yield (part,), narrowed

    for t in range(min(t_max, len(verts) // k if k > 0 else 0), 0, -1):
        # each vertex of a blow-up has t(k - 1) blue neighbours inside it, so
        # the pool is peeled until every vertex left has that many in it
        pool = mask_of(verts)
        while weak := mask_of(
            v for v in bits(pool) if (rows[blue][v] & pool).bit_count() < t * (k - 1)
        ):
            pool ^= weak
        found = next(blowups(k, pool, t), None)
        if found is not None:
            return t, found[0]
    return None


def extract_book(
    col: Colouring, reduced: ReducedGraph, k: int, t_max: int = 3
) -> tuple[BookCertificate | None, ExtractionTrace]:
    """Run the case analysis on the reduced graph and realise every
    applicable spine prescription exactly.

    Both colour roles are tried.  A "red" vertex of high red degree
    prescribes spines inside its subset with pages over its own class and its
    red-neighbour classes; a blue blow-up with monochromatic parts triggers
    the blue-clique subcases (including the high red-density-sum escape) or,
    when all parts are red, the dichotomy endgame, choosing vertex tuples
    that maximise the exact density-product sums.  Every candidate
    certificate is re-verified; the best page count wins, earliest candidate
    on ties.
    """
    if k < 1:
        raise ValueError("spine size must be at least 1")
    part = reduced.partition
    classes, subsets = part.classes, part.subsets
    m = part.m
    eta, delta = reduced.eta, reduced.delta
    surv = reduced.survivors()
    ell = math.ldexp(m, -k)  # m / 2.0**k, which overflows from k = 1024
    m_prime = (1.0 - math.sqrt(eta)) * m
    s_min = math.ceil((0.5 - math.sqrt(eta)) * m)
    states = reduced.edge_colours

    lines: list[str] = []
    records: list[CandidateRecord] = []
    out = lines.append
    out(
        f"extract\tk={k}\teta={eta:.6f}\tdelta={delta:.6f}\tm={m}\tell={ell:.6f}"
        f"\tm_prime={m_prime:.6f}\ts_min={s_min}\tt_max={t_max}"
    )
    for i, cl in enumerate(classes):
        out(f"class\t{i}\t" + " ".join(str(v + 1) for v in cl))
    for i, w in enumerate(subsets):
        out(f"subset\t{i}\t" + " ".join(str(v + 1) for v in w))
    for i in range(m):
        out("dvv\t" + "\t".join(f"{reduced.d_vv[i][j]:.6f}" for j in range(m)))
    for i, row in enumerate(states):
        marks = ("-" if j == i else "." if st is None else "rb"[st] for j, st in enumerate(row))
        out(f"edges\t{i}\t" + "".join(marks))
    out("vertex_colours\t" + "".join("r" if c == RED else "b" for c in reduced.vertex_colours))
    out("deleted\t" + (" ".join(str(i) for i in sorted(reduced.deleted)) or "-"))

    def add_candidate(case, role_red, colour, spine_parts, spine_label, page_idx):
        page_parts = [classes[j] for j in page_idx]
        page_label = " ".join(f"V{j}" for j in page_idx) or "-"
        cert = transversal_best_spine(col, colour, spine_parts, page_parts)
        idx = len(records)
        if cert is not None:
            verdict = verify_certificate(col, cert, 0)
            if not verdict.ok:
                raise RuntimeError(f"extraction produced a bad certificate: {verdict}")
        records.append(CandidateRecord(case, cert))
        out(
            f"candidate\t{idx}\t{case}\trole_red={role_red}\tcolour={colour}"
            f"\tspine={spine_label}\tpages={page_label}\t"
            + ("nospine" if cert is None else f"got={cert.page_count}")
        )

    def add_best_tuple(case, role_red, colour, tuples):
        tup = _best_tuple(reduced, tuples, colour)
        if tup is not None:
            chosen, page_idx = tup
            add_candidate(
                case,
                role_red,
                colour,
                [subsets[a] for a in chosen],
                " ".join(f"W{a}" for a in chosen),
                page_idx,
            )

    for role_red in (0, 1):
        role_blue = 1 - role_red
        out(f"role\tred={role_red}")
        fired_a = False
        for a in surv:
            if reduced.vertex_colours[a] != role_red:
                continue
            deg = reduced.rows[role_red][a].bit_count()
            if deg + _FUZZ >= ell:
                fired_a = True
                out(f"caseA\tvertex={a}\tred_degree={deg}\tell={ell:.6f}")
                page_idx = [a, *bits(reduced.rows[role_red][a])]
                add_candidate("A", role_red, role_red, [subsets[a]] * k, f"W{a}^{k}", page_idx)
        if not fired_a:
            out("caseA\tnone")

        red_verts = [v for v in surv if reduced.vertex_colours[v] == role_red]
        blow = _find_blowup(reduced, red_verts, k, t_max, role_blue)
        if blow is None:
            out("blowup\tnone")
            continue
        t, parts = blow
        out(
            "blowup\tt=%d\tparts=%s"
            % (t, ";".join(",".join(str(v) for v in p) for p in parts))
        )

        all_red = True
        for pi, p in enumerate(parts):
            pc = role_red if len(p) == 1 else states[p[0]][p[1]]  # one vertex counts as red
            out(f"part\t{pi}\tinternal={'r' if pc == role_red else 'b'}")
            if pc != role_red:
                all_red = False
                for a in p:
                    near = list(bits(reduced.rows[RED][a] | reduced.rows[BLUE][a]))
                    total = sum(reduced.subset_density(role_red, a, j) for j in near)
                    escaped = total + _FUZZ >= m / 2.0
                    out(
                        f"escape\tvertex={a}\tsum={total:.6f}\tthreshold={m / 2.0:.6f}"
                        f"\tfired={'y' if escaped else 'n'}"
                    )
                    if escaped:
                        add_candidate(
                            "B-escape", role_red, role_red, [subsets[a]] * k, f"W{a}^{k}", [a, *near]
                        )
                if t >= k:
                    add_best_tuple("B-blue", role_red, role_blue, itertools.combinations(p, k))
                else:
                    out(f"subcase\tblue-part-too-small\tt={t}\tk={k}")

        if all_red:
            etab = {
                v: [
                    sum(reduced.subset_density(role_blue, w, v) for w in parts[i])
                    for i in range(k)
                ]
                for v in surv
            }
            for v in surv:
                out(
                    f"etable\tv={v}\t"
                    + "\t".join(f"{etab[v][i]:.6f}" for i in range(k))
                )
            lhs_red = sum(sum(_power(t - e, k) for e in etab[v]) for v in surv)
            lhs_blue = sum(math.prod(etab[v]) for v in surv)
            thr_red = _power(t / 2.0, k) * k * m_prime
            thr_blue = _power(t / 2.0, k) * m_prime
            out(
                f"dichotomy\tlhs_red={lhs_red:.6f}\tthr_red={thr_red:.6f}"
                f"\tfired={'y' if lhs_red + _FUZZ >= thr_red else 'n'}"
            )
            out(
                f"dichotomy\tlhs_blue={lhs_blue:.6f}\tthr_blue={thr_blue:.6f}"
                f"\tfired={'y' if lhs_blue + _FUZZ >= thr_blue else 'n'}"
            )
            add_best_tuple("end-blue", role_red, role_blue, itertools.product(*parts))
            for r in range(k):
                tuples = itertools.combinations_with_replacement(parts[r], k)
                add_best_tuple(f"end-red-{r}", role_red, role_red, tuples)

    # max keeps the first of equal page counts, so the earliest candidate wins
    best = max(
        (i for i, r in enumerate(records) if r.cert is not None),
        key=lambda i: records[i].cert.page_count,
        default=None,
    )
    if best is None:
        out("winner\tnone")
        return None, ExtractionTrace(tuple(lines), tuple(records), None)
    result = records[best].cert
    out(f"winner\t{best}\tpages={result.page_count}")
    # [:-1], not rstrip: a certificate with no pages keeps its trailing tab
    out("certificate\t" + emit_certificate(result)[:-1].replace("\n", "\t"))
    return result, ExtractionTrace(tuple(lines), tuple(records), best)


def _power(base: float, k: int) -> float:
    """base ** k, or inf past the largest double, where float ** int raises."""
    try:
        return base**k
    except OverflowError:
        return math.inf


def _best_tuple(reduced, tuples, colour):
    """Vertex tuple of ``tuples`` maximising the exact sum over admissible
    classes of the product of subset-to-class densities in ``colour``.
    Admissible classes survive deletion, avoid the tuple, and have coloured
    edges to every tuple member: the bits of every member's coloured row."""
    red, blue = reduced.rows
    alive = mask_of(reduced.survivors())
    best = None
    for tup in tuples:
        admissible = alive
        for a in tup:
            admissible &= red[a] | blue[a]
        page_idx = list(bits(admissible))
        value = sum(
            math.prod(reduced.subset_density(colour, a, j) for a in tup) for j in page_idx
        )
        if best is None or value > best[0] + _FUZZ:
            best = (value, tup, page_idx)
    if best is None:
        return None
    return best[1], best[2]
