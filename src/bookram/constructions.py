"""Lower-bound colouring generators paired with exact verifiers.

Covers seeded random colourings, the Paley colourings of prime order, the
multicolour blow-up (template colouring on t parts, internal edges get a
fresh colour), and the s-uniform hypergraph blow-up with its three-case edge
rule, plus maximum-book analysis for hypergraphs.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from math import comb, isqrt

import numpy as np

from .books import max_book
from .colouring import (
    HYPER_ENTRY_CAP,
    STRIP_ROWS,
    BookCertificate,
    Colouring,
    HyperColouring,
)

#: The colouring generators refuse to build more vertices than this.
MAX_GENERATED_VERTICES = 1 << 14
# random bases search_hypergraph_base draws before it gives up
_BASE_TRIES = 100_000


def pentagon_colouring() -> Colouring:
    """The bundled blow-up base: red 5-cycle 0-1-2-3-4-0, blue complement,
    which is the Paley colouring P_5.

    Self-complementary and triangle-free in both colours.
    """
    return paley_colouring(5)


def paley_colouring(p: int) -> Colouring:
    """The Paley colouring P_p of K_p for a prime p = 1 (mod 4): edge (u, v)
    is red where v - u is a nonzero square mod p, blue otherwise (-1 is a
    square, so the rule is symmetric).  Every edge has (p - 5) / 4 common
    neighbours in its own colour (Rousseau and Sheehan, 1978)."""
    if p > MAX_GENERATED_VERTICES:
        raise ValueError(f"P_{p} has more vertices than the cap of {MAX_GENERATED_VERTICES}")
    if p < 5 or p % 4 != 1 or any(p % d == 0 for d in range(2, isqrt(p) + 1)):
        raise ValueError(f"{p} is not a prime congruent to 1 mod 4")
    square = np.zeros(p, dtype=bool)
    square[np.arange(1, p, dtype=np.int64) ** 2 % p] = True
    # colour of every difference d = v - u over two periods, 2 (no colour) at d = 0
    colours = np.tile(np.where(square, 0, 1).astype(np.uint8), 2)
    colours[[0, p]] = 2
    # row u is colours[p - u : 2p - u], the window starting at p - u; a view,
    # so the N-by-N matrix is never built
    windows = np.lib.stride_tricks.sliding_window_view(colours, p)
    return Colouring.from_matrix(windows[p:0:-1], 2)


def random_colouring(size: int, seed: int) -> Colouring:
    """Each edge independently red or blue with probability 1/2, drawn from a
    seeded PCG64 stream; identical (size, seed) gives identical bytes."""
    if not 1 <= size <= MAX_GENERATED_VERTICES:
        raise ValueError(f"vertex count must lie in 1..{MAX_GENERATED_VERTICES}, got {size}")
    rng = np.random.default_rng(seed)
    # the upper triangle of one draw holds the colours; it is mirrored in
    # place a strip of rows at a time (numpy buffers only the strip's overlap
    # with its transpose), so the draw is the one N-by-N array
    matrix = rng.integers(0, 2, size=(size, size), dtype=np.uint8)
    for v in range(size):
        matrix[v, : v + 1] = 0
    for start in range(0, size, STRIP_ROWS):
        stop = min(start + STRIP_ROWS, size)
        matrix[start:stop, :stop] |= matrix[:stop, start:stop].T
    np.fill_diagonal(matrix, 2)
    return Colouring.from_matrix(matrix, 2)


def multicolour_blowup(base: Colouring, part_size: int) -> Colouring:
    """Replace every template vertex by a block of ``part_size`` vertices.

    Edges between blocks i != j inherit the template colour of (i, j); edges
    inside a block all get the fresh colour ``base.q``.  Vertex v lives in
    block v // part_size.
    """
    if part_size < 1:
        raise ValueError("part size must be at least 1")
    total, q_out = base.n * part_size, base.q + 1
    if total > MAX_GENERATED_VERTICES:
        raise ValueError(f"blow-up has {total} vertices, above the cap of {MAX_GENERATED_VERTICES}")
    # the template's colours with the fresh one on its diagonal, blown up;
    # the diagonal of the result gets q_out, which no colour matches
    template = base.matrix().astype(np.min_scalar_type(q_out), copy=False)
    matrix = template.repeat(part_size, 0).repeat(part_size, 1)
    np.fill_diagonal(matrix, q_out)
    return Colouring.from_matrix(matrix, q_out)


@dataclass(frozen=True)
class BlowupVerdict:
    """Accepts iff no colour admits a spine with ``page_bound`` pages or
    more; a rejection carries the offending certificate."""

    ok: bool
    certificate: BookCertificate | None


def verify_no_book_multicolour(col: Colouring, k: int, page_bound: int) -> BlowupVerdict:
    """Exact check that every colour's maximum book has fewer than
    ``page_bound`` pages (q >= 2 colours supported)."""
    cert = max_book(col, k)
    if cert is None or cert.page_count < page_bound:
        return BlowupVerdict(True, None)
    return BlowupVerdict(False, cert)


def hypergraph_blowup(base: HyperColouring, part_size: int, k: int) -> HyperColouring:
    """s-uniform blow-up: an edge meeting s distinct parts inherits the base
    colour of those parts, an edge inside one part is red, anything else is
    blue.  The spine size ``k`` the construction targets must be a multiple
    of the uniformity."""
    if part_size < 1:
        raise ValueError("part size must be at least 1")
    if k % base.s != 0:
        raise ValueError(f"spine size {k} is not a multiple of uniformity {base.s}")
    total = base.n * part_size

    def colour_of(edge) -> int:
        parts = tuple(v // part_size for v in edge)
        distinct = set(parts)
        if len(distinct) == base.s:
            return base.colour_of(sorted(distinct))
        if len(distinct) == 1:
            return 0
        return 1

    return HyperColouring.from_edge_colours(total, base.s, colour_of)


def _all_coloured(h: HyperColouring, edges, colour: int) -> bool:
    return all(h.colour_of(e) == colour for e in edges)


def hyper_max_book(h: HyperColouring, k: int) -> BookCertificate | None:
    """Best page count over all monochromatic K_k^(s) spines; a spine with
    fewer than s vertices is vacuously monochromatic in both colours.
    Tie-break: smaller colour, then lexicographically smallest spine.  More
    than HYPER_ENTRY_CAP spines are refused before any is enumerated."""
    if k < h.s - 1:
        raise ValueError(f"spine size {k} below s-1 = {h.s - 1}")
    if comb(h.n, k) > HYPER_ENTRY_CAP:
        raise ValueError(f"C({h.n},{k}) = {comb(h.n, k)} spines exceed cap {HYPER_ENTRY_CAP}")
    if k > h.n:
        return None
    best = None
    for colour in (0, 1):
        for spine in itertools.combinations(range(h.n), k):
            if not _all_coloured(h, itertools.combinations(spine, h.s), colour):
                continue
            # v is a page iff each (s-1)-subset of the spine with v has the colour
            subs = list(itertools.combinations(spine, h.s - 1))
            pages = tuple(
                v
                for v in range(h.n)
                if v not in spine and _all_coloured(h, (sorted(t + (v,)) for t in subs), colour)
            )
            if best is None or len(pages) > best[0]:
                best = (len(pages), colour, spine, pages)
    if best is None:
        return None
    return BookCertificate(best[1], best[2], best[3])


def search_hypergraph_base(size: int, s: int, forbid: int, seed: int) -> HyperColouring:
    """Random search, _BASE_TRIES draws at most, for a 2-colouring of the
    complete s-uniform hypergraph on ``size`` vertices with no monochromatic
    K_forbid^(s)."""
    if forbid < s:
        raise ValueError("forbidden clique must have at least s vertices")
    rng = np.random.default_rng(seed)
    edges = list(itertools.combinations(range(size), s))
    index = {e: i for i, e in enumerate(edges)}
    cliques = [
        [index[e] for e in itertools.combinations(block, s)]
        for block in itertools.combinations(range(size), forbid)
    ]
    for _ in range(_BASE_TRIES):
        cols = rng.integers(0, 2, size=len(edges))
        ok = True
        for ids in cliques:
            first = cols[ids[0]]
            if all(cols[i] == first for i in ids[1:]):
                ok = False
                break
        if ok:
            return HyperColouring(size, s, tuple(int(c) for c in cols))
    raise RuntimeError(
        f"no K_{forbid}^({s})-free colouring found on {size} vertices in {_BASE_TRIES} tries"
    )
