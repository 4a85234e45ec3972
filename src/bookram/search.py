"""Exact small book Ramsey numbers by branch-and-prune DFS over edge
colourings.

The search assigns edges in lexicographic order and prunes a branch as soon
as the partially coloured graph already contains a monochromatic book among
the decided edges.  A budgeted run that stops early reports "inconclusive",
which is kept strictly distinct from an exhausted "none exists" proof.
"""

from __future__ import annotations

import sys
import time
from dataclasses import dataclass

from .books import has_mono_book
from .colouring import Colouring, clique_pages

FOUND = "found"
NONE = "none"
INCONCLUSIVE = "inconclusive"

EXACT = "exact"
BOUNDED = "bounded"


@dataclass(frozen=True)
class Budget:
    """Caps on search effort.  ``None`` means unlimited."""

    max_nodes: int | None = None
    max_seconds: float | None = None


@dataclass(frozen=True)
class WitnessResult:
    """Outcome of one fixed-size search.

    status "found": ``colouring`` avoids every monochromatic book B_n^(k) and
    was re-verified before return.  status "none": the exhausted search proves
    no such colouring exists.  status "inconclusive": the budget ran out.
    """

    status: str
    colouring: Colouring | None
    nodes: int


@dataclass(frozen=True)
class ExactResult:
    """Bracket for a book Ramsey number.

    ``lower`` is the largest vertex count with a verified witness colouring;
    ``upper`` the smallest count proved unavoidable (None when unknown).  When
    status is "exact", upper == lower + 1 and the Ramsey number is ``upper``.
    """

    k: int
    n: int
    status: str
    lower: int
    upper: int | None
    witness: Colouring | None
    nodes: int

    @property
    def ramsey_number(self) -> int | None:
        return self.upper if self.status == EXACT else None


def _book_test(k: int, n: int):
    """The book test of a search for B_n^(k), chosen once per search.

    ``test(adjc, u, v)`` says whether the colour rows ``adjc``, just after
    edge (u, v) was added to them, hold a book with spine size k and >= n
    pages among the decided edges.  Any new book uses the new edge, either
    inside its spine or joining a page to a spine vertex, so only spines
    through u or v need scanning.  The rest of such a spine lies in
    ``both``, inside each page mask searched, so the kernel's bound holds.
    For k <= 2 such a spine is u or v alone, {u, v}, or u or v with one w
    from ``both``, so popcounts answer without the kernel.
    """
    if k == 1:

        def test(adjc, u: int, v: int) -> bool:
            return adjc[u].bit_count() >= n or adjc[v].bit_count() >= n

    elif k == 2:

        def test(adjc, u: int, v: int) -> bool:
            ru, rv = adjc[u], adjc[v]
            both = ru & rv
            if both.bit_count() >= n:
                return True
            while both:
                low = both & -both
                both ^= low
                rw = adjc[low.bit_length() - 1]
                if (ru & rw).bit_count() >= n or (rv & rw).bit_count() >= n:
                    return True
            return False

    else:

        def test(adjc, u: int, v: int) -> bool:
            ru, rv = adjc[u], adjc[v]
            both = ru & rv
            for _ in clique_pages(adjc, both, both, k - 2, n - 1):
                return True
            for pages in (ru, rv):
                for _ in clique_pages(adjc, both, pages, k - 1, n - 1):
                    return True
            return False

    return test


def find_witness(
    k: int,
    n: int,
    size: int,
    budget: Budget | None = None,
) -> WitnessResult:
    """Search for a colouring of K_size with no monochromatic B_n^(k).

    The first vertex's edge colours are forced to a non-increasing pattern;
    any colouring can be relabelled into that form, so exhaustion still
    proves nonexistence.
    """
    if k < 1 or n < 1:
        raise ValueError("spine size and page count must be at least 1")
    if size < 1:
        raise ValueError("need at least one vertex")
    budget = budget or Budget()
    test = _book_test(k, n)
    # per edge: its endpoints and their bits
    edges = [(u, v, 1 << u, 1 << v) for u in range(size) for v in range(u + 1, size)]
    m = len(edges)
    # colours[i] is the colour edge i holds while the search is past it;
    # slot m is a constant 1.  Edge i may take colour 1 only if
    # colours[top[i]] is 1: edge (0, v) for v >= 2 (index v - 1) follows
    # edge (0, v - 1), and every other edge reads slot m.
    colours = [0] * m + [1]
    top = [i - 1 if 1 <= i <= size - 2 else m for i in range(m)]
    adj = ([0] * size, [0] * size)
    start = time.perf_counter()
    # the node cap is checked at every node and the clock every 1,024 nodes,
    # both by one comparison with ``check``, the next node at which one is due
    limit = sys.maxsize if budget.max_nodes is None else budget.max_nodes + 1
    deadline = None if budget.max_seconds is None else start + budget.max_seconds
    clock = sys.maxsize if deadline is None else 1024
    check = min(limit, clock)
    nodes = idx = c = 0
    while idx < m:
        # node: edge idx takes colour c
        nodes += 1
        if nodes >= check:
            if nodes >= limit or time.perf_counter() > deadline:
                return WitnessResult(INCONCLUSIVE, None, nodes)
            clock += 1024
            check = min(limit, clock)
        adjc = adj[c]
        u, v, ub, vb = edges[idx]
        adjc[u] ^= vb
        adjc[v] ^= ub
        if not test(adjc, u, v):
            colours[idx] = c
            idx += 1
            c = 0
            continue
        # undo, then move on to the next colour or back up the edges
        adjc[u] ^= vb
        adjc[v] ^= ub
        while c or not colours[top[idx]]:
            if not idx:
                return WitnessResult(NONE, None, nodes)
            idx -= 1
            c = colours[idx]
            u, v, ub, vb = edges[idx]
            adjc = adj[c]
            adjc[u] ^= vb
            adjc[v] ^= ub
        c = 1
    col = Colouring(size, 2, (tuple(adj[0]), tuple(adj[1])))
    if has_mono_book(col, k, n):
        raise RuntimeError("search produced an invalid witness; pruning is broken")
    return WitnessResult(FOUND, col, nodes)


def ramsey_book(k: int, n: int, budget: Budget | None = None) -> ExactResult:
    """Grow the vertex count until some size admits no witness colouring.

    The proved bracket is 2^k n + o_k(n) <= r(B_n^(k)) <= 4^k n, so the loop
    terminates well before the budget on sane inputs; a budgeted run reports
    the best-known bracket with status "bounded".
    """
    budget = budget or Budget()
    t0 = time.perf_counter()
    total_nodes = 0
    lower = 0
    witness = None
    status, upper = BOUNDED, None
    size = 1
    while True:
        remaining = Budget(
            None if budget.max_nodes is None else budget.max_nodes - total_nodes,
            None if budget.max_seconds is None else budget.max_seconds - (time.perf_counter() - t0),
        )
        if (remaining.max_nodes is not None and remaining.max_nodes <= 0) or (
            remaining.max_seconds is not None and remaining.max_seconds <= 0
        ):
            break
        res = find_witness(k, n, size, remaining)
        total_nodes += res.nodes
        if res.status != FOUND:
            if res.status == NONE:
                status, upper = EXACT, size
            break
        lower, witness = size, res.colouring
        size += 1
    return ExactResult(k, n, status, lower, upper, witness, total_nodes)
