"""Exact small book Ramsey numbers by branch-and-prune DFS over edge
colourings.

The search assigns edges in lexicographic order and prunes a branch as soon
as the partially coloured graph already contains a monochromatic book among
the decided edges.  A budgeted run that stops early reports "inconclusive",
which is kept strictly distinct from an exhausted "none exists" proof.
"""

from __future__ import annotations

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


class _BudgetExhausted(Exception):
    pass


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
    seconds: float


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
    seconds: float

    @property
    def ramsey_number(self) -> int | None:
        return self.upper if self.status == EXACT else None


def _creates_book(adj, u: int, v: int, c: int, k: int, n: int) -> bool:
    """After edge (u, v) got colour c, does a monochromatic book with spine
    size k and >= n pages exist among decided edges?

    Any new book uses the new edge, either inside its spine or joining a page
    to a spine vertex, so only spines through u or v need scanning.  The
    rest of such a spine lies in ``both``, inside each page mask searched, so
    the kernel's bound holds.  For k <= 2 such a spine is u or v alone,
    {u, v}, or u or v with one w from ``both``, so popcounts answer without
    the kernel.
    """
    adjc = adj[c]
    ru, rv = adjc[u], adjc[v]
    if k == 1:
        return ru.bit_count() >= n or rv.bit_count() >= n
    both = ru & rv
    if k == 2:
        if both.bit_count() >= n:
            return True
        while both:
            low = both & -both
            both ^= low
            rw = adjc[low.bit_length() - 1]
            if (ru & rw).bit_count() >= n or (rv & rw).bit_count() >= n:
                return True
        return False
    for _ in clique_pages(adjc, both, both, k - 2, n - 1):
        return True
    for pages in (ru, rv):
        for _ in clique_pages(adjc, both, pages, k - 1, n - 1):
            return True
    return False


def find_witness(
    k: int,
    n: int,
    size: int,
    budget: Budget | None = None,
    symmetry: bool = True,
) -> WitnessResult:
    """Search for a colouring of K_size with no monochromatic B_n^(k).

    With ``symmetry`` on, the first vertex's edge colours are forced to a
    non-increasing pattern; any colouring can be relabelled into that form,
    so exhaustion still proves nonexistence.
    """
    if k < 1 or n < 1:
        raise ValueError("spine size and page count must be at least 1")
    if size < 1:
        raise ValueError("need at least one vertex")
    budget = budget or Budget()
    edges = [(u, v) for u in range(size) for v in range(u + 1, size)]
    adj = [[0] * size for _ in range(2)]
    start = time.perf_counter()
    nodes = 0
    deadline = None if budget.max_seconds is None else start + budget.max_seconds

    def tick():
        nonlocal nodes
        nodes += 1
        if budget.max_nodes is not None and nodes > budget.max_nodes:
            raise _BudgetExhausted
        if deadline is not None and nodes % 1024 == 0 and time.perf_counter() > deadline:
            raise _BudgetExhausted

    def dfs() -> bool:
        """Depth-first over the edges in order, colour 0 before colour 1,
        on an explicit stack of (edge index, colour) per coloured edge."""
        stack: list[tuple[int, int]] = []
        idx, c = 0, 0
        while idx < len(edges):
            u, v = edges[idx]
            if symmetry and u == 0 and v >= 2:
                top = (adj[1][0] >> (v - 1)) & 1  # colour of edge (0, v-1)
            else:
                top = 1
            if c <= top:
                tick()
                adj[c][u] |= 1 << v
                adj[c][v] |= 1 << u
                if not _creates_book(adj, u, v, c, k, n):
                    stack.append((idx, c))
                    idx, c = idx + 1, 0
                    continue
            elif stack:
                idx, c = stack.pop()
                u, v = edges[idx]
            else:
                return False
            adj[c][u] &= ~(1 << v)
            adj[c][v] &= ~(1 << u)
            c += 1
        return True

    try:
        ok = dfs()
    except _BudgetExhausted:
        return WitnessResult(INCONCLUSIVE, None, nodes, time.perf_counter() - start)
    elapsed = time.perf_counter() - start
    if not ok:
        return WitnessResult(NONE, None, nodes, elapsed)
    col = Colouring(size, 2, (tuple(adj[0]), tuple(adj[1])))
    if has_mono_book(col, k, n):
        raise RuntimeError("search produced an invalid witness; pruning is broken")
    return WitnessResult(FOUND, col, nodes, elapsed)


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
    size = 1
    while True:
        remaining = Budget(
            None if budget.max_nodes is None else budget.max_nodes - total_nodes,
            None if budget.max_seconds is None else budget.max_seconds - (time.perf_counter() - t0),
        )
        if (remaining.max_nodes is not None and remaining.max_nodes <= 0) or (
            remaining.max_seconds is not None and remaining.max_seconds <= 0
        ):
            return ExactResult(
                k, n, BOUNDED, lower, None, witness, total_nodes, time.perf_counter() - t0
            )
        res = find_witness(k, n, size, remaining)
        total_nodes += res.nodes
        if res.status == FOUND:
            lower = size
            witness = res.colouring
            size += 1
        elif res.status == NONE:
            return ExactResult(
                k, n, EXACT, lower, size, witness, total_nodes, time.perf_counter() - t0
            )
        else:
            return ExactResult(
                k, n, BOUNDED, lower, None, witness, total_nodes, time.perf_counter() - t0
            )
