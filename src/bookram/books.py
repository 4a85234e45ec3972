"""Maximum monochromatic book extraction, certificate checking, and the
spine/page profile of a colouring.

A book with spine size k is a monochromatic K_k together with the vertices
joined to all of it in the same colour (its pages).  ``max_book`` reports the
best spine over all colours with deterministic tie-breaking: smaller colour
index first, then lexicographically smallest spine.

``max_book`` and ``local_profile`` read every page count from the exact
float32 matrix products of ``_spine_blocks``, for every k; ``has_mono_book``
walks ``clique_pages`` instead and stops at the first witness.
"""

from __future__ import annotations

import contextlib
import ctypes
import functools
import os
from dataclasses import dataclass

import numpy as np

from .colouring import (
    BookCertificate,
    Colouring,
    bits,
    clique_pages,
    common_pages,
)

#: Fewest vertices on which the dense path runs its colours in threads.  On
#: smaller colourings the per-spine Python work of k >= 3 and the pool's start-up
#: outweigh the matrix products, and threads only contend for the
#: interpreter: on 2 cores, random K_256 took 1.6x (k=2) and 1.3x (k=3) as
#: long in threads, K_512 0.8x for k=3 and K_2048 0.6x for k=2.
THREADED_MIN_VERTICES = 512


@dataclass(frozen=True)
class Verdict:
    """Outcome of a certificate check; on rejection, ``reason`` names the
    first violated condition and ``witness`` the offending vertices."""

    ok: bool
    reason: str | None = None
    witness: tuple | None = None


@dataclass(frozen=True)
class BookProfile:
    """Per-colour histogram of page counts over all spines of size k."""

    k: int
    histograms: tuple[dict[int, int], ...]
    best: BookCertificate | None


def max_book(col: Colouring, k: int) -> BookCertificate | None:
    """Certificate with the maximum page count over all colours and all
    monochromatic k-clique spines, or None when no spine exists at all.

    "No spine" is distinct from a 0-page certificate.  Colours ascending, one
    per task of ``_map_colours``, and the first row-major maximum inside a
    colour, which is its lexicographically smallest best spine.

    A circulant colouring (``Colouring.is_circulant``) is searched through
    the spines through vertex 0 alone, with the same certificate.  Rotation
    maps every colour onto itself and keeps page counts, so rotating a spine
    of colour c by its smallest vertex gives a spine of c through 0 with as
    many pages: each colour's best page count, and whether it has a spine at
    all, are those of its spines through 0.  A spine through 0 begins with 0,
    so it is lexicographically smaller than every spine that avoids 0, and a
    colour's smallest best spine goes through 0.  So the first row-major
    maximum of the vertex-0 blocks is the full search's.
    """
    if k < 1:
        raise ValueError("spine size must be at least 1")
    stop = 1 if col.is_circulant() else col.n
    return _certificate(col, _first_best(_map_colours(col, lambda c: _max_book_colour(col, k, c, stop))))


def _certificate(col: Colouring, found) -> BookCertificate | None:
    """The certificate of a search's best (pages, colour, spine), its pages
    read back from the colouring, or None when the search found no spine."""
    if found is None:
        return None
    _, colour, spine = found
    return BookCertificate(colour, spine, tuple(bits(common_pages(col, colour, spine))))


def _block_best(best, c: int, block):
    """``best`` (pages, colour, spine), or the block's first row-major
    maximum in colour c when it has strictly more pages.  Overwrites the
    block's pages."""
    heads, labels, pages, mask = block
    # shifted up by one and zeroed off the mask, so non-spines sit below every spine
    pages += 1
    pages *= mask
    at = int(pages.argmax())
    m = int(pages.flat[at]) - 1
    if m < 0 or (best is not None and m <= best[0]):
        return best
    i, j = np.unravel_index(at, pages.shape)
    return m, c, (*map(int, heads[i]), int(labels[j]))


def _first_best(found):
    """The (pages, colour, spine) with the most pages among the per-colour
    bests in colour order, the first of them on a tie; None when no colour
    has a spine."""
    return max((f for f in found if f is not None), key=lambda f: f[0], default=None)


def _max_book_colour(col: Colouring, k: int, c: int, stop: int):
    """Best (pages, c, spine) of colour c among the spines whose smallest
    vertex is below ``stop``, or None when there is no such spine; the best
    so far is the bar of the descent."""
    best = None
    for block in _spine_blocks(col.dense(c), k, lambda: -1 if best is None else best[0], stop):
        best = _block_best(best, c, block)
    return best


@functools.cache
def _blas_thread_limit():
    """OpenBLAS's ``openblas_set_num_threads_local`` from the library numpy
    loaded (a path under numpy's tree is tried first, should another package
    have loaded an OpenBLAS of its own), or None when none has it."""
    try:
        with open("/proc/self/maps", encoding="ascii", errors="replace") as fh:
            paths = {line.split(None, 5)[-1].strip() for line in fh if "openblas" in line}
    except OSError:
        return None
    for path in sorted(paths, key=lambda path: ("numpy" not in path, path)):
        try:
            limit = ctypes.CDLL(path).openblas_set_num_threads_local
        except (OSError, AttributeError):
            continue
        limit.argtypes, limit.restype = [ctypes.c_int], ctypes.c_int
        return limit
    return None


@contextlib.contextmanager
def _one_blas_thread():
    """Limit the calling thread to one OpenBLAS thread, restoring its previous
    limit on exit; a no-op when the per-thread limit is missing."""
    limit = _blas_thread_limit() or (lambda share: share)
    previous = limit(1)
    try:
        yield
    finally:
        limit(previous)


def _usable_cpus() -> int:
    """CPUs this process may run on."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def _colour_workers(col: Colouring) -> int:
    """Threads ``_map_colours`` runs the colours of ``col`` on: min(q, usable
    CPUs), or 1 (the calling thread) below THREADED_MIN_VERTICES or when
    OpenBLAS's per-thread limit is missing."""
    workers = min(col.q, _usable_cpus())
    if workers < 2 or col.n < THREADED_MIN_VERTICES or _blas_thread_limit() is None:
        return 1
    return workers


def _map_colours(col: Colouring, task) -> list:
    """``[task(c) for c in range(col.q)]``, one colour per thread on
    ``_colour_workers(col)`` threads, each first limited to its share of the
    CPUs in OpenBLAS.  With one worker the tasks run here one at a time: two
    threads each on a BLAS that already uses every core only compete."""
    workers = _colour_workers(col)
    if workers == 1:
        return [task(c) for c in range(col.q)]
    # imported here, so a CLI start-up that never gets here does not pay its 7 ms
    from concurrent.futures import ThreadPoolExecutor

    share = max(1, _usable_cpus() // workers)
    with ThreadPoolExecutor(workers, initializer=_blas_thread_limit(), initargs=(share,)) as pool:
        return list(pool.map(task, range(col.q)))


def _spine_blocks(a: np.ndarray, k: int, bar=lambda: -1, stop: int | None = None):
    """The size-k spines (cliques) of the 0/1 matrix ``a`` whose smallest
    vertex is below ``stop`` (every spine when None) as blocks (heads,
    labels, pages, mask): each True ``mask[r, j]`` is the spine ``(*heads[r],
    labels[j])`` with ``pages[r, j]`` pages, an exact float32 (counts are
    below 2^24).  No spine is in two blocks, and blocks and their row-major
    entries come in lexicographic order.  A spine is left out only when, as
    its branch is reached, the branch cannot have more than ``bar()`` pages.

    k=1 is the degree row and k=2 the product ``a[:stop] @ a.T`` (a is
    symmetric, and numpy runs ``x @ x.T`` as a symmetric rank-k update, a
    row slice of x included when it keeps every row).  For k >= 3 the
    blocks come per smallest spine vertex u, ascending, from B, the rows of
    u's later neighbours restricted to its neighbours, and E, the upper
    triangle of edges among them.  From R = B and C = E, each of k-3 levels
    counts the pages of every one-vertex extension as ``R @ B.T`` and keeps
    those to a candidate that, less the picks still to make, beat the bar,
    as next rows ``R[r] * B[j]`` and candidates ``C[r] & E[j]``; the last
    product is the block.  Rows are extended _CHUNK at a time, depth first,
    so memory stays bounded and the bar is re-read between chunks.  The
    per-u products run on one OpenBLAS thread (2 cores, K_511 k=3: 0.25 s,
    against 0.29 s on two).
    """
    n = len(a)
    if stop is None:
        stop = n
    if k == 1:
        pages = a[:stop].sum(1, dtype=np.float32)[None]
        yield np.empty((1, 0), int), np.arange(stop), pages, np.ones(pages.shape, bool)
        return
    if k == 2:
        edge = a.astype(np.float32)
        pages = edge[:stop] @ edge.T
        yield np.arange(stop)[:, None], np.arange(n), pages, np.triu(a[:stop].view(bool), 1)
        return
    degree = a.sum(1, dtype=np.int64)
    # its leading square blocks are the strict upper triangles of every size
    # up to the largest number of later neighbours
    upper = np.triu(np.ones((degree.max(),) * 2, bool), 1)
    with _one_blas_thread():
        for u in range(min(stop, n - k + 1)):
            # every page of a spine through u is one of its other neighbours
            if degree[u] - (k - 1) <= bar():
                continue
            nbrs = np.flatnonzero(a[u])
            first = int(np.searchsorted(nbrs, u))
            cand = nbrs[first:]
            if cand.size < k - 1:
                continue
            # the later neighbours are the last columns, so their edges are a slice
            block = a.take(cand, 0).take(nbrs, 1)
            rows = block.astype(np.float32)
            later = block[:, first:].view(bool) & upper[: cand.size, : cand.size]
            heads = np.column_stack((np.full(cand.size, u), cand))
            yield from _descend(rows, later, rows, later, heads, cand, k - 3, bar)


#: Clique rows the descent of ``_spine_blocks`` extends at a time.
_CHUNK = 1024


def _descend(b, e, rows, cands, heads, labels, left, bar):
    """The blocks of ``_spine_blocks`` below the cliques ``heads``, whose
    pages among u's neighbours are ``rows`` and whose later common neighbours
    are ``cands``, with ``left + 1`` vertices still to add from ``labels``."""
    pages = rows @ b.T
    if left == 0:
        yield heads, labels, pages, cands
        return
    # the bar only rises, so each chunk re-checks a subset of these pairs
    r, j = np.nonzero(cands & (pages > bar() + left))
    for at in range(0, r.size, _CHUNK):
        rr, jj = r[at : at + _CHUNK], j[at : at + _CHUNK]
        live = pages[rr, jj] > bar() + left
        rr, jj = rr[live], jj[live]
        if rr.size:
            extended = np.column_stack((heads[rr], labels[jj]))
            yield from _descend(b, e, rows[rr] * b[jj], cands[rr] & e[jj], extended, labels, left - 1, bar)


def has_mono_book(col: Colouring, k: int, n: int) -> bool:
    """True iff some monochromatic spine of size k has at least n pages.

    Short-circuits on the first witness; agrees with
    ``max_book(col, k).page_count >= n``.
    """
    if k < 1 or n < 1:
        raise ValueError("spine size and page bound must be at least 1")
    full = col.full_mask()
    for c in range(col.q):
        for _ in clique_pages(col.adj[c], full, full, k, n - 1):
            return True
    return False


def verify_certificate(col: Colouring, cert: BookCertificate, n: int) -> Verdict:
    """Accept iff the spine is a clique in the claimed colour, pages are
    disjoint from the spine and joined to all of it in that colour, and there
    are at least n pages.

    Checks run in a fixed order (colour, range, duplicates, spine clique,
    overlap, page joins, page count) and the first failure is reported.
    """
    if not 0 <= cert.colour < col.q:
        return Verdict(False, "colour", (cert.colour,))
    for v in cert.spine + cert.pages:
        if not 0 <= v < col.n:
            return Verdict(False, "range", (v,))
    if not cert.spine:
        return Verdict(False, "empty-spine", ())
    if len(set(cert.spine)) != len(cert.spine):
        return Verdict(False, "spine-duplicate", (cert.spine,))
    if len(set(cert.pages)) != len(cert.pages):
        return Verdict(False, "page-duplicate", (cert.pages,))
    adjc = col.adj[cert.colour]
    for i, u in enumerate(cert.spine):
        for v in cert.spine[i + 1 :]:
            if not (adjc[u] >> v) & 1:
                return Verdict(False, "spine-not-clique", (u, v))
    spine_set = set(cert.spine)
    for p in cert.pages:
        if p in spine_set:
            return Verdict(False, "page-overlaps-spine", (p,))
    for p in cert.pages:
        for u in cert.spine:
            if not (adjc[p] >> u) & 1:
                return Verdict(False, "page-not-joined", (p, u))
    if cert.page_count < n:
        return Verdict(False, "too-few-pages", (cert.page_count, n))
    return Verdict(True)


def local_profile(col: Colouring, k: int) -> BookProfile:
    """Exact per-colour histogram of page counts over all size-k spines,
    together with the best certificate (same tie rules as ``max_book``).
    The histogram counts every spine, so a circulant colouring takes no
    vertex-0 shortcut here."""
    if k < 1:
        raise ValueError("spine size must be at least 1")
    per_colour = _map_colours(col, lambda c: _profile_colour(col, k, c))
    best = _first_best(best for _, best in per_colour)
    return BookProfile(k, tuple(hist for hist, _ in per_colour), _certificate(col, best))


def _profile_colour(col: Colouring, k: int, c: int):
    """Page histogram of colour c's spines (a histogram of the masked page
    entries of every block, with no bar) and its first row-major maximum, the
    lexicographically smallest spine, as (pages, c, spine)."""
    counts = np.zeros(col.n, dtype=np.int64)
    best = None
    for block in _spine_blocks(col.dense(c), k):
        _, _, pages, mask = block
        counts += np.bincount(pages[mask].astype(np.int64), minlength=col.n)
        best = _block_best(best, c, block)
    return {int(p): int(counts[p]) for p in np.flatnonzero(counts)}, best


def profile_tsv(profile: BookProfile) -> str:
    """Render a profile as TSV, one ``pages<TAB>count`` row per entry,
    grouped in per-colour sections."""
    out = []
    for c, hist in enumerate(profile.histograms):
        out.append(f"colour\t{c}")
        for pages in sorted(hist):
            out.append(f"{pages}\t{hist[pages]}")
    return "\n".join(out) + "\n"

