"""Maximum monochromatic book extraction, certificate checking, and the
spine/page profile of a colouring.

A book with spine size k is a monochromatic K_k together with the vertices
joined to all of it in the same colour (its pages).  ``max_book`` reports the
best spine over all colours with deterministic tie-breaking: smaller colour
index first, then lexicographically smallest spine.
"""

from __future__ import annotations

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
#: smaller colourings the per-spine Python work of k=3 and the pool's start-up
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

    "No spine" is distinct from a 0-page certificate.
    """
    if k < 1:
        raise ValueError("spine size must be at least 1")
    if k > col.n:
        return None
    if k in (2, 3):
        found = _max_book_dense(col, k)
    else:
        found = _max_book_bitset(col, k)
    return _certificate(col, found)


def _certificate(col: Colouring, found) -> BookCertificate | None:
    """The certificate of a search's best (pages, colour, spine), its pages
    read back from the colouring, or None when the search found no spine."""
    if found is None:
        return None
    _, colour, spine = found
    return BookCertificate(colour, spine, tuple(bits(common_pages(col, colour, spine))))


def _max_book_bitset(col: Colouring, k: int):
    """Clique-extension search; pages are popcounts of the running
    neighbourhood intersection.  Returns (pages, colour, spine) or None."""
    best = None
    bar = -1  # below every page count, so it prunes only spines that cannot close
    full = col.full_mask()
    for c in range(col.q):
        for spine, pages in clique_pages(col.adj[c], full, full, k, bar):
            bar = pages.bit_count()
            best = (bar, c, spine)
    return best


def _best_edge(pages: np.ndarray, edge: np.ndarray):
    """Largest entry of ``pages`` where ``edge`` is 1, with its row-major
    first position; the count is -1 when ``edge`` has no 1.  Overwrites
    ``pages``."""
    # shifted up by one and zeroed off the edges, so non-edges sit below every edge
    pages += 1
    pages *= edge
    at = int(pages.argmax())
    return int(pages.flat[at]) - 1, np.unravel_index(at, pages.shape)


def _max_book_dense(col: Colouring, k: int):
    """Matrix path for k in {2, 3}: page counts via exact float32 matmuls
    (every count is below 2^24), one colour per task of ``_map_colours``.

    Tie-breaking matches the bitset path: colours ascending, first row-major
    argmax inside a colour is the lexicographically smallest spine.
    """
    return _first_best(_map_colours(col, lambda c: _max_book_colour(col, k, c)))


def _first_best(found):
    """The (pages, colour, spine) with the most pages among the per-colour
    bests in colour order, the first of them on a tie; None when no colour
    has a spine."""
    return max((f for f in found if f is not None), key=lambda f: f[0], default=None)


def _max_book_colour(col: Colouring, k: int, c: int):
    """Best (pages, c, spine) of colour c alone, or None when it has no spine."""
    a = col.dense(c)
    degree = a.sum(1, dtype=np.int64)
    best = None

    def beaten(u: int) -> bool:
        # pages of any triangle through u are <= deg - 2
        return best is not None and degree[u] - 2 <= best[0]

    for prefix, labels, pages, edge in _spine_blocks(a, k, beaten):
        m, (i, j) = _best_edge(pages, edge)
        if m >= 0 and (best is None or m > best[0]):
            best = (m, c, (*prefix, int(labels[i]), int(labels[j])))
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


def _spine_blocks(a: np.ndarray, k: int, skip=None):
    """The size-k spines (k in {2, 3}) of the 0/1 matrix ``a`` as blocks
    (prefix, labels, pages, edge): each 1 at ``edge[i, j]`` is the spine
    ``prefix + (labels[i], labels[j])`` with ``pages[i, j]`` pages, both
    float32.  For k=3 there is one block per smallest spine vertex u, in
    ascending order, left out when it has fewer than two later neighbours or
    ``skip(u)`` holds; ``skip`` is asked only as each block is reached."""
    if k == 2:
        edge = a.astype(np.float32)
        yield (), np.arange(len(a)), edge @ edge, edge
        return
    for u in range(len(a) - 2):
        if skip is not None and skip(u):
            continue
        nbrs = np.flatnonzero(a[u])
        first = int(np.searchsorted(nbrs, u))
        cand = nbrs[first:]
        if cand.size < 2:
            continue
        # rows of the later neighbours, restricted to u's neighbours; the later
        # neighbours are the last columns, so the edge block among them is a slice
        sub = a.take(cand, 0).take(nbrs, 1).astype(np.float32)
        yield (u,), cand, sub @ sub.T, sub[:, first:]


def has_mono_book(col: Colouring, k: int, n: int) -> bool:
    """True iff some monochromatic spine of size k has at least n pages.

    Short-circuits on the first witness; agrees with
    ``max_book(col, k).page_count >= n``.
    """
    if k < 1 or n < 1:
        raise ValueError("spine size and page bound must be at least 1")
    if k > col.n:
        return False
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
    together with the best certificate (same tie rules as ``max_book``)."""
    if k < 1:
        raise ValueError("spine size must be at least 1")
    if k in (2, 3):
        histograms, best = _profile_dense(col, k)
    else:
        histograms, best = _profile_enumerate(col, k)
    return BookProfile(k, tuple(histograms), _certificate(col, best))


def _profile_enumerate(col: Colouring, k: int):
    """Per-colour page histograms and the best (pages, colour, spine), one
    spine at a time in lexicographic order."""
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


def _profile_dense(col: Colouring, k: int):
    """``_profile_enumerate`` for k in {2, 3} from the page matrices of
    ``_spine_blocks``, one colour per task of ``_map_colours``."""
    per_colour = _map_colours(col, lambda c: _profile_colour(col, k, c))
    return [hist for hist, _ in per_colour], _first_best(best for _, best in per_colour)


def _profile_colour(col: Colouring, k: int, c: int):
    """Page histogram of colour c's spines (a histogram of the upper-triangle
    edge entries of each page matrix) and its first row-major maximum, the
    lexicographically smallest spine, as (pages, c, spine)."""
    counts = np.zeros(col.n, dtype=np.int64)
    best = None
    for prefix, labels, pages, edge in _spine_blocks(col.dense(c), k):
        upper = np.triu(edge, 1).astype(bool)
        counts += np.bincount(pages[upper].astype(np.int64), minlength=col.n)
        m, (i, j) = _best_edge(pages, edge)
        if m >= 0 and (best is None or m > best[0]):
            best = (m, c, (*prefix, int(labels[i]), int(labels[j])))
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

