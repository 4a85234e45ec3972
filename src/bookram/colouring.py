"""Coloured complete graphs and hypergraphs with bitset adjacency, plus file IO.

Vertices are 0-based in memory and 1-based in files (the file is authoritative).
An edge colouring of K_N with q colours is stored as q lists of N bitmasks:
bit v of ``adj[c][u]`` is set iff edge (u, v) carries colour c.  Colour 0 is
red and colour 1 is blue.  Masks are plain Python ints, so all the usual
tricks (``&``, ``bit_count``) apply at any N.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from math import comb

import numpy as np

RED = 0
BLUE = 1

#: Dense hypergraph colourings refuse to materialise more than this many edges.
HYPER_ENTRY_CAP = 1 << 22
#: Rows of an N-by-N matrix that ``Colouring.from_matrix`` mirrors and packs
#: into bitmask rows at a time, where a whole-matrix temporary would cost N^2
#: bytes more.
STRIP_ROWS = 256


class FormatError(ValueError):
    """Malformed KNC / KNSC / BOOK input; remembers the offending line number."""

    def __init__(self, message: str, line: int | None = None):
        if line is not None:
            message = f"line {line}: {message}"
        super().__init__(message)
        self.line = line


def bits(mask: int):
    """Iterate the set bit positions of ``mask`` in ascending order."""
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


def mask_of(vertices) -> int:
    """Bitmask with the given vertex positions set."""
    m = 0
    for v in vertices:
        m |= 1 << v
    return m


@dataclass(frozen=True)
class Colouring:
    """A q-colouring of the edges of K_n, immutable after construction.

    Invariants: every unordered pair carries exactly one colour, each
    per-colour matrix is symmetric with a clear diagonal.
    """

    n: int
    q: int
    adj: tuple[tuple[int, ...], ...]

    @staticmethod
    def from_edge_colours(n: int, q: int, colour_of) -> "Colouring":
        """Build from a callable mapping each pair u < v to a colour."""
        matrix = np.empty((n, n), dtype=np.min_scalar_type(q))
        for u in range(n):
            for v in range(u + 1, n):
                c = colour_of(u, v)
                if not 0 <= c < q:
                    raise ValueError(f"colour {c} out of range for q={q}")
                matrix[u, v] = c
        return Colouring.from_matrix(matrix, q)

    @staticmethod
    def from_matrix(matrix: np.ndarray, q: int) -> "Colouring":
        """Build from an n-by-n matrix of colour indices: edge (u, v), u < v,
        has colour ``matrix[u, v]``, and nothing on or below the diagonal is
        read.  No entry is checked; ``validate`` does that.  A strip of rows
        at a time is copied, mirrored with q on its diagonal, and compared
        with each colour."""
        n = len(matrix)
        rows = [[] for _ in range(q)]
        dtype = np.result_type(matrix, np.min_scalar_type(q))
        for start in range(0, n, STRIP_ROWS):
            stop = min(start + STRIP_ROWS, n)
            strip = matrix[start:stop].astype(dtype)
            strip[:, :start] = matrix[:start, start:stop].T
            square = strip[:, start:stop]
            below = np.tri(stop - start, k=-1, dtype=bool)
            square[below] = square.T[below]
            np.fill_diagonal(square, q)
            for c in range(q):
                rows[c] += _pack_rows(strip == c)
        return Colouring(n, q, tuple(map(tuple, rows)))

    def matrix(self) -> np.ndarray:
        """Inverse of ``from_matrix``: the colour index of every edge, with q
        on the diagonal.  Assumes every edge carries exactly one colour."""
        out = np.zeros((self.n, self.n), dtype=np.min_scalar_type(self.q))
        for c in range(1, self.q):
            out += c * self.dense(c).astype(out.dtype, copy=False)
        np.fill_diagonal(out, self.q)
        return out

    def dense(self, c: int) -> np.ndarray:
        """Colour c's adjacency as an n-by-n uint8 0/1 matrix."""
        return _unpack_rows(self.adj[c], self.n)

    def full_mask(self) -> int:
        return (1 << self.n) - 1

    def colour_of(self, u: int, v: int) -> int:
        if u == v or not (0 <= u < self.n and 0 <= v < self.n):
            raise ValueError(f"no edge ({u}, {v})")
        for c in range(self.q):
            if (self.adj[c][u] >> v) & 1:
                return c
        raise ValueError(f"edge ({u}, {v}) carries no colour")

    def edge_count(self, c: int) -> int:
        return sum(row.bit_count() for row in self.adj[c]) // 2

    def is_circulant(self) -> bool:
        """True iff in every colour row i is row 0 rotated by i (bit v of row
        i is bit v - i mod n of row 0), so that v -> v + 1 mod n maps every
        colour onto itself.  At most (n - 1) q big-int comparisons, row by
        row: a colouring that is not circulant usually fails at row 1."""
        n, full = self.n, self.full_mask()
        for i in range(1, n):
            for rows in self.adj:
                if rows[i] != ((rows[0] << i) | (rows[0] >> (n - i))) & full:
                    return False
        return True

    def validate(self) -> None:
        """Check the colour-partition, symmetry and diagonal invariants."""
        if self.n < 1:
            raise ValueError("vertex count must be at least 1")
        if self.q < 2:
            raise ValueError("colour count must be at least 2")
        if len(self.adj) != self.q or any(len(rows) != self.n for rows in self.adj):
            raise ValueError("adjacency shape does not match (q, n)")
        full = self.full_mask()
        for v in range(self.n):
            union = 0
            for c in range(self.q):
                row = self.adj[c][v]
                if row >> self.n:
                    raise ValueError(f"colour {c} row {v} has bits beyond n")
                if (row >> v) & 1:
                    raise ValueError(f"colour {c} has a loop at {v}")
                if row & union:
                    raise ValueError(f"vertex {v} has a doubly coloured edge")
                union |= row
            if union != full & ~(1 << v):
                raise ValueError(f"vertex {v} has an uncoloured edge")
        for c in range(self.q):
            rows = self.adj[c]
            for u in range(self.n):
                for v in bits(rows[u]):
                    if not (rows[v] >> u) & 1:
                        raise ValueError(f"colour {c} not symmetric at ({u}, {v})")


def _pack_rows(matrix: np.ndarray) -> tuple[int, ...]:
    """Bitmask rows of a 0/1 (or boolean) matrix: bit v of row u is matrix[u, v]."""
    packed = np.packbits(matrix, axis=1, bitorder="little")
    return tuple(int.from_bytes(row.tobytes(), "little") for row in packed)


def _unpack_rows(rows, n: int) -> np.ndarray:
    """Inverse of ``_pack_rows``: the uint8 0/1 matrix with one n-column row
    per bitmask in ``rows`` (any number of them)."""
    nbytes = (n + 7) // 8
    raw = np.frombuffer(b"".join(r.to_bytes(nbytes, "little") for r in rows), dtype=np.uint8)
    return np.unpackbits(raw.reshape(-1, nbytes), axis=1, count=n, bitorder="little")


def _check_digits(rows: list[str], lines, q: int) -> np.ndarray:
    """Colour digits of the data rows in file order, or FormatError naming the
    first line holding anything but an ASCII digit below q; ``lines`` holds
    the rows' (file line, text) pairs."""
    # each non-ASCII character becomes one '?', and everything outside '0'..'9'
    # wraps to 10 or more, so one comparison checks the whole file
    digits = np.frombuffer("".join(rows).encode("ascii", "replace"), dtype=np.uint8) - 48
    if (digits >= q).any():
        allowed = "0123456789"[:q]
        for row, (lineno, _) in zip(rows, lines):
            for ch in row:
                if ch not in allowed:
                    raise FormatError(f"bad colour digit {ch!r} for q={q}", lineno)
    return digits


def _read_header(text: str, spelling: str, missing: str, non_integer: str):
    """Split a KNC, KNSC or BOOK text at its header line, the first line that
    is not a comment (lines starting with ``#`` are comments anywhere).

    ``spelling`` is the header with its integer fields in angle brackets,
    such as ``KNC 1 <N> <q>``.  Returns the header's file line, its integer
    fields, and the (file line, text) pairs of the non-comment lines after
    it; file lines count comments.  A text with no non-comment line raises
    FormatError(``missing``), naming no line.
    """
    lines = [(no, l) for no, l in enumerate(text.splitlines(), start=1) if not l.startswith("#")]
    if not lines:
        raise FormatError(missing)
    head_no, head = lines[0]
    parts, words = head.split(), spelling.split()
    if len(parts) != len(words) or any(p != w for p, w in zip(parts, words) if w[0] != "<"):
        raise FormatError(f"expected header '{spelling}'", head_no)
    try:
        fields = [int(p) for p, w in zip(parts, words) if w[0] == "<"]
    except ValueError:
        raise FormatError(non_integer, head_no) from None
    return head_no, fields, lines[1:]


def parse_colouring(text: str) -> Colouring:
    """Parse the KNC format.

    Line 1 is ``KNC 1 <N> <q>``; then N-1 data lines, the i-th (1-based)
    holding N-i digits, digit j giving the colour of edge (i, i+j).  Lines
    starting with ``#`` are comments.
    """
    head_no, (n, q), lines = _read_header(
        text, "KNC 1 <N> <q>", "missing KNC header", "non-integer N or q in header"
    )
    if n < 1:
        raise FormatError(f"vertex count {n} < 1", head_no)
    if not 2 <= q <= 10:
        raise FormatError(f"colour count {q} outside 2..10", head_no)
    rows: list[str] = []
    for i, (lineno, raw) in enumerate(lines):
        row = raw.strip()
        if i == n - 1 or len(row) != n - 1 - i:
            # a bad digit on an earlier line is reported before a structural error
            _check_digits(rows, lines, q)
            if i == n - 1:
                raise FormatError("unexpected extra data line", lineno)
            raise FormatError(
                f"row for vertex {i + 1} has {len(row)} digits, expected {n - 1 - i}", lineno
            )
        rows.append(row)
    digits = _check_digits(rows, lines, q)
    if len(rows) != n - 1:
        raise FormatError(f"expected {n - 1} data rows, found {len(rows)}")
    # the row-major upper triangle is exactly the KNC digit order, and it is
    # all that from_matrix reads
    matrix = np.empty((n, n), dtype=np.uint8)
    at = 0
    for i in range(n - 1):
        matrix[i, i + 1 :] = digits[at : at + n - 1 - i]
        at += n - 1 - i
    return Colouring.from_matrix(matrix, q)


def emit_colouring(col: Colouring) -> str:
    """Canonical KNC text: no comments, single spaces, LF endings.

    Assumes every edge carries exactly one colour (see ``validate``).  KNC
    holds one digit per edge, so more than 10 colours raise ValueError.
    """
    if col.q > 10:
        raise ValueError(f"KNC holds at most 10 colours, not {col.q}")
    text = col.matrix() + ord("0")
    out = [f"KNC 1 {col.n} {col.q}".encode()]
    out += [text[i, i + 1 :].tobytes() for i in range(col.n - 1)]
    return (b"\n".join(out) + b"\n").decode("ascii")


def clique_pages(rows, candidates: int, inter: int, size: int, bar: int | None = None):
    """Yield ``(clique, pages)`` for every clique of ``size`` vertices in the
    adjacency ``rows`` with all its vertices in ``candidates``, in
    lexicographic order; ``pages`` is ``inter`` ANDed with the clique's rows.
    ``candidates`` must lie inside ``inter``.  A branch ends once fewer
    candidates are left than picks still to make.

    With an int ``bar``, only cliques with more than ``bar`` pages are
    yielded, and each one yielded raises the bar to its page count.  A branch
    is dropped once its page count less the picks still to make is at most
    the bar: every pick lies in the running intersection and, having no loop,
    leaves it.  This is the one bitset clique extension of the package; every
    spine search but the matrix descent of ``max_book`` and ``local_profile``
    is a loop over it.
    """
    if bar is not None and inter.bit_count() - size <= bar:
        return
    if size == 0:
        yield (), inter
        return
    last = size - 1
    clique: list[int] = []
    stack: list[tuple[int, int]] = []  # (candidates left, inter) of the open levels
    while True:
        if len(clique) == last:
            # the last pick: every candidate closes a clique
            while candidates:
                low = candidates & -candidates
                candidates ^= low
                v = low.bit_length() - 1
                pages = inter & rows[v]
                if bar is None:
                    yield (*clique, v), pages
                elif pages.bit_count() > bar:
                    bar = pages.bit_count()
                    yield (*clique, v), pages
        elif candidates.bit_count() > last - len(clique):
            low = candidates & -candidates
            candidates ^= low  # only candidates above v are left
            v = low.bit_length() - 1
            row = rows[v]
            narrowed = inter & row
            if bar is None or narrowed.bit_count() - (last - len(clique)) > bar:
                stack.append((candidates, inter))
                clique.append(v)
                candidates &= row
                inter = narrowed
            continue
        if not stack:
            return
        candidates, inter = stack.pop()
        clique.pop()


def mono_cliques(col: Colouring, c: int, k: int):
    """Yield the k-sets that are cliques in colour c, in lexicographic order.

    Every vertex is vacuously a 1-clique in every colour.  k > n yields
    nothing.
    """
    if k < 1:
        raise ValueError("clique size must be at least 1")
    full = col.full_mask()
    for clique, _ in clique_pages(col.adj[c], full, full, k):
        yield clique


def common_pages(col: Colouring, c: int, spine) -> int:
    """Bitmask of vertices joined in colour c to every vertex of ``spine``.

    Spine members are excluded automatically (no vertex neighbours itself).
    """
    it = iter(spine)
    try:
        first = next(it)
    except StopIteration:
        raise ValueError("spine must be nonempty") from None
    m = col.adj[c][first]
    for v in it:
        m &= col.adj[c][v]
    return m


def count_mono_cliques(col: Colouring, k: int) -> tuple[int, ...]:
    """Exact number of k-cliques per colour.

    For k = 1 every vertex counts once in every colour (a single vertex is
    monochromatic vacuously); for k >= 2 the per-colour counts sum to at most
    C(n, k).
    """
    if k < 1:
        raise ValueError("clique size must be at least 1")
    full = col.full_mask()
    # each (k-1)-clique closes one k-clique per common neighbour above its top
    return tuple(
        sum(
            (pages >> (clique[-1] + 1 if clique else 0)).bit_count()
            for clique, pages in clique_pages(col.adj[c], full, full, k - 1)
        )
        for c in range(col.q)
    )


@dataclass(frozen=True)
class HyperColouring:
    """A 2-colouring of the complete s-uniform hypergraph, fully materialised.

    ``colours[r]`` is the colour of the r-th s-subset of [n] in lexicographic
    order.  Refuses instances with more than HYPER_ENTRY_CAP edges.
    """

    n: int
    s: int
    colours: tuple[int, ...]

    def __post_init__(self):
        if self.s < 3:
            raise ValueError("uniformity must be at least 3")
        if self.n < self.s:
            raise ValueError("need at least s vertices")
        _check_hyper_cap(self.n, self.s)
        if len(self.colours) != comb(self.n, self.s):
            raise ValueError("colour table has wrong length")
        if any(c not in (0, 1) for c in self.colours):
            raise ValueError("hypergraph colours must be 0 or 1")

    @staticmethod
    def from_edge_colours(n: int, s: int, colour_of) -> "HyperColouring":
        _check_hyper_cap(n, s)
        cols = tuple(colour_of(e) for e in itertools.combinations(range(n), s))
        return HyperColouring(n, s, cols)

    def colour_of(self, edge) -> int:
        t = tuple(edge)
        return self.colours[_subset_rank(t, self.n, self.s)]


def _check_hyper_cap(n: int, s: int) -> None:
    if comb(n, s) > HYPER_ENTRY_CAP:
        raise ValueError(f"C({n},{s}) = {comb(n, s)} exceeds cap {HYPER_ENTRY_CAP}")


def _subset_rank(t: tuple[int, ...], n: int, s: int) -> int:
    """Lexicographic rank of a strictly increasing s-tuple over range(n)."""
    if len(t) != s or any(t[i] >= t[i + 1] for i in range(s - 1)):
        raise ValueError(f"not a sorted {s}-subset: {t}")
    if t[0] < 0 or t[-1] >= n:
        raise ValueError(f"subset {t} out of range(n={n})")
    # the subsets after t agree with it up to some entry i and exceed it there
    return comb(n, s) - 1 - sum(comb(n - 1 - v, s - i) for i, v in enumerate(t))


def parse_hypercolouring(text: str) -> HyperColouring:
    """Parse the KNSC format: header ``KNSC 1 <N> <s>`` then one line per
    s-set in lexicographic order, ``v1 v2 ... vs c`` with 1-based vertices."""
    head_no, (n, s), lines = _read_header(
        text, "KNSC 1 <N> <s>", "missing KNSC header", "non-integer N or s in header"
    )
    if s < 3:
        raise FormatError(f"uniformity {s} < 3", head_no)
    if n < s:
        raise FormatError(f"vertex count {n} < s", head_no)
    if comb(n, s) > HYPER_ENTRY_CAP:
        raise FormatError(f"C({n},{s}) exceeds cap {HYPER_ENTRY_CAP}", head_no)
    expected = itertools.combinations(range(n), s)
    colours: list[int] = []
    for lineno, raw in lines:
        parts = raw.split()
        if len(parts) != s + 1:
            raise FormatError(f"expected {s} vertices and a colour", lineno)
        try:
            verts = tuple(int(p) - 1 for p in parts[:-1])
            c = int(parts[-1])
        except ValueError:
            raise FormatError("non-integer field", lineno) from None
        want = next(expected, None)
        if want is None:
            raise FormatError("unexpected extra edge line", lineno)
        if verts != want:
            raise FormatError(
                f"edge out of lexicographic order: got {verts}, expected {want}", lineno
            )
        if c not in (0, 1):
            raise FormatError(f"hypergraph colour {c} not in {{0,1}}", lineno)
        colours.append(c)
    if len(colours) != comb(n, s):
        raise FormatError(f"expected {comb(n, s)} edge lines, found {len(colours)}")
    return HyperColouring(n, s, tuple(colours))


def emit_hypercolouring(h: HyperColouring) -> str:
    out = [f"KNSC 1 {h.n} {h.s}"]
    for e, c in zip(itertools.combinations(range(h.n), h.s), h.colours):
        out.append(" ".join(str(v + 1) for v in e) + f" {c}")
    return "\n".join(out) + "\n"


@dataclass(frozen=True)
class BookCertificate:
    """Claim of a monochromatic book: colour, spine clique, page vertices."""

    colour: int
    spine: tuple[int, ...]
    pages: tuple[int, ...]

    @property
    def k(self) -> int:
        return len(self.spine)

    @property
    def page_count(self) -> int:
        return len(self.pages)


def parse_certificate(text: str) -> BookCertificate:
    """Parse a BOOK file: ``BOOK <colour> <k> <pages>``, then the spine line
    and the page line (vertices ascending, 1-based; page line may be empty).
    Nothing but comments may follow the page line.  Errors name file lines,
    and none when the line is missing."""
    _, (colour, k, npages), lines = _read_header(
        text, "BOOK <colour> <k> <pages>", "empty certificate", "non-integer header field"
    )
    if not lines:
        raise FormatError("missing spine line")
    # a missing page line reads as an empty one
    (spine_no, spine_line), (pages_no, pages_line) = (lines + [(None, "")])[:2]
    try:
        spine = tuple(int(p) - 1 for p in spine_line.split())
    except ValueError:
        raise FormatError("non-integer spine vertex", spine_no) from None
    try:
        pages = tuple(int(p) - 1 for p in pages_line.split())
    except ValueError:
        raise FormatError("non-integer page vertex", pages_no) from None
    if len(spine) != k:
        raise FormatError(f"header says k={k} but spine has {len(spine)} vertices", spine_no)
    if len(pages) != npages:
        raise FormatError(f"header says {npages} pages but found {len(pages)}", pages_no)
    if any(spine[i] >= spine[i + 1] for i in range(len(spine) - 1)):
        raise FormatError("spine vertices must be strictly ascending", spine_no)
    if any(pages[i] >= pages[i + 1] for i in range(len(pages) - 1)):
        raise FormatError("page vertices must be strictly ascending", pages_no)
    if len(lines) > 2:
        raise FormatError("unexpected line after the page line", lines[2][0])
    return BookCertificate(colour, spine, pages)


def emit_certificate(cert: BookCertificate) -> str:
    return (
        f"BOOK {cert.colour} {cert.k} {cert.page_count}\n"
        + " ".join(str(v + 1) for v in cert.spine)
        + "\n"
        + " ".join(str(v + 1) for v in cert.pages)
        + "\n"
    )
