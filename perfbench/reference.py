"""Reference answers for the bookram benchmark, written without importing
bookram, so every check compares the program with code it does not share.

Colourings are numpy matrices: ``C[u, v]`` is the colour of edge uv and the
diagonal holds ``NO_EDGE``.  Spines and pages are 0-based here and 1-based in
files, as in the KNC and BOOK formats.

Run ``python3 perfbench/reference.py`` to recompute every stored reference
value (closed forms and the constants the workloads compare against) from
this code.
"""

from __future__ import annotations

import itertools
import math

import numpy as np

NO_EDGE = 255

#: Largest number of candidate spines the brute-force checkers will scan.
BRUTE_FORCE_SPINES = 200_000


# ---------------------------------------------------------------- colourings


def random_colouring(n: int, rng: np.random.Generator, q: int = 2) -> np.ndarray:
    """Uniform q-colouring of K_n drawn from ``rng``."""
    draws = rng.integers(0, q, size=(n, n), dtype=np.uint8)
    upper = np.triu(draws, 1)
    col = upper + upper.T
    np.fill_diagonal(col, NO_EDGE)
    return col


def _from_difference_rule(n: int, colour_of_difference) -> np.ndarray:
    idx = np.arange(n)
    col = colour_of_difference(idx[None, :], idx[:, None]).astype(np.uint8)
    np.fill_diagonal(col, NO_EDGE)
    return col


def paley_colouring(p: int) -> np.ndarray:
    """Paley colouring of K_p for a prime p = 1 (mod 4): colour 0 where the
    difference is a nonzero square mod p, colour 1 otherwise."""
    if p % 4 != 1 or any(p % d == 0 for d in range(2, math.isqrt(p) + 1)):
        raise ValueError(f"{p} is not a prime congruent to 1 mod 4")
    square = np.zeros(p, dtype=bool)
    square[(np.arange(1, p, dtype=np.int64) ** 2) % p] = True
    return _from_difference_rule(p, lambda a, b: np.where(square[(a - b) % p], 0, 1))


def paley9_colouring() -> np.ndarray:
    """Paley colouring of K_9 over GF(9) = GF(3)[i] / (i^2 + 1); element
    a + b i is vertex 3a + b.  Colour 0 where the difference is a square."""
    elems = [(a, b) for a in range(3) for b in range(3)]
    squares = {((a * a - b * b) % 3, (2 * a * b) % 3) for a, b in elems if (a, b) != (0, 0)}
    col = np.full((9, 9), NO_EDGE, dtype=np.uint8)
    for u, (a, b) in enumerate(elems):
        for v, (c, d) in enumerate(elems):
            if u != v:
                col[u, v] = 0 if ((a - c) % 3, (b - d) % 3) in squares else 1
    return col


def pentagon_colouring() -> np.ndarray:
    """Red 5-cycle 0-1-2-3-4-0, blue complement (the Paley colouring P_5)."""
    return _from_difference_rule(5, lambda a, b: np.where(np.isin((a - b) % 5, (1, 4)), 0, 1))


def blowup_colouring(base: np.ndarray, q: int, t: int) -> np.ndarray:
    """Each base vertex becomes a block of t vertices; cross edges keep the
    base colour and edges inside a block get the fresh colour q."""
    part = np.arange(base.shape[0] * t) // t
    col = base[np.ix_(part, part)].copy()
    col[part[:, None] == part[None, :]] = q
    np.fill_diagonal(col, NO_EDGE)
    return col


# ------------------------------------------------------------- file formats


def write_knc(col: np.ndarray, q: int) -> str:
    """KNC text: header, then for each vertex i the colours of (i, j), j > i."""
    n = col.shape[0]
    digits = (col + ord("0")).astype(np.uint8)
    lines = [f"KNC 1 {n} {q}".encode()]
    lines += [digits[i, i + 1 :].tobytes() for i in range(n - 1)]
    return (b"\n".join(lines) + b"\n").decode("ascii")


def read_knc(text: str) -> tuple[np.ndarray, int]:
    """Parse KNC text into (matrix, q); raises ValueError on malformed input."""
    lines = [line for line in text.split("\n") if not line.startswith("#")]
    if lines and lines[-1] == "":
        lines.pop()
    if not lines:
        raise ValueError("empty KNC text")
    head = lines[0].split()
    if len(head) != 4 or head[:2] != ["KNC", "1"]:
        raise ValueError(f"bad KNC header {lines[0]!r}")
    n, q = int(head[2]), int(head[3])
    if n < 1 or not 2 <= q <= 10 or len(lines) != n:
        raise ValueError(f"KNC N={n} q={q} with {len(lines) - 1} data lines")
    col = np.full((n, n), NO_EDGE, dtype=np.uint8)
    for i, line in enumerate(lines[1:]):
        row = np.frombuffer(line.encode("ascii"), dtype=np.uint8) - ord("0")
        if row.size != n - 1 - i or (row >= q).any():
            raise ValueError(f"bad KNC row for vertex {i + 1}")
        col[i, i + 1 :] = row
        col[i + 1 :, i] = row
    return col, q


def read_book(text: str) -> tuple[int, tuple[int, ...], tuple[int, ...]]:
    """Parse a BOOK certificate into (colour, spine, pages), 0-based."""
    lines = text.split("\n")
    head = lines[0].split()
    if len(head) != 4 or head[0] != "BOOK" or len(lines) < 3:
        raise ValueError(f"bad BOOK text {text[:40]!r}")
    colour, k, npages = (int(x) for x in head[1:])
    spine = tuple(int(x) - 1 for x in lines[1].split())
    pages = tuple(int(x) - 1 for x in lines[2].split())
    if len(spine) != k or len(pages) != npages:
        raise ValueError("BOOK header disagrees with its spine or page line")
    return colour, spine, pages


def read_profile_tsv(text: str) -> list[dict[int, int]]:
    """Parse the per-colour ``pages<TAB>count`` sections of a profile."""
    hists: list[dict[int, int]] = []
    for line in text.splitlines():
        a, b = line.split("\t")
        if a == "colour":
            if int(b) != len(hists):
                raise ValueError("profile colours out of order")
            hists.append({})
        else:
            hists[-1][int(a)] = int(b)
    return hists


# -------------------------------------------------------------------- books


def page_set(col: np.ndarray, colour: int, spine) -> np.ndarray:
    """Vertices joined in ``colour`` to every spine vertex (never a spine
    vertex, since the diagonal carries no colour)."""
    return np.flatnonzero((col[list(spine)] == colour).all(axis=0))


def certificate_fault(
    col: np.ndarray, colour: int, spine, pages, complete: bool
) -> str | None:
    """None when (colour, spine, pages) is a valid monochromatic book of the
    colouring, else the first reason it is not.  ``complete`` also demands
    that the pages are every vertex joined to the whole spine."""
    n = col.shape[0]
    spine, pages = list(spine), list(pages)
    if not spine or any(not 0 <= v < n for v in spine + pages):
        return "vertex out of range or empty spine"
    if spine != sorted(set(spine)) or pages != sorted(set(pages)):
        return "spine or pages not strictly ascending"
    if set(spine) & set(pages):
        return "page on the spine"
    for u, v in itertools.combinations(spine, 2):
        if col[u, v] != colour:
            return f"spine edge {u + 1}-{v + 1} not in colour {colour}"
    common = page_set(col, colour, spine)
    if not set(pages) <= set(common.tolist()):
        return "a page is not joined to the whole spine"
    if complete and len(pages) != common.size:
        return f"{len(pages)} pages listed, {common.size} exist"
    return None


def _better(pages: int, colour: int, spine, best) -> bool:
    """Tie rules: pages descending, colour ascending, spine lexicographic."""
    return best is None or (-pages, colour, tuple(spine)) < (-best[0], best[1], best[2])


def max_book(col: np.ndarray, q: int, k: int):
    """Maximum book with spine size k in {1, 2, 3}: (pages, colour, spine)
    under the tie rules, or None when no colour has a k-clique."""
    if k not in (1, 2, 3):
        raise ValueError("the matrix reference covers k <= 3")
    best = None
    for colour in range(q):
        a = (col == colour).astype(np.float32)
        if k == 1:
            deg = a.sum(axis=1)
            v = int(np.argmax(deg))
            found = (int(deg[v]), colour, (v,))
        elif k == 2:
            found = _best_pair(a, colour)
        else:
            found = _best_triangle(a, colour)
        if found is not None and _better(*found, best):
            best = found
    return best


def _best_pair(a: np.ndarray, colour: int):
    codeg = np.where(a > 0, a @ a, -1.0)
    flat = int(np.argmax(codeg))  # first maximum in row-major order
    u, v = divmod(flat, a.shape[0])
    if codeg[u, v] < 0:
        return None
    return int(codeg[u, v]), colour, (u, v)


def _triangle_pages(a: np.ndarray, u: int):
    """(later, pages) for triangles u < v < w: ``later`` lists the neighbours
    of u above u, ``pages[i, j]`` the pages of (u, later[i], later[j]) or -1
    when that pair is no edge or i >= j."""
    nbrs = np.flatnonzero(a[u])
    later = nbrs[nbrs > u]
    rows = a[later][:, nbrs]
    pages = rows @ rows.T
    valid = np.triu(a[np.ix_(later, later)] > 0, 1)
    return later, np.where(valid, pages, -1.0)


def _best_triangle(a: np.ndarray, colour: int):
    best = None
    degree = a.sum(axis=1)
    for u in range(a.shape[0]):
        if best is not None and degree[u] - 2 <= best[0]:
            continue  # a triangle through u has at most deg(u) - 2 pages
        later, pages = _triangle_pages(a, u)
        if later.size < 2:
            continue
        flat = int(np.argmax(pages))
        i, j = divmod(flat, later.size)
        if pages[i, j] >= 0 and (best is None or pages[i, j] > best[0]):
            best = (int(pages[i, j]), colour, (u, int(later[i]), int(later[j])))
    return best


def profile(col: np.ndarray, q: int, k: int) -> list[dict[int, int]]:
    """Per colour, the histogram {pages: number of k-spines} for k <= 3."""
    hists = []
    for colour in range(q):
        a = (col == colour).astype(np.float32)
        counts: np.ndarray
        if k == 1:
            counts = a.sum(axis=1).astype(np.int64)
        elif k == 2:
            codeg = a @ a
            iu = np.triu_indices(a.shape[0], 1)
            counts = codeg[iu][a[iu] > 0].astype(np.int64)
        elif k == 3:
            parts = []
            for u in range(a.shape[0]):
                _, pages = _triangle_pages(a, u)
                parts.append(pages[pages >= 0].astype(np.int64))
            counts = np.concatenate(parts) if parts else np.zeros(0, np.int64)
        else:
            raise ValueError("the matrix reference covers k <= 3")
        values, freq = np.unique(counts, return_counts=True)
        hists.append({int(v): int(f) for v, f in zip(values, freq)})
    return hists


def has_book_bruteforce(col: np.ndarray, k: int, n: int) -> bool:
    """True iff some colour has a k-clique joined in that colour to n other
    vertices, by scanning every k-subset."""
    size = col.shape[0]
    if math.comb(size, k) > BRUTE_FORCE_SPINES:
        raise ValueError(f"C({size},{k}) spines is beyond the brute-force checker")
    colours = set(np.unique(col).tolist()) - {NO_EDGE}
    for spine in itertools.combinations(range(size), k):
        for colour in colours:
            if all(col[u, v] == colour for u, v in itertools.combinations(spine, 2)):
                if page_set(col, colour, spine).size >= n:
                    return True
    return False


def triangle_floor(size: int) -> int:
    """Least number of monochromatic triangles over all 2-colourings of K_size,
    by enumerating every colouring."""
    edges = list(itertools.combinations(range(size), 2))
    bit = {e: 1 << i for i, e in enumerate(edges)}
    tris = [bit[(a, b)] | bit[(a, c)] | bit[(b, c)] for a, b, c in itertools.combinations(range(size), 3)]
    best = len(tris)
    for x in range(1 << len(edges)):
        mono = sum(1 for t in tris if x & t in (0, t))
        best = min(best, mono)
    return best


# -------------------------------------------------------------- closed forms


def is_prime_power(m: int) -> bool:
    for p in range(2, m + 1):
        if m % p == 0:
            while m % p == 0:
                m //= p
            return m == 1
    return False


def ramsey_closed_form(k: int, n: int) -> int:
    """r(B_n^(k)) where a closed form is known: stars (k = 1) give 2n - 1 for
    even n and 2n for odd n; for k = 2 and 4n + 1 a prime power it is 4n + 2
    (Rousseau and Sheehan, J. Graph Theory 1978)."""
    if k == 1:
        return 2 * n - 1 if n % 2 == 0 else 2 * n
    if k == 2 and is_prime_power(4 * n + 1):
        return 4 * n + 2
    raise ValueError(f"no closed form stored for r(B_{n}^({k}))")


def paley_book(p: int) -> tuple[int, int, tuple[int, ...]]:
    """Maximum k=2 book of the Paley colouring P_p: every same-coloured pair
    has (p - 5) / 4 common neighbours in its colour, so the tie rules pick
    colour 0 and the spine (0, 1) (1 is a square)."""
    return (p - 5) // 4, 0, (0, 1)


def blowup_book(t: int) -> tuple[int, int, tuple[int, ...]]:
    """Maximum k=3 book of the pentagon blow-up with part size t: both
    template colours are triangle-free, so spines lie inside one part, in the
    fresh colour 2, with the other t - 3 part vertices as pages."""
    return t - 3, 2, (0, 1, 2)


def dichotomy_minimum(k: int, t: float) -> float:
    """min over [0, t]^k of (1/k) sum (t - x_i)^k + prod x_i, at x_i = t/2."""
    return 2.0 * (t / 2.0) ** k


def dichotomy_lhs(x, t: float) -> float:
    k = len(x)
    return sum((t - v) ** k for v in x) / k + math.prod(x)


def elementary_symmetric(x, k: int) -> float:
    """e_k(x) as the sum over k-subsets (exact enough for len(x) <= 10)."""
    return math.fsum(math.prod(s) for s in itertools.combinations(x, k))


def degprod_floor(c: float, k: int) -> float:
    """Least e_k over [0,1]^l with coordinate sum c: C(floor c, k) +
    frac(c) C(floor c, k - 1), from all but one coordinate in {0, 1}."""
    lo = math.floor(c)
    return math.comb(lo, k) + (c - lo) * (math.comb(lo, k - 1) if k >= 1 else 0)


# ---------------------------------------------------------------- CNF files


def read_cnf(text: str):
    """(nvars, header clause count, clauses, edge map) of a DIMACS file whose
    comments map edge variables as ``c edge u v -> var t``."""
    nvars = nclauses = None
    clauses: list[list[int]] = []
    edges: dict[int, tuple[int, int]] = {}
    for line in text.splitlines():
        if line.startswith("c"):
            parts = line.split()
            if len(parts) == 7 and parts[1] == "edge":
                edges[int(parts[6])] = (int(parts[2]) - 1, int(parts[3]) - 1)
            continue
        if line.startswith("p"):
            _, fmt, v, c = line.split()
            if fmt != "cnf":
                raise ValueError("not a CNF header")
            nvars, nclauses = int(v), int(c)
            continue
        lits = [int(x) for x in line.split()]
        if not lits or lits[-1] != 0:
            raise ValueError(f"clause line without terminating 0: {line[:40]!r}")
        clauses.append(lits[:-1])
    if nvars is None:
        raise ValueError("missing p cnf header")
    return nvars, nclauses, clauses, edges


def cnf_fault(text: str) -> str | None:
    """None when the header counts match the clauses emitted."""
    nvars, nclauses, clauses, _ = read_cnf(text)
    if nclauses != len(clauses):
        return f"header says {nclauses} clauses, {len(clauses)} emitted"
    if any(abs(lit) > nvars or lit == 0 for cl in clauses for lit in cl):
        return "literal outside the declared variables"
    return None


def model_colouring(text: str, model) -> np.ndarray:
    """Check that ``model`` satisfies every clause of the CNF and decode its
    edge variables (true = colour 1) into a colouring matrix."""
    _, _, clauses, edges = read_cnf(text)
    true = {lit for lit in model if lit > 0}
    false = {-lit for lit in model if lit < 0}
    for cl in clauses:
        if not any((lit in true) if lit > 0 else (-lit in false) for lit in cl):
            raise ValueError(f"model falsifies clause {cl}")
    size = 1 + max(max(e) for e in edges.values())
    col = np.full((size, size), NO_EDGE, dtype=np.uint8)
    for var, (u, v) in edges.items():
        col[u, v] = col[v, u] = 1 if var in true else 0
    return col


# --------------------------------------------------------------- hypergraphs


def has_mono_hyperclique(colours: dict, n: int, s: int, size: int) -> bool:
    """True iff some ``size``-set has all its s-subsets in one colour."""
    for block in itertools.combinations(range(n), size):
        seen = {colours[e] for e in itertools.combinations(block, s)}
        if len(seen) == 1:
            return True
    return False


def hyper_blowup(base: dict, n: int, s: int, t: int) -> dict:
    """s-uniform blow-up: an edge meeting s parts takes the base colour of
    those parts, an edge inside one part is colour 0, any other edge 1."""
    out = {}
    for e in itertools.combinations(range(n * t), s):
        parts = sorted({v // t for v in e})
        out[e] = base[tuple(parts)] if len(parts) == s else (0 if len(parts) == 1 else 1)
    return out


def hyper_max_book(colours: dict, n: int, s: int, k: int):
    """Maximum book of a 2-coloured complete s-uniform hypergraph with a
    k-vertex spine: (pages, colour, spine, pages tuple) or None."""
    best = None
    for colour in (0, 1):
        for spine in itertools.combinations(range(n), k):
            if any(colours[e] != colour for e in itertools.combinations(spine, s)):
                continue
            pages = tuple(
                v
                for v in range(n)
                if v not in spine
                and all(
                    colours[tuple(sorted(sub + (v,)))] == colour
                    for sub in itertools.combinations(spine, s - 1)
                )
            )
            if best is None or len(pages) > best[0]:
                best = (len(pages), colour, spine, pages)
    return best


# ------------------------------------------------------------ recomputation


def recompute() -> list[str]:
    """Every stored reference value, recomputed from the code above."""
    out = []
    p = 2053
    got = max_book(paley_colouring(p), 2, 2)
    out.append(f"P_{p} k=2 maximum book {got} closed form {paley_book(p)}")
    for n in (1, 2):
        witness = pentagon_colouring() if n == 1 else paley9_colouring()
        free = not has_book_bruteforce(witness, 2, n)
        out.append(
            f"r(B_{n}^(2)) = {ramsey_closed_form(2, n)}; Paley P_{4 * n + 1} "
            f"has no B_{n}^(2): {free}"
        )
    for n in (1, 2, 3, 4, 40):
        out.append(f"r(B_{n}^(1)) = {ramsey_closed_form(1, n)}")
    t = 40
    got = max_book(blowup_colouring(pentagon_colouring(), 2, t), 3, 3)
    out.append(f"pentagon blow-up t={t} k=3 maximum book {got} closed form {blowup_book(t)}")
    out.append(f"K_6 triangle floor {triangle_floor(6)}")
    return out


if __name__ == "__main__":
    for line in recompute():
        print(line)
