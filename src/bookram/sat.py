"""DIMACS CNF export for book-avoidance colourings, plus a small reference
solver for the tiny instances the test suites exercise.

The CNF is satisfiable iff K_N has a red/blue edge colouring with no
monochromatic book of spine size k and n pages.  Edge variables come first
(true = blue); every k-set and colour gets a mono-spine indicator, page
indicators, and a sequential-counter cardinality constraint conditioned on
the indicator.  The header comments name each edge variable's edge, as
``edge_index`` numbers them; ``decode_model`` decodes models through it.
"""

from __future__ import annotations

import itertools
from math import comb

import numpy as np

from .colouring import BLUE, Colouring

DEFAULT_CLAUSE_CAP = 2_000_000
_CHUNK_LITERALS = 1 << 20  # literals formatted per pass of sat_export


class CnfSizeError(ValueError):
    """Raised instead of building a CNF beyond the clause cap."""

    def __init__(self, estimate: int, cap: int):
        super().__init__(f"estimated {estimate} clauses exceeds cap {cap}")
        self.estimate = estimate
        self.cap = cap


def edge_index(size: int) -> dict[tuple[int, int], int]:
    """Map each pair u < v to its 1-based edge variable."""
    out = {}
    t = 0
    for u in range(size):
        for v in range(u + 1, size):
            t += 1
            out[(u, v)] = t
    return out


def _sequential_counter_clauses(guard: int, xs: list[int], bound: int, next_var: int):
    """Clauses for guard -> (sum of xs <= bound), Sinz sequential counter.

    Returns (clauses, next_var).  Callers handle bound == 0 and
    len(xs) <= bound themselves.
    """
    t = len(xs)
    regs = [[0] * (bound + 1) for _ in range(t)]  # regs[i][j], 1-based j
    nv = next_var
    for i in range(1, t):
        for j in range(1, bound + 1):
            regs[i][j] = nv
            nv += 1
    cls = []
    g = -guard
    cls.append((g, -xs[0], regs[1][1]))
    for j in range(2, bound + 1):
        cls.append((g, -regs[1][j]))
    for i in range(2, t):
        cls.append((g, -xs[i - 1], regs[i][1]))
        cls.append((g, -regs[i - 1][1], regs[i][1]))
        for j in range(2, bound + 1):
            cls.append((g, -xs[i - 1], -regs[i - 1][j - 1], regs[i][j]))
            cls.append((g, -regs[i - 1][j], regs[i][j]))
        cls.append((g, -xs[i - 1], -regs[i - 1][bound]))
    cls.append((g, -xs[t - 1], -regs[t - 1][bound]))
    return cls, nv


def _counter_clause_count(t: int, bound: int) -> int:
    if t <= bound:
        return 0
    if bound == 0:
        return t
    return bound + (t - 2) * (2 * bound + 1) + 1


def _block_template(k: int, n: int, size: int):
    """The clauses of one (spine, colour) block, which all share one shape.

    Literals are signed local variables.  The first C(k, 2) + pages * k
    stand for the colour's edge literals (the spine edges in
    ``combinations`` order, then page p's edge to spine vertex i); the rest
    are the block's new variables: the mono-spine indicator, the page
    indicators, then the counter registers.  Returns (clauses, number of
    edge columns, number of new variables).
    """
    pages = size - k
    spine_cols = comb(k, 2)
    cols = spine_cols + pages * k
    mono = cols + 1
    clauses: list[tuple[int, ...]] = []

    def implies(var: int, lits: range) -> None:
        clauses.extend((-var, lit) for lit in lits)
        clauses.append((var, *[-lit for lit in lits]))

    implies(mono, range(1, spine_cols + 1))
    page_vars = list(range(mono + 1, mono + 1 + pages))
    for p, var in enumerate(page_vars):
        first = spine_cols + p * k + 1
        implies(var, range(first, first + k))
    next_var = mono + 1 + pages
    bound = n - 1
    if pages > bound:
        if bound == 0:
            clauses.extend((-mono, -p) for p in page_vars)
        else:
            extra, next_var = _sequential_counter_clauses(mono, page_vars, bound, next_var)
            clauses.extend(extra)
    return clauses, cols, next_var - mono


def estimate_clauses(k: int, n: int, size: int) -> int:
    """Closed-form clause count of ``sat_export(k, n, size)``."""
    pages = size - k
    per_spine = (comb(k, 2) + 1) + pages * (k + 1) + _counter_clause_count(pages, n - 1)
    return 2 * comb(size, k) * per_spine


def sat_export(k: int, n: int, size: int, clause_cap: int = DEFAULT_CLAUSE_CAP) -> str:
    """DIMACS CNF text, satisfiable iff some colouring of K_size avoids every
    monochromatic book with spine size k and n pages."""
    if k < 1 or n < 1 or size < 2:
        raise ValueError("need k >= 1, n >= 1, size >= 2")
    estimate = estimate_clauses(k, n, size)
    if estimate > clause_cap:
        raise CnfSizeError(estimate, clause_cap)
    evar = edge_index(size)
    edges = len(evar)
    out = [
        f"c book-avoidance instance: K_{size}, spine K_{k}, forbid {n} pages",
        "c edge variable true = blue, false = red",
        "c cardinality encoding: sequential counter, conditional on mono-spine indicator",
    ]
    for (u, v), t in evar.items():
        out.append(f"c edge {u + 1} {v + 1} -> var {t}")
    if k > size:
        out.append(f"p cnf {edges} 0")
        return "\n".join(out) + "\n"

    clauses, cols, nv = _block_template(k, n, size)
    spines = np.array(list(itertools.combinations(range(size), k)), dtype=np.int64)
    blocks = 2 * spines.shape[0]
    out.append(f"p cnf {edges + blocks * nv} {blocks * len(clauses)}")

    # edge variable of every edge column, one row per spine
    evmat = np.zeros((size, size), dtype=np.int64)
    evmat[np.triu_indices(size, 1)] = np.arange(1, edges + 1)
    evmat += evmat.T
    outside = np.ones((spines.shape[0], size), dtype=bool)
    outside[np.arange(spines.shape[0])[:, None], spines] = False
    page_vertices = np.nonzero(outside)[1].reshape(spines.shape[0], size - k)
    pairs = list(itertools.combinations(range(k), 2))
    columns = np.hstack(
        [evmat[spines[:, [a for a, _ in pairs]], spines[:, [b for _, b in pairs]]]]
        + [evmat[page_vertices[:, :, None], spines[:, None, :]].reshape(spines.shape[0], -1)]
    )

    lits = np.array([lit for cl in clauses for lit in cl], dtype=np.int64)
    slots, signs = np.abs(lits), np.sign(lits)
    fmt = "".join("%d " * len(cl) + "0\n" for cl in clauses)
    body = ["\n".join(out) + "\n"]
    chunk = max(1, _CHUNK_LITERALS // lits.size)
    for lo in range(0, blocks, chunk):
        # block b is (spine b // 2, colour b % 2); red negates edge literals.
        # Row b maps each local variable to its signed global literal
        # (column 0 is unused, local variables start at 1).
        b = np.arange(lo, min(blocks, lo + chunk))
        local = np.empty((b.size, 1 + cols + nv), dtype=np.int64)
        local[:, 1 : 1 + cols] = columns[b // 2] * np.where(b % 2 == BLUE, 1, -1)[:, None]
        local[:, 1 + cols :] = edges + b[:, None] * nv + np.arange(1, nv + 1)
        vals = local[:, slots] * signs
        body.append((fmt * b.size) % tuple(vals.ravel().tolist()))
    return "".join(body)


def decode_model(size: int, model) -> Colouring:
    """Turn a DIMACS model (sequence of signed literals) into a colouring.

    Edge variables are the first C(size, 2) variables in lexicographic edge
    order; positive means blue.
    """
    truth = {abs(l): l > 0 for l in model}
    evar = edge_index(size)

    def colour_of(u: int, v: int) -> int:
        return BLUE if truth.get(evar[(u, v)], False) else 0

    return Colouring.from_edge_colours(size, 2, colour_of)


SAT = "SAT"
UNSAT = "UNSAT"


def parse_dimacs(text: str) -> tuple[int, list[list[int]]]:
    nvars = 0
    clauses: list[list[int]] = []
    cur: list[int] = []
    for line in text.splitlines():
        if not line or line[0] in "c%":
            continue
        parts = line.split()
        if parts[0] == "p":
            nvars = int(parts[2])
            continue
        for tok in parts:
            lit = int(tok)
            if lit == 0:
                clauses.append(cur)
                cur = []
            else:
                cur.append(lit)
    if cur:
        clauses.append(cur)
    return nvars, clauses


def solve_dimacs(text: str) -> tuple[str, list[int] | None]:
    """Decide a DIMACS CNF with a watched-literal DPLL.

    Meant for the small instances this package emits; returns ("SAT", model)
    or ("UNSAT", None).  Branches on the lowest unassigned variable, trying
    false (red) first to mirror the colouring search.  A literal beyond the
    header's variable count is refused with ValueError.
    """
    nvars, clauses = parse_dimacs(text)
    if any(abs(lit) > nvars for cl in clauses for lit in cl):
        raise ValueError(f"a clause names a variable beyond the header's {nvars}")
    # literal-indexed lists: slot lit for a positive literal, and for -lit
    # Python's negative index, counted from the end, which no positive
    # literal reaches
    value = [0] * (2 * nvars + 1)  # 0 unknown, +1 true, -1 false
    watches: list[list[list[int]]] = [[] for _ in value]  # clauses watching lit
    trail: list[int] = []

    for cl in clauses:
        if not cl:
            return UNSAT, None
        if len(cl) == 1:
            lit = cl[0]
            if value[lit] == -1:
                return UNSAT, None
            if not value[lit]:
                value[lit], value[-lit] = 1, -1
                trail.append(lit)
            continue
        watches[cl[0]].append(cl)
        watches[cl[1]].append(cl)

    def propagate(head: int) -> bool:
        """Exhaust unit propagation from trail position ``head``."""
        while head < len(trail):
            falsified = -trail[head]
            head += 1
            watching = watches[falsified]  # clauses with falsified in cl[:2]
            i = 0
            end = len(watching)
            while i < end:
                cl = watching[i]
                first = cl[0]
                if first == falsified:
                    first = cl[0] = cl[1]
                    cl[1] = falsified
                # cl[1] == falsified now; find a replacement watch
                if value[first] == 1:
                    i += 1
                    continue
                for j in range(2, len(cl)):
                    lit = cl[j]
                    if value[lit] != -1:
                        cl[1], cl[j] = lit, falsified
                        watches[lit].append(cl)
                        end -= 1
                        watching[i] = watching[end]
                        watching.pop()
                        break
                else:
                    # unit or conflicting: first is unknown or false
                    if value[first]:
                        return False
                    value[first], value[-first] = 1, -1
                    trail.append(first)
                    i += 1
        return True

    if not propagate(0):
        return UNSAT, None
    decisions: list[tuple[int, int, bool]] = []  # (trail mark, literal, flipped)
    # every variable below the latest decision's is assigned, so the scan
    # for the lowest unassigned variable starts there
    var = 1
    while True:
        while var <= nvars and value[var]:
            var += 1
        if var > nvars:
            return SAT, [x if value[x] > 0 else -x for x in range(1, nvars + 1)]
        lit = -var  # false first
        decisions.append((len(trail), lit, False))
        value[lit], value[var] = 1, -1
        trail.append(lit)
        while not propagate(len(trail) - 1):
            # flipped decisions lie above the unflipped one, whose undo clears them
            while decisions and decisions[-1][2]:
                decisions.pop()
            if not decisions:
                return UNSAT, None
            mark, lit, _ = decisions.pop()
            for l in trail[mark:]:
                value[l] = value[-l] = 0
            del trail[mark:]
            decisions.append((mark, -lit, True))
            value[-lit], value[lit] = 1, -1
            trail.append(-lit)
            var = abs(lit)
