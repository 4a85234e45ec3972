"""Numerical certification of two optimisation inequalities and the
generalized binomial they rest on.

The dichotomy inequality: for 0 <= x_i <= t,
    (1/k) * sum_i (t - x_i)^k + prod_i x_i  >=  2 (t/2)^k,
with equality at x_i = t/2.  The degree-product inequality: for k <= l and
0 <= x_i <= 1, the k-th elementary symmetric polynomial e_k(x) is at least
the generalized binomial C(sum_i x_i, k), with equality when all but one
coordinate is 0 or 1.

Certification samples the domain (plus the lattice / extremal families),
counts violations under a relative tolerance, and for the dichotomy also
reports a grid-plus-descent minimum.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, replace

import numpy as np

GRID_POINTS = 33  # per-axis resolution of the coarse minimisation grid
# most coordinates a certification lattice (3^k points of k, 2^l of l) may hold
LATTICE_ENTRY_CAP = 1 << 22
# rows drawn and scored at a time, so memory stays flat in the sample count
CHUNK_ROWS = 8192


def gen_binomial(c: float, k: int) -> float:
    """Generalized binomial c(c-1)...(c-k+1)/k!, for every finite real c."""
    if k < 0:
        raise ValueError("k must be nonnegative")
    return float(_gen_binomial_arr(np.float64(c), k))


def _gen_binomial_arr(c: np.ndarray, k: int) -> np.ndarray:
    num = np.ones_like(c, dtype=np.float64)
    for i in range(k):
        num = num * (c - i)
    return num / math.factorial(k)


def dichotomy_value(x, t: float) -> float:
    """Left-hand side (1/k) sum (t - x_i)^k + prod x_i for k = len(x)."""
    xs = [float(v) for v in x]
    k = len(xs)
    if k < 1:
        raise ValueError("need at least one coordinate")
    for v in xs:
        if not 0.0 <= v <= t:
            raise ValueError(f"coordinate {v} outside [0, {t}]")
    return sum((t - v) ** k for v in xs) / k + math.prod(xs)


def elementary_symmetric(x, k: int) -> float:
    """e_k(x) of finite x by the one-pass recurrence; k > len(x) gives 0."""
    if k < 0:
        raise ValueError("k must be nonnegative")
    return float(_elementary_symmetric_arr(np.fromiter(x, np.float64).reshape(1, -1), k)[0])


def _elementary_symmetric_arr(x: np.ndarray, k: int) -> np.ndarray:
    # e[d] is e_d over the coordinates seen so far, one row per degree so
    # every update runs over contiguous memory.  After i coordinates only
    # e_0..e_i are nonzero, and e_d still reaches e_k only while k - d
    # coordinates remain, so each coordinate updates just those degrees
    # (adding 0 * col to 0 would leave them unchanged for finite x).
    l = x.shape[1]
    e = np.zeros((k + 1, x.shape[0]), dtype=np.float64)
    e[0] = 1.0
    term = np.empty(x.shape[0], dtype=np.float64)
    for i, col in enumerate(np.ascontiguousarray(x.T)):
        for d in range(min(k, i + 1), max(0, k - l + i), -1):
            np.multiply(e[d - 1], col, out=term)
            e[d] += term
    return e[k]


@dataclass(frozen=True)
class LemmaReport:
    """Sampling report: violations are points whose margin (lhs - rhs) falls
    below -tol*(1+|lhs|); the worst witness re-evaluates to its margin.
    ``min_value``/``argmin`` are filled by minimisation runs only."""

    lemma: str
    samples: int
    violations: int
    worst_margin: float
    worst_witness: tuple[float, ...]
    tol: float
    min_value: float | None = None
    argmin: tuple[float, ...] | None = None

    def to_tsv(self) -> str:
        rows = [
            f"lemma\t{self.lemma}",
            f"samples\t{self.samples}",
            f"violations\t{self.violations}",
            f"worst_margin\t{self.worst_margin!r}",
            "worst_witness\t" + " ".join(repr(v) for v in self.worst_witness),
            f"tol\t{self.tol!r}",
        ]
        if self.min_value is not None:
            rows.append(f"min_value\t{self.min_value!r}")
            rows.append("argmin\t" + " ".join(repr(v) for v in self.argmin))
        return "\n".join(rows) + "\n"


def _lattice(values: int, dim: int) -> np.ndarray:
    """The points of {0, ..., values - 1}^dim in ``itertools.product`` order,
    refused when their coordinates pass the cap (values >= 2, so a dim past
    the cap's bit length always does)."""
    if dim > LATTICE_ENTRY_CAP.bit_length() or values**dim * dim > LATTICE_ENTRY_CAP:
        raise ValueError(
            f"the {values}^{dim}-point lattice passes the cap of {LATTICE_ENTRY_CAP} coordinates"
        )
    return np.indices((values,) * dim, dtype=np.int8).reshape(dim, -1).T


def _certify(lemma: str, draw, samples: int, fixed, score, tol: float) -> LemmaReport:
    """Check ``tol``, then call ``fixed()``, which may refuse its lattice,
    and score ``draw(rows)`` up to ``samples`` rows, then the rows ``fixed()``
    gave, CHUNK_ROWS at a time by ``score(points) -> (lhs, rhs)``;
    consecutive draws continue one stream, so they equal one big draw.  The
    worst is the first minimum over all rows, a NaN margin first of all, as
    one ``argmin`` would give."""
    if not 0 < tol < math.inf:
        raise ValueError("tolerance must be a finite number > 0")
    rest = fixed()
    blocks = itertools.chain(
        (draw(min(CHUNK_ROWS, samples - at)) for at in range(0, samples, CHUNK_ROWS)),
        (rest[at : at + CHUNK_ROWS] for at in range(0, rest.shape[0], CHUNK_ROWS)),
    )
    rows = violations = 0
    minima, points_at = [], []
    for points in blocks:
        lhs, rhs = score(points)
        margins = lhs - rhs
        violations += int((margins < -tol * (1.0 + np.abs(lhs))).sum())
        worst = int(np.argmin(margins))
        minima.append(margins[worst])
        points_at.append(tuple(float(v) for v in points[worst]))
        rows += points.shape[0]
    worst = int(np.argmin(minima))
    return LemmaReport(lemma, rows, violations, float(minima[worst]), points_at[worst], tol)


def dichotomy_certify(
    k: int,
    t: float,
    samples: int,
    seed: int,
    tol: float,
    bound_offset: float = 0.0,
) -> LemmaReport:
    """Sample [0, t]^k uniformly plus the full {0, t/2, t}^k lattice, count
    violations of the dichotomy bound 2(t/2)^k + bound_offset, and report the
    grid-plus-coordinate-descent minimum of the left-hand side.

    ``bound_offset`` strengthens the bound artificially; the default 0 is the
    proved inequality and should report zero violations.  A k whose lattice
    passes LATTICE_ENTRY_CAP coordinates, and a t whose max(2, k) * t^k is no
    finite double, are refused before anything is built.
    """
    if samples < 1 or k < 1:
        raise ValueError("need samples >= 1 and k >= 1")
    # a sampled row sums k terms (t - x_i)^k and a product, each at most t^k
    with np.errstate(over="ignore"):
        top = max(2, k) * np.float64(t) ** k
    if not np.isfinite(top):
        raise ValueError(f"max(2, k) * t^k is not a finite double at k = {k}, t = {t}")
    rng = np.random.default_rng(seed)
    bound = 2.0 * (t / 2.0) ** k + bound_offset
    report = _certify(
        "dichotomy",
        lambda n: rng.uniform(0.0, t, size=(n, k)),
        samples,
        lambda: np.array((0.0, t / 2, t))[_lattice(3, k)],
        lambda pts: (((t - pts) ** k).mean(axis=1) + pts.prod(axis=1), bound),
        tol,
    )
    min_value, argmin = _dichotomy_minimise(k, t)
    return replace(report, min_value=min_value, argmin=argmin)


def _dichotomy_minimise(k: int, t: float) -> tuple[float, tuple[float, ...]]:
    """Coarse per-axis grid scan refined by exact coordinate descent.

    Each coordinate subproblem (t - x)^k / k + P x is convex with the closed
    form x = t - P^(1/(k-1)), so descent converges to machine precision.
    """
    grid = [t * i / (GRID_POINTS - 1) for i in range(GRID_POINTS)]
    starts = [
        [t / 2.0] * k,
        [t / 4.0] * k,
        [3.0 * t / 4.0] * k,
        [t * (i + 1) / (k + 1) for i in range(k)],
    ]
    best_val = math.inf
    best_x: list[float] = starts[0]
    for start in starts:
        xs = list(start)
        for _ in range(200):
            moved = 0.0
            for i in range(k):
                others = math.prod(xs[:i] + xs[i + 1 :])
                cands = list(grid)
                if k >= 2 and others >= 0.0:
                    root = others ** (1.0 / (k - 1)) if others > 0 else 0.0
                    if root <= t:
                        cands.append(t - root)
                best_c, best_cv = xs[i], (t - xs[i]) ** k / k + others * xs[i]
                for cand in cands:
                    cv = (t - cand) ** k / k + others * cand
                    if cv < best_cv - 1e-15:
                        best_c, best_cv = cand, cv
                moved = max(moved, abs(best_c - xs[i]))
                xs[i] = best_c
            if moved < 1e-13:
                break
        val = dichotomy_value(xs, t)
        if val < best_val - 1e-12:
            best_val, best_x = val, xs
    return best_val, tuple(best_x)


def degprod_floor(c, k: int):
    """Certified lower bound for e_k over vectors in [0,1]^l with sum c.

    Always the tight extremal value C(floor(c), k) + frac(c) * C(floor(c),
    k-1), attained when all but one coordinate is 0 or 1.  For c >= k-1 this
    dominates the generalized binomial C(c, k), so the binomial itself is the
    certified floor there; below k-1 the raw binomial can exceed the true
    minimum (its falling factorial turns positive again), so the comparison
    against it is restricted to c >= k-1.
    """
    c = np.asarray(c, dtype=np.float64)
    binom = _gen_binomial_arr(c, k)
    if k == 0:
        return binom  # e_0 = 1 = C(c, 0), with no C(c, -1) term
    lo = np.floor(c)
    frac = c - lo
    extremal = _gen_binomial_arr(lo, k) + frac * _gen_binomial_arr(lo, k - 1)
    return np.where(c >= k - 1, binom, extremal)


def degprod_certify(l: int, k: int, samples: int, seed: int, tol: float) -> LemmaReport:
    """Check e_k(x) >= C(sum x_i, k) on uniform samples in [0,1]^l plus all
    {0,1}-valued vectors and the one-fractional-coordinate extremal family
    (where the bound is tight).

    On sums below k-1 the certified floor is the extremal value rather than
    the raw generalized binomial; see ``degprod_floor``.  An l whose corners
    pass LATTICE_ENTRY_CAP coordinates is refused before anything is built.
    """
    if k > l:
        raise ValueError("need k <= l")
    if samples < 1 or k < 0 or l < 1:
        raise ValueError("need samples >= 1, l >= 1, k >= 0")
    rng = np.random.default_rng(seed)

    def fixed():
        # the 2^l corners, then the extremal family: for each count of
        # leading ones every fraction i/8
        corners = _lattice(2, l)
        extremal = np.repeat(np.tri(l, l, -1), 7, axis=0)
        extremal[np.arange(7 * l), np.repeat(np.arange(l), 7)] = np.tile(np.arange(1, 8) / 8.0, l)
        return np.vstack([corners, extremal])

    # random() draws what uniform(0, 1) does
    return _certify(
        "degprod",
        lambda n: rng.random((n, l)),
        samples,
        fixed,
        lambda pts: (_elementary_symmetric_arr(pts, k), degprod_floor(pts.sum(axis=1), k)),
        tol,
    )
