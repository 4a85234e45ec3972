"""Inequality certification: values, oracles, sampling reports."""

import hashlib
import itertools
import math
import random
import tracemalloc
from math import comb

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bookram import lemmas
from bookram.lemmas import (
    _elementary_symmetric_arr,
    degprod_certify,
    degprod_floor,
    dichotomy_certify,
    dichotomy_value,
    elementary_symmetric,
    gen_binomial,
)

# sha256 of TestDegprodCertify.test_reports_pinned's reports
PINNED_DEGPROD_DIGEST = "3c6da870725db7bb3256505350471152884380d0c947569b80b9d82d03fb85fc"


class TestGenBinomial:
    def test_integer_cases(self):
        assert gen_binomial(3, 2) == 3.0
        assert gen_binomial(0, 0) == 1.0
        assert gen_binomial(5, 0) == 1.0

    def test_fractional(self):
        assert gen_binomial(2.5, 2) == pytest.approx(1.875)

    def test_falling_factorial_hits_zero(self):
        assert gen_binomial(1.0, 2) == 0.0

    def test_matches_comb_on_integers(self):
        for n in range(10):
            for k in range(n + 1):
                assert gen_binomial(float(n), k) == pytest.approx(comb(n, k))


class TestDichotomyValue:
    def test_equality_point(self):
        # the one-variable reduction is minimised at 2 (t/2)^k
        assert dichotomy_value((1, 1), 2) == pytest.approx(2.0)

    def test_origin(self):
        assert dichotomy_value((0, 0), 2) == pytest.approx(4.0)

    def test_reevaluation_oracle(self):
        x = (0.2, 0.5, 0.9)
        t = 1.0
        direct = dichotomy_value(x, t)
        # independent evaluation order: fsum over reversed terms
        k = len(x)
        other = math.fsum((t - v) ** k for v in reversed(x)) / k
        prod = 1.0
        for v in reversed(x):
            prod *= v
        assert direct == pytest.approx(other + prod, rel=1e-12)

    def test_domain_error(self):
        with pytest.raises(ValueError):
            dichotomy_value((0.5, 1.5), 1.0)

    @given(
        st.lists(st.floats(0, 1), min_size=1, max_size=5),
        st.integers(0, 10_000),
    )
    @settings(max_examples=60, deadline=None)
    def test_permutation_invariance(self, xs, seed):
        rng = random.Random(seed)
        perm = xs[:]
        rng.shuffle(perm)
        assert dichotomy_value(xs, 1.0) == pytest.approx(
            dichotomy_value(perm, 1.0), rel=1e-9, abs=1e-12
        )


def reference_elementary_symmetric_arr(x, k):
    """The column-by-column recurrence over an (rows, k + 1) table that the
    row-per-degree layout replaced."""
    rows = x.shape[0]
    e = np.zeros((rows, k + 1), dtype=np.float64)
    e[:, 0] = 1.0
    for j in range(x.shape[1]):
        col = x[:, j]
        for d in range(k, 0, -1):
            e[:, d] += e[:, d - 1] * col
    return e[:, k]


class TestElementarySymmetric:
    def test_small_values(self):
        assert elementary_symmetric((1, 1, 1), 2) == 3.0
        assert elementary_symmetric((1, 1, 0.5), 2) == 2.0
        assert elementary_symmetric((1, 2, 3), 5) == 0.0

    def test_matches_brute_force(self):
        rng = random.Random(2)
        for _ in range(100):
            xs = [rng.random() for _ in range(8)]
            for k in range(9):
                brute = sum(
                    math.prod(c) for c in itertools.combinations(xs, k)
                ) if k else 1.0
                assert elementary_symmetric(xs, k) == pytest.approx(brute, rel=1e-9)

    @given(st.lists(st.floats(0, 1), min_size=1, max_size=8), st.integers(0, 10_000))
    @settings(max_examples=60, deadline=None)
    def test_permutation_invariance(self, xs, seed):
        rng = random.Random(seed)
        perm = xs[:]
        rng.shuffle(perm)
        for k in (1, 2, 3):
            assert elementary_symmetric(xs, k) == pytest.approx(
                elementary_symmetric(perm, k), rel=1e-9, abs=1e-12
            )


class TestElementarySymmetricArr:
    def test_equals_reference_on_random_points(self):
        rng = np.random.default_rng(3)
        for l in range(1, 11):
            x = rng.uniform(0.0, 1.0, size=(257, l))
            for k in range(0, l + 1):
                assert np.array_equal(
                    _elementary_symmetric_arr(x, k), reference_elementary_symmetric_arr(x, k)
                ), (l, k)

    def test_equals_reference_on_corners(self):
        for l in (1, 4, 7):
            x = np.array(list(itertools.product((0.0, 1.0), repeat=l)))
            for k in range(0, l + 1):
                got = _elementary_symmetric_arr(x, k)
                assert np.array_equal(got, reference_elementary_symmetric_arr(x, k))
                assert np.array_equal(got, [comb(int(r.sum()), k) for r in x])

    def test_edge_cases(self):
        x = np.array([[0.25], [0.5], [1.0]])
        assert np.array_equal(_elementary_symmetric_arr(x, 1), [0.25, 0.5, 1.0])
        assert np.array_equal(_elementary_symmetric_arr(x, 0), [1.0, 1.0, 1.0])
        wide = np.random.default_rng(4).uniform(size=(5, 6))
        assert np.array_equal(_elementary_symmetric_arr(wide, 0), np.ones(5))

    def test_non_contiguous_input(self):
        x = np.random.default_rng(5).uniform(size=(40, 12))[::2, ::3]
        assert np.array_equal(
            _elementary_symmetric_arr(x, 3), reference_elementary_symmetric_arr(x, 3)
        )

    @given(st.integers(1, 8), st.integers(0, 8), st.integers(0, 2**32 - 1))
    @settings(max_examples=60, deadline=None)
    def test_matches_scalar_recurrence(self, l, k, seed):
        x = np.random.default_rng(seed).uniform(size=(9, l))
        got = _elementary_symmetric_arr(x, min(k, l))
        assert np.array_equal(got, reference_elementary_symmetric_arr(x, min(k, l)))
        assert list(got) == [elementary_symmetric(row, min(k, l)) for row in x]


class TestDichotomyCertify:
    def test_zero_violations_small_grid(self):
        for k in (1, 2, 3, 4):
            for t in (1.0, 2.0):
                report = dichotomy_certify(k, t, 20_000, seed=5, tol=1e-9)
                assert report.violations == 0
                assert report.samples == 20_000 + 3**k

    def test_minimum_and_argmin(self):
        for k in (2, 3, 5):
            for t in (1.0, 2.0, 5.0):
                report = dichotomy_certify(k, t, 1000, seed=1, tol=1e-9)
                bound = 2 * (t / 2) ** k
                assert bound - 1e-6 <= report.min_value <= bound + 1e-3
                assert all(abs(a - t / 2) < 1e-3 for a in report.argmin)

    def test_perturbed_bound_detects_violations(self):
        # strengthening the bound by 1e-3 must flag the equality point
        report = dichotomy_certify(2, 1.0, 1000, seed=1, tol=1e-9, bound_offset=1e-3)
        assert report.violations > 0
        assert report.worst_margin < 0
        # the worst witness re-evaluates to its margin
        value = dichotomy_value(report.worst_witness, 1.0)
        assert value - (2 * 0.25 + 1e-3) == pytest.approx(report.worst_margin, abs=1e-12)

    @pytest.mark.parametrize("tol", [0.0, -1e-9, math.nan, math.inf])
    def test_tolerance_outside_range_refused(self, tol):
        # a NaN or infinite tolerance would pass every margin
        with pytest.raises(ValueError, match="tolerance"):
            dichotomy_certify(2, 1.0, 100, seed=1, tol=tol, bound_offset=1e-3)
        with pytest.raises(ValueError, match="tolerance"):
            degprod_certify(3, 2, 100, seed=1, tol=tol)

    def test_report_determinism(self):
        a = dichotomy_certify(3, 1.0, 5000, seed=9, tol=1e-9)
        b = dichotomy_certify(3, 1.0, 5000, seed=9, tol=1e-9)
        assert a == b


class TestChunkedSampling:
    @pytest.mark.parametrize("rows", [1, 7, 1000])
    def test_chunk_size_leaves_reports_unchanged(self, rows, monkeypatch):
        def reports():
            return (
                dichotomy_certify(3, 2.0, 3001, seed=4, tol=1e-9, bound_offset=0.2).to_tsv(),
                dichotomy_certify(2, 1.0, 2500, seed=5, tol=1e-9).to_tsv(),
                degprod_certify(8, 3, 3001, seed=4, tol=1e-9).to_tsv(),
            )

        whole = reports()
        monkeypatch.setattr(lemmas, "CHUNK_ROWS", rows)
        assert reports() == whole

    @pytest.mark.parametrize("case", ["ties", "nan", "all-nan", "inf"])
    def test_worst_is_first_argmin_over_all_rows(self, case):
        rng = np.random.default_rng(len(case))
        lhs = rng.integers(0, 3, 50).astype(np.float64)  # many tied minima
        if case == "nan":
            lhs[[17, 33]] = np.nan
        elif case == "all-nan":
            lhs[:] = np.nan
        elif case == "inf":
            lhs[[8, 40]] = -np.inf
        points = np.arange(50, dtype=np.float64)[:, None]
        blocks = (points[i : i + 7] for i in range(0, 50, 7))
        rows, _, margin, witness = lemmas._scan_margins(
            blocks, lambda pts: (lhs[pts[:, 0].astype(int)], 0.0), 1e-9
        )
        at = int(np.argmin(lhs))
        assert rows == 50 and witness == (float(at),)
        assert margin == lhs[at] or (math.isnan(margin) and math.isnan(lhs[at]))

    def test_memory_flat_in_samples(self):
        # a single block of a million samples would be 16 and 32 MiB
        tracemalloc.start()
        try:
            assert dichotomy_certify(2, 1.0, 1_000_000, seed=1, tol=1e-9).samples == 1_000_009
            assert degprod_certify(4, 2, 1_000_000, seed=1, tol=1e-9).samples == 1_000_044
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 4 << 20


class TestLatticeCap:
    def test_large_lattices_refused(self):
        with pytest.raises(ValueError, match="cap"):
            degprod_certify(40, 3, 10, seed=0, tol=1e-9)
        with pytest.raises(ValueError, match="cap"):
            dichotomy_certify(30, 1.0, 10, seed=0, tol=1e-9)

    def test_cap_boundary(self, monkeypatch):
        # 2^5 * 5 = 160 and 3^3 * 3 = 81 coordinates fit a cap of 160; one
        # more dimension does not
        monkeypatch.setattr(lemmas, "LATTICE_ENTRY_CAP", 160)
        assert degprod_certify(5, 2, 10, seed=0, tol=1e-9).violations == 0
        assert dichotomy_certify(3, 1.0, 10, seed=0, tol=1e-9).violations == 0
        with pytest.raises(ValueError):
            degprod_certify(6, 2, 10, seed=0, tol=1e-9)
        with pytest.raises(ValueError):
            dichotomy_certify(4, 1.0, 10, seed=0, tol=1e-9)


class TestDegprodCertify:
    def test_zero_violations_small_grid(self):
        for l in (3, 5, 8):
            for k in (1, 2, min(4, l)):
                report = degprod_certify(l, k, 20_000, seed=7, tol=1e-9)
                assert report.violations == 0, (l, k, report.worst_witness)

    def test_extremal_formula_exact(self):
        # floor(c) ones plus one fractional coordinate: e_k equals
        # C(floor, k) + frac * C(floor, k-1) exactly
        for ones, frac, k in ((3, 0.25, 2), (4, 0.5, 3), (2, 0.125, 2)):
            xs = [1.0] * ones + [frac] + [0.0] * 2
            got = elementary_symmetric(xs, k)
            want = comb(ones, k) + frac * comb(ones, k - 1)
            assert got == pytest.approx(want, rel=1e-12)

    def test_all_ones_equality(self):
        for l, k in ((5, 2), (7, 3)):
            xs = [1.0] * l
            assert elementary_symmetric(xs, k) == pytest.approx(comb(l, k))
            assert gen_binomial(float(l), k) == pytest.approx(comb(l, k))

    def test_floor_respects_proof_regions(self):
        # above c = k-1 the floor is the generalized binomial, below it the
        # extremal value; the raw binomial would overshoot there
        assert degprod_floor(np.array([0.42359898]), 3)[0] == pytest.approx(
            0.42359898 * comb(0, 2), abs=1e-12
        )
        c = 4.3
        assert degprod_floor(np.array([c]), 3)[0] == pytest.approx(gen_binomial(c, 3))
        # the documented counterexample to the raw comparison
        xs = (0.0148166, 0.00124099, 0.40754141)
        assert elementary_symmetric(xs, 3) < gen_binomial(sum(xs), 3)
        assert elementary_symmetric(xs, 3) >= degprod_floor(np.array([sum(xs)]), 3)[0]

    def test_floor_of_empty_product(self):
        c = np.array([0.0, 0.5, 2.25, 7.0])
        assert degprod_floor(c, 0).tolist() == [1.0] * 4
        assert degprod_certify(3, 0, 5, seed=0, tol=1e-9).violations == 0

    def test_reports_pinned(self):
        # sha256 over the to_tsv() reports on a small (l, k) grid, as the
        # column-by-column recurrence computed them
        digest = hashlib.sha256()
        for l in (1, 3, 5, 8):
            for k in range(1, min(5, l) + 1):
                for seed in (0, 11):
                    digest.update(degprod_certify(l, k, 2000, seed, 1e-9).to_tsv().encode())
        assert digest.hexdigest() == PINNED_DEGPROD_DIGEST

    def test_parameter_validation(self):
        with pytest.raises(ValueError):
            degprod_certify(3, 4, 100, seed=0, tol=1e-9)
