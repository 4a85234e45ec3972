"""Tests of the benchmark's reference code on inputs checked by hand.

    python3 -m pytest -q perfbench/test_reference.py
"""

import itertools

import numpy as np
import pytest

import reference as ref


def mono(n: int, colour: int = 0) -> np.ndarray:
    col = np.full((n, n), colour, dtype=np.uint8)
    np.fill_diagonal(col, ref.NO_EDGE)
    return col


@pytest.mark.parametrize("k", [1, 2, 3])
def test_monochromatic_clique_has_n_minus_k_pages(k):
    assert ref.max_book(mono(7), 2, k) == (7 - k, 0, tuple(range(k)))
    assert ref.max_book(mono(7, 1), 2, k) == (7 - k, 1, tuple(range(k)))
    assert ref.has_book_bruteforce(mono(7), k, 7 - k)
    assert not ref.has_book_bruteforce(mono(7), k, 8 - k)


def test_pentagon_has_no_page_at_k2():
    pentagon = ref.pentagon_colouring()
    assert pentagon[0].tolist() == [ref.NO_EDGE, 0, 1, 1, 0]
    assert ref.max_book(pentagon, 2, 2) == (0, 0, (0, 1))
    assert ref.max_book(pentagon, 2, 3) is None
    assert ref.profile(pentagon, 2, 2) == [{0: 5}, {0: 5}]


def test_paley_13_has_two_pages_at_k2():
    p13 = ref.paley_colouring(13)
    assert ref.paley_book(13) == (2, 0, (0, 1))
    assert ref.max_book(p13, 2, 2) == (2, 0, (0, 1))
    # every same-coloured pair has exactly (13 - 5) / 4 common neighbours
    assert ref.profile(p13, 2, 2) == [{2: 39}, {2: 39}]


def test_paley_witnesses_avoid_their_books():
    assert not ref.has_book_bruteforce(ref.pentagon_colouring(), 2, 1)
    assert not ref.has_book_bruteforce(ref.paley9_colouring(), 2, 2)
    assert ref.has_book_bruteforce(ref.paley9_colouring(), 2, 1)


def test_k6_triangle_floor_is_two():
    assert ref.triangle_floor(5) == 0
    assert ref.triangle_floor(6) == 2


@pytest.mark.parametrize("seed", range(6))
def test_matrix_reference_agrees_with_brute_force(seed):
    rng = np.random.default_rng(seed)
    col = ref.random_colouring(9 + seed % 3, rng, q=2 + seed % 2)
    q = 2 + seed % 2
    for k in (1, 2, 3):
        best = ref.max_book(col, q, k)
        if best is None:
            assert not ref.has_book_bruteforce(col, k, 0)
            continue
        pages, colour, spine = best
        assert ref.has_book_bruteforce(col, k, pages)
        assert not ref.has_book_bruteforce(col, k, pages + 1)
        assert ref.certificate_fault(col, colour, spine, ref.page_set(col, colour, spine), True) is None
        # no earlier (colour, spine) reaches the same page count
        for c in range(colour + 1):
            for s in itertools.combinations(range(col.shape[0]), k):
                if (c, s) >= (colour, spine):
                    break
                if all(col[u, v] == c for u, v in itertools.combinations(s, 2)):
                    assert ref.page_set(col, c, s).size < pages
        hists = ref.profile(col, q, k)
        for c in range(q):
            brute = {}
            for s in itertools.combinations(range(col.shape[0]), k):
                if all(col[u, v] == c for u, v in itertools.combinations(s, 2)):
                    n = int(ref.page_set(col, c, s).size)
                    brute[n] = brute.get(n, 0) + 1
            assert hists[c] == brute


def test_knc_round_trip_and_rejects():
    col = ref.random_colouring(12, np.random.default_rng(1), q=3)
    text = ref.write_knc(col, 3)
    assert text.splitlines()[0] == "KNC 1 12 3" and len(text.splitlines()[1]) == 11
    back, q = ref.read_knc("# comment\n" + text)
    assert q == 3 and np.array_equal(back, col)
    with pytest.raises(ValueError):
        ref.read_knc(text.replace("KNC 1 12 3", "KNC 1 12 2"))
    with pytest.raises(ValueError):
        ref.read_knc(text.rsplit("\n", 2)[0] + "\n")


def test_certificate_faults():
    col = ref.pentagon_colouring()
    assert ref.certificate_fault(col, 1, (0, 2), (), True) is None
    assert ref.certificate_fault(col, 0, (0, 2), (), True).startswith("spine edge")
    assert ref.certificate_fault(col, 0, (0, 1), (2,), False) == "a page is not joined to the whole spine"
    assert ref.certificate_fault(col, 0, (1,), (0, 2), True) is None
    assert ref.certificate_fault(col, 0, (1,), (0,), True) == "1 pages listed, 2 exist"
    assert ref.certificate_fault(col, 0, (1,), (0,), False) is None


def test_closed_forms():
    assert [ref.ramsey_closed_form(1, n) for n in (1, 2, 3, 4, 40)] == [2, 3, 6, 7, 79]
    assert [ref.ramsey_closed_form(2, n) for n in (1, 2)] == [6, 10]
    with pytest.raises(ValueError):
        ref.ramsey_closed_form(3, 1)
    assert ref.blowup_book(5) == (2, 2, (0, 1, 2))
    blowup = ref.blowup_colouring(ref.pentagon_colouring(), 2, 5)
    assert ref.max_book(blowup, 3, 3) == ref.blowup_book(5)
    assert ref.dichotomy_minimum(2, 2.0) == 2.0
    assert ref.dichotomy_lhs((1.0, 1.0), 2.0) == 2.0
    assert ref.elementary_symmetric((1.0, 1.0, 1.0), 2) == 3.0
    assert ref.degprod_floor(2.5, 2) == 1.0 + 0.5 * 2


def test_cnf_checks():
    text = "c edge 1 2 -> var 1\np cnf 2 2\n1 2 0\n-1 0\n"
    assert ref.cnf_fault(text) is None
    assert ref.cnf_fault(text.replace("p cnf 2 2", "p cnf 2 3")) == "header says 3 clauses, 2 emitted"
    assert ref.cnf_fault(text.replace("-1 0", "-3 0")) == "literal outside the declared variables"
    col = ref.model_colouring(text, [-1, 2])
    assert col[0, 1] == col[1, 0] == 0
    with pytest.raises(ValueError):
        ref.model_colouring(text, [1, 2])


def test_hypergraph_reference():
    base = {e: 0 for e in itertools.combinations(range(4), 3)}
    assert ref.has_mono_hyperclique(base, 4, 3, 4)
    blown = ref.hyper_blowup(base, 4, 3, 2)
    assert blown[(0, 1, 2)] == 1 and blown[(0, 2, 4)] == 0 and blown[(0, 1, 3)] == 1
    # all-colour-0 spine {0, 2, 4} (one vertex per part): pages are the
    # vertices w with every pair of the spine plus w meeting three parts
    best = ref.hyper_max_book(blown, 8, 3, 3)
    assert best[0] == 2 and best[1] == 0
