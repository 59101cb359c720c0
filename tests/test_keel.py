"""Genus-zero boundary presentations, cotangent classes, and point counts."""

import itertools
import math

import pytest
from hypothesis import given, settings, strategies as st

from ellchow import (
    IntPolynomial,
    keel_presentation,
    mzero_point_count,
    mzero_point_poly,
    psi_star,
)
from ellchow.keel import (
    enumerate_stable_trees,
    four_point_relations,
    incompatible_products,
    keel_integral,
)
from ellchow.partitions import incomparable


# -- presentation shape --------------------------------------------------------


@pytest.mark.parametrize("size", [2, 3, 4, 5])
def test_generator_count(size):
    ring = keel_presentation(list(range(1, size + 1)))
    # proper subsets of size >= 2: all subsets minus empty, singletons, full
    assert len(ring.presentation.symbols) == 2**size - size - 2


@pytest.mark.parametrize("size", [2, 3, 4, 5, 6, 7])
def test_relations_are_the_four_point_relations(size):
    ms = tuple(range(1, size + 1))
    pres = keel_presentation(ms).presentation
    subsets = [t for k in range(2, size) for t in itertools.combinations(ms, k)]
    assert pres.defining_relations() == (
        four_point_relations(ms, "d", ms) + incompatible_products(subsets, "d")
    )


def test_rejects_bad_markings():
    with pytest.raises(ValueError):
        keel_presentation([1])
    with pytest.raises(ValueError):
        keel_presentation([1, 1, 2])


def test_keel_ring_is_built_once_per_marking_set():
    ring = keel_presentation([3, 1, 2])
    assert ring.markings == (1, 2, 3)
    assert keel_presentation(iter((1, 2, 3))) is ring
    assert keel_presentation([1, 2, 4]) is not ring
    with pytest.raises(ValueError, match="^repeated markings$"):
        keel_presentation(iter((1, 2, 2)))


def test_divisor_lookup():
    ring = keel_presentation([2, 4, 7, 9])
    assert ring.divisor([4, 2]).text() == "d{2,4}"
    with pytest.raises(ValueError):
        ring.divisor([2])  # too small
    with pytest.raises(ValueError):
        ring.divisor([2, 4, 7, 9])  # the full set is not a boundary divisor
    with pytest.raises(ValueError):
        ring.divisor([1, 2])  # 1 is not a marking here


def test_hilbert_functions():
    three = keel_presentation([1, 2, 3])
    assert three.presentation.hilbert_function(2) == [1, 1, 0]
    four = keel_presentation([1, 2, 3, 4])
    assert four.presentation.hilbert_function(3) == [1, 5, 1, 0]
    # labels do not matter, only how many there are
    other = keel_presentation([2, 4, 7, 9])
    assert other.presentation.hilbert_function(3) == [1, 5, 1, 0]


def test_incompatible_divisors_multiply_to_zero():
    ring = keel_presentation([1, 2, 3, 4])
    d12 = ring.divisor([1, 2])
    d23 = ring.divisor([2, 3])
    assert ring.presentation.reduces_to_zero(d12 * d23)
    # nested subsets are compatible: the product survives
    d123 = ring.divisor([1, 2, 3])
    assert not ring.presentation.reduces_to_zero(d12 * d123)


# -- psi_star ------------------------------------------------------------------


def test_psi_star_small_cases():
    two = keel_presentation([1, 2])
    assert psi_star(two) == IntPolynomial.zero()
    three = keel_presentation([1, 2, 3])
    assert psi_star(three, 1, 2).text() == "d{1,2}"


def test_psi_star_is_sum_over_containing_subsets():
    ring = keel_presentation([1, 2, 3, 4])
    got = psi_star(ring, 1, 2)
    expect = ring.divisor([1, 2]) + ring.divisor([1, 2, 3]) + ring.divisor([1, 2, 4])
    assert got == expect


def test_psi_star_rejects_bad_pairs():
    ring = keel_presentation([1, 2, 3])
    with pytest.raises(ValueError):
        psi_star(ring, 1, 1)
    with pytest.raises(ValueError):
        psi_star(ring, 1, 9)


def test_psi_star_class_is_choice_independent():
    ring = keel_presentation([1, 2, 3, 4])
    reference = psi_star(ring, 1, 2)
    for i, j in itertools.combinations([1, 2, 3, 4], 2):
        other = psi_star(ring, i, j)
        assert ring.presentation.reduces_to_zero(reference - other)
    # ... even though the representatives genuinely differ
    assert psi_star(ring, 1, 2) != psi_star(ring, 3, 4)


def test_psi_star_is_not_a_zero_divisor_in_top_degrees():
    ring = keel_presentation([1, 2, 3, 4])
    psi = psi_star(ring)
    # multiplication by psi from degree 1 to degree 2 has full rank:
    # degree-2 rank is 1 and psi*d is nonzero for some divisor d
    d12 = ring.divisor([1, 2])
    assert not ring.presentation.reduces_to_zero(psi * d12)


# -- the degree map ---------------------------------------------------------------


def integral(markings, f):
    return sum(c * keel_integral(markings, mono) for mono, c in f.sorted_terms())


@pytest.mark.parametrize("size", [3, 4, 5, 6])
def test_psi_star_to_the_dimension_has_degree_one(size):
    ring = keel_presentation(range(1, size + 1))
    assert integral(ring.markings, psi_star(ring) ** (size - 2)) == 1
    assert integral(ring.markings, psi_star(ring, size - 1, size) ** (size - 2)) == 1


@pytest.mark.parametrize("size", [3, 4, 5, 6])
def test_every_maximal_compatible_product_has_degree_one(size):
    # Distinct pairwise compatible divisors, as many as the dimension, meet
    # transversally in one point: a trivalent tree on size + 1 leaves, of
    # which there are (2*size - 3)!!.
    ms = tuple(range(1, size + 1))
    subsets = [t for k in range(2, size) for t in itertools.combinations(ms, k)]
    points = []

    def grow(chosen, start):
        if len(chosen) == size - 2:
            points.append(chosen)
            return
        for i in range(start, len(subsets)):
            if not any(incomparable(subsets[i], t) for t in chosen):
                grow(chosen + [subsets[i]], i + 1)

    grow([], 0)
    assert len(points) == math.prod(range(1, 2 * size - 2, 2))
    ring = keel_presentation(ms)
    for chosen in points:
        product = IntPolynomial.one()
        for t in chosen:
            product = product * ring.divisor(t)
        assert integral(ms, product) == 1, chosen


@pytest.mark.parametrize("size", [3, 4, 5, 6])
def test_degree_map_vanishes_on_every_top_degree_product_row(size):
    ring = keel_presentation(range(1, size + 1))
    pres, top = ring.presentation, size - 2
    degrees = [keel_integral(ring.markings, IntPolynomial({key: 1}).sorted_terms()[0][0])
               for key in pres.basis(top)]
    rows = list(pres._product_rows(top))
    assert len(rows) >= len(degrees) - 1
    for row in rows:
        assert sum(degrees[col] * c for col, c in zip(row[::2], row[1::2])) == 0


def test_degree_map_needs_the_dimension_and_compatible_divisors():
    ms = (1, 2, 3, 4, 5)
    assert keel_integral(ms, [("d{1,2}", 1), ("d{3,4}", 1)]) == 0  # degree 2, not 3
    assert keel_integral(ms, [("d{1,2}", 2), ("d{2,3}", 1)]) == 0  # incompatible
    assert keel_integral(ms, [("d{1,2}", 1), ("d{3,4}", 1), ("d{1,2,5}", 1)]) == 1
    # D_T^2 on the four-marking space: -psi - psi' at the node, integral -1
    assert keel_integral((1, 2, 3, 4), [("d{1,2}", 2)]) == -1


# -- stable trees and point counts ----------------------------------------------


@pytest.mark.parametrize(
    "n,count", [(3, 1), (4, 4), (5, 26), (6, 236)]
)
def test_stable_tree_counts(n, count):
    assert len(enumerate_stable_trees(n)) == count


def test_stable_trees_need_three_leaves():
    with pytest.raises(ValueError):
        enumerate_stable_trees(2)


def test_point_counts_at_small_q():
    # over the field with 2 elements every count is the constant-term sum
    assert mzero_point_count(4, 2) == 3
    assert mzero_point_count(5, 2) == 4 + 10 + 1  # 2^2+5*2+1
    assert mzero_point_poly(4) == [1, 1]
    assert mzero_point_poly(5) == [1, 5, 1]
    assert mzero_point_poly(6) == [1, 16, 16, 1]


@given(st.integers(min_value=2, max_value=50))
@settings(max_examples=30, deadline=None)
def test_poly_agrees_with_direct_count(q):
    poly = mzero_point_poly(5)
    assert sum(c * q**k for k, c in enumerate(poly)) == mzero_point_count(5, q)


@pytest.mark.parametrize("m", [4, 5, 6, 7])
def test_point_count_matches_keel_hilbert(m):
    """Purity: the count polynomial's coefficients are the Chow ranks."""
    poly = mzero_point_poly(m)
    ring = keel_presentation(list(range(1, m)))
    hilb = ring.presentation.hilbert_function(m - 3)
    assert hilb[: len(poly)] == poly
    assert all(h == 0 for h in hilb[len(poly) :])


def test_palindromic_counts():
    for m in (4, 5, 6, 7):
        poly = mzero_point_poly(m)
        assert poly == poly[::-1]
