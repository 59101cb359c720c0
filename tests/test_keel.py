"""Genus-zero boundary presentations, cotangent classes, and point counts."""

import itertools
import math
import re

import pytest
from hypothesis import given, settings, strategies as st

from ellchow import (
    GradedPresentation,
    IntPolynomial,
    keel_presentation,
    mzero_point_count,
    mzero_point_poly,
    psi_star,
)
from ellchow.keel import (
    divisor_sum,
    four_point_relations,
    incompatible_products,
    keel_integral,
)
from ellchow.exactring import subset_name
from ellchow.partitions import incomparable
from ellchow.patch import boundary_subsets, relation_families


def d(*t):
    return IntPolynomial.symbol(subset_name("d", t))

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
    assert ring.presentation.name == "keel(1,2,3)"
    assert keel_presentation(iter((1, 2, 3))) is ring
    assert keel_presentation([1, 2, 4]) is not ring
    with pytest.raises(ValueError, match="^repeated markings$"):
        keel_presentation(iter((1, 2, 2)))


@pytest.mark.parametrize("block", [(2, 4, 5), (2, 4, 5, 7)])
def test_a_block_ring_is_the_ring_on_one_to_k_renamed(block):
    # the ring on a block holds the very staircase and record dicts of the
    # ring on 1..k, and it is the ring built on the block: the same symbols
    # and relations,
    # and the same normal forms through the degree above its dimension, where
    # its degree map is read on the block's own divisors
    canonical = keel_presentation(range(1, len(block) + 1)).presentation
    pres = keel_presentation(block).presentation
    assert pres._lattice_cache is canonical._lattice_cache
    assert pres._reduced_rels is canonical._reduced_rels
    assert pres._redundant is canonical._redundant
    subsets = [t for k in range(2, len(block)) for t in itertools.combinations(block, k)]
    built = GradedPresentation(
        [subset_name("d", t) for t in subsets],
        four_point_relations(block, "d", block) + incompatible_products(subsets, "d"),
        degree_map=(IntPolynomial.symbol(subset_name("d", block[1:]), len(block) - 2),
                    lambda mono: keel_integral(block, mono)),
    )
    assert pres.symbols == built.symbols
    assert pres.defining_relations() == built.defining_relations()
    assert pres._degree_map[0] == built._degree_map[0]
    for d in range(len(block)):
        for key in pres.basis(d):
            f = IntPolynomial({key: 1})
            assert pres.normal_form(f) == built.normal_form(f)


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
    assert ring.presentation.reduces_to_zero(d(1, 2) * d(2, 3))
    # nested subsets are compatible: the product survives
    assert not ring.presentation.reduces_to_zero(d(1, 2) * d(1, 2, 3))


# -- psi_star ------------------------------------------------------------------


def test_psi_star_small_cases():
    assert psi_star((1, 2)) == IntPolynomial.zero()
    assert psi_star((1, 2, 3)).text() == "d{1,2}"
    assert psi_star((2, 4, 7)).text() == "d{2,4}"


def test_psi_star_needs_two_markings():
    for markings in [(1,), ()]:
        with pytest.raises(ValueError, match=rf"not {re.escape(str(markings))}$"):
            psi_star(markings)


def test_psi_star_is_sum_over_containing_subsets():
    assert psi_star((1, 2, 3, 4)) == d(1, 2) + d(1, 2, 3) + d(1, 2, 4)


def test_psi_star_class_is_choice_independent():
    # the sum of the divisors containing any other pair is the same class
    markings = (1, 2, 3, 4)
    ring = keel_presentation(markings)
    reference = psi_star(markings)
    for pair in itertools.combinations(markings, 2):
        other = divisor_sum(markings, "d", pair, ())
        assert ring.presentation.reduces_to_zero(reference - other)
    # ... even though the representatives genuinely differ
    assert reference != divisor_sum(markings, "d", (3, 4), ())


def test_psi_star_is_not_a_zero_divisor_in_top_degrees():
    ring = keel_presentation([1, 2, 3, 4])
    psi = psi_star((1, 2, 3, 4))
    # multiplication by psi from degree 1 to degree 2 has full rank:
    # degree-2 rank is 1 and psi*d is nonzero for some divisor d
    assert not ring.presentation.reduces_to_zero(psi * d(1, 2))


# -- the degree map ---------------------------------------------------------------


def integral(markings, f):
    return sum(c * keel_integral(markings, mono) for mono, c in f.sorted_terms())


@pytest.mark.parametrize("size", [3, 4, 5, 6])
def test_psi_star_to_the_dimension_has_degree_one(size):
    ms = tuple(range(1, size + 1))
    assert integral(ms, psi_star(ms) ** (size - 2)) == 1
    other = divisor_sum(ms, "d", (size - 1, size), ())
    assert integral(ms, other ** (size - 2)) == 1


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
    for chosen in points:
        product = IntPolynomial.one()
        for t in chosen:
            product = product * d(*t)
        assert integral(ms, product) == 1, chosen


@pytest.mark.parametrize("size", [3, 4, 5, 6])
def test_degree_map_vanishes_on_every_top_degree_product_row(size):
    ms = tuple(range(1, size + 1))
    pres, top = keel_presentation(ms).presentation, size - 2
    degrees = [keel_integral(ms, IntPolynomial({key: 1}).sorted_terms()[0][0])
               for key in pres.basis(top)]
    rows = [row for _, row in pres._product_rows(top, {}, {})]
    assert len(rows) >= len(degrees) - 1
    for row in rows:
        assert sum(degrees[col] * c for col, c in zip(row[::2], row[1::2])) == 0


def zero_above_the_dimension_certificate(size):
    """Check that every basis monomial one degree above the dimension has
    staircase residue zero, which is the normal form the degree map gives."""
    pres = keel_presentation(range(1, size + 1)).presentation
    top = size - 2
    assert pres._top == top
    for key in pres.basis(top + 1):
        assert pres.normal_form(IntPolynomial({key: 1})).is_zero()
    staircase = pres.lattice(top + 1)
    assert staircase.rank == len(pres.basis(top + 1))
    for key in pres.basis(top + 1):
        assert not staircase.residue(pres.vector(IntPolynomial({key: 1}), top + 1))


@pytest.mark.parametrize("size", [3, 4, 5])
def test_keel_rings_are_zero_above_their_dimension(size):
    zero_above_the_dimension_certificate(size)


@pytest.mark.n6
def test_six_marking_keel_ring_is_zero_above_its_dimension():
    zero_above_the_dimension_certificate(6)


def test_degree_map_needs_the_dimension_and_compatible_divisors():
    ms = (1, 2, 3, 4, 5)
    assert keel_integral(ms, [("d{1,2}", 1), ("d{3,4}", 1)]) == 0  # degree 2, not 3
    assert keel_integral(ms, [("d{1,2}", 2), ("d{2,3}", 1)]) == 0  # incompatible
    assert keel_integral(ms, [("d{1,2}", 1), ("d{3,4}", 1), ("d{1,2,5}", 1)]) == 1
    # D_T^2 on the four-marking space: -psi - psi' at the node, integral -1
    assert keel_integral((1, 2, 3, 4), [("d{1,2}", 2)]) == -1


# -- point counts ----------------------------------------------------------------


def test_stable_trees_need_three_leaves():
    with pytest.raises(ValueError, match="three leaves"):
        mzero_point_count(2, 5)


def test_point_counts_match_closed_forms():
    # at q = 1 the count is the Euler characteristic, and the linear
    # coefficient is the Picard number 2^(n-1) - C(n, 2) - 1 (Keel)
    euler = [sum(mzero_point_poly(n)) for n in range(3, 9)]
    assert euler == [1, 2, 7, 34, 213, 1630]
    for n in range(4, 9):
        assert mzero_point_poly(n)[1] == 2 ** (n - 1) - math.comb(n, 2) - 1
    assert mzero_point_poly(8) == [1, 99, 715, 715, 99, 1]


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


def products_of_symbols(subsets, prefix):
    """The incompatible products built as products of two symbols."""
    return [
        IntPolynomial.symbol(subset_name(prefix, a)) * IntPolynomial.symbol(subset_name(prefix, b))
        for a, b in itertools.combinations(subsets, 2)
        if incomparable(a, b)
    ]


def term_lists(relations):
    return [list(rel.items()) for rel in relations]


@pytest.mark.parametrize("k", range(2, 7))
def test_keel_relations_equal_their_construction_as_symbol_products(k):
    ms = tuple(range(1, k + 1))
    subsets = [t for size in range(2, k) for t in itertools.combinations(ms, size)]
    old = four_point_relations(ms, "d", ms) + products_of_symbols(subsets, "d")
    assert term_lists(incompatible_products(subsets, "d")) == term_lists(
        products_of_symbols(subsets, "d"))
    ring = keel_presentation(ms).presentation
    parsed = GradedPresentation(ring.symbols, old)
    assert term_lists(ring.defining_relations()) == term_lists(parsed.defining_relations())


@pytest.mark.parametrize("n", range(1, 6))
def test_ambient_relation_families_equal_their_construction_as_symbol_products(n):
    families = relation_families(n)
    assert term_lists(families["incompatible"]) == term_lists(
        products_of_symbols(boundary_subsets(n), "t"))
    assert list(families) == ["four-point", "incompatible", "normal"]
