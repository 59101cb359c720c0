"""Graded quotient presentations over Z: bases, normal forms, invariant
factors, and exact division in the quotient."""

import itertools
import os
import random
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import example, given, settings, strategies as st

from ellchow import (
    GradedPresentation,
    IntPolynomial,
    NotDivisibleError,
    PresentationError,
    dm_space,
    gorenstein_presentation,
    keel_presentation,
    qstable_presentation,
)
from ellchow.exactring import (
    Echelon,
    smith_invariants_of_rows,
    symbol_degree,
    symbol_key,
)
from ellchow.exactring.poly import MAX_DEGREE
from ellchow.patch import ambient_relations, ambient_symbols

ROOT = Path(__file__).resolve().parent.parent


L = IntPolynomial.symbol("l")
NU = IntPolynomial.symbol("nu")
X = IntPolynomial.symbol("xi")
T12 = IntPolynomial.symbol("t{1,2}")


def sym(*names):
    return tuple(names)


def free_ring(*names):
    return GradedPresentation(sym(*names), ())


# -- construction and validation ---------------------------------------------


def test_rejects_inhomogeneous_relation():
    with pytest.raises(PresentationError):
        GradedPresentation(sym("l"), (L + L**2,))


def test_rejects_foreign_symbols_in_relations():
    with pytest.raises(PresentationError):
        GradedPresentation(sym("l"), (L * NU,))


def test_vector_rejects_foreign_symbols():
    pres = free_ring("l")
    with pytest.raises(PresentationError, match=r"^unknown symbol 'nu'$"):
        pres.vector(NU, 2)
    with pytest.raises(PresentationError, match=r"^unknown symbol 'xi'$"):
        pres.vector(L - X, 1)


def test_top_degree_normal_form_rejects_foreign_symbols():
    # the top degree reads the degree map, not a staircase, and refuses a
    # foreign symbol as vector does; Z[d12, d13] / (d12 - d13, d13^2) is Z in
    # degree 1 and zero above
    d12, d13 = IntPolynomial.symbol("d{1,2}"), IntPolynomial.symbol("d{1,3}")
    pres = GradedPresentation(["d{1,2}", "d{1,3}"], [d12 - d13, d13**2],
                              degree_map=(d13, lambda mono: 1))
    assert pres.normal_form(3 * d12 - d13) == 2 * d13
    with pytest.raises(PresentationError, match=r"^unknown symbol 'xi'$"):
        pres.normal_form(d12 + X)
    with pytest.raises(PresentationError, match=r"^unknown symbol 'xi'$"):
        pres.normal_form(d12**3 * X)  # above the top degree too


def test_a_degree_map_must_be_one_on_its_top_monomial():
    d12, d13 = IntPolynomial.symbol("d{1,2}"), IntPolynomial.symbol("d{1,3}")
    pres = GradedPresentation(["d{1,2}", "d{1,3}"], [d12 - d13, d13**2],
                              degree_map=(d13, lambda mono: 2))
    # below the relations and above the map's degree no staircase is built
    assert pres.normal_form(5 + d12 * d13 - d12**3).text() == "5"
    assert not pres._lattice_cache
    with pytest.raises(PresentationError, match=r"is 2 on d\{1,3\}, not \+1 or -1$"):
        pres.normal_form(d12)


def test_symbols_are_read_once():
    pres = GradedPresentation(iter(["xi", "l"]), [])
    assert pres.symbols == ("l", "xi")
    with pytest.raises(PresentationError, match="^duplicate symbol names$"):
        GradedPresentation(iter(["l", "l"]), [])


# -- basis enumeration --------------------------------------------------------


def test_free_ring_basis_counts():
    pres = free_ring("l", "xi")
    assert [len(pres.basis(d)) for d in range(4)] == [1, 2, 3, 4]
    # nu has degree 2
    pres = free_ring("l", "nu")
    assert [len(pres.basis(d)) for d in range(5)] == [1, 1, 2, 2, 3]


def test_basis_canonical_order():
    pres = free_ring("l", "xi")
    names = [IntPolynomial({m: 1}).text() for m in pres.basis(2)]
    assert names == ["l^2", "l*xi", "xi^2"]


def test_squarefree_kill_prunes_basis():
    pres = GradedPresentation(sym("l", "xi"), (L * X,))
    texts = [IntPolynomial({m: 1}).text() for m in pres.basis(2)]
    assert texts == ["l^2", "xi^2"]


def test_negative_degree_basis_empty():
    pres = free_ring("l")
    assert pres.basis(-1) == []


KILL_SYMBOLS = ("l", "nu", "xi", "t{1,2}", "t{1,3}", "t{2,3}")


@st.composite
def kill_rings(draw):
    """Symbols, kills of one to three symbols, and one lattice relation."""
    names = draw(st.lists(st.sampled_from(KILL_SYMBOLS), min_size=2, unique=True))
    kills = draw(
        st.lists(
            st.lists(st.sampled_from(names), min_size=1, max_size=3, unique=True),
            min_size=1,
            max_size=3,
        )
    )
    factors = draw(st.lists(st.sampled_from(names), min_size=1, max_size=3))
    coeff = draw(st.sampled_from((2, 3, -6)))
    relation = IntPolynomial.const(coeff)
    for nm in factors:
        relation = relation * IntPolynomial.symbol(nm)
    return names, [frozenset(k) for k in kills], relation


@given(kill_rings())
@settings(max_examples=60, deadline=None)
def test_basis_and_kill_test_match_brute_force(ring):
    names, kills, relation = ring
    relations = [relation] + [
        IntPolynomial.monomial(tuple((nm, 1) for nm in kill)) for kill in kills
    ]
    pres = GradedPresentation(names, relations)
    syms = sorted(names, key=symbol_key)
    for d in range(5):
        # every monomial of degree d, exponent vectors descending
        monos = [
            tuple((nm, e) for nm, e in zip(syms, exps) if e)
            for exps in sorted(
                itertools.product(range(d + 1), repeat=len(syms)), reverse=True
            )
            if sum(e * symbol_degree(nm) for nm, e in zip(syms, exps)) == d
        ]
        killed = [
            any(kill <= {nm for nm, _ in mono} for kill in kills) for mono in monos
        ]
        basis = [m for m, k in zip(monos, killed) if not k]
        assert [IntPolynomial({m: 1}) for m in pres.basis(d)] == [
            IntPolynomial.monomial(m) for m in basis
        ]
        # a monomial is killed exactly when it has no column
        for mono, k in zip(monos, killed):
            column = [] if k else [basis.index(mono), 1]
            assert pres.vector(IntPolynomial.monomial(mono), d) == column


MASK_SYMBOLS = ("l", "xi", "t{1,2}", "t{1,3}", "t{2,3}", "t{1,4}", "t{2,4}", "t{3,4}")


@st.composite
def masked_rings(draw):
    """Three to seven symbols, ``nu`` (of degree 2) among them, kills of one,
    two and three symbols, and homogeneous relations of degree 1 to 3."""
    names = ["nu"] + draw(
        st.lists(st.sampled_from(MASK_SYMBOLS), min_size=2, max_size=6, unique=True)
    )
    kills = draw(
        st.lists(
            st.lists(st.sampled_from(names), min_size=1, max_size=3, unique=True),
            max_size=6,
        )
    )
    relations = []
    for delta in draw(st.lists(st.integers(1, 3), max_size=3)):
        monos = [
            m
            for k in range(1, delta + 1)
            for m in itertools.combinations_with_replacement(names, k)
            if sum(symbol_degree(nm) for nm in m) == delta
        ]
        chosen = draw(st.lists(st.sampled_from(monos), min_size=2, max_size=4))
        relations.append(sum(
            (
                draw(st.sampled_from((1, -1, 2, -3)))
                * IntPolynomial.monomial(tuple((nm, 1) for nm in m))
                for m in chosen
            ),
            IntPolynomial.zero(),
        ))
    return names, [frozenset(k) for k in kills], relations


def exponent_vectors(degrees, d):
    """Every exponent vector of weighted degree ``d``, descending
    lexicographically."""
    if not degrees:
        if d == 0:
            yield ()
        return
    for e in range(d // degrees[0], -1, -1):
        for rest in exponent_vectors(degrees[1:], d - e * degrees[0]):
            yield (e, *rest)


@given(masked_rings())
@settings(max_examples=60, deadline=None)
def test_basis_equals_a_brute_force_filter_of_every_monomial(ring):
    # Pair kills prune by their partner masks, the others by a scan: either
    # way, the basis is every monomial without a kill, in canonical order
    names, kills, _ = ring
    pres = GradedPresentation(
        names, [IntPolynomial.monomial(tuple((nm, 1) for nm in k)) for k in kills]
    )
    syms = sorted(names, key=symbol_key)
    for d in range(6):
        monos = [
            tuple((nm, e) for nm, e in zip(syms, exps) if e)
            for exps in exponent_vectors([symbol_degree(nm) for nm in syms], d)
        ]
        kept = [m for m in monos if not any(k <= {nm for nm, _ in m} for k in kills)]
        assert [IntPolynomial({key: 1}) for key in pres.basis(d)] == [
            IntPolynomial.monomial(m) for m in kept
        ], d


# -- normal forms and equality ------------------------------------------------


def test_normal_form_idempotent_and_coset_stable():
    pres = GradedPresentation(sym("l", "xi"), (24 * L**2, L * X))
    f = 30 * L**2 + 5 * L * X + X**2
    nf = pres.normal_form(f)
    assert pres.normal_form(nf) == nf
    assert pres.reduces_to_zero(f - nf)
    # adding any relation multiple must not change the normal form
    assert pres.normal_form(f + 7 * (24 * L**2)) == nf
    assert nf == 6 * L**2 + X**2  # 30 mod 24; l*xi killed


def test_reduces_to_zero_on_relations():
    rels = (24 * L**2, L * X, 3 * L**3 - L**2 * X)
    pres = GradedPresentation(sym("l", "xi"), rels)
    for r in rels:
        assert pres.reduces_to_zero(r)
    assert pres.reduces_to_zero((L + X) * rels[2])
    assert not pres.reduces_to_zero(12 * L**2)
    assert pres.reduces_to_zero(IntPolynomial.zero())


def staircase_normal_form(pres, f):
    """The residue of ``f`` in the ring's own lattices, with no split."""
    return sum(
        (
            pres.from_vector(pres.lattice(d).residue(pres.vector(comp, d)), d)
            for d, comp in f.homogeneous_components().items()
        ),
        IntPolynomial.zero(),
    )


@pytest.mark.parametrize(
    "symbols,relations",
    [
        (sym("l", "xi"), (24 * L**2,)),
        (sym("l", "xi", "t{1,2}"), (24 * L**2, 6 * L * T12 - 4 * T12**2)),
    ],
)
def test_normal_form_splits_on_a_free_symbol_after_the_first(symbols, relations):
    # xi is free but l comes first, so the blocks of the powers of xi
    # interleave in column order; the residue still splits along them
    pres = GradedPresentation(symbols, relations)
    assert pres._free == "xi"
    rng = random.Random(f"{symbols}")
    for d in range(6):
        for _ in range(5):
            f = sum(
                (rng.randint(-60, 60) * IntPolynomial({m: 1})
                 for m in pres.basis(d)),
                IntPolynomial.zero(),
            )
            if d >= 2:
                f = f + rng.randint(-3, 3) * X ** (d - 2) * relations[0]
            expected = staircase_normal_form(pres, f)
            assert pres.normal_form(f) == expected
            assert pres.reduces_to_zero(f) == expected.is_zero()
            assert pres.reduces_to_zero(f - expected)


def test_inhomogeneous_input_handled_by_components():
    pres = GradedPresentation(sym("l"), (24 * L**2,))
    f = L + 24 * L**2  # mixed degrees
    assert pres.normal_form(f) == L
    assert not pres.reduces_to_zero(f)


# -- vectors ------------------------------------------------------------------


def test_vector_round_trip():
    pres = GradedPresentation(sym("l", "xi"), (L * X,))
    f = 3 * L**2 - 5 * X**2
    vec = pres.vector(f, 2)
    assert pres.from_vector(vec, 2) == f


def test_defining_relations_end_with_the_squarefree_unit_relations():
    # the kills follow the lattice relations, each as its monomial, in
    # input order
    rels = (-X * L, L**3, 3 * L * X, NU, L**2 * X)
    pres = GradedPresentation(sym("l", "nu", "xi"), rels)
    assert pres.relations == [L**3, 3 * L * X, L**2 * X]
    assert pres.defining_relations() == pres.relations + [L * X, NU]


def test_unit_monomials_with_repeated_factors_are_lattice_rows():
    # Z[l,xi]/(l^3, l^2*xi, 6*l*xi^2): no relation is a kill, and the unit
    # monomial rows change no rank, torsion or normal form
    rels = (L**3, L**2 * X, 6 * L * X**2)
    pres = GradedPresentation(sym("l", "xi"), rels)
    assert pres.relations == list(rels)
    assert pres.defining_relations() == list(rels)
    assert pres.hilbert_function(5) == [1, 2, 3, 1, 1, 1]
    for d in range(6):
        assert pres.smith_invariants(d).torsion == ((6,) if d >= 3 else ()), d
    f = L**3 + 7 * L * X**2 + L**2 * X**3
    assert pres.normal_form(f) == L * X**2


def test_vector_maps_a_non_canonical_monomial_to_its_column():
    # a monomial's key does not depend on the order of its symbols
    pres = GradedPresentation(sym("l", "xi"), (L**2,))
    assert pres.vector(IntPolynomial.monomial((("xi", 1), ("l", 1))), 2) == (
        pres.vector(L * X, 2)
    )
    assert pres.vector(IntPolynomial.monomial((("l", 1), ("l", 1))), 2) == (
        pres.vector(L**2, 2)
    )


@pytest.mark.parametrize(
    "build",
    [
        lambda: GradedPresentation(
            sym("l", "nu", "xi", "t{1,2}"), (L * T12, 2 * L * X - 3 * X**2)
        ),
        lambda: keel_presentation(range(1, 6)).presentation,
    ],
    ids=["hand-built", "keel5"],
)
def test_packed_column_index_is_injective(build):
    # every basis monomial has its own key, nu's included, whose degree
    # field reads 2 for one exponent
    pres = build()
    for d in range(9):
        for i, mono in enumerate(pres.basis(d)):
            assert pres.vector(IntPolynomial({mono: 1}), d) == [i, 1], (d, mono)


def test_vector_drops_killed_monomials():
    pres = GradedPresentation(sym("l", "xi"), (L * X,))
    assert pres.vector(7 * L * X, 2) == []


# -- invariant factors and Hilbert function -----------------------------------


def test_smith_invariants_weighted_projective_line():
    pres = GradedPresentation(sym("l"), (24 * L**2,))
    inv1 = pres.smith_invariants(1)
    assert inv1.rank == 1 and inv1.torsion == ()
    inv2 = pres.smith_invariants(2)
    assert inv2.rank == 0 and inv2.torsion == (24,)
    assert pres.hilbert_function(3) == [1, 1, 0, 0]


def test_hilbert_function_free_ring():
    pres = free_ring("l", "xi")
    assert pres.hilbert_function(3) == [1, 2, 3, 4]


def test_smith_invariants_mixed():
    # Z[l,xi]/(2*l, 6*xi) in degree 1: Z/2 + Z/6
    pres = GradedPresentation(sym("l", "xi"), (2 * L, 6 * X))
    inv = pres.smith_invariants(1)
    assert inv.rank == 0 and inv.torsion == (2, 6)


@pytest.mark.parametrize(
    "build, top",
    [
        (lambda: keel_presentation(range(1, 6)).presentation, 3),
        (lambda: qstable_presentation(4, dm_space(4)), 4),
    ],
    ids=["keel5", "dm4"],
)
def test_smith_invariants_of_staircase_match_raw_product_rows(build, top):
    # smith_invariants reads the staircase; the raw product rows span the
    # same lattice and must give the same rank and torsion
    pres = build()
    for d in range(top + 1):
        raw = smith_invariants_of_rows(criterion_rows(pres, d))
        inv = pres.smith_invariants(d)
        assert inv.rank == len(pres.basis(d)) - len(raw), d
        assert inv.torsion == tuple(x for x in raw if x > 1), d


# -- product rows -------------------------------------------------------------


def divides(a, b):
    """Whether the monomial of key ``a`` divides that of key ``b``,
    exponent by exponent."""
    [(mono_a, _)] = IntPolynomial({a: 1}).sorted_terms()
    [(mono_b, _)] = IntPolynomial({b: 1}).sorted_terms()
    exps = dict(mono_b)
    return all(exps.get(nm, 0) >= e for nm, e in mono_a)


def criterion_rows(pres, d):
    """The product rows with no record of redundant pairs below: those the
    product criterion keeps, in generation order."""
    return [row for _, row in pres._product_rows(d, {}, {})]


def reference_product_rows(pres, d, criterion=True):
    """The nonzero rows ``vector(mono * rel, d)`` by polynomial
    multiplication: relation degrees ascending, multipliers in basis order,
    relations in list order.  With ``criterion``, a row is left out when an
    earlier relation has leading coefficient 1 and its leading monomial
    divides the multiplier."""
    rels = [
        (delta, pres.basis(delta)[row[0]], row[1], pres.from_vector(row, delta))
        for delta in range(d + 1)
        for row in pres._reduced_relations(delta)
    ]
    rows = []
    for delta in range(d + 1):
        for mono in pres.basis(d - delta):
            for j, (rel_degree, _, _, rel) in enumerate(rels):
                if rel_degree != delta or criterion and any(
                    coeff == 1 and divides(lead, mono)
                    for _, lead, coeff, _ in rels[:j]
                ):
                    continue
                row = pres.vector(IntPolynomial({mono: 1}) * rel, d)
                if row:
                    rows.append(row)
    return rows


@st.composite
def presented_rings(draw):
    """One to five symbols (``nu`` has degree 2), squarefree kills and
    homogeneous relations; with ``free``, the last symbol drawn is in
    neither, so it is free."""
    names = draw(
        st.lists(st.sampled_from(KILL_SYMBOLS), min_size=1, max_size=5, unique=True)
    )
    free = draw(st.booleans()) and len(names) > 1
    bound = names[:-1] if free else names
    relations = [
        IntPolynomial.monomial(tuple((nm, 1) for nm in kill))
        for kill in draw(
            st.lists(
                st.lists(st.sampled_from(bound), min_size=1, max_size=3, unique=True),
                max_size=2,
            )
        )
    ]
    for delta in draw(st.lists(st.integers(1, 3), max_size=3)):
        monos = [
            m
            for k in range(1, delta + 1)
            for m in itertools.combinations_with_replacement(bound, k)
            if sum(symbol_degree(nm) for nm in m) == delta
        ]
        if not monos:
            continue
        chosen = draw(st.lists(st.sampled_from(monos), min_size=1, max_size=4))
        relations.append(sum(
            (
                draw(st.sampled_from((1, -1, 2, -3, 6)))
                * IntPolynomial.monomial(tuple((nm, 1) for nm in m))
                for m in chosen
            ),
            IntPolynomial.zero(),
        ))
    return GradedPresentation(names, relations)


def assert_rows_match_products(pres):
    for d in range(6):
        assert criterion_rows(pres, d) == reference_product_rows(pres, d), d


@given(presented_rings())
@settings(max_examples=80, deadline=None)
def test_packed_product_rows_equal_polynomial_products(pres):
    assert_rows_match_products(pres)


def test_packed_product_rows_at_the_edge_of_the_field_width():
    # In degree MAX_DEGREE, l^MAX_DEGREE fills l's field and field 0 up to
    # their spare top bits, which the product criterion's guard reads; one
    # degree more has no keys
    pres = GradedPresentation(sym("l", "xi"), (2 * L - 3 * X, 5 * L**2))
    assert_rows_match_products(pres)
    rows = criterion_rows(pres, MAX_DEGREE)
    assert rows == reference_product_rows(pres, MAX_DEGREE)
    assert pres.vector(5 * L**MAX_DEGREE, MAX_DEGREE) in rows
    with pytest.raises(ValueError, match=f"exceeds {MAX_DEGREE}"):
        pres.basis(MAX_DEGREE + 1)


def generation_loop_rows(pres, degree):
    """The product rows by the loop that looks up every term of every kept
    relation in the column index, without pair-kill masks: relation degrees
    ascending, multipliers in basis order, relations in list order."""
    index = pres._columns(degree)
    guard = pres._guard
    earlier = []  # lower degrees' unit leaders
    out = []
    for delta in range(pres._low, degree + 1):
        rows, basis = pres._reduced_relations(delta), pres.basis(delta)
        rel_terms = [[(basis[col], c) for col, c in zip(r[::2], r[1::2])] for r in rows]
        cuts = earlier + [
            (j + 1, terms[0][0]) for j, terms in enumerate(rel_terms) if terms[0][1] == 1
        ]
        earlier += [(0, lead) for _, lead in cuts[len(earlier):]]
        for key in pres.basis(degree - delta) if rows else ():
            probe = guard | key
            keep = next(
                (n for n, lead in cuts if probe - lead & guard == guard), len(rows)
            )
            for terms in rel_terms[:keep]:
                pairs = sorted(
                    (col, c) for k, c in terms if (col := index.get(key + k)) is not None
                )
                if pairs:
                    out.append([x for pair in pairs for x in pair])
    return out


@pytest.mark.parametrize(
    "build, top",
    [(lambda n=n: gorenstein_presentation(n), n) for n in range(1, 6)]
    + [
        (lambda: keel_presentation(range(1, 7)).presentation, 3),
        (lambda: qstable_presentation(5, dm_space(5)), 3),
    ],
    ids=[f"gorenstein{n}" for n in range(1, 6)] + ["keel6", "dm5"],
)
def test_pair_kill_masks_keep_the_product_rows_and_their_order(build, top):
    pres = build()
    for d in range(top + 1):
        assert criterion_rows(pres, d) == generation_loop_rows(pres, d), d


def masked_presentation(ring):
    names, kills, relations = ring
    return GradedPresentation(
        names,
        relations + [IntPolynomial.monomial(tuple((nm, 1) for nm in k)) for k in kills],
    )


@given(masked_rings().map(masked_presentation))
@settings(max_examples=60, deadline=None)
def test_pair_kill_masks_keep_the_product_rows_of_random_rings(pres):
    for d in range(6):
        assert criterion_rows(pres, d) == generation_loop_rows(pres, d), d


def staircase_shape(ech):
    return sorted((row[0], row[1]) for row in ech.rows)


@given(
    st.one_of(presented_rings(), masked_rings().map(masked_presentation)),
    st.permutations(range(6)),
)
# multipliers share slots with their relations' leaders: a signature that
# ORs their slot-packed keys instead of adding them is out of order, and the
# syzygy criterion then skips a row the lattice needs
@example(
    masked_presentation((
        ["nu", "t{1,2}", "l", "t{1,3}", "xi", "t{2,3}", "t{1,4}"],
        [],
        [IntPolynomial.parse(f) for f in ("xi + 2*t{1,2}", "l*xi + nu", "l*t{1,3} + nu")],
    )),
    list(range(6)),
)
@settings(max_examples=160, deadline=None)
def test_product_criterion_keeps_the_relation_lattice(pres, order):
    # The rows both criteria keep span the lattice of every product row, in
    # whatever order the degrees are asked for: same pivots and leading
    # coefficients, and each full product row reduces to zero.  The rings
    # have kills of one, two and three slots and leaders other than 1.
    for d in order:
        full = Echelon()
        rows = reference_product_rows(pres, d, criterion=False)
        for row in rows:
            full.insert(list(row))
        kept = pres.lattice(d)
        assert staircase_shape(kept) == staircase_shape(full), d
        assert not [row for row in rows if kept.residue(row)], d


def test_product_criterion_skips_only_unit_leading_relations():
    # 2*l leads with 2, so l * (l*xi + xi^2) stays a row; dropping it as if
    # 2 were a unit would add a third Z/2 in degree 3
    pres = GradedPresentation(sym("l", "xi"), (2 * L, X**2 + L * X))
    assert pres.smith_invariants(3).torsion == (2, 2)


def test_a_degree_keeps_its_record_of_redundant_pairs_until_the_next_is_built():
    # below the top degree of a degree map only; a missing record only
    # loses pruning
    fresh = [GradedPresentation(ambient_symbols(4), ambient_relations(4)) for _ in range(2)]
    fresh[0].lattice(3)
    assert sorted(fresh[0]._redundant) == [3]
    fresh[0]._redundant.clear()
    assert staircase_shape(fresh[0].lattice(4)) == staircase_shape(fresh[1].lattice(4))
    assert sorted(fresh[1]._redundant) == [4]
    keel = keel_presentation(range(1, 6)).presentation  # its degree map is in degree 3
    keel.lattice(2)
    assert keel._redundant == {}


def test_product_criterion_row_counts_on_the_six_marking_genus_zero_ring():
    # 6,501 and 26,206 product rows in degrees 3 and 4 without the criterion
    pres = keel_presentation(range(1, 7)).presentation
    counts = [len(criterion_rows(pres, d)) for d in (3, 4)]
    assert counts == [4586, 16106]


SHARED_REDUCTION = """
import sys
from ellchow.exactring import Echelon, GradedPresentation, IntPolynomial

inserted = 0
insert = Echelon.insert


def counting(self, row):
    global inserted
    inserted += 1
    return insert(self, row)


Echelon.insert = counting
P = IntPolynomial.parse


def ring(factor):
    # Z[l] tensor the factor
    return GradedPresentation.tensor_product([GradedPresentation(["l"], []), factor], "")


# t{2,3} times the first relation is a relation of degree 2: one of the two
# reduces to zero there, and the multiples of that pair are skipped in degree 3
factor = GradedPresentation(["t{1,2}", "t{1,3}", "t{2,3}"], [
    P("2*t{1,2} + 3*t{1,3}"), P("t{1,2}^2 - 5*t{1,3}^2"),
    P("2*t{1,2}*t{2,3} + 3*t{1,3}*t{2,3}")])
first, second = ring(factor), ring(factor.renamed(["d{1,2}", "d{1,3}", "d{2,3}"], ""))
queries = [
    (first, P("t{1,2}^2 + l*t{1,2}*t{2,3}")),
    (second, P("d{1,3}^3 + l^2*d{2,3}")),
    (first, P("t{1,2}^3 + t{2,3}^3")),
]
if sys.argv[1] == "second first":
    queries = queries[1:] + queries[:1]
forms = sorted(pres.normal_form(f).text() for pres, f in queries)
print(inserted, forms)
"""


def test_renamed_rings_insert_the_same_rows_in_either_order():
    # A renamed ring holds its source's reduced relations, staircases and
    # records of redundant pairs, and a degree is built after the one below,
    # so the row count does not depend on which of the two reaches them
    # first, nor on which degree is asked for first
    env = dict(os.environ, PYTHONDONTWRITEBYTECODE="1", PYTHONPATH=str(ROOT / "src"))
    outputs = {
        subprocess.run(
            [sys.executable, "-c", SHARED_REDUCTION, order],
            capture_output=True, text=True, env=env, cwd=ROOT, timeout=120, check=True,
        ).stdout
        for order in ("first first", "second first")
    }
    assert len(outputs) == 1, outputs


LATTICE_RACE = """
import random, sys, threading
from ellchow import gorenstein_presentation
from ellchow.exactring import flat_from_pairs

DEGREES = (2, 3, 4, 5)
ORDERS = [(2, 3, 4, 5), (5, 4, 3, 2), (3, 5, 2, 4), (4, 2, 5, 3), (5, 2, 3, 4), (3, 4, 5, 2)]
pres = gorenstein_presentation(5)  # fresh: no staircase, record or reduced relation yet


def work(order):
    for d in order:
        pres.lattice(d)
    out = []
    for d in DEGREES:
        ech, rng, width = pres.lattice(d), random.Random(d), len(pres.basis(d))
        probes = [flat_from_pairs((c, rng.randint(-6, 6)) for c in rng.sample(range(width), 8))
                  for _ in range(20)]
        out.append((sorted((row[0], row[1]) for row in ech.rows),
                    [ech.residue(probe) for probe in probes]))
    return out


if sys.argv[1] == "threads":
    sys.setswitchinterval(1e-6)
    results = [None] * len(ORDERS)
    threads = [threading.Thread(target=lambda i=i: results.__setitem__(i, work(ORDERS[i])))
               for i in range(len(ORDERS))]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join(timeout=240)
    assert not any(thread.is_alive() for thread in threads)
    assert all(r == results[0] for r in results)
    print(results[0])
else:
    print(work(DEGREES))
"""


def test_threads_building_degrees_in_different_orders_agree_with_a_serial_run():
    # Each build reads the record one degree down, if it is there yet, and
    # drops it once done: a race may cost pruning, never a pivot or residue
    env = dict(os.environ, PYTHONDONTWRITEBYTECODE="1", PYTHONPATH=str(ROOT / "src"))
    threaded, serial = (
        subprocess.run(
            [sys.executable, "-c", LATTICE_RACE, mode],
            capture_output=True, text=True, env=env, cwd=ROOT, timeout=300, check=True,
        ).stdout
        for mode in ("threads", "serial")
    )
    assert threaded == serial


# -- division in the quotient --------------------------------------------------


def test_divide_zero_numerator():
    # l is free, and the numerator 48*l*xi^2 is zero in the quotient
    pres = GradedPresentation(sym("l", "xi"), (24 * X**2,))
    assert pres.divide_in_quotient(48 * L * X**2, L).is_zero() is True


def test_divide_fast_path_exact():
    # xi is free of all relations: long division decides
    pres = GradedPresentation(sym("l", "xi"), (24 * L**2,))
    g = L * X**2 + 3 * X**3
    c = X
    h = pres.divide_in_quotient(g, c)
    assert pres.reduces_to_zero(c * h - g)


def test_divide_fast_path_monic_negative():
    pres = GradedPresentation(sym("l", "xi"), (24 * L**2,))
    c = -X - L
    g = (X + 2 * L) * c
    h = pres.divide_in_quotient(g, c)
    assert pres.reduces_to_zero(c * h - g)


def test_divide_without_free_unit_leading_symbol_is_out_of_contract():
    # l occurs in a relation and xi is not in the divisor: no symbol allows
    # long division, which is a contract error and not a finding that the
    # class is not divisible
    pres = GradedPresentation(sym("l", "xi"), (24 * L**2, 24 * L * X))
    with pytest.raises(PresentationError) as info:
        pres.divide_in_quotient(5 * L**2 * X, L)
    assert not isinstance(info.value, NotDivisibleError)


def test_divide_only_in_the_first_free_symbol():
    # l and xi are both free and l comes first; the divisor leads with 2 in
    # l and with 1 in xi, but division runs in l alone, so it is out of
    # contract even though long division in xi would find a quotient
    pres = free_ring("l", "xi")
    assert pres._free == "l"
    c = 2 * L + X
    with pytest.raises(PresentationError) as info:
        pres.divide_in_quotient(c * X, c)
    assert not isinstance(info.value, NotDivisibleError)


def test_divide_not_divisible():
    # xi is free with leading coefficient 1, and l^2 leaves a remainder
    pres = GradedPresentation(sym("l", "xi"), (24 * L**2,))
    with pytest.raises(
        NotDivisibleError, match=r"^remainder l\^2 does not vanish$"
    ):
        pres.divide_in_quotient(L**2, X + L)
    # the remainder is printed in normal form, one power of xi at a time
    rest = 25 * L * X + 30 * L**2
    assert pres.normal_form(rest).text() == "6*l^2 + 25*l*xi"
    with pytest.raises(
        NotDivisibleError, match=r"^remainder 6\*l\^2 \+ 25\*l\*xi does not vanish$"
    ):
        pres.divide_in_quotient(rest, X**2 + L * X)


def test_division_rings_share_staircases_only_up_to_order_preserving_renaming():
    # each ring below is a factor of Z[xi] tensor it; dividing by xi there
    # reduces in the factor.  Only the ring renamed from the base holds its
    # staircases, not even the equal ring built on its own.
    d12, d13, d23, d24 = (
        IntPolynomial.symbol(nm) for nm in ("d{1,2}", "d{1,3}", "d{2,3}", "d{2,4}")
    )

    def division_ring(ring):
        pres = GradedPresentation.tensor_product([free_ring("xi"), ring], "")
        assert pres.divide_in_quotient(X * ring.relations[0], X).is_zero()
        return ring

    base = division_ring(GradedPresentation(("d{1,2}", "d{1,3}"), (2 * d12,)))
    renamed = division_ring(base.renamed(("d{2,3}", "d{2,4}"), ""))
    alone = division_ring(GradedPresentation(("d{2,3}", "d{2,4}"), (2 * d23,)))
    other_coefficient = division_ring(GradedPresentation(("d{1,2}", "d{1,3}"), (3 * d12,)))
    other_index = division_ring(GradedPresentation(("d{1,2}", "d{1,3}"), (2 * d13,)))
    assert renamed.defining_relations() == alone.defining_relations() == [2 * d23]
    for d in range(4):
        assert renamed.lattice(d) is base.lattice(d)
        for ring in (alone, other_coefficient, other_index):
            assert ring.lattice(d) is not base.lattice(d)
    for ring in (renamed, alone):
        assert ring.normal_form(3 * d23 + d24).text() == "d{2,3} + d{2,4}"
    assert other_coefficient.normal_form(3 * d12 + d13).text() == "d{1,3}"


def test_renamed_refuses_a_change_of_symbol_order_or_degree():
    P = IntPolynomial.parse
    ring = GradedPresentation(("l", "d{1,2}", "d{1,3}"), (P("l*d{1,2} - 2*d{1,3}^2"),))
    for names in [
        ("l", "d{1,3}", "d{1,2}"),  # the divisors swap places
        ("t{1,2}", "d{1,2}", "d{1,3}"),  # l's image sorts after d{1,2}
        ("nu", "d{1,2}", "d{1,3}"),  # a degree changes
        ("l", "d{1,2}"),
        ("l", "d{1,2}", "d{1,2}"),
    ]:
        with pytest.raises(PresentationError, match="changes the symbol order or a degree"):
            ring.renamed(names, "")
    # the divisors keep their order and degree, and xi stays first
    renamed = ring.renamed(("xi", "t{1,2}", "d{1,3}"), "")
    assert renamed.relations == [P("xi*t{1,2} - 2*d{1,3}^2")]
    assert renamed.lattice(2) is ring.lattice(2)


D12, D13, D45, D46 = (
    IntPolynomial.symbol(nm) for nm in ("d{1,2}", "d{1,3}", "d{4,5}", "d{4,6}")
)


def test_a_factor_leading_with_more_than_one_is_reduced_last():
    # a leads with 2 at d12 in degree 1, c with 1 at d45.  Reducing a, then
    # c, turns d12*d45 + d12*d46 into 2*d12*d46, which (2*d12 + d13)*d46
    # reduces further: in either order the product reduces a last, and gets
    # its own staircase residue.
    a = GradedPresentation(["d{1,2}", "d{1,3}"], [2 * D12 + D13])
    c = GradedPresentation(["d{4,5}", "d{4,6}"], [D45 - D46])
    rng = random.Random(7)
    for factors in ([a, c], [c, a]):
        pres = GradedPresentation.tensor_product(factors, "")
        assert pres.normal_form(D12 * D45 + D12 * D46) == -D13 * D46
        for d in range(4):
            for _ in range(10):
                f = sum((rng.randint(-5, 5) * IntPolynomial({m: 1}) for m in pres.basis(d)),
                        IntPolynomial.zero())
                assert pres.normal_form(f) == staircase_normal_form(pres, f)


def test_two_factors_leading_with_more_than_one_are_refused():
    # d12*d46 is its own residue in each factor, but d45*(2*d12 + d13) -
    # d12*(2*d45 + d46) leads at it with 1 in the product: one factor at a
    # time cannot give the canonical residue, so the product refuses
    a = GradedPresentation(["d{1,2}", "d{1,3}"], [2 * D12 + D13], name="a")
    b = GradedPresentation(["d{4,5}", "d{4,6}"], [2 * D45 + D46], name="b")
    pres = GradedPresentation.tensor_product([a, b], "a*b")
    assert staircase_normal_form(pres, D12 * D46) != D12 * D46
    with pytest.raises(PresentationError, match=r"^a and b both lead with more than 1 in a\*b"):
        pres.normal_form(D12 * D46)
    # a polynomial within one factor is reduced there alone
    assert pres.normal_form(3 * D12) == staircase_normal_form(pres, 3 * D12) == D12 - D13


def test_divide_requires_homogeneous():
    pres = free_ring("l")
    with pytest.raises(PresentationError):
        pres.divide_in_quotient(L + L**2, L)
    # homogeneity is checked first, even for a numerator in the ideal
    pres = GradedPresentation(sym("l", "xi"), (24 * L**2,))
    assert pres.reduces_to_zero(24 * L**2 + 48 * L**3)
    with pytest.raises(PresentationError):
        pres.divide_in_quotient(24 * L**2 + 48 * L**3, X)


def test_divide_torsion_witness():
    # in Z[l, xi]/(2 xi), with l free: 2 l xi = l * (2 xi) reduces to zero,
    # so dividing it by l gives a quotient with l*h == 2 l xi in the ring;
    # h == 0 is a valid witness
    pres = GradedPresentation(sym("l", "xi"), (2 * X,))
    h = pres.divide_in_quotient(2 * L * X, L)
    assert h.is_zero()
    assert pres.reduces_to_zero(L * h - 2 * L * X)


def test_divide_random_products_round_trip():
    rng = random.Random(5)
    pres = GradedPresentation(sym("l", "xi"), (24 * L**2,))
    c = -X - L  # xi is free with top-degree coefficient -1
    for _ in range(20):
        h0 = sum(
            (
                rng.randint(-5, 5) * L**a * X ** (2 - a)
                for a in range(3)
            ),
            IntPolynomial.zero(),
        )
        # plus an element of the ideal, which the quotient must not see
        g = c * h0 + rng.randint(-3, 3) * 24 * L**2 * X
        h = pres.divide_in_quotient(g, c)
        assert pres.reduces_to_zero(c * h - g)
        assert h == pres.normal_form(h0)
        assert pres.normal_form(h) == h

