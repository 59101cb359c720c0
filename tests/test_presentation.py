"""Graded quotient presentations over Z: bases, normal forms, invariant
factors, and exact division in the quotient."""

import itertools
import os
import random
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from ellchow import (
    GradedPresentation,
    IntPolynomial,
    NotDivisibleError,
    PresentationError,
    dm_space,
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
    # foreign symbol as vector does
    d12, d13 = IntPolynomial.symbol("d{1,2}"), IntPolynomial.symbol("d{1,3}")
    pres = GradedPresentation(["d{1,2}", "d{1,3}"], [d12 - d13],
                              degree_map=(d13, lambda mono: 1))
    assert pres.normal_form(3 * d12 - d13) == 2 * d13
    with pytest.raises(PresentationError, match=r"^unknown symbol 'xi'$"):
        pres.normal_form(d12 + X)


def test_a_degree_map_must_be_one_on_its_top_monomial():
    d12, d13 = IntPolynomial.symbol("d{1,2}"), IntPolynomial.symbol("d{1,3}")
    pres = GradedPresentation(["d{1,2}", "d{1,3}"], [d12 - d13],
                              degree_map=(d13, lambda mono: 2))
    assert pres.normal_form(d12 * d13) == d13**2  # other degrees: staircases
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
        raw = smith_invariants_of_rows(pres._product_rows(d))
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
        assert list(pres._product_rows(d)) == reference_product_rows(pres, d), d


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
    rows = list(pres._product_rows(MAX_DEGREE))
    assert rows == reference_product_rows(pres, MAX_DEGREE)
    assert pres.vector(5 * L**MAX_DEGREE, MAX_DEGREE) in rows
    with pytest.raises(ValueError, match=f"exceeds {MAX_DEGREE}"):
        pres.basis(MAX_DEGREE + 1)


def staircase_shape(ech):
    return sorted((row[0], row[1]) for row in ech.rows)


@given(presented_rings())
@settings(max_examples=80, deadline=None)
def test_product_criterion_keeps_the_relation_lattice(pres):
    # The kept rows span the lattice of every product row: same pivots and
    # leading coefficients, and each full product row reduces to zero
    for d in range(6):
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


def test_product_criterion_row_counts_on_the_six_marking_genus_zero_ring():
    # 6,501 and 26,206 product rows in degrees 3 and 4 without the criterion
    pres = keel_presentation(range(1, 7)).presentation
    counts = [sum(1 for _ in pres._product_rows(d)) for d in (3, 4)]
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


def ring(a, b):
    # l is free, and the l-free rings are equal up to renaming
    return GradedPresentation(["l", a, b], [P(f"2*{a} + 3*{b}"), P(f"{a}^2 - 5*{b}^2")])


first, second = ring("t{1,2}", "t{1,3}"), ring("d{1,2}", "d{1,3}")
queries = [
    (first, P("t{1,2}^2 + l*t{1,2}*t{1,3}")),
    (first, P("t{1,2}^3")),
    (second, P("d{1,3}^3 + l^2*d{1,2}")),
]
if sys.argv[1] == "second first":
    queries = queries[2:] + queries[:2]
forms = sorted(pres.normal_form(f).text() for pres, f in queries)
print(inserted, forms)
"""


def test_renamed_rings_insert_the_same_rows_in_either_order():
    # The second ring to reach a shared staircase reuses the first one's
    # reduced relations as well, so the row count does not depend on the
    # order in which the rings are built
    env = dict(os.environ, PYTHONDONTWRITEBYTECODE="1", PYTHONPATH=str(ROOT / "src"))
    outputs = {
        subprocess.run(
            [sys.executable, "-c", SHARED_REDUCTION, order],
            capture_output=True, text=True, env=env, cwd=ROOT, timeout=120, check=True,
        ).stdout
        for order in ("first first", "second first")
    }
    assert len(outputs) == 1, outputs


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
    # xi is free in each ring below; dividing by xi builds the xi-free ring
    d12, d13, d23, d24 = (
        IntPolynomial.symbol(nm) for nm in ("d{1,2}", "d{1,3}", "d{2,3}", "d{2,4}")
    )

    def division_ring(symbols, relation):
        pres = GradedPresentation(("xi",) + symbols, (relation,))
        assert pres.divide_in_quotient(X * relation, X).is_zero()
        return pres._x_free

    base = division_ring(("d{1,2}", "d{1,3}"), 2 * d12)
    renamed = division_ring(("d{2,3}", "d{2,4}"), 2 * d23)
    other_coefficient = division_ring(("d{1,2}", "d{1,3}"), 3 * d12)
    other_index = division_ring(("d{1,2}", "d{1,3}"), 2 * d13)
    for d in range(4):
        assert renamed.lattice(d) is base.lattice(d)
        assert other_coefficient.lattice(d) is not base.lattice(d)
        assert other_index.lattice(d) is not base.lattice(d)
    assert renamed.normal_form(3 * d23 + d24).text() == "d{2,3} + d{2,4}"
    assert other_coefficient.normal_form(3 * d12 + d13).text() == "d{1,3}"


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

