"""Stratum models: tail/singular restrictions, lifts, and excess classes."""

import random

import pytest
from hypothesis import given, settings, strategies as st

from ellchow import (
    GradedPresentation,
    IntPolynomial,
    NuRestrictionError,
    SetPartition,
    ctop_tail,
    ell_model,
    enumerate_partitions,
    lift_from_tail,
    restrict_to_tail,
    s_max,
    s_min,
    tail_model,
)
from ellchow.exactring import subset_name
from ellchow.strata import banana_partition


P = IntPolynomial.parse
SYM = IntPolynomial.symbol


def tau(*elems):
    return SYM(subset_name("t", tuple(elems)))


# -- model construction ---------------------------------------------------------


def test_banana_partition():
    assert banana_partition().blocks == ((1, 2, 3, 4), (5, 6))


def test_partition_must_match_marking_count():
    with pytest.raises(ValueError):
        tail_model(5, SetPartition.parse("1 2|3", 3))
    with pytest.raises(ValueError):
        ell_model(5, SetPartition.parse("1 2|3", 3))


def test_no_singular_model_over_the_open_stratum():
    with pytest.raises(ValueError):
        ell_model(4, s_max(4))


def test_tail_symbols():
    # two-marking blocks contribute no divisor generators
    small = tail_model(5, SetPartition.parse("1 2|3 4|5", 5))
    assert list(small.presentation.symbols) == ["l"]
    # a four-marking block contributes the full boundary system
    big = tail_model(5, SetPartition.parse("1 2 3 4|5", 5))
    assert len(big.presentation.symbols) == 1 + 10


def test_tail_hilbert_is_core_times_boundary():
    big = tail_model(5, SetPartition.parse("1 2 3 4|5", 5))
    # [1,1,1,...] convolved with [1,5,1]
    assert big.presentation.hilbert_function(4) == [1, 6, 7, 7, 7]


def test_ell_symbols():
    model = ell_model(5, SetPartition.parse("1 2 3|4 5", 5))
    assert list(model.presentation.symbols) == [
        "xi",
        subset_name("d", (1, 2)),
        subset_name("d", (1, 3)),
        subset_name("d", (2, 3)),
    ]


# -- generator images -------------------------------------------------------------


def test_tail_images():
    model = tail_model(5, SetPartition.parse("1 2 3|4 5", 5))
    assert model.image_of("l") == P("l")
    # a subset strictly inside a block becomes that block's divisor
    assert model.image_of("t{1,2}") == SYM("d{1,2}")
    # the whole block folds into the Hodge class and the divisors through
    # its two smallest markings
    assert model.image_of("t{1,2,3}") == -P("l") - SYM("d{1,2}")
    # a two-marking whole block has no interior divisors at all
    assert model.image_of("t{4,5}") == -P("l")
    # subsets meeting two blocks restrict to zero
    assert model.image_of("t{3,4}") == IntPolynomial.zero()
    assert model.image_of("t{1,2,3,4,5}") == IntPolynomial.zero()


def test_open_stratum_kills_all_boundary_divisors():
    f = P("l") + 3 * tau(1, 2) - tau(1, 2, 3)
    assert restrict_to_tail(3, s_max(3), f) == P("l")


def test_ell_images():
    model = ell_model(5, SetPartition.parse("1 2 3|4 5", 5))
    assert model.image_of("l") == -SYM("xi")
    assert model.image_of("t{1,2}") == SYM("d{1,2}")
    # whole blocks and straddling subsets vanish on the singular locus
    assert model.image_of("t{1,2,3}") == IntPolynomial.zero()
    assert model.image_of("t{4,5}") == IntPolynomial.zero()
    assert model.image_of("t{3,4}") == IntPolynomial.zero()


def test_nu_restriction_on_tails():
    banana = banana_partition()
    # on the stratum carrying the two-node curve, nu becomes its nodal class
    assert restrict_to_tail(6, banana, P("nu")) == P("12*l^2")
    # on the open stratum, nu survives as itself
    assert restrict_to_tail(6, s_max(6), P("nu")) == P("nu")
    # on strata not dominated by the two-node locus it dies
    assert restrict_to_tail(6, s_min(6), P("nu")) == IntPolynomial.zero()


def test_nu_needs_six_markings():
    from ellchow.exactring import PresentationError

    with pytest.raises(PresentationError):
        restrict_to_tail(4, s_min(4), P("nu"))


def test_nu_has_no_singular_model_image():
    with pytest.raises(NuRestrictionError):
        ell_model(6, s_min(6)).restrict(P("nu"))


# -- restriction is a ring map, lift is a section ---------------------------------


AMBIENT4 = [P("l"), tau(1, 2), tau(3, 4), tau(1, 2, 3), tau(1, 2, 3, 4)]


@st.composite
def ambient_polys(draw):
    total = IntPolynomial.zero()
    for _ in range(draw(st.integers(min_value=1, max_value=3))):
        c = draw(st.integers(min_value=-5, max_value=5))
        term = IntPolynomial.one() * c
        for _ in range(draw(st.integers(min_value=1, max_value=2))):
            term = term * draw(st.sampled_from(AMBIENT4))
        total = total + term
    return total


@given(ambient_polys(), ambient_polys())
@settings(max_examples=40, deadline=None)
def test_restriction_is_a_ring_homomorphism(f, g):
    # the elliptic model sends l to -xi and the whole block t{1,2,3} to zero
    part = SetPartition.parse("1 2 3|4", 4)
    for r in (tail_model(4, part).restrict, ell_model(4, part).restrict):
        assert r(f + g) == r(f) + r(g)
        assert r(f * g) == r(f) * r(g)


def test_restrict_after_lift_is_identity():
    part = SetPartition.parse("1 2 3 4|5", 5)
    model = tail_model(5, part)
    samples = [
        P("l"),
        SYM("d{1,2}"),
        P("3*l^2") - 2 * SYM("d{1,2,3}") * P("l"),
        SYM("d{1,4}") * SYM("d{1,4}") + 7 * SYM("d{2,3}"),
    ]
    for g in samples:
        assert restrict_to_tail(5, part, lift_from_tail(g)) == g


def test_restrict_after_lift_keeps_core_generators():
    top = s_max(6)
    g = P("nu") * P("l") - 4 * P("nu")
    assert restrict_to_tail(6, top, lift_from_tail(g)) == g


def test_lift_rejects_foreign_symbols():
    from ellchow.exactring import PresentationError

    with pytest.raises(PresentationError):
        lift_from_tail(SYM("x{1,2}"))


# -- excess classes ----------------------------------------------------------------


def test_ctop_undefined_on_open_stratum():
    # an error is not cached: every call raises
    for _ in range(2):
        with pytest.raises(ValueError):
            ctop_tail(4, s_max(4))


@pytest.mark.parametrize("n", range(2, 6))
def test_cached_ctop_is_the_product_of_whole_block_images(n):
    for part in enumerate_partitions(n):
        if not part.codim():
            continue
        model = tail_model(n, part)
        expected = IntPolynomial.one()
        for block in part.nonsingleton_blocks():
            expected = expected * model.image_of(subset_name("t", block))
        # a repeated call returns the cached class
        assert ctop_tail(n, part) == expected, part.text()
        assert ctop_tail(n, part) == expected, part.text()


def test_ctop_does_not_depend_on_how_the_partition_is_written():
    a = SetPartition.parse("1 2|3 4|5", 5)
    b = SetPartition.parse("5|4 3|2 1", 5)
    assert ctop_tail(5, a) == ctop_tail(5, b) == P("l^2")


# Every stratum that patching visits for n <= 6: all partitions but the
# all-singleton one.
PATCHED_STRATA = [
    (part.text(), n)
    for n in range(2, 7)
    for part in enumerate_partitions(n)
    if part.codim()
]


@pytest.mark.parametrize("text,n", PATCHED_STRATA)
def test_ctop_is_sign_monic_in_the_hodge_class(text, n):
    # Division in the quotient is long division in a free symbol with unit
    # leading coefficient; patching relies on l being that symbol.
    part = SetPartition.parse(text, n)
    k = part.codim()
    c = ctop_tail(n, part)
    assert c.degree() == k
    coeffs = c.coefficients_in("l")
    assert max(coeffs) == k
    assert coeffs[k] == IntPolynomial.one() * (-1) ** k
    pres = tail_model(n, part).presentation
    assert all("l" not in rel.symbols_used() for rel in pres.defining_relations())


DIVISION_STRATA = [(t, n) for t, n in PATCHED_STRATA if n <= 4] + [("1 2 3 4 5", 5)]


def staircase_normal_form(pres, f):
    """The residue of ``f`` in the ring's own lattices, with no split."""
    return sum(
        (
            pres.from_vector(pres.lattice(d).residue(pres.vector(comp, d)), d)
            for d, comp in f.homogeneous_components().items()
        ),
        IntPolynomial.zero(),
    )


@pytest.mark.parametrize("text,n", DIVISION_STRATA)
def test_division_ring_normal_form_matches_the_tail_model(text, n):
    # normal_form reduces each l-coefficient in the l-free ring; the result
    # must be the tail model's own staircase residue.  The inputs are sums
    # of l^i times random combinations of basis monomials and of multiples
    # of relations and kills.
    rng = random.Random(f"l-free {text}/{n}")
    pres = tail_model(n, SetPartition.parse(text, n)).presentation
    core = pres._x_free
    assert core.symbols == tuple(nm for nm in pres.symbols if nm != "l")
    rels = core.defining_relations()

    def l_free(d):
        f = sum(
            (rng.randint(-9, 9) * IntPolynomial.monomial(m) for m in core.basis(d)),
            IntPolynomial.zero(),
        )
        for rel in rng.sample(rels, min(3, len(rels))):
            multipliers = core.basis(d - rel.degree())
            if multipliers:
                f = f + rng.randint(-9, 9) * IntPolynomial.monomial(
                    rng.choice(multipliers)
                ) * rel
        return f

    for d in range(4):
        f = sum((SYM("l", i) * l_free(d - i) for i in range(1, d + 1)), l_free(d))
        expected = staircase_normal_form(pres, f)
        assert pres.normal_form(f) == expected
        assert pres.reduces_to_zero(f) == expected.is_zero()
        assert pres.reduces_to_zero(f - expected)


def test_relabelled_division_rings_share_staircases():
    # 1 2 3 4 -> 2 3 4 5 renames the one block in symbol order, so the two
    # l-free rings have the same basis positions and product rows, and the
    # second reads the staircases the first built
    rings = [
        tail_model(5, SetPartition.parse(text, 5)).presentation._x_free
        for text in ("1 2 3 4|5", "1|2 3 4 5")
    ]
    assert rings[0].symbols != rings[1].symbols
    # a ring built on its own has the basis the sharing ring enumerates
    alone = GradedPresentation(rings[1].symbols, rings[1].defining_relations())
    for d in range(5):
        assert rings[0].lattice(d) is rings[1].lattice(d)
        assert rings[1].basis(d) == alone.basis(d)


def test_division_rings_sharing_staircases_have_renamed_bases():
    # Rings that share staircases must enumerate the same basis positions:
    # the later ring's basis is the first one's, renamed in symbol order.
    first = {}
    shared = 0
    for n in range(2, 6):
        for part in enumerate_partitions(n):
            ring = tail_model(n, part).presentation._x_free
            other = first.setdefault(id(ring._lattice_cache), ring)
            if other is ring:
                continue
            shared += 1
            rename = dict(zip(other.symbols, ring.symbols))
            assert len(rename) == len(ring.symbols)
            for d in range(4):
                assert ring.basis(d) == [
                    tuple((rename[nm], e) for nm, e in mono)
                    for mono in other.basis(d)
                ], (part.text(), d)
    assert shared > 0


def test_division_rings_up_to_six_markings_share_eight_staircase_classes():
    # The l-free rings of the tail models, up to the six-marking all-singleton
    # one, fall into 8 classes of rings equal up to an order-preserving
    # renaming of symbols.  A signature that shares too little gives more
    # classes, one that merges unequal rings fewer.
    staircases = set()
    counts = []
    for n in range(1, 7):
        for part in enumerate_partitions(n):
            if (n, part) != (6, s_max(6)):
                ring = tail_model(n, part).presentation._x_free
                staircases.add(id(ring._lattice_cache))
        counts.append(len(staircases))
    assert counts == [1, 1, 2, 3, 4, 8]


@pytest.mark.parametrize("text,n", DIVISION_STRATA)
def test_division_by_ctop_returns_the_reduced_quotient(text, n):
    # g = h0*ctop + (basis monomial)*(relation).  ctop is +1 or -1 times a
    # monic polynomial in the free l, so it is a non-zero-divisor and the
    # quotient is exactly the normal form of h0.
    rng = random.Random(f"{text}/{n}")
    part = SetPartition.parse(text, n)
    pres = tail_model(n, part).presentation
    c = ctop_tail(n, part)
    h0 = sum(
        (rng.randint(-9, 9) * IntPolynomial.monomial(m) for m in pres.basis(2)),
        IntPolynomial.zero(),
    )
    g = h0 * c
    rels = pres.defining_relations()
    if rels:
        rel = rng.choice(rels)
        g = g + IntPolynomial.monomial(
            rng.choice(pres.basis(2 + c.degree() - rel.degree()))
        ) * rel
    h = pres.divide_in_quotient(g, c)
    assert h == pres.normal_form(h0)
    assert pres.normal_form(h) == h


def test_ctop_factors():
    part = SetPartition.parse("1 2|3 4|5 6", 6)
    assert ctop_tail(6, part) == P("-l") * P("-l") * P("-l")
    single = SetPartition.parse("1 2 3|4", 4)
    assert ctop_tail(4, single) == -P("l") - SYM("d{1,2}")
