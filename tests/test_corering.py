"""Core rings, Schubert coordinates, and the singular-locus class table."""

import pytest

from ellchow import (
    ClassTableError,
    IntPolynomial,
    min_class,
    min_presentation,
    schubert_to_ln,
)
from ellchow.corering import core_relation_seeds


P = IntPolynomial.parse


# -- presentations ------------------------------------------------------------


def test_marking_count_bounds():
    for bad in (0, 7, -1):
        with pytest.raises(ValueError):
            min_presentation(bad)


@pytest.mark.parametrize("m", [1, 2, 3, 4, 5])
def test_small_core_rings_are_free_on_the_hodge_class(m):
    ring = min_presentation(m)
    assert list(ring.symbols) == ["l"]
    assert ring.hilbert_function(6) == [1] * 7


def test_six_marking_core_ring():
    ring = min_presentation(6)
    assert set(ring.symbols) == {"l", "nu"}
    assert ring.hilbert_function(8) == [1, 1, 2, 2, 2, 1, 1, 0, 0]
    # the ring is cut out by exactly the two seed relations
    b, c = core_relation_seeds()
    assert ring.reduces_to_zero(b)
    assert ring.reduces_to_zero(c)
    assert b.degree() == 4 and c.degree() == 5


def test_seed_relations_are_what_they_say():
    b, c = core_relation_seeds()
    assert b == P("l^4 - l^2*nu - nu^2")
    assert c == P("l^5 - 3*l^3*nu + 2*l*nu^2")


# -- Schubert coordinates -------------------------------------------------------


def test_single_schubert_classes():
    assert schubert_to_ln(0) == IntPolynomial.one()
    assert schubert_to_ln(1) == P("l")
    assert schubert_to_ln(2) == P("nu")
    assert schubert_to_ln(3) == P("2*l*nu - l^3")


def test_two_row_schubert_classes():
    assert schubert_to_ln(1, 1) == P("l^2 - nu")
    assert schubert_to_ln(2, 1) == P("l^3 - l*nu")
    assert schubert_to_ln(3, 3) == P("nu^3")


def test_schubert_index_validation():
    for a1, a2 in [(4, 0), (1, 2), (2, -1), (-1, 0)]:
        with pytest.raises(ValueError):
            schubert_to_ln(a1, a2)


def test_pieri_style_identity_is_exact():
    # sigma_1^3 - 2*sigma_{2,1} = sigma_3 holds on the nose, not just
    # modulo relations: all terms live below the first relation degree.
    s1, s21, s3 = schubert_to_ln(1), schubert_to_ln(2, 1), schubert_to_ln(3)
    assert s1 * s1 * s1 - 2 * s21 == s3


def test_schubert_degrees():
    for a1 in range(4):
        for a2 in range(a1 + 1):
            cls = schubert_to_ln(a1, a2)
            if cls != IntPolynomial.zero():
                assert cls.degree() == a1 + a2


def test_top_schubert_class_squares_to_zero():
    ring = min_presentation(6)
    s33 = schubert_to_ln(3, 3)
    assert ring.reduces_to_zero(s33 * P("l"))  # degree 7 vanishes


# -- class table ----------------------------------------------------------------


NOD_SHAPES = {
    2: [(1, 1)],
    3: [(2, 1), (1, 1, 1)],
    4: [(3, 1), (2, 2), (2, 1, 1), (1, 1, 1, 1)],
    5: [(4, 1), (3, 2), (3, 1, 1), (2, 2, 1), (2, 1, 1, 1)],
    6: [(4, 2), (3, 3), (2, 2, 2), (3, 2, 1)],
}


def test_one_branch_cusp_classes():
    for m in range(1, 7):
        assert min_class("ell", m, (m,)) == P("24*l^2")


def test_spot_values():
    assert min_class("ell", 2, (1, 1)) == P("24*l^3")
    assert min_class("nod", 2, (1, 1)) == P("12*l^2")
    assert min_class("ell", 4, (2, 2)) == P("4*l^3")
    assert min_class("nod", 5, (3, 2)) == P("l^2")
    assert min_class("ell", 6, (5, 1)) == P("6*l^3 - 2*l*nu")
    assert min_class("nod", 6, (4, 2)) == P("nu")


def test_shape_argument_is_order_insensitive():
    assert min_class("nod", 3, (1, 2)) == min_class("nod", 3, (2, 1))


def test_kind_validation():
    with pytest.raises(ValueError):
        min_class("cusp", 2, (1, 1))


def test_absent_entries_raise():
    absent = [
        ("ell", 6, (1, 1, 1, 1, 1, 1)),  # deepest six-marking locus
        ("nod", 1, (1,)),  # no one-marking nodal locus
        ("nod", 4, (4,)),  # single-branch shapes are cuspidal, not nodal
        ("nod", 5, (1, 1, 1, 1, 1)),
        ("nod", 6, (5, 1)),
        ("nod", 6, (2, 2, 1, 1)),
        ("ell", 3, (2, 2)),  # shape does not sum to the marking count
    ]
    for kind, m, shape in absent:
        with pytest.raises(ClassTableError):
            min_class(kind, m, shape)


def test_cusp_is_hodge_multiple_of_node():
    """Each cuspidal-locus class is l (or 2l, for two branches) times the
    nodal one; over six markings the identity holds as a class."""
    for m, shapes in NOD_SHAPES.items():
        ring = min_presentation(m)
        for shape in shapes:
            nod = min_class("nod", m, shape)
            ell = min_class("ell", m, shape)
            factor = 2 if len(shape) == 2 else 1
            assert ring.reduces_to_zero(ell - factor * P("l") * nod), (m, shape)


def test_six_marking_nodal_classes_in_schubert_coordinates():
    ring = min_presentation(6)
    table = {
        ("nod", (4, 2)): schubert_to_ln(2),
        ("nod", (3, 3)): schubert_to_ln(1, 1),
        ("nod", (2, 2, 2)): schubert_to_ln(3),
        ("nod", (3, 2, 1)): schubert_to_ln(2, 1),
        ("ell", (2, 2, 1, 1)): schubert_to_ln(3, 2),
        ("ell", (2, 1, 1, 1, 1)): schubert_to_ln(3, 3),
    }
    for (kind, shape), sigma in table.items():
        assert ring.reduces_to_zero(min_class(kind, 6, shape) - sigma), (kind, shape)


def test_square_of_degree_three_schubert_class():
    ring = min_presentation(6)
    s3 = schubert_to_ln(3)
    assert ring.reduces_to_zero(s3 * s3 - P("l^2*nu^2 - nu^3"))


def test_class_degrees_match_branch_count():
    """A nodal class with k branches lives in degree k; the cuspidal one
    sits one degree higher (and is absent once that exceeds the ring's
    top degree, which is why the all-singleton six-marking entry is gone)."""
    for m, shapes in NOD_SHAPES.items():
        for shape in shapes:
            k = len(shape)
            assert min_class("nod", m, shape).degree() == k, (m, shape)
            assert min_class("ell", m, shape).degree() == k + 1, (m, shape)
    for m in range(1, 7):
        assert min_class("ell", m, (m,)).degree() == 2
