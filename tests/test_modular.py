"""Compactification presentations, torsion, and the four-marking identity."""

import pytest

from ellchow import (
    IntPolynomial,
    dm_space,
    getzler_check,
    lp_minimal,
    qstable_presentation,
    smyth,
    torsion_report,
)
from ellchow.modular import qspec_label
from ellchow.patch import ambient_symbols, tau


P = IntPolynomial.parse


# -- labels and validation --------------------------------------------------------


def test_qspec_labels():
    assert qspec_label(dm_space(3)) == "dm"
    assert qspec_label(lp_minimal(3)) == "lp"
    assert qspec_label(smyth(4, 2)) == "smyth:2"
    # smyth with every length allowed coincides with the minimal space
    assert qspec_label(smyth(4, 3)) == "lp"


def test_marking_count_mismatch():
    with pytest.raises(ValueError):
        qstable_presentation(3, dm_space(4))


# -- stable spaces ------------------------------------------------------------------


def test_one_marking_stable_space():
    qp = qstable_presentation(1, dm_space(1))
    assert list(qp.symbols) == ["l"]
    assert qp.hilbert_function(2) == [1, 1, 0]
    inv = torsion_report(qp, 2)
    assert inv.rank == 0
    assert inv.torsion == (24,)
    # twenty-four times the Hodge square dies, twelve times does not
    assert qp.reduces_to_zero(P("24*l^2"))
    assert not qp.reduces_to_zero(P("12*l^2"))


def test_two_marking_stable_space():
    qp = qstable_presentation(2, dm_space(2))
    assert set(ambient_symbols(2)) == set(qp.symbols)
    assert qp.hilbert_function(2) == [1, 2, 1]
    inv = torsion_report(qp, 2)
    assert inv.rank == 1
    assert inv.torsion == (24,)


@pytest.mark.parametrize("n", [2, 3])
def test_smyth_spaces_are_torsion_free_in_degree_two(n):
    for m in range(1, n):
        qp = qstable_presentation(n, smyth(n, m))
        assert torsion_report(qp, 2).torsion == (), (n, m)


def test_smallest_smyth_space_on_four_markings():
    qp = qstable_presentation(4, smyth(4, 3))
    assert torsion_report(qp, 2).torsion == ()


# -- minimal compactifications -------------------------------------------------------


@pytest.mark.parametrize(
    "n,ranks",
    [
        (2, [1, 1, 1, 0]),
        (3, [1, 1, 1, 1, 0]),
        (4, [1, 1, 1, 1, 1, 0]),
        (5, [1, 1, 1, 1, 1, 1, 0]),
        (6, [1, 1, 2, 2, 2, 1, 1, 0]),
    ],
)
def test_minimal_space_ranks(n, ranks):
    qp = qstable_presentation(n, lp_minimal(n))
    assert qp.hilbert_function(n + 1) == ranks


def test_minimal_space_deletes_every_divisor():
    qp = qstable_presentation(4, lp_minimal(4))
    assert list(qp.symbols) == ["l"]
    assert len(set(ambient_symbols(4)) - set(qp.symbols)) == 2**4 - 4 - 1


def test_six_marking_minimal_space_keeps_both_core_generators():
    qp = qstable_presentation(6, lp_minimal(6))
    assert list(qp.symbols) == ["l", "nu"]
    assert torsion_report(qp, 2).rank == 2


# -- deletions and collision kills -----------------------------------------------------


def test_smyth_deletions():
    qp = qstable_presentation(4, smyth(4, 1))
    assert set(ambient_symbols(4)) - set(qp.symbols) == {"t{1,2,3,4}"}
    wide = qstable_presentation(4, smyth(4, 2))
    assert set(ambient_symbols(4)) - set(wide.symbols) == {
        "t{1,2,3}", "t{1,2,4}", "t{1,3,4}", "t{2,3,4}", "t{1,2,3,4}"
    }


def test_disjoint_collision_kills():
    # two disjoint pairs jointly form an allowed two-block collision, so
    # their product vanishes in the two-stable space
    qp = qstable_presentation(4, smyth(4, 2))
    assert qp.reduces_to_zero(tau((1, 2)) * tau((3, 4)))
    # in the stable space the product survives
    dm = qstable_presentation(4, dm_space(4))
    assert not dm.reduces_to_zero(tau((1, 2)) * tau((3, 4)))


def test_removed_singular_classes_vanish():
    from ellchow import ell_class, s_min

    # the one-block cusp locus is removed from the stable space, so its
    # class is a relation there
    qp = qstable_presentation(3, dm_space(3))
    assert qp.reduces_to_zero(ell_class(3, s_min(3)))


# -- palindromy -------------------------------------------------------------------------


@pytest.mark.parametrize("n", [1, 2, 3])
def test_rank_lists_are_palindromic(n):
    spaces = [dm_space(n)] + [smyth(n, m) for m in range(1, n)]
    for q in spaces:
        ranks = qstable_presentation(n, q).hilbert_function(n)
        assert ranks == ranks[::-1], qspec_label(q)


@pytest.mark.extended
def test_five_marking_duality_and_degree_two_torsion():
    dm = qstable_presentation(5, dm_space(5))
    assert dm.hilbert_function(5) == [1, 27, 102, 102, 27, 1]
    assert torsion_report(dm, 2).torsion == (24,)
    for m in range(1, 5):
        qp = qstable_presentation(5, smyth(5, m))
        ranks = qp.hilbert_function(5)
        assert ranks == ranks[::-1], (m, ranks)
        assert torsion_report(qp, 2).torsion == (), m


# -- the four-marking cycle identity -----------------------------------------------------


def test_getzler_report():
    report = getzler_check()
    # the variant ending in -2*t2*t4 fails; -1 is the coefficient that works
    assert report.display_identity is False
    assert report.corrected_identity is True
    assert report.ell_identity is True
    assert report.spot_values == {
        "all-singleton": True,
        "one-pair": True,
        "pair-of-pairs": True,
        "one-triple": True,
        "one-block": True,
    }
    assert report.conditional is None
    assert report.passed is True


def test_getzler_conditional_checks():
    # when the opaque degree-one cycle restricts to twelve times the Hodge
    # class on every stratum, the full combination collapses as predicted
    lam = IntPolynomial.symbol("l")
    report = getzler_check(delta=lambda p: 12 * lam)
    assert report.conditional == {"cycle-hodge": True, "cycle-ell": True}
    assert report.passed is True
