"""Compactification presentations, torsion, and the four-marking identity."""

import hashlib
import io
from collections import Counter

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
from ellchow.cli import run
from ellchow.corering import core_relation_seeds
from ellchow.modular import qspec_label
from ellchow.partitions import QSpec, enumerate_partitions, refines, s_max
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


# `present` on every named space: JSON for n <= 5, text for n = 6.
_PRESENTED = {
    (1, "dm"): "846f86ec0fd110164a9297f71eea13fd20a72325c462177169e0b9f82ae5161a",
    (1, "lp"): "846f86ec0fd110164a9297f71eea13fd20a72325c462177169e0b9f82ae5161a",
    (2, "dm"): "168940f32c2e0def0ea9058cff8f05b868cfd6fceb7079005c7a7898a54fccae",
    (2, "lp"): "4116d97d5e454d0901013131d8e68aafb7f0eb882ac784dbb3a8d3531561137d",
    (2, "smyth:1"): "4116d97d5e454d0901013131d8e68aafb7f0eb882ac784dbb3a8d3531561137d",
    (3, "dm"): "c3a445697875481630370ebc764a48f2426f36ecf52a40a95169532740a23f7c",
    (3, "lp"): "87a48aa38030801497067b9cc8686741f2da37d90d40cdb1105985ec4fe0dd5a",
    (3, "smyth:1"): "3387f9f68cf0bcf67c3ac1d5622eee400e0b293ef3ca3b154968fdd7a5bb86c4",
    (3, "smyth:2"): "87a48aa38030801497067b9cc8686741f2da37d90d40cdb1105985ec4fe0dd5a",
    (4, "dm"): "db0e0e236d33c6e3b48375868a716529b6d5626fbf716b44d1d16bdd559e4962",
    (4, "lp"): "1bb3e0c05220b4bfba4f6c2590d2176ce7a416eb6a3f4986db3b1c717fc107a0",
    (4, "smyth:1"): "2afd8bc7646278a2cde3581fdd4e2b6323f69cc2ade018ecac261e0d8c7d37b7",
    (4, "smyth:2"): "8e7aaf1c6da456b9f45e6397a1e624615c2169f1c64dfcbc58bc7e5cb9b3ffcf",
    (4, "smyth:3"): "1bb3e0c05220b4bfba4f6c2590d2176ce7a416eb6a3f4986db3b1c717fc107a0",
    (5, "dm"): "9ea88f43d63cf292b83af7424899d4bdff0836a8bcece99794eada2bebb05db9",
    (5, "lp"): "8fcccb0c89edac3e86d2a74b8b828507d3c4a38ad49af984725b622ee6b8ada8",
    (5, "smyth:1"): "8eed164558024d6532117ef1f242630254652cf37ffafb3b383f362730a7c05d",
    (5, "smyth:2"): "0678b068f73e66f382d8ec56522bbf7e04a530fa65fb2f72e4028077c3333aae",
    (5, "smyth:3"): "41719975ef7d31ce266e2e66f9382462416a0e41168e2ec2c7cbb0fc19e12e8b",
    (5, "smyth:4"): "8fcccb0c89edac3e86d2a74b8b828507d3c4a38ad49af984725b622ee6b8ada8",
    (6, "lp"): "dbe4de250d0b3b44670eb0ca7c91b805ef9a8db9e501bd970d6194712c9366c8",
    (6, "smyth:5"): "dbe4de250d0b3b44670eb0ca7c91b805ef9a8db9e501bd970d6194712c9366c8",
}


def test_every_named_space_presents_as_pinned():
    for (n, space), digest in _PRESENTED.items():
        argv = ["present", "--n", str(n), "--space", space]
        out = io.StringIO()
        assert run(argv + ["--format", "json"] * (n < 6), out=out) == 0, argv
        assert hashlib.sha256(out.getvalue().encode()).hexdigest() == digest, argv
    # both six-marking spaces contract every divisor: the core ring is left
    for q in (lp_minimal(6), smyth(6, 5)):
        relations = qstable_presentation(6, q).defining_relations()
        assert relations == list(core_relation_seeds())


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


def coarsening_closed_specs(n):
    """Every set of partitions short of the all-singleton one that is
    closed under coarsening: a partition joins only after every partition
    coarser than it, and coarser partitions have fewer blocks, so they come
    first in ``enumerate_partitions``."""
    parts = [p for p in enumerate_partitions(n) if p != s_max(n)]

    def grow(i, chosen):
        if i == len(parts):
            yield QSpec(n, chosen)
            return
        yield from grow(i + 1, chosen)
        if all(t in chosen for t in parts[:i] if refines(t, parts[i])):
            yield from grow(i + 1, chosen | {parts[i]})

    return list(grow(0, frozenset()))


def test_census_of_every_four_marking_compactification():
    # Every Bozlee-Kuo-Neff specification on four markings: palindromic
    # ranks through degree 4, and degree-2 torsion only on the stable space
    specs = coarsening_closed_specs(4)
    assert len(specs) == 346
    table = Counter()
    for q in specs:
        pres = qstable_presentation(4, q)
        ranks = tuple(pres.hilbert_function(4))
        assert ranks == ranks[::-1], (sorted(p.text() for p in q.allowed), ranks)
        assert torsion_report(pres, 2).torsion == ((24,) if q == dm_space(4) else ())
        table[ranks] += 1
    # listed from the stable space's ranks down to the minimal space's
    assert table == {
        (1, 12, 23, 12, 1): 1, (1, 11, 18, 11, 1): 1, (1, 11, 17, 11, 1): 3,
        (1, 11, 16, 11, 1): 3, (1, 11, 15, 11, 1): 1, (1, 10, 16, 10, 1): 4,
        (1, 10, 15, 10, 1): 12, (1, 10, 14, 10, 1): 12, (1, 10, 13, 10, 1): 4,
        (1, 9, 14, 9, 1): 6, (1, 9, 13, 9, 1): 18, (1, 9, 12, 9, 1): 18,
        (1, 9, 11, 9, 1): 6, (1, 8, 12, 8, 1): 10, (1, 8, 11, 8, 1): 24,
        (1, 8, 10, 8, 1): 18, (1, 8, 9, 8, 1): 4, (1, 7, 10, 7, 1): 13,
        (1, 7, 9, 7, 1): 27, (1, 7, 8, 7, 1): 15, (1, 7, 7, 7, 1): 1,
        (1, 6, 8, 6, 1): 18, (1, 6, 7, 6, 1): 24, (1, 6, 6, 6, 1): 6,
        (1, 5, 7, 5, 1): 3, (1, 5, 6, 5, 1): 22, (1, 5, 5, 5, 1): 15,
        (1, 4, 5, 4, 1): 12, (1, 4, 4, 4, 1): 20, (1, 3, 4, 3, 1): 3,
        (1, 3, 3, 3, 1): 15, (1, 2, 2, 2, 1): 6, (1, 1, 1, 1, 1): 1,
    }


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
