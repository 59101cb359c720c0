"""Ambient presentation, stratification patching, and fundamental classes."""

import hashlib
import os
import random
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from ellchow import (
    IntPolynomial,
    SetPartition,
    ell_class,
    enumerate_partitions,
    fundamental_class,
    gorenstein_presentation,
    lift_relation,
    nod_class,
    restriction_offenders,
    restricts_to_zero_everywhere,
    s_max,
    s_min,
)
from ellchow.corering import (
    ClassTableError,
    core_relation_seeds,
    min_presentation,
    stratum_value,
)
from ellchow.exactring import Echelon, flat_from_pairs
from ellchow.keel import keel_presentation
from ellchow.patch import (
    LAMBDA,
    ambient_symbols,
    _patch,
    expected_class,
    fundamental_classes,
    matching_permutation,
    permute_marks,
    relation_families,
    singular_target,
    six_marking_extras,
    tau,
    tau_monomial,
)
from ellchow.strata import ell_model, tail_model


ROOT = Path(__file__).resolve().parent.parent
P = IntPolynomial.parse
LAM = IntPolynomial.symbol("l")


# -- ambient generators -----------------------------------------------------------


def test_tau_needs_two_markings():
    with pytest.raises(ValueError):
        tau((3,))
    assert tau((2, 1)).text() == "t{1,2}"


def test_tau_monomial():
    assert tau_monomial(s_max(4)) == IntPolynomial.one()
    assert tau_monomial(s_min(3)) == tau((1, 2, 3))
    mixed = SetPartition.parse("1 2|3 4 5|6", 6)
    assert tau_monomial(mixed) == tau((1, 2)) * tau((3, 4, 5))


@pytest.mark.parametrize(
    "n,count", [(1, 1), (2, 2), (3, 5), (4, 12), (5, 27), (6, 59)]
)
def test_ambient_symbol_counts(n, count):
    # one Hodge class, one degree-two class at six markings, and a divisor
    # for every subset with at least two elements
    syms = ambient_symbols(n)
    assert len(syms) == count
    assert ("nu" in syms) == (n == 6)


def test_relation_family_sizes_for_three_markings():
    fams = relation_families(3)
    assert {k: len(v) for k, v in fams.items()} == {
        "four-point": 3,
        "incompatible": 3,
        "normal": 6,
    }


def test_relation_lists_are_pinned():
    """The ambient relations and every tail- and elliptic-model
    presentation for up to six markings, hashed as text."""
    digest = hashlib.sha256()
    for n in range(1, 7):
        lines = [r.text() for rels in relation_families(n).values() for r in rels]
        for s in enumerate_partitions(n):
            models = [tail_model(n, s)]
            if s != s_max(n):
                models.append(ell_model(n, s))
            for model in models:
                pres = model.presentation
                lines += [pres.name, " ".join(pres.symbols)]
                lines += [r.text() for r in pres.defining_relations()]
        digest.update("".join(line + "\n" for line in lines).encode())
    assert digest.hexdigest() == (
        "814dd16844862351de87cd76a89143e8e4b45ca24abd2184eba0f4800a3a1813"
    )


def test_six_marking_extras_are_pinned():
    extras = six_marking_extras()
    assert len(extras) == 204
    text = "".join(r.text() + "\n" for r in extras)
    assert hashlib.sha256(text.encode()).hexdigest() == (
        "9667ea980b148e44d4a97eb2241c81f7dd66585e7404a9ad12e89718f5ccf7c5"
    )


@pytest.mark.parametrize("n", [2, 3])
def test_every_relation_restricts_to_zero(n):
    for family, rels in relation_families(n).items():
        for rel in rels:
            assert restricts_to_zero_everywhere(n, rel), (family, rel.text())


@pytest.mark.parametrize("n", [2, 3])
def test_presentation_relations_restrict_to_zero(n):
    for rel in gorenstein_presentation(n).relations:
        assert restricts_to_zero_everywhere(n, rel), rel.text()


def test_six_marking_ambient_ranks_are_the_strata_sum():
    # the nodal identity of every stratum but the all-singleton one is a
    # relation; lifting it only on the strata refining the four-two split
    # left ranks 875 and 1108 in degrees 3 and 4
    ambient = gorenstein_presentation(6).hilbert_function(4)
    total = [0] * 5
    for s in enumerate_partitions(6):
        tail = tail_model(6, s).presentation.hilbert_function(4 - s.codim())
        for d, rank in enumerate(tail, start=s.codim()):
            total[d] += rank
    assert ambient == total == [1, 58, 422, 830, 903]


def injective_restriction_ranks(n, d_max):
    """The ranks of the ambient ring in degrees ``0..d_max``, after checking
    in each degree that the piece is torsion-free and that its standard
    monomials (the basis columns that are not pivots) restrict to the tail
    models of all strata with joint rank the rank of the piece.  Every
    factor staircase below its top degree leads with 1 (checked here), so a
    tail model's normal form is linear and the rank of the stacked
    normal-form rows is the rank of the joint image."""

    def leads_with_one(ring, degrees):
        return all(row[1] == 1 for d in degrees for row in ring.lattice(d).rows)

    assert all(leads_with_one(min_presentation(m), range(d_max + 1)) for m in range(1, n + 1))
    assert all(
        leads_with_one(keel_presentation(range(1, k + 1)).presentation, range(min(d_max, k - 3) + 1))
        for k in range(3, n + 1)
    )
    pres = gorenstein_presentation(n)
    ranks = []
    for d in range(d_max + 1):
        pieces = pres.smith_invariants(d)
        assert pieces.torsion == (), (d, pieces.torsion)
        pivots = pres.lattice(d).pivots
        standard = [pres.from_vector([col, 1], d)
                    for col in range(len(pres.basis(d))) if col not in pivots]
        assert len(standard) == pieces.rank
        columns, rows = {}, [[] for _ in standard]
        for i, s in enumerate(enumerate_partitions(n)):
            model = tail_model(n, s)
            for row, m in zip(rows, standard):
                image = model.presentation.normal_form(model.restrict(m))
                row.extend((columns.setdefault((i, key), len(columns)), c)
                           for key, c in image.items())
        joint = Echelon()
        for row in rows:
            joint.insert(flat_from_pairs(row))
        assert joint.rank == pieces.rank, d
        ranks.append(joint.rank)
    return ranks


@pytest.mark.parametrize(
    "n,ranks",
    [(1, [1, 1]), (2, [1, 2, 2]), (3, [1, 5, 6, 6]), (4, [1, 12, 24, 25, 25]),
     (5, [1, 27, 103, 134, 135, 135])],
)
def test_joint_restriction_is_injective(n, ranks):
    assert injective_restriction_ranks(n, n) == ranks


@pytest.mark.n6
def test_six_marking_joint_restriction_is_injective():
    assert injective_restriction_ranks(6, 3) == [1, 58, 422, 830]


# -- faithfulness: the ideal is exactly the everywhere-vanishing classes -----------


AMBIENT3 = [LAM, tau((1, 2)), tau((1, 3)), tau((2, 3)), tau((1, 2, 3))]


@st.composite
def ambient3_polys(draw):
    total = IntPolynomial.zero()
    for _ in range(draw(st.integers(min_value=1, max_value=3))):
        term = IntPolynomial.one() * draw(
            st.integers(min_value=-4, max_value=4)
        )
        for _ in range(draw(st.integers(min_value=1, max_value=3))):
            term = term * draw(st.sampled_from(AMBIENT3))
        total = total + term
    return total


@given(ambient3_polys())
@settings(max_examples=50, deadline=None)
def test_membership_equals_vanishing_restrictions(f):
    pres = gorenstein_presentation(3)
    assert pres.reduces_to_zero(f) == restricts_to_zero_everywhere(3, f)


@given(st.lists(st.integers(min_value=-3, max_value=3), min_size=9, max_size=9))
@settings(max_examples=30, deadline=None)
def test_relation_combinations_vanish_everywhere(coeffs):
    rels = gorenstein_presentation(3).relations
    f = IntPolynomial.zero()
    for c, r in zip(coeffs, rels):
        f = f + c * r
    assert restricts_to_zero_everywhere(3, f)
    assert gorenstein_presentation(3).reduces_to_zero(f)


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_blockwise_zero_test_matches_the_tail_models(n):
    # reduces_to_zero reduces each l-coefficient in the genus-zero factors;
    # on every stratum its verdict must be membership in the full tail
    # model's lattices, for classes that vanish there and classes that do not.
    rng = random.Random(f"blockwise {n}")
    gens = [IntPolynomial.symbol(nm) for nm in ambient_symbols(n)]
    rels = [rel for rels in relation_families(n).values() for rel in rels]
    classes = [IntPolynomial.zero()] + rels
    for d in (1, 2, 3):
        for _ in range(6):
            term = IntPolynomial.one() * rng.randint(-5, 5)
            for _ in range(d):
                term = term * rng.choice(gens)
            classes.append(term)
            if rels:
                classes.append(term * rng.choice(rels) + rng.choice(rels))
                # a vanishing multiple of l over a term that may not vanish
                classes.append(LAMBDA * rng.choice(rels) + term)

    def in_full_lattices(pres, r):
        return all(
            pres.lattice(d).contains(pres.vector(comp, d))
            for d, comp in r.homogeneous_components().items()
        )

    verdicts = set()
    for s in enumerate_partitions(n):
        model = tail_model(n, s)
        for f in classes:
            r = model.restrict(f)
            full = in_full_lattices(model.presentation, r)
            assert model.presentation.reduces_to_zero(r) == full
            verdicts.add(full)
    assert verdicts == {True, False}
    for f in classes:
        assert restriction_offenders(n, f) == [
            s
            for s in enumerate_partitions(n)
            if not in_full_lattices(
                tail_model(n, s).presentation, tail_model(n, s).restrict(f)
            )
        ]


def test_restriction_offenders_lists_the_failing_strata():
    offenders = restriction_offenders(3, tau((1, 2)))
    texts = {p.text() for p in offenders}
    assert "1 2|3" in texts  # whole-block divisor restricts to -l there
    assert "1 2 3" in texts  # interior divisor survives on the deep stratum
    assert s_max(3) not in offenders
    assert restriction_offenders(3, IntPolynomial.zero()) == []


# -- patching ----------------------------------------------------------------------


def test_lift_relation_keeps_relations_unchanged():
    rels = gorenstein_presentation(3).relations
    for rel in rels[:4]:
        assert lift_relation(3, rel, start_length=2) == rel


def test_lift_relation_recovers_the_normal_relation():
    # correcting the square of the boundary divisor on two markings yields
    # exactly the normal-bundle relation tau*(l + tau)
    t = tau((1, 2))
    assert lift_relation(2, t * t, start_length=1) == t * (LAM + t)
    assert lift_relation(2, LAM * t, start_length=1) == IntPolynomial.zero()


def test_lift_relation_output_vanishes_everywhere():
    f = tau((1, 2)) * tau((1, 2)) - 2 * LAM * tau((1, 2, 3))
    lifted = lift_relation(3, f, start_length=2)
    assert restricts_to_zero_everywhere(3, lifted)


def test_patching_is_deterministic():
    a = fundamental_class(3, lambda p: stratum_value("ell", s_min(3), p))
    b = fundamental_class(3, lambda p: stratum_value("ell", s_min(3), p))
    assert a == b
    assert a.text() == b.text()


def test_classes_patched_together_equal_classes_patched_alone():
    """Every elliptic and nodal class with at most five markings that the
    core table carries, patched in one batch per marking count, comes out
    term for term as it does alone.  The digest pins the 144 classes as the
    one-class-at-a-time loop gave them."""
    digest = hashlib.sha256()
    for n in range(1, 6):
        targets, alone = [], []
        for kind in ("ell", "nod"):
            for t in enumerate_partitions(n):
                target = singular_target(kind, n, t)
                try:
                    alone.append(fundamental_class(n, target).text())
                except ClassTableError:
                    continue
                targets.append(target)
                digest.update(f"{kind} {n} {t.text()}: {alone[-1]}\n".encode())
        assert [c.text() for c in fundamental_classes(n, targets)] == alone, n
    assert digest.hexdigest() == (
        "08c6d053448146a5487ca70eb5880764654619837839d608627865c27aac08e4"
    )


def test_six_marking_lifts_patched_together_equal_lifts_alone():
    seeds = list(core_relation_seeds())
    alone = [lift_relation(6, seed, start_length=5) for seed in seeds]
    zeros = [lambda s: IntPolynomial.zero()] * len(seeds)
    assert [f.text() for f in _patch(6, seeds, zeros, 5)] == [f.text() for f in alone]
    # the first lift as the one-class-at-a-time loop gave it
    assert hashlib.sha256(alone[0].text().encode()).hexdigest() == (
        "0bb2cb4770f964d1085655976063fff4bf87e42891a5425602a0f0dcd0c0e0b8"
    )


DIVISIONS = """
import ellchow.patch
from ellchow.exactring import GradedPresentation
from ellchow.modular import qstable_presentation
from ellchow.partitions import dm_space

calls = []
divide = GradedPresentation.divide_in_quotient


def counting_divide(self, g, c):
    calls.append(g)
    return divide(self, g, c)


GradedPresentation.divide_in_quotient = counting_divide
for _ in range(2):
    qstable_presentation(5, dm_space(5))
    print(len(calls))
    calls.clear()
print(sorted(name for name, value in vars(ellchow.patch).items()
             if isinstance(value, (dict, set, list)) and not name.startswith("__")))
"""


def test_a_batch_divides_each_residual_once_per_stratum():
    # Patched one by one, the 52 classes of the five-marking Deligne-Mumford
    # presentation divide 2,652 times (51 of them a zero residual); patched
    # together, they divide each distinct nonzero residual of a stratum once,
    # 981 divisions in all.  A second presentation divides as often as the
    # first, and no module-level container is left behind: the memo lives
    # for one stratum of one batch.
    env = dict(os.environ, PYTHONDONTWRITEBYTECODE="1", PYTHONPATH=str(ROOT / "src"))
    out = subprocess.run(
        [sys.executable, "-c", DIVISIONS],
        capture_output=True, text=True, env=env, cwd=ROOT, timeout=120, check=True,
    ).stdout
    assert out == "981\n981\n[]\n"


# -- the gamma rule: prescribed restrictions of singular-locus classes -------------


def test_ell_target_values():
    t = SetPartition.parse("1 2|3 4", 4)
    # on the open stratum: two branches of two markings each
    assert stratum_value("ell", t, s_max(4)) == P("4*l^3")
    # on its own stratum each block becomes a separate branch: shape (1,1)
    assert stratum_value("ell", t, t) == P("24*l^3")
    # strata that do not dominate the locus see zero
    assert stratum_value("ell", t, s_min(4)) == IntPolynomial.zero()
    assert stratum_value("ell", t, SetPartition.parse("1 3|2 4", 4)) == IntPolynomial.zero()


def test_nod_target_values():
    t = SetPartition.parse("1 2|3|4", 4)
    assert stratum_value("nod", t, s_max(4)) == P("4*l^3")  # shape (2,1,1)
    # on its own stratum the three blocks become three separate branches
    assert stratum_value("nod", t, t) == P("12*l^3")
    # strata not refining the branch partition see zero
    assert stratum_value("nod", t, SetPartition.parse("1 2|3 4", 4)) == IntPolynomial.zero()
    assert stratum_value("nod", t, s_min(4)) == IntPolynomial.zero()


@pytest.mark.parametrize("cls", [ell_class, nod_class])
def test_singular_class_rejects_a_partition_on_other_markings(cls):
    # checked before any lookup, so the class table is never blamed
    with pytest.raises(ValueError, match="^partition is not on the marking set$"):
        cls(4, SetPartition.parse("1 2|3", 3))


def test_prescriptions_are_achieved():
    """The patched class restricts to exactly the prescribed value on
    every stratum, the defining property of the construction."""
    from ellchow import restrict_to_tail, tail_model

    t = SetPartition.parse("1 2|3", 3)
    cls = ell_class(3, t)
    for s in enumerate_partitions(3):
        got = restrict_to_tail(3, s, cls)
        want = stratum_value("ell", t, s)
        assert tail_model(3, s).presentation.reduces_to_zero(got - want), s.text()


# -- frozen fixtures -----------------------------------------------------------------


@pytest.mark.parametrize("n", [1, 2, 3])
def test_small_fixture_classes(n):
    from ellchow.patch import classes_equal

    for s in enumerate_partitions(n):
        assert classes_equal(n, ell_class(n, s), expected_class(n, s)), s.text()


def test_fixtures_cover_every_shape():
    # expected_class raises KeyError on a shape with no stored class
    classes = {p.shape(): expected_class(4, p) for p in enumerate_partitions(4)}
    assert set(classes) == {(1, 1, 1, 1), (2, 1, 1), (2, 2), (3, 1), (4,)}


def test_expected_class_handles_any_representative():
    from ellchow.patch import classes_equal

    s = SetPartition.parse("1 4|2|3", 4)  # not the stored representative
    assert classes_equal(4, ell_class(4, s), expected_class(4, s))


def test_permute_marks():
    f = 3 * tau((1, 2)) * LAM - tau((2, 3, 4))
    g = permute_marks(f, {1: 2, 2: 3, 3: 4, 4: 1})
    assert g == 3 * tau((2, 3)) * LAM - tau((1, 3, 4))


def test_matching_permutation():
    src = SetPartition.parse("1 2|3|4", 4)
    dst = SetPartition.parse("2 4|1|3", 4)
    perm = matching_permutation(src, dst)
    assert {perm[1], perm[2]} == {2, 4}
    assert {perm[3], perm[4]} == {1, 3}
    with pytest.raises(ValueError):
        matching_permutation(src, SetPartition.parse("1 2 3|4", 4))


def test_nod_class_on_two_markings():
    from ellchow import restrict_to_tail
    from ellchow.corering import ClassTableError

    cls = nod_class(2, s_max(2))
    # the class restricts to 12*l^2 on the open stratum by construction
    assert restrict_to_tail(2, s_max(2), cls) == P("12*l^2")
    # a single merged branch has no nodal entry: the locus is cuspidal
    with pytest.raises(ClassTableError):
        nod_class(2, s_min(2))
