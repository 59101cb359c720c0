"""Integer row-echelon lattices and Smith invariants.

Echelon residues must be canonical coset representatives that do not depend
on the order of insertion, and Smith invariants are cross-checked against an
independent implementation (sympy).
"""

import hashlib
import random

import pytest
import sympy
from hypothesis import example, given, settings, strategies as st

from ellchow.exactring.lattice import (
    KERNEL_NAME,
    Echelon,
    flat_from_pairs,
    row_combine,
    smith_invariants_of_rows,
    xgcd,
)
from ellchow.keel import keel_presentation
from ellchow.modular import qstable_presentation
from ellchow.partitions import dm_space


# -- flat row encoding -------------------------------------------------------


def dense(row, width):
    out = [0] * width
    for i in range(0, len(row), 2):
        out[row[i]] = row[i + 1]
    return out


def test_flat_from_pairs_sorts_and_drops_zeros():
    assert flat_from_pairs([(3, 5), (1, -2), (2, 0)]) == [1, -2, 3, 5]
    assert flat_from_pairs([(1, 2), (1, -2)]) == []
    assert flat_from_pairs([]) == []


# -- kernel primitives -------------------------------------------------------


def test_xgcd_bezout():
    rng = random.Random(7)
    for _ in range(300):
        a = rng.randint(-10**9, 10**9)
        b = rng.randint(-10**9, 10**9)
        g, x, y = xgcd(a, b)
        assert g == a * x + b * y
        if a or b:
            assert g > 0
            assert a % g == 0 and b % g == 0


def test_row_combine_matches_dense():
    rng = random.Random(11)
    for _ in range(200):
        w = rng.randint(1, 8)
        a = flat_from_pairs(
            [(i, rng.randint(-9, 9)) for i in rng.sample(range(w), rng.randint(0, w))]
        )
        b = flat_from_pairs(
            [(i, rng.randint(-9, 9)) for i in rng.sample(range(w), rng.randint(0, w))]
        )
        sa, sb = rng.randint(-4, 4), rng.randint(-4, 4)
        got = dense(row_combine(list(a), sa, list(b), sb), w)
        want = [sa * x + sb * y for x, y in zip(dense(a, w), dense(b, w))]
        assert got == want


def random_rows(rng, n_rows, width, bound=9):
    return [
        [rng.randint(-bound, bound) for _ in range(width)] for _ in range(n_rows)
    ]


def span_member_brute(rows, vec, bound=3):
    """Check membership of vec in the Z-span of <=3 rows by brute force."""
    from itertools import product

    for coeffs in product(range(-bound * 6, bound * 6 + 1), repeat=len(rows)):
        if all(
            sum(c * r[j] for c, r in zip(coeffs, rows)) == v
            for j, v in enumerate(vec)
        ):
            return True
    return False


def test_insert_preserves_membership():
    """After inserting rows, each original row must reduce to zero."""
    rng = random.Random(23)
    for _ in range(60):
        width = rng.randint(1, 6)
        rows_dense = random_rows(rng, rng.randint(1, 5), width)
        e = Echelon()
        flats = [
            flat_from_pairs([(i, c) for i, c in enumerate(r) if c])
            for r in rows_dense
        ]
        for f in flats:
            e.insert(list(f))
        for f in flats:
            assert e.residue(list(f)) == []


def test_staircase_invariants():
    rng = random.Random(29)
    for _ in range(60):
        width = rng.randint(1, 6)
        e = Echelon()
        for r in random_rows(rng, rng.randint(1, 7), width):
            e.insert(flat_from_pairs([(i, c) for i, c in enumerate(r) if c]))
        rows, pivots = e.rows, e.pivots
        lead_cols = [row[0] for row in rows]
        assert len(set(lead_cols)) == len(lead_cols)
        for row in rows:
            assert row[1] > 0  # positive leading coefficient
        assert pivots == {row[0]: idx for idx, row in enumerate(rows)}


def test_residue_is_canonical_on_cosets():
    """Vectors in the same coset of the span reduce to the same residue,
    and residue entries under pivot columns lie in [0, pivot)."""
    rng = random.Random(31)
    for _ in range(40):
        width = rng.randint(1, 5)
        e = Echelon()
        for r in random_rows(rng, rng.randint(1, 4), width, bound=5):
            e.insert(flat_from_pairs([(i, c) for i, c in enumerate(r) if c]))
        rows, pivots = e.rows, e.pivots
        vec = random_rows(rng, 1, width, bound=8)[0]
        flat = flat_from_pairs([(i, c) for i, c in enumerate(vec) if c])
        res1 = e.residue(list(flat))
        # shift by a random span element: same residue expected
        shift = [0] * width
        for row in rows:
            c = rng.randint(-3, 3)
            for i, v in zip(row[::2], row[1::2]):
                shift[i] += c * v
        shifted = [a + b for a, b in zip(vec, shift)]
        flat2 = flat_from_pairs([(i, c) for i, c in enumerate(shifted) if c])
        res2 = e.residue(list(flat2))
        assert res1 == res2
        for i, v in zip(res1[::2], res1[1::2]):
            if i in pivots:
                assert 0 <= v < rows[pivots[i]][1]


def reference_insert(rows, pivots, row):
    """Staircase insertion that rebuilds the whole row at every pivot; a row
    that claims a new pivot first has its tail reduced, column by ascending
    column, at every pivot whose leader divides the entry."""
    while row:
        col, c = row[0], row[1]
        j = pivots.get(col)
        if j is None:
            i = 2
            while i < len(row):
                k = pivots.get(row[i])
                if k is not None and row[i + 1] % rows[k][1] == 0:
                    q = row[i + 1] // rows[k][1]
                    row = row[:i] + row_combine(row[i:], 1, rows[k], -q)
                    continue
                i += 2
            if c < 0:
                row = row_combine(row, -1, [], 0)
            pivots[col] = len(rows)
            rows.append(row)
            return
        p = rows[j]
        a = p[1]
        if c % a == 0:
            row = row_combine(row, 1, p, -(c // a))
        else:
            g, x, y = xgcd(a, c)
            rows[j] = row_combine(p, x, row, y)
            row = row_combine(row, a // g, p, -(c // g))


def reference_reduce(rows, pivots, row):
    """Floor residue that rebuilds the unreduced tail at every pivot."""
    cur = list(row)
    i = 0
    while i < len(cur):
        j = pivots.get(cur[i])
        if j is not None:
            q = cur[i + 1] // rows[j][1]
            if q:
                cur = cur[:i] + row_combine(cur[i:], 1, rows[j], -q)
                continue
        i += 2
    return cur


sparse_rows = st.dictionaries(
    st.integers(min_value=0, max_value=9),
    st.integers(min_value=-12, max_value=12).filter(bool),
    max_size=6,
).map(lambda d: flat_from_pairs(d.items()))


@given(st.lists(sparse_rows, min_size=1, max_size=10), st.lists(sparse_rows, max_size=5))
# 4 and -6 at column 0 merge to the gcd 2, and the leftover row meets the
# pivot 3 at column 1, which does not divide it
@example([[0, 4, 1, 3, 2, -5], [1, 3, 3, 2], [0, -6, 1, 2, 3, 7]], [[0, -7, 1, 11, 2, 4, 3, -9]])
@settings(max_examples=200, deadline=None)
def test_accumulator_matches_the_row_rebuilding_reference(inserted, probes):
    # Same pivot order and integer operations: the staircase is identical
    # entry for entry after every insertion, and so is every residue.
    e = Echelon()
    ref_rows, ref_pivots = [], {}
    for f in inserted:
        e.insert(list(f))
        reference_insert(ref_rows, ref_pivots, list(f))
        assert e.rows == ref_rows
        assert e.pivots == ref_pivots
    for f in inserted + probes:
        assert e.residue(f) == reference_reduce(e.rows, e.pivots, f)


def _digest(value):
    return hashlib.sha256(repr(value).encode()).hexdigest()[:16]


def test_staircases_are_pinned():
    # Rows, pivots and coefficients of two large staircases, entry for
    # entry: an elimination change that keeps them keeps every residue.  The
    # shapes are lattice invariants, pinned apart: a change of which product
    # rows span the lattice may move the rows, never the shapes.
    g0 = keel_presentation(range(1, 7)).presentation
    dm = qstable_presentation(5, dm_space(5))
    built = [g0.lattice(d) for d in range(4)] + [dm.lattice(d) for d in range(4)]
    assert [_digest((e.rows, sorted(e.pivots.items()))) for e in built] == [
        "1391876e63685b7d",
        "9d423c1bee0ffcf0",
        "e7971859a63ca4f1",
        "8d18a38e71383f61",
        "1391876e63685b7d",
        "1391876e63685b7d",
        "6ed3c58817abf2ba",
        "b1df86290df63935",
    ]
    assert [_digest(_staircase_shape(e)) for e in built] == [
        "4f53cda18c2baa0c",
        "a6574d7a138a8b1d",
        "0475914f21c73dc6",
        "50e44f404cc07da0",
        "4f53cda18c2baa0c",
        "4f53cda18c2baa0c",
        "8e76acc7b0273e5b",
        "85140f3414d4ee75",
    ]


def test_selected_kernel_is_named():
    assert KERNEL_NAME == "pure"


# -- Echelon wrapper ----------------------------------------------------------


def test_echelon_contains_and_rank():
    e = Echelon()
    e.insert(flat_from_pairs([(0, 2), (1, 4)]))
    e.insert(flat_from_pairs([(1, 3)]))
    assert e.rank == 2
    assert e.contains(flat_from_pairs([(0, 2), (1, 7)]))
    assert e.contains(flat_from_pairs([(0, 4), (1, 8)]))
    assert not e.contains(flat_from_pairs([(0, 1)]))


def _staircase_shape(e):
    """Pivot columns with their leading coefficients (so also the rank):
    invariants of the lattice, whatever the insertion order."""
    return sorted((row[0], row[1]) for row in e.rows)


@given(st.data())
@settings(max_examples=80, deadline=None)
def test_staircase_does_not_depend_on_insertion_order(data):
    width = data.draw(st.integers(min_value=1, max_value=6))
    entries = st.integers(min_value=-9, max_value=9)
    rows_dense = data.draw(
        st.lists(st.lists(entries, min_size=width, max_size=width),
                 min_size=1, max_size=6)
    )
    flats = [
        flat_from_pairs([(i, c) for i, c in enumerate(r) if c]) for r in rows_dense
    ]
    order = data.draw(st.permutations(range(len(flats))))
    probes = data.draw(
        st.lists(st.lists(entries, min_size=width, max_size=width),
                 min_size=1, max_size=4)
    )
    first, second = Echelon(), Echelon()
    for f in flats:
        first.insert(list(f))
    for i in order:
        second.insert(list(flats[i]))
    assert _staircase_shape(first) == _staircase_shape(second)
    for p in probes:
        flat = flat_from_pairs([(i, c) for i, c in enumerate(p) if c])
        assert first.residue(flat) == second.residue(flat)


@pytest.mark.parametrize(
    "build, degree",
    [
        (lambda: keel_presentation(range(1, 6)).presentation, 2),
        (lambda: keel_presentation(range(1, 6)).presentation, 3),
        # 32 of the 577 leaders are not 1: a tail entry there that a leader
        # does not divide is kept as it is
        (lambda: qstable_presentation(5, dm_space(5)), 3),
    ],
    ids=["2", "3", "dm5-3"],
)
def test_sorted_lattice_matches_unsorted_insertion(build, degree):
    """``GradedPresentation.lattice`` inserts its product rows sorted; the
    residues must equal those of inserting them in generation order."""
    pres = build()
    unsorted = Echelon()
    for row in pres._product_rows(degree):
        unsorted.insert(row)
    built = pres.lattice(degree)
    assert _staircase_shape(built) == _staircase_shape(unsorted)
    rng = random.Random(degree)
    width = len(pres.basis(degree))
    for _ in range(40):
        cols = sorted(rng.sample(range(width), min(width, 8)))
        flat = flat_from_pairs([(c, rng.randint(-6, 6)) for c in cols])
        assert built.residue(flat) == unsorted.residue(flat)


def test_membership_matches_brute_force():
    rng = random.Random(41)
    for _ in range(30):
        width = rng.randint(1, 4)
        rows_dense = random_rows(rng, rng.randint(1, 3), width, bound=3)
        e = Echelon()
        for r in rows_dense:
            e.insert(flat_from_pairs([(i, c) for i, c in enumerate(r) if c]))
        vec = random_rows(rng, 1, width, bound=6)[0]
        got = e.contains(flat_from_pairs([(i, c) for i, c in enumerate(vec) if c]))
        want = span_member_brute(rows_dense, vec)
        assert got == want


# -- Smith invariants ---------------------------------------------------------


def sympy_invariants(rows_dense, width):
    from sympy.matrices.normalforms import smith_normal_form

    mat = sympy.Matrix([[r[j] for j in range(width)] for r in rows_dense])
    if mat.rows == 0:
        return []
    inv = smith_normal_form(mat)
    diag = [abs(inv[i, i]) for i in range(min(inv.rows, inv.cols))]
    return [d for d in diag if d != 0]


@given(st.data())
@settings(max_examples=60, deadline=None)
def test_smith_invariants_match_sympy(data):
    width = data.draw(st.integers(min_value=1, max_value=8))
    n_rows = data.draw(st.integers(min_value=1, max_value=8))
    rows_dense = [
        [
            data.draw(st.integers(min_value=-12, max_value=12))
            for _ in range(width)
        ]
        for _ in range(n_rows)
    ]
    flats = [
        flat_from_pairs([(i, c) for i, c in enumerate(r) if c])
        for r in rows_dense
    ]
    got = list(smith_invariants_of_rows([f for f in flats if f]))
    want = sympy_invariants(rows_dense, width)
    assert got == want
    # The staircase spans the same lattice, so it has the same invariants.
    ech = Echelon()
    for f in flats:
        ech.insert(f)
    assert list(smith_invariants_of_rows(ech.rows)) == want


@given(st.data())
@settings(max_examples=40, deadline=None)
def test_smith_invariants_after_rows_without_units(data):
    # Rows of non-units come before a row with a unit in column 0, so the
    # staircase's first pivot is a non-unit until the unit row merges into
    # it by a gcd step.
    width = data.draw(st.integers(min_value=1, max_value=5))
    non_units = st.sampled_from([0, 2, -2, 3, -3, 4, -6, 9, 10, -12])
    head = data.draw(st.lists(
        st.lists(non_units, min_size=width, max_size=width), min_size=1, max_size=3
    ))
    tail = data.draw(st.lists(
        st.lists(st.integers(min_value=-6, max_value=6), min_size=width, max_size=width),
        max_size=3,
    ))
    rows_dense = head + tail + [[1] + [0] * (width - 1)]
    flats = [flat_from_pairs([(i, c) for i, c in enumerate(r) if c]) for r in rows_dense]
    got = list(smith_invariants_of_rows([f for f in flats if f]))
    assert got == sympy_invariants(rows_dense, width)


def test_smith_invariants_known_cases():
    assert list(smith_invariants_of_rows([])) == []
    assert list(smith_invariants_of_rows([(0, 24)])) == [24]
    # 2x2: diag(2, 6) hidden in a dense matrix
    rows = [
        flat_from_pairs([(0, 2), (1, 4)]),
        flat_from_pairs([(0, 4), (1, 2)]),
    ]
    assert list(smith_invariants_of_rows(rows)) == [2, 6]
    # divisibility chain is enforced
    rows = [flat_from_pairs([(0, 6)]), flat_from_pairs([(1, 4)])]
    assert list(smith_invariants_of_rows(rows)) == [2, 12]
    # [[2, 1], [0, 2]] is already a staircase; it takes two transposes to
    # reach the diagonal
    rows = [flat_from_pairs([(0, 2), (1, 1)]), flat_from_pairs([(1, 2)])]
    assert list(smith_invariants_of_rows(rows)) == [1, 4]


def expand(pairs):
    return [d for d, count in pairs for _ in range(count)]


def invariant_lists(pres, top):
    return [smith_invariants_of_rows(pres.lattice(d).rows) for d in range(top + 1)]


# Full invariant lists, one per degree from 0, as (invariant, multiplicity)
# pairs in order.
DM4_INVARIANTS = [
    [],
    [],
    [(1, 24), (24, 1)],
    [(1, 99), (4, 1), (12, 3), (24, 9)],
    [(1, 230), (4, 1), (12, 6), (24, 17)],
]
KEEL6_INVARIANTS = [[], [(1, 14)], [(1, 419)], [(1, 2254)]]
DM5_INVARIANTS = [
    [],
    [],
    [(1, 80), (24, 1)],
    [(1, 545), (2, 1), (4, 4), (12, 6), (24, 21)],
    [(1, 1696), (4, 10), (12, 29), (24, 68)],
]


def test_smith_invariants_are_pinned():
    dm4 = qstable_presentation(4, dm_space(4))
    assert invariant_lists(dm4, 4) == [expand(p) for p in DM4_INVARIANTS]
    keel6 = keel_presentation(range(1, 7)).presentation
    assert invariant_lists(keel6, 3) == [expand(p) for p in KEEL6_INVARIANTS]


@pytest.mark.extended
def test_five_marking_smith_invariants_are_pinned():
    dm5 = qstable_presentation(5, dm_space(5))
    assert invariant_lists(dm5, 4) == [expand(p) for p in DM5_INVARIANTS]
