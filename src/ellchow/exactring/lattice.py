"""Integer lattices inside a free module Z^N.

A row is a flat list ``[col0, c0, col1, c1, ...]`` with strictly increasing
column indices and nonzero integer coefficients.  An :class:`Echelon` keeps
a basis in *staircase* form: ``pivots`` maps a pivot column to the index of
the unique basis row leading at that column, and every stored row has
positive leading coefficient.  A row that claims a new pivot first has its
tail reduced at every pivot whose leader divides the entry, so a later row
in the lattice meets few pivot columns on its way to zero; rows stored
earlier are not revisited, so this is not Hermite form.  The reduction
subtracts lattice rows, so the span, its pivot columns and their leaders
(the leader at a column generates the ideal of leading coefficients of the
lattice's vectors leading there) and its Smith invariants are unchanged.
:meth:`Echelon.residue` produces a canonical representative of each
residue class from any staircase basis: at every pivot column the
remainder is the floor residue in ``[0, a)``, and an induction on the
leading column of differences shows two rows in the same coset reduce to
the same result.

Both eliminations, :meth:`Echelon.insert` and :meth:`Echelon.residue`,
work in one sparse accumulator instead of rebuilding the row at every
pivot they clear: a dict ``column -> coefficient`` seeded from the row,
with a heap of its pending columns (the row's ascending column list is
already a heap).  The smallest pending column is popped; at a pivot column
``q`` times the pivot row is subtracted past its leading entry only, and
the columns new to the dict are pushed.  The pivot rows touched lead at
the popped column, so every column they change is still pending and is
popped later.  Pivot columns are therefore still cleared in ascending
order with the same integer operations as on a flat row, and the residue
is the same canonical one; the heap is the division trick of Monagan and
Pearce ("Polynomial division using dynamic arrays, heaps, and packed
exponent vectors", CASC 2007).  ``insert`` turns the accumulator back into
a flat row when it claims a new pivot, once the tail is walked, or when
it meets a pivot that does not divide its coefficient, where it merges the
two rows by an extended gcd and restarts from the merged row;
:func:`row_combine` builds each merged row by one :func:`flat_from_pairs`
call on the scaled entries of both.

:class:`Echelon` is the one elimination kernel:
:func:`smith_invariants_of_rows` reads invariant factors off staircases of
the rows and of the columns in turn.
"""

from __future__ import annotations

from heapq import heappop, heappush
from math import gcd
from typing import Iterable

# Name of the echelon kernel, as recorded in benchmark results: there is one,
# the pure-Python staircase below.
KERNEL_NAME = "pure"


def xgcd(a: int, b: int) -> tuple[int, int, int]:
    """Extended gcd: returns ``(g, x, y)`` with ``g = a*x + b*y`` and ``g > 0``
    (for ``a``, ``b`` not both zero)."""
    old_r, r = a, b
    old_s, s = 1, 0
    old_t, t = 0, 1
    while r:
        q = old_r // r
        old_r, r = r, old_r - q * r
        old_s, s = s, old_s - q * s
        old_t, t = t, old_t - q * t
    if old_r < 0:
        return -old_r, -old_s, -old_t
    return old_r, old_s, old_t


def flat_from_pairs(pairs: Iterable[tuple[int, int]]) -> list:
    """Build a flat row from ``(column, coefficient)`` pairs (any order;
    repeated columns are summed, zeros dropped)."""
    acc: dict[int, int] = {}
    for col, c in pairs:
        v = acc.get(col, 0) + c
        if v:
            acc[col] = v
        else:
            acc.pop(col, None)
    out: list = []
    for col in sorted(acc):
        out.append(col)
        out.append(acc[col])
    return out


def row_combine(a: list, sa: int, b: list, sb: int) -> list:
    """``sa*a + sb*b`` as a fresh flat row (zero entries dropped)."""
    return flat_from_pairs([*zip(a[::2], [sa * v for v in a[1::2]]),
                            *zip(b[::2], [sb * v for v in b[1::2]])])


def _subtract_tail(acc: dict, heap: list, p: list, q: int) -> None:
    """Subtract ``q * p`` past its leading entry from the accumulator
    ``acc``, pushing the columns new to it onto ``heap``."""
    m = -q
    for pc, pv in zip(p[2::2], p[3::2]):
        v = acc.get(pc)
        if v is None:
            acc[pc] = m * pv
            heappush(heap, pc)
        else:
            acc[pc] = v + m * pv


class Echelon:
    """A lattice in Z^N kept as a staircase basis with canonical residues.

    ``insert`` grows the lattice, ``residue`` returns the canonical
    representative of a vector modulo the lattice, and ``contains`` tests
    membership.  The rank equals the number of stored rows.
    """

    __slots__ = ("rows", "pivots")

    def __init__(self) -> None:
        self.rows: list[list] = []
        self.pivots: dict[int, int] = {}

    def insert(self, row: list) -> None:
        """Add ``row`` to the staircase basis, preserving its invariants.

        Walks the columns of ``row`` in ascending order in an accumulator
        (see the module docstring).  At a pivot whose leader divides the
        row's entry, the pivot row is subtracted.  The first unclaimed
        column claims a new pivot (sign-normalised) with the rest of the
        walk as its tail.  Before that, a pivot that does not divide is
        replaced, by an extended-gcd update, by one leading with the gcd,
        and the walk restarts from a row leading further right.  Each step
        adds lattice rows or is unimodular, so the residues and Smith
        invariants depend only on the rows inserted.
        """
        rows, pivots = self.rows, self.pivots
        while row:
            acc = dict(zip(row[::2], row[1::2]))
            heap = row[::2]  # ascending, hence already a heap
            row = []  # the new pivot's entry, then the tail's kept entries
            while heap:
                col = heappop(heap)
                c = acc[col]
                if not c:
                    continue
                j = pivots.get(col)
                if j is not None and c % rows[j][1] == 0:
                    _subtract_tail(acc, heap, rows[j], c // rows[j][1])
                elif row or j is None:
                    row += (col, c)
                else:
                    p, a = rows[j], rows[j][1]
                    row = [col, c, *(x for k in sorted(heap) if acc[k] for x in (k, acc[k]))]
                    g, x, y = xgcd(a, c)
                    rows[j] = row_combine(p, x, row, y)
                    row = row_combine(row, a // g, p, -(c // g))
                    break
            else:
                if row:  # else every column cancelled: the row was in the lattice
                    if row[1] < 0:
                        row[1::2] = [-v for v in row[1::2]]
                    pivots[row[0]] = len(rows)
                    rows.append(row)
                return

    def residue(self, row: list) -> list:
        """Canonical residue of ``row`` modulo the staircase basis.

        At each pivot column the coefficient is floor-reduced into ``[0, a)``
        where ``a`` is the (positive) pivot coefficient; non-pivot columns
        are kept as-is.  Membership in the lattice is equivalent to an empty
        result.
        """
        rows, pivots = self.rows, self.pivots
        acc = dict(zip(row[::2], row[1::2]))
        heap = row[::2]  # ascending, hence already a heap
        out: list = []
        while heap:
            col = heappop(heap)
            c = acc[col]
            if not c:
                continue
            j = pivots.get(col)
            if j is not None:
                p = rows[j]
                a = p[1]
                q = c // a
                if q:
                    c -= q * a
                    _subtract_tail(acc, heap, p, q)
                    if not c:
                        continue
            out.append(col)
            out.append(c)
        return out

    def contains(self, row: list) -> bool:
        return not self.residue(row)

    @property
    def rank(self) -> int:
        return len(self.rows)


def _transpose(rows: list) -> list:
    """The columns of the matrix with the given flat rows, in column order,
    as flat rows: column ``i`` of the result is the ``i``-th row."""
    cols: dict[int, list] = {}
    for i, row in enumerate(rows):
        for c, v in zip(row[::2], row[1::2]):
            cols.setdefault(c, []).extend((i, v))
    return [cols[c] for c in sorted(cols)]


def smith_invariants_of_rows(flat_rows: Iterable[list]) -> list[int]:
    """Diagonal of the Smith normal form of the integer matrix whose rows are
    the given flat rows (lists, tuples or any iterable of them), as a list
    ``[d1, d2, ...]`` with ``d1 | d2 | ...`` and every ``di >= 1``.  The
    number of entries is the rank of the row lattice; torsion of the
    quotient is carried by the entries ``> 1``.

    The staircase alternates between rows and columns (Kannan and Bachem,
    "Polynomial algorithms for computing the Smith and Hermite normal forms
    of an integer matrix", SIAM J. Comput. 1979): the rows go into a fresh
    :class:`Echelon`, its rows are sorted by leading column, and unless
    every row has one entry the staircase is transposed and the loop runs
    again.  Every pass is unimodular row or column work, so the Smith form
    never changes.  The loop ends:

    * the pivot at the smallest column is the gcd of that column;
    * after the transpose it is the only entry of the first row, and that
      row is inserted first;
    * so each pass either shrinks it strictly or leaves it isolated, alone
      in its row and column, where no later pass touches it;
    * by induction on the sorted rows every pivot isolates.

    The diagonal left is made a divisibility chain by replacing pairs of
    entries with their gcd and lcm; entries equal to 1 are set aside.
    """
    rows = [list(row) for row in flat_rows]
    while True:
        ech = Echelon()
        for row in rows:
            ech.insert(row)
        rows = sorted(ech.rows)
        if all(len(row) == 2 for row in rows):
            break
        rows = _transpose(rows)
    diag = [row[1] for row in rows if row[1] > 1]
    for i in range(len(diag)):
        for j in range(i + 1, len(diag)):
            g = gcd(diag[i], diag[j])
            diag[i], diag[j] = g, diag[i] // g * diag[j]
    return [1] * (len(rows) - len(diag)) + diag
