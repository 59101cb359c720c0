"""Integer lattices inside a free module Z^N.

A row is a flat list ``[col0, c0, col1, c1, ...]`` with strictly increasing
column indices and nonzero integer coefficients.  A basis is kept in
*staircase* form: ``pivots`` maps a pivot column to the index of the unique
basis row leading at that column, and every stored row has positive leading
coefficient.  No inter-row reduction is performed on the stored rows
(this is not Hermite form), yet :func:`reduce_row` still produces a
canonical representative of each residue class: at every pivot column the
remainder is the floor residue in ``[0, a)``, and an induction on the
leading column of differences shows two rows in the same coset reduce to
the same result.

Both eliminations, :func:`insert_row` and :func:`reduce_row`, work in one
sparse accumulator instead of rebuilding the row at every pivot they clear:
a dict ``column -> coefficient`` seeded from the row, with a heap of its
pending columns (the row's ascending column list is already a heap).  The
smallest pending column is popped; at a pivot column ``q`` times the pivot
row is subtracted past its leading entry only, and the columns new to the
dict are pushed.  The pivot rows touched lead at the popped column, so
every column they change is still pending and is popped later.  Pivot
columns are therefore still cleared in ascending order with the same
integer operations as on a flat row, and the residue is the same canonical
one; the heap is the division trick of Monagan and Pearce ("Polynomial
division using dynamic arrays, heaps, and packed exponent vectors",
CASC 2007).  ``insert_row`` turns the accumulator back into a flat row only
when it claims a new pivot or meets a pivot that does not divide its
coefficient, where it merges the two rows by an extended gcd and restarts
from the merged row.

:class:`Echelon` wraps the staircase in a small class API, and
:func:`smith_invariants_of_rows` is a sparse Smith-normal-form routine for
extracting invariant factors.
"""

from __future__ import annotations

from heapq import heappop, heappush
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


def row_scale(row: list, s: int) -> list:
    """``s * row`` as a fresh flat row (``s`` must be nonzero)."""
    out = list(row)
    for i in range(1, len(out), 2):
        out[i] = out[i] * s
    return out


def row_combine(a: list, sa: int, b: list, sb: int) -> list:
    """``sa*a + sb*b`` as a fresh flat row (zero entries dropped)."""
    out: list = []
    i = j = 0
    la, lb = len(a), len(b)
    while i < la and j < lb:
        ca, cb = a[i], b[j]
        if ca == cb:
            v = sa * a[i + 1] + sb * b[j + 1]
            if v:
                out.append(ca)
                out.append(v)
            i += 2
            j += 2
        elif ca < cb:
            v = sa * a[i + 1]
            if v:
                out.append(ca)
                out.append(v)
            i += 2
        else:
            v = sb * b[j + 1]
            if v:
                out.append(cb)
                out.append(v)
            j += 2
    while i < la:
        v = sa * a[i + 1]
        if v:
            out.append(a[i])
            out.append(v)
        i += 2
    while j < lb:
        v = sb * b[j + 1]
        if v:
            out.append(b[j])
            out.append(v)
        j += 2
    return out


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


def insert_row(rows: list, pivots: dict, row: list) -> None:
    """Add ``row`` to the staircase basis, preserving its invariants.

    Walks the columns of ``row`` in ascending order in an accumulator (see
    the module docstring).  An unclaimed column claims a new pivot
    (sign-normalised).  At a claimed column whose pivot coefficient divides
    the row's, the pivot row is subtracted and the walk goes on.  Otherwise
    an extended-gcd update replaces the pivot row by one leading with the
    gcd, and the walk restarts from a row whose leading column is strictly
    larger.
    """
    while row:
        acc = dict(zip(row[::2], row[1::2]))
        heap = row[::2]  # ascending, hence already a heap
        while heap:
            col = heappop(heap)
            c = acc[col]
            if not c:
                continue
            j = pivots.get(col)
            if j is not None:
                p = rows[j]
                a = p[1]
                if c % a == 0:
                    _subtract_tail(acc, heap, p, c // a)
                    continue
            row = [col, c]
            for k in sorted(heap):
                v = acc[k]
                if v:
                    row.append(k)
                    row.append(v)
            if j is None:
                if c < 0:
                    row = row_scale(row, -1)
                pivots[col] = len(rows)
                rows.append(row)
                return
            g, x, y = xgcd(a, c)
            rows[j] = row_combine(p, x, row, y)
            row = row_combine(row, a // g, p, -(c // g))
            break
        else:
            return  # every column cancelled: the row was in the lattice


def reduce_row(rows: list, pivots: dict, row: list) -> list:
    """Canonical residue of ``row`` modulo the staircase basis.

    At each pivot column the coefficient is floor-reduced into ``[0, a)``
    where ``a`` is the (positive) pivot coefficient; non-pivot columns are
    kept as-is.  Membership in the lattice is equivalent to an empty result.
    """
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
        insert_row(self.rows, self.pivots, row)

    def residue(self, row: list) -> list:
        return reduce_row(self.rows, self.pivots, row)

    def contains(self, row: list) -> bool:
        return not reduce_row(self.rows, self.pivots, row)

    @property
    def rank(self) -> int:
        return len(self.rows)


def smith_invariants_of_rows(flat_rows: Iterable[list]) -> list[int]:
    """Diagonal of the Smith normal form of the integer matrix whose rows are
    the given flat rows, as a list ``[d1, d2, ...]`` with ``d1 | d2 | ...``
    and every ``di >= 1``.  The number of entries is the rank of the row
    lattice; torsion of the quotient is carried by the entries ``> 1``.

    Sparse elimination: repeatedly pick the entry of smallest magnitude,
    clear its column by Euclidean row operations, clear its row by column
    operations (which at that point touch only the pivot row), and restore
    the divisibility invariant by folding any offending row into the pivot
    row before recording it.
    """
    rows: dict[int, dict[int, int]] = {}
    col_index: dict[int, set[int]] = {}
    for ri, fr in enumerate(flat_rows):
        if fr:
            entries = {fr[i]: fr[i + 1] for i in range(0, len(fr), 2)}
            rows[ri] = entries
            for c in entries:
                col_index.setdefault(c, set()).add(ri)

    def set_entry(r: int, c: int, v: int) -> None:
        if v:
            rows[r][c] = v
            col_index.setdefault(c, set()).add(r)
        else:
            if rows[r].pop(c, None) is not None:
                owners = col_index.get(c)
                if owners is not None:
                    owners.discard(r)
                    if not owners:
                        del col_index[c]

    def row_op(dst: int, src: int, q: int) -> None:
        # rows[dst] -= q * rows[src]; a row emptied by the operation is gone
        for c, v in list(rows[src].items()):
            set_entry(dst, c, rows[dst].get(c, 0) - q * v)
        if not rows[dst]:
            del rows[dst]

    def drop_row(r: int) -> None:
        for c in list(rows[r]):
            set_entry(r, c, 0)
        del rows[r]

    diag: list[int] = []
    while rows:
        # Smallest-magnitude pivot, deterministic tie-break.  Rows and
        # columns are scanned in ascending order, so the first unit met is
        # the smallest key and the scan stops there.
        best: tuple[int, int, int] | None = None
        for r in sorted(rows):
            for c in sorted(rows[r]):
                a = abs(rows[r][c])
                if best is None or (a, r, c) < best:
                    best = (a, r, c)
                    if a == 1:
                        break
            if best[0] == 1:
                break
        assert best is not None
        _, pr, pc = best

        while True:
            # Clear the pivot column by row operations; Euclidean swaps may
            # move the pivot to a row with a smaller entry.
            while True:
                others = [r for r in col_index.get(pc, ()) if r != pr]
                if not others:
                    break
                r2 = min(others)
                v = rows[pr][pc]
                v2 = rows[r2][pc]
                row_op(r2, pr, v2 // v)
                if r2 in rows and rows[r2].get(pc, 0):
                    pr = r2  # remainder is smaller; continue from there
            v = rows[pr][pc]
            # Clear the pivot row by column operations.  Only the pivot row
            # has an entry in column pc now, so each operation is local.
            offender = None
            for c2 in sorted(rows[pr]):
                if c2 == pc:
                    continue
                v2 = rows[pr][c2]
                q = v2 // v
                set_entry(pr, c2, v2 - q * v)
                if rows[pr].get(c2, 0):
                    offender = c2
                    break
            if offender is None:
                break
            pc = offender  # strictly smaller pivot; re-clear its column

        v = abs(rows[pr][pc])
        # Divisibility fix-up: the recorded factor must divide everything
        # that remains.  Folding an offending row into the pivot row shrinks
        # the pivot strictly, so this terminates.  A unit divides everything.
        offending_row = None
        if v != 1:
            for r2 in sorted(rows):
                if r2 != pr and any(val % v for val in rows[r2].values()):
                    offending_row = r2
                    break
        if offending_row is not None:
            row_op(pr, offending_row, -1)
            continue  # re-run with the same matrix; pivot search restarts
        diag.append(v)
        drop_row(pr)

    return diag
