"""Integer lattices inside a free module Z^N.

Wraps the flat-row echelon kernel in a small class API and adds a sparse
Smith-normal-form routine for extracting invariant factors.  The kernel is
chosen at import time: the compiled extension when available, otherwise the
pure-Python twin.  Setting the environment variable ``ELLCHOW_PURE_KERNEL``
to a non-empty value forces the pure kernel (useful for benchmarking and
for debugging suspected kernel issues).
"""

from __future__ import annotations

import os
from typing import Iterable

if os.environ.get("ELLCHOW_PURE_KERNEL"):
    from . import _echelon_py as _kernel

    KERNEL_NAME = "pure"
else:
    try:
        from . import _echelon_c as _kernel  # type: ignore[attr-defined]

        KERNEL_NAME = "compiled"
    except ImportError:
        from . import _echelon_py as _kernel

        KERNEL_NAME = "pure"

xgcd = _kernel.xgcd
row_combine = _kernel.row_combine


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
        _kernel.insert_row(self.rows, self.pivots, row)

    def residue(self, row: list) -> list:
        return _kernel.reduce_row(self.rows, self.pivots, row)

    def contains(self, row: list) -> bool:
        return not _kernel.reduce_row(self.rows, self.pivots, row)

    @property
    def rank(self) -> int:
        return len(self.rows)

    def copy(self) -> "Echelon":
        # Neither kernel mutates a stored row in place: ``insert_row`` only
        # rebinds ``rows[j]`` and appends fresh rows.  So the copy may share
        # the row lists, and only the outer list and the pivot map are new.
        dup = Echelon.__new__(Echelon)
        dup.rows = list(self.rows)
        dup.pivots = dict(self.pivots)
        return dup


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
        # Smallest-magnitude pivot, deterministic tie-break.
        best: tuple[int, int, int] | None = None
        for r in sorted(rows):
            for c in sorted(rows[r]):
                a = abs(rows[r][c])
                if best is None or (a, r, c) < best:
                    best = (a, r, c)
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
        # the pivot strictly, so this terminates.
        offending_row = None
        for r2 in sorted(rows):
            if r2 == pr:
                continue
            if any(val % v for val in rows[r2].values()):
                offending_row = r2
                break
        if offending_row is not None:
            row_op(pr, offending_row, -1)
            continue  # re-run with the same matrix; pivot search restarts
        diag.append(v)
        drop_row(pr)

    return diag
