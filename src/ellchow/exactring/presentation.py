"""Finitely presented graded rings over the integers.

A :class:`GradedPresentation` is a polynomial ring on named generators
modulo a finite list of homogeneous relations.  Each graded piece is a
finitely generated abelian group; all computations reduce to integer
linear algebra on the lattice spanned, in a fixed monomial basis, by the
products ``monomial * relation`` of the right degree.  A monomial is its
packed key (see the ``poly`` module) throughout: a basis is a list of
keys, a column is found by its key, and a product's key is a sum.

A relation that is ``+1`` or ``-1`` times a squarefree monomial, a
product of distinct generators such as an incompatible pair of boundary
divisors, is a *kill*: a basis monomial whose support contains a kill is
pruned from the enumeration instead of being carried into the lattice.
Dropping such monomials from an arbitrary polynomial is harmless because
a multiple of a killed monomial lies in the ideal, so the projection is
still a well-defined map of graded groups and is injective on the
quotient.  Most kills are pairs, such as those incompatible divisors:
each slot carries the mask of its two-slot kill partners, and the
enumeration prunes a slot with one AND against the partners of the slots
already chosen; only kills of other sizes are scanned, filed by their last
slot.  The same masks let a product row skip a term whose product with the
multiplier is killed without looking up its column.  Every other relation,
``l^6`` included, is a lattice row; a unit monomial row only reduces its
column to zero.

The relations are echelon-reduced in each degree and numbered by degree
ascending, then row.  A *pair* ``(m, j)`` of a basis monomial and a
relation gives the product row ``m * r_j``, killed terms dropped, and has
the *signature* ``m * LM(r_j)``, the Schreyer monomial, where ``LM`` is
the lex-largest term: signatures are ordered by that monomial in lex order,
then by ``j``.  Distinct pairs have distinct signatures, and the order is
multiplicative: ``x*s < x*s'`` when ``s < s'``.  Let ``S(s)`` be the span
of the rows of every pair below ``s`` in one degree.  A pair is skipped
only when its row lies in ``S`` of its signature, and then, by induction
on the signature order, the kept rows below every ``s`` span ``S(s)``: a
kept pair brings its own row, and a skipped one's row lies in ``S(s)``,
spanned by kept rows below ``s``.  So the kept rows span the lattice.  Two
criteria skip pairs.

* The product criterion: an earlier relation ``r_i`` has leading
  coefficient 1 and ``LM(r_i)`` divides ``m``.  With ``m = m' * LM(r_i)``,
  ``m*r_j = sum_{t in r_j} c_t (m' t) r_i - sum_{t in tail(r_i)} c_t (m' t) r_j``.
  The pairs on the right have signatures ``m t``, below ``m * LM(r_j)``
  unless ``t = LM(r_j)``, where ``i < j`` breaks the tie, and
  ``m' t LM(r_j)`` with ``t`` below ``LM(r_i)``: all below (a killed
  monomial gives zero rows).  These are Buchberger's Koszul syzygies with a
  unit leader; over the integers the criterion needs the unit.  A multiple
  of a skipped pair is skipped again.
* The syzygy criterion, the other half of Faugere's F5 (ISSAC 2002): for a
  generator ``x`` of degree 1 dividing ``m``, the pair ``(m/x, j)`` was
  *redundant* one degree down: skipped by this criterion, or its row left
  the lattice of the rows inserted before it, in signature order,
  unchanged.  Either way, by induction on the degree, its row lies in
  ``S(s/x)`` there.  A multiple of a killed monomial is killed, so ``x``
  times the row of a pair ``(m'', i)`` is the row of ``(x m'', i)``, and
  multiplicativity puts each such pair below ``s``.  A row that changes
  nothing is an integer combination of the rows before it, so over the
  integers the criterion needs no unit.

A *tensor product* of rings on disjoint symbols (``tensor_product``)
reduces one factor at a time: the terms are grouped by their monomial
outside a factor and each group's coefficient is reduced in the factor, a
polynomial within one factor in it alone.  A symbol ``x`` in no relation
and no kill, such as ``l`` on a stratum model, is *free*: the ring is
``Z[x]`` tensor the ring on the others.  This gives the canonical residue
``r`` when at most one factor ``k`` leads with more than 1 in the
staircases read, and ``k`` is reduced last; two such factors raise.  Every
relation lies in one factor, so a lattice and ``r`` (see the ``lattice``
module) split by the factors' degrees, on disjoint columns.  Where a factor
``i != k`` has a pivot at a monomial's part ``m_i``, its row there times the
rest leads at the monomial with 1 (a monomial order keeps leading terms; a
kill lies in one factor), so ``r`` has no term there; where ``k`` has a
pivot with leader ``a`` at ``m_k``, the rest times its row leads there with
``a``, so ``r``'s coefficient lies in ``[0, a)``.  So ``r`` reduces to
itself.  Reduction in a unit-led factor is Z-linear with the factor's ideal
as kernel, in ``k`` it depends only on the class of its input, and each
changes only its factor's parts: the result depends only on the class of
``f``, which is ``r``'s.  This is Buchberger's first criterion: Groebner
bases in disjoint variables join to one.

A relation list is parsed once, in the ring that owns it, into its kills
as masks of slots, the slots some relation or kill uses (the others are
free) and its lowest degree.  A tensor product takes these parts from its
factors, each mask moved to its own slots.  A ring ``renamed`` from another
keeping the symbol order and degrees keeps every slot, so it takes the
other's parts as they are, its very reduced relations, staircases and
degree map.  Neither walks a relation term: their relation polynomials are
built when ``relations`` or ``defining_relations()`` is first read.

A *degree map* is a monomial ``m*`` of degree ``t`` and a map ``∫`` on
monomials such that the degree-``t`` lattice is ``ker ∫``, ``∫(m*) = ±1``
(checked when first used), ``∫`` vanishes on every lex-smaller monomial,
and the ring is zero above degree ``t``.  There ``e_j - ∫(e_j) ∫(m*) m*``
leads at any column ``j`` left of ``m*``, and ``e_j`` at any to its right,
so the canonical residue of ``f`` is ``∫(f) ∫(m*) m*``, and 0 above ``t``:
no staircase is built there.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property, reduce
from operator import and_, or_
from typing import Callable, Iterable, Iterator, Sequence

from .lattice import Echelon, flat_from_pairs, smith_invariants_of_rows
from .poly import (
    DEGREE,
    FIELD_BITS,
    FIELDS_OF,
    MAX_DEGREE,
    IntPolynomial,
    Substitution,
    _poly,
    key_fields,
    symbol_key,
    unit_key,
)


def _moved(mask: int, slots: list[int]) -> int:
    """A mask of slots with slot ``i`` moved to ``slots[i]``."""
    out = 0
    while mask:
        out |= 1 << slots[(mask & -mask).bit_length() - 1]
        mask &= mask - 1
    return out


class PresentationError(Exception):
    """Raised for malformed presentations or out-of-contract arguments."""


class NotDivisibleError(PresentationError):
    """Raised when no quotient exists in :func:`divide_in_quotient`."""


@dataclass(frozen=True)
class InvariantFactors:
    """Structure of one graded piece: free rank and torsion orders
    (ascending divisibility)."""

    rank: int
    torsion: tuple[int, ...]


class GradedPresentation:
    """Z[symbols] / (relations), graded by total symbol degree."""

    def __init__(self, symbols: Sequence[str], relations: Iterable[IntPolynomial],
                 name: str = "", degree_map: tuple[IntPolynomial, Callable] | None = None
                 ) -> None:
        # The one walk over relation terms; ``used`` ORs the non-kill keys.
        self._set_symbols(symbols, name, degree_map)
        kills, kept, low, used = [], [], MAX_DEGREE + 1, 0
        for rel in relations:
            if rel.is_zero():
                continue
            if any(m | self._mask != self._mask for m, _ in rel.items()):
                unknown = rel.symbols_used() - set(self.symbols)
                raise PresentationError(f"relation uses unknown symbols {sorted(unknown)}")
            if not rel.is_homogeneous():
                raise PresentationError(f"relation not homogeneous: {rel.text()}")
            key, coeff = next(rel.items())
            low = min(low, key & DEGREE)
            fields = key_fields(key) if len(rel) == 1 and coeff in (1, -1) else ()
            if fields and {e for _, e in fields} == {1}:
                kills.append(sum(1 << self._slot_at[f] for f, _ in fields))
            else:
                kept.append(rel)
                used = reduce(or_, (m for m, _ in rel.items()), used)
        busy = reduce(or_, kills, 0) | sum(
            1 << i for i, u in enumerate(self._units) if used & DEGREE << u.bit_length() - 1)
        self._set_relations(kills, busy, low, lambda: kept)

    def _set_symbols(self, symbols: Iterable[str], name: str,
                     degree_map: tuple[IntPolynomial, Callable] | None) -> None:
        """The slot tables, monomial caches and degree map of a ring."""
        given = list(symbols)
        ordered = sorted(set(given), key=symbol_key)
        if len(ordered) != len(given):
            raise PresentationError("duplicate symbol names")
        self.symbols: tuple[str, ...] = tuple(ordered)
        self.name = name

        # A symbol's slot is its index in ``symbols``.  ``_units`` holds each
        # slot's key, ``_slot_at`` each field's slot, ``_mask`` the bits of the
        # ring's fields and of field 0 and ``_guard`` their spare top bits.
        self._units = [unit_key(nm) for nm in ordered]
        shifts = [u.bit_length() - 1 for u in self._units]  # each field's lowest bit
        self._slot_at = {s // FIELD_BITS: i for i, s in enumerate(shifts)}
        self._mask = sum(DEGREE << s for s in [0, *shifts])
        self._guard = sum(MAX_DEGREE + 1 << s for s in [0, *shifts])
        # the slots of degree 1
        self._linear = sum(1 << i for i, u in enumerate(self._units) if u & DEGREE == 1)
        self._basis_cache: dict[int, list[int]] = {}
        self._column_cache: dict[int, dict[int, int]] = {}
        # The degree map, its values, its m* and the degree ``_top`` of m*.
        self._degree_map, self._integrals = degree_map, {}
        self._star = next(degree_map[0].items())[0] if degree_map else None
        self._top = MAX_DEGREE + 1 if self._star is None else self._star & DEGREE

    def _set_relations(self, kills: list[int], busy: int, low: int,
                       relations: Callable[[], list[IntPolynomial]]) -> None:
        """A ring's parsed parts: its kill masks, the slots some relation or
        kill uses, their lowest degree and a builder of its other relations."""
        self._kill_masks, self._busy, self._low = kills, busy, low
        self._partners = [0] * len(self.symbols)  # each slot's two-slot kill partners
        self._kills_at: list[list[int]] = [[] for _ in self.symbols]  # other kills, by last slot
        for kill in kills:
            if kill.bit_count() == 2:
                low_slot, high_slot = (kill & -kill).bit_length() - 1, kill.bit_length() - 1
                self._partners[low_slot] |= 1 << high_slot
                self._partners[high_slot] |= 1 << low_slot
            else:
                self._kills_at[kill.bit_length() - 1].append(kill)
        self._free = next((nm for i, nm in enumerate(self.symbols) if not busy >> i & 1), None)
        self._splits: dict[IntPolynomial, tuple] = {}  # each divisor's terms, split by division
        self._build_relations = relations
        self._owner = self  # the ring whose relations fill ``_reduced_rels``
        self._lattice_cache: dict[int, Echelon] = {}
        self._reduced_rels: dict[int, list[list]] = {}
        # the redundant pairs of a degree's build, kept for the next degree's
        self._redundant: dict[int, dict[int, dict[int, int]]] = {}
        self._factors: tuple[GradedPresentation, ...] = ()  # of a tensor product

    @cached_property
    def relations(self) -> list[IntPolynomial]:
        """The relations other than kills, in input order."""
        return self._build_relations()

    @classmethod
    def tensor_product(cls, factors: Sequence[GradedPresentation],
                       name: str) -> GradedPresentation:
        """The tensor product of rings on disjoint symbols, reduced one factor
        with a relation or a kill at a time (see the module docstring)."""
        ring = cls.__new__(cls)
        ring._set_symbols([nm for r in factors for nm in r.symbols], name, None)
        slot = {nm: i for i, nm in enumerate(ring.symbols)}
        moves = [(r, [slot[nm] for nm in r.symbols]) for r in factors]
        ring._set_relations(
            [_moved(kill, to) for r, to in moves for kill in r._kill_masks],
            reduce(or_, (_moved(r._busy, to) for r, to in moves), 0),
            min((r._low for r in factors), default=MAX_DEGREE + 1),
            lambda: [rel for r in factors for rel in r.relations])
        ring._factors = tuple(r for r in factors if r._low <= MAX_DEGREE)
        return ring

    def renamed(self, names: Sequence[str], name: str) -> GradedPresentation:
        """This ring with its ``i``-th symbol named ``names[i]``, holding this
        ring's parsed parts and staircases; a renaming that changes the
        symbol order or a symbol's degree is refused (see the module
        docstring)."""
        names = tuple(names)
        if (tuple(sorted(set(names), key=symbol_key)) != names or
                [unit_key(nm) & DEGREE for nm in names] != [u & DEGREE for u in self._units]):
            raise PresentationError(f"renaming {', '.join(self.symbols)} to {', '.join(names)} "
                                    "changes the symbol order or a degree")
        rename = Substitution(dict(zip(self.symbols, map(IntPolynomial.symbol, names))).get)
        degree_map = self._degree_map and (rename(self._degree_map[0]), self._degree_map[1])
        ring = GradedPresentation.__new__(GradedPresentation)
        ring._set_symbols(names, name, degree_map)
        ring._set_relations(self._kill_masks, self._busy, self._low,
                            lambda: [rename(rel) for rel in self.relations])
        ring._owner, ring._lattice_cache, ring._reduced_rels, ring._redundant = (
            self._owner, self._lattice_cache, self._reduced_rels, self._redundant)
        return ring

    # -- monomial bookkeeping ------------------------------------------------

    def defining_relations(self) -> list[IntPolynomial]:
        """The relations, then each kill as its squarefree monomial, in
        input order: a list that presents the same ring."""
        return self.relations + [
            IntPolynomial({sum(u for i, u in enumerate(self._units) if kill >> i & 1): 1})
            for kill in self._kill_masks]

    def basis(self, degree: int) -> list[int]:
        """The keys of the pruned monomial basis of the given degree, in
        canonical order (exponent vectors descending-lexicographic over the
        symbol order), cached."""
        cached = self._basis_cache.get(degree)
        if cached is None:
            cached = self._basis_cache.setdefault(
                degree, [key for key, *_ in self._enumeration(degree, [0] * len(self.symbols))])
        return cached

    def _enumeration(self, degree: int, slot_keys: list[int]
                     ) -> list[tuple[int, int, int, int]]:
        """Each basis key of one degree with its slots, the slots their
        pair-kill partners ban and the sum of ``slot_keys`` to its exponents
        (its slot-packed key), made afresh for product rows.  Slots are
        added in ascending order, exponents descending; the next slot is the
        lowest above the last that is not banned, so a monomial holding a
        pair kill is never reached.  A kill of another size lies in the
        support exactly when it does as its last slot is added."""
        if degree > MAX_DEGREE:
            raise ValueError(f"monomial degree {degree} exceeds {MAX_DEGREE}")
        out: list[tuple[int, int, int, int]] = []
        units, kills_at, partners = self._units, self._kills_at, self._partners
        everything = (1 << len(units)) - 1

        def rec(start: int, remaining: int, key: int, support: int, banned: int,
                packed: int) -> None:
            if remaining == 0:
                out.append((key, support, banned, packed))
                return
            slots = ~banned & everything >> start << start
            while slots:
                bit = slots & -slots
                slots ^= bit
                i = bit.bit_length() - 1
                grown = support | bit
                if kills_at[i] and any(kill & grown == kill for kill in kills_at[i]):
                    continue
                u, s = units[i], slot_keys[i]
                d = u & DEGREE
                for e in range(remaining // d, 0, -1):
                    rec(i + 1, remaining - e * d, key + e * u, grown, banned | partners[i],
                        packed + e * s)

        if degree >= 0:
            rec(0, degree, 0, 0, 0, 0)
        return out

    def _columns(self, degree: int) -> dict[int, int]:
        """The column of each basis key of one degree (cached); a monomial of
        the ring and this degree is killed exactly when its key is missing."""
        if degree not in self._column_cache:
            self._column_cache[degree] = {key: i for i, key in enumerate(self.basis(degree))}
        return self._column_cache[degree]

    def vector(self, f: IntPolynomial, degree: int) -> list:
        """Flat coordinate row of a homogeneous polynomial in the pruned
        basis; killed monomials project to zero."""
        index = self._columns(degree)
        pairs: list[tuple[int, int]] = []
        for key, coeff in f.items():
            col = index.get(key)
            if col is not None:
                pairs.append((col, coeff))
                continue
            if key | self._mask != self._mask:
                self._refuse(key)
            if key & DEGREE != degree:
                term = IntPolynomial({key: coeff})
                raise PresentationError(f"term {term.text()} is not of degree {degree}")
        return flat_from_pairs(pairs)

    def from_vector(self, flat: list, degree: int) -> IntPolynomial:
        basis = self.basis(degree)
        return _poly({basis[col]: c for col, c in zip(flat[::2], flat[1::2])})

    # -- the relation lattice -------------------------------------------------

    def _reduced_relations(self, delta: int) -> list[list]:
        """The staircase rows of the degree-``delta`` relations (cached)."""
        if delta not in self._reduced_rels:
            owner, ech = self._owner, Echelon()
            for rel in owner.relations:
                if next(rel.items())[0] & DEGREE == delta:
                    ech.insert(owner.vector(rel, delta))
            self._reduced_rels[delta] = ech.rows
        return self._reduced_rels[delta]

    def _product_rows(self, degree: int, below: dict[int, dict[int, int]],
                      record: dict[int, dict[int, int]]
                      ) -> Iterator[tuple[tuple[int, int, int, int], list]]:
        """The signature and nonzero flat row ``vector(mono * r_j, degree)``
        of each kept pair ``(mono, j)`` of the echelon-reduced relations:
        relation degrees ascending, then multipliers ``mono`` in basis order,
        then relations in list order.  Both criteria of the module docstring
        skip pairs.  The product criterion: a multiple of the leading
        monomial of an earlier relation with leading coefficient 1 gives no
        row; a multiplier scans for the first such ``r_p`` and keeps
        ``j <= p``.  The syzygy criterion: ``(mono, j)`` gives no row when
        ``below``, the record of the degree below, holds ``(mono / x, j)``
        for a generator ``x`` of degree 1; the pair is entered in ``record``.
        A record maps a relation degree to a map from a multiplier's column
        to the mask of the rows ``j`` of its redundant pairs, so a renamed
        ring reads it as it is.  With no record below, the rows are those
        the product criterion keeps, in generation order.

        A signature is the tuple of the slot-packed key of ``mono * LM(r_j)``
        (slot ``i``'s exponent in field ``n - 1 - i``, fields wide enough for
        the degree), ``r_j``'s degree and row, and ``mono``'s column: it
        orders the pairs as the module docstring does and names its own.

        The column of a product is looked up in the index that ``vector``
        reads, by the sum of its factors' keys.  Distinct relation monomials
        have distinct products, so a row is its sorted pairs.  A unit leader
        is the key of its relation's first term; ``guard`` sets the spare top
        bit of field 0 and of every field of the ring, and such a bit
        survives ``(key | guard) - lead`` without a borrow into the next
        field exactly when that field of ``key`` is at least the leader's.

        A product holding a two-slot kill has no column, so it is skipped
        without a lookup: a term when the multiplier's slot mask, read from
        the basis enumeration, meets the term's partners' mask, and a whole
        relation when it meets the slots in the partners' masks of all its
        terms.  The rows and their order are those of looking up every term.
        """
        index = self._columns(degree)
        guard, linear, units = self._guard, self._linear, self._units
        bits = degree.bit_length()
        slot_keys = [1 << bits * i for i in reversed(range(len(units)))]

        earlier: list[tuple[int, int]] = []  # lower degrees' unit leaders
        for delta in range(self._low, degree + 1):
            rows = self._reduced_relations(delta)
            if not rows:
                continue
            leaves = self._enumeration(delta, slot_keys)
            # each term with the slots it bans, each relation with those all its terms ban
            # (the syzygy record does not replace this skip: sweep5 ran 7% slower without it)
            rel_terms = [[(leaves[col][0], c, leaves[col][2]) for col, c in zip(r[::2], r[1::2])]
                         for r in rows]
            rel_bans = [reduce(and_, (b for _, _, b in terms)) for terms in rel_terms]
            leads = [leaves[r[0]][3] for r in rows]  # the slot-packed leaders
            # a multiple of the unit leader of relation j keeps rows 0..j; the syzygy record
            # misses some of these pairs: without this cut, degree 2 of keel(1..6) inserts 712
            # rows in 16.9 ms, with it 623 in 8.7 ms (2-core x86-64, Python 3.11.7)
            cuts = earlier + [(j + 1, terms[0][0])
                              for j, terms in enumerate(rel_terms) if terms[0][1] == 1]
            earlier += [(0, lead) for _, lead in cuts[len(earlier):]]
            lower = below.get(delta)  # the redundant pairs one degree down
            columns = lower and self._columns(degree - 1 - delta)
            marks = record.setdefault(delta, {})
            for place, (key, support, _, packed) in enumerate(
                    self._enumeration(degree - delta, slot_keys)):
                probe = guard | key
                keep = next((n for n, lead in cuts if probe - lead & guard == guard),
                            len(rows))
                dead = 0  # the rows j whose pair with mono / x is redundant
                if lower:
                    slots = support & linear
                    while slots:
                        bit = slots & -slots
                        slots ^= bit
                        dead |= lower.get(columns[key - units[bit.bit_length() - 1]], 0)
                    if dead:
                        marks[place] = dead
                for j, (terms, banned) in enumerate(zip(rel_terms[:keep], rel_bans)):
                    if support & banned or dead >> j & 1:
                        continue
                    pairs = sorted(
                        (col, c)
                        for k, c, b in terms
                        if not support & b and (col := index.get(key + k)) is not None
                    )
                    if pairs:
                        yield (leads[j] + packed, delta, j, place), [x for p in pairs for x in p]

    def lattice(self, degree: int) -> Echelon:
        """The staircase of the degree-``degree`` relation lattice (cached).

        The degree below is built first, and its record of redundant pairs
        lets :meth:`_product_rows` skip their multiples (the syzygy
        criterion of the module docstring).  The kept rows are inserted in
        signature order, the pairs whose row left the lattice as it was are
        entered in this degree's record, and the record below is dropped.
        A ring with a degree map keeps no record from one below its top
        degree on, where no staircase is built, and builds no degree below
        for it.  A record that a race of threads dropped only loses pruning.

        Where ``mono * LM(r_j)`` is not killed, the signature order is the
        descending order of the row's leading column.  On the six-marking
        genus-zero ring in degree 3 it stores 65% of the entries that
        generation order stores, and inserts them in 43% of the time; with
        the syzygy criterion, 2,489 of the 4,586 rows are inserted, in a
        seventh of the time.  The order cannot change any result, because
        the staircase residue is canonical for the lattice (see the
        ``lattice`` module): the rank, the pivot columns and their leading
        coefficients, residues and normal forms depend only on the span.
        The rows are sorted and popped from the end, so each is freed once
        inserted.  Every query on the graded piece reads this staircase:
        residues, membership, the rank, and the Smith invariants, which
        diagonalise its rows since they span the same lattice as the
        product rows.
        """
        cached = self._lattice_cache.get(degree)
        if cached is not None:
            return cached
        if self._low < degree < self._top:
            self.lattice(degree - 1)
        keep = self._low <= degree < self._top - 1
        record: dict[int, dict[int, int]] = {}
        rows = list(self._product_rows(degree, self._redundant.get(degree - 1, {}), record))
        rows.sort(reverse=True)  # signatures are distinct, so rows are never compared
        ech = Echelon()
        while rows:
            (_, delta, j, col), row = rows.pop()
            if not ech.insert(row) and keep:
                record[delta][col] = record[delta].get(col, 0) | 1 << j
        ech = self._lattice_cache.setdefault(degree, ech)
        if keep and degree + 1 not in self._lattice_cache:
            self._redundant[degree] = record
        self._redundant.pop(degree - 1, None)
        return ech

    # -- queries ---------------------------------------------------------------

    def reduces_to_zero(self, f: IntPolynomial) -> bool:
        """Whether ``f`` is zero in the quotient."""
        return self.normal_form(f).is_zero()

    def normal_form(self, f: IntPolynomial) -> IntPolynomial:
        """The canonical staircase residue of ``f``; one factor at a time in a
        tensor product, ``f`` below every relation and kill, and from the
        degree map in its degree and above (see the module docstring)."""
        if not f:
            return f
        support = reduce(or_, (key for key, _ in f.items()))
        if support | self._mask != self._mask:
            self._refuse(support)
        if self._low > MAX_DEGREE:  # no relation and no kill
            return f
        if self._factors:
            return self._factor_form(f, support)
        parts = [comp if d < self._low else
                 self._top_form(comp) if d == self._top else
                 IntPolynomial.zero() if d > self._top else
                 self.from_vector(self.lattice(d).residue(self.vector(comp, d)), d)
                 for d, comp in f.homogeneous_components().items()]
        return parts[0] if len(parts) == 1 else sum(parts, IntPolynomial.zero())

    def _factor_form(self, f: IntPolynomial, support: int) -> IntPolynomial:
        """The normal form of ``f`` one factor at a time (module docstring)."""
        touched = [r for r in self._factors if support & r._mask & ~DEGREE or not r._low]
        if len(touched) == 1 and support | touched[0]._mask == touched[0]._mask:
            return touched[0].normal_form(f)
        odd = None  # the factor whose staircases read lead with more than 1
        for ring in touched:
            f, degrees = ring._reduce_parts(f)
            if len(touched) > 1 and any(row[1] != 1 for d in degrees if ring._low <= d < ring._top
                                        for row in ring.lattice(d).rows):
                if odd:
                    raise PresentationError(f"{odd.name} and {ring.name} both lead with more "
                                            f"than 1 in {self.name}: no factor-wise residue")
                odd = ring
        return f if odd is None or odd is touched[-1] else odd._reduce_parts(f)[0]

    def _reduce_parts(self, f: IntPolynomial) -> tuple[IntPolynomial, set[int]]:
        """``f`` with the coefficient of each monomial outside this factor
        reduced here, and the degrees of those coefficients."""
        fields, groups = self._mask & ~DEGREE, {}
        for key, c in f.items():
            bits = key & fields  # the part's fields, and then its degree
            part = bits + sum(e * (self._units[self._slot_at[i]] & DEGREE)
                              for i, e in FIELDS_OF[bits])
            groups.setdefault(key - part, {})[part] = c
        terms = {rest + key: c for rest, part in groups.items()
                 for key, c in self.normal_form(_poly(part)).items()}
        return _poly(terms), {key & DEGREE for part in groups.values() for key in part}

    def _refuse(self, support: int) -> None:
        """Raise for the first symbol outside the ring in a support."""
        unknown = IntPolynomial({support & ~self._mask: 1}).symbols_used()
        raise PresentationError(f"unknown symbol {min(unknown, key=symbol_key)!r}")

    def _top_form(self, f: IntPolynomial) -> IntPolynomial:
        """The normal form ``∫(f) * ∫(m*) * m*`` of ``f`` of the degree of
        ``m*``, the staircase's one non-pivot column (see the module
        docstring)."""
        unit = self._integral(self._star)
        if unit not in (1, -1):
            raise PresentationError(f"the degree map of {self.name} is {unit} on "
                                    f"{self._degree_map[0].text()}, not +1 or -1")
        total = sum(c * self._integral(key) for key, c in f.items())
        return _poly({self._star: unit * total} if total else {})

    def _integral(self, key: int) -> int:
        """The degree map on one monomial (cached by key), read on the names
        of the ring that owns the relations: a renamed ring keeps its map."""
        if key not in self._integrals:
            self._integrals[key] = self._degree_map[1](
                [(self._owner.symbols[self._slot_at[f]], e) for f, e in key_fields(key)])
        return self._integrals[key]

    def smith_invariants(self, degree: int) -> InvariantFactors:
        diag = smith_invariants_of_rows(self.lattice(degree).rows)
        return InvariantFactors(
            rank=len(self.basis(degree)) - len(diag),
            torsion=tuple(d for d in diag if d > 1),
        )

    def hilbert_function(self, d_max: int) -> list[int]:
        return [len(self.basis(d)) - self.lattice(d).rank for d in range(d_max + 1)]

    # -- division ----------------------------------------------------------------

    def divide_in_quotient(self, g: IntPolynomial, c: IntPolynomial) -> IntPolynomial:
        """Some ``h`` with ``h*c = g`` in the quotient ring, returned in
        normal form; raises :class:`NotDivisibleError` when none exists.

        The divisor must have leading coefficient ``+1`` or ``-1`` in the
        ring's first free symbol ``x``, such as ``l`` in ``ctop_tail``; the
        ring is then free over the ring on its other symbols, on the powers
        of ``x`` (see the module docstring), and the quotient is unique.
        Long division runs on ``g``'s terms by their power of ``x``, with
        each divisor split once per ring.  Each nonzero quotient coefficient
        (the remainder's leading ``x``-coefficient times the sign) is reduced
        before it meets the divisor: reducing only the final quotient and
        remainder reduced 13 times the terms and ran sweep5 4 times slower;
        dividing residual monomials one by one, by linearity and a memo,
        gained nothing there and made lift6's divisions 2.7 times slower.
        ``g`` is a multiple exactly when the remainder reduces to zero, which
        one call decides, as reduction keeps powers of ``x`` apart.  Any
        other divisor, or a ring with no free symbol, is outside the
        contract: it raises :class:`PresentationError`.
        """
        if c.is_zero():
            raise PresentationError("division by the zero class")
        if not (g.is_homogeneous() and c.is_homogeneous()):
            raise PresentationError("divide_in_quotient expects homogeneous input")
        if (split := self._splits.get(c)) is None:  # the terms of c by their power of x
            unit = unit_key(self._free) if self._free is not None else 0
            shift = unit.bit_length() - 1  # the lowest bit of x's field
            powers = [(key >> shift & DEGREE, key, v) for key, v in c.items()] if unit else []
            top = max((e for e, _, _ in powers), default=0)
            lead = [(key, v) for e, key, v in powers if e == top]
            if lead not in ([(top * unit, 1)], [(top * unit, -1)]):
                raise PresentationError(f"divisor {c.text()} has no leading coefficient +1 or "
                                        "-1 in the first symbol free of the relations")
            split = self._splits.setdefault(c, (lead[0][1], top, unit, shift, tuple(
                (e, key - e * unit, v) for e, key, v in powers if e < top)))
        sign, top, unit, shift, tail = split
        rem: dict[int, dict[int, int]] = {}  # a power of x -> its coefficient's terms
        for key, v in g.items():
            rem.setdefault(e := key >> shift & DEGREE, {})[key - e * unit] = v
        quotient: dict[int, int] = {}
        for k in range(max(rem, default=-1), top - 1, -1):
            terms = {key: sign * v for key, v in rem.pop(k, {}).items() if v}
            if not terms or not (part := self.normal_form(_poly(terms))):
                continue
            quotient.update({key + (k - top) * unit: v for key, v in part.items()})
            for j, tail_key, d in tail:
                bucket = rem.setdefault(k - top + j, {})
                for key, v in part.items():
                    bucket[key + tail_key] = bucket.get(key + tail_key, 0) - v * d
        rest = {key + j * unit: v for j, terms in rem.items() for key, v in terms.items() if v}
        if rest and (left := self.normal_form(_poly(rest))):
            raise NotDivisibleError(f"remainder {left.text()} does not vanish")
        return _poly(quotient)
