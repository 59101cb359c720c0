"""Finitely presented graded rings over the integers.

A :class:`GradedPresentation` is a polynomial ring on named generators
modulo a finite list of homogeneous relations.  Each graded piece is a
finitely generated abelian group; all computations reduce to integer
linear algebra on the lattice spanned, in a fixed monomial basis, by the
products ``monomial * relation`` of the right degree.

A relation that is ``+1`` or ``-1`` times a squarefree monomial, a
product of distinct generators such as an incompatible pair of boundary
divisors, is a *kill*: a basis monomial whose support contains a kill is
pruned from the enumeration instead of being carried into the lattice.
Dropping such monomials from an arbitrary polynomial is harmless because
a multiple of a killed monomial lies in the ideal, so the projection is
still a well-defined map of graded groups and is injective on the
quotient.  Every other relation, ``l^6`` included, is a lattice row; a
unit monomial row only reduces its column to zero.

A product row ``m * r_j`` is redundant when an earlier relation ``r_i``
(degree ascending, then list order, each echelon-reduced in its degree)
has leading coefficient 1 and its leading monomial ``LM(r_i)``, the
lex-largest term, divides ``m``: with ``m = m' * LM(r_i)``,
``m*r_j = sum_{t in r_j} c_t (m' t) r_i - sum_{t in tail(r_i)} c_t (m' t) r_j``,
and each ``m' t`` of the second sum is lex-smaller than ``m``, so by
induction on ``j`` and then on ``m`` in lex order the kept rows span every
product (a killed multiplier gives zero rows on both sides).  This is
Buchberger's product criterion, the Koszul syzygies Faugere's F5 drops
(ISSAC 2002); over the integers it needs the unit coefficient.

A symbol ``x`` in no relation and no kill, such as ``l`` on a stratum
model, is *free*, and the ring on the other symbols with the same
relations and kills is the *``x``-free ring*.  Every product row
``mono * rel`` lies in the power of ``x`` that ``mono`` carries, so each
degree's lattice is a direct sum of one block per power of ``x``, and the
block of ``x^i`` is the ``x``-free lattice ``i * deg(x)`` degrees down,
with its columns in the same relative order.  When ``x`` is not the first
symbol the blocks interleave in column order, but their columns are
still disjoint, so the part of a lattice vector in one block is itself a
lattice vector.  The lattice then has the pivot columns and leading
coefficients of its blocks together, and its canonical residue (see the
``lattice`` module) is the sum of the blocks' residues: the normal form
of ``f`` is the sum over ``i`` of ``x^i`` times the ``x``-free normal
form of the ``x^i``-coefficient of ``f``.  A ring with a free symbol
records the first one in symbol order as ``x`` and caches its ``x``-free
ring; it reduces, tests for zero and divides there, and builds only
``x``-free staircases.

The ``x``-free rings share staircases, not bases: two of them that are
equal up to an order-preserving renaming of their symbols (same symbol
degrees in symbol order, same relations in the same order written with
symbol slots, same kill masks) enumerate the same basis positions,
each monomial renamed, and have the same product rows, so their
``lattice(d)`` is the same staircase, built once; each ring enumerates
its own basis.  The boundary ring of a block depends only on how many
markings it has, so stratum models whose markings are relabelled in
symbol order are such rings, e.g. those of ``1 2 3 4|5`` and
``1|2 3 4 5``.
"""

from __future__ import annotations

from collections import defaultdict
from dataclasses import dataclass
from functools import cached_property
from typing import Iterable, Sequence

from .lattice import Echelon, flat_from_pairs, smith_invariants_of_rows
from .poly import (
    IntPolynomial,
    Mono,
    mono_degree,
    symbol_degree,
    symbol_key,
)


# The staircases of the x-free rings, by signature up to an order-preserving
# renaming of symbols (see the module docstring).
_STAIRCASES: dict[tuple, dict[int, Echelon]] = {}


class PresentationError(Exception):
    """Raised for malformed presentations or out-of-contract arguments."""


class NotDivisibleError(PresentationError):
    """Raised when no quotient exists in :func:`divide_in_quotient`."""


@dataclass(frozen=True)
class InvariantFactors:
    """Structure of one graded piece: free rank and torsion orders
    (ascending divisibility)."""

    degree: int
    rank: int
    torsion: tuple[int, ...]


def _pack(shift: dict[str, int], mono: Mono) -> int:
    """The packed key of ``mono`` under one degree's symbol shifts."""
    try:
        return sum(e << shift[nm] for nm, e in mono)
    except KeyError as err:
        raise PresentationError(f"unknown symbol {err.args[0]!r}") from None


class GradedPresentation:
    """Z[symbols] / (relations), graded by total symbol degree."""

    def __init__(
        self,
        symbols: Sequence[str],
        relations: Iterable[IntPolynomial],
        name: str = "",
    ) -> None:
        ordered = sorted(set(symbols), key=symbol_key)
        if len(ordered) != len(list(symbols)):
            raise PresentationError("duplicate symbol names")
        self.symbols: tuple[str, ...] = tuple(ordered)
        self.name = name
        sym_set = set(ordered)

        # Every internal encoding reads a symbol by its slot, its index in
        # ``symbols``.  A kill is the bit mask of its slots, filed under its
        # last slot; a monomial of degree ``d`` packs to its exponents shifted
        # into bit fields of one width per degree (see ``_columns``).
        self._slots = {nm: i for i, nm in enumerate(ordered)}
        self._kills: list[int] = []
        self.relations: list[IntPolynomial] = []
        self._rels_by_degree: dict[int, list[IntPolynomial]] = {}
        used: set[str] = set()

        for rel in relations:
            if rel.is_zero():
                continue
            names = rel.symbols_used()
            if not names <= sym_set:
                raise PresentationError(
                    f"relation uses unknown symbols {sorted(names - sym_set)}")
            degrees = {mono_degree(m) for m, _ in rel.items()}
            if len(degrees) > 1:
                raise PresentationError(f"relation not homogeneous: {rel.text()}")
            mono, coeff = next(rel.items())
            if len(rel) == 1 and coeff in (1, -1) and {e for _, e in mono} == {1}:
                self._kills.append(sum(1 << self._slots[nm] for nm, _ in mono))
            else:
                self.relations.append(rel)
                self._rels_by_degree.setdefault(degrees.pop(), []).append(rel)
                used |= names

        self._kills_at: list[list[int]] = [[] for _ in ordered]
        covered = 0
        for kill in self._kills:
            self._kills_at[kill.bit_length() - 1].append(kill)
            covered |= kill

        self._basis_cache: dict[int, list[Mono]] = {}
        self._column_cache: dict[int, tuple[dict[str, int], dict[int, int]]] = {}
        self._lattice_cache: dict[int, Echelon] = {}
        self._reduced_rels: dict[int, list[list]] = {}

        # The first symbol in no relation and no kill, if any; relations are
        # fixed from here on, so it is too.
        self._free: str | None = next((nm for i, nm in enumerate(ordered)
                                       if nm not in used and not covered >> i & 1), None)

    # -- monomial bookkeeping ------------------------------------------------

    def defining_relations(self) -> list[IntPolynomial]:
        """The relations, then each kill as its squarefree monomial, in
        input order: a list that presents the same ring."""
        return self.relations + [
            IntPolynomial.monomial(tuple(
                (nm, 1) for i, nm in enumerate(self.symbols) if kill >> i & 1
            ))
            for kill in self._kills
        ]

    def basis(self, degree: int) -> list[Mono]:
        """Pruned monomial basis of the given degree, in canonical order
        (exponent vectors descending-lexicographic over the symbol order)."""
        cached = self._basis_cache.get(degree)
        if cached is not None:
            return cached
        if degree < 0:
            return self._basis_cache.setdefault(degree, [])
        out = []
        syms = self.symbols
        kills_at = self._kills_at
        chosen: list[tuple[str, int]] = []

        def rec(i: int, remaining: int, support: int) -> None:
            if remaining == 0:
                out.append(tuple(chosen))
                return
            if i == len(syms):
                return
            # Slots are added in order, so a kill lies in the support exactly
            # when it does as its last slot is added.
            grown = support | 1 << i
            for kill in kills_at[i]:
                if kill & grown == kill:
                    break
            else:
                nm = syms[i]
                d = symbol_degree(nm)
                for e in range(remaining // d, 0, -1):
                    chosen.append((nm, e))
                    rec(i + 1, remaining - e * d, grown)
                    chosen.pop()
            rec(i + 1, remaining, support)

        rec(0, degree, 0)
        return self._basis_cache.setdefault(degree, out)

    def _columns(self, degree: int) -> tuple[dict[str, int], dict[int, int]]:
        """Each symbol's shift and the column of each basis monomial's packed
        key in one degree (cached).

        Slot ``i`` gets a bit field of width ``degree.bit_length() + 1``
        (packed exponent vectors, Monagan-Pearce, CASC 2007) whose top bit is
        spare, always 0 in a key, so that ``_product_rows`` can compare all
        exponents of two keys at once.  No exponent of a degree-``degree``
        monomial exceeds ``degree < 2**(width - 1)``, so its key is injective
        whatever the order of its symbols, the keys of two factors add
        without carry to the key of the product, and a monomial is killed
        exactly when its key is missing from the index.
        """
        cached = self._column_cache.get(degree)
        if cached is not None:
            return cached
        width = degree.bit_length() + 1
        shift = {nm: i * width for i, nm in enumerate(self.symbols)}
        index = {_pack(shift, m): i for i, m in enumerate(self.basis(degree))}
        return self._column_cache.setdefault(degree, (shift, index))

    def vector(self, f: IntPolynomial, degree: int) -> list:
        """Flat coordinate row of a homogeneous polynomial in the pruned
        basis; killed monomials project to zero."""
        shift, index = self._columns(degree)
        pairs: list[tuple[int, int]] = []
        for mono, coeff in f.items():
            if mono_degree(mono) != degree:
                raise PresentationError(
                    f"term {IntPolynomial.monomial(mono, coeff).text()} "
                    f"is not of degree {degree}"
                )
            col = index.get(_pack(shift, mono))
            if col is not None:
                pairs.append((col, coeff))
        return flat_from_pairs(pairs)

    def from_vector(self, flat: list, degree: int) -> IntPolynomial:
        basis = self.basis(degree)
        terms = {basis[flat[i]]: flat[i + 1] for i in range(0, len(flat), 2)}
        return IntPolynomial(terms)

    # -- the relation lattice -------------------------------------------------

    def _reduced_relations(self, delta: int) -> list[list]:
        """The staircase rows of the degree-``delta`` relations (cached)."""
        if delta not in self._reduced_rels:
            ech = Echelon()
            for rel in self._rels_by_degree.get(delta, []):
                ech.insert(self.vector(rel, delta))
            self._reduced_rels[delta] = ech.rows
        return self._reduced_rels[delta]

    def _product_rows(self, degree: int) -> Iterable[list]:
        """The nonzero flat rows ``vector(mono * rel, degree)`` of the
        echelon-reduced relations: relation degrees ascending, then
        multipliers ``mono`` in basis order, then relations in list order;
        but a multiple of the leading monomial of an earlier relation with
        leading coefficient 1 gives no row (the product criterion, proved in
        the module docstring from ``m' * LM(r_i) = m' * (r_i - tail(r_i))``).
        A multiplier scans for the first such ``r_p`` and keeps ``j <= p``.

        The column of a product is looked up in the packed index that
        ``vector`` reads, by the sum of its factors' keys (see ``_columns``).
        Distinct relation monomials have distinct products, so a row is its
        sorted pairs.  A unit leader is the key of its relation's first term;
        ``guard`` sets the spare top bit of every field, and a field's top
        bit survives ``(key | guard) - lead`` without a borrow into the next
        field exactly when its exponent in ``key`` is at least the leader's.
        """
        shift, index = self._columns(degree)
        guard = sum(1 << s + degree.bit_length() for s in shift.values())

        earlier: list[tuple[int, int]] = []  # lower degrees' unit leaders
        for delta in sorted(d for d in self._rels_by_degree if d <= degree):
            rows, basis = self._reduced_relations(delta), self.basis(delta)
            rel_terms = [
                [(_pack(shift, basis[col]), c) for col, c in zip(r[::2], r[1::2])]
                for r in rows
            ]
            # a multiple of the unit leader of relation j keeps rows 0..j
            cuts = earlier + [(j + 1, terms[0][0])
                              for j, terms in enumerate(rel_terms) if terms[0][1] == 1]
            earlier += [(0, lead) for _, lead in cuts[len(earlier):]]
            for mono in self.basis(degree - delta) if rows else ():
                probe = guard | (key := _pack(shift, mono))
                keep = next((n for n, lead in cuts if probe - lead & guard == guard),
                            len(rows))
                for terms in rel_terms[:keep]:
                    pairs = sorted(
                        (col, c)
                        for k, c in terms
                        if (col := index.get(key + k)) is not None
                    )
                    if pairs:
                        yield [x for pair in pairs for x in pair]

    def lattice(self, degree: int) -> Echelon:
        """The staircase of the degree-``degree`` relation lattice (cached).

        Product rows are inserted by descending leading column, ties by
        shorter row first (structured elimination, LaMacchia–Odlyzko 1990).
        On the six-marking genus-zero ring to degree 3 this stores 63% of
        the entries that generation order stores, with coefficients of
        3 bits instead of 4.  The order cannot change any result, because
        the staircase residue is canonical for the lattice (see the
        ``lattice`` module): the rank, the pivot columns and their leading
        coefficients, residues and normal forms depend only on the span.
        The rows are sorted ascending and popped from the end, so each is
        freed once inserted.  Every query on the graded piece reads this
        staircase: residues, membership, the rank, and the Smith invariants,
        which diagonalise its rows since they span the same lattice as the
        product rows.
        """
        cached = self._lattice_cache.get(degree)
        if cached is not None:
            return cached
        rows = list(self._product_rows(degree))
        rows.sort(key=lambda r: (r[0], -len(r)))
        ech = Echelon()
        while rows:
            ech.insert(rows.pop())
        return self._lattice_cache.setdefault(degree, ech)

    # -- queries ---------------------------------------------------------------

    def reduces_to_zero(self, f: IntPolynomial) -> bool:
        """Whether ``f`` is zero in the quotient."""
        return self.normal_form(f).is_zero()

    def normal_form(self, f: IntPolynomial) -> IntPolynomial:
        """The canonical staircase residue of ``f``; with a free symbol, the
        residue taken one coefficient at a time in the ring without the
        free one (see the module docstring)."""
        x = self._free
        if x is not None:
            core = self._x_free
            return IntPolynomial.from_coefficients_in(
                x, {i: core.normal_form(part) for i, part in f.coefficients_in(x).items()}
            )
        total = IntPolynomial.zero()
        for d, comp in f.homogeneous_components().items():
            residue = self.lattice(d).residue(self.vector(comp, d))
            total = total + self.from_vector(residue, d)
        return total

    def smith_invariants(self, degree: int) -> InvariantFactors:
        diag = smith_invariants_of_rows(self.lattice(degree).rows)
        return InvariantFactors(
            degree=degree,
            rank=len(self.basis(degree)) - len(diag),
            torsion=tuple(d for d in diag if d > 1),
        )

    def hilbert_function(self, d_max: int) -> list[int]:
        return [
            len(self.basis(d)) - self.lattice(d).rank for d in range(d_max + 1)
        ]

    # -- division ----------------------------------------------------------------

    @cached_property
    def _x_free(self) -> GradedPresentation:
        """The ring on every symbol but the free one, with the same relations
        and kills, sharing its staircases with every such ring equal to it up
        to an order-preserving renaming of symbols."""
        ring = GradedPresentation(
            [nm for nm in self.symbols if nm != self._free],
            self.defining_relations(),
            name=f"{self.name} without {self._free}",
        )
        signature = (
            tuple(symbol_degree(nm) for nm in ring.symbols),
            tuple(
                tuple(sorted(
                    (tuple((ring._slots[nm], e) for nm, e in mono), coeff)
                    for mono, coeff in rel.items()
                ))
                for rel in ring.relations
            ),
            tuple(sorted(ring._kills)),
        )
        ring._lattice_cache = _STAIRCASES.setdefault(signature, ring._lattice_cache)
        return ring

    def divide_in_quotient(
        self, g: IntPolynomial, c: IntPolynomial
    ) -> IntPolynomial:
        """Some ``h`` with ``h*c = g`` in the quotient ring, returned in
        normal form; raises :class:`NotDivisibleError` when none exists.

        The divisor must have leading coefficient ``+1`` or ``-1`` in the
        ring's free symbol ``x``, the first symbol in symbol order that
        occurs in no relation and no kill monomial, such as ``l`` in
        ``ctop_tail``.  The division then runs in the ``x``-free ring alone
        (see the module docstring): long division in ``x`` reduces each
        quotient coefficient (the remainder's leading ``x``-coefficient
        times the sign) to its ``x``-free normal form before it meets the
        divisor, so the quotient is reduced as built, and ``g`` is a
        multiple exactly when every ``x``-coefficient of the remainder
        reduces to zero there.  Any other divisor, or a ring with no free
        symbol, is outside the contract: it raises :class:`PresentationError`.
        """
        if c.is_zero():
            raise PresentationError("division by the zero class")
        if not (g.is_homogeneous() and c.is_homogeneous()):
            raise PresentationError("divide_in_quotient expects homogeneous input")

        x = self._free
        divisor = c.coefficients_in(x) if x is not None else {}
        top = max(divisor, default=0)
        lead = divisor.pop(top, 0)
        if lead != 1 and lead != -1:
            raise PresentationError(
                f"divisor {c.text()} has no leading coefficient +1 or -1 in "
                f"the first symbol free of the relations"
            )
        core = self._x_free
        rem = defaultdict(IntPolynomial, g.coefficients_in(x))
        quotient: dict[int, IntPolynomial] = {}
        for k in range(max(rem, default=-1), top - 1, -1):
            part = quotient[k - top] = core.normal_form(rem[k] * lead.constant())
            for j, cj in divisor.items() if part else ():
                rem[k - top + j] -= part * cj
        rest = {j: core.normal_form(rem[j]) for j in range(top)}
        if any(rest.values()):
            text = IntPolynomial.from_coefficients_in(x, rest).text()
            raise NotDivisibleError(f"remainder {text} does not vanish")
        return IntPolynomial.from_coefficients_in(x, quotient)
