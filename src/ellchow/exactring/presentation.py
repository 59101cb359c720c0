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
with its columns in the same relative order (interleaved with the other
blocks' when ``x`` is not the first symbol, but disjoint from them).  Its
canonical residue (see the ``lattice`` module) is the sum of the blocks'
residues: the normal form of ``f`` is the sum over ``i`` of ``x^i`` times
the ``x``-free normal form of the ``x^i``-coefficient of ``f``.  A ring
with a free symbol records the first one in symbol order as ``x`` and
caches its ``x``-free ring; it reduces, tests for zero and divides there.

The ``x``-free rings share staircases, not bases: two of them that are
equal up to an order-preserving renaming of their symbols (same symbol
degrees in symbol order, same relations in the same order written with
symbol slots, same kill masks) enumerate the same basis positions, each
monomial renamed, and have the same reduced relations and product rows,
so these and ``lattice(d)`` are built once; each ring enumerates its own
basis.  A block's boundary ring depends only on how many markings it has,
so stratum models relabelled in symbol order, e.g. ``1 2 3 4|5`` and
``1|2 3 4 5``, have such rings.

A *degree map* of the ring without its free symbol (the ring itself if it
has none) is a monomial ``m*`` of degree ``t`` and a map ``∫`` on monomials
such that the degree-``t`` lattice is ``ker ∫``, ``∫(m*) = ±1`` (checked
when first used) and ``∫`` vanishes on every lex-smaller monomial.  There
``e_j - ∫(e_j) ∫(m*) m*`` leads at any column ``j`` left of ``m*``, and
``e_j`` at any to its right, so every column but ``m*``'s is a pivot with
leading coefficient 1, and no vector of ``ker ∫`` leads at ``m*``.  The
canonical residue of ``f`` is therefore ``∫(f) ∫(m*) m*``: no staircase is
built in degree ``t``.  For a stratum model without ``l`` or ``xi``, a
tensor product of Keel rings, ``∫`` is the product of the blocks' degree
maps: Keel's ring is free with top piece ``Z`` carried by ``∫``, and so is a
tensor product of such rings.  ``m*`` is the product of each block's last
divisor to the block's dimension: a monomial of nonzero integral has that
degree in each block, whose last divisor follows its others in symbol
order, so where it first differs from ``m*`` its exponent is the larger.
"""

from __future__ import annotations

from collections import defaultdict
from dataclasses import dataclass
from functools import cached_property
from typing import Callable, Iterable, Sequence

from .lattice import Echelon, flat_from_pairs, smith_invariants_of_rows
from .poly import (
    DEGREE,
    FIELD_BITS,
    MAX_DEGREE,
    IntPolynomial,
    _poly,
    key_fields,
    symbol_key,
    unit_key,
)


# The staircases and reduced relation rows of the x-free rings, by signature
# up to an order-preserving renaming of symbols (see the module docstring).
_STAIRCASES: dict[tuple, tuple[dict[int, Echelon], dict[int, list[list]]]] = {}


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


class GradedPresentation:
    """Z[symbols] / (relations), graded by total symbol degree."""

    def __init__(self, symbols: Sequence[str], relations: Iterable[IntPolynomial],
                 name: str = "", degree_map: tuple[IntPolynomial, Callable] | None = None
                 ) -> None:
        given = list(symbols)
        ordered = sorted(set(given), key=symbol_key)
        if len(ordered) != len(given):
            raise PresentationError("duplicate symbol names")
        self.symbols: tuple[str, ...] = tuple(ordered)
        self.name = name

        # A symbol's slot is its index in ``symbols``.  ``_units`` holds each
        # slot's key, ``_slot_at`` each field's slot, ``_mask`` the bits of the
        # ring's fields and of field 0 and ``_guard`` their spare top bits.  A
        # kill is kept as its key and as the mask of its slots, by last slot.
        self._units = [unit_key(nm) for nm in ordered]
        shifts = [u.bit_length() - 1 for u in self._units]  # each field's lowest bit
        self._slot_at = {s // FIELD_BITS: i for i, s in enumerate(shifts)}
        self._mask = sum(DEGREE << s for s in [0, *shifts])
        self._guard = sum(MAX_DEGREE + 1 << s for s in [0, *shifts])
        self._kill_keys: list[int] = []
        self._kills_at: list[list[int]] = [[] for _ in ordered]
        covered = 0  # the slots of every kill
        self.relations: list[IntPolynomial] = []
        self._rels_by_degree: dict[int, list[IntPolynomial]] = {}
        used = 0  # the bits of every relation's keys

        for rel in relations:
            if rel.is_zero():
                continue
            if any(m | self._mask != self._mask for m, _ in rel.items()):
                unknown = rel.symbols_used() - set(ordered)
                raise PresentationError(f"relation uses unknown symbols {sorted(unknown)}")
            degrees = {m & DEGREE for m, _ in rel.items()}
            if len(degrees) > 1:
                raise PresentationError(f"relation not homogeneous: {rel.text()}")
            key, coeff = next(rel.items())
            fields = key_fields(key) if len(rel) == 1 and coeff in (1, -1) else ()
            if fields and {e for _, e in fields} == {1}:
                kill = sum(1 << self._slot_at[f] for f, _ in fields)
                self._kill_keys.append(key)
                self._kills_at[kill.bit_length() - 1].append(kill)
                covered |= kill
            else:
                self.relations.append(rel)
                self._rels_by_degree.setdefault(degrees.pop(), []).append(rel)
                for m, _ in rel.items():
                    used |= m

        self._basis_cache: dict[int, list[int]] = {}
        self._column_cache: dict[int, dict[int, int]] = {}
        self._lattice_cache: dict[int, Echelon] = {}
        self._reduced_rels: dict[int, list[list]] = {}
        # The degree map of the ring without its free symbol, its values by
        # key, and the key of its m* (see the module docstring).
        self._degree_map, self._integrals = degree_map, {}
        self._star = next(degree_map[0].items())[0] if degree_map else None

        # The first symbol in no relation and no kill, if any; relations are
        # fixed from here on, so it is too.
        self._free: str | None = next((nm for i, nm in enumerate(ordered) if not (
            used >> shifts[i] & DEGREE or covered >> i & 1)), None)

    # -- monomial bookkeeping ------------------------------------------------

    def defining_relations(self) -> list[IntPolynomial]:
        """The relations, then each kill as its squarefree monomial, in
        input order: a list that presents the same ring."""
        return self.relations + [IntPolynomial({key: 1}) for key in self._kill_keys]

    def basis(self, degree: int) -> list[int]:
        """The keys of the pruned monomial basis of the given degree, in
        canonical order (exponent vectors descending-lexicographic over the
        symbol order)."""
        cached = self._basis_cache.get(degree)
        if cached is not None:
            return cached
        if degree > MAX_DEGREE:
            raise ValueError(f"monomial degree {degree} exceeds {MAX_DEGREE}")
        out: list[int] = []
        units = self._units
        kills_at = self._kills_at

        def rec(i: int, remaining: int, key: int, support: int) -> None:
            if remaining == 0:
                out.append(key)
                return
            if i == len(units):
                return
            # Slots are added in order, so a kill lies in the support exactly
            # when it does as its last slot is added.
            grown = support | 1 << i
            for kill in kills_at[i]:
                if kill & grown == kill:
                    break
            else:
                u = units[i]
                d = u & DEGREE
                for e in range(remaining // d, 0, -1):
                    rec(i + 1, remaining - e * d, key + e * u, grown)
            rec(i + 1, remaining, key, support)

        if degree >= 0:
            rec(0, degree, 0, 0)
        return self._basis_cache.setdefault(degree, out)

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
            term = IntPolynomial({key: coeff})
            if key | self._mask != self._mask:
                unknown = min(term.symbols_used() - set(self.symbols), key=symbol_key)
                raise PresentationError(f"unknown symbol {unknown!r}")
            if key & DEGREE != degree:
                raise PresentationError(f"term {term.text()} is not of degree {degree}")
        return flat_from_pairs(pairs)

    def from_vector(self, flat: list, degree: int) -> IntPolynomial:
        basis = self.basis(degree)
        return _poly({basis[col]: c for col, c in zip(flat[::2], flat[1::2])})

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

        The column of a product is looked up in the index that ``vector``
        reads, by the sum of its factors' keys.  Distinct relation monomials
        have distinct products, so a row is its sorted pairs.  A unit leader
        is the key of its relation's first term; ``guard`` sets the spare top
        bit of field 0 and of every field of the ring, and such a bit
        survives ``(key | guard) - lead`` without a borrow into the next
        field exactly when that field of ``key`` is at least the leader's.
        """
        index = self._columns(degree)
        guard = self._guard

        earlier: list[tuple[int, int]] = []  # lower degrees' unit leaders
        for delta in sorted(d for d in self._rels_by_degree if d <= degree):
            rows, basis = self._reduced_relations(delta), self.basis(delta)
            rel_terms = [[(basis[col], c) for col, c in zip(r[::2], r[1::2])] for r in rows]
            # a multiple of the unit leader of relation j keeps rows 0..j
            cuts = earlier + [(j + 1, terms[0][0])
                              for j, terms in enumerate(rel_terms) if terms[0][1] == 1]
            earlier += [(0, lead) for _, lead in cuts[len(earlier):]]
            for key in self.basis(degree - delta) if rows else ():
                probe = guard | key
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
        free one, and in a degree map's degree, read from the map (see the
        module docstring)."""
        if not f:
            return f
        x = self._free
        if x is not None:
            core = self._x_free
            return IntPolynomial.from_coefficients_in(
                x, {i: core.normal_form(part) for i, part in f.coefficients_in(x).items()}
            )
        top = -1 if self._star is None else self._star & DEGREE
        parts = [self._top_form(comp) if d == top else
                 self.from_vector(self.lattice(d).residue(self.vector(comp, d)), d)
                 for d, comp in f.homogeneous_components().items()]
        return parts[0] if len(parts) == 1 else sum(parts, IntPolynomial.zero())

    def _top_form(self, f: IntPolynomial) -> IntPolynomial:
        """The normal form ``∫(f) * ∫(m*) * m*`` of ``f`` of the degree of
        ``m*``, the staircase's one non-pivot column (see the module
        docstring)."""
        star = self._star
        unit = self._integral(star)
        if unit not in (1, -1):
            raise PresentationError(
                f"the degree map of {self.name} is {unit} on "
                f"{self._degree_map[0].text()}, not +1 or -1")
        total = sum(c * self._integral(key) for key, c in f.items())
        return _poly({star: unit * total} if total else {})

    def _integral(self, key: int) -> int:
        """The degree map on one monomial (cached by key)."""
        value = self._integrals.get(key)
        if value is None:
            if key | self._mask != self._mask:  # a foreign symbol: vector raises
                self.vector(IntPolynomial({key: 1}), key & DEGREE)
            names = [(self.symbols[self._slot_at[f]], e) for f, e in key_fields(key)]
            value = self._integrals[key] = self._degree_map[1](names)
        return value

    def smith_invariants(self, degree: int) -> InvariantFactors:
        diag = smith_invariants_of_rows(self.lattice(degree).rows)
        return InvariantFactors(
            degree=degree,
            rank=len(self.basis(degree)) - len(diag),
            torsion=tuple(d for d in diag if d > 1),
        )

    def hilbert_function(self, d_max: int) -> list[int]:
        return [len(self.basis(d)) - self.lattice(d).rank for d in range(d_max + 1)]

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
            degree_map=self._degree_map,
        )
        slots = ring._slot_at  # to write each relation term with slots
        relations = tuple(tuple(sorted(
            (sum(e << FIELD_BITS * slots[f] for f, e in key_fields(key)), coeff)
            for key, coeff in rel.items())) for rel in ring.relations)
        kills = tuple(sorted(kill for at in ring._kills_at for kill in at))
        signature = (tuple(u & DEGREE for u in ring._units), relations, kills)
        ring._lattice_cache, ring._reduced_rels = _STAIRCASES.setdefault(
            signature, (ring._lattice_cache, ring._reduced_rels))
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
        lead = divisor.pop(top, IntPolynomial.zero())
        if len(lead) != 1 or abs(lead.constant()) != 1:
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
