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
bases in disjoint variables join to one.  A ring ``renamed`` from another
keeping the symbol order and degrees keeps every slot: basis positions,
product rows and kill masks are the other's, so it holds the other's very
reduced relations and staircases, and its degree map renamed.

A *degree map* is a monomial ``m*`` of degree ``t`` and a map ``∫`` on
monomials such that the degree-``t`` lattice is ``ker ∫``, ``∫(m*) = ±1``
(checked when first used), ``∫`` vanishes on every lex-smaller monomial,
and the ring is zero above degree ``t``.  There ``e_j - ∫(e_j) ∫(m*) m*``
leads at any column ``j`` left of ``m*``, and ``e_j`` at any to its right,
so the canonical residue of ``f`` is ``∫(f) ∫(m*) m*``, and 0 above ``t``:
no staircase is built there.
"""

from __future__ import annotations

from collections import defaultdict
from dataclasses import dataclass
from functools import reduce
from operator import or_
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
        self._factors: tuple[GradedPresentation, ...] = ()  # of a tensor product
        # No relation or kill is below ``_low``; the degree map, its values,
        # its m* and the degree ``_top`` of m* (see the module docstring).
        self._low = min([*self._rels_by_degree, *(k & DEGREE for k in self._kill_keys)],
                        default=MAX_DEGREE + 1)
        self._degree_map, self._integrals = degree_map, {}
        self._star = next(degree_map[0].items())[0] if degree_map else None
        self._top = MAX_DEGREE + 1 if self._star is None else self._star & DEGREE

        # The first symbol in no relation and no kill, if any; relations are
        # fixed from here on, so it is too.
        self._free: str | None = next((nm for i, nm in enumerate(ordered) if not (
            used >> shifts[i] & DEGREE or covered >> i & 1)), None)

    @classmethod
    def tensor_product(cls, factors: Sequence[GradedPresentation],
                       name: str) -> GradedPresentation:
        """The tensor product of rings on disjoint symbols, reduced one factor
        with a relation or a kill at a time (see the module docstring)."""
        ring = cls([nm for r in factors for nm in r.symbols],
                   [rel for r in factors for rel in r.defining_relations()], name=name)
        ring._factors = tuple(r for r in factors if r.relations or r._kill_keys)
        return ring

    def renamed(self, names: Sequence[str], name: str) -> GradedPresentation:
        """This ring with its ``i``-th symbol named ``names[i]``, holding this
        ring's staircases; a renaming that changes the symbol order or a
        symbol's degree is refused (see the module docstring)."""
        names = tuple(names)
        if (tuple(sorted(set(names), key=symbol_key)) != names or
                [unit_key(nm) & DEGREE for nm in names] != [u & DEGREE for u in self._units]):
            raise PresentationError(f"renaming {', '.join(self.symbols)} to {', '.join(names)} "
                                    "changes the symbol order or a degree")
        images = {old: IntPolynomial.symbol(new) for old, new in zip(self.symbols, names)}
        back = dict(zip(names, self.symbols))
        degree_map = self._degree_map and (self._degree_map[0].substitute(images),
                                           lambda mono: self._degree_map[1](
                                               [(back[nm], e) for nm, e in mono]))
        ring = GradedPresentation(names, [rel.substitute(images) for rel in
                                          self.defining_relations()], name, degree_map)
        ring._lattice_cache, ring._reduced_rels = self._lattice_cache, self._reduced_rels
        return ring

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
        """The canonical staircase residue of ``f``; one factor at a time in a
        tensor product, ``f`` below every relation and kill, and from the
        degree map in its degree and above (see the module docstring)."""
        if not f:
            return f
        support = reduce(or_, (key for key, _ in f.items()))
        if support | self._mask != self._mask:
            self._refuse(support)
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
                              for i, e in key_fields(bits))
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
        """The degree map on one monomial (cached by key)."""
        if key not in self._integrals:
            self._integrals[key] = self._degree_map[1](
                [(self.symbols[self._slot_at[f]], e) for f, e in key_fields(key)])
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
        of ``x`` (see the module docstring).  Long division in ``x`` takes
        each quotient coefficient (the remainder's leading ``x``-coefficient
        times the sign) to its :meth:`normal_form` before it meets the
        divisor, so the quotient is reduced as built, and ``g`` is a multiple
        exactly when every ``x``-coefficient of the remainder reduces to
        zero.  Any other divisor, or a ring with no free symbol, is outside
        the contract: it raises :class:`PresentationError`.
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
        rem = defaultdict(IntPolynomial, g.coefficients_in(x))
        quotient: dict[int, IntPolynomial] = {}
        for k in range(max(rem, default=-1), top - 1, -1):
            part = quotient[k - top] = self.normal_form(rem[k] * lead.constant())
            for j, cj in divisor.items() if part else ():
                rem[k - top + j] -= part * cj
        rest = {j: self.normal_form(rem[j]) for j in range(top)}
        if any(rest.values()):
            text = IntPolynomial.from_coefficients_in(x, rest).text()
            raise NotDivisibleError(f"remainder {text} does not vanish")
        return IntPolynomial.from_coefficients_in(x, quotient)
