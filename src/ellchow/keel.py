"""Boundary presentations of genus-zero moduli with a distinguished point.

``keel_presentation(markings)`` builds the divisor presentation of the
moduli of stable genus-zero curves marked by ``markings`` plus one implicit
extra point ``*``: one degree-one generator ``d{T}`` per subset ``T`` of
the markings with ``2 <= |T| < |markings|`` (labelled by the side away
from ``*``), linear four-point relations, and vanishing products of
incompatible divisors.  Its three builders, ``divisor_sum``,
``four_point_relations`` and ``incompatible_products``, take the prefix
letter of the divisor names, so they also write the ambient ``t{...}``
relations of :mod:`ellchow.patch`.

``psi_star`` writes the cotangent class at ``*`` as the sum of the boundary
divisors containing the two smallest markings; any other pair gives the
same class modulo the relations.  It also writes the attaching cotangent
class in the whole-block pullbacks of :mod:`ellchow.strata`.

``keel_integral`` is the degree map: the integral of a divisor monomial
over the space.  Keel's ring is free in each degree and the degree map
carries its top piece, of degree ``len(markings) - 2``, onto the integers
(Keel, Trans. AMS 1992), so the top-degree relations are its kernel, and
zero above.  Each ring carries it as its degree map, with ``m*`` the last
divisor ``d{B - min B}`` to that degree, the lex-smallest monomial there.

The ring on ``k`` markings other than ``1..k`` is the ring on ``1..k`` with
the markings renamed in order, which keeps the symbol order: it is
``renamed`` from that ring and holds its staircases.

The point counts of these spaces over a finite field are recovered
independently by one recursion over stable trees (``mzero_point_count``):
the leaves below a vertex are split among its attachments, and each vertex
counts its open configurations.  This gives an oracle for the Hilbert
function of the presentation.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from itertools import combinations, product
from math import comb, factorial, prod
from typing import Iterable, Sequence

from .exactring import GradedPresentation, IntPolynomial, name_elements, subset_name
from .partitions import incomparable, set_partitions


@dataclass(frozen=True)
class KeelRing:
    """A boundary presentation; its divisors are named ``d{...}``."""

    presentation: GradedPresentation


def divisor_sum(
    markings: Sequence[int],
    prefix: str,
    inside: tuple[int, ...],
    outside: tuple[int, ...],
) -> IntPolynomial:
    """Sum of the divisors D_T of the ring on ``markings`` with the
    ``inside`` markings in T and the ``outside`` markings (and the implicit
    point) out of T."""
    total = IntPolynomial.zero()
    rest = [m for m in markings if m not in inside and m not in outside]
    for r in range(len(rest) + 1):
        for extra in combinations(rest, r):
            t = tuple(sorted(inside + extra))
            if 2 <= len(t) < len(markings):
                total = total + IntPolynomial.symbol(subset_name(prefix, t))
    return total


def four_point_relations(
    markings: Sequence[int], prefix: str, within: Sequence[int]
) -> list[IntPolynomial]:
    """The linear four-point relations of the ring on ``markings`` for the
    triples and quadruples of the sorted markings ``within``."""

    def sep(pair: tuple[int, int], away: tuple[int, ...]) -> IntPolynomial:
        return divisor_sum(markings, prefix, pair, away)

    relations: list[IntPolynomial] = []
    # The implicit point as fourth marking.
    for i, j, h in combinations(within, 3):
        a = sep((i, j), (h,))
        b = sep((i, h), (j,))
        c = sep((j, h), (i,))
        relations.extend([a - b, a - c, b - c])
    # Four explicit markings: either side of a separating divisor may carry
    # the pair, the implicit point rides along.
    for i, j, h, k in combinations(within, 4):
        q_ij = sep((i, j), (h, k)) + sep((h, k), (i, j))
        q_ih = sep((i, h), (j, k)) + sep((j, k), (i, h))
        q_ik = sep((i, k), (j, h)) + sep((j, h), (i, k))
        relations.extend([q_ij - q_ih, q_ij - q_ik, q_ih - q_ik])
    return relations


def incompatible_products(
    subsets: Sequence[tuple[int, ...]], prefix: str
) -> list[IntPolynomial]:
    """The products of the divisors of every incomparable pair of
    ``subsets``, in pair order: incompatible boundary divisors do not
    meet."""
    name = {t: subset_name(prefix, t) for t in subsets}
    return [
        IntPolynomial.monomial(((name[a], 1), (name[b], 1)))
        for a, b in combinations(subsets, 2)
        if incomparable(a, b)
    ]


def keel_presentation(markings: Sequence[int]) -> KeelRing:
    """Divisor presentation of the genus-zero space on ``markings`` plus one
    implicit point (cached per marking set)."""
    given = tuple(markings)
    ms = tuple(sorted(set(given)))
    if len(ms) != len(given):
        raise ValueError("repeated markings")
    if len(ms) < 2:
        raise ValueError("need at least two markings")
    return _keel_ring(ms)


@lru_cache(maxsize=None)
def _keel_ring(ms: tuple[int, ...]) -> KeelRing:
    subsets = [t for size in range(2, len(ms)) for t in combinations(ms, size)]
    names, name = [subset_name("d", t) for t in subsets], f"keel({','.join(map(str, ms))})"
    canonical = tuple(range(1, len(ms) + 1))
    if ms != canonical:
        return KeelRing(_keel_ring(canonical).presentation.renamed(names, name))
    relations = four_point_relations(ms, "d", ms) + incompatible_products(subsets, "d")
    pres = GradedPresentation(names, relations, name, (
        IntPolynomial.symbol(subset_name("d", ms[1:]), len(ms) - 2),
        lambda mono: keel_integral(ms, mono)))
    return KeelRing(pres)


def psi_star(markings: Sequence[int]) -> IntPolynomial:
    """The cotangent class at the implicit point of the ring on the sorted
    ``markings``: the sum of all divisors containing the two smallest."""
    if len(markings) < 2:
        raise ValueError(f"the cotangent class needs two markings, not {tuple(markings)}")
    return divisor_sum(markings, "d", tuple(markings[:2]), ())


def keel_integral(markings: Sequence[int], mono: Iterable[tuple[str, int]]) -> int:
    """The integral of the monomial ``prod D_T^{a_T}`` of ``(d{T}, a_T)``
    pairs, each ``T`` within the sorted ``markings``, over the genus-zero
    space on the markings and the implicit point.

    It is zero unless the degree is the dimension ``len(markings) - 2`` and
    the sets ``T`` are pairwise nested or disjoint.  Then they are the edges
    of a stable tree: the vertex below edge ``T`` carries the markings of
    ``T`` outside the largest sets strictly inside it, one half-edge to each
    of those, and one up; the root carries ``*``.  The monomial is the
    stratum of the tree times ``D_T^{a_T - 1}`` restricted to it, and Keel's
    ``D_T|_{D_T} = -psi_h - psi_h'`` at the edge's two half-edges turns this
    into a sum over splittings of each ``a_T - 1`` between ``h`` and ``h'``
    of products of vertex integrals ``<tau_{b_1}...tau_{b_k}> =
    (k-3)!/prod b_i!`` (zero unless the ``b_i`` sum to ``k - 3``).
    """
    power = {name_elements(name): a for name, a in mono if a}
    sets = sorted(power, key=len)
    if sum(power.values()) != len(markings) - 2 or any(
        incomparable(a, b) for a, b in combinations(sets, 2)
    ):
        return 0
    # the parent of a set is the smallest set strictly containing it, or the
    # root (None); the sets containing one set form a chain
    parent = {t: next((u for u in sets if len(u) > len(t) and set(t) < set(u)), None)
              for t in sets}
    children = {v: [t for t in sets if parent[t] == v] for v in [None, *sets]}
    # a vertex's half-edges: one up (or *), its loose markings, its children
    excess = {v: len(v or markings) - sum(len(t) - 1 for t in kids) - 2
              for v, kids in children.items()}
    total = 0
    for split in product(*(range(power[t]) for t in sets)):
        below = dict(zip(sets, split))  # the psi power at the lower half-edge
        term = prod(comb(power[t] - 1, below[t]) for t in sets)
        for v, kids in children.items():
            exps = [power[t] - 1 - below[t] for t in kids] + ([below[v]] if v else [])
            if sum(exps) != excess[v]:
                break
            term *= factorial(excess[v]) // prod(map(factorial, exps))
        else:
            total += term
    return (-1) ** (len(markings) - 2 - len(sets)) * total


# -- point counts -------------------------------------------------------------


def _vertex_factor(valence: int, q):
    """Number of configurations of ``valence`` distinct points on a line
    modulo automorphisms: the open genus-zero count."""
    total = 1
    for j in range(2, valence - 1):
        total *= q - j
    return total


def _hanging_count(leaves: tuple[int, ...], q):
    """The summed count of the stable subtrees on ``leaves`` hanging from a
    parent edge: the top vertex splits the leaves into two or more
    attachments, each a single leaf or a further subtree."""
    if len(leaves) == 1:
        return 1
    return sum(
        _vertex_factor(len(part) + 1, q) * prod(_hanging_count(tuple(b), q) for b in part)
        for part in set_partitions(leaves)
        if len(part) > 1
    )


def mzero_point_count(n: int, q):
    """Point count of the stable genus-zero space with ``n`` markings over
    a field with ``q`` elements, by summing over strata: the stable trees
    on leaves ``1..n``, rooted at the vertex carrying leaf 1."""
    if n < 3:
        raise ValueError("stability needs at least three leaves")
    return _hanging_count(tuple(range(2, n + 1)), q)


def mzero_point_poly(n: int) -> list[int]:
    """The point count as a polynomial in the field size, coefficients
    ascending: the same sum over stable trees with the field size a formal
    variable (written ``l``), multiplied out."""
    count = mzero_point_count(n, IntPolynomial.symbol("l"))  # an int for n = 3
    parts = (IntPolynomial.one() * count).coefficients_in("l")
    return [parts[e].constant() if e in parts else 0 for e in range(n - 2)]
