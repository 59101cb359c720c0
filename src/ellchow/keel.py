"""Boundary presentations of genus-zero moduli with a distinguished point.

``keel_presentation(markings)`` builds the divisor presentation of the
moduli of stable genus-zero curves marked by ``markings`` plus one implicit
extra point ``*``: one degree-one generator ``d{T}`` per subset ``T`` of
the markings with ``2 <= |T| < |markings|`` (labelled by the side away
from ``*``), linear four-point relations, and vanishing products of
incompatible divisors.  Its three builders, ``divisor_sum``,
``four_point_relations`` and ``incompatible_products``, take the prefix
letter of the divisor names, so they also write the ambient ``t{...}``
relations of :mod:`ellchow.patch`; ``divisor_sum`` also writes the
whole-block pullbacks of :mod:`ellchow.strata`.

``psi_star`` writes the cotangent class at ``*`` as a sum of boundary
divisors avoiding two chosen markings; the class is independent of the
choice modulo the relations.

``keel_integral`` is the degree map: the integral of a divisor monomial
over the space.  Keel's ring is free in each degree and the degree map
carries its top piece, of degree ``len(markings) - 2``, onto the integers
(Keel, Trans. AMS 1992), so the top-degree relations are its kernel.

The point counts of these spaces over a finite field are recovered
independently by enumerating stable trees (``mzero_point_count``), giving
an oracle for the Hilbert function of the presentation.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from itertools import combinations, product
from math import comb, factorial, prod
from typing import Iterable, Iterator, Sequence

from .exactring import GradedPresentation, IntPolynomial, name_elements, subset_name
from .partitions import incomparable, set_partitions


@dataclass(frozen=True)
class KeelRing:
    """A boundary presentation together with its marking labels; its
    divisors are named ``d{...}``."""

    markings: tuple[int, ...]
    presentation: GradedPresentation

    def divisor(self, subset: Iterable[int]) -> IntPolynomial:
        t = tuple(sorted(subset))
        if not (2 <= len(t) < len(self.markings)):
            raise ValueError(f"no divisor for subset {t}")
        if not set(t) <= set(self.markings):
            raise ValueError(f"subset {t} not within the markings")
        return IntPolynomial.symbol(subset_name("d", t))


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
    return [
        IntPolynomial.symbol(subset_name(prefix, a))
        * IntPolynomial.symbol(subset_name(prefix, b))
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
    subsets = [
        t for size in range(2, len(ms)) for t in combinations(ms, size)
    ]
    relations = four_point_relations(ms, "d", ms) + incompatible_products(
        subsets, "d"
    )
    pres = GradedPresentation(
        [subset_name("d", t) for t in subsets],
        relations,
        name=f"keel({','.join(map(str, ms))})",
    )
    return KeelRing(markings=ms, presentation=pres)


def psi_star(ring: KeelRing, i: int | None = None, j: int | None = None) -> IntPolynomial:
    """The cotangent class at the implicit point: the sum of all divisors
    containing two chosen markings (by default the two smallest)."""
    if i is None or j is None:
        i, j = ring.markings[0], ring.markings[1]
    if i == j or i not in ring.markings or j not in ring.markings:
        raise ValueError(f"invalid marking pair ({i}, {j})")
    pair = tuple(sorted((i, j)))
    return divisor_sum(ring.markings, "d", pair, ())


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


# -- stable trees and point counts ------------------------------------------


@dataclass(frozen=True)
class StableTree:
    """A rooted stable tree: every vertex carries its attachments, each a
    leaf label or a further subtree; valence is attachments plus one (the
    leaf or edge connecting upward)."""

    children: tuple["StableTree | int", ...]


def _hanging_trees(block: tuple[int, ...]) -> Iterator[StableTree]:
    """All stable subtrees on the given leaves, hanging from a parent edge."""
    for part in set_partitions(block):
        if len(part) < 2:
            continue
        choice_lists = []
        for sub in part:
            if len(sub) == 1:
                choice_lists.append([sub[0]])
            else:
                choice_lists.append(list(_hanging_trees(tuple(sub))))
        for combo in product(*choice_lists):
            yield StableTree(children=tuple(combo))


@lru_cache(maxsize=None)
def enumerate_stable_trees(n: int) -> tuple[StableTree, ...]:
    """All stable trees on leaves ``1..n``, rooted at the vertex carrying
    leaf 1."""
    if n < 3:
        raise ValueError("stability needs at least three leaves")
    rest = tuple(range(2, n + 1))
    return tuple(_hanging_trees(rest))


def _vertex_factor(valence: int, q):
    """Number of configurations of ``valence`` distinct points on a line
    modulo automorphisms: the open genus-zero count."""
    total = 1
    for j in range(2, valence - 1):
        total *= q - j
    return total


def _tree_count(tree: StableTree, q):
    total = _vertex_factor(len(tree.children) + 1, q)
    for child in tree.children:
        if isinstance(child, StableTree):
            total *= _tree_count(child, q)
    return total


def mzero_point_count(n: int, q):
    """Point count of the stable genus-zero space with ``n`` markings over
    a field with ``q`` elements, by summing over strata."""
    return sum(_tree_count(t, q) for t in enumerate_stable_trees(n))


def mzero_point_poly(n: int) -> list[int]:
    """The point count as a polynomial in the field size, coefficients
    ascending: the same sum over stable trees with the field size a formal
    variable (written ``l``), multiplied out."""
    count = mzero_point_count(n, IntPolynomial.symbol("l"))  # an int for n = 3
    parts = (IntPolynomial.one() * count).coefficients_in("l")
    return [parts[e].constant() if e in parts else 0 for e in range(n - 2)]
