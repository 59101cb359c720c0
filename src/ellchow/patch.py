"""Patching classes and relations across the core-level stratification.

The ambient ring on ``n`` markings is generated by the core ring's
generators (the Hodge class ``l`` and, with six markings, the degree-two
core class ``nu``) and a boundary divisor ``t{B}`` for every marking
subset of size at least two (the full set included).  Its relations,
``ambient_relations``, come in three families: four-point relations
multiplied by a divisor, vanishing products of incompatible divisors, and
the normal-bundle relations tying a divisor to the Hodge class plus its
attaching cotangent sum; with six markings the lifted core relations and
nodal identities follow.  Every compactification's ring is this list with
its contracted divisors set to zero, plus the relations it adds.

A class supported on the strata of small core level is reconstructed by
descending through levels: at each stratum the current candidate is
restricted, compared to its prescribed value there, and the discrepancy —
always divisible by the stratum's excess class — is divided out and
lifted back as a correction.  Strata of the same level do not disturb one
another, and corrections never disturb the levels already handled, because
a composite divisor restricts to zero on every other stratum of its own or
higher level.

``fundamental_classes`` runs that loop for a batch of target maps, each of
which gives a class's prescribed value on every stratum; ``fundamental_class``
is a batch of one, and ``lift_relation`` the case of target zero, used to
propagate the six-marking core relations and nodal identities.

A correction is a function of the stratum and the residual alone (the
quotient comes back in normal form), so a batch divides each distinct
nonzero residual on a stratum once: the 52 classes of the five-marking
Deligne–Mumford space, patched one by one, divide 2,652 times, together 981
times.  The memo is dropped with its stratum: one kept for the whole process
raised that presentation's peak memory by 10–23%.  A stratum's ring and
excess class are read once, and a class sums a level's corrections in one
dict of terms instead of building a polynomial at every stratum.
"""

from __future__ import annotations

import json
from functools import lru_cache, partial
from importlib import resources
from itertools import combinations
from typing import Callable

from .corering import core_relation_seeds, min_presentation, stratum_value
from .exactring import (
    GradedPresentation,
    IntPolynomial,
    name_elements,
    subset_name,
)
from .keel import divisor_sum, four_point_relations, incompatible_products
from .partitions import (
    SetPartition,
    enumerate_partitions,
    marking_count,
    partitions_of_length,
    s_max,
    unique_keys,
)
from .strata import (
    ctop_tail,
    lift_from_tail,
    restrict_to_tail,
    tail_model,
    tau,
    tau_monomial,
)

LAMBDA = IntPolynomial.symbol("l")
NU = IntPolynomial.symbol("nu")
# A class's prescribed value on the tail model of each stratum.
Target = Callable[[SetPartition], IntPolynomial]


@lru_cache(maxsize=None)
def boundary_subsets(n: int) -> tuple[tuple[int, ...], ...]:
    """The marking subsets of size at least two (the full set included), by
    size and then lexicographically: the labels of the boundary divisors."""
    return tuple(
        b
        for size in range(2, n + 1)
        for b in combinations(range(1, n + 1), size)
    )


def ambient_symbols(n: int) -> list[str]:
    """The core ring's generators, then the boundary divisors."""
    divisors = [subset_name("t", b) for b in boundary_subsets(n)]
    return [*min_presentation(n).symbols, *divisors]


def relation_families(n: int) -> dict[str, list[IntPolynomial]]:
    """The three ambient relation families, keyed ``"four-point"``,
    ``"incompatible"``, ``"normal"``.  A four-point relation is Keel's on
    the markings times a divisor.  A normal relation's cotangent sum is
    Keel's divisor sum plus the full-set divisor, which the ambient ring has
    and Keel's ring does not."""
    markings = tuple(range(1, n + 1))
    subsets = boundary_subsets(n)
    four_point = [
        tau(b) * r
        for b in subsets
        for r in four_point_relations(markings, "t", b)
    ]
    incompatible = incompatible_products(subsets, "t")
    normal = [
        tau(b)
        * (LAMBDA + divisor_sum(markings, "t", pair, ()) + tau(markings))
        for b in subsets
        for pair in combinations(b, 2)
    ]
    return {
        "four-point": four_point,
        "incompatible": incompatible,
        "normal": normal,
    }


@lru_cache(maxsize=None)
def ambient_relations(n: int) -> tuple[IntPolynomial, ...]:
    """Every ambient relation: the three families in the order
    ``relation_families`` lists them, then with six markings the extras."""
    relations = [r for family in relation_families(n).values() for r in family]
    return (*relations, *(six_marking_extras() if n == 6 else ()))


# -- the patching driver -------------------------------------------------------


def _patch(
    n: int,
    fs: list[IntPolynomial],
    targets: list[Target],
    start_length: int,
) -> list[IntPolynomial]:
    # Core levels (block counts), from fine to coarse.
    for length in range(start_length, 0, -1):
        corrections: list[dict[int, int]] = [{} for _ in fs]  # each class's terms, summed
        for s in partitions_of_length(n, length):
            ring, excess = tail_model(n, s).presentation, ctop_tail(n, s)
            done: dict[frozenset, IntPolynomial] = {}  # residual terms -> correction
            for i, (f, target) in enumerate(zip(fs, targets)):
                r = restrict_to_tail(n, s, f) - target(s)
                if not r:
                    continue
                key = frozenset(r.items())  # hashed once, for the lookup and the store
                if (correction := done.get(key)) is None:
                    gbar = ring.divide_in_quotient(r, excess)
                    correction = done[key] = tau_monomial(s) * lift_from_tail(gbar)
                for m, c in correction.items():
                    corrections[i][m] = corrections[i].get(m, 0) + c
        fs = [f - IntPolynomial(total) for f, total in zip(fs, corrections)]
    return fs


def fundamental_classes(n: int, targets: list[Target]) -> list[IntPolynomial]:
    """For each target map, the ambient class restricting to ``target(s)``
    on the tail model of every stratum ``s``, built by descending level
    patching from its value on the all-singleton stratum, whose tail model
    is the core ring on the ambient generators ``l`` (and ``nu``).  The
    classes are patched together, so a residual that several of them reach
    on one stratum is divided once."""
    return _patch(n, [target(s_max(n)) for target in targets], targets, n - 1)


def fundamental_class(n: int, target: Target) -> IntPolynomial:
    """``fundamental_classes`` of one target map."""
    return fundamental_classes(n, [target])[0]


def lift_relation(n: int, f: IntPolynomial, start_length: int) -> IntPolynomial:
    """Correct ``f`` into a class restricting to zero on every stratum of
    length at most ``start_length``; levels above the start must already
    vanish for the result to be a relation of the ambient ring."""
    return _patch(n, [f], [lambda s: IntPolynomial.zero()], start_length)[0]


# -- named classes ----------------------------------------------------------------


def singular_target(kind: str, n: int, t: SetPartition) -> Target:
    """The target map of the closed ``kind`` (``"ell"`` or ``"nod"``)
    singularity locus with branch partition ``t``."""
    if t.n != n:
        raise ValueError("partition is not on the marking set")
    return partial(stratum_value, kind, t)


def ell_class(n: int, t: SetPartition) -> IntPolynomial:
    return fundamental_class(n, singular_target("ell", n, t))


def nod_class(n: int, t: SetPartition) -> IntPolynomial:
    return fundamental_class(n, singular_target("nod", n, t))


# -- the ambient presentation -------------------------------------------------------


@lru_cache(maxsize=None)
def six_marking_extras() -> tuple[IntPolynomial, ...]:
    """The lifted core relations, then the lifted nodal identity
    ``tau_s * (nu - lift(nu|_s))`` of every stratum ``s`` but the
    all-singleton one.  It vanishes on ``s`` (lifting is a section) and off
    ``s`` from its level up, and patching the levels below makes it vanish on
    every stratum: a relation by the patching lemma.  Without the strata that
    do not refine the four-two split, where ``nu`` restricts to zero, the
    ambient ranks exceed the strata sum from degree 3 on."""
    extras = [lift_relation(6, seed, start_length=5) for seed in core_relation_seeds()]
    for s in enumerate_partitions(6):
        if s != s_max(6):
            seed = tau_monomial(s) * (NU - lift_from_tail(restrict_to_tail(6, s, NU)))
            extras.append(lift_relation(6, seed, start_length=s.length - 1))
    return tuple(extras)


@lru_cache(maxsize=None)
def gorenstein_presentation(n: int) -> GradedPresentation:
    """The ambient ring of the moduli of log-canonically polarised
    genus-one curves on ``n`` markings."""
    return GradedPresentation(
        ambient_symbols(n), ambient_relations(n), name=f"gorenstein({n})"
    )


def classes_equal(n: int, f: IntPolynomial, g: IntPolynomial) -> bool:
    """Equality in the ambient ring."""
    return gorenstein_presentation(n).reduces_to_zero(f - g)


def restriction_offenders(
    n: int, f: IntPolynomial
) -> list[SetPartition]:
    """The strata on whose tail models ``f`` does not restrict to zero."""
    out = []
    for s in enumerate_partitions(n):
        r = restrict_to_tail(n, s, f)
        if not tail_model(n, s).presentation.reduces_to_zero(r):
            out.append(s)
    return out


def restricts_to_zero_everywhere(n: int, f: IntPolynomial) -> bool:
    return not restriction_offenders(n, f)


# -- frozen expected classes ---------------------------------------------------------


# The stored representative of each shape and its class, by marking count.
FixtureTable = dict[int, dict[tuple[int, ...], tuple[SetPartition, IntPolynomial]]]


def _parse_fixture_json(raw: dict) -> FixtureTable:
    if not isinstance(raw, dict) or not all(
        isinstance(entries, dict)
        and all(isinstance(x, str) for item in entries.items() for x in item)
        for entries in raw.values()
    ):
        raise ValueError(
            "a fixture file maps each marking count to an object of "
            "partition text: class text entries"
        )
    table: FixtureTable = {}
    for key, entries in raw.items():
        n = marking_count(key, "a fixture file's marking count")
        if n in table:
            raise ValueError(f"a fixture file lists marking count {n} twice")
        shapes = table[n] = {}
        for text, poly in entries.items():
            s = SetPartition.parse(text, n)
            if s.shape() in shapes:
                first = shapes[s.shape()][0]
                what = (f"partition {s} twice" if first == s
                        else f"partitions {first} and {s} of one shape")
                raise ValueError(f"a fixture file lists {what} for marking count {n}")
            shapes[s.shape()] = s, IntPolynomial.parse(poly)
    return table


def load_fixture_file(path: str) -> FixtureTable:
    with open(path, "r", encoding="utf-8") as fh:
        return _parse_fixture_json(
            json.load(fh, object_pairs_hook=partial(unique_keys, kind="a fixture file")))


@lru_cache(maxsize=None)
def _fixture_table() -> FixtureTable:
    data = (
        resources.files("ellchow.data")
        .joinpath("appendix_fixtures.json")
        .read_text(encoding="utf-8")
    )
    return _parse_fixture_json(json.loads(data))


def permute_marks(f: IntPolynomial, perm: dict[int, int]) -> IntPolynomial:
    """Relabel the markings inside every subset-indexed generator."""
    return f.substitute({name: IntPolynomial.symbol(subset_name(name[0], (perm[e] for e in elems)))
                         for name in f.symbols_used() if (elems := name_elements(name))})


def matching_permutation(
    source: SetPartition, dest: SetPartition
) -> dict[int, int]:
    """A marking relabelling carrying the blocks of ``source`` onto the
    blocks of ``dest`` (sizes must agree)."""
    if source.shape() != dest.shape():
        raise ValueError("partitions have different shapes")
    by_size: dict[int, list[tuple[int, ...]]] = {}
    for block in dest.blocks:
        by_size.setdefault(len(block), []).append(block)
    perm: dict[int, int] = {}
    for block in source.blocks:
        image = by_size[len(block)].pop(0)
        perm.update(dict(zip(block, image)))
    return perm


def expected_class(
    n: int, s: SetPartition, table: FixtureTable | None = None
) -> IntPolynomial:
    """The frozen expected value of the elliptic-singularity class of one
    partition, obtained by relabelling the stored representative of its
    shape; a ``KeyError`` when the table has none."""
    stored, poly = (_fixture_table() if table is None else table)[n][s.shape()]
    return permute_marks(poly, matching_permutation(stored, s))
