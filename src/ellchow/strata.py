"""Closed-stratum models of the polarised genus-one moduli and the
restriction maps onto them.

For a partition ``S`` of the markings, the *tail model* is the product of
the core ring on ``S``'s blocks with one genus-zero boundary ring per
non-singleton block (markings of the block plus the implicit attaching
point).  Pullback of the ambient generators:

* the Hodge class ``l`` maps to the core Hodge class;
* a boundary divisor ``t{B}`` maps to the block divisor ``d{B}`` when
  ``B`` sits strictly inside a block, to minus the Hodge class minus the
  attaching cotangent sum when ``B`` *is* a block, and to zero otherwise;
* the degree-two core generator ``nu`` maps to the nodal-locus class of
  the induced two-block shape when the partition coarsens to the
  four-two split, and to zero otherwise.

The *elliptic model* replaces the core by the gerbe class ``xi`` with
``l`` pulling back to ``-xi``; divisors equal to a whole block pull back
to zero, and ``nu`` has no defined pullback there.

Lifting renames block divisors back to ambient ones; restriction after
lift is the identity on a tail model.  The product of the pullbacks of
the whole-block divisors is the excess class ``ctop`` used to divide
corrections during patching.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

from .corering import min_class, min_presentation
from .exactring import (
    GradedPresentation,
    IntPolynomial,
    PresentationError,
    name_elements,
    subset_name,
)
from .keel import divisor_sum, keel_presentation
from .partitions import SetPartition, compose, disc_completion, refines, s_max


class NuRestrictionError(Exception):
    """Raised when the degree-two core generator is pulled back to an
    elliptic-singularity model, where no value is assigned to it."""


def banana_partition() -> SetPartition:
    """The six-marking partition into a four-block and a two-block that
    supports the degree-two core generator."""
    return disc_completion([[1, 2, 3, 4], [5, 6]], 6)


@dataclass(frozen=True)
class TailModel:
    """Closed model of one stratum: core ring tensor boundary factors."""

    n: int
    partition: SetPartition
    presentation: GradedPresentation

    def image_of(self, name: str) -> IntPolynomial:
        """Pullback of one ambient generator."""
        if name == "l":
            return IntPolynomial.symbol("l")
        if name == "nu":
            if self.n != 6:
                raise PresentationError("nu only exists with six markings")
            banana = banana_partition()
            if refines(banana, self.partition):
                induced = compose(banana, self.partition)
                return min_class("nod", self.partition.length, induced)
            return IntPolynomial.zero()
        elems = name_elements(name)
        if elems is None or not name.startswith("t"):
            raise PresentationError(f"not an ambient generator: {name!r}")
        home = self.partition.block_of(elems[0])
        if not set(elems) <= set(home):
            return IntPolynomial.zero()
        if elems == home:
            # The attaching cotangent class, written with the block's two
            # smallest markings.
            psi = divisor_sum(home, "d", home[:2], ())
            return -IntPolynomial.symbol("l") - psi
        return IntPolynomial.symbol(subset_name("d", elems))


@dataclass(frozen=True)
class EllModel:
    """Closed model of the elliptic-singularity locus over one partition."""

    n: int
    partition: SetPartition
    presentation: GradedPresentation

    def image_of(self, name: str) -> IntPolynomial:
        if name == "l":
            return -IntPolynomial.symbol("xi")
        if name == "nu":
            raise NuRestrictionError(
                "the degree-two core generator has no assigned pullback "
                "to an elliptic-singularity model"
            )
        elems = name_elements(name)
        if elems is None or not name.startswith("t"):
            raise PresentationError(f"not an ambient generator: {name!r}")
        home = self.partition.block_of(elems[0])
        if set(elems) < set(home):
            return IntPolynomial.symbol(subset_name("d", elems))
        return IntPolynomial.zero()


def _block_factors(partition: SetPartition) -> tuple[list[str], list[IntPolynomial]]:
    symbols: list[str] = []
    relations: list[IntPolynomial] = []
    for block in partition.nonsingleton_blocks():
        if len(block) == 2:
            continue  # a two-marking block carries no divisor generators
        ring = keel_presentation(block, prefix="d")
        symbols.extend(ring.presentation.symbols)
        relations.extend(ring.presentation.relations)
        relations.extend(
            IntPolynomial.monomial(m) for m in ring.presentation.kill_monomials()
        )
    return symbols, relations


@lru_cache(maxsize=None)
def tail_model(n: int, partition: SetPartition) -> TailModel:
    if partition.n != n:
        raise ValueError("partition is not on the marking set")
    core = min_presentation(partition.length)
    core_symbols = list(core.presentation.symbols)
    core_relations = list(core.presentation.relations)
    block_symbols, block_relations = _block_factors(partition)
    pres = GradedPresentation(
        core_symbols + block_symbols,
        core_relations + block_relations,
        name=f"tail({partition.text()})",
    )
    return TailModel(n=n, partition=partition, presentation=pres)


@lru_cache(maxsize=None)
def ell_model(n: int, partition: SetPartition) -> EllModel:
    if partition.n != n:
        raise ValueError("partition is not on the marking set")
    if partition == s_max(n):
        raise ValueError(
            "the all-singleton partition has no elliptic-singularity model"
        )
    block_symbols, block_relations = _block_factors(partition)
    pres = GradedPresentation(
        ["xi"] + block_symbols,
        block_relations,
        name=f"ell({partition.text()})",
    )
    return EllModel(n=n, partition=partition, presentation=pres)


def restrict_to_tail(
    n: int, partition: SetPartition, f: IntPolynomial
) -> IntPolynomial:
    """Pullback of an ambient class to the tail model of one stratum."""
    model = tail_model(n, partition)
    images = {name: model.image_of(name) for name in f.symbols_used()}
    return f.substitute(images)


def restrict_to_ell(
    n: int, partition: SetPartition, f: IntPolynomial
) -> IntPolynomial:
    """Pullback of an ambient class to the elliptic-singularity model."""
    model = ell_model(n, partition)
    images = {name: model.image_of(name) for name in f.symbols_used()}
    return f.substitute(images)


def lift_from_tail(
    n: int, partition: SetPartition, g: IntPolynomial
) -> IntPolynomial:
    """Rename block divisors to ambient boundary divisors; a section of the
    restriction map (restricting the lift returns ``g`` exactly)."""
    mapping: dict[str, str] = {}
    for name in g.symbols_used():
        if name in ("l", "nu"):
            continue
        elems = name_elements(name)
        if elems is None or not name.startswith("d"):
            raise PresentationError(f"not a tail-model generator: {name!r}")
        mapping[name] = subset_name("t", elems)
    return g.rename_symbols(mapping)


def ctop_tail(n: int, partition: SetPartition) -> IntPolynomial:
    """Product of the pullbacks of the whole-block divisors: the excess
    class dividing corrections during patching.  Undefined on the
    all-singleton partition."""
    blocks = partition.nonsingleton_blocks()
    if not blocks:
        raise ValueError(
            "the all-singleton stratum has no excess class to divide by"
        )
    model = tail_model(n, partition)
    total = IntPolynomial.one()
    for block in blocks:
        total = total * model.image_of(subset_name("t", block))
    return total
