"""Closed-stratum models of the polarised genus-one moduli and the
restriction maps onto them.

Over a partition ``S`` of the markings, a :class:`StratumModel` is the
tensor product of a base ring with the genus-zero boundary ring
``keel_presentation`` returns for each block of at least three markings
(markings of the block plus the implicit attaching point), and reduces one
factor at a time.  The *tail model* takes the core ring on ``S``'s blocks
as its base; the *elliptic model* of the elliptic-singularity locus takes
``Z[xi]``, on the gerbe class.  Pullback of the ambient generators:

* the Hodge class ``l`` maps to the core Hodge class on a tail model and
  to ``-xi`` on an elliptic model;
* a boundary divisor ``t{B}`` maps to the block divisor ``d{B}`` when
  ``B`` sits strictly inside a block and to zero when ``B`` meets two
  blocks; when ``B`` *is* a block it maps to minus the Hodge class minus
  the attaching cotangent sum on a tail model, and to zero on an
  elliptic model;
* the degree-two core generator ``nu`` maps to the nodal-locus class of
  the induced two-block shape when the partition coarsens to the
  four-two split, and to zero otherwise; it has no defined pullback to
  an elliptic model.

Lifting renames block divisors back to ambient ones; restriction after
lift is the identity on a tail model.  The restriction of a partition's
composite divisor ``tau_monomial`` (the product of the pullbacks of its
whole-block divisors) is the excess class ``ctop`` used to divide
corrections during patching.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import lru_cache
from typing import Iterable

from .corering import min_presentation, stratum_value
from .exactring import (
    GradedPresentation,
    IntPolynomial,
    PresentationError,
    name_elements,
    subset_name,
)
from .keel import keel_presentation, psi_star
from .partitions import SetPartition, disc_completion, s_max


class NuRestrictionError(Exception):
    """Raised when the degree-two core generator is pulled back to an
    elliptic-singularity model, where no value is assigned to it."""


def banana_partition() -> SetPartition:
    """The six-marking partition into a four-block and a two-block that
    supports the degree-two core generator."""
    return disc_completion([[1, 2, 3, 4], [5, 6]], 6)


def tau(subset: Iterable[int]) -> IntPolynomial:
    """The boundary divisor of one marking subset."""
    elems = tuple(sorted(subset))
    if len(elems) < 2:
        raise ValueError("boundary subsets need at least two markings")
    return IntPolynomial.symbol(subset_name("t", elems))


@lru_cache(maxsize=None)
def tau_monomial(partition: SetPartition) -> IntPolynomial:
    """The composite divisor of a partition: the product of the divisors
    of its non-singleton blocks (one for the all-singleton partition),
    cached per partition like ``ctop_tail``."""
    total = IntPolynomial.one()
    for block in partition.nonsingleton_blocks():
        total = total * tau(block)
    return total


@dataclass(frozen=True)
class StratumModel:
    """Closed model of one stratum: the core ring, or the gerbe class
    ``xi`` on the elliptic-singularity locus, tensor one genus-zero
    boundary ring per block of at least three markings."""

    partition: SetPartition
    presentation: GradedPresentation
    elliptic: bool
    _images: dict[str, IntPolynomial] = field(
        default_factory=dict, init=False, repr=False, compare=False
    )

    def image_of(self, name: str) -> IntPolynomial:
        """Pullback of one ambient generator (kept per model)."""
        image = self._images.get(name)
        if image is None:
            image = self._images[name] = self._pullback(name)
        return image

    def _pullback(self, name: str) -> IntPolynomial:
        if name == "l":
            if self.elliptic:
                return -IntPolynomial.symbol("xi")
            return IntPolynomial.symbol("l")
        if name == "nu":
            if self.elliptic:
                raise NuRestrictionError(
                    "the degree-two core generator has no assigned pullback "
                    "to an elliptic-singularity model"
                )
            if self.partition.n != 6:
                raise PresentationError("nu only exists with six markings")
            return stratum_value("nod", banana_partition(), self.partition)
        elems = name_elements(name)
        # A boundary divisor t{B} has at least two markings in B.
        if elems is None or len(elems) < 2 or not name.startswith("t"):
            raise PresentationError(f"not an ambient generator: {name!r}")
        home = self.partition.block_of(elems[0])
        # The first marking is checked; the markings increase, so the rest
        # lie in the ground set exactly when the last one does.
        if elems[-1] > self.partition.n:
            outside = next(e for e in elems if e > self.partition.n)
            raise ValueError(f"element {outside} not in ground set")
        if not set(elems) <= set(home):
            return IntPolynomial.zero()
        if elems != home:
            return IntPolynomial.symbol(subset_name("d", elems))
        if self.elliptic:
            return IntPolynomial.zero()
        # The attaching cotangent class, written with the block's two
        # smallest markings.
        return -IntPolynomial.symbol("l") - psi_star(home)

    def restrict(self, f: IntPolynomial) -> IntPolynomial:
        """Pullback of an ambient class."""
        return f.substitute(self.image_of)


def _model(n: int, partition: SetPartition, elliptic: bool) -> StratumModel:
    if partition.n != n:
        raise ValueError("partition is not on the marking set")
    base = GradedPresentation(["xi"], []) if elliptic else min_presentation(partition.length)
    # a two-marking block carries no divisor generators
    blocks = [keel_presentation(b).presentation for b in partition.blocks if len(b) > 2]
    kind = "ell" if elliptic else "tail"
    pres = GradedPresentation.tensor_product([base, *blocks], f"{kind}({partition.text()})")
    return StratumModel(partition, pres, elliptic)


@lru_cache(maxsize=None)
def tail_model(n: int, partition: SetPartition) -> StratumModel:
    return _model(n, partition, elliptic=False)


@lru_cache(maxsize=None)
def ell_model(n: int, partition: SetPartition) -> StratumModel:
    if partition == s_max(n):
        raise ValueError(
            "the all-singleton partition has no elliptic-singularity model"
        )
    return _model(n, partition, elliptic=True)


def restrict_to_tail(
    n: int, partition: SetPartition, f: IntPolynomial
) -> IntPolynomial:
    """Pullback of an ambient class to the tail model of one stratum."""
    return tail_model(n, partition).restrict(f)


def lift_from_tail(g: IntPolynomial) -> IntPolynomial:
    """Rename block divisors to ambient boundary divisors; a section of the
    restriction map (restricting the lift returns ``g`` exactly)."""
    return g.substitute(_ambient_image)


@lru_cache(maxsize=None)
def _ambient_image(name: str) -> IntPolynomial:
    """The ambient symbol of a tail-model generator: ``d{B}`` becomes ``t{B}``."""
    if name in ("l", "nu"):
        return IntPolynomial.symbol(name)
    elems = name_elements(name)
    if elems is None or not name.startswith("d"):
        raise PresentationError(f"not a tail-model generator: {name!r}")
    return IntPolynomial.symbol(subset_name("t", elems))


@lru_cache(maxsize=None)
def ctop_tail(n: int, partition: SetPartition) -> IntPolynomial:
    """The restriction of the composite divisor: the excess class dividing
    corrections during patching (cached per stratum, like its tail model).
    Undefined on the all-singleton partition."""
    if not partition.nonsingleton_blocks():
        raise ValueError(
            "the all-singleton stratum has no excess class to divide by"
        )
    return restrict_to_tail(n, partition, tau_monomial(partition))
