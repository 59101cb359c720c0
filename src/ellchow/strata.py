"""Closed-stratum models of the polarised genus-one moduli and the
restriction maps onto them.

Over a partition ``S`` of the markings, a :class:`StratumModel` is the
product of a base ring with one genus-zero boundary ring per block of at
least three markings (markings of the block plus the implicit attaching
point).  The *tail model* takes the core ring on ``S``'s blocks as its
base; the *elliptic model* of the elliptic-singularity locus takes the
gerbe class ``xi`` instead.  Pullback of the ambient generators:

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

Without ``l`` or ``xi``, an elliptic model or a tail model of at most five
blocks is the tensor product of its blocks' Keel rings; it carries the
product of their degree maps, which reduces its top degree.

Lifting renames block divisors back to ambient ones; restriction after
lift is the identity on a tail model.  The product of the pullbacks of
the whole-block divisors is the excess class ``ctop`` used to divide
corrections during patching.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import lru_cache
from math import prod

from .corering import min_presentation, stratum_value
from .exactring import (
    GradedPresentation,
    IntPolynomial,
    PresentationError,
    name_elements,
    subset_name,
)
from .keel import divisor_sum, keel_integral, keel_presentation
from .partitions import SetPartition, disc_completion, s_max


class NuRestrictionError(Exception):
    """Raised when the degree-two core generator is pulled back to an
    elliptic-singularity model, where no value is assigned to it."""


def banana_partition() -> SetPartition:
    """The six-marking partition into a four-block and a two-block that
    supports the degree-two core generator."""
    return disc_completion([[1, 2, 3, 4], [5, 6]], 6)


@dataclass(frozen=True)
class StratumModel:
    """Closed model of one stratum: the core ring, or the gerbe class
    ``xi`` on the elliptic-singularity locus, tensor one genus-zero
    boundary ring per block of at least three markings."""

    n: int
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
            if self.n != 6:
                raise PresentationError("nu only exists with six markings")
            return stratum_value("nod", banana_partition(), self.partition)
        elems = name_elements(name)
        # A boundary divisor t{B} has at least two markings in B.
        if elems is None or len(elems) < 2 or not name.startswith("t"):
            raise PresentationError(f"not an ambient generator: {name!r}")
        home = self.partition.block_of(elems[0])
        # The first marking is checked; the markings increase, so the rest
        # lie in the ground set exactly when the last one does.
        if elems[-1] > self.n:
            outside = next(e for e in elems if e > self.n)
            raise ValueError(f"element {outside} not in ground set")
        if not set(elems) <= set(home):
            return IntPolynomial.zero()
        if elems != home:
            return IntPolynomial.symbol(subset_name("d", elems))
        if self.elliptic:
            return IntPolynomial.zero()
        # The attaching cotangent class, written with the block's two
        # smallest markings.
        psi = divisor_sum(home, "d", home[:2], ())
        return -IntPolynomial.symbol("l") - psi

    def restrict(self, f: IntPolynomial) -> IntPolynomial:
        """Pullback of an ambient class."""
        return f.substitute(self.image_of)


def _model(n: int, partition: SetPartition, elliptic: bool) -> StratumModel:
    if partition.n != n:
        raise ValueError("partition is not on the marking set")
    if elliptic:
        symbols, relations = ["xi"], []
    else:
        core = min_presentation(partition.length)
        symbols, relations = list(core.symbols), list(core.relations)
    # a two-marking block carries no divisor generators
    blocks = [block for block in partition.blocks if len(block) > 2]
    for block in blocks:
        ring = keel_presentation(block).presentation
        symbols.extend(ring.symbols)
        relations.extend(ring.defining_relations())
    degree_map = None
    if elliptic or partition.length <= 5:
        star = IntPolynomial.monomial((subset_name("d", b[1:]), len(b) - 2) for b in blocks)

        def integral(mono: list[tuple[str, int]]) -> int:
            return prod(keel_integral(b, [(nm, e) for nm, e in mono if name_elements(nm)[0] in b])
                        for b in blocks)

        degree_map = (star, integral)
    kind = "ell" if elliptic else "tail"
    pres = GradedPresentation(
        symbols, relations, name=f"{kind}({partition.text()})", degree_map=degree_map
    )
    return StratumModel(n, partition, pres, elliptic)


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
    return g.rename_symbols(_ambient_name)


@lru_cache(maxsize=None)
def _ambient_name(name: str) -> str:
    """The ambient name of a tail-model generator: ``d{B}`` becomes ``t{B}``."""
    if name in ("l", "nu"):
        return name
    elems = name_elements(name)
    if elems is None or not name.startswith("d"):
        raise PresentationError(f"not a tail-model generator: {name!r}")
    return subset_name("t", elems)


@lru_cache(maxsize=None)
def ctop_tail(n: int, partition: SetPartition) -> IntPolynomial:
    """Product of the pullbacks of the whole-block divisors: the excess
    class dividing corrections during patching (cached per stratum, like
    its tail model).  Undefined on the all-singleton partition."""
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
