"""Presentations of modular compactifications and their invariants.

A compactification named by a singularity specification is excised from
the ambient ring: its presentation is the ambient relation list with every
contracted boundary divisor (one whose collision type is an allowed
singularity) set to zero, plus

* the product of every pairwise-disjoint family of divisors whose joint
  collision type is allowed;
* the elliptic-singularity classes of all partitions whose type is *not*
  allowed (those loci are removed from the space, so their classes
  vanish).

``torsion_report`` gives the Smith invariants of one graded piece.
``getzler_check`` verifies the classical degree-two cycle identity on four
markings against the patched nodal classes, entirely inside the ambient
ring.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations

from .exactring import (
    GradedPresentation,
    IntPolynomial,
    InvariantFactors,
    subset_name,
)
from .partitions import (
    QSpec,
    SetPartition,
    disc_completion,
    enumerate_partitions,
    lp_minimal,
    s_max,
    s_min,
    smyth,
    validate_qspec,
)
from .patch import (
    ambient_relations,
    ambient_symbols,
    boundary_subsets,
    classes_equal,
    ell_class,
    nod_class,
    restrict_to_tail,
    tau,
    tau_monomial,
)
from .strata import tail_model


def qspec_label(q: QSpec) -> str:
    if not q.allowed:
        return "dm"
    if q.allowed == lp_minimal(q.n).allowed:
        return "lp"
    for m in range(1, q.n):
        if q.allowed == smyth(q.n, m).allowed:
            return f"smyth:{m}"
    return "custom"


def _disjoint_family_kills(q: QSpec) -> list[IntPolynomial]:
    """One composite divisor per allowed partition with at least two
    non-singleton blocks, ordered by the indices of its blocks in
    ``boundary_subsets``."""
    index = {b: i for i, b in enumerate(boundary_subsets(q.n))}
    families = sorted(
        (sorted(index[b] for b in s.nonsingleton_blocks()), s)
        for s in q.allowed
        if s.codim() >= 2
    )
    return [tau_monomial(s) for _, s in families]


def qstable_presentation(n: int, q: QSpec) -> GradedPresentation:
    """The graded presentation of the compactification named by ``q``: the
    ambient generators less the contracted divisors, which are absent from
    its ``symbols``."""
    if q.n != n:
        raise ValueError("specification is for a different marking count")
    validate_qspec(q)
    zero = IntPolynomial.zero()
    subs = {
        subset_name("t", b): zero
        for b in boundary_subsets(n)
        if disc_completion([b], n) in q.allowed
    }
    symbols = [s for s in ambient_symbols(n) if s not in subs]
    relations = [*ambient_relations(n), *_disjoint_family_kills(q)]
    relations += [
        ell_class(n, s)
        for s in enumerate_partitions(n)
        # the all-singleton class does not exist with six markings
        if s not in q.allowed and not (n == 6 and s == s_max(n))
    ]
    # a contracted divisor is zero, so a relation or a family through it drops
    return GradedPresentation(
        symbols,
        [rel.substitute(subs) for rel in relations],
        name=f"qstable({n},{qspec_label(q)})",
    )


def torsion_report(pres: GradedPresentation, degree: int) -> InvariantFactors:
    return pres.smith_invariants(degree)


# -- the four-marking cycle identity --------------------------------------------


@dataclass(frozen=True)
class GetzlerReport:
    """Outcome of the four-marking cycle-identity verification.

    Two coefficient variants of the boundary expression for the pairing
    nodal sum are compared against the patched class: ``display_identity``
    uses the variant ending in −2·τ₂τ₄, ``corrected_identity`` the variant
    ending in −τ₂τ₄.  Only the latter agrees with the stratum restrictions
    (the −1 coefficient is the unique integer that works); both results are
    recorded so the discrepancy stays visible."""

    display_identity: bool
    corrected_identity: bool
    spot_values: dict[str, bool]
    ell_identity: bool


def getzler_check() -> GetzlerReport:
    """Verify the four-marking cycle identity: the patched sum of pairing
    nodal classes agrees, as an ambient class, with its boundary expression
    (in both coefficient variants — see :class:`GetzlerReport`); its
    restrictions match the expected stratum values; and the closed elliptic
    class of the one-block partition is exactly twenty-four times the Hodge
    square."""
    n = 4
    lam = IntPolynomial.symbol("l")
    # the symmetric boundary cycles of degree one and two
    tau2, tau3, tau4 = (
        sum((tau(b) for b in combinations(range(1, 5), i)), IntPolynomial.zero())
        for i in (2, 3, 4)
    )
    # the pairings into two pairs, and the patched sum of their nodal classes
    pairings = [
        disc_completion(p, n) for p in ([[1, 2], [3, 4]], [[1, 3], [2, 4]], [[1, 4], [2, 3]])
    ]
    tau22 = sum((tau_monomial(s) for s in pairings), IntPolynomial.zero())
    nod22 = sum((nod_class(n, s) for s in pairings), IntPolynomial.zero())
    base = (
        6 * lam**2
        + 6 * lam * tau3
        - 2 * tau2 * tau3
        + 6 * tau22
        + 6 * lam * tau4
        + 3 * tau3 * tau4
    )
    display_ok = classes_equal(n, nod22, base - 2 * tau2 * tau4)
    corrected_ok = classes_equal(n, nod22, base - tau2 * tau4)

    def tail_matches(partition: SetPartition, value: IntPolynomial) -> bool:
        model = tail_model(n, partition)
        r = restrict_to_tail(n, partition, nod22) - value
        return model.presentation.reduces_to_zero(r)

    lam2 = 6 * lam**2
    spot = {
        "all-singleton": tail_matches(s_max(n), lam2),
        "one-pair": tail_matches(
            disc_completion([[1, 2]], n), lam2
        ),
        "pair-of-pairs": tail_matches(
            disc_completion([[1, 2], [3, 4]], n), 12 * lam**2
        ),
        "one-triple": tail_matches(
            disc_completion([[1, 2, 3]], n), IntPolynomial.zero()
        ),
        "one-block": tail_matches(s_min(n), IntPolynomial.zero()),
    }

    ell_ok = classes_equal(n, ell_class(n, s_min(n)), 24 * lam**2)

    return GetzlerReport(
        display_identity=display_ok,
        corrected_identity=corrected_ok,
        spot_values=spot,
        ell_identity=ell_ok,
    )
