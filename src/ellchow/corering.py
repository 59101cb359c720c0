"""Core rings of the moduli of polarised genus-one curves, and the table
of singular-locus classes they carry.

For up to five markings the core ring is a free polynomial ring on the
Hodge class ``l``.  With six markings two relations appear and the ring
matches the cohomology of the Grassmannian of lines in four-space, with
``nu`` the degree-two Schubert generator; :func:`schubert_to_ln` converts
Schubert classes into the ``l``/``nu`` coordinates.

:func:`min_class` looks up the core-ring value of a closed elliptic- or
nodal-singularity locus by marking count and branch shape.  Missing
entries (empty loci) raise :class:`ClassTableError`.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from functools import lru_cache
from importlib import resources

from .exactring import GradedPresentation, IntPolynomial
from .partitions import SetPartition


class ClassTableError(Exception):
    """Raised when a singular-locus class is requested that the table does
    not carry (the locus is empty in that regime)."""


@dataclass(frozen=True)
class MinRing:
    """The core ring on ``m`` markings."""

    m: int
    presentation: GradedPresentation


_L = IntPolynomial.symbol("l")
_NU = IntPolynomial.symbol("nu")


def core_relation_seeds() -> tuple[IntPolynomial, IntPolynomial]:
    """The two six-marking core relations, in ``l``/``nu`` coordinates."""
    return (
        _L**4 - _L**2 * _NU - _NU**2,
        _L**5 - 3 * _L**3 * _NU + 2 * _L * _NU**2,
    )


@lru_cache(maxsize=None)
def min_presentation(m: int) -> MinRing:
    """Core ring: free on the Hodge class for ``m <= 5``; for ``m == 6``
    the two :func:`core_relation_seeds` cut it down to the
    line-Grassmannian cohomology."""
    if not 1 <= m <= 6:
        raise ValueError("marking count must be between 1 and 6")
    if m <= 5:
        pres = GradedPresentation(["l"], [], name=f"min({m})")
    else:
        pres = GradedPresentation(
            ["l", "nu"], core_relation_seeds(), name="min(6)"
        )
    return MinRing(m=m, presentation=pres)


def _schubert_single(a: int) -> IntPolynomial:
    if a < 0 or a > 3:
        return IntPolynomial.zero()
    if a == 0:
        return IntPolynomial.one()
    if a == 1:
        return _L
    if a == 2:
        return _NU
    return 2 * _L * _NU - _L**3


def schubert_to_ln(a1: int, a2: int = 0) -> IntPolynomial:
    """The Schubert class with index ``(a1, a2)`` of the line Grassmannian
    in four-space, as a normal-form polynomial in ``l`` and ``nu``."""
    if not (3 >= a1 >= a2 >= 0):
        raise ValueError("Schubert index must satisfy 3 >= a1 >= a2 >= 0")
    raw = _schubert_single(a1) * _schubert_single(a2) - _schubert_single(
        a1 + 1
    ) * _schubert_single(a2 - 1)
    return min_presentation(6).presentation.normal_form(raw)


@lru_cache(maxsize=None)
def _class_table() -> dict:
    data = (
        resources.files("ellchow.data")
        .joinpath("class_table.json")
        .read_text(encoding="utf-8")
    )
    raw = json.loads(data)
    table: dict[tuple[str, int, tuple[int, ...]], IntPolynomial] = {}
    for kind in ("ell", "nod"):
        for m_str, shapes in raw.get(kind, {}).items():
            for shape_str, poly_text in shapes.items():
                shape = tuple(int(x) for x in shape_str.split(","))
                table[(kind, int(m_str), shape)] = IntPolynomial.parse(
                    poly_text
                )
    return table


def min_class(
    kind: str, m: int, shape: tuple[int, ...] | SetPartition
) -> IntPolynomial:
    """Core-ring class of the closed singular locus of the given kind
    (``"ell"`` or ``"nod"``) with ``m`` markings and the given branch
    shape; raises :class:`ClassTableError` when the locus carries no such
    class."""
    if kind not in ("ell", "nod"):
        raise ValueError(f"unknown class kind {kind!r}")
    if isinstance(shape, SetPartition):
        shape = shape.shape()
    key = (kind, m, tuple(sorted(shape, reverse=True)))
    value = _class_table().get(key)
    if value is None:
        raise ClassTableError(
            f"no {kind} class with {m} markings and shape {key[2]}"
        )
    return value
