"""The benchmark's workloads: inputs made from a seed, the timed solve, and
the gate that checks the solve's results against frozen expected values.

Every call into ``ellchow`` goes through a module attribute, so the wrappers
of a traced run (``layers.py``) see it.

The three smaller workloads are cut so that one cold solve takes seconds
and a run holds several; ``lift6`` cannot be cut and holds one.

* ``g0six`` — graded ranks to degree 3 of the genus-zero boundary ring on
  six markings (56 generators): one large lattice, bound by staircase
  insertion.  Patching, strata and Smith are never touched.  Degree 4
  would triple the solve.
* ``sweep5`` — the elliptic-singularity class of every five-marking
  partition except the all-singleton one, each compared in the ambient ring
  with its frozen value: the library path of ``verify appendix --n 5``.  Many
  small tail lattices, divisions and residue queries.  The all-singleton
  partition is left out because its comparison alone builds the degree-6
  ambient lattice, a single insertion-bound build that doubles the sweep's
  time and that ``g0six`` already covers.
* ``torsion5`` — the presentation of the five-marking Deligne–Mumford space
  (52 patched classes), then its Smith invariants in degrees 2 and 3: the
  only workload that diagonalises.  Degree 4 would add 17 s of Smith.
* ``lift6`` — lifting the first six-marking core relation into the ambient
  ring from level 5 down: patching on large six-marking tail lattices, and
  the only workload that pulls back the degree-two core class ``nu``.

The seed shuffles the order of independent items: ``sweep5``'s partitions
and ``torsion5``'s degrees.  Every gate is order-invariant.
"""

from __future__ import annotations

import json
import random
from pathlib import Path
from typing import Any, Callable, NamedTuple

import ellchow.corering
import ellchow.keel
import ellchow.modular
import ellchow.partitions
import ellchow.patch
import ellchow.strata
from ellchow.exactring import IntPolynomial

EXPECTED = json.loads((Path(__file__).with_name("expected.json")).read_text())
G0SIX_DEGREE = 3
TORSION5_DEGREES = (2, 3)


class Workload(NamedTuple):
    prepare: Callable[[int], Any]  # seed -> inputs (part of set-up)
    solve: Callable[[Any], Any]  # inputs -> result (timed)
    check: Callable[[Any, Any], list[tuple[str, bool]]]  # untimed gate


# -- g0six ---------------------------------------------------------------------


def _g0six_prepare(seed: int) -> tuple[int, ...]:
    return tuple(range(1, 7))


def _g0six_solve(markings: tuple[int, ...]) -> list[int]:
    ring = ellchow.keel.keel_presentation(markings).presentation
    return ring.hilbert_function(G0SIX_DEGREE)


def _g0six_check(markings, ranks: list[int]) -> list[tuple[str, bool]]:
    points = ellchow.keel.mzero_point_poly(len(markings) + 1)
    return [
        ("hilbert function", ranks == EXPECTED["g0six"]["hilbert"]),
        ("point count", ranks == points[: len(ranks)]),
    ]


# -- sweep5 --------------------------------------------------------------------


def _sweep5_prepare(seed: int) -> list[tuple[Any, IntPolynomial]]:
    items = [
        (ellchow.partitions.SetPartition.parse(text, 5), IntPolynomial.parse(poly))
        for text, poly in EXPECTED["sweep5"]["classes"].items()
    ]
    random.Random(seed).shuffle(items)
    return items


def _sweep5_solve(items) -> list[tuple[str, bool]]:
    out = []
    for partition, expected in items:
        value = ellchow.patch.ell_class(5, partition)
        out.append((partition.text(), ellchow.patch.classes_equal(5, value, expected)))
    return out


def _sweep5_check(items, verdicts: list[tuple[str, bool]]) -> list[tuple[str, bool]]:
    return verdicts


# -- torsion5 ------------------------------------------------------------------


def _torsion5_prepare(seed: int):
    degrees = list(TORSION5_DEGREES)
    random.Random(seed).shuffle(degrees)
    return ellchow.partitions.dm_space(5), degrees


def _torsion5_solve(inputs) -> dict[int, tuple[int, list[int]]]:
    space, degrees = inputs
    qp = ellchow.modular.qstable_presentation(5, space)
    out = {}
    for d in degrees:
        inv = ellchow.modular.torsion_report(qp, d)
        out[d] = (inv.rank, list(inv.torsion))
    return out


def _torsion5_check(inputs, found) -> list[tuple[str, bool]]:
    return [
        (f"degree {d}", list(found.get(int(d), ())) == [rank, torsion])
        for d, (rank, torsion) in EXPECTED["torsion5"].items()
    ]


# -- lift6 ---------------------------------------------------------------------


def _lift6_prepare(seed: int) -> IntPolynomial:
    return ellchow.corering.core_relation_seeds()[0]


def _lift6_solve(seed_relation: IntPolynomial) -> IntPolynomial:
    return ellchow.patch.lift_relation(6, seed_relation, start_length=5)


def _lift6_check(seed_relation, lifted: IntPolynomial) -> list[tuple[str, bool]]:
    top = ellchow.partitions.s_max(6)
    core = ellchow.strata.tail_model(6, top).presentation
    residue = core.normal_form(
        ellchow.strata.restrict_to_tail(6, top, lifted) - seed_relation
    )
    return [
        ("restricts to zero", ellchow.patch.restricts_to_zero_everywhere(6, lifted)),
        ("section of restriction", residue.is_zero()),
    ]


WORKLOADS: dict[str, Workload] = {
    "g0six": Workload(_g0six_prepare, _g0six_solve, _g0six_check),
    "sweep5": Workload(_sweep5_prepare, _sweep5_solve, _sweep5_check),
    "torsion5": Workload(_torsion5_prepare, _torsion5_solve, _torsion5_check),
    "lift6": Workload(_lift6_prepare, _lift6_solve, _lift6_check),
}
