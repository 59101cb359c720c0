"""Per-layer counts and self times for the traced benchmark run.

``LayerTrace.install`` wraps the public functions of each ``ellchow`` layer
where their callers look them up: methods on their class, module-level
functions in every module that imported them.  Each wrapper is a span that
records its call count, its duration and its self time (the duration minus
the time spent in wrapped children).  Only a traced worker installs it; the
timed runs never import this module.

Layer names are the module names.  The metrics, and the end-to-end time each
should move on which workload, are listed in ``PER_LAYER`` in ``run.py``.
"""

from __future__ import annotations

import statistics
import time
from collections import defaultdict
from typing import Callable

import ellchow.keel
import ellchow.modular
import ellchow.patch
import ellchow.strata
from ellchow.exactring import presentation
from ellchow.exactring.lattice import Echelon
from ellchow.exactring.presentation import GradedPresentation


class LayerTrace:
    """Spans and counters accumulated across one traced solve."""

    def __init__(self) -> None:
        self.calls: dict[str, int] = defaultdict(int)
        self.self_s: dict[str, float] = defaultdict(float)
        self.total_s: dict[str, float] = defaultdict(float)
        self.class_durations: list[float] = []
        self.smith_rows = 0
        # Lattices returned by GradedPresentation.lattice, by identity; a
        # first sighting is a build (a cache miss).  Holding them keeps ids
        # unique for the whole run.
        self._lattices: dict[int, Echelon] = {}
        self._stack: list[float] = []
        self._tail_misses_at_start = 0

    def span(
        self, name: str, fn: Callable, durations: list[float] | None = None
    ) -> Callable:
        stack = self._stack

        def wrapper(*args, **kwargs):
            stack.append(0.0)
            t0 = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                dt = time.perf_counter() - t0
                children = stack.pop()
                self.calls[name] += 1
                self.self_s[name] += dt - children
                self.total_s[name] += dt
                if durations is not None:
                    durations.append(dt)
                if stack:
                    stack[-1] += dt

        return wrapper

    def install(self) -> None:
        def wrap(owner, attr: str, name: str) -> None:
            setattr(owner, attr, self.span(name, getattr(owner, attr)))

        wrap(Echelon, "insert", "lattice.insert")
        wrap(Echelon, "residue", "lattice.residue")
        wrap(Echelon, "contains", "lattice.residue")

        smith = self.span("lattice.smith", presentation.smith_invariants_of_rows)

        def smith_of_rows(flat_rows):
            # Generate the product rows first, so that their cost stays with
            # the caller (row generation) and not with the diagonalisation.
            rows = list(flat_rows)
            self.smith_rows += len(rows)
            return smith(rows)

        presentation.smith_invariants_of_rows = smith_of_rows

        build = GradedPresentation.lattice

        def lattice_of(pres, degree):
            ech = build(pres, degree)
            self._lattices.setdefault(id(ech), ech)
            return ech

        GradedPresentation.lattice = self.span("presentation.lattice", lattice_of)
        # Smith's own product-row generation is the same work as a lattice
        # build's, so both count as presentation.lattice self time.
        wrap(GradedPresentation, "smith_invariants", "presentation.lattice")
        wrap(GradedPresentation, "vector", "presentation.vector")
        wrap(GradedPresentation, "divide_in_quotient", "presentation.divide")
        wrap(GradedPresentation, "reduces_to_zero", "presentation.reduce")
        wrap(GradedPresentation, "normal_form", "presentation.normal_form")

        for module in (ellchow.patch, ellchow.modular):
            wrap(module, "restrict_to_tail", "strata.restrict")
        wrap(ellchow.patch, "lift_from_tail", "strata.lift")
        wrap(ellchow.patch, "ctop_tail", "strata.ctop")

        ellchow.patch.fundamental_class = self.span(
            "patch.class", ellchow.patch.fundamental_class, self.class_durations
        )

        wrap(ellchow.modular, "qstable_presentation", "modular.qstable")
        wrap(ellchow.modular, "torsion_report", "modular.torsion")

        for module in (ellchow.keel, ellchow.strata):
            wrap(module, "keel_presentation", "keel.build")

        self._tail_misses_at_start = ellchow.strata.tail_model.cache_info().misses

    def metrics(self) -> dict[str, float]:
        """Per-layer metric values, keyed by the names in ``PER_LAYER``."""
        built = list(self._lattices.values())
        rows_inserted = self.calls["lattice.insert"]
        ranks = sum(ech.rank for ech in built)
        coeffs = [abs(row[i]) for ech in built for row in ech.rows
                  for i in range(1, len(row), 2)]
        durations = self.class_durations
        p50 = statistics.median(durations) if durations else 0.0
        p80 = (
            statistics.quantiles(durations, n=5, method="inclusive")[3]
            if len(durations) > 1
            else p50
        )

        tail_misses = ellchow.strata.tail_model.cache_info().misses
        return {
            "lattice.rows_inserted": rows_inserted,
            "lattice.insert_s": self.self_s["lattice.insert"],
            "lattice.useful_ratio": ranks / rows_inserted if rows_inserted else 0.0,
            "lattice.stored_nnz": sum(len(row) // 2 for ech in built for row in ech.rows),
            "lattice.max_coeff_bits": max((c.bit_length() for c in coeffs), default=0),
            "lattice.residue_s": self.self_s["lattice.residue"],
            "lattice.smith_s": self.self_s["lattice.smith"],
            "lattice.smith_rows": self.smith_rows,
            "presentation.vector_calls": self.calls["presentation.vector"],
            "presentation.vector_s": self.self_s["presentation.vector"],
            "presentation.lattice_self_s": self.self_s["presentation.lattice"],
            "presentation.lattice_builds": len(built),
            "presentation.divide_calls": self.calls["presentation.divide"],
            "presentation.divide_self_s": self.self_s["presentation.divide"],
            "presentation.reduce_calls": self.calls["presentation.reduce"],
            "presentation.normal_form_s": self.self_s["presentation.normal_form"],
            "strata.tail_models": tail_misses - self._tail_misses_at_start,
            "strata.restrict_s": self.self_s["strata.restrict"],
            "strata.lift_s": self.self_s["strata.lift"],
            "strata.ctop_s": self.self_s["strata.ctop"],
            "patch.classes": len(durations),
            "patch.class_p50_s": p50,
            "patch.class_p80_s": p80,
            "modular.qstable_self_s": self.self_s["modular.qstable"],
            "modular.torsion_s": self.total_s["modular.torsion"],
            "keel.build_s": self.total_s["keel.build"],
        }
