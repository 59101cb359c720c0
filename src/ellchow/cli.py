"""Command-line interface.

Subcommands:

* ``present``  — print the presentation of a compactification;
* ``class``    — compute the elliptic or nodal class of a partition;
* ``verify``   — run a named check suite (``appendix``, ``relations``,
  ``getzler``, ``torsion``, ``duality``, ``counts``);
* ``hilbert``  — print the free ranks of a compactification's graded
  pieces;
* ``restrict`` — pull an ambient class back to one stratum model.

Spaces are named ``dm``, ``smyth:<m>``, ``lp``, or ``qfile:<path>`` (a
JSON singularity specification).

Each subcommand is a function of the parsed arguments alone and returns
``(payload, lines)``: ``payload`` is the dict that ``--format json``
prints as one indented JSON object, and ``lines`` are the text output.
``run`` is the only writer.  Exit status: 1 when a ``verify`` payload has
``"passed": false``, 2 on usage or input errors, 0 otherwise.
"""

from __future__ import annotations

import argparse
import json
import sys
from contextlib import suppress
from dataclasses import dataclass
from typing import Sequence

from .corering import ClassTableError, stratum_value
from .exactring import IntPolynomial, PresentationError
from .exactring.poly import MAX_DEGREE
from .keel import keel_presentation, mzero_point_poly
from .modular import getzler_check, qstable_presentation, torsion_report
from .partitions import (
    QSpec,
    SetPartition,
    dm_space,
    enumerate_partitions,
    lp_minimal,
    s_max,
    smyth,
)
from .patch import (
    ambient_symbols,
    classes_equal,
    ell_class,
    expected_class,
    fundamental_classes,
    load_fixture_file,
    nod_class,
    relation_families,
    restricts_to_zero_everywhere,
    singular_target,
)
from .strata import NuRestrictionError, ell_model, tail_model


@dataclass(frozen=True)
class Check:
    name: str
    source: str  # "fixture" | "table" | "identity" | "count"
    ok: bool


def _parse_space(n: int, text: str) -> QSpec:
    if text == "dm":
        return dm_space(n)
    if text == "lp":
        return lp_minimal(n)
    if text.startswith("smyth:"):
        try:
            bound = int(text.split(":", 1)[1])
        except ValueError:
            raise ValueError(f"unknown space {text!r}") from None
        return smyth(n, bound)
    if text.startswith("qfile:"):
        return QSpec.load(text.split(":", 1)[1])
    raise ValueError(f"unknown space {text!r}")


def _dm_and_smyth(n: int) -> list[tuple[str, QSpec]]:
    """``dm`` then ``smyth:1`` … ``smyth:n-1``, each with its label."""
    return [("dm", dm_space(n))] + [
        (f"smyth:{m}", smyth(n, m)) for m in range(1, n)
    ]


# -- verify suites --------------------------------------------------------------


def _verify_appendix(args) -> list[Check]:
    n = args.n
    table = None if args.fixtures is None else load_fixture_file(args.fixtures)
    expected = {}
    for s in enumerate_partitions(n):
        # the one elliptic class the core table lacks fails where patching starts
        with suppress(KeyError, ClassTableError):
            stratum_value("ell", s, s_max(n))
            expected[s] = expected_class(n, s, table)
    classes = fundamental_classes(n, [singular_target("ell", n, s) for s in expected])
    ok = {s: classes_equal(n, c, expected[s]) for s, c in zip(expected, classes)}
    return [Check(f"class:{n}:{s.text()}", "fixture", ok.get(s, False))
            for s in enumerate_partitions(n)]


def _verify_relations(args) -> list[Check]:
    n = args.n
    checks = []
    for family, rels in relation_families(n).items():
        ok = all(restricts_to_zero_everywhere(n, r) for r in rels)
        checks.append(Check(f"relations:{family}:{n}", "identity", ok))
    return checks


def _verify_getzler(args) -> list[Check]:
    if args.n != 4:
        raise ValueError(
            f"the getzler suite is on four markings only (got --n {args.n})"
        )
    report = getzler_check()
    checks = [
        Check(
            "getzler:boundary-expression",
            "identity",
            report.corrected_identity,
        ),
        # The variant of the boundary expression ending in -2*t2*t4 does not
        # hold; the engine pins down -1 as the unique working coefficient.
        # This line passes when that discrepancy is reproduced exactly.
        Check(
            "getzler:coefficient-discrepancy",
            "identity",
            report.corrected_identity and not report.display_identity,
        ),
        Check("getzler:one-block-class", "table", report.ell_identity),
    ]
    checks.extend(
        Check(f"getzler:restriction:{name}", "table", ok)
        for name, ok in report.spot_values.items()
    )
    return checks


def _verify_torsion(args) -> list[Check]:
    # only the stable space carries degree-two torsion, the order-24 class
    n = args.n
    return [
        Check(
            f"torsion:{label}:{n}:degree2",
            "table",
            torsion_report(qstable_presentation(n, q), 2).torsion
            == ((24,) if label == "dm" else ()),
        )
        for label, q in _dm_and_smyth(n)
    ]


def _verify_duality(args) -> list[Check]:
    n = args.n
    checks = []
    for label, q in _dm_and_smyth(n):
        ranks = qstable_presentation(n, q).hilbert_function(n)
        checks.append(
            Check(f"duality:{label}:{n}", "identity", ranks == ranks[::-1])
        )
    return checks


def _verify_counts(args) -> list[Check]:
    checks = []
    for k in range(4, 8):
        poly = mzero_point_poly(k)
        ring = keel_presentation(range(1, k))
        ranks = ring.presentation.hilbert_function(k - 3)
        checks.append(
            Check(
                f"counts:genus-zero:{k}",
                "count",
                poly == list(reversed(ranks)),
            )
        )
    return checks


_VERIFY = {
    "appendix": _verify_appendix,
    "relations": _verify_relations,
    "getzler": _verify_getzler,
    "torsion": _verify_torsion,
    "duality": _verify_duality,
    "counts": _verify_counts,
}


# -- subcommands: each returns (payload, lines) ------------------------------------


def _cmd_verify(args) -> tuple[dict, list[str]]:
    if args.fixtures is not None and args.target != "appendix":
        raise ValueError("--fixtures applies to verify appendix only")
    checks = _VERIFY[args.target](args)
    width = max((len(c.name) for c in checks), default=4)
    lines = [
        f"{c.name:<{width}}  {c.source:<8}  {'ok' if c.ok else 'FAIL'}"
        for c in checks
    ]
    lines.append(f"passed {sum(c.ok for c in checks)}/{len(checks)}")
    payload = {
        "checks": [
            {
                "name": c.name,
                "source": c.source,
                "status": "ok" if c.ok else "fail",
            }
            for c in checks
        ],
        "passed": all(c.ok for c in checks),
    }
    return payload, lines


def _cmd_present(args) -> tuple[dict, list[str]]:
    pres = qstable_presentation(args.n, _parse_space(args.n, args.space))
    deleted = sorted(set(ambient_symbols(args.n)) - set(pres.symbols))
    relations = pres.defining_relations()
    payload = {
        "name": pres.name,
        "symbols": list(pres.symbols),
        "deleted": deleted,
        "relations": [r.to_json_obj() for r in relations],
    }
    lines = [pres.name, "generators: " + " ".join(pres.symbols)]
    if deleted:
        lines.append("deleted: " + " ".join(deleted))
    lines += [f"  {r.text()}" for r in relations]
    return payload, lines


def _cmd_class(args) -> tuple[dict, list[str]]:
    n = args.n
    if (args.ell is None) == (args.nod is None):
        raise ValueError("pass exactly one of --ell or --nod")
    if args.ell is not None:
        kind, part = "ell", SetPartition.parse(args.ell, n)
        value = ell_class(n, part)
    else:
        kind, part = "nod", SetPartition.parse(args.nod, n)
        value = nod_class(n, part)
    payload = {
        "n": n,
        "kind": kind,
        "partition": part.text(),
        "class": value.to_json_obj(),
    }
    return payload, [value.text()]


def _cmd_hilbert(args) -> tuple[dict, list[str]]:
    q = _parse_space(args.n, args.space)
    if args.degree is not None and args.degree < 0:
        raise ValueError(f"degree {args.degree} is negative")
    if args.degree is not None and args.degree > MAX_DEGREE:
        raise ValueError(f"degree {args.degree} exceeds {MAX_DEGREE}, the largest monomial degree")
    pres = qstable_presentation(args.n, q)
    ranks = pres.hilbert_function(args.n if args.degree is None else args.degree)
    payload = {"space": pres.name, "ranks": ranks}
    return payload, [" ".join(str(r) for r in ranks)]


def _cmd_restrict(args) -> tuple[dict, list[str]]:
    n = args.n
    part = SetPartition.parse(args.partition, n)
    f = IntPolynomial.parse(args.poly)
    model = ell_model(n, part) if args.ell else tail_model(n, part)
    value = model.presentation.normal_form(model.restrict(f))
    payload = {
        "n": n,
        "partition": part.text(),
        "model": "ell" if args.ell else "tail",
        "value": value.to_json_obj(),
    }
    return payload, [value.text()]


_COMMANDS = {
    "present": _cmd_present,
    "class": _cmd_class,
    "verify": _cmd_verify,
    "hilbert": _cmd_hilbert,
    "restrict": _cmd_restrict,
}


# -- argument wiring ---------------------------------------------------------------


class _ArgumentParser(argparse.ArgumentParser):
    """The parser of a subcommand.  With ``signed_values`` set, it reads an
    argument that starts with one ``-`` and is no option of its own, such
    as ``-l`` or ``-2*t{1,2}``, as a value: the text of a class starts with
    ``-`` whenever its leading coefficient is negative."""

    signed_values = False

    def _parse_optional(self, arg_string):
        if (
            self.signed_values
            and arg_string[:1] == "-"
            and arg_string[1:2] != "-"
            and arg_string not in self._option_string_actions
        ):
            return None
        return super()._parse_optional(arg_string)


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="ellchow",
        description="Integral intersection rings of modular compactifications "
        "of genus-one curves.",
    )
    sub = parser.add_subparsers(
        dest="command", required=True, parser_class=_ArgumentParser
    )

    def common(p):
        p.add_argument("--n", type=int, required=True, help="marking count")
        p.add_argument(
            "--format", choices=("text", "json"), default="text"
        )

    p = sub.add_parser("present", help="print a compactification presentation")
    common(p)
    p.add_argument("--space", default="dm")

    p = sub.add_parser("class", help="compute a singular-locus class")
    common(p)
    p.add_argument("--ell", metavar="PARTITION")
    p.add_argument("--nod", metavar="PARTITION")

    p = sub.add_parser("verify", help="run a named check suite")
    p.add_argument("target", choices=sorted(_VERIFY))
    p.add_argument("--n", type=int, default=4)
    p.add_argument("--format", choices=("text", "json"), default="text")
    p.add_argument("--fixtures", help="alternative expected-class file")

    p = sub.add_parser("hilbert", help="free ranks of the graded pieces")
    common(p)
    p.add_argument("--space", default="dm")
    p.add_argument("--degree", type=int)

    p = sub.add_parser("restrict", help="pull a class back to a stratum")
    p.signed_values = True
    common(p)
    p.add_argument("--partition", required=True)
    p.add_argument(
        "--ell",
        action="store_true",
        help="use the elliptic-singularity model instead of the tail model",
    )
    p.add_argument("poly", help="polynomial text, e.g. '24*l^2 + t{1,2}^2'")

    return parser


def run(argv: Sequence[str] | None = None, out=None) -> int:
    out = out or sys.stdout
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        code = exc.code
        return code if isinstance(code, int) else 2
    try:
        if not 1 <= args.n <= 6:
            raise ValueError(
                f"marking count {args.n} out of range (supported: 1..6)"
            )
        payload, lines = _COMMANDS[args.command](args)
    except (
        ValueError,
        PresentationError,
        NuRestrictionError,
        ClassTableError,
        OSError,
        json.JSONDecodeError,
    ) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    if args.format == "json":
        json.dump(payload, out, indent=2)
        out.write("\n")
    else:
        out.writelines(line + "\n" for line in lines)
    return 1 if payload.get("passed") is False else 0


def main() -> None:
    sys.exit(run())


if __name__ == "__main__":
    main()
