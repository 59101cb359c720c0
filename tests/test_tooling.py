"""The benchmark's per-layer trace hooks still find what they wrap, the
exact-algebra package re-exports nothing that goes unused, and no module
imports a name it never uses."""

import ast
import os
import re
import subprocess
import sys
from pathlib import Path

from ellchow import exactring

ROOT = Path(__file__).resolve().parent.parent

SOLVE = """
from layers import LayerTrace

from ellchow import SetPartition, dm_space, ell_class
from ellchow.modular import qstable_presentation, torsion_report

trace = LayerTrace()
trace.install()
ell_class(4, SetPartition.parse("1 2|3 4", 4))
builds = trace.metrics()["presentation.lattice_builds"]
assert builds > 0, builds
# torsion_report reaches the Smith routine by the name the trace wraps.
torsion_report(qstable_presentation(3, dm_space(3)), 2)
smith_rows = trace.metrics()["lattice.smith_rows"]
assert smith_rows > 0, smith_rows
print(builds)
"""


def test_layer_trace_installs_and_counts():
    env = dict(os.environ, PYTHONDONTWRITEBYTECODE="1")
    env["PYTHONPATH"] = os.pathsep.join(
        [str(ROOT / "perfbench"), str(ROOT / "src")]
    )
    proc = subprocess.run(
        [sys.executable, "-c", SOLVE],
        capture_output=True,
        text=True,
        env=env,
        cwd=ROOT,
        timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    assert int(proc.stdout) > 0


def text_outside_exactring():
    """The source of ``src/``, ``tests/`` and ``perfbench/`` outside the
    exact-algebra package."""
    files = [
        path
        for path in (ROOT / "src" / "ellchow").rglob("*.py")
        if "exactring" not in path.relative_to(ROOT / "src" / "ellchow").parts
    ]
    files += list((ROOT / "tests").rglob("*.py"))
    files += list((ROOT / "perfbench").rglob("*.py"))
    return "\n".join(path.read_text(encoding="utf-8") for path in files)


def test_every_exactring_export_has_a_user_outside_the_package():
    text = text_outside_exactring()
    unused = [
        name
        for name in exactring.__all__
        if not re.search(rf"\b{re.escape(name)}\b", text)
    ]
    assert unused == []


def test_every_public_presentation_member_has_a_user_outside_the_package():
    pres = exactring.GradedPresentation(("l",), ())
    members = {name for name in dir(pres) if not name.startswith("_")}
    assert {"basis", "relations", "symbols", "vector"} <= members
    text = text_outside_exactring()
    unused = sorted(
        name for name in members if not re.search(rf"\.{re.escape(name)}\b", text)
    )
    assert unused == []


DIVISION_ONLY = """
from ellchow import (
    IntPolynomial,
    SetPartition,
    enumerate_partitions,
    ell_class,
    tail_model,
)
from ellchow.exactring import GradedPresentation
from ellchow.patch import restriction_offenders

rings = []
build = GradedPresentation.lattice

def lattice(pres, degree):
    rings.append(pres)
    return build(pres, degree)

GradedPresentation.lattice = lattice
# Every numerator the one-block class divides is the zero polynomial, which
# reads no lattice; the two-block class reads some.
for text in ("1 2 3 4", "1 2|3 4"):
    ell_class(4, SetPartition.parse(text, 4))
patched = len(rings)
assert patched
# Zero tests and normal forms on a tail model split off l as well.
restriction_offenders(4, IntPolynomial.parse("l^3 + l*t{1,2}^2 + t{1,2,3}^3"))
tail_model(4, SetPartition.parse("1 2 3 4", 4)).presentation.normal_form(
    IntPolynomial.parse("l^3 + l*d{1,2}^2")
)
assert len(rings) > patched
tails = [tail_model(4, s).presentation for s in enumerate_partitions(4)]
division = {id(pres._without("l")) for pres in tails}
full = {id(pres) for pres in tails}
assert not [pres.name for pres in rings if id(pres) in full]
assert not [pres.name for pres in rings if id(pres) not in division]
"""


def test_patching_builds_lattices_of_division_rings_only():
    # Division by the excess class, zero tests and normal forms run in the
    # l-free ring; a tail model's own lattice is never needed to patch a
    # class or to check its restrictions.
    env = dict(os.environ, PYTHONDONTWRITEBYTECODE="1")
    env["PYTHONPATH"] = str(ROOT / "src")
    proc = subprocess.run(
        [sys.executable, "-c", DIVISION_ONLY],
        capture_output=True,
        text=True,
        env=env,
        cwd=ROOT,
        timeout=120,
    )
    assert proc.returncode == 0, proc.stderr


def unused_imports(path):
    """The names ``path`` imports, ``__future__`` features aside, that it
    never reads."""
    tree = ast.parse(path.read_text(encoding="utf-8"))
    imported = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported |= {a.asname or a.name.partition(".")[0] for a in node.names}
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported |= {a.asname or a.name for a in node.names}
    return imported - {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}


def test_no_module_imports_a_name_it_never_uses():
    # A package __init__ imports names to re-export them
    unused = {
        str(path.relative_to(ROOT)): sorted(names)
        for folder in ("src", "tests", "perfbench")
        for path in sorted((ROOT / folder).rglob("*.py"))
        if path.name != "__init__.py" and (names := unused_imports(path))
    }
    assert unused == {}
