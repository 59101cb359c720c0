"""The benchmark's per-layer trace hooks still find what they wrap, the
exact-algebra package re-exports nothing that goes unused, no module
imports a name it never uses, no helper goes unnamed outside its
definition or lives on tests alone, and README's quick start and command
lines run as shown."""

import ast
import importlib
import io
import os
import re
import shlex
import subprocess
import sys
from collections import Counter
from pathlib import Path

import ellchow
from ellchow import cli, exactring

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
# Zero tests and normal forms on a tail model reduce in the factors too.
restriction_offenders(4, IntPolynomial.parse("l^2*t{1,2} + l*t{1,2}^2 + t{1,2,3}^3"))
tail_model(4, SetPartition.parse("1 2 3 4", 4)).presentation.normal_form(
    IntPolynomial.parse("l^2*d{1,2} + l*d{1,2}^2")
)
assert len(rings) > patched
tails = [tail_model(4, s).presentation for s in enumerate_partitions(4)]
factors = {id(ring) for pres in tails for ring in pres._factors}
full = {id(pres) for pres in tails}
assert not [pres.name for pres in rings if id(pres) in full]
assert not [pres.name for pres in rings if id(pres) not in factors]
"""


def test_patching_builds_lattices_of_division_rings_only():
    # Division by the excess class, zero tests and normal forms reduce in a
    # tail model's genus-zero factors; its own lattice is never needed to
    # patch a class or to check its restrictions.
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


def defined_helpers():
    """``(module, class or None, name)`` of every module-level function,
    module-level class and class method defined in ``src/ellchow``, dunders
    aside."""
    for path in sorted((ROOT / "src" / "ellchow").rglob("*.py")):
        parts = path.relative_to(ROOT / "src").with_suffix("").parts
        module = ".".join(parts[:-1] if parts[-1] == "__init__" else parts)
        for node in ast.parse(path.read_text(encoding="utf-8")).body:
            if isinstance(node, ast.ClassDef):
                yield module, None, node.name
            members = node.body if isinstance(node, ast.ClassDef) else [node]
            owner = node.name if isinstance(node, ast.ClassDef) else None
            for fn in members:
                if isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef)) and not (
                    fn.name.startswith("__") and fn.name.endswith("__")
                ):
                    yield module, owner, fn.name


def source_text(*folders):
    """The ``*.py`` files of ``folders``, joined."""
    return "\n".join(
        path.read_text(encoding="utf-8")
        for folder in folders
        for path in (ROOT / folder).rglob("*.py")
    )


def names_and_definitions(folders):
    """How often each word appears in the ``*.py`` files of ``folders``, and
    how often a line there defines it."""
    text = source_text(*folders)
    definitions = re.findall(r"(?m)^\s*(?:def|class) (\w+)", text)
    return Counter(re.findall(r"\w+", text)), Counter(definitions)


def test_every_helper_is_named_outside_its_definition():
    # A function or class whose name appears only where it is defined is
    # dead.  A module-level name the package does not export must be named
    # by the program itself, and so must a method, as ``.name`` or, since
    # the benchmark's trace wraps methods by name, as a string there: tests
    # alone do not keep a helper alive.  An override of a base class method
    # is called by that base.
    # A name appears as a whole word token, so one pass counts every name; a
    # definition starts its line, so prose such as "the class of" defines
    # nothing.
    everywhere = names_and_definitions(("src", "tests", "perfbench"))
    program = names_and_definitions(("src", "perfbench"))
    attributes = Counter(re.findall(r"\.(\w+)", source_text("src", "perfbench")))
    attributes.update(re.findall(r"[\"'](\w+)[\"']", source_text("perfbench")))
    exported = set(ellchow.__all__) | set(exactring.__all__)
    dead = []
    for module, owner, name in defined_helpers():
        if owner is not None:
            cls = getattr(importlib.import_module(module), owner)
            if any(hasattr(base, name) for base in cls.__mro__[1:]):
                continue
            unused = not attributes[name]
        else:
            uses, definitions = everywhere if name in exported else program
            unused = uses[name] <= definitions[name]
        if unused:
            dead.append(f"{module}.{owner + '.' if owner else ''}{name}")
    assert dead == []


def test_readme_quick_start_shows_what_it_computes():
    # Each bare expression of the quick start ends in a comment showing its
    # value: a list or tuple as its repr, a class as its text.
    readme = (ROOT / "README.md").read_text(encoding="utf-8")
    block = re.search(r"## Quick start\n+```python\n(.*?)```", readme, re.S)[1]
    lines = block.splitlines()
    namespace: dict = {}
    shown = []
    for node in ast.parse(block).body:
        if not isinstance(node, ast.Expr):
            exec(compile(ast.Module([node], []), "README.md", "exec"), namespace)
            continue
        value = eval(compile(ast.Expression(node.value), "README.md", "eval"), namespace)
        text = value.text() if isinstance(value, exactring.IntPolynomial) else repr(value)
        comment = lines[node.end_lineno - 1].partition("#")[2]
        assert comment.rstrip().endswith(text), (comment, text)
        shown.append(value)
    assert shown == [[1, 2, 1, 0], (1, (24,)), exactring.IntPolynomial.parse("24*l^2")]


def test_readme_command_lines_exit_zero_and_print_what_they_show():
    # Every ellchow line of the command-line block exits 0, and a trailing
    # "# -> X" comment is the whole text the line prints.
    readme = (ROOT / "README.md").read_text(encoding="utf-8")
    block = re.search(r"## Command-line interface\n.*?```sh\n(.*?)```", readme, re.S)[1]
    shown = []
    for line in block.splitlines():
        if not line.startswith("ellchow "):
            continue
        command, _, comment = line.partition("# ->")
        out = io.StringIO()
        assert cli.run(shlex.split(command)[1:], out=out) == 0, line
        if comment:
            assert out.getvalue() == comment.strip() + "\n", line
            shown.append(comment.strip())
    assert shown == ["1 2 1", "24*l^2", "0"]
