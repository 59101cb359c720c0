"""The benchmark's per-layer trace hooks still find what they wrap, the
exact-algebra package re-exports nothing that goes unused, no module
imports a name it never uses, no helper goes unnamed outside its
definition or lives on tests alone, every function runs under some
command, and README's quick start and command lines run as shown."""

import ast
import importlib
import io
import json
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
    module-level class, module-level assigned name and class method defined
    in ``src/ellchow``, dunders aside."""
    for path in sorted((ROOT / "src" / "ellchow").rglob("*.py")):
        parts = path.relative_to(ROOT / "src").with_suffix("").parts
        module = ".".join(parts[:-1] if parts[-1] == "__init__" else parts)
        for node in ast.parse(path.read_text(encoding="utf-8")).body:
            if isinstance(node, ast.ClassDef):
                yield module, None, node.name
            if isinstance(node, (ast.Assign, ast.AnnAssign)):
                for target in node.targets if isinstance(node, ast.Assign) else [node.target]:
                    if isinstance(target, ast.Name) and not target.id.startswith("__"):
                        yield module, None, target.id
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
    how often a line there defines it: as a function, a class or a name
    assigned at module level."""
    text = source_text(*folders)
    definitions = re.findall(r"(?m)^(?:\s*(?:def|class) (\w+)|(\w+)(?: *:[^=\n]*)? *=[^=])", text)
    return Counter(re.findall(r"\w+", text)), Counter(a or b for a, b in definitions)


def test_every_helper_is_named_outside_its_definition():
    """A function, class or module-level constant whose name appears only
    where it is defined is dead.  A module-level name the package does not
    export must be named by the program itself, and so must a method, as
    ``.name`` or, since the benchmark's trace wraps methods by name, as a
    string there: tests alone do not keep a helper alive.  An override of a
    base class method is called by that base.

    The rule matches names, so it cannot tell same-named methods apart: a
    use of one ``to_json_obj`` keeps every ``to_json_obj`` alive.  The
    reachability test below runs the commands instead, but it cannot see
    classes or what the benchmark reaches; this rule covers both."""
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


REACH = """
import io, json, sys
from ellchow import cli

ran = set()

def profile(frame, event, arg):
    if event == "call":
        ran.add(frame.f_code)

sys.setprofile(profile)
for argv in json.loads(sys.argv[1]):
    cli.run(argv, out=io.StringIO())
sys.setprofile(None)
print(json.dumps([[c.co_filename, c.co_firstlineno, c.co_name] for c in ran]))
"""

# What no command runs, each kept for a reason of its own.
UNREACHED = [
    # the console-script entry point; it only hands ``run``'s status to exit
    "ellchow.cli.main",
    # the Schubert-class dictionary that acceptance criterion 9 checks
    "ellchow.corering._schubert_single",
    "ellchow.corering.schubert_to_ln",
    # the benchmark's trace wraps it by name
    "ellchow.exactring.lattice.Echelon.contains",
    # fifteen tests read it; spelling it out in each would not shrink the code
    "ellchow.exactring.poly.IntPolynomial.degree",
    # refuses a polynomial outside the ring, which only a library caller passes
    "ellchow.exactring.presentation.GradedPresentation._refuse",
]


def defined_functions():
    """``(path, first line, name, dotted name)`` of every function and method
    in ``src/ellchow``, nested ones too, dunders aside.  A decorated
    function's code starts at its first decorator."""
    def walk(node, path, prefix):
        for child in ast.iter_child_nodes(node):
            if not isinstance(child, (ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
                yield from walk(child, path, prefix)
                continue
            if not isinstance(child, ast.ClassDef) and not (
                child.name.startswith("__") and child.name.endswith("__")
            ):
                first = min([d.lineno for d in child.decorator_list] + [child.lineno])
                yield path, first, child.name, prefix + child.name
            yield from walk(child, path, prefix + child.name + ".")

    for path in sorted((ROOT / "src" / "ellchow").rglob("*.py")):
        parts = path.relative_to(ROOT / "src").with_suffix("").parts
        module = ".".join(parts[:-1] if parts[-1] == "__init__" else parts)
        tree = ast.parse(path.read_text(encoding="utf-8"))
        yield from walk(tree, str(path), module + ".")


def test_every_function_runs_under_some_command(tmp_path):
    # README's commands (verify appendix and getzler among them), the other
    # verify suites, each input file kind and the paths that only some inputs
    # take; a function none of them runs is dead unless UNREACHED gives its
    # reason.
    space, fixtures = tmp_path / "space.json", tmp_path / "fixtures.json"
    space.write_text('{"n": 3, "allowed": ["1 2 3"]}')
    fixtures.write_text('{"2": {"1 2": "24*l^2", "1|2": "24*l^3 + 24*l^2*t{1,2}"}}')
    commands = [argv for argv, _ in readme_commands()] + [
        ["verify", target, "--n", "3"] for target in ("relations", "torsion", "duality")
    ] + [
        ["verify", "counts", "--format", "json"],
        ["present", "--n", "3", "--space", f"qfile:{space}"],
        ["verify", "appendix", "--n", "2", "--fixtures", str(fixtures)],
        ["class", "--n", "3", "--nod", "1 2|3"],
        ["restrict", "--n", "3", "--partition", "1 2|3", "--ell", "l + t{1,2}"],
        ["restrict", "--n", "6", "--partition", "1 2 3 4|5 6", "nu"],
        # reaches six_marking_extras
        ["present", "--n", "6", "--space", "lp"],
        # reaches the degree overflow
        ["restrict", "--n", "2", "--partition", "1 2", "l^200"],
    ]
    env = dict(os.environ, PYTHONDONTWRITEBYTECODE="1", PYTHONPATH=str(ROOT / "src"))
    proc = subprocess.run(
        [sys.executable, "-c", REACH, json.dumps(commands)],
        capture_output=True, text=True, env=env, cwd=ROOT, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    ran = {(str(Path(f).resolve()), line, name) for f, line, name in json.loads(proc.stdout)}
    unreached = sorted(
        dotted for path, line, name, dotted in defined_functions()
        if (path, line, name) not in ran
    )
    assert unreached == UNREACHED


def readme_commands():
    """The ``ellchow`` lines of README's command-line block: each one's
    arguments, and the text after its trailing ``# ->``, if any."""
    readme = (ROOT / "README.md").read_text(encoding="utf-8")
    block = re.search(r"## Command-line interface\n.*?```sh\n(.*?)```", readme, re.S)[1]
    return [
        (shlex.split(command)[1:], comment.strip())
        for command, _, comment in (
            line.partition("# ->") for line in block.splitlines() if line.startswith("ellchow ")
        )
    ]


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
    shown = []
    for argv, comment in readme_commands():
        out = io.StringIO()
        assert cli.run(argv, out=out) == 0, argv
        if comment:
            assert out.getvalue() == comment + "\n", argv
            shown.append(comment)
    assert shown == ["1 2 1", "24*l^2", "0"]
