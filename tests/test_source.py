"""Source checks that need no linter: every module reads what it imports,
every public function and class has a caller outside the tests, no
constructor takes a check switch, and importing the package loads every
traced layer."""

import ast
import subprocess
import sys
from collections import Counter
from pathlib import Path

import pytest

ROOT = Path(__file__).parent.parent
SOURCES = sorted(p for p in (ROOT / "src" / "ghostdim").glob("*.py")
                 if p.name != "__init__.py")       # __init__ only imports the layers
# Where a caller may live: the package, the tools and the benchmark harness.
CALLERS = SOURCES + sorted(p for d in ("tools", "perfbench") for p in (ROOT / d).glob("*.py")
                           if not p.name.startswith("test_"))


def unused_imports(source):
    """Names bound by an import statement that the module never reads."""
    tree = ast.parse(source)
    bound = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                bound[alias.asname or alias.name.split(".")[0]] = node.lineno
    read = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    return sorted((line, name) for name, line in bound.items() if name not in read)


def test_the_checker_sees_an_unused_import():
    assert unused_imports("import os\nfrom a import b, c as d\nprint(b)\n") == [(1, "os"), (2, "d")]


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.name)
def test_every_import_is_read(path):
    assert unused_imports(path.read_text()) == []


def names_read(tree):
    """How often each name is read in tree, bare or as an attribute."""
    return Counter(n.id if isinstance(n, ast.Name) else n.attr for n in ast.walk(tree)
                   if isinstance(n, (ast.Name, ast.Attribute)))


def traced_names():
    """Top-level names that perfbench/spans.py TARGETS resolves in the package."""
    tree = ast.parse((ROOT / "perfbench" / "spans.py").read_text())
    targets = next(n.value for n in tree.body if isinstance(n, ast.Assign)
                   and getattr(n.targets[0], "id", "") == "TARGETS")
    return {ast.literal_eval(t)[1].split(".")[0] for t in targets.elts}


def is_click_command(node):
    return any(isinstance(d, ast.Call) and getattr(d.func, "attr", "") in ("command", "group")
               for d in getattr(node, "decorator_list", ()))


def uncalled_public_names():
    """Public top-level functions and classes of the package that nothing
    outside their own body reads, other than click commands and traced names."""
    trees = {p: ast.parse(p.read_text()) for p in CALLERS}
    reads = sum((names_read(tree) for tree in trees.values()), Counter())
    exempt = traced_names()
    return [f"{path.name}:{node.name}" for path in SOURCES for node in trees[path].body
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)) and not node.name.startswith("_")
            and node.name not in exempt and not is_click_command(node)
            and reads[node.name] == names_read(node)[node.name]]


def test_every_public_name_has_a_caller_outside_the_tests():
    assert uncalled_public_names() == []


def test_a_recursive_call_is_not_a_caller():
    tree = ast.parse("def f(n):\n    return f(n - 1)\n\ndef g():\n    return 1\n\nh = g\n")
    f, g, _ = tree.body
    reads = names_read(tree)
    assert reads["f"] == names_read(f)["f"] and reads["g"] > names_read(g)["g"]


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.name)
def test_no_check_switch(path):
    tree = ast.parse(path.read_text())
    switches = [n.lineno for n in ast.walk(tree)
                if isinstance(n, ast.keyword) and n.arg == "check"
                or isinstance(n, ast.arg) and n.arg == "check"]
    assert switches == []


def test_importing_the_package_loads_every_traced_layer():
    """perfbench/spans.py finds the namespaces to wrap in sys.modules after
    `import ghostdim`, so that import alone must load each layer."""
    code = ("import sys; sys.path[:0] = [sys.argv[1], sys.argv[2]]; import ghostdim, spans; "
            "print(*[layer for layer in spans.LAYERS if f'ghostdim.{layer}' not in sys.modules])")
    out = subprocess.run([sys.executable, "-c", code, str(ROOT / "src"), str(ROOT / "perfbench")],
                         capture_output=True, text=True, check=True)
    assert out.stdout.split() == []
