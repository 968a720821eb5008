"""Source checks that need no linter: every module of the package, the
tests and the tools reads what it imports, every public function, class
and method has a caller outside the tests, no
constructor takes a check switch, no module forms a dense Kronecker
product, no call of suspend passes a shift, and importing the package
loads every traced layer."""

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
# Modules whose imports must all be read.  perfbench/spans.py imports the
# package only to load every layer, so the harness is left out.
IMPORTERS = SOURCES + sorted(p for d in ("tests", "tools") for p in (ROOT / d).glob("*.py"))


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


@pytest.mark.parametrize("path", IMPORTERS,
                         ids=lambda p: p.name if p in SOURCES else p.relative_to(ROOT).as_posix())
def test_every_import_is_read(path):
    assert unused_imports(path.read_text()) == []


def names_read(tree):
    """How often each name is read in tree, bare or as an attribute."""
    return Counter(n.id if isinstance(n, ast.Name) else n.attr for n in ast.walk(tree)
                   if isinstance(n, (ast.Name, ast.Attribute)))


def attributes_read(tree):
    """How often each name is read in tree as an attribute (obj.name)."""
    return Counter(n.attr for n in ast.walk(tree) if isinstance(n, ast.Attribute))


def traced_names():
    """The names that perfbench/spans.py TARGETS resolves in the package: each
    qualified name ("Tower.nullity") and its top-level name ("Tower")."""
    tree = ast.parse((ROOT / "perfbench" / "spans.py").read_text())
    targets = next(n.value for n in tree.body if isinstance(n, ast.Assign)
                   and getattr(n.targets[0], "id", "") == "TARGETS")
    qualified = {ast.literal_eval(t)[1] for t in targets.elts}
    return qualified | {name.split(".")[0] for name in qualified}


def is_click_command(node):
    return any(isinstance(d, ast.Call) and getattr(d.func, "attr", "") in ("command", "group")
               for d in getattr(node, "decorator_list", ()))


def public_defs(tree):
    """(qualified name, node, reader) of the public top-level functions and
    classes, read by names_read, and of the public methods of those classes,
    read by attributes_read."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)) and not node.name.startswith("_"):
            yield node.name, node, names_read
            if isinstance(node, ast.ClassDef):
                yield from ((f"{node.name}.{m.name}", m, attributes_read) for m in node.body
                            if isinstance(m, ast.FunctionDef) and not m.name.startswith("_"))


def uncalled_public_names(callers=CALLERS, sources=SOURCES):
    """Public top-level functions and classes of the package, and public
    methods of its public classes, that nothing outside their own body
    reads, other than click commands and traced names.  A method counts as
    read only where an attribute of its name is (obj.method): a local
    variable of the same name does not call it."""
    trees = {p: ast.parse(p.read_text()) for p in callers}
    reads = {reader: sum((reader(tree) for tree in trees.values()), Counter())
             for reader in (names_read, attributes_read)}
    exempt = traced_names()
    return [f"{path.name}:{name}" for path in sources for name, node, reader in public_defs(trees[path])
            if name not in exempt and not is_click_command(node)
            and reads[reader][node.name] == reader(node)[node.name]]


def test_every_public_name_has_a_caller_outside_the_tests():
    assert uncalled_public_names() == []


def test_a_local_variable_does_not_call_a_method(tmp_path):
    """`act = ...` in one function is no call of a method act."""
    src = tmp_path / "src.py"
    src.write_text("class M:\n    def act(self):\n        return 1\n\n"
                   "    def used(self):\n        return 2\n\n\n"
                   "def run(m):\n    act = m.used()\n    return act\n")
    caller = tmp_path / "caller.py"
    caller.write_text("run(M())\n")
    assert uncalled_public_names([src, caller], [src]) == ["src.py:M.act"]


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


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.name)
def test_no_dense_kronecker_product(path):
    """Kronecker-structured systems are posed as the triples of
    linalg.kron_nonzeros, never as a dense np.kron."""
    tree = ast.parse(path.read_text())
    assert [n.lineno for n in ast.walk(tree) if isinstance(n, ast.Attribute) and n.attr == "kron"] == []


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.name)
def test_no_call_of_suspend_passes_a_shift(path):
    """The package suspends once at a time: the tower, its stage pieces and
    the Rouquier steps are cones, and no desuspension is formed."""
    tree = ast.parse(path.read_text())
    shifted = [n.lineno for n in ast.walk(tree) if isinstance(n, ast.Call)
               and (getattr(n.func, "id", None) or getattr(n.func, "attr", None)) == "suspend"
               and (len(n.args) > 1 or n.keywords)]
    assert shifted == []


def test_importing_the_package_loads_every_traced_layer():
    """perfbench/spans.py finds the namespaces to wrap in sys.modules after
    `import ghostdim`, so that import alone must load each layer."""
    code = ("import sys; sys.path[:0] = [sys.argv[1], sys.argv[2]]; import ghostdim, spans; "
            "print(*[layer for layer in spans.LAYERS if f'ghostdim.{layer}' not in sys.modules])")
    out = subprocess.run([sys.executable, "-c", code, str(ROOT / "src"), str(ROOT / "perfbench")],
                         capture_output=True, text=True, check=True)
    assert out.stdout.split() == []
