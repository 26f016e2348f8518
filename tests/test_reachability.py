"""Static checks on the library source.

Every private module-level name in the library is used by the library: a
helper that only its own tests reach is dead weight, and the first test
fails as soon as one is left behind, whatever the tests import.  Every
public function or class is named by another library module (the CLI
among them), by the benchmark or by the package's ``__all__``, and every
public method of a module-level class is read as an attribute
(``.name``) by library or benchmark code outside its own definition; a
bare name of the same spelling, such as a loop variable, is no use of
the method.  The last test keeps one cycle list per graph: only
``MultiGraph.cycles`` reaches ``enumerate_cycles``, and
nothing writes through ``object.__setattr__``.  The blocking-structure
module lists no cycle: its only cycle sources are the chordless vertex
sets and the fundamental cycles of a spanning forest, among which a
disjoint pair is named.  The bias module lists no theta: it tests pairs
of balanced cycles instead.  Every field of a classification report is
read off a ``report`` by library, CLI or benchmark code outside the
classifier.  Only the limits module builds a ``ResourceLimitError``: every
other module counts through its ``Budget``, and may re-raise a caught one.
"""

from __future__ import annotations

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "tanglekit"
BENCH = SRC.parent.parent / "tanglebench"


def _private_definitions(tree: ast.Module) -> list[tuple[str, ast.stmt]]:
    """Module-level (name, defining statement) pairs for names starting with _."""
    out = []
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            names = [node.name]
        elif isinstance(node, ast.Assign):
            names = [t.id for t in node.targets if isinstance(t, ast.Name)]
        elif isinstance(node, ast.AnnAssign) and isinstance(node.target, ast.Name):
            names = [node.target.id]
        else:
            continue
        out += [(n, node) for n in names if n.startswith("_") and not n.endswith("__")]
    return out


def _uses(node: ast.AST) -> set[str]:
    """Names read, attributes taken and names imported anywhere in node."""
    found: set[str] = set()
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name) and not isinstance(sub.ctx, ast.Store):
            found.add(sub.id)
        elif isinstance(sub, ast.Attribute):
            found.add(sub.attr)
        elif isinstance(sub, ast.alias):
            found.add(sub.name)
    return found


def test_every_private_module_name_is_used_by_the_library():
    trees = [ast.parse(p.read_text(), filename=str(p)) for p in sorted(SRC.glob("*.py"))]
    # the names each top-level statement of the library uses
    uses = [(stmt, _uses(stmt)) for tree in trees for stmt in tree.body]
    unused = [
        name
        for tree in trees
        for name, node in _private_definitions(tree)
        if not any(name in names for stmt, names in uses if stmt is not node)
    ]
    assert unused == []


def _exported(init: ast.Module) -> set[str]:
    for node in init.body:
        if isinstance(node, ast.Assign) and any(getattr(t, "id", None) == "__all__" for t in node.targets):
            return set(ast.literal_eval(node.value))
    return set()


def test_every_public_name_is_reached_from_outside_its_module():
    trees = {p.name: ast.parse(p.read_text(), filename=str(p)) for p in sorted(SRC.glob("*.py"))}
    # the package module imports what it exports, so it counts through __all__ only
    reached = _exported(trees["__init__.py"])
    for p in BENCH.glob("*.py"):
        if not p.name.startswith("test_"):
            reached |= _uses(ast.parse(p.read_text(), filename=str(p)))
    unreached = []
    for name, tree in trees.items():
        named = reached.union(*(_uses(t) for n, t in trees.items() if n not in (name, "__init__.py")))
        unreached += [
            f"{name}:{node.name}"
            for node in tree.body
            if isinstance(node, (ast.FunctionDef, ast.ClassDef))
            and not node.name.startswith("_")
            and node.name not in named
        ]
    assert unreached == []


def _references(node: ast.AST, scope: tuple[str, ...] = (), attributes_only: bool = False):
    """(enclosing def/class names, name) for each name read, attribute taken
    or name imported under node; with ``attributes_only``, for each
    attribute taken alone."""
    for child in ast.iter_child_nodes(node):
        inner = scope
        if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            inner = scope + (child.name,)
        if isinstance(child, ast.Attribute):
            yield inner, child.attr
        elif isinstance(child, ast.Name) and not isinstance(child.ctx, ast.Store) and not attributes_only:
            yield inner, child.id
        elif isinstance(child, ast.alias) and not attributes_only:
            yield inner, child.name
        yield from _references(child, inner, attributes_only)


def test_every_public_method_is_reached_outside_its_definition():
    trees = {p.name: ast.parse(p.read_text(), filename=str(p)) for p in sorted(SRC.glob("*.py"))}
    reached: set[str] = set()
    for p in BENCH.glob("*.py"):
        if not p.name.startswith("test_"):
            reached |= {attr for _, attr in _references(ast.parse(p.read_text(), filename=str(p)), attributes_only=True)}
    # each attribute the library reads -> (module, outermost two enclosing defs)
    readers: dict[str, set[tuple[str, tuple[str, ...]]]] = {}
    for name, tree in trees.items():
        for scope, ref in _references(tree, attributes_only=True):
            readers.setdefault(ref, set()).add((name, scope[:2]))
    unreached = [
        f"{name}:{cls.name}.{node.name}"
        for name, tree in trees.items()
        for cls in tree.body
        if isinstance(cls, ast.ClassDef)
        for node in cls.body
        if isinstance(node, ast.FunctionDef)
        and not node.name.startswith("_")
        and node.name not in reached
        and not readers.get(node.name, set()) - {(name, (cls.name, node.name))}
    ]
    assert unreached == []


def test_only_the_graph_enumerates_its_cycles():
    offences = []
    for path in sorted(SRC.glob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        for scope, name in _references(tree):
            where = f"{path.name}:{'.'.join(scope) or '<module>'}"
            if name == "enumerate_cycles" and (path.name, scope) != ("graph.py", ("MultiGraph", "cycles")):
                offences.append(f"{where} reaches enumerate_cycles")
            elif name == "__setattr__":
                offences.append(f"{where} calls __setattr__")
    assert offences == []


def test_no_verdict_lists_a_cycle():
    # a cycle source is a function or method of the graph or bias module
    # that yields or returns cycles: its name says cycles, or it lists
    # chordless vertex sets or thetas
    sources = {"chordless_vertex_sets", "enumerate_theta_subgraphs"}
    for name in ("graph.py", "bias.py"):
        tree = ast.parse((SRC / name).read_text())
        sources |= {n.name for n in ast.walk(tree) if isinstance(n, ast.FunctionDef) and "cycles" in n.name}
    assert {"cycles", "enumerate_cycles", "unbalanced_cycles", "cycles_with", "cycles_inside"} <= sources
    path = SRC / "tangles.py"
    names = {name for _, name in _references(ast.parse(path.read_text(), filename=str(path)))}
    assert sorted(names & sources) == ["chordless_vertex_sets", "fundamental_cycles"]


def test_bias_completion_lists_no_theta():
    path = SRC / "bias.py"
    names = {name for _, name in _references(ast.parse(path.read_text(), filename=str(path)))}
    assert "enumerate_theta_subgraphs" not in names


def _report_reads(tree: ast.AST) -> set[str]:
    """Attributes read off a name ``report``: the library and the benchmark
    give that name to every classification report they hold."""
    return {
        n.attr
        for n in ast.walk(tree)
        if isinstance(n, ast.Attribute) and isinstance(n.value, ast.Name) and n.value.id == "report"
    }


def test_every_report_field_is_read_outside_the_classifier():
    tree = ast.parse((SRC / "classify.py").read_text())
    report = next(n for n in tree.body if isinstance(n, ast.ClassDef) and n.name == "ClassificationReport")
    fields = {n.target.id for n in report.body if isinstance(n, ast.AnnAssign)}
    readers = [p for p in SRC.glob("*.py") if p.name != "classify.py"]
    readers += [p for p in BENCH.glob("*.py") if not p.name.startswith("test_")]
    read = set().union(*(_report_reads(ast.parse(p.read_text(), filename=str(p))) for p in readers))
    assert sorted(fields - read) == []


def test_only_the_limits_module_builds_a_resource_limit_error():
    builders = []
    for path in sorted(SRC.glob("*.py")):
        if path.name == "limits.py":
            continue
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            if isinstance(node, ast.Call):
                f = node.func
                if (f.id if isinstance(f, ast.Name) else getattr(f, "attr", None)) == "ResourceLimitError":
                    builders.append(f"{path.name}:{node.lineno}")
    assert builders == []
