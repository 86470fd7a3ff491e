"""Every function, method and class in the package serves a command: walked
over the source's syntax tree from ``cli.main``, or named below with the
reason it stays.  Check routes that only the tests call live in the tests
(``paper_checks``), not in the package."""

import ast
from pathlib import Path

import twistlab

PACKAGE = Path(twistlab.__file__).resolve().parent

#: Definitions no command reaches, each kept for a reason.  A class listed
#: here keeps all of its methods.
KEPT = {
    "twist.twist_direct": "the benchmark's tracer wraps it and binds n_max",
    "twist.TwistPartialSum": "the value twist_direct returns",
    "twist.DivisorStream.tail_bound": "the benchmark's grid check calls it",
    "twist.DivisorStream.a": "the tests' per-n reference routes read one coefficient at a time",
    "transform.laurent_extract": "the benchmark's tracer wraps it",
    "transform.LaurentExpansion": "the value laurent_extract returns",
    "transform.contour_integral": "the benchmark's tracer wraps it",
    "transform.transformation_polar_consistency": "the benchmark's tracer wraps it",
    "bernoulli.bernoulli_number": "public API, exported by the package",
    "exactpoly.Polynomial.eval_mpc": "public API: numeric evaluation of an exact polynomial",
}


def _definitions():
    """{qualified name: node} of every module-level function and class and
    every method, with per-module import tables and class bodies."""
    defs, imports, modules = {}, {}, {}
    for path in sorted(PACKAGE.glob("*.py")):
        module = path.stem
        tree = ast.parse(path.read_text())
        modules[module] = tree
        table = imports[module] = {}
        for node in tree.body:
            if isinstance(node, ast.ImportFrom) and node.level == 1:
                for alias in node.names:
                    target = f"{node.module}.{alias.name}" if node.module else alias.name
                    table[alias.asname or alias.name] = target
            elif isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                defs[f"{module}.{node.name}"] = node
                if isinstance(node, ast.ClassDef):
                    for item in node.body:
                        if isinstance(item, ast.FunctionDef):
                            defs[f"{module}.{node.name}.{item.name}"] = item
    return defs, imports, modules


def _is_brought_in(method: ast.FunctionDef) -> bool:
    """Dunders, properties and __post_init__ run whenever their class is used."""
    dunder = method.name.startswith("__") and method.name.endswith("__")
    return dunder or method.name == "__post_init__" or any(
        isinstance(d, ast.Name) and d.id in ("property", "cached_property")
        for d in method.decorator_list)


def reached(roots) -> set:
    """Qualified names reached from ``roots`` (and from the statements every
    module but the package's ``__init__`` runs on import)."""
    defs, imports, modules = _definitions()
    seen, attrs, todo = set(), set(), []

    def resolve(module, name):
        target = imports[module].get(name)
        if target is None:
            return f"{module}.{name}" if f"{module}.{name}" in defs else None
        return target if target in defs or target in modules else None

    def visit(module, node):
        for sub in ast.walk(node):
            if isinstance(sub, ast.Name):
                mark(resolve(module, sub.id))
            elif isinstance(sub, ast.Attribute):
                attrs.add(sub.attr)
                if isinstance(sub.value, ast.Name):
                    owner = resolve(module, sub.value.id)
                    if owner in modules:
                        mark(f"{owner}.{sub.attr}")

    def mark(name):
        if name in defs and name not in seen:
            seen.add(name)
            todo.append(name)

    for module, tree in modules.items():
        if module != "__init__":
            for node in tree.body:
                if not isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                    visit(module, node)
    for name in roots:
        mark(name)
    while True:
        while todo:
            name = todo.pop()
            module, node = name.split(".")[0], defs[name]
            if isinstance(node, ast.ClassDef):
                for item in node.body:
                    if not isinstance(item, ast.FunctionDef):
                        visit(module, item)
                    elif _is_brought_in(item) or name in roots:
                        mark(f"{name}.{item.name}")
                visit(module, ast.Module(body=node.decorator_list + node.bases, type_ignores=[]))
            else:
                visit(module, node)
        # a method is reached once its class is and its name is read anywhere reached
        for name, node in defs.items():
            cls = name.rpartition(".")[0]
            if cls in seen and node.name in attrs:
                mark(name)
        if not todo:
            return seen


def test_every_definition_serves_a_command_or_is_kept():
    defs, _, _ = _definitions()
    unreached = sorted(set(defs) - reached(["cli.main", *KEPT]))
    assert unreached == [], "unreached from cli.main; delete it or move it to tests/"


def test_every_kept_name_exists_and_no_command_reaches_it():
    defs, _, _ = _definitions()
    from_main = reached(["cli.main"])
    assert [name for name in KEPT if name not in defs] == []
    assert [name for name in KEPT if name in from_main] == []
