"""Every function in `src/metalie` has a use outside the tests.

The guard walks the AST of the package and lists each top-level function and
each non-dunder method of a top-level class.  A top-level function counts as
used when

  - it appears as an identifier (a name or an attribute) in `src/` outside
    its own definition; the imports do not count, so an import alone keeps
    nothing alive;
  - it appears as an identifier, an imported name or a dotted-string part in
    `bench/*.py` or `scripts/*.py`, whose tracer boundaries and layer
    timings name functions by string;
  - it is in `metalie.__all__`.

A method is matched by its class, not by its bare name, which other
definitions may share: it counts as used when

  - `.name` is accessed as an attribute in `src/`, `bench/*.py` or
    `scripts/*.py` outside its own definition;
  - or a string in those files names it with its class, as in
    `"LinearAction.act"`.

Either counts as used when it is one of the public accessors in `ACCESSORS`.
Code that only tests call belongs in `tests/`, next to the tests.
"""

import ast
import re
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "metalie"

# Public accessors kept for library users with no caller in the program.
ACCESSORS = {
    "Poly.coefficient": "the coefficient of one monomial, the read side of Poly.monomial",
    "TruncatedSeries.coefficient": "the coefficient of one exponent vector of a series",
    "MultiplicityTable.multiplicity": "m_n(k, l) of one cell, the table's documented reading",
    "MultiplicityTable.invariant_dimension": "the invariant dimension of one degree, the "
                                             "per-degree reading that replaced invariant_hilbert",
}

_DOTTED = re.compile(r"^[A-Za-z_][A-Za-z0-9_]*(\.[A-Za-z_][A-Za-z0-9_]*)*$")


def definitions(tree):
    """(qualified name, bare name, is a method, node) of the top-level
    functions and the non-dunder methods of the top-level classes of a module."""
    for node in tree.body:
        if isinstance(node, ast.FunctionDef):
            yield node.name, node.name, False, node
        elif isinstance(node, ast.ClassDef):
            for item in node.body:
                if isinstance(item, ast.FunctionDef) and not (item.name.startswith("__")
                                                              and item.name.endswith("__")):
                    yield f"{node.name}.{item.name}", item.name, True, item


def identifiers(tree):
    """(name, line, is an attribute) of every name and attribute in a module."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            yield node.id, node.lineno, False
        elif isinstance(node, ast.Attribute):
            yield node.attr, node.lineno, True


def dotted_strings(tree):
    """The parts of every dotted-name string constant in a module."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Constant) and isinstance(node.value, str) \
                and _DOTTED.match(node.value):
            yield node.value.split(".")


def outside_names(trees):
    """Identifiers, imported names and dotted-string parts of the given modules."""
    names = set()
    for tree in trees:
        names.update(name for name, _, _ in identifiers(tree))
        names.update(part for parts in dotted_strings(tree) for part in parts)
        for node in ast.walk(tree):
            if isinstance(node, (ast.Import, ast.ImportFrom)):
                names.update(part for alias in node.names for part in alias.name.split("."))
    return names


def exported_names():
    tree = ast.parse((PACKAGE / "__init__.py").read_text())
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets):
            return set(ast.literal_eval(node.value))
    return set()


def unused_definitions():
    modules = {path: ast.parse(path.read_text(), str(path)) for path in PACKAGE.glob("*.py")}
    outside = [ast.parse(path.read_text(), str(path))
               for path in [*ROOT.glob("bench/*.py"), *ROOT.glob("scripts/*.py")]]
    uses = {path: list(identifiers(tree)) for path, tree in modules.items()}
    kept = outside_names(outside) | exported_names()
    attributes = {name for tree in outside for name, _, attribute in identifiers(tree)
                  if attribute}
    qualified_strings = {f"{a}.{b}" for tree in [*modules.values(), *outside]
                         for parts in dotted_strings(tree) for a, b in zip(parts, parts[1:])}
    unused = []
    for path, tree in modules.items():
        for qualified, name, method, node in definitions(tree):
            if qualified in ACCESSORS or (qualified in qualified_strings or name in attributes
                                          if method else name in kept):
                continue
            if any(used == name and (attribute or not method)
                   and (other != path or not node.lineno <= line <= node.end_lineno)
                   for other, found in uses.items() for used, line, attribute in found):
                continue
            unused.append(f"{path.name}: {qualified}")
    return sorted(unused)


def test_every_function_in_src_has_a_use_outside_the_tests():
    assert unused_definitions() == []

