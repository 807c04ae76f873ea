"""Every function in `src/metalie` has a use outside the tests.

The guard walks the AST of the package and lists each top-level function and
each non-dunder method of a top-level class.  A name counts as used when

  - it appears as an identifier (a name or an attribute) in `src/` outside
    its own definition; the imports do not count, so an import alone keeps
    nothing alive;
  - it appears as an identifier, an imported name or a dotted-string part in
    `bench/*.py` or `scripts/*.py`, whose tracer boundaries and layer
    timings name functions by string;
  - it is in `metalie.__all__`;
  - or it is one of the public accessors in `ACCESSORS`.

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
}

_DOTTED = re.compile(r"^[A-Za-z_][A-Za-z0-9_]*(\.[A-Za-z_][A-Za-z0-9_]*)*$")


def definitions(tree):
    """(qualified name, bare name, node) of the top-level functions and the
    non-dunder methods of the top-level classes of a module."""
    for node in tree.body:
        if isinstance(node, ast.FunctionDef):
            yield node.name, node.name, node
        elif isinstance(node, ast.ClassDef):
            for item in node.body:
                if isinstance(item, ast.FunctionDef) and not (item.name.startswith("__")
                                                              and item.name.endswith("__")):
                    yield f"{node.name}.{item.name}", item.name, item


def identifiers(tree):
    """(name, line) of every name and attribute in a module."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            yield node.id, node.lineno
        elif isinstance(node, ast.Attribute):
            yield node.attr, node.lineno


def outside_names(paths):
    """Identifiers, imported names and dotted-string parts of the given files."""
    names = set()
    for path in paths:
        tree = ast.parse(path.read_text(), str(path))
        names.update(name for name, _ in identifiers(tree))
        for node in ast.walk(tree):
            if isinstance(node, (ast.Import, ast.ImportFrom)):
                names.update(part for alias in node.names for part in alias.name.split("."))
            elif isinstance(node, ast.Constant) and isinstance(node.value, str) \
                    and _DOTTED.match(node.value):
                names.update(node.value.split("."))
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
    uses = {path: list(identifiers(tree)) for path, tree in modules.items()}
    kept = outside_names([*ROOT.glob("bench/*.py"), *ROOT.glob("scripts/*.py")])
    kept |= exported_names()
    unused = []
    for path, tree in modules.items():
        for qualified, name, node in definitions(tree):
            if name in kept or qualified in ACCESSORS:
                continue
            if any(used == name and (other != path
                                     or not node.lineno <= line <= node.end_lineno)
                   for other, found in uses.items() for used, line in found):
                continue
            unused.append(f"{path.name}: {qualified}")
    return sorted(unused)


def test_every_function_in_src_has_a_use_outside_the_tests():
    assert unused_definitions() == []

