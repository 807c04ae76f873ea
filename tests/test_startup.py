"""What a command's interpreter imports before it does any work.

Every `metalie` command is a fresh interpreter, whose start-up is mostly
imports.  The package keeps off the heavy parts of the standard library:
`dataclasses` (which pulls in `inspect`, `ast` and `dis`), `typing`,
`importlib.resources` and `pathlib`.  The check runs under `python3 -S`,
because a site's `.pth` files may import some of them before the package.
"""

import ast
import subprocess
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"
HEAVY = ("dataclasses", "inspect", "typing", "importlib.resources", "pathlib")

STARTUP = f"""
import sys
sys.path.insert(0, {str(SRC)!r})
import metalie.cli
from metalie.invariants import load_catalog
assert load_catalog()
print(" ".join(name for name in {HEAVY!r} if name in sys.modules))
"""


def test_the_cli_and_the_catalog_load_without_the_heavy_modules():
    done = subprocess.run([sys.executable, "-S", "-c", STARTUP], capture_output=True,
                          text=True, timeout=60)
    assert done.returncode == 0, done.stderr
    assert done.stdout.split() == []


def test_no_source_file_imports_dataclasses():
    importers = []
    for path in sorted((SRC / "metalie").glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            names = ([alias.name for alias in node.names] if isinstance(node, ast.Import)
                     else [node.module or ""] if isinstance(node, ast.ImportFrom) else [])
            if any(name.split(".")[0] == "dataclasses" for name in names):
                importers.append(path.name)
    assert importers == []
