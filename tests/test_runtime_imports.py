"""The runtime imports only the standard library and numpy: every import
in the package's modules names a standard-library module, numpy, or a
module of the package itself (a relative import)."""

import ast
import sys
from pathlib import Path

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "singular_weyl"
ALLOWED = set(sys.stdlib_module_names) | {"numpy"}


def _imported_modules(path: Path):
    """(line, top-level module) of each absolute import in one source file."""
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        if isinstance(node, ast.Import):
            for alias in node.names:
                yield node.lineno, alias.name.split(".")[0]
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            yield node.lineno, node.module.split(".")[0]


def test_runtime_is_numpy_only():
    imports = [
        (f"{path.name}:{line}", module)
        for path in sorted(PACKAGE.glob("*.py"))
        for line, module in _imported_modules(path)
    ]
    # a scan that sees no numpy import would pass vacuously
    assert "numpy" in {module for _, module in imports}
    stray = [f"{where}: {module}" for where, module in imports if module not in ALLOWED]
    assert not stray, stray
