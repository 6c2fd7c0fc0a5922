"""Every name the package exports is read by some other module, except the
ones kept on purpose for open roadmap items."""

import ast
from pathlib import Path

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "singular_weyl"

# Kept for ROADMAP items 5 and 7, which build on them; no module reads them yet.
KEPT_UNREAD = {
    "apply_E",  # item 5: the closed-form Heisenberg action beside its lsq oracle
    "compact_of_noncompact",  # item 7: the inverse picture transform
    "group_action_noncompact",  # item 7: the integrated group action
}


def _exported_names() -> set[str]:
    tree = ast.parse((PACKAGE / "__init__.py").read_text(encoding="utf-8"))
    return {
        alias.asname or alias.name
        for node in tree.body
        if isinstance(node, ast.ImportFrom)
        for alias in node.names
    }


def _referenced_names() -> set[str]:
    """Names that a module other than ``__init__`` imports from the package,
    or loads in the module that defines them outside their own definition.
    A local variable that shares a name with a function elsewhere is not a
    reference to it."""
    found = set()
    for path in PACKAGE.glob("*.py"):
        if path.name == "__init__.py":
            continue
        tree = ast.parse(path.read_text(encoding="utf-8"))
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom) and node.level > 0:
                found.update(alias.name for alias in node.names)
        defined = {
            top.name for top in tree.body if isinstance(top, (ast.FunctionDef, ast.ClassDef))
        } | {
            target.id
            for top in tree.body
            if isinstance(top, ast.Assign)
            for target in top.targets
            if isinstance(target, ast.Name)
        }
        for top in tree.body:
            own = getattr(top, "name", None)
            found.update(
                node.id
                for node in ast.walk(top)
                if isinstance(node, ast.Name)
                and isinstance(node.ctx, ast.Load)
                and node.id in defined
                and node.id != own
            )
    return found


def test_only_the_kept_exports_are_unread():
    assert _exported_names() - _referenced_names() == KEPT_UNREAD
