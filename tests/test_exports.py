"""Every name the package exports is read by some other module, and every
public member of a package class is read somewhere in the package, except
the ones kept on purpose for open roadmap items."""

import ast
from collections import Counter
from pathlib import Path

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "singular_weyl"

# Kept for ROADMAP items 3, 5 and 7, which build on them; no module reads
# them yet.  A class member is named "Class.member".
KEPT_UNREAD = {
    "apply_E",  # item 5: the closed-form Heisenberg action beside its lsq oracle
    "compact_of_noncompact",  # item 7: the inverse picture transform
    "group_action_noncompact",  # item 7: the integrated group action
    "OperatorSpec.omega",  # item 3: the Casimir record of sweep_ladder
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


def _attribute_reads(node: ast.AST) -> Counter:
    """Names read as an attribute or passed as a keyword under node."""
    return Counter(
        sub.attr if isinstance(sub, ast.Attribute) else sub.arg
        for sub in ast.walk(node)
        if (isinstance(sub, ast.Attribute) and isinstance(sub.ctx, ast.Load))
        or (isinstance(sub, ast.keyword) and sub.arg is not None)
    )


def _unread_members() -> set[str]:
    """"Class.member" for each public method, property and annotated field
    of a package class whose name no module reads as an attribute or passes
    as a keyword, outside the member's own definition.  Members are matched
    by name, whatever the class of the object read."""
    reads = Counter()
    members = {}
    for path in PACKAGE.glob("*.py"):
        if path.name == "__init__.py":
            continue
        tree = ast.parse(path.read_text(encoding="utf-8"))
        reads += _attribute_reads(tree)
        for cls in (top for top in tree.body if isinstance(top, ast.ClassDef)):
            for node in cls.body:
                if isinstance(node, ast.FunctionDef):
                    name = node.name
                elif isinstance(node, ast.AnnAssign) and isinstance(node.target, ast.Name):
                    name = node.target.id
                else:
                    continue
                if not name.startswith("_"):
                    members[f"{cls.name}.{name}"] = (name, node)
    return {
        qualified
        for qualified, (name, node) in members.items()
        if reads[name] == _attribute_reads(node)[name]
    }


def _kept(member: bool) -> set[str]:
    return {name for name in KEPT_UNREAD if ("." in name) == member}


def test_only_the_kept_exports_are_unread():
    assert _exported_names() - _referenced_names() == _kept(member=False)


def test_only_the_kept_class_members_are_unread():
    assert _unread_members() == _kept(member=True)
