"""Every name the package exports is read by some other module, and every
public member of a package class is read somewhere in the package, except
the ones kept on purpose for open roadmap items."""

import ast
from collections import defaultdict
from pathlib import Path

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "singular_weyl"

# Kept for ROADMAP items 3, 5 and 7, which build on them, and for the
# tests; no module reads them yet.  A class member is named "Class.member".
KEPT_UNREAD = {
    "apply_E",  # item 5: the closed-form Heisenberg action beside its lsq oracle
    # the one-combination form of eval_combinations, which the tests check
    # closed forms with (apply_E's among them)
    "LinearCombination.eval_compact",
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


def _bound_classes(func: ast.AST, classes: set[str]) -> dict[str, str]:
    """Local name -> class, for each name that func binds only to calls of
    the constructor of one package class, or takes as a parameter annotated
    with that class."""
    calls = {
        id(node.targets[0]): node.value.func.id
        for node in ast.walk(func)
        if isinstance(node, ast.Assign)
        and len(node.targets) == 1
        and isinstance(node.targets[0], ast.Name)
        and isinstance(node.value, ast.Call)
        and isinstance(node.value.func, ast.Name)
        and node.value.func.id in classes
    }
    bindings = defaultdict(set)
    for node in ast.walk(func):
        if isinstance(node, ast.arg):
            note = node.annotation
            bindings[node.arg].add(note.id if isinstance(note, ast.Name) else None)
        elif isinstance(node, ast.Name) and isinstance(node.ctx, ast.Store):
            bindings[node.id].add(calls.get(id(node)))
    return {
        name: cls for name, (cls, *more) in bindings.items() if cls in classes and not more
    }


class _Reads(ast.NodeVisitor):
    """(class, name, node) for each name read as an attribute or passed as a
    keyword: class is the package class that the AST shows the object to
    be, or None.  It shows it for ``Class.member``, for a keyword of
    ``Class(...)``, and for a read on a local name that its function binds
    only to ``Class(...)`` or takes as a ``name: Class`` parameter."""

    def __init__(self, classes: set[str]):
        self.classes = classes
        self.bound: dict[str, str] = {}  # of the innermost function
        self.found: list[tuple[str | None, str, ast.AST]] = []

    def visit_FunctionDef(self, node):
        outer = self.bound
        self.bound = _bound_classes(node, self.classes)
        self.generic_visit(node)
        self.bound = outer

    def visit_Attribute(self, node):
        if isinstance(node.ctx, ast.Load):
            cls = None
            if isinstance(node.value, ast.Name):
                name = node.value.id
                cls = name if name in self.classes else self.bound.get(name)
            self.found.append((cls, node.attr, node))
        self.generic_visit(node)

    def visit_Call(self, node):
        func = node.func
        cls = func.id if isinstance(func, ast.Name) and func.id in self.classes else None
        self.found.extend((cls, kw.arg, kw) for kw in node.keywords if kw.arg is not None)
        self.generic_visit(node)


def _unread_members() -> set[str]:
    """"Class.member" for each public method, property and annotated field
    of a package class that no module reads as an attribute or passes as a
    keyword, outside the member's own definition.

    A read that ``_Reads`` gives a class counts for that class alone.  Any
    other read may be of any class that defines the name, but of one only:
    when fewer such reads are left than classes with no read of their own,
    every one of those classes is reported, since the AST cannot tell which
    of them goes unread."""
    trees = [
        ast.parse(path.read_text(encoding="utf-8"))
        for path in PACKAGE.glob("*.py")
        if path.name != "__init__.py"
    ]
    classes = [top for tree in trees for top in tree.body if isinstance(top, ast.ClassDef)]
    reads = _Reads({cls.name for cls in classes})
    for tree in trees:
        reads.visit(tree)
    definitions = defaultdict(dict)  # member name -> {class: ids of the definition's nodes}
    for cls in classes:
        for node in cls.body:
            if isinstance(node, ast.FunctionDef):
                name = node.name
            elif isinstance(node, ast.AnnAssign) and isinstance(node.target, ast.Name):
                name = node.target.id
            else:
                continue
            if not name.startswith("_"):
                definitions[name][cls.name] = {id(sub) for sub in ast.walk(node)}
    unread = set()
    for name, owners in definitions.items():
        named = [(cls, id(node)) for cls, read, node in reads.found if read == name]
        open_reads = [node for cls, node in named if cls is None]
        unowned = []
        for cls, own in owners.items():
            if any(c == cls and node not in own for c, node in named):
                continue
            unowned.append(cls)
            if all(node in own for node in open_reads):
                unread.add(f"{cls}.{name}")
        if len(open_reads) < len(unowned):
            unread.update(f"{cls}.{name}" for cls in unowned)
    return unread


def _kept(member: bool) -> set[str]:
    return {name for name in KEPT_UNREAD if ("." in name) == member}


def test_only_the_kept_exports_are_unread():
    assert _exported_names() - _referenced_names() == _kept(member=False)


def test_only_the_kept_class_members_are_unread():
    assert _unread_members() == _kept(member=True)
