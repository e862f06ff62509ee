import ast
import pathlib
from collections import Counter

import omq

SRC = pathlib.Path(omq.__file__).resolve().parent
ROOT = pathlib.Path(__file__).resolve().parent.parent
# Imported for the tracer in perfbench/spans.py, which wraps it there.
UNUSED_ON_PURPOSE = {("engine.py", "gl_reduct")}


def _module_imports(tree: ast.Module) -> set[str]:
    names = set()
    for node in tree.body:
        if isinstance(node, ast.Import):
            names.update(a.asname or a.name.split(".")[0] for a in node.names)
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            names.update(a.asname or a.name for a in node.names)
    return names


def _used_names(tree: ast.Module) -> set[str]:
    """The names a module reads, quoted annotations included."""
    used = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            used.add(node.id)
        annotation = getattr(node, "annotation", None) or getattr(node, "returns", None)
        for part in ast.walk(annotation) if annotation else ():
            if isinstance(part, ast.Constant) and isinstance(part.value, str):
                quoted = ast.parse(part.value, mode="eval")
                used.update(n.id for n in ast.walk(quoted) if isinstance(n, ast.Name))
    return used


def test_every_module_level_import_is_used():
    """Each name a module of ``omq`` imports at module level, other than the
    package's re-exports in ``__init__``, is read in that module."""
    unused = set()
    for path in sorted(SRC.glob("*.py")):
        if path.name == "__init__.py":
            continue
        tree = ast.parse(path.read_text(encoding="utf-8"))
        unused |= {(path.name, name) for name in _module_imports(tree) - _used_names(tree)}
    assert unused == UNUSED_ON_PURPOSE


def _defined_names(node: ast.stmt) -> set[str]:
    """The names a module-level statement defines: a function, a class, or
    the plain names it assigns, dunder names aside (Python itself reads
    them, as the import system reads a module's ``__getattr__``)."""
    if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
        names = {node.name}
    else:
        targets = node.targets if isinstance(node, ast.Assign) else \
            [node.target] if isinstance(node, ast.AnnAssign) else []
        names = {n.id for t in targets for n in ast.walk(t) if isinstance(n, ast.Name)}
    return {name for name in names if not name.startswith("__")}


def test_every_module_level_function_and_class_is_used():
    """Each function, class and assigned name defined at module level in
    ``omq`` is read somewhere other than its own definition and
    ``__init__``'s re-exports: in ``src``, ``tests``, ``demos`` or
    ``perfbench``."""
    defined = set()
    for path in sorted(SRC.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        defined |= {(path.name, name) for node in tree.body for name in _defined_names(node)}
    used = set()
    for folder in (SRC, ROOT / "tests", ROOT / "demos", ROOT / "perfbench"):
        for path in sorted(folder.rglob("*.py")):
            for node in ast.parse(path.read_text(encoding="utf-8")).body:
                names = _used_names(ast.Module([node], []))
                names |= {n.attr for n in ast.walk(node) if isinstance(n, ast.Attribute)}
                used |= names - _defined_names(node)
    assert {(module, name) for (module, name) in defined if name not in used} == set()


def _attribute_reads(tree: ast.AST) -> Counter:
    return Counter(n.attr for n in ast.walk(tree)
                   if isinstance(n, ast.Attribute) and isinstance(n.ctx, ast.Load))


def test_every_method_is_used():
    """Each method of a class of ``omq``, dunder methods aside, is read as
    an attribute somewhere in ``src``, ``tests``, ``demos`` or
    ``perfbench`` other than its own body."""
    reads = Counter()
    for folder in (SRC, ROOT / "tests", ROOT / "demos", ROOT / "perfbench"):
        for path in sorted(folder.rglob("*.py")):
            reads += _attribute_reads(ast.parse(path.read_text(encoding="utf-8")))
    unused = set()
    for path in sorted(SRC.glob("*.py")):
        for cls in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if not isinstance(cls, ast.ClassDef):
                continue
            for node in cls.body:
                if isinstance(node, ast.FunctionDef) and not node.name.startswith("__") \
                        and reads[node.name] == _attribute_reads(node)[node.name]:
                    unused.add((path.name, cls.name, node.name))
    assert unused == set()
