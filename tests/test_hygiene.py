import ast
import pathlib

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
        if isinstance(node, ast.Name):
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


def test_every_module_level_function_and_class_is_used():
    """Each function and class defined at module level in ``omq`` is read
    somewhere other than its own body and ``__init__``'s re-exports: in
    ``src``, ``tests``, ``demos`` or ``perfbench``."""
    defined = set()
    for path in sorted(SRC.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        defined |= {(path.name, node.name) for node in tree.body
                    if isinstance(node, (ast.FunctionDef, ast.ClassDef))}
    used = set()
    for folder in (SRC, ROOT / "tests", ROOT / "demos", ROOT / "perfbench"):
        for path in sorted(folder.rglob("*.py")):
            for node in ast.parse(path.read_text(encoding="utf-8")).body:
                names = _used_names(ast.Module([node], []))
                names |= {n.attr for n in ast.walk(node) if isinstance(n, ast.Attribute)}
                if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                    names.discard(node.name)
                used |= names
    assert {(module, name) for (module, name) in defined if name not in used} == set()
