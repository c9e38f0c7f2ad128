"""Rules over the library's source, read with `ast`: no blanket exception
handler outside the command-line driver, no private module-level function or
class method that nothing in the package calls or names, and no public
module-level function or class that nothing in the package names."""

import ast
import pathlib

SRC = pathlib.Path(__file__).resolve().parent.parent / "src" / "whyplan"
MODULES = {path.name: ast.parse(path.read_text(), str(path)) for path in sorted(SRC.glob("*.py"))}
BLANKET = {"Exception", "BaseException"}


def caught_names(handler: ast.ExceptHandler) -> set[str]:
    types = handler.type.elts if isinstance(handler.type, ast.Tuple) else [handler.type]
    return {t.id for t in types if isinstance(t, ast.Name)}


def test_only_the_cli_catches_every_exception():
    blanket = [f"{name}:{node.lineno}" for name, tree in MODULES.items() if name != "cli.py"
               for node in ast.walk(tree) if isinstance(node, ast.ExceptHandler)
               and (node.type is None or caught_names(node) & BLANKET)]
    assert blanket == []


# Every name a module reads, as a bare name or an attribute, and every name
# imported under an alias that is read. A definition, an import and
# `__init__.py`'s re-export list name nothing here.
USED = {node.id if isinstance(node, ast.Name) else node.attr
        for tree in MODULES.values() for node in ast.walk(tree)
        if isinstance(node, (ast.Name, ast.Attribute))}
USED |= {alias.name for tree in MODULES.values() for node in ast.walk(tree)
         if isinstance(node, ast.ImportFrom) for alias in node.names if alias.asname in USED}
TOP_LEVEL = [(name, node) for name, tree in MODULES.items() for node in tree.body
             if isinstance(node, (ast.FunctionDef, ast.ClassDef))]


def test_every_private_module_function_has_a_caller():
    # Private methods of the package's classes too, so that a helper left
    # behind when its last caller goes fails here.
    defined = TOP_LEVEL + [(name, item) for name, node in TOP_LEVEL
                           if isinstance(node, ast.ClassDef) for item in node.body]
    unused = [f"{name}:{node.name}" for name, node in defined
              if isinstance(node, ast.FunctionDef) and node.name.startswith("_")
              and not node.name.startswith("__") and node.name not in USED]
    assert unused == []


def test_every_public_module_function_and_class_has_a_user():
    # A public name that only its definition and the package's re-export list
    # mention is a helper whose last caller has gone.
    unused = [f"{name}:{node.name}" for name, node in TOP_LEVEL
              if not node.name.startswith("_") and node.name not in USED]
    assert unused == []
