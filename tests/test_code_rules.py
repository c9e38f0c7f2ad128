"""Rules over the library's source, read with `ast`: no blanket exception
handler outside the command-line driver, no private module-level function or
class method that nothing in the package calls or names, no public
module-level function or class that nothing in the package names, and no
attribute that the package stores but never reads. One rule reads the
tests: none names a shipped file by a path relative to the working directory."""

import ast
import pathlib

SRC = pathlib.Path(__file__).resolve().parent.parent / "src" / "whyplan"
TESTS = pathlib.Path(__file__).resolve().parent
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


def test_every_stored_attribute_is_read():
    # An attribute the package sets (an augmented assignment included) but
    # never reads is a value that nothing uses. A `getattr` name reads one.
    stored: dict[str, str] = {}
    read: set[str] = set()
    for name, tree in MODULES.items():
        for node in ast.walk(tree):
            if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Store):
                stored.setdefault(node.attr, f"{name}:{node.lineno}")
            elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
                read.add(node.attr)
            elif (isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
                  and node.func.id == "getattr" and len(node.args) > 1
                  and isinstance(node.args[1], ast.Constant)):
                read.add(node.args[1].value)
    assert [f"{where}:{attr}" for attr, where in stored.items() if attr not in read] == []


def test_no_test_names_a_shipped_file_relative_to_the_working_directory():
    # Such a path fails when the suite runs from another directory;
    # conftest's REPO_ROOT builds it instead.
    relative = tuple(f"{top}/" for top in ("scenarios", "benchmarks"))
    found = [f"{path.name}:{node.lineno}" for path in sorted(TESTS.glob("*.py"))
             for node in ast.walk(ast.parse(path.read_text(), str(path)))
             if isinstance(node, ast.Constant) and isinstance(node.value, str)
             and node.value.startswith(relative)]
    assert found == []
