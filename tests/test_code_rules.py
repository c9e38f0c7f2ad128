"""Rules over the library's source, read with `ast`: no blanket exception
handler outside the command-line driver, and no private module-level function
or class method that nothing in the package calls or names."""

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


def test_every_private_module_function_has_a_caller():
    # Private methods of the package's classes too, so that a helper left
    # behind when its last caller goes fails here.
    used = {node.id if isinstance(node, ast.Name) else node.attr
            for tree in MODULES.values() for node in ast.walk(tree)
            if isinstance(node, (ast.Name, ast.Attribute))}
    defined = [(name, node) for name, tree in MODULES.items() for node in tree.body]
    defined += [(name, item) for name, node in defined if isinstance(node, ast.ClassDef)
                for item in node.body]
    unused = [f"{name}:{node.name}" for name, node in defined
              if isinstance(node, ast.FunctionDef) and node.name.startswith("_")
              and not node.name.startswith("__") and node.name not in used]
    assert unused == []
