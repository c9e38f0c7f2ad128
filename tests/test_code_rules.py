"""Rules over the library's source, read with `ast`: no blanket exception
handler outside the command-line driver, and no module-level private function
that nothing in the package calls or names."""

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
    used = {node.id if isinstance(node, ast.Name) else node.attr
            for tree in MODULES.values() for node in ast.walk(tree)
            if isinstance(node, (ast.Name, ast.Attribute))}
    unused = [f"{name}:{node.name}" for name, tree in MODULES.items() for node in tree.body
              if isinstance(node, ast.FunctionDef) and node.name.startswith("_")
              and not node.name.startswith("__") and node.name not in used]
    assert unused == []
