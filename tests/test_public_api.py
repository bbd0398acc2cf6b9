"""Every public function and class of the package is used by the package itself.

A public name that only the tests call is surface kept up for no caller in
the program; reference implementations for the tests belong in tests/oracles.py.
"""

import ast
from pathlib import Path

import gtprobe

SRC = Path(gtprobe.__file__).resolve().parent
# The console entry point, called from outside the package only.
EXEMPT = {"cli.main"}


def test_every_public_top_level_name_is_used_in_src():
    trees = {path.stem: ast.parse(path.read_text()) for path in sorted(SRC.glob("*.py"))}
    used = set()
    for tree in trees.values():
        for node in ast.walk(tree):
            if isinstance(node, ast.Name):
                used.add(node.id)
            elif isinstance(node, ast.Attribute):
                used.add(node.attr)
            elif isinstance(node, ast.ImportFrom):
                used.update(alias.name for alias in node.names)
    defined = [
        f"{module}.{node.name}"
        for module, tree in trees.items()
        for node in tree.body
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)) and not node.name.startswith("_")
    ]
    unused = [name for name in defined if name.split(".")[1] not in used and name not in EXEMPT]
    assert not unused, f"public names no code in src/ references: {unused}"
