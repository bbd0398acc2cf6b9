"""The command-line front end reads the library through its public names.

The identity checks, and the private cores they read, live in the library
modules; cli.py parses, validates and prints. Its only private reaches are
the two argument checks it shares with the library.
"""

import ast
from pathlib import Path

import gtprobe

CLI = Path(gtprobe.__file__).resolve().parent / "cli.py"
LIBRARY = {"young", "coeffs", "fidelity", "simulator"}
ALLOWED = {"_require_sizes", "_check_capacity"}


def test_cli_reaches_only_the_allowed_private_names():
    tree = ast.parse(CLI.read_text())
    reaches = {
        f"{node.value.id}.{node.attr}"
        for node in ast.walk(tree)
        if isinstance(node, ast.Attribute)
        and isinstance(node.value, ast.Name)
        and node.value.id in LIBRARY
        and node.attr.startswith("_")
    }
    imported = {
        f"{node.module}.{alias.name}"
        for node in ast.walk(tree)
        if isinstance(node, ast.ImportFrom) and node.module
        for alias in node.names
        if alias.name.startswith("_")
    }
    assert {name.split(".")[1] for name in reaches} <= ALLOWED, sorted(reaches)
    assert not imported, sorted(imported)


def test_cli_imports_neither_numpy_nor_random():
    tree = ast.parse(CLI.read_text())
    modules = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            modules.update(alias.name.split(".")[0] for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.module and not node.level:
            modules.add(node.module.split(".")[0])
    assert not modules & {"numpy", "random"}, sorted(modules)
