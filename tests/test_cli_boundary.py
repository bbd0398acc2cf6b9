"""The command-line front end reads the library through its public names, and
each library module reaches only pinned private names of its siblings.

The identity checks, and the private cores they read, live in the library
modules; cli.py parses, validates and prints. Its only private reaches are
the two argument checks it shares with the library. A new private reach
between library modules shows up as a change to LIBRARY_REACHES.
"""

import ast
from collections import defaultdict
from pathlib import Path

import gtprobe

SRC = Path(gtprobe.__file__).resolve().parent
CLI = SRC / "cli.py"
LIBRARY = {"young", "coeffs", "fidelity", "simulator"}
ALLOWED = {"_require_sizes", "_check_capacity"}
# module -> sibling -> the private names the module imports or reads from that sibling
LIBRARY_REACHES = {
    "young": {},
    "coeffs": {"young": {"_gamma_rows", "_require_family", "_require_integer", "_shifted_rows"}},
    "fidelity": {
        "coeffs": {"_alpha_beta_g", "_terms"},
        "young": {"_require_integer", "_require_sizes"},
    },
    "simulator": {"coeffs": {"_alpha_beta_g"}, "young": {"_require_integer"}},
}


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


def test_library_modules_reach_only_the_pinned_private_names():
    for module, want in LIBRARY_REACHES.items():
        reaches = defaultdict(set)
        for node in ast.walk(ast.parse((SRC / f"{module}.py").read_text())):
            if isinstance(node, ast.ImportFrom) and node.module:
                sibling = node.module.rsplit(".", 1)[-1]
                names = {alias.name for alias in node.names if alias.name.startswith("_")}
                if sibling in LIBRARY and names:
                    reaches[sibling] |= names
            elif (
                isinstance(node, ast.Attribute)
                and isinstance(node.value, ast.Name)
                and node.value.id in LIBRARY
                and node.attr.startswith("_")
            ):
                reaches[node.value.id].add(node.attr)
        assert dict(reaches) == want, module
