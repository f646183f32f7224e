"""No module of weldqc imports a private name of another weldqc module.

A helper that another module needs has one public form; an underscore name
stays inside its module.  Imports are found with `ast`, at the top level and
inside functions.
"""

import ast
from pathlib import Path

import pytest

import weldqc

SOURCES = sorted(Path(weldqc.__file__).parent.glob("*.py"))


def _private(name):
    return name.startswith("_") and not (name.startswith("__") and name.endswith("__"))


def private_imports(source, module):
    """(line, 'from X import Y') for each private name `module` imports from
    another weldqc module, by relative or absolute import."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if not isinstance(node, ast.ImportFrom):
            continue
        if node.level == 1:
            origin = node.module or ""
        elif node.level == 0 and (node.module or "").split(".")[0] == "weldqc":
            origin = node.module.partition(".")[2]
        else:
            continue
        if origin == module:
            continue
        source = "." * node.level + (node.module or "")
        for alias in node.names:
            if _private(alias.name):
                found.append((node.lineno, f"from {source} import {alias.name}"))
    return found


@pytest.mark.parametrize("path", SOURCES, ids=lambda path: path.name)
def test_no_private_import_across_modules(path):
    assert private_imports(path.read_text(encoding="utf-8"), path.stem) == []


@pytest.mark.parametrize(
    "source, found",
    [
        ("from .mcmc import _draw_values\n", [(1, "from .mcmc import _draw_values")]),
        ("def f():\n    from .complexity import _segments, leaf_order\n",
         [(2, "from .complexity import _segments")]),
        ("from weldqc.special import _betacf as cf\n", [(1, "from weldqc.special import _betacf")]),
        ("from . import _hidden, __version__\n", [(1, "from . import _hidden")]),
        ("from .render import _line\n", []),  # a module's own private name
        ("from .mcmc import draw_values\nfrom os import _exit\n", []),
    ],
)
def test_guard_finds_private_imports(source, found):
    assert private_imports(source, "render") == found
