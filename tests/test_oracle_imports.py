"""Dual-route independence, read from the import statements: the oracles stay
off the fast paths, and they share no code with the routes they check."""

import ast
from pathlib import Path

import stringology

PACKAGE = Path(stringology.__file__).parent


def imported_modules(source):
    """The stringology modules a source imports, at any nesting level;
    importing the package itself counts as ``__init__``."""
    found = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.ImportFrom):
            module = node.module or ""
            if node.level == 0:
                head, _, module = module.partition(".")
                if head != "stringology":
                    continue
            if module:
                found.add(module.split(".")[0])
            else:  # from . import x, or from stringology import x
                found.update(a.name if (PACKAGE / f"{a.name}.py").exists() else "__init__"
                             for a in node.names)
        elif isinstance(node, ast.Import):
            for a in node.names:
                head, _, rest = a.name.partition(".")
                if head == "stringology":
                    found.add(rest.split(".")[0] or "__init__")
    return found


def package_sources():
    return {path.stem: path.read_text() for path in PACKAGE.glob("*.py")}


def test_import_reader_sees_every_form():
    source = (
        "from . import oracles, lcs_fast\n"
        "from .words import HOLE\n"
        "import stringology.cli\n"
        "import math\n"
        "def f():\n"
        "    from stringology import subseq\n"
        "    from stringology.rle import rle_encode\n"
    )
    assert imported_modules(source) == {"oracles", "__init__", "words", "cli", "subseq", "rle"}


def test_only_selftest_imports_oracles():
    importers = {name for name, source in package_sources().items()
                 if "oracles" in imported_modules(source)}
    assert importers == {"selftest"}


def test_oracles_import_only_words():
    assert imported_modules(package_sources()["oracles"]) == {"words"}
