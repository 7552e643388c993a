"""Dual-route independence, read from the import statements and from the lazy
import tables: the oracles stay off the fast paths, and they share no code
with the routes they check."""

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


def lazy_modules():
    """The modules a package file imports by a name held in a table rather
    than by an import statement: the ``module:`` prefix of each op of a
    ``cli.REGISTRY`` row (the selftest row's op is the module itself) and the
    modules of the package's public-name table."""
    from stringology import cli

    return {
        "cli": {module or op for c in cli.REGISTRY for op, module in zip(c.ops, c.modules)},
        "__init__": set(stringology._PUBLIC),
    }


def all_imports():
    lazy = lazy_modules()
    return {name: imported_modules(source) | lazy.get(name, set())
            for name, source in package_sources().items()}


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


def test_lazy_tables_name_real_modules():
    lazy = lazy_modules()
    assert {"words", "subseq", "selftest"} <= lazy["cli"]
    library = set(package_sources()) - {"__init__", "__main__", "cli", "selftest", "oracles"}
    assert lazy["__init__"] == library
    assert all((PACKAGE / f"{module}.py").exists() for names in lazy.values() for module in names)


def test_only_selftest_imports_oracles():
    importers = {name for name, modules in all_imports().items() if "oracles" in modules}
    assert importers == {"selftest"}


def test_oracles_import_only_words():
    assert all_imports()["oracles"] == {"words"}


def defined_names(source):
    """The names a source binds at top level by def, class or assignment."""
    names = set()
    for node in ast.parse(source).body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            names.add(node.name)
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            names.update(n.id for t in targets for n in ast.walk(t) if isinstance(n, ast.Name))
    return names


def test_defined_name_reader_sees_every_form():
    source = "import math\nA, (B, C) = D = 1, (2, 3)\nE: int = 4\ndef f(): g = 5\nclass K: pass\n"
    assert defined_names(source) == {"A", "B", "C", "D", "E", "f", "K"}


def test_no_module_redefines_an_oracle():
    sources = package_sources()
    oracle_names = defined_names(sources.pop("oracles"))
    clashes = {name: defined_names(source) & oracle_names for name, source in sources.items()}
    assert {name: found for name, found in clashes.items() if found} == {}


def test_package_exports_no_oracle():
    oracle_names = defined_names(package_sources()["oracles"])
    assert oracle_names & set(stringology._MODULE_OF) == set()
