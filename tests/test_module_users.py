"""ROADMAP's north-star clause as a test: no module that only its own
unit test imports.

Every module under ``src/repro`` must be imported by at least one file
under ``src/``, ``benchmarks/``, ``examples/`` or ``bench/`` other than
itself and its own package ``__init__`` — directly, through a name that
``__init__`` re-exports (``from repro.crdt import ORSet`` uses
``crdt/sets.py``), or by side-effect import from that ``__init__``
(``from . import adapters`` is how ``api/adapters.py`` registers).  A
user that is itself an orphan does not count.  Tests are not users, and
neither is ``repro selftest``'s import-everything loop (it goes through
``importlib``, which an AST scan does not see — on purpose).

Known orphans would be listed below, each with the ROADMAP item that
decides it; the list is empty and should stay so.  The test fails when
a new orphan appears **and** when a listed one gains a user or
disappears, so the list can only shrink.
"""

import ast
import pathlib

ROOT = pathlib.Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
USER_DIRS = ("src", "benchmarks", "examples", "bench")

KNOWN_ORPHANS: dict[str, str] = {}


def _module_name(path):
    parts = path.relative_to(SRC).with_suffix("").parts
    return ".".join(parts[:-1] if parts[-1] == "__init__" else parts)


FILES = {
    _module_name(path): path
    for path in sorted((SRC / "repro").rglob("*.py"))
    if path.name != "__main__.py"
}
PACKAGES = {name for name, path in FILES.items() if path.name == "__init__.py"}
MODULES = set(FILES) - PACKAGES


def _imports(path, package):
    """``(module, name-or-None)`` for every import statement in ``path``
    that targets the ``repro`` namespace, relative ones resolved against
    ``package``."""
    for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
        if isinstance(node, ast.Import):
            for alias in node.names:
                yield alias.name, None
        elif isinstance(node, ast.ImportFrom):
            base = node.module or ""
            if node.level:
                if package is None:
                    continue
                anchor = package.split(".")
                anchor = anchor[:len(anchor) - (node.level - 1)]
                base = ".".join(anchor + ([base] if base else []))
            for alias in node.names:
                yield base, alias.name


def _package_of(name):
    return name if name in PACKAGES else name.rpartition(".")[0]


#: package -> {re-exported name: (module, name) it was imported from}
EXPORTS = {
    package: {
        name: (base, name)
        for base, name in _imports(FILES[package], package)
        if name is not None
    }
    for package in PACKAGES
}


def _resolve(base, name):
    """The module under ``src/repro`` that ``from base import name``
    (or ``import base`` when ``name`` is None) ends up using."""
    if name is not None and f"{base}.{name}" in FILES:
        base, name = f"{base}.{name}", None
    if base in MODULES:
        return base
    if base in PACKAGES and name is not None and name in EXPORTS[base]:
        return _resolve(*EXPORTS[base][name])
    return None


def _users():
    users = {module: set() for module in MODULES}
    files = [
        path
        for top in USER_DIRS
        for path in sorted((ROOT / top).rglob("*.py"))
    ]
    for path in files:
        own = own_package = None
        if SRC in path.parents:
            own = _module_name(path)
            own_package = _package_of(own)
        for base, name in _imports(path, own_package):
            module = _resolve(base, name)
            if module is None or module == own:
                continue
            if path.name == "__init__.py" and own == _package_of(module):
                # Its own __init__ re-exporting names is not a user;
                # importing the module itself, for its side effects, is.
                if module != (base if name is None else f"{base}.{name}"):
                    continue
            users[module].add(own or str(path.relative_to(ROOT)))
    return users


def _orphans():
    users = _users()
    orphans = set()
    while True:
        more = {
            module for module in MODULES - orphans
            if not users[module] - orphans
        }
        if not more:
            return orphans
        orphans |= more


def test_every_module_has_a_user_outside_its_own_tests():
    orphans = _orphans()
    new = sorted(orphans - set(KNOWN_ORPHANS))
    assert new == [], (
        f"imported only by their own tests (or by nothing): {new} — "
        "give each a user or delete it"
    )
    gone = sorted(set(KNOWN_ORPHANS) - orphans)
    assert gone == [], (
        f"{gone} gained a user or no longer exist — "
        "remove them from KNOWN_ORPHANS"
    )


def test_the_scan_sees_the_three_ways_a_module_is_used():
    users = _users()
    # through a name the package __init__ re-exports
    assert "repro.replication.quorum" in users["repro.clocks.dvv"]
    # by side-effect import from its package __init__
    assert users["repro.api.adapters"] >= {"repro.api"}
    # directly, from outside src/
    assert any(user.startswith("bench") for user in users["repro.crdt.sets"])
