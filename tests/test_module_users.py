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

The same rule holds one level down, for every public top-level name
(``def``, ``class`` or assignment) of a module: see
``test_every_public_name_has_a_user_outside_its_own_tests``.
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


def _parse(path):
    return ast.parse(path.read_text(), filename=str(path))


def _aliases(tree, package):
    """``(module, name-or-None, local name)`` for every import statement
    in ``tree``, relative ones resolved against ``package``.  ``import
    a.b`` binds ``a``; ``import a.b as c`` binds ``c`` to ``a.b``."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                if alias.asname:
                    yield alias.name, None, alias.asname
                else:
                    yield alias.name, None, alias.name.partition(".")[0]
        elif isinstance(node, ast.ImportFrom):
            base = node.module or ""
            if node.level:
                if package is None:
                    continue
                anchor = package.split(".")
                anchor = anchor[:len(anchor) - (node.level - 1)]
                base = ".".join(anchor + ([base] if base else []))
            for alias in node.names:
                yield base, alias.name, alias.asname or alias.name


def _imports(path, package):
    """``(module, name-or-None)`` for every import statement in ``path``
    that targets the ``repro`` namespace, relative ones resolved against
    ``package``."""
    for base, name, _ in _aliases(_parse(path), package):
        yield base, name


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


USER_FILES = [
    path
    for top in USER_DIRS
    for path in sorted((ROOT / top).rglob("*.py"))
]


def _users():
    users = {module: set() for module in MODULES}
    for path in USER_FILES:
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


def _fixpoint(users):
    """The nodes of ``users`` (node -> its users) left with no user
    once every orphan's uses are dropped, repeated until none is."""
    orphans = set()
    while True:
        more = {
            node for node in users.keys() - orphans
            if not users[node] - orphans
        }
        if not more:
            return orphans
        orphans |= more


def _orphans():
    return _fixpoint(_users())


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


# -- the same rule for top-level names ------------------------------------
#
# A top-level name of a module under ``src/repro`` is used when a file
# outside ``src/`` imports or references it, or when ``src`` code that
# is itself used references it: another module's used name or
# module-level code, or another used name of its own module.  A
# reference is ``from m import name`` (package re-exports followed), an
# attribute of an imported module (``registry.specs``), or a bare name
# in its own module.  A ``def`` or ``class`` decorated with
# ``…register`` is used: the decorator is how it is reached.  A package
# ``__init__`` re-exporting a name is not a user, nor are the strings of
# ``__all__``.  Private names take part in the fixpoint (a helper only
# an orphan calls uses nothing) but are not reported.  Methods are not
# scanned: an attribute name alone does not say whose attribute it is.

KNOWN_ORPHAN_NAMES: dict[str, str] = {}

TREES = {module: _parse(path) for module, path in FILES.items()}


def _top_level(tree):
    """``(names it binds, statement)`` per top-level statement; an
    import, a call or an ``if`` binds ``()``."""
    for stmt in tree.body:
        if isinstance(stmt, (ast.FunctionDef, ast.ClassDef)):
            yield (stmt.name,), stmt
        elif isinstance(stmt, ast.Assign):
            yield tuple(
                target.id for target in stmt.targets
                if isinstance(target, ast.Name)
            ), stmt
        elif (isinstance(stmt, ast.AnnAssign)
              and isinstance(stmt.target, ast.Name)):
            yield (stmt.target.id,), stmt
        else:
            yield (), stmt


DEFINED = {
    module: {name for names, _ in _top_level(tree) for name in names}
    for module, tree in TREES.items()
}


def _bindings(tree, package):
    return {
        local: (base, name)
        for base, name, local in _aliases(tree, package)
    }


BINDINGS = {
    module: _bindings(tree, _package_of(module))
    for module, tree in TREES.items()
}


def _target(base, name):
    """What ``base.name`` is: a module name (str), a top-level name
    ``(module, name)``, or None when it is outside ``src/repro``."""
    if name is None:
        return base if base in FILES else None
    if f"{base}.{name}" in FILES:
        return f"{base}.{name}"
    if base not in FILES:
        return None
    if name in DEFINED[base]:
        return base, name
    if name in BINDINGS[base]:
        return _target(*BINDINGS[base][name])
    return None


def _references(stmt, own, bindings):
    """Every top-level name ``stmt`` reaches, as ``(module, name)``."""
    def value(node):
        if isinstance(node, ast.Name):
            if own is not None and node.id in DEFINED[own]:
                return own, node.id
            if node.id in bindings:
                return _target(*bindings[node.id])
        elif isinstance(node, ast.Attribute):
            base = value(node.value)
            if isinstance(base, str):
                return _target(base, node.attr)
        return None

    for node in ast.walk(stmt):
        if isinstance(node, (ast.Name, ast.Attribute)):
            found = value(node)
            if isinstance(found, tuple):
                yield found
        elif isinstance(node, ast.ImportFrom) and own is None:
            for base, name, _ in _aliases(node, None):
                found = _target(base, name)
                if isinstance(found, tuple):
                    yield found


def _registered(stmt):
    for decorator in getattr(stmt, "decorator_list", ()):
        if isinstance(decorator, ast.Call):
            decorator = decorator.func
        name = getattr(decorator, "attr", getattr(decorator, "id", ""))
        if name.endswith("register"):
            return True
    return False


def _name_users():
    """``(module, name) -> users``.  A user is another top-level
    ``(module, name)``, or a string for what is used whenever it runs:
    a ``src`` module's module-level code (its module name), a file
    outside ``src/`` (its path), or a ``register`` decorator."""
    users = {
        (module, name): set()
        for module, names in DEFINED.items() for name in names
    }
    for module, tree in TREES.items():
        for names, stmt in _top_level(tree):
            refs = set(_references(stmt, module, BINDINGS[module]))
            by = [(module, name) for name in names] or [module]
            if _registered(stmt):
                users[module, names[0]].add(f"{module} (registered)")
            for ref in refs:
                users[ref].update(user for user in by if user != ref)
    for path in USER_FILES:
        if SRC in path.parents and path.name != "__main__.py":
            continue
        tree = _parse(path)
        for ref in _references(tree, None, _bindings(tree, None)):
            users[ref].add(str(path.relative_to(ROOT)))
    return users


def _orphan_names():
    return {
        f"{module}.{name}"
        for module, name in _fixpoint(_name_users())
        if not name.startswith("_")
    }


def test_every_public_name_has_a_user_outside_its_own_tests():
    orphans = _orphan_names()
    new = sorted(orphans - set(KNOWN_ORPHAN_NAMES))
    assert new == [], (
        f"used only by their own tests (or by nothing): {new} — "
        "give each a user or delete it"
    )
    gone = sorted(set(KNOWN_ORPHAN_NAMES) - orphans)
    assert gone == [], (
        f"{gone} gained a user or no longer exist — "
        "remove them from KNOWN_ORPHAN_NAMES"
    )


def test_the_scan_sees_the_ways_a_name_is_used():
    users = _name_users()
    orset = users["repro.crdt.sets", "ORSet"]
    # through a name a package __init__ re-exports, from outside src/
    assert "bench/workloads.py" in orset
    # as an attribute of an imported module
    assert "examples/store_api.py" in users["repro.api.registry", "names"]
    # by another name of its own module
    assert ("repro.api.registry", "build") in users[
        "repro.api.registry", "get"]
    # by a register decorator
    assert "repro.api.adapters (registered)" in users[
        "repro.api.adapters", "QuorumStore"]
    # a package __init__ re-exporting it is not a user
    assert "repro.crdt" not in orset
