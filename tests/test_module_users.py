"""ROADMAP's north-star clause as a test: no module that only its own
unit test imports.

Every module under ``src/repro`` must be imported by at least one file
under ``src/``, ``benchmarks/``, ``examples/`` or ``bench/`` other than
itself and its own package ``__init__`` — directly, through a name that
``__init__`` re-exports (``from repro.crdt import ORSet`` uses
``crdt/sets.py``), or by side-effect import from that ``__init__``
(``from . import registry`` in ``api/__init__.py``) — or must register
a top-level class or function with a ``…register`` decorator: the
registry is how such a module is reached (``registry.build("chain",
…)`` runs ``replication/chain.py``).  A user that is itself an orphan
does not count.  Tests are not users, and
neither is ``repro selftest``'s import-everything loop (it goes through
``importlib``, which an AST scan does not see — on purpose).

Known orphans would be listed below, each with the ROADMAP item that
decides it; the list is empty and should stay so.  The test fails when
a new orphan appears **and** when a listed one gains a user or
disappears, so the list can only shrink.

The same rule holds one level down, for every public top-level name
(``def``, ``class`` or assignment) of a module: see
``test_every_public_name_has_a_user_outside_its_own_tests``; and for
every option (defaulted parameter or frozen-dataclass field): see
``test_every_option_has_a_user_outside_its_own_tests``.
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


TREES = {module: _parse(path) for module, path in FILES.items()}


def _registered(stmt):
    for decorator in getattr(stmt, "decorator_list", ()):
        if isinstance(decorator, ast.Call):
            decorator = decorator.func
        name = getattr(decorator, "attr", getattr(decorator, "id", ""))
        if name.endswith("register"):
            return True
    return False


def _users():
    users = {module: set() for module in MODULES}
    for module in MODULES:
        if any(_registered(stmt) for stmt in TREES[module].body):
            users[module].add(f"{module} (registered)")
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
    assert users["repro.api.registry"] >= {"repro.api"}
    # directly, from outside src/
    assert any(user.startswith("bench") for user in users["repro.crdt.sets"])


def test_the_scan_counts_a_registering_module_as_used():
    users = _users()
    assert users["repro.replication.chain"] == {
        "repro.replication.chain (registered)"}
    assert "repro.sla.pileus (registered)" in users["repro.sla.pileus"]
    assert not any(user.endswith("(registered)")
                   for user in users["repro.replication.ring"])


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
    assert "repro.replication.quorum (registered)" in users[
        "repro.replication.quorum", "DynamoCluster"]
    # a package __init__ re-exporting it is not a user
    assert "repro.crdt" not in orset


# -- the same rule for options --------------------------------------------
#
# A defaulted parameter of a top-level ``def`` or of a method of a
# top-level class under ``src/repro``, or a defaulted field of a frozen
# dataclass (a parameter of its generated ``__init__``), is an option.
# An option needs a user: a call in a user file that passes it by
# keyword or by position to a callable with that name.  A class name
# stands for its ``__init__`` (inherited ones followed by base name);
# ``super().__init__(…)`` and ``Base.__init__(self, …)`` stand for the
# bases'.  Calls are matched by name, not resolved: ``x.get(key,
# timeout=…)`` sets ``timeout`` of every ``def get``.  A keyword passed
# to a callable that forwards ``**kwargs``, or to one that no ``def``
# or class under ``src/repro`` is named after (``dict(op_timeout=…)``,
# ``factory(n=…)``), and a string key of a dict literal, set that name
# for every option.  A call that forwards the enclosing ``def``'s own
# option (``CachedStore(ttl=ttl)`` in ``build_cached``) sets the
# callee's option only when the enclosing one is set, so a chain of
# forwards with no outside user is reported whole.  Passing a literal
# equal to the option's literal default (``ttl=200.0`` where the
# default is ``200.0``) is not a second value, so it sets nothing.
# Tests are not users.
#
# ``KNOWN_KNOBS`` may hold only safety bounds and test seams that
# inject a fault or substitute a fake, each with the test that needs
# it; a forward of a known knob counts as a setting.  Like the lists
# above it can only shrink.

KNOWN_KNOBS: dict[str, str] = {
    "repro.replication.anti_entropy.GossipCluster.run_until_converged"
    "(deadline)": "safety bound: a run that never converges raises "
                  "instead of spinning",
    "repro.replication.bayou.BayouCluster.run_until_converged(deadline)":
        "safety bound: a run that never converges raises instead of "
        "spinning",
    "repro.sim.network.Network(loss_rate)": "fault seam: "
        "test_gossip_converges_despite_heavy_loss drops 30 % of messages",
    "repro.sim.network.Network(duplicate_rate)": "fault seam: "
        "test_paxos_applies_each_duplicated_submit_once (strict xfail) "
        "and the other duplication tests",
    "repro.workload.driver.WorkloadDriver(recorder)": "test seam: "
        "test_group_records_completed_and_timed_out_ops shares one "
        "recorder across drivers",
    "repro.replication.multipaxos.MultiPaxosCluster.elect(replica)":
        "fault seam: test_failover_preserves_committed_writes elects a "
        "chosen replica after crashing the leader",
}

#: ``(WILDCARD, name)`` is set when ``name`` is set for every option.
WILDCARD = "*"

_DEF = (ast.FunctionDef, ast.AsyncFunctionDef)


class _Signature:
    """What a call to one callable can set: its positional parameter
    names in order, its options (parameter name -> option id), each
    option's default expression, and whether it forwards ``**kwargs``."""

    def __init__(self, positional, options, defaults, forwards=False):
        self.positional = positional
        self.options = options
        self.defaults = defaults
        self.forwards = forwards

    def passes_default(self, name, value):
        """Whether ``value`` is a literal equal to ``name``'s literal
        default: passing it sets nothing."""
        try:
            given = ast.literal_eval(value)
            default = ast.literal_eval(self.defaults[name])
        except (ValueError, TypeError, SyntaxError):
            return False
        return type(given) is type(default) and given == default


def _decorator_name(decorator):
    if isinstance(decorator, ast.Call):
        decorator = decorator.func
    return getattr(decorator, "id", getattr(decorator, "attr", ""))


def _function_signature(fn, label, method):
    args = fn.args
    ordered = args.posonlyargs + args.args
    positional = [arg.arg for arg in ordered]
    if method and "staticmethod" not in map(_decorator_name,
                                            fn.decorator_list):
        positional = positional[1:]
    defaults = {
        arg.arg: default
        for arg, default in zip(ordered[len(ordered) - len(args.defaults):],
                                args.defaults)
    }
    defaults.update(
        (arg.arg, default)
        for arg, default in zip(args.kwonlyargs, args.kw_defaults)
        if default is not None
    )
    return _Signature(
        positional, {name: f"{label}({name})" for name in defaults},
        defaults, args.kwarg is not None,
    )


def _frozen(cls):
    return any(
        keyword.arg == "frozen" and getattr(keyword.value, "value", False)
        for decorator in cls.decorator_list
        if isinstance(decorator, ast.Call)
        and _decorator_name(decorator) == "dataclass"
        for keyword in decorator.keywords
    )


def _dataclass_fields(cls):
    """``(name, default expression or None)`` per ``__init__`` field of
    ``cls``."""
    for stmt in cls.body:
        if not (isinstance(stmt, ast.AnnAssign)
                and isinstance(stmt.target, ast.Name)):
            continue
        if "ClassVar" in ast.unparse(stmt.annotation):
            continue
        value = stmt.value
        if isinstance(value, ast.Call) and _decorator_name(value) == "field":
            if any(keyword.arg == "init"
                   and getattr(keyword.value, "value", True) is False
                   for keyword in value.keywords):
                continue
        if isinstance(value, ast.Call):
            value = next((keyword.value for keyword in value.keywords
                          if keyword.arg == "default"), value)
        yield stmt.target.id, value


def _label(module, cls, fn):
    """The option-id prefix of ``fn``, a top-level def or (with
    ``cls``) a method; ``__init__`` is labelled by its class."""
    if cls is None:
        return f"{module}.{fn.name}"
    if fn.name == "__init__":
        return f"{module}.{cls.name}"
    return f"{module}.{cls.name}.{fn.name}"


def _defs(module, tree):
    """``(class or None, def)`` per top-level def and method."""
    for stmt in tree.body:
        if isinstance(stmt, _DEF):
            yield None, stmt
        elif isinstance(stmt, ast.ClassDef):
            for item in stmt.body:
                if isinstance(item, _DEF):
                    yield stmt, item


CLASSES = {}
for _module, _tree in TREES.items():
    for _stmt in _tree.body:
        if isinstance(_stmt, ast.ClassDef):
            CLASSES.setdefault(_stmt.name, []).append((_module, _stmt))


def _base_classes(cls):
    """``(module, ClassDef)`` of each base of ``cls`` under src/repro."""
    for base in cls.bases:
        name = getattr(base, "id", getattr(base, "attr", None))
        yield from CLASSES.get(name, ())


def _init(module, cls):
    """The signature ``cls(…)`` calls, or None (``object.__init__``)."""
    for item in cls.body:
        if isinstance(item, _DEF) and item.name == "__init__":
            return _function_signature(item, _label(module, cls, item),
                                       method=True)
    inherited = [_init(*base) for base in _base_classes(cls)]
    inherited = [signature for signature in inherited if signature]
    if not any(_decorator_name(d) == "dataclass"
               for d in cls.decorator_list):
        return inherited[0] if inherited else None
    positional, options, defaults = [], {}, {}
    for signature in reversed(inherited):
        positional += signature.positional
        options.update(signature.options)
        defaults.update(signature.defaults)
    for name, default in _dataclass_fields(cls):
        if name not in positional:
            positional.append(name)
        if default is not None and _frozen(cls):
            options[name] = f"{module}.{cls.name}({name})"
            defaults[name] = default
    return _Signature(positional, options, defaults)


def _callables():
    """callable name -> [_Signature]: every top-level def, method
    (bar ``__init__``) and class."""
    by_name = {}
    for module, tree in TREES.items():
        for cls, fn in _defs(module, tree):
            if fn.name != "__init__":
                by_name.setdefault(fn.name, []).append(_function_signature(
                    fn, _label(module, cls, fn), method=cls is not None))
    for name, classes in CLASSES.items():
        for module, cls in classes:
            signature = _init(module, cls)
            if signature is not None:
                by_name.setdefault(name, []).append(signature)
    return by_name


CALLABLES = _callables()
OPTIONS = {
    option
    for signatures in CALLABLES.values() for signature in signatures
    for option in signature.options.values()
}


def _callees(call, cls):
    """``(signatures, leading positionals to skip)`` for ``call`` made
    inside class ``cls`` (or None); no signatures = unresolved."""
    func = call.func
    if isinstance(func, ast.Attribute) and func.attr == "__init__":
        owner = func.value
        if (isinstance(owner, ast.Call)
                and getattr(owner.func, "id", "") == "super"):
            bases = _base_classes(cls) if cls is not None else ()
            return [s for s in (_init(*base) for base in bases) if s], 0
        classes = CLASSES.get(getattr(owner, "id", None), ())
        return [s for s in (_init(*c) for c in classes) if s], 1
    name = getattr(func, "id", getattr(func, "attr", None))
    return CALLABLES.get(name, []), 0


def _contexts(module, tree):
    """node id -> (options of the def around it, its class or None)."""
    around = {}
    for cls, fn in _defs(module, tree):
        options = _function_signature(
            fn, _label(module, cls, fn), method=cls is not None).options
        for inner in ast.walk(fn):
            around[id(inner)] = options, cls
    return around


def _option_sets():
    """``(what is set, condition, user)`` per setting in a user file:
    what is an option id or ``(WILDCARD, name)``; the condition is the
    enclosing option a forward depends on, or None; the user is the
    file's path under the repo root."""
    module_of = {path: module for module, path in FILES.items()}
    for path in USER_FILES:
        user = str(path.relative_to(ROOT))
        module = module_of.get(path)
        tree = TREES[module] if module in TREES else _parse(path)
        contexts = _contexts(module, tree) if module else {}
        for node in ast.walk(tree):
            if isinstance(node, ast.Dict):
                for key in node.keys:
                    if isinstance(key, ast.Constant) and isinstance(
                            key.value, str):
                        yield (WILDCARD, key.value), None, user
            if not isinstance(node, ast.Call):
                continue
            enclosing, cls = contexts.get(id(node), ({}, None))

            def condition(value):
                return enclosing.get(getattr(value, "id", None))

            signatures, skip = _callees(node, cls)
            keywords = [k for k in node.keywords if k.arg is not None]
            if not signatures or any(s.forwards for s in signatures):
                for keyword in keywords:
                    yield ((WILDCARD, keyword.arg), condition(keyword.value),
                           user)
            for signature in signatures:
                options = signature.options
                for keyword in keywords:
                    if keyword.arg in options and not signature.passes_default(
                            keyword.arg, keyword.value):
                        yield (options[keyword.arg], condition(keyword.value),
                               user)
                for index, arg in enumerate(node.args[skip:]):
                    names = signature.positional[index:]
                    if isinstance(arg, ast.Starred):
                        for name in names:
                            if name in options:
                                yield options[name], None, user
                        break
                    if (names and names[0] in options
                            and not signature.passes_default(names[0], arg)):
                        yield options[names[0]], condition(arg), user


SETTINGS = list(_option_sets())


def _unset_options(assumed_set=()):
    """Options nothing sets, forwards followed to a fixpoint; a forward
    of an ``assumed_set`` option counts as a setting."""
    done = set(assumed_set)
    while True:
        more = {
            what for what, condition, _ in SETTINGS
            if what not in done and (condition is None or condition in done)
        }
        if not more:
            break
        done |= more
    wildcards = {what[1] for what in done if isinstance(what, tuple)}
    return {
        option for option in OPTIONS - done
        if option.rpartition("(")[2][:-1] not in wildcards
    }


def test_every_option_has_a_user_outside_its_own_tests():
    assert len(KNOWN_KNOBS) <= 8
    new = sorted(_unset_options(KNOWN_KNOBS) - set(KNOWN_KNOBS))
    assert new == [], (
        f"options no user sets (one value in use): {new} — make each "
        "a constant, or give it a caller that needs another value"
    )
    gone = sorted(set(KNOWN_KNOBS) - _unset_options())
    assert gone == [], (
        f"{gone} gained a user or no longer exist — "
        "remove them from KNOWN_KNOBS"
    )


def test_the_scan_sees_the_ways_an_option_is_set():
    settings = {(what, condition, user) for what, condition, user in SETTINGS}
    bench = "bench/workloads.py"
    # by keyword, to a class (its __init__) and to a dataclass
    assert ("repro.cache.store.CachedStore(capacity)", None,
            bench) in settings
    assert ("repro.rpc.policy.RetryPolicy(backoff_max)", None,
            bench) in settings
    # by position
    assert ("repro.workload.ycsb.YCSBWorkload(preset)", None,
            bench) in settings
    # through super().__init__, as a forward of the subclass's option
    assert ("repro.workload.driver.OpCore(recorder)",
            "repro.workload.driver.WorkloadDriver(recorder)",
            "src/repro/workload/driver.py") in settings
    # a forward of the enclosing def's own option
    assert ("repro.cache.store.CachedStore(policy)",
            "repro.cache.store.build_cached(policy)",
            "src/repro/cache/store.py") in settings
    # for every option: a keyword to an unresolved callee, a dict key
    assert ((WILDCARD, "parallelism"), None,
            "benchmarks/test_e17_elastic.py") in settings
    assert ((WILDCARD, "fault"), None, bench) in settings
    # a keyword to a **kwargs forwarder (the registry's build)
    assert ((WILDCARD, "admission_burst"), None, bench) in settings
    # not: a literal equal to the literal default (``ttl=200.0``)
    assert ("repro.cache.store.CachedStore(ttl)", None, bench) not in settings
