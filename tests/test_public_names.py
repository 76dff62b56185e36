"""Every name in the package is read by the package or the benchmark.

A public module-level function or class must be referenced (as an
``ast.Name`` or ``ast.Attribute``) somewhere in src/quasiflags outside its
own definition, or in perfbench/*.py; a public method only counts as read
through an ``ast.Attribute``, since a local variable of the same name does
not call it.  An attribute read through the name of a package class,
``Class.attr``, reads that class's member only: ``LaurentPoly.zero()``
does not read ``CharSeries.zero``.  An ``__init__`` import or an
``__all__`` string is not a reference.  Code that only the tests need
lives in tests/oracles.py; a name kept in the package for the tests alone
would be listed in TEST_ONLY with the reason it stays.
A defaulted parameter of a public function or method (``__init__``
included, called by its class name) must be set, by keyword or by
position, by some call in src/quasiflags or perfbench/*.py: a knob no
caller turns is dead weight.  Parameters set only by the tests are
listed in TEST_ONLY_PARAMS with the reason they stay.
A private module-level helper (``_name``, not a dunder) must be read in
src/quasiflags outside its own definition, so that a rewrite cannot leave
one orphaned.
"""

import ast
from collections import Counter
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = sorted((ROOT / "src" / "quasiflags").glob("*.py"))
BENCH = sorted((ROOT / "perfbench").glob("*.py"))

TEST_ONLY = {}

TEST_ONLY_PARAMS = {
    "main.out": "the tests' substitute for sys.stdout",
}


def _definitions(tree):
    """(qualified name, bare name, node) for each public def and method."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)) and not node.name.startswith("_"):
            yield node.name, node.name, node
            if isinstance(node, ast.ClassDef):
                for item in node.body:
                    if isinstance(item, ast.FunctionDef) and not item.name.startswith("_"):
                        yield f"{node.name}.{item.name}", item.name, item


def _classes(trees):
    return {node.name for tree in trees for node in tree.body if isinstance(node, ast.ClassDef)}


def _referenced(node, attrs_only=False, classes=frozenset()):
    """Names read: ast.Attribute attrs, and ast.Name ids unless attrs_only.

    An attribute of one of `classes`, read through the class name, is
    recorded qualified, as "Class.attr".
    """
    names = []
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name) and not attrs_only:
            names.append(sub.id)
        elif isinstance(sub, ast.Attribute):
            value = sub.value
            if isinstance(value, ast.Name) and value.id in classes:
                names.append(f"{value.id}.{sub.attr}")
            else:
                names.append(sub.attr)
    return names


def _unreferenced():
    trees = [ast.parse(path.read_text()) for path in SRC]
    benches = [ast.parse(path.read_text()) for path in BENCH]
    classes = _classes(trees)
    # keyed by attrs_only: a method is read only as an attribute
    src_refs = {
        only: Counter(name for tree in trees for name in _referenced(tree, only, classes))
        for only in (False, True)
    }
    bench_refs = {
        only: {name for tree in benches for name in _referenced(tree, only, classes)}
        for only in (False, True)
    }
    unused = []
    for tree in trees:
        for qualname, name, node in _definitions(tree):
            method = "." in qualname
            # a method is read bare (obj.name) or through its own class
            keys = {name, qualname}
            inside = Counter(_referenced(node, method, classes))
            if all(src_refs[method][k] == inside[k] for k in keys) and not keys & bench_refs[method]:
                unused.append(qualname)
    return unused


def test_every_public_name_is_read():
    dead = [name for name in _unreferenced() if name not in TEST_ONLY]
    assert dead == [], f"public names no module or benchmark reads: {dead}"


def test_every_private_helper_is_read():
    trees = [ast.parse(path.read_text()) for path in SRC]
    refs = Counter(name for tree in trees for name in _referenced(tree))
    dead = [
        node.name
        for tree in trees
        for node in tree.body
        if isinstance(node, (ast.FunctionDef, ast.ClassDef))
        and node.name.startswith("_")
        and not node.name.startswith("__")
        and refs[node.name] == _referenced(node).count(node.name)
    ]
    assert dead == [], f"private helpers no module reads: {dead}"


def test_test_only_list_is_current():
    # an entry the package now reads, or whose definition is gone, is stale
    assert sorted(TEST_ONLY) == sorted(set(_unreferenced()) & set(TEST_ONLY))


def _defaulted_params(tree):
    """(qualified name, callee, method, [(position or None, param)]) per public def.

    Positions count from the first argument a call passes, so a method
    skips self or cls; a keyword-only parameter has no position.
    """
    for qualname, name, node in _definitions(tree):
        if isinstance(node, ast.ClassDef):
            init = [i for i in node.body if isinstance(i, ast.FunctionDef) and i.name == "__init__"]
            if init:
                yield from _params(f"{name}.__init__", name, False, init[0], skip=1)
            continue
        method = "." in qualname
        static = any(getattr(d, "id", None) == "staticmethod" for d in node.decorator_list)
        yield from _params(qualname, name, method, node, skip=int(method and not static))


def _params(qualname, callee, method, node, skip):
    args = node.args
    positional = (args.posonlyargs + args.args)[skip:]
    found = [
        (k, arg.arg)
        for k, arg in enumerate(positional)
        if k >= len(positional) - len(args.defaults)
    ]
    found += [
        (None, arg.arg)
        for arg, default in zip(args.kwonlyargs, args.kw_defaults)
        if default is not None
    ]
    if found:
        yield qualname, callee, method, found


def _calls(trees):
    """callee name -> [(is attribute call, ast.Call)] over the trees."""
    calls = {}
    for tree in trees:
        for node in ast.walk(tree):
            if not isinstance(node, ast.Call):
                continue
            func = node.func
            if isinstance(func, ast.Name):
                calls.setdefault(func.id, []).append((False, node))
            elif isinstance(func, ast.Attribute):
                calls.setdefault(func.attr, []).append((True, node))
    return calls


def _sets(call, position, param):
    if any(kw.arg in (param, None) for kw in call.keywords):
        return True
    if position is None:
        return False
    starred = [k for k, a in enumerate(call.args) if isinstance(a, ast.Starred)]
    return position < len(call.args) or bool(starred and starred[0] <= position)


def _unset_params():
    trees = [ast.parse(path.read_text()) for path in SRC]
    calls = _calls(trees + [ast.parse(path.read_text()) for path in BENCH])
    unset = []
    for tree in trees:
        for qualname, callee, method, params in _defaulted_params(tree):
            # a method is called only as an attribute
            sites = [call for is_attr, call in calls.get(callee, []) if is_attr or not method]
            for position, param in params:
                if not any(_sets(call, position, param) for call in sites):
                    unset.append(f"{qualname}.{param}")
    return unset


def test_every_defaulted_parameter_is_set():
    knobs = [name for name in _unset_params() if name not in TEST_ONLY_PARAMS]
    assert knobs == [], f"defaulted parameters no call sets: {knobs}"


def test_test_only_params_list_is_current():
    # an entry a call now sets, or whose parameter is gone, is stale
    assert sorted(TEST_ONLY_PARAMS) == sorted(set(_unset_params()) & set(TEST_ONLY_PARAMS))
