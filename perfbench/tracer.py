"""Per-layer tracing for one benchmark child process.

`install()` replaces every public function and public method of the
quasiflags layer modules with a wrapper that records, per callable:

* ``calls``: calls through the public boundary (cache hits included);
* ``items``: elements of the list, tuple or dict returned, or values
  yielded by a generator;
* ``incl_ns``: inclusive time (outermost activation only, so recursion
  is not counted twice);
* ``self_ns``: inclusive time minus the time of wrapped callees;
* ``distinct``: distinct argument tuples, for module-level functions.

Calls of count_filtrations_bruteforce are also booked per field, as
``quiverfilt.bruteforce_f2`` and ``_f3``; those rows carry ``split_of``
so that layer totals do not count them twice.

A few callables record one extra, layer-specific number (see EXTRAS).
Wrappers are installed only in a traced run: the untraced runs that give
the end-to-end metrics never import this module.
"""

from __future__ import annotations

import functools
import inspect
import sys
import time

LAYERS = (
    "rootdata",
    "kostant",
    "charseries",
    "cohomology",
    "cells",
    "quiverfilt",
    "modchar",
    "suites",
    "reports",
    "cli",
)

# Operator methods are traced under their plain names.
OPERATORS = {
    "__add__": "add",
    "__radd__": "add",
    "__sub__": "sub",
    "__rsub__": "sub",
    "__mul__": "mul",
    "__rmul__": "mul",
    "__neg__": "neg",
}

_clock = time.perf_counter_ns


class Record:
    __slots__ = ("calls", "items", "self_ns", "incl_ns", "active", "keys", "extra", "split_of")

    def __init__(self, track_distinct, split_of=None):
        self.split_of = split_of
        self.calls = 0
        self.items = 0
        self.self_ns = 0
        self.incl_ns = 0
        self.active = 0
        self.keys = set() if track_distinct else None
        self.extra = {}


class Tracer:
    """Span stack and per-callable records of one process."""

    def __init__(self):
        self.records = {}
        # each frame: [start_ns, child_ns]
        self.stack = []

    def record(self, name, track_distinct=False, split_of=None):
        rec = self.records.get(name)
        if rec is None:
            rec = self.records[name] = Record(track_distinct, split_of)
        return rec

    def enter(self, rec):
        rec.active += 1
        self.stack.append([_clock(), 0])

    def leave(self, rec, also=None):
        end = _clock()
        start, child = self.stack.pop()
        elapsed = end - start
        rec.self_ns += elapsed - child
        rec.active -= 1
        if rec.active == 0:
            rec.incl_ns += elapsed
        if also is not None:
            also.self_ns += elapsed - child
            also.incl_ns += elapsed
        if self.stack:
            self.stack[-1][1] += elapsed

    def snapshot(self):
        out = {}
        for name, rec in sorted(self.records.items()):
            row = {
                "calls": rec.calls,
                "items": rec.items,
                "self_ns": rec.self_ns,
                "incl_ns": rec.incl_ns,
            }
            if rec.keys is not None:
                row["distinct"] = len(rec.keys)
            if rec.split_of is not None:
                row["split_of"] = rec.split_of
            row.update(rec.extra)
            out[name] = row
        return out


def freeze(value):
    """A hashable stand-in for an argument (lists and dicts become tuples)."""
    if isinstance(value, (list, tuple)):
        return tuple(freeze(v) for v in value)
    if isinstance(value, dict):
        return tuple(sorted((k, freeze(v)) for k, v in value.items()))
    return value


def _key(rec, args, kwargs):
    try:
        key = freeze((args, kwargs))
        hash(key)
    except TypeError:  # e.g. an argparse.Namespace: every call counts as distinct
        return ("unhashable", rec.calls)
    return key


def _count_items(result):
    if isinstance(result, (list, tuple, dict)):
        return len(result)
    return 0


def _max_support(rec, result):
    rec.extra["max_support"] = max(rec.extra.get("max_support", 0), len(result.coeffs))


def _render_bytes(rec, result):
    rec.extra["bytes"] = rec.extra.get("bytes", 0) + len(result.encode("utf-8"))


def _not_rigid(rec, result):
    rec.extra.setdefault("not_rigid", 0)
    if type(result).__name__ == "_NotRigidType":
        rec.extra["not_rigid"] += 1


EXTRAS = {
    "charseries.CharSeries.mul": _max_support,
    "cli.render": _render_bytes,
    "quiverfilt.count_filtrations": _not_rigid,
}


def _field_split(tracer, name):
    """count_filtrations_bruteforce(rep, steps, p): also book time per field."""
    if name != "quiverfilt.count_filtrations_bruteforce":
        return None
    return lambda args, kwargs: tracer.record(
        "quiverfilt.bruteforce_f%d" % kwargs.get("p", args[2] if len(args) > 2 else 0),
        split_of=name,
    )


def _wrap(tracer, fn, name, track_distinct):
    rec = tracer.record(name, track_distinct)
    extra = EXTRAS.get(name)
    split = _field_split(tracer, name)

    if inspect.isgeneratorfunction(fn):

        @functools.wraps(fn)
        def gen_wrapper(*args, **kwargs):
            rec.calls += 1
            if rec.keys is not None:
                rec.keys.add(_key(rec, args, kwargs))
            it = fn(*args, **kwargs)
            while True:
                tracer.enter(rec)
                try:
                    value = next(it)
                except StopIteration:
                    return
                finally:
                    tracer.leave(rec)
                rec.items += 1
                yield value

        return gen_wrapper

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        rec.calls += 1
        if rec.keys is not None:
            rec.keys.add(_key(rec, args, kwargs))
        also = split(args, kwargs) if split else None
        if also is not None:
            also.calls += 1
        tracer.enter(rec)
        try:
            result = fn(*args, **kwargs)
        finally:
            tracer.leave(rec, also)
        rec.items += _count_items(result)
        if extra is not None:
            extra(rec, result)
        return result

    return wrapper


def _is_plain_callable(obj):
    return inspect.isfunction(obj) or isinstance(obj, functools._lru_cache_wrapper)


def install():
    """Wrap the public callables of every layer module; return the Tracer."""
    package = "quasiflags"
    tracer = Tracer()
    replaced = {}  # id(original) -> wrapper
    modules = [sys.modules[f"{package}.{layer}"] for layer in LAYERS]
    for layer, module in zip(LAYERS, modules):
        for attr, obj in list(vars(module).items()):
            if attr.startswith("_") or getattr(obj, "__module__", None) != module.__name__:
                continue
            if _is_plain_callable(obj):
                wrapper = _wrap(tracer, obj, f"{layer}.{attr}", track_distinct=True)
                replaced[id(obj)] = wrapper
                setattr(module, attr, wrapper)
            elif inspect.isclass(obj):
                _wrap_class(tracer, layer, obj)
    # Rebind names other modules imported with `from .x import y`, and
    # callables stored in module-level tables such as cli.COMMANDS.
    for modname, module in list(sys.modules.items()):
        if modname != package and not modname.startswith(package + "."):
            continue
        for attr, obj in list(vars(module).items()):
            if id(obj) in replaced:
                setattr(module, attr, replaced[id(obj)])
            elif isinstance(obj, dict):
                for key, val in list(obj.items()):
                    if id(val) in replaced:
                        obj[key] = replaced[id(val)]
    return tracer


def _wrap_class(tracer, layer, cls):
    done = {}
    for attr, obj in list(vars(cls).items()):
        label = OPERATORS.get(attr, attr)
        if label.startswith("_"):
            continue
        if isinstance(obj, classmethod):
            inner = _wrap(tracer, obj.__func__, f"{layer}.{cls.__name__}.{label}", False)
            setattr(cls, attr, classmethod(inner))
        elif isinstance(obj, staticmethod):
            inner = _wrap(tracer, obj.__func__, f"{layer}.{cls.__name__}.{label}", False)
            setattr(cls, attr, staticmethod(inner))
        elif inspect.isfunction(obj):
            if id(obj) not in done:
                done[id(obj)] = _wrap(tracer, obj, f"{layer}.{cls.__name__}.{label}", False)
            setattr(cls, attr, done[id(obj)])
