"""Shared fixtures."""

import importlib
import pkgutil
import re

import pytest

import quasiflags

MODULES = [
    importlib.import_module(f"quasiflags.{info.name}")
    for info in pkgutil.iter_modules(quasiflags.__path__)
]


def _caches():
    """Every functools.lru_cache defined at module level in quasiflags.*."""
    return [
        obj
        for module in MODULES
        for obj in vars(module).values()
        if hasattr(obj, "cache_clear") and getattr(obj, "__module__", None) == module.__name__
    ]


def _tables():
    """(module, name) of every process-wide table of quasiflags.*.

    A table is a module-level dict, list or set named like ``_UPPER``; a
    constant mapping is read-only (a ``types.MappingProxyType``) instead.
    """
    return [
        (module, name)
        for module in MODULES
        for name, obj in vars(module).items()
        if re.fullmatch(r"_[A-Z][A-Z0-9_]*", name) and isinstance(obj, (dict, list, set))
    ]


@pytest.fixture
def cold_tables(monkeypatch):
    """Empty every process-wide table and cache of quasiflags for the test.

    Each table (see _tables) is swapped for an empty one of its type (the
    old one comes back after the test), and every lru_cache is cleared,
    before the test and after it.  Call the returned function to empty
    them all again mid-test, for example after patching a route to
    refuse, so that every route really runs again.
    """
    tables = _tables()

    def chill():
        for module, name in tables:
            empty = getattr(module, name).copy()
            empty.clear()
            monkeypatch.setattr(module, name, empty)
        for cache in _caches():
            cache.cache_clear()

    chill()
    yield chill
    for cache in _caches():
        cache.cache_clear()
