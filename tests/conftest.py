"""Shared fixtures."""

import importlib
import inspect
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


@pytest.fixture
def cold_tables(monkeypatch):
    """Empty every process-wide table and cache of quasiflags for the test.

    Each module-level ``_UPPER = {}`` table is swapped for an empty dict
    (the old one comes back after the test), and every lru_cache is
    cleared, before the test and after it.  Call the returned function to
    empty them all again mid-test, for example after patching a route to
    refuse, so that every route really runs again.
    """
    tables = [
        (module, name)
        for module in MODULES
        for name in re.findall(r"^(_[A-Z][A-Z0-9_]*) = \{\}$", inspect.getsource(module), re.M)
    ]

    def chill():
        for module, name in tables:
            monkeypatch.setattr(module, name, {})
        for cache in _caches():
            cache.cache_clear()

    chill()
    yield chill
    for cache in _caches():
        cache.cache_clear()
