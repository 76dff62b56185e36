"""The cold_tables fixture empties every process-wide table of quasiflags."""

import functools
import importlib
import pkgutil
import re

import quasiflags
from quasiflags import quiverfilt

MODULES = [
    importlib.import_module(f"quasiflags.{info.name}")
    for info in pkgutil.iter_modules(quasiflags.__path__)
]

# every store that outlives a call: a new one must be added here on purpose
TABLES = {
    "quasiflags.kostant._LISTED",
    "quasiflags.cohomology._COUSIN",
    "quasiflags.cells._CELLS",
    "quasiflags.quiverfilt._POINT_STATES",
    "quasiflags.quiverfilt._POINT_IDS",
    "quasiflags.quiverfilt._POINT_PEELS",
    "quasiflags.quiverfilt._SYMBOLIC_STATES",
    "quasiflags.quiverfilt._SYMBOLIC_IDS",
    "quasiflags.quiverfilt._SYMBOLIC_PEELS",
}
CACHES = {
    "quasiflags.rootdata.coroot_intervals",
    "quasiflags.rootdata.positive_coroots",
    "quasiflags.rootdata.two_rho",
    "quasiflags.rootdata.weyl_elements",
    "quasiflags.rootdata.weyl_poincare",
    "quasiflags.cohomology.generating_function",
    "quasiflags.modchar._character_series",
}
# the module-level containers that are no store: the CLI's command table
CONSTANTS = {"quasiflags.cli.COMMANDS"}


def _named_tables():
    """Each module-level dict, list or set of quasiflags.* named like _UPPER."""
    return {
        f"{module.__name__}.{name}": (module, name)
        for module in MODULES
        for name, obj in vars(module).items()
        if re.fullmatch(r"_[A-Z][A-Z0-9_]*", name) and isinstance(obj, (dict, list, set))
    }


def test_the_package_keeps_exactly_the_listed_stores():
    containers = {
        f"{module.__name__}.{name}"
        for module in MODULES
        for name, obj in vars(module).items()
        if not name.startswith("__") and isinstance(obj, (dict, list, set, bytearray))
    }
    caches = {
        f"{module.__name__}.{name}"
        for module in MODULES
        for name, obj in vars(module).items()
        if isinstance(obj, functools._lru_cache_wrapper) and obj.__module__ == module.__name__
    }
    assert set(_named_tables()) == TABLES
    assert containers == TABLES | CONSTANTS
    assert caches == CACHES


def _fill(table):
    if isinstance(table, dict):
        table["stale"] = 1
    elif isinstance(table, list):
        table.append("stale")
    else:
        table.add("stale")


def test_cold_tables_empties_every_table(cold_tables):
    tables = _named_tables()
    # the id table of each filtration route is a list beside its reverse
    # dict, and its peels are a dict of per-step dicts
    assert {
        "quasiflags.quiverfilt._POINT_STATES",
        "quasiflags.quiverfilt._POINT_IDS",
        "quasiflags.quiverfilt._POINT_PEELS",
        "quasiflags.quiverfilt._SYMBOLIC_STATES",
        "quasiflags.quiverfilt._SYMBOLIC_IDS",
        "quasiflags.quiverfilt._SYMBOLIC_PEELS",
    } <= set(tables)
    for qualname, (module, name) in tables.items():
        assert not getattr(module, name), f"{qualname} is not emptied"
        _fill(getattr(module, name))
    cold_tables()
    for qualname, (module, name) in tables.items():
        assert not getattr(module, name), f"{qualname} is not emptied mid-test"


def test_cold_tables_clears_the_peel_caches(cold_tables):
    # each filtration route keeps its own table of peels, one dict per step,
    # beside its id table
    rep = quiverfilt.TorsionRep.of(3, [((1, 2), "x"), ((2, 2), "y")])
    steps = [(2, 2), (2, 2), (1, 1)]
    quiverfilt.filtration_counts(rep, steps)
    tables = (quiverfilt._SYMBOLIC_PEELS, quiverfilt._POINT_PEELS)
    assert set(tables[0]) == set(steps)
    assert set(tables[1]) == {(q, p_end, p) for q, p_end in steps for p in (2, 3)}
    assert all(all(table.values()) for table in tables)
    cold_tables()
    assert not quiverfilt._SYMBOLIC_PEELS and not quiverfilt._POINT_PEELS
