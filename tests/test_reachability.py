"""Every function of the package is run by a command or by the benchmark.

A profile hook (sys.setprofile) records each code object entered while
every command runs in process, in each output format, from cold tables,
so that no lru_cache or process-wide table hides a body; while one command
exits 2 on a negative coordinate, the CLI's error path; and while one
count_filtrations / is_rigid call runs on a NOT_RIGID case, which is what
the benchmark's `filtrations` workload calls.  Every module-level function
and every method of a module-level class in src/quasiflags must be among
them, apart from ALLOWED.  Code that only the tests need, such as an
oracle, belongs in tests/oracles.py.
"""

import inspect
import io
import sys

from conftest import MODULES

from quasiflags import cli
from quasiflags.quiverfilt import NOT_RIGID, TorsionRep, count_filtrations, is_rigid

ALLOWED = {
    "cli._to_devnull": "runs only when an output stream is closed",
    "cli.console_main": "the console-script entry point; it calls main and exits",
    "quiverfilt._NotRigidType.__repr__": "for debugging output only",
    "charseries.LaurentPoly.__repr__": "for debugging output only",
    "charseries.CharSeries.__repr__": "for debugging output only",
}

COMMANDS = [
    ["kostant", "--n", "3", "--gamma", "2,1"],
    ["poincare", "--n", "3", "--alpha", "2,1"],
    ["poincare", "--n", "3", "--alpha", "2,1", "--shifted"],
    ["genfunc", "--n", "3", "--degree", "10"],
    ["cells", "--n", "3", "--alpha", "2,1", "--dims"],
    ["verify", "--n", "3", "--degree", "10", "--suite", "all"],
]


def _own(obj, module):
    return getattr(obj, "__module__", None) == module.__name__


def _code(obj):
    """The code object of a function, an lru_cache wrapper or a class/static method."""
    func = inspect.unwrap(getattr(obj, "__func__", obj))
    return getattr(func, "__code__", None)


def _functions():
    """{"module.qualname": code} of each module-level function and class method."""
    found = {}
    for module in MODULES:
        short = module.__name__.rpartition(".")[2]
        for name, obj in vars(module).items():
            if not _own(obj, module):
                continue
            if inspect.isclass(obj):
                members = {f"{name}.{attr}": member for attr, member in vars(obj).items()}
            else:
                members = {name: obj}
            for qualname, member in members.items():
                code = _code(member)
                if code is not None:
                    found[f"{short}.{qualname}"] = code
    return found


def _entered(run):
    codes = set()

    def hook(frame, event, arg):
        if event == "call":
            codes.add(frame.f_code)

    sys.setprofile(hook)
    try:
        run()
    finally:
        sys.setprofile(None)
    return codes


def _run_everything():
    for argv in COMMANDS:
        for fmt in ("json", "csv", "latex"):
            assert cli.main([*argv, "--format", fmt], out=io.StringIO()) == 0, (argv, fmt)
    assert cli.main(["poincare", "--n", "3", "--alpha=-1,0"], out=io.StringIO()) == 2
    rep = TorsionRep.of(2, [((1, 1), "x"), ((1, 1), "x")])
    result = count_filtrations(rep, [(1, 1), (1, 1)])
    assert result is NOT_RIGID and not is_rigid(result)


def test_every_function_is_run_by_a_command_or_the_benchmark(cold_tables):
    functions = _functions()
    assert set(ALLOWED) <= set(functions), "an ALLOWED entry names no function"
    entered = _entered(_run_everything)
    unreached = sorted(
        name for name, code in functions.items() if code not in entered and name not in ALLOWED
    )
    assert unreached == [], f"functions no command or benchmark entry runs: {unreached}"
