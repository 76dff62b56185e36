"""Every function of the package is run by a command or by the benchmark.

A profile hook (sys.setprofile) records each code object entered while
every command runs in process, in each output format, from cold tables,
so that no lru_cache or process-wide table hides a body, and a small
`verify --suite commute` at n = 4, the least n with a far pair; while one
command exits 2 on a negative coordinate, the CLI's error path; and while
count_filtrations / is_rigid, which is what the benchmark's `filtrations`
workload calls, runs on a NOT_RIGID case, on a rigid one and on a few
shared-point cases, among them a step that no summand of its point can
carry.  Every module-level function
and every method of a module-level class in src/quasiflags must be among
them, apart from ALLOWED.  Code that only the tests need, such as an
oracle, belongs in tests/oracles.py.

Every module is held to its lines as well: a line trace over the same
runs must reach every statement of its functions, apart from its error
paths and UNRUN, so that no test-only code (such as an int operand of
the series arithmetic, or a branch that no count takes) lives in the
package.
"""

import ast
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
    ["verify", "--n", "4", "--degree", "4", "--suite", "commute"],
]

# (rep, steps, count) of count_filtrations: the doctests' rigid case, and
# the orders of the simple steps of a point [1, 2] + [1, 1], the first of
# which no summand of the point can carry at its top step [2, 2]
COUNTS = [
    (TorsionRep.of(2, [((1, 1), "x"), ((1, 1), "x")]), [(1, 1), (1, 1)], NOT_RIGID),
    (TorsionRep.of(3, [((1, 2), "x"), ((2, 2), "y")]), [(2, 2), (2, 2), (1, 1)], 2),
    (TorsionRep.of(3, [((1, 2), "x"), ((1, 1), "x")]), [(1, 1), (1, 1), (2, 2)], 0),
    (TorsionRep.of(3, [((1, 2), "x"), ((1, 1), "x")]), [(1, 1), (2, 2), (1, 1)], 1),
    (TorsionRep.of(3, [((1, 2), "x"), ((1, 1), "x")]), [(2, 2), (1, 1), (1, 1)], NOT_RIGID),
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
    for rep, steps, count in COUNTS:
        result = count_filtrations(rep, steps)
        assert result == count and is_rigid(result) == (count is not NOT_RIGID)


def test_every_function_is_run_by_a_command_or_the_benchmark(cold_tables):
    functions = _functions()
    assert set(ALLOWED) <= set(functions), "an ALLOWED entry names no function"
    entered = _entered(_run_everything)
    unreached = sorted(
        name for name, code in functions.items() if code not in entered and name not in ALLOWED
    )
    assert unreached == [], f"functions no command or benchmark entry runs: {unreached}"


# statements that no command runs, by (module.function, source text);
# every raise statement and every __repr__ body are exempt as well
UNRUN = {
    ("charseries.LaurentPoly.__eq__", "return NotImplemented"): "runs for a non-LaurentPoly operand",
    ("charseries.CharSeries.__eq__", "return NotImplemented"): "runs for a non-CharSeries operand",
    ("charseries.LaurentPoly.__add__", "out.pop(e, None)"): "runs when a sum cancels a term",
    ("charseries.LaurentPoly.__mul__", "del out[e]"): "runs when a product cancels a term",
    ("charseries.LaurentPoly.pretty", 'return "0"'): "runs for the zero polynomial",
    ("charseries.CharSeries.__init__", "continue"): "runs for a term out of bound or zero",
    ("cli.cmd_verify", '_warn(f"note: suite {r.name} has nothing to check {where}")'): (
        "runs for an empty suite in --suite all, such as serre at n = 2"
    ),
    ("cli._write_json", 'append("{}")'): "runs for an empty dict in a document",
    ("cli._write_json", "return"): "runs after an empty dict in a document",
    ("cli._to_devnull", "os.dup2(os.open(os.devnull, os.O_WRONLY), stream.fileno())"): (
        "runs only when an output stream is closed"
    ),
    ("cli.main", '_warn("error: --n must be at least 2")'): "runs for --n below 2",
    ("cli.main", "return 2"): "runs for --n below 2",
    ("cli.console_main", "sys.exit(main())"): "the console-script entry point",
    ("quiverfilt._checked_steps", "dim = interval_sum(n, chain.from_iterable(rep.points))"): (
        "the message of the ValueError for steps that do not fill the rep"
    ),
    ("suites._serre_entry", "agree = False"): "runs when a serre count disagrees (FAIL)",
    ("suites.run_commute", "ok = False"): "runs when a far pair's counts differ (FAIL)",
    ("suites.run_pbw", 'case["f3"] = f3'): "runs when F_3 and F_2 differ on a pbw rep (FAIL)",
    ("suites.run_freeness", 'details["n!_kostant_count"] = kostant'): (
        "runs when a Verma coefficient is not n! times its Kostant count (FAIL)"
    ),
    ("suites.exit_code", "return 1"): "runs for a THEOREM failure",
    ("suites.exit_code", "return 1 if strict else 3"): "runs for a CONJECTURE failure",
}


def _statements(source):
    """[(function, source text, lines that run it)] of each statement in a function body.

    A compound statement runs on its header lines, a simple one on any of
    its lines.  Docstrings, raise statements and __repr__ bodies are left out.
    """
    found = []

    def visit(body, qualname):
        for node in body:
            if isinstance(node, ast.ClassDef):
                visit(node.body, node.name)
            elif isinstance(node, ast.FunctionDef):
                if node.name == "__repr__":
                    continue
                name = f"{qualname}.{node.name}" if qualname else node.name
                first = node.body[0]
                docstring = isinstance(first, ast.Expr) and isinstance(first.value, ast.Constant)
                visit_body(node.body[1:] if docstring else node.body, name)

    def visit_body(body, name):
        for node in body:
            if isinstance(node, ast.Raise):
                continue
            inner = [b for field in ("body", "orelse") for b in getattr(node, field, [])]
            last = max(node.lineno, inner[0].lineno - 1) if inner else node.end_lineno
            text = ast.get_source_segment(source, node).partition("\n")[0].rstrip(":")
            found.append((name, text, range(node.lineno, last + 1)))
            visit_body(inner, name)

    visit(ast.parse(source).body, "")
    return found


def _lines_run(filenames, run):
    """The (filename, line) pairs that run executes in the files filenames."""
    lines = set()

    def local(frame, event, arg):
        if event == "line":
            lines.add((frame.f_code.co_filename, frame.f_lineno))
        return local

    def hook(frame, event, arg):
        return local if frame.f_code.co_filename in filenames else None

    previous = sys.gettrace()
    sys.settrace(hook)
    try:
        run()
    finally:
        sys.settrace(previous)
    return lines


def test_every_statement_is_run_by_a_command(cold_tables):
    statements = [
        (filename, f"{module.__name__.rpartition('.')[2]}.{name}", text, span)
        for module in MODULES
        for filename in [inspect.getsourcefile(module)]
        for name, text, span in _statements(inspect.getsource(module))
    ]
    assert set(UNRUN) <= {(name, text) for _, name, text, _ in statements}, (
        "an UNRUN entry names no statement"
    )
    lines = _lines_run({filename for filename, *_ in statements}, _run_everything)
    unrun = [
        (name, text)
        for filename, name, text, span in statements
        if lines.isdisjoint((filename, line) for line in span) and (name, text) not in UNRUN
    ]
    assert unrun == [], f"statements no command runs: {unrun}"
