"""Command-line front end: kostant, poincare, genfunc, cells, verify.

All commands print one machine-readable document to stdout: json by
default, or a csv or latex table of rows picked from that document, in
which a cell that is not a str or an int is its json text.  Identical
invocations produce byte-identical output.  verify writes one note line
to stderr for each suite with nothing to check; its report of 0 checks
stays in the document.  Exit codes: 0 ok, 1 a theorem identity failed,
2 usage error (including a verify run with nothing to check at all),
3 only conjecture-level checks failed (without --strict), 4 internal
error (one line on stderr, nothing on stdout) or stdout closed before the
document was written (one line on stderr).  A closed stderr loses its
line, never the exit code.

The json document is exactly ``json.dumps(doc, indent=2, sort_keys=True)``
and a newline.  ``render`` writes that text itself: CPython's C encoder
cannot indent, so ``json.dumps`` with an indent runs json's pure-Python
encoder, the largest single cost of a small verify run.
"""

import argparse
import json
import os
import re
import sys
from json.encoder import encode_basestring_ascii
from types import MappingProxyType

from . import cells as cells_mod
from . import cohomology, suites
from .kostant import kostant_partitions
from .rootdata import ResourceCapError, dim_flag, height, two_rho

# The largest |vector| the one-vector commands accept unless --cap says
# otherwise; the library enumerates whatever it is given.
DEFAULT_WEIGHT_CAP = 12


class UsageError(Exception):
    pass


def _parse_vector(text, rank, what, cap):
    # int() would also take "1_0", " 1" and non-ASCII digits
    parts = text.split(",")
    if not all(re.fullmatch("-?[0-9]+", part) for part in parts):
        raise UsageError(f"--{what} must be comma-separated integers, got {text!r}")
    vec = tuple(map(int, parts))
    if len(vec) != rank:
        raise UsageError(f"--{what} must have {rank} coordinates, got {len(vec)}")
    if any(a < 0 for a in vec):
        raise UsageError(f"--{what} coordinates must be nonnegative")
    if height(vec) > cap:
        raise ResourceCapError(
            f"|{what}| = {height(vec)} exceeds enumeration cap {cap}"
        )
    return vec


def build_parser():
    parser = argparse.ArgumentParser(
        prog="quasiflags",
        description="Exact invariants of quasiflag spaces and their identity suites.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, degree=False, alpha=False, gamma=False):
        p.add_argument("--n", type=int, required=True, help="rank parameter, n >= 2")
        if degree:
            p.add_argument("--degree", type=int, required=True,
                           help="total-degree bound for series")
        if alpha:
            p.add_argument("--alpha", type=str, required=True,
                           help="comma-separated coroot coordinates a1,...,a_{n-1}")
        if gamma:
            p.add_argument("--gamma", type=str, required=True,
                           help="comma-separated coroot coordinates")
        p.add_argument("--format", choices=("json", "csv", "latex"), default="json")
        if alpha or gamma:  # the one-vector commands bound the vector they read
            p.add_argument("--cap", type=int, default=DEFAULT_WEIGHT_CAP,
                           help="largest |vector| accepted, checked once before "
                           "any enumeration (default 12)")

    p = sub.add_parser("kostant", help="list the Kostant partitions of gamma")
    common(p, gamma=True)

    p = sub.add_parser("poincare", help="Poincare polynomial of one quasiflag space")
    common(p, alpha=True)
    p.add_argument("--shifted", action="store_true",
                   help="recenter around degree zero (polynomial in q)")

    p = sub.add_parser("genfunc", help="closed-form generating function coefficients")
    common(p, degree=True)

    p = sub.add_parser("cells", help="torus fixed-point cells for one alpha")
    common(p, alpha=True)
    p.add_argument("--dims", action="store_true",
                   help="include the conjectured cell dimension column")

    p = sub.add_parser("verify", help="run identity suites")
    common(p, degree=True)
    p.add_argument("--suite", default="all", choices=(*suites.SUITE_NAMES, "all"),
                   help="serre, pbw and commute have fixed sizes, recorded in "
                   "their params, and ignore --degree")
    p.add_argument("--strict", action="store_true",
                   help="treat conjecture-level failures as hard failures")
    return parser


def cmd_kostant(args):
    gamma = _parse_vector(args.gamma, args.n - 1, "gamma", args.cap)
    # every partition of gamma has weight gamma and norm |gamma|
    rows = [
        {
            "partition": kappa.to_json(),
            "weight": list(gamma),
            "norm": height(gamma),
            "summands": kappa.num_summands(),
        }
        for kappa in kostant_partitions(gamma)
    ]
    doc = {
        "command": "kostant",
        "params": {"n": args.n, "gamma": list(gamma), "cap": args.cap},
        "rows": rows,
    }
    return doc, 0


def cmd_poincare(args):
    alpha = _parse_vector(args.alpha, args.n - 1, "alpha", args.cap)
    if args.shifted:
        poly = cohomology.shifted_poincare(alpha)
    else:
        poly = cohomology.laumon_poincare(alpha)
    doc = {
        "command": "poincare",
        "params": {
            "n": args.n,
            "alpha": list(alpha),
            "shifted": bool(args.shifted),
            "cap": args.cap,
        },
        "result": {
            "poly": poly.to_json(),
            "pretty": poly.pretty(),
            "dimension": dim_flag(args.n) + 2 * height(alpha),
            "euler": poly.eval_at_one(),
        },
    }
    return doc, 0


def cmd_genfunc(args):
    min_degree = height(two_rho(args.n))
    if args.degree < min_degree:
        raise UsageError(
            f"--degree must be at least |2rho| = {min_degree} for n={args.n}"
        )
    series = cohomology.generating_function(args.n, args.degree)
    doc = {
        "command": "genfunc",
        "params": {"n": args.n, "degree": args.degree},
        "result": {"series": series.to_json()},
    }
    return doc, 0


def cmd_cells(args):
    alpha = _parse_vector(args.alpha, args.n - 1, "alpha", args.cap)
    rows = []
    for cell in cells_mod.enumerate_cells(args.n, alpha):
        row = {
            "w": list(cell.w.perm),
            "length": cell.w.length,
            "kappa0": cell.kappa0.to_json(),
            "kappaInf": cell.kappaInf.to_json(),
        }
        if args.dims:
            row["d_conjectured"] = cells_mod.conjectured_dim(cell)
        rows.append(row)
    doc = {
        "command": "cells",
        "params": {
            "n": args.n,
            "alpha": list(alpha),
            "dims": bool(args.dims),
            "cap": args.cap,
        },
        "rows": rows,
    }
    return doc, 0


def cmd_verify(args):
    if args.degree < 0:
        raise UsageError(f"--degree must be nonnegative, got {args.degree}")
    reports = suites.run_suites(args.n, args.degree, suite=args.suite)
    where = f"at n={args.n}, degree={args.degree}"
    if not any(r.entries for r in reports):
        raise UsageError(f"suite {args.suite!r} has nothing to check {where}")
    for r in reports:
        if not r.entries:  # its PASS of no checks says nothing
            _warn(f"note: suite {r.name} has nothing to check {where}")
    code = suites.exit_code(reports, strict=args.strict)
    doc = {
        "command": "verify",
        "params": {
            "n": args.n,
            "degree": args.degree,
            "suite": args.suite,
            "strict": bool(args.strict),
            # no suite takes a cap; the key stays until the budgets replace it
            "cap": DEFAULT_WEIGHT_CAP,
        },
        "suites": [r.to_json() for r in reports],
        "summary": {
            "status": "PASS" if code == 0 else "FAIL",
            "theorem_failures": sum(len(r.theorem_failures()) for r in reports),
            "conjecture_failures": sum(
                len(r.conjecture_failures()) for r in reports
            ),
            "exit_code": code,
        },
    }
    return doc, code


# Every TeX special character of a table cell, written as a literal.
_TEX = MappingProxyType(str.maketrans({
    "\\": "\\textbackslash{}", "&": "\\&", "%": "\\%", "$": "\\$", "#": "\\#",
    "_": "\\_", "{": "\\{", "}": "\\}", "~": "\\textasciitilde{}", "^": "\\textasciicircum{}",
}))


def _flatten_rows(doc):
    """The table of a document, for csv and latex: a header and its rows.

    Each command picks its rows from the json document; a str or int cell
    is written as it is, and any other cell as ``json.dumps(value,
    sort_keys=True)``.
    """
    command = doc["command"]
    if command in ("kostant", "cells"):  # every gamma and alpha has rows
        header = list(doc["rows"][0])
        rows = [list(r.values()) for r in doc["rows"]]
    elif command == "poincare":
        header, rows = ["exponent", "coefficient"], doc["result"]["poly"]
    elif command == "genfunc":
        header, rows = ["alpha", "poly"], doc["result"]["series"]
    elif command == "verify":
        header = ["suite", "case", "category", "status"]
        rows = [
            [rep["suite"], entry["case"], entry["category"], entry["status"]]
            for rep in doc["suites"]
            for entry in rep["entries"]
        ]
    else:  # pragma: no cover
        raise ValueError(command)
    cell = lambda v: v if type(v) in (str, int) else json.dumps(v, sort_keys=True)
    return header, [[cell(v) for v in row] for row in rows]


def _csv_cell(value):
    text = str(value)
    if any(ch in text for ch in ',"\n'):
        return '"' + text.replace('"', '""') + '"'
    return text


def _write_json(value, append, pad, memo):
    """Append the chunks of ``json.dumps(value, indent=2, sort_keys=True)``.

    ``pad`` is a newline and the indentation of the line ``value`` starts
    on.  Containers are matched as json matches them (dict; list or
    tuple; subclasses included), strings go through json's C escaper, ints
    through ``int.__repr__`` and any other scalar through ``json.dumps``.
    A non-str key raises TypeError (from the escaper, or from sorting
    keys of mixed types).  ``memo`` holds, per indentation, the sorted key
    heads of each dict key order and the text of each all-int list, which
    recur throughout a verify document; its keys start with the bracket,
    so a dict's key order never meets a list of the same ints.
    """
    if isinstance(value, dict):
        if not value:
            append("{}")
            return
        inner = pad + "  "
        shape = ("{", pad, *value)
        heads = memo.get(shape)
        if heads is None:
            heads = memo[shape] = [
                (key, ("," if i else "{") + inner
                 + encode_basestring_ascii(key) + ": ")
                for i, key in enumerate(sorted(value))
            ]
        for key, head in heads:
            item = value[key]
            # str and int values, the commonest, are written without a call
            if type(item) is str:
                append(head + encode_basestring_ascii(item))
            elif type(item) is int:
                append(head + int.__repr__(item))
            else:
                append(head)
                _write_json(item, append, inner, memo)
        append(pad + "}")
    elif isinstance(value, (list, tuple)):
        if not value:
            append("[]")
            return
        inner = pad + "  "
        comma = "," + inner
        for item in value:
            if type(item) is not int:  # bools are not joined as ints
                break
        else:
            shape = ("[", pad, *value)
            text = memo.get(shape)
            if text is None:
                text = memo[shape] = (
                    "[" + inner + comma.join(map(int.__repr__, value)) + pad + "]"
                )
            append(text)
            return
        sep = "[" + inner
        for item in value:
            append(sep)
            _write_json(item, append, inner, memo)
            sep = comma
        append(pad + "]")
    elif isinstance(value, str):
        append(encode_basestring_ascii(value))
    elif isinstance(value, int) and not isinstance(value, bool):
        append(int.__repr__(value))
    else:
        append(json.dumps(value))


def render(doc, fmt):
    """Render ``doc`` as one json, csv or latex document (no final newline).

    The json text is exactly ``json.dumps(doc, indent=2, sort_keys=True)``
    for a document with str keys; a non-str key raises TypeError.  It is
    written directly because CPython's C encoder cannot indent, so
    ``json.dumps`` with an indent runs json's pure-Python encoder, which
    takes three to four times as long as this writer on a verify document.
    """
    if fmt == "json":
        chunks = []
        _write_json(doc, chunks.append, "\n", {})
        return "".join(chunks)
    header, rows = _flatten_rows(doc)
    if fmt == "csv":
        lines = [",".join(header)]
        lines.extend(",".join(_csv_cell(v) for v in row) for row in rows)
        return "\n".join(lines)
    if fmt == "latex":
        tex_row = lambda row: " & ".join(str(v).translate(_TEX) for v in row) + " \\\\"
        lines = ["\\begin{tabular}{%s}" % ("l" * len(header)), tex_row(header), "\\hline"]
        lines.extend(map(tex_row, rows))
        lines.append("\\end{tabular}")
        return "\n".join(lines)
    raise ValueError(fmt)  # pragma: no cover


COMMANDS = {
    "kostant": cmd_kostant,
    "poincare": cmd_poincare,
    "genfunc": cmd_genfunc,
    "cells": cmd_cells,
    "verify": cmd_verify,
}


def _to_devnull(stream):
    # what the stream still buffers goes there when the interpreter flushes
    # it at exit, so that flush cannot fail and change the exit code
    os.dup2(os.open(os.devnull, os.O_WRONLY), stream.fileno())


def _warn(message):
    """One line to stderr; a closed stderr loses it, never the exit code."""
    try:
        print(message, file=sys.stderr, flush=True)
    except BrokenPipeError:
        _to_devnull(sys.stderr)


def main(argv=None, out=None):
    out = out if out is not None else sys.stdout
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return exc.code if exc.code is not None else 2
    if args.n < 2:
        _warn("error: --n must be at least 2")
        return 2
    try:
        doc, code = COMMANDS[args.command](args)
        text = render(doc, args.format)
    except (UsageError, ResourceCapError) as exc:
        _warn(f"error: {exc}")
        return 2
    except Exception as exc:  # exit 1 is reserved for a theorem failure
        _warn(f"internal error: {exc!r}")
        return 4
    try:
        print(text, file=out)
        out.flush()
    except BrokenPipeError:
        if out is sys.stdout:
            _to_devnull(out)
        _warn("error: output closed before the document was written")
        return 4
    return code


def console_main():  # pragma: no cover
    sys.exit(main())


if __name__ == "__main__":  # pragma: no cover
    console_main()
