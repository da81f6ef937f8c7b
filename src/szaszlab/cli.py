"""Command-line front end: classify parameter systems, run experiments, sweep grids.

Subcommands:
    classify    exact weak/strong verdicts for one (s, p, q, r, n) system
    experiment  witness-family divergence/boundedness run, CSV per size
    sweep       classifier over the cartesian product of parameter lists

Exit codes: 0 success, 2 invalid usage or parameters, 3 infeasible numerics.
"inf" is accepted (and printed) for infinite exponents.  Outputs are
deterministic: identical configuration, including the seed, produces
byte-identical files.  CSV comment lines start with '#'.
"""

from __future__ import annotations

import argparse
import functools
import itertools
import json
import re
import sys
import warnings
from contextlib import contextmanager

from .errors import BandError, ExperimentAbort, ModelFidelityWarning, ParameterError, _integer
from .spaces import SpaceParams
from .szasz import SzaszQuery, classify
from .realization import realization_feasible
from .witnesses import GRID_PRESETS, WITNESS_KINDS, divergence_experiment

_USAGE_EXIT = 2
_INFEASIBLE_EXIT = 3


def _fmt(x) -> str:
    if isinstance(x, bool):
        return "true" if x else "false"
    if isinstance(x, float):
        return format(x, ".17g")
    return str(x)


def _cell(fmt: str, name: str, value) -> str:
    """One field of a record: its CSV text, or its JSON member '"name": value' (a float as its 17-digit text)."""
    text = _fmt(value)
    if fmt == "csv":
        return text
    return f"{json.dumps(name)}: {json.dumps(text if isinstance(value, float) else value)}"


def _cells(fmt: str, header, row) -> tuple:
    return tuple(_cell(fmt, name, value) for name, value in zip(header, row))


#: what int() reads: a signed run of digits, single underscores between them, blanks around
_INTEGER_LITERAL = re.compile(r"\s*[+-]?\d+(?:_\d+)*\s*")


def _parse_number(text: str, name: str) -> float:
    try:
        return float(text)
    except ValueError:
        raise ParameterError(f"{name}: cannot parse {text!r} as a number") from None


def _parse_extended(text: str, name: str) -> float:
    """An exponent s, p, q or r: float's reading, 'inf' too, nan refused."""
    value = _parse_number(text, name)
    if value != value:
        raise ParameterError(f"{name}: nan is not a valid exponent")
    return value


def _parse_integer(text: str, name: str) -> int:
    """An n, size or seed: an integer literal read exactly, any other number (2.0, 1e3) by float, then _integer."""
    if not _INTEGER_LITERAL.fullmatch(text):
        return _integer(_parse_number(text, name), name, None)
    try:
        return int(text)
    except ValueError:  # more digits than int() converts
        digits = sum(c.isdigit() for c in text)
        limit = "does not fit a float" if name == "n" else "is too long to read"
        raise ParameterError(f"invalid params: {name} {limit}, got an integer of {digits} digits") from None


def _parse_list(text: str, name: str, read=_parse_extended) -> list:
    """The comma list ``text``, each item read by ``read``; blank text is the empty list."""
    return [read(part, name) for part in text.split(",")] if text.strip() else []


def _build_query(s, p, q, r, n, family, setting) -> SzaszQuery:
    space = SpaceParams(s=s, r=r, q=q, family=family, setting=setting)
    return SzaszQuery(space=space, p=p, n=n)


def _query(args) -> SzaszQuery:
    """The query of a classify or experiment command line; the library judges every value read."""
    s, p, q, r = (_parse_extended(getattr(args, name), name) for name in "spqr")
    return _build_query(s, p, q, r, _parse_integer(args.n, "n"), args.family, args.setting)


def _emit(path, fmt: str, header, rows, error: str | None = None) -> None:
    """Write records to ``path`` ('-' or None: stdout) as CSV or JSON lines.

    Each row holds its record's fields rendered in ``fmt`` by :func:`_cell`.
    A CSV has a header line and ends with a '#error: ...' comment when
    ``error`` is given; JSON has one object per row (floats in 17-digit text)
    and then an {"error": ...} object.

    Raises:
        ParameterError: when ``path`` cannot be opened for writing.
    """
    if fmt == "json":
        lines = ["{" + ", ".join(row) + "}" for row in rows]
        if error is not None:
            lines.append(json.dumps({"error": error}))
    else:
        lines = [",".join(header)] + [",".join(row) for row in rows]
        if error is not None:
            lines.append(f"#error: {error}")
    text = "\n".join(lines + [""])
    if path in (None, "-"):
        sys.stdout.write(text)
        return
    try:
        with open(path, "w", newline="") as handle:
            handle.write(text)
    except OSError as exc:
        raise ParameterError(f"cannot write --out {path}: {exc.strerror or exc}") from None


def _cmd_classify(args) -> int:
    query = _query(args)
    space = query.space
    record = {
        "s": space.s,
        "p": query.p,
        "q": space.q,
        "r": space.r,
        "n": query.n,
        "family": space.family,
        "setting": space.setting,
        **classify(query).to_record(),
        "realization_feasible": realization_feasible(query),
    }
    header = list(record)
    _emit(args.out, args.format, header, [_cells(args.format, header, record.values())])
    return 0


@contextmanager
def _fidelity_warnings_to_stderr(command: str):
    """Show each distinct ModelFidelityWarning once, as 'szaszlab <command>: warning: <message>'.

    The warning filters still decide whether a warning is shown at all;
    every other warning is shown as before.  Python would name the first
    line outside the package that raised it, which under ``python -m`` is
    runpy's, so the CLI speaks for itself.
    """
    shown, show = set(), warnings.showwarning

    def one_line(message, category, filename, lineno, file=None, line=None):
        if not issubclass(category, ModelFidelityWarning):
            show(message, category, filename, lineno, file, line)
        elif str(message) not in shown:
            shown.add(str(message))
            print(f"szaszlab {command}: warning: {message}", file=sys.stderr)

    warnings.showwarning = one_line
    try:
        yield
    finally:
        warnings.showwarning = show


def _cmd_experiment(args) -> int:
    query = _query(args)
    sizes = _parse_list(args.sizes, "size", _parse_integer)
    seed = _parse_integer(args.seed, "seed")
    error = None
    try:
        with _fidelity_warnings_to_stderr("experiment"):
            records = divergence_experiment(args.kind, query, sizes, grid=args.grid, seed=seed)
    except ExperimentAbort as exc:
        records, error = exc.records, exc.reason
    header = ("size", "space_norm", "lhs", "ratio")
    _emit(args.out, args.format, header, [_cells(args.format, header, rec.to_row()) for rec in records], error)
    if error is not None:
        print(f"szaszlab experiment: {error}", file=sys.stderr)
        return _INFEASIBLE_EXIT
    return 0


_SWEEP_HEADER = ("s", "p", "q", "r", "n", "family", "theta", "weak", "strong")


def _sweep_rows(axes, fmt: str, setting: str) -> list:
    """The records of the (s, p, q, r, n, family) product of ``axes``, each field rendered by :func:`_cell`.

    Each row is one :func:`classify` call.  A row's space is built once per
    distinct (s, q, r, family), at the first row that needs it, so the rows
    are checked in product order and a bad list fails with the message of
    its first rejected row.  A list value's text is made once, and theta's
    (set by s, p, r and n alone) once per (s, p, r, n).  Texts are kept by
    list position, never by value: -0.0 == 0.0 and True == 1.
    """
    s, p, q, r, n, families = axes
    ts, tp, tq, tr, tn, tf = ([_cell(fmt, name, x) for x in axis] for name, axis in zip(_SWEEP_HEADER, axes))
    tw, tst = ([_cell(fmt, name, x) for x in (False, True)] for name in _SWEEP_HEADER[7:])
    spaces, thetas, rows = {}, {}, []
    for i, j, k, l, m, f in itertools.product(*(range(len(axis)) for axis in axes)):
        space = spaces.get((i, k, l, f))
        if space is None:
            space = spaces[i, k, l, f] = SpaceParams(s=s[i], r=r[l], q=q[k], family=families[f], setting=setting)
        res = classify(SzaszQuery(space, p[j], n[m]))
        theta = thetas.get((i, j, l, m))
        if theta is None:
            theta = thetas[i, j, l, m] = _cell(fmt, "theta", res.theta)
        rows.append((ts[i], tp[j], tq[k], tr[l], tn[m], tf[f], theta, tw[res.weak], tst[res.strong]))
    return rows


def _cmd_sweep(args) -> int:
    axes = [_parse_list(getattr(args, name), name) for name in "spqr"]
    axes.append(_parse_list(args.n, "n", _parse_integer))
    axes.append(_parse_list(args.family, "family", lambda text, name: text.strip()))
    _emit(args.out, args.format, _SWEEP_HEADER, _sweep_rows(axes, args.format, args.setting))
    return 0


def _add_query_flags(parser) -> None:
    """The query's flags, taken as text (a comma list for sweep but --setting) and read by the command."""
    parser.add_argument("--s", required=True, help="smoothness")
    parser.add_argument("--p", required=True, help="Fourier-side exponent, 'inf' allowed")
    parser.add_argument("--q", required=True, help="summability exponent, 'inf' allowed")
    parser.add_argument("--r", required=True, help="integrability exponent, 'inf' allowed")
    parser.add_argument("--n", required=True, help="dimension")
    parser.add_argument("--family", required=True, help="B or F")
    parser.add_argument("--setting", default="homogeneous", help="homogeneous or inhomogeneous")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="szaszlab",
        description="Szasz-type Fourier inequalities on Besov/Lizorkin-Triebel spaces: "
        "exact classification and grid experiments.",
    )
    sub = parser.add_subparsers(dest="subcommand", required=True)

    p_cls = sub.add_parser("classify", help="weak/strong verdict for one parameter system")
    _add_query_flags(p_cls)
    p_cls.add_argument("--out", default=None, help="output path ('-' or omitted: stdout)")
    p_cls.add_argument("--format", choices=("csv", "json"), default="csv")
    p_cls.set_defaults(func=_cmd_classify)

    p_exp = sub.add_parser("experiment", help="divergence/boundedness run over witness sizes")
    _add_query_flags(p_exp)
    p_exp.add_argument("--kind", required=True, help=f"one of {WITNESS_KINDS}")
    p_exp.add_argument("--sizes", required=True, help="comma list of sizes, may be empty")
    p_exp.add_argument("--seed", default="0")
    p_exp.add_argument("--grid", default=None, help=f"grid preset {sorted(GRID_PRESETS)}")
    p_exp.add_argument("--out", default=None, help="output path ('-' or omitted: stdout)")
    p_exp.add_argument("--format", choices=("csv", "json"), default="csv")
    p_exp.set_defaults(func=_cmd_experiment)

    p_sw = sub.add_parser("sweep", help="classify the product of comma lists (each query flag but --setting)")
    _add_query_flags(p_sw)
    p_sw.add_argument("--out", default=None, help="output path ('-' or omitted: stdout)")
    p_sw.add_argument("--format", choices=("csv", "json"), default="csv")
    p_sw.set_defaults(func=_cmd_sweep)
    return parser


@functools.cache
def _parser() -> argparse.ArgumentParser:
    return build_parser()


def main(argv=None) -> int:
    args = _parser().parse_args(argv)
    try:
        return args.func(args)
    except ParameterError as exc:
        print(f"szaszlab {args.subcommand}: {exc}", file=sys.stderr)
        return _USAGE_EXIT
    except BandError as exc:
        print(f"szaszlab: {exc}", file=sys.stderr)
        return _INFEASIBLE_EXIT


if __name__ == "__main__":
    sys.exit(main())
