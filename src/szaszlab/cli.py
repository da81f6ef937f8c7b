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
import itertools
import json
import sys
import warnings
from contextlib import contextmanager

from .errors import BandError, ExperimentAbort, ModelFidelityWarning, ParameterError
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


def _parse_extended(text: str, name: str) -> float:
    try:
        value = float(text)
    except ValueError:
        raise ParameterError(f"{name}: cannot parse {text!r} as a number") from None
    if value != value:
        raise ParameterError(f"{name}: nan is not a valid exponent")
    return value


def _parse_sizes(text: str) -> list:
    if text.strip() == "":
        return []
    out = []
    for part in text.split(","):
        try:
            out.append(int(part))
        except ValueError:
            raise ParameterError(f"sizes: cannot parse {part!r} as an integer") from None
    return out


def _parse_list(text: str, name: str) -> list:
    if text.strip() == "":
        return []
    return [_parse_extended(part, name) for part in text.split(",")]


def _parse_dimensions(text: str) -> list:
    out = []
    for value in _parse_list(text, "n"):
        if not value.is_integer():
            raise ParameterError(f"n: must be an integer, got {_fmt(value)}")
        out.append(int(value))
    return out


def _build_query(s, p, q, r, n, family, setting) -> SzaszQuery:
    space = SpaceParams(s=s, r=r, q=q, family=family, setting=setting)
    return SzaszQuery(space=space, p=p, n=n)


def _emit(path, fmt: str, header, rows, error: str | None = None) -> None:
    """Write records to ``path`` ('-' or None: stdout) as CSV or JSON lines.

    A CSV has a header line and ends with a '#error: ...' comment when
    ``error`` is given; JSON has one object per row (floats in 17-digit text)
    and then an {"error": ...} object.

    Raises:
        ParameterError: when ``path`` cannot be opened for writing.
    """
    if fmt == "json":
        lines = [
            json.dumps({k: _fmt(v) if isinstance(v, float) else v for k, v in zip(header, row)})
            for row in rows
        ]
        if error is not None:
            lines.append(json.dumps({"error": error}))
    else:
        lines = [",".join(header)] + [",".join(_fmt(v) for v in row) for row in rows]
        if error is not None:
            lines.append(f"#error: {error}")
    text = "".join(line + "\n" for line in lines)
    if path in (None, "-"):
        sys.stdout.write(text)
        return
    try:
        with open(path, "w", newline="") as handle:
            handle.write(text)
    except OSError as exc:
        raise ParameterError(f"cannot write --out {path}: {exc.strerror or exc}") from None


def _cmd_classify(args) -> int:
    query = _build_query(args.s, args.p, args.q, args.r, args.n, args.family, args.setting)
    record = {
        "s": args.s,
        "p": args.p,
        "q": args.q,
        "r": args.r,
        "n": args.n,
        "family": args.family,
        "setting": args.setting,
        **classify(query).to_record(),
        "realization_feasible": realization_feasible(query),
    }
    _emit(args.out, args.format, list(record), [tuple(record.values())])
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
    query = _build_query(args.s, args.p, args.q, args.r, args.n, args.family, args.setting)
    sizes = _parse_sizes(args.sizes)
    error = None
    try:
        with _fidelity_warnings_to_stderr("experiment"):
            records = divergence_experiment(args.kind, query, sizes, grid=args.grid, seed=args.seed)
    except ExperimentAbort as exc:
        records, error = exc.records, exc.reason
    header = ("size", "space_norm", "lhs", "ratio")
    _emit(args.out, args.format, header, [rec.to_row() for rec in records], error)
    if error is not None:
        print(f"szaszlab experiment: {error}", file=sys.stderr)
        return _INFEASIBLE_EXIT
    return 0


def _cmd_sweep(args) -> int:
    lists = [_parse_list(getattr(args, name), name) for name in ("s", "p", "q", "r")]
    n_list = _parse_dimensions(args.n)
    family_list = [f.strip() for f in args.family.split(",") if f.strip()]
    for fam in family_list:
        if fam not in ("B", "F"):
            raise ParameterError(f"family: must be B or F, got {fam!r}")
    rows = []
    for s, p, q, r, n, fam in itertools.product(*lists, n_list, family_list):
        res = classify(_build_query(s, p, q, r, n, fam, args.setting))
        rows.append((s, p, q, r, n, fam, res.theta, res.weak, res.strong))
    header = ("s", "p", "q", "r", "n", "family", "theta", "weak", "strong")
    _emit(args.out, args.format, header, rows)
    return 0


def _add_query_flags(parser, as_list: bool) -> None:
    kw = {"type": str} if as_list else {"type": lambda t: _parse_extended(t, "exponent")}
    parser.add_argument("--s", required=True, **kw, help="smoothness (comma list for sweep)")
    parser.add_argument("--p", required=True, **kw, help="Fourier-side exponent, 'inf' allowed")
    parser.add_argument("--q", required=True, **kw, help="summability exponent, 'inf' allowed")
    parser.add_argument("--r", required=True, **kw, help="integrability exponent, 'inf' allowed")
    if as_list:
        parser.add_argument("--n", required=True, type=str, help="dimension(s)")
        parser.add_argument("--family", required=True, type=str, help="B, F or B,F")
    else:
        parser.add_argument("--n", required=True, type=int, help="dimension")
        parser.add_argument("--family", required=True, choices=("B", "F"))
    parser.add_argument(
        "--setting",
        choices=("homogeneous", "inhomogeneous"),
        default="homogeneous",
    )


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="szaszlab",
        description="Szasz-type Fourier inequalities on Besov/Lizorkin-Triebel spaces: "
        "exact classification and grid experiments.",
    )
    sub = parser.add_subparsers(dest="subcommand", required=True)

    p_cls = sub.add_parser("classify", help="weak/strong verdict for one parameter system")
    _add_query_flags(p_cls, as_list=False)
    p_cls.add_argument("--out", default=None, help="output path ('-' or omitted: stdout)")
    p_cls.add_argument("--format", choices=("csv", "json"), default="csv")
    p_cls.set_defaults(func=_cmd_classify)

    p_exp = sub.add_parser("experiment", help="divergence/boundedness run over witness sizes")
    _add_query_flags(p_exp, as_list=False)
    p_exp.add_argument("--kind", required=True, help=f"one of {WITNESS_KINDS}")
    p_exp.add_argument("--sizes", required=True, help="comma list of sizes, may be empty")
    p_exp.add_argument("--seed", type=int, default=0)
    p_exp.add_argument("--grid", default=None, help=f"grid preset {sorted(GRID_PRESETS)}")
    p_exp.add_argument("--out", default=None, help="output path ('-' or omitted: stdout)")
    p_exp.add_argument("--format", choices=("csv", "json"), default="csv")
    p_exp.set_defaults(func=_cmd_experiment)

    p_sw = sub.add_parser("sweep", help="classify a cartesian product of parameter lists")
    _add_query_flags(p_sw, as_list=True)
    p_sw.add_argument("--out", default=None, help="output path ('-' or omitted: stdout)")
    p_sw.add_argument("--format", choices=("csv", "json"), default="csv")
    p_sw.set_defaults(func=_cmd_sweep)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
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
