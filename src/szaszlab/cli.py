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

from .errors import BandError, ExperimentAbort, ParameterError
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
        if out[-1] < 0:
            raise ParameterError(f"sizes: must be >= 0, got {out[-1]}")
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


def _open_out(path):
    if path in (None, "-"):
        return sys.stdout, False
    return open(path, "w", newline=""), True


def _write_rows(handle, header, rows) -> None:
    handle.write(",".join(header) + "\n")
    for row in rows:
        handle.write(",".join(_fmt(v) for v in row) + "\n")


def _cmd_classify(args) -> int:
    try:
        query = _build_query(args.s, args.p, args.q, args.r, args.n, args.family, args.setting)
    except ParameterError as exc:
        print(f"szaszlab classify: {exc}", file=sys.stderr)
        return _USAGE_EXIT
    result = classify(query)
    record = {
        "s": args.s,
        "p": args.p,
        "q": args.q,
        "r": args.r,
        "n": args.n,
        "family": args.family,
        "setting": args.setting,
        **result.to_record(),
        "realization_feasible": realization_feasible(query),
    }
    handle, close = _open_out(args.out)
    try:
        if args.format == "json":
            handle.write(json.dumps({k: _fmt(v) if isinstance(v, float) else v for k, v in record.items()}) + "\n")
        else:
            _write_rows(handle, list(record), [tuple(record.values())])
    finally:
        if close:
            handle.close()
    return 0


def _cmd_experiment(args) -> int:
    try:
        query = _build_query(args.s, args.p, args.q, args.r, args.n, args.family, args.setting)
        sizes = _parse_sizes(args.sizes)
        if args.kind not in WITNESS_KINDS:
            raise ParameterError(f"unknown kind {args.kind!r}; known: {WITNESS_KINDS}")
        if args.grid is not None and args.grid not in GRID_PRESETS:
            raise ParameterError(f"unknown grid preset {args.grid!r}; known: {sorted(GRID_PRESETS)}")
        error = None
        try:
            records = divergence_experiment(args.kind, query, sizes, grid=args.grid, seed=args.seed)
        except ExperimentAbort as exc:
            records = exc.records
            error = exc.reason
    except ParameterError as exc:
        print(f"szaszlab experiment: {exc}", file=sys.stderr)
        return _USAGE_EXIT

    header = ("size", "space_norm", "lhs", "ratio")
    handle, close = _open_out(args.out)
    try:
        if args.format == "json":
            for rec in records:
                handle.write(json.dumps({
                    "size": rec.size,
                    "space_norm": _fmt(rec.space_norm),
                    "lhs": _fmt(rec.lhs),
                    "ratio": _fmt(rec.ratio),
                }) + "\n")
            if error is not None:
                handle.write(json.dumps({"error": error}) + "\n")
        else:
            _write_rows(handle, header, [rec.to_row() for rec in records])
            if error is not None:
                handle.write(f"#error: {error}\n")
    finally:
        if close:
            handle.close()
    if error is not None:
        print(f"szaszlab experiment: {error}", file=sys.stderr)
        return _INFEASIBLE_EXIT
    return 0


def _cmd_sweep(args) -> int:
    try:
        lists = {
            "s": _parse_list(args.s, "s"),
            "p": _parse_list(args.p, "p"),
            "q": _parse_list(args.q, "q"),
            "r": _parse_list(args.r, "r"),
        }
        n_list = _parse_dimensions(args.n)
        family_list = [f.strip() for f in args.family.split(",") if f.strip()] if args.family.strip() else []
        for fam in family_list:
            if fam not in ("B", "F"):
                raise ParameterError(f"family: must be B or F, got {fam!r}")
    except ParameterError as exc:
        print(f"szaszlab sweep: {exc}", file=sys.stderr)
        return _USAGE_EXIT

    rows = []
    try:
        for s, p, q, r, n, fam in itertools.product(
            lists["s"], lists["p"], lists["q"], lists["r"], n_list, family_list
        ):
            res = classify(_build_query(s, p, q, r, n, fam, args.setting))
            rows.append((s, p, q, r, n, fam, res.theta, res.weak, res.strong))
    except ParameterError as exc:
        print(f"szaszlab sweep: {exc}", file=sys.stderr)
        return _USAGE_EXIT

    header = ("s", "p", "q", "r", "n", "family", "theta", "weak", "strong")
    handle, close = _open_out(args.out)
    try:
        if args.format == "json":
            for row in rows:
                handle.write(json.dumps(dict(zip(header, (_fmt(v) if isinstance(v, float) else v for v in row)))) + "\n")
        else:
            _write_rows(handle, header, rows)
    finally:
        if close:
            handle.close()
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
        print(f"szaszlab: {exc}", file=sys.stderr)
        return _USAGE_EXIT
    except BandError as exc:
        print(f"szaszlab: {exc}", file=sys.stderr)
        return _INFEASIBLE_EXIT


if __name__ == "__main__":
    sys.exit(main())
