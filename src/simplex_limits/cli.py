"""Command-line front end.

One subcommand per experiment plus ad-hoc ``constants``, ``sample`` and
``oracle`` queries and a ``report`` format converter.  All numeric flags are
validated before any computation starts; a run with a fixed (seed, config)
writes byte-identical output regardless of ``--workers``.

Exit codes: 0 success, 1 numerical/runtime failure, 2 usage error.
"""

from __future__ import annotations

import argparse
import json
import sys

from . import constants, experiments, oracle, sampling
from .rng import RandomStream


def _int_list(text: str) -> tuple[int, ...]:
    try:
        return tuple(int(tok) for tok in text.split(",") if tok)
    except ValueError as exc:
        raise argparse.ArgumentTypeError(f"expected a comma list of integers, got {text!r}") from exc


def _float_list(text: str) -> tuple[float, ...]:
    try:
        return tuple(float(tok) for tok in text.split(",") if tok)
    except ValueError as exc:
        raise argparse.ArgumentTypeError(f"expected a comma list of numbers, got {text!r}") from exc


def _add_experiment_flags(sub: argparse.ArgumentParser) -> None:
    sub.add_argument("--n", type=_int_list, default=None, help="comma list of dimensions")
    sub.add_argument("--q", type=float, default=None, help="norm / moment order q >= 1")
    sub.add_argument("--p", type=float, default=None, help="ball exponent p >= 1")
    sub.add_argument("--replicates", type=int, default=None)
    sub.add_argument("--seed", type=int, default=None)
    sub.add_argument("--workers", type=int, default=None)
    sub.add_argument("--z", type=_float_list, default=None, help="comma list of thresholds")
    sub.add_argument("--sn", choices=("sqrt_log", "log_log"), default=None,
                     help="moderate-deviation speed rule")
    sub.add_argument("--oracle-n", type=_int_list, default=None,
                     help="dimensions for exact oracle rows")
    sub.add_argument("--source", choices=sorted(experiments.SOURCE_DISTRIBUTIONS),
                     default=None, help="source distribution (general-clt)")
    sub.add_argument("--config", default=None,
                     help="JSON file with the same fields; explicit flags win")
    _add_output_flags(sub)


def _add_output_flags(sub: argparse.ArgumentParser) -> None:
    sub.add_argument("--format", choices=("csv", "json"), default="csv")
    sub.add_argument("--out", default=None, help="output path (default: stdout)")


#: experiment subcommand -> kind, or -> {--law value: kind}
_COMMAND_KINDS = {
    "clt": "clt",
    "berry-esseen": "berry_esseen_sweep",
    "gumbel": "gumbel",
    "ldp": "ldp",
    "mdp": "mdp",
    "lpball": {"ldp": "lp_ldp", "gumbel": "lp_gumbel"},
    "equivalence": "equivalence_decay",
    "general-clt": "general_clt",
}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="simplex-limits",
        description="Samplers, exact constants, and Monte Carlo / exact-oracle "
                    "verification of high-dimensional norm limit theorems.")
    parser.add_argument("--version", action="version",
                        version=f"simplex-limits {experiments.TOOL_VERSION}")
    subs = parser.add_subparsers(dest="command", required=True)

    sc = subs.add_parser("constants", help="table of moment and comparison constants")
    sc.add_argument("--q", type=_float_list, required=True, help="comma list of q values")
    _add_output_flags(sc)

    ss = subs.add_parser("sample", help="draw points from one of the samplers")
    ss.add_argument("--kind", choices=("exponential", "simplex", "spacings", "pgen", "ball"),
                    required=True)
    ss.add_argument("--n", type=int, required=True)
    ss.add_argument("--count", type=int, default=1)
    ss.add_argument("--p", type=float, default=2.0)
    ss.add_argument("--uncentered", action="store_true")
    ss.add_argument("--seed", type=int, default=0)
    _add_output_flags(ss)

    so = subs.add_parser("oracle", help="ad-hoc exact oracle queries")
    so.add_argument("--op", choices=("max-spacing-cdf", "max-spacing-sf", "small-n-norm-cdf"),
                    required=True)
    so.add_argument("--n", type=int, required=True)
    so.add_argument("--s", type=float, default=None, help="spacing threshold in (0,1)")
    so.add_argument("--q", type=float, default=None, help="norm order (small-n-norm-cdf)")
    so.add_argument("--t", type=float, default=None, help="norm threshold (small-n-norm-cdf)")
    _add_output_flags(so)

    for name, kind in _COMMAND_KINDS.items():
        sub = subs.add_parser(name, help=f"run the {name} experiment")
        if isinstance(kind, dict):
            sub.add_argument("--law", choices=tuple(kind), default="ldp")
        _add_experiment_flags(sub)

    sr = subs.add_parser("report", help="re-emit a saved JSON report")
    sr.add_argument("--in", dest="infile", required=True, help="JSON report path")
    _add_output_flags(sr)
    return parser


# defaults applied when neither flag nor config file sets a field
_DEFAULTS = {
    "clt": dict(n_list=(100, 10_000), q=2.0, replicates=10_000, thresholds=()),
    "berry_esseen_sweep": dict(n_list=(100, 1_000, 10_000), q=2.0, replicates=10_000,
                               thresholds=()),
    "gumbel": dict(n_list=(10_000,), replicates=10_000, thresholds=(),
                   oracle_n_list=(1_000_000,)),
    "ldp": dict(n_list=(1_000,), replicates=100_000, thresholds=(1.5,),
                oracle_n_list=(10_000, 100_000, 1_000_000)),
    "mdp": dict(n_list=(), replicates=1, thresholds=(1.0,),
                oracle_n_list=(1_000_000,)),
    "lp_ldp": dict(n_list=(1_000,), p=2.0, replicates=100_000, thresholds=(1.3,)),
    "lp_gumbel": dict(n_list=(10_000,), p=1.0, replicates=10_000, thresholds=()),
    "equivalence_decay": dict(n_list=(5, 10, 20, 50, 100), replicates=100_000,
                              thresholds=()),
    "general_clt": dict(n_list=(10_000,), q=2.0, replicates=10_000, thresholds=()),
}


#: config-file key, which is also the flag's name -> (ExperimentConfig field,
#: JSON type the flag parses to: ``[t]`` for a list of ``t``)
_CONFIG_KEYS = {"n": ("n_list", [int]), "q": ("q", float), "p": ("p", float),
                "replicates": ("replicates", int), "seed": ("seed", int),
                "z": ("thresholds", [float]), "sn": ("s_n_rule", str),
                "source": ("source", str), "oracle_n": ("oracle_n_list", [int]),
                "workers": ("workers", int)}


#: type -> (one value, several values), in the words of a usage error
_TYPE_WORDS = {int: ("an integer", "integers"), float: ("a number", "numbers"),
               str: ("a string", "strings")}


def _is_json(value, kind: type) -> bool:
    # JSON true/false are bools, which Python counts as ints
    if isinstance(value, bool):
        return False
    return isinstance(value, (int, float) if kind is float else kind)


def _file_value(path: str, key: str, value):
    """A config-file value as the flag ``key`` would have parsed it (a JSON 2
    for a number flag is 2.0, so the report's config reads as the flag's)."""
    kind = _CONFIG_KEYS[key][1]
    if isinstance(kind, list):
        if isinstance(value, list) and all(_is_json(v, kind[0]) for v in value):
            return tuple(map(kind[0], value))
        expected = f"a list of {_TYPE_WORDS[kind[0]][1]}"
    elif _is_json(value, kind):
        return kind(value)
    else:
        expected = _TYPE_WORDS[kind][0]
    raise ValueError(f"config file {path}: key {key!r} must be {expected}, got {value!r}")


def _experiment_config(kind: str, args: argparse.Namespace) -> experiments.ExperimentConfig:
    file_values = {}
    if args.config is not None:
        with open(args.config, encoding="utf-8") as fh:
            file_values = json.load(fh)
        if not isinstance(file_values, dict):
            raise ValueError(f"config file {args.config} must hold a JSON object")
        unknown = sorted(set(file_values) - set(_CONFIG_KEYS))
        if unknown:
            raise ValueError(f"config file {args.config} has unknown keys "
                             f"{', '.join(unknown)}; known keys: {', '.join(_CONFIG_KEYS)}")
        file_values = {key: _file_value(args.config, key, value)
                       for key, value in file_values.items() if value is not None}
    # an explicit flag beats the file, which beats the defaults
    fields = {"replicates": 10_000, "seed": 0, **_DEFAULTS[kind]}
    for key, (field, _) in _CONFIG_KEYS.items():
        value = getattr(args, key)
        if value is None:
            value = file_values.get(key)
        if value is not None:
            fields[field] = value
    return experiments.ExperimentConfig(kind=kind, **fields)


def _write(text: str, out: str | None) -> None:
    if out is None:
        sys.stdout.write(text)
    else:
        with open(out, "w", encoding="utf-8", newline="") as fh:
            fh.write(text)


def _cmd_constants(args: argparse.Namespace) -> int:
    rows = constants.constants_table(args.q)
    _write(experiments.table_text(rows, args.format,
                                  f"constants q={','.join(map(str, args.q))}"), args.out)
    return 0


def _cmd_sample(args: argparse.Namespace) -> int:
    if args.count < 1:
        raise ValueError(f"--count must be >= 1, got {args.count}")
    stream = RandomStream(args.seed)
    if args.kind == "exponential":
        matrix = sampling.exponential_block(stream, args.count, args.n)
    elif args.kind in ("simplex", "spacings"):
        construction = "exponential" if args.kind == "simplex" else "spacings"
        matrix = sampling.simplex_block(stream, args.count, args.n, not args.uncentered,
                                        construction)
    elif args.kind == "pgen":
        matrix = sampling.pgen_gaussian_block(stream, args.count, args.n, args.p)
    else:
        matrix = sampling.lp_ball_block(stream, args.count, args.n, args.p)
    rows = [{f"x{j + 1}": float(v) for j, v in enumerate(row)} for row in matrix]
    _write(experiments.table_text(rows, args.format,
                                  f"sample kind={args.kind} n={args.n} seed={args.seed}"),
           args.out)
    return 0


def _cmd_oracle(args: argparse.Namespace) -> int:
    if args.op in ("max-spacing-cdf", "max-spacing-sf"):
        if args.s is None:
            raise ValueError(f"{args.op} requires --s")
        fn = oracle.max_spacing_cdf if args.op == "max-spacing-cdf" else oracle.max_spacing_sf
        res = fn(args.n, args.s)
        row = {"op": args.op, "n": args.n, "s": args.s, "value": res.value,
               "method": res.method, "error_bound": res.error_bound}
    else:
        if args.q is None or args.t is None:
            raise ValueError("small-n-norm-cdf requires --q and --t")
        res = oracle.small_n_norm_cdf(args.n, args.q, args.t)
        row = {"op": args.op, "n": args.n, "q": args.q, "t": args.t, "value": res.value,
               "method": res.method, "error_bound": res.error_bound}
    _write(experiments.table_text([row], args.format, f"oracle {args.op}"), args.out)
    return 0


def _cmd_report(args: argparse.Namespace) -> int:
    with open(args.infile, encoding="utf-8") as fh:
        report = experiments.report_from_json(fh.read())
    _write(report.to_csv() if args.format == "csv" else report.to_json(), args.out)
    return 0




def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        if args.command == "constants":
            return _cmd_constants(args)
        if args.command == "sample":
            return _cmd_sample(args)
        if args.command == "oracle":
            return _cmd_oracle(args)
        if args.command == "report":
            return _cmd_report(args)
        kind = _COMMAND_KINDS[args.command]
        if isinstance(kind, dict):
            kind = kind[args.law]
        config = _experiment_config(kind, args)
        report = experiments.run(config)
        _write(report.to_csv() if args.format == "csv" else report.to_json(), args.out)
        print(f"{kind}: {sum(r.passed for r in report.rows)}/{len(report.rows)} rows passed "
              f"in {report.wall_time:.1f}s", file=sys.stderr)
        return 0
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (RuntimeError, ArithmeticError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
