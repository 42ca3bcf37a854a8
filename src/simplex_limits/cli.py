"""Command-line front end.

One subcommand per experiment plus ad-hoc ``constants``, ``sample`` and
``oracle`` queries and a ``report`` format converter.  All numeric flags are
validated, and an experiment's dimension maps, speeds and exact oracle rows
computed, before any sampling starts; a run with a fixed (seed, config)
writes byte-identical output regardless of ``--workers``.

Exit codes: 0 success, 1 numerical/runtime failure (a failed ``--out``
write among them), 2 usage error (an input file that cannot be read among
them).
"""

from __future__ import annotations

import argparse
import json
import sys

from . import constants, experiments, oracle, sampling
from .rng import RandomStream


def _comma_list(kind: type, words: str):
    """An argparse type that reads a comma list of ``kind`` values as a tuple."""

    def parse(text: str) -> tuple:
        try:
            return tuple(kind(tok) for tok in text.split(",") if tok)
        except ValueError as exc:
            raise argparse.ArgumentTypeError(
                f"expected a comma list of {words}, got {text!r}") from exc

    return parse


_int_list = _comma_list(int, "integers")
_float_list = _comma_list(float, "numbers")

#: experiment flag, which is also its ``--config`` key -> (ExperimentConfig
#: field, ``add_argument`` options), in the order ``--help`` lists them
_FLAGS = {
    "n": ("n_list", dict(type=_int_list, help="comma list of dimensions")),
    "q": ("q", dict(type=float, help="norm / moment order q >= 1")),
    "p": ("p", dict(type=float, help=f"ball exponent 1 <= p <= {sampling._P_MAX:.2f}")),
    "replicates": ("replicates", dict(type=int)),
    "seed": ("seed", dict(type=int)),
    "workers": ("workers", dict(type=int)),
    "z": ("thresholds", dict(type=_float_list, help="comma list of thresholds")),
    "sn": ("s_n_rule", dict(choices=tuple(experiments.S_N_RULES),
                            help="moderate-deviation speed rule")),
    "oracle_n": ("oracle_n_list", dict(type=_int_list, help="dimensions for exact oracle rows")),
    "source": ("source", dict(choices=sorted(experiments.SOURCE_DISTRIBUTIONS),
                              help="source distribution (general-clt)")),
}

#: experiment subcommand -> (kind, defaults), or {--law value: (kind, defaults)};
#: the defaults fill what neither a flag nor the config file sets, over
#: replicates=10_000, seed=0 and the ExperimentConfig field defaults
_EXPERIMENTS = {
    "clt": ("clt", dict(n_list=(100, 10_000), q=2.0)),
    "berry-esseen": ("berry_esseen_sweep", dict(n_list=(100, 1_000, 10_000), q=2.0)),
    "gumbel": ("gumbel", dict(n_list=(10_000,), oracle_n_list=(1_000_000,))),
    "ldp": ("ldp", dict(n_list=(1_000,), replicates=100_000, thresholds=(1.5,),
                        oracle_n_list=(10_000, 100_000, 1_000_000))),
    "mdp": ("mdp", dict(n_list=(), replicates=1, thresholds=(1.0,), oracle_n_list=(1_000_000,))),
    "lpball": {"ldp": ("lp_ldp", dict(n_list=(1_000,), p=2.0, replicates=100_000,
                                      thresholds=(1.3,))),
               "gumbel": ("lp_gumbel", dict(n_list=(10_000,), p=1.0))},
    "equivalence": ("equivalence_decay", dict(n_list=(5, 10, 20, 50, 100), replicates=100_000)),
    "general-clt": ("general_clt", dict(n_list=(10_000,), q=2.0)),
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
    sc.set_defaults(handler=_cmd_constants)

    ss = subs.add_parser("sample", help="draw points from one of the samplers")
    ss.add_argument("--kind", choices=("exponential", "simplex", "spacings", "pgen", "ball"),
                    required=True)
    ss.add_argument("--n", type=int, required=True)
    ss.add_argument("--count", type=int, default=1)
    ss.add_argument("--p", type=float, default=2.0)
    ss.add_argument("--uncentered", action="store_true")
    ss.add_argument("--seed", type=int, default=0)
    ss.set_defaults(handler=_cmd_sample)

    so = subs.add_parser("oracle", help="ad-hoc exact oracle queries")
    so.add_argument("--op", choices=("max-spacing-cdf", "max-spacing-sf", "small-n-norm-cdf"),
                    required=True)
    so.add_argument("--n", type=int, required=True)
    so.add_argument("--s", type=float, default=None, help="spacing threshold in (0,1)")
    so.add_argument("--q", type=float, default=None, help="norm order (small-n-norm-cdf)")
    so.add_argument("--t", type=float, default=None, help="norm threshold (small-n-norm-cdf)")
    so.set_defaults(handler=_cmd_oracle)

    for name, entry in _EXPERIMENTS.items():
        sub = subs.add_parser(name, help=f"run the {name} experiment")
        if isinstance(entry, dict):
            sub.add_argument("--law", choices=tuple(entry), default="ldp")
        for key, (_, options) in _FLAGS.items():
            sub.add_argument("--" + key.replace("_", "-"), **options)
        sub.add_argument("--config", default=None,
                         help="JSON file with the same fields; explicit flags win")
        sub.set_defaults(handler=_cmd_experiment, entry=entry)

    sr = subs.add_parser("report", help="re-emit a saved JSON report")
    sr.add_argument("--in", dest="infile", required=True, help="JSON report path")
    sr.set_defaults(handler=_cmd_report)
    for sub in subs.choices.values():  # every subcommand writes one table
        sub.add_argument("--format", choices=("csv", "json"), default="csv")
        sub.add_argument("--out", default=None, help="output path (default: stdout)")
    return parser


def _read_input(path: str, flag: str) -> str:
    """The text of the input file ``flag`` names; one that cannot be read is a
    usage error."""
    try:
        with open(path, encoding="utf-8") as fh:
            return fh.read()
    except OSError as exc:
        raise ValueError(f"{flag} {path}: {exc.strerror or exc}") from exc


def _experiment_config(kind: str, defaults: dict,
                       args: argparse.Namespace) -> experiments.ExperimentConfig:
    file_values = {}
    if args.config is not None:
        what = f"config file {args.config}"
        file_values = json.loads(_read_input(args.config, "--config"))
        experiments._require_keys(file_values, (), what, known=_FLAGS)
        file_values = {field: experiments.json_value(
            experiments._FIELD_TYPES[field], file_values[key], f"{what}: key {key!r}")
            for key, (field, _) in _FLAGS.items() if file_values.get(key) is not None}
    # an explicit flag beats the file, which beats the defaults
    flags = {field: getattr(args, key) for key, (field, _) in _FLAGS.items()
             if getattr(args, key) is not None}
    return experiments.ExperimentConfig(
        kind=kind, **{"replicates": 10_000, "seed": 0, **defaults, **file_values, **flags})


# Each handler returns the text to write and a status line for stderr, or None.


def _cmd_constants(args: argparse.Namespace) -> tuple[str, str | None]:
    if not args.q:
        raise ValueError("--q needs at least one value")
    rows = constants.constants_table(args.q)
    return experiments.table_text(rows, args.format,
                                  f"constants q={','.join(map(str, args.q))}"), None


def _cmd_sample(args: argparse.Namespace) -> tuple[str, str | None]:
    if args.count < 1:
        raise ValueError(f"--count must be >= 1, got {args.count}")
    stream = RandomStream(args.seed)
    if args.kind == "exponential":
        matrix = sampling.exponential_block(stream, args.count, args.n)
    elif args.kind == "simplex":
        matrix = sampling.simplex_block(stream, args.count, args.n, not args.uncentered)
    elif args.kind == "spacings":
        matrix = sampling.spacings_block(stream, args.count, args.n)
        if not args.uncentered:
            matrix -= 1.0 / args.n
    elif args.kind == "pgen":
        matrix = sampling.pgen_gaussian_block(stream, args.count, args.n, args.p)
    else:
        matrix = sampling.lp_ball_block(stream, args.count, args.n, args.p)
    rows = [{f"x{j + 1}": float(v) for j, v in enumerate(row)} for row in matrix]
    return experiments.table_text(
        rows, args.format, f"sample kind={args.kind} n={args.n} seed={args.seed}"), None


def _cmd_oracle(args: argparse.Namespace) -> tuple[str, str | None]:
    if args.op == "small-n-norm-cdf":
        if args.q is None or args.t is None:
            raise ValueError("small-n-norm-cdf requires --q and --t")
        res, inputs = oracle.small_n_norm_cdf(args.n, args.q, args.t), {"q": args.q, "t": args.t}
    else:
        if args.s is None:
            raise ValueError(f"{args.op} requires --s")
        fn = oracle.max_spacing_cdf if args.op == "max-spacing-cdf" else oracle.max_spacing_sf
        res, inputs = fn(args.n, args.s), {"s": args.s}
    row = {"op": args.op, "n": args.n, **inputs, "value": res.value, "method": res.method,
           "error_bound": res.error_bound}
    return experiments.table_text([row], args.format, f"oracle {args.op}"), None


def _report_text(report: experiments.ExperimentReport, fmt: str) -> str:
    return report.to_csv() if fmt == "csv" else report.to_json()


def _cmd_report(args: argparse.Namespace) -> tuple[str, str | None]:
    report = experiments.report_from_json(_read_input(args.infile, "--in"))
    return _report_text(report, args.format), None


def _cmd_experiment(args: argparse.Namespace) -> tuple[str, str | None]:
    kind, defaults = args.entry[args.law] if isinstance(args.entry, dict) else args.entry
    report = experiments.run(_experiment_config(kind, defaults, args))
    return _report_text(report, args.format), (
        f"{kind}: {sum(r.passed for r in report.rows)}/{len(report.rows)} rows passed "
        f"in {report.wall_time:.1f}s")


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        text, status = args.handler(args)
        if args.out is None:
            sys.stdout.write(text)
        else:
            with open(args.out, "w", encoding="utf-8", newline="") as fh:
                fh.write(text)
        if status is not None:
            print(status, file=sys.stderr)
        return 0
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (RuntimeError, ArithmeticError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
