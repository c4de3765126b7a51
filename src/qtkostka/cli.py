"""Command-line entry point exposing all computations.

Exit codes: 0 success, 1 domain error, 2 internal-consistency error,
64 usage error (bad arguments, or a cache directory or output path that
cannot be used).  JSON output is deterministic for fixed inputs.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from contextlib import nullcontext

from .errors import ConsistencyError, DomainError
from .haglund import check_pair, scan
from .macdonald import MATRIX_FIELDS, atomic_writer, k_coeff, read_matrix
from .partitions import Partition, partition
from .reductions import decompose_irreducible, f_stat, f_stat_closed

_ALL_FORMATS = ("json", "latex", "pretty")


class _Parser(argparse.ArgumentParser):
    def error(self, message: str):
        self.print_usage(sys.stderr)
        self.exit(64, f"{self.prog}: error: {message}\n")


def _partition_arg(text: str) -> Partition:
    try:
        if not text.strip():
            return ()
        return partition(int(p) for p in text.split(","))
    except (ValueError, DomainError) as exc:
        raise argparse.ArgumentTypeError(str(exc)) from exc


def _emit_json(obj) -> None:
    sys.stdout.write(json.dumps(obj, indent=2, sort_keys=True) + "\n")


def _cache_dir(args) -> str | None:
    if args.cache_dir is not None:
        return args.cache_dir
    return os.environ.get("QTKOSTKA_CACHE_DIR", "cache")


def oracle_verify_degree(n: int) -> dict:
    """Pass/fail results for one degree of the oracle cross-check."""
    # imported here, not at the top: perfbench's tracer looks up
    # oracle.SymFuncInBasis, which the oracle no longer defines, on any
    # loaded oracle module, so an eager import would break traced runs
    # of every command
    from .oracle import (
        check_k1_match,
        check_pairing_normalization,
        check_Qn_plethysm,
        orthogonality_audit,
    )

    return {
        "n": n,
        "k1_match": check_k1_match(n),
        "orthogonality": orthogonality_audit(n),
        "normalization": check_pairing_normalization(n),
        "qn_plethysm": check_Qn_plethysm(n),
    }


def _cmd_kcoeff(args) -> int:
    value = k_coeff(args.lam, args.mu)
    if args.format == "latex":
        sys.stdout.write(value.latex() + "\n")
    elif args.format == "pretty":
        sys.stdout.write(f"k({list(args.lam)}, {list(args.mu)}) = {value}\n")
    else:
        _emit_json(
            {"lambda": list(args.lam), "mu": list(args.mu), "k": value.to_obj()}
        )
    return 0


def _cmd_matrix(args) -> int:
    mat = read_matrix(args.n, args.which, _cache_dir(args))
    if args.format == "latex":
        sys.stdout.write(mat.latex() + "\n")
    elif args.format == "pretty":
        for lam, row in zip(mat.index, mat.entries):
            rendered = ", ".join(str(e) for e in row)
            sys.stdout.write(f"{list(lam)}: [{rendered}]\n")
    else:
        _emit_json(mat.to_obj(args.which))
    return 0


def _cmd_reduce(args) -> int:
    tree = decompose_irreducible(args.lam, args.mu)
    tags = tree.leaf_classes()
    if args.format == "pretty":
        sys.stdout.write(tree.ascii_art() + "\n")
        for (lam, mu), cls in tags.items():
            sys.stdout.write(f"leaf {list(lam)} / {list(mu)}: {cls.tag}\n")
    else:
        obj = tree.to_obj()
        obj["leaf_classes"] = [
            {
                "lambda": list(lam),
                "mu": list(mu),
                "tag": cls.tag,
                "m": cls.m,
                "n": cls.n,
            }
            for (lam, mu), cls in tags.items()
        ]
        _emit_json(obj)
    return 0


def _cmd_haglund(args) -> int:
    verdict = check_pair(args.lam, args.mu, args.k)
    if args.format == "pretty":
        sys.stdout.write(
            f"lambda={list(verdict.lam)} mu={list(verdict.mu)} k={verdict.k}\n"
            f"quotient = {verdict.quotient}\n"
            f"nonnegative: {verdict.is_nonnegative}  "
            f"coverage: {verdict.coverage}  route: {verdict.route}\n"
        )
    else:
        _emit_json(verdict.to_obj())
    return 0


def _cmd_scan(args) -> int:
    # opening --out first makes an unusable path fail before the scan,
    # and a failed scan leaves an existing report in place
    out = atomic_writer(args.out) if args.out else nullcontext(sys.stdout)
    with out as fh:
        report = scan(args.max_n, args.max_k, jobs=args.jobs)
        json.dump(report.to_obj(), fh, indent=2, sort_keys=True)
        fh.write("\n")
    if args.out:
        _emit_json({"out": args.out, "summary": report.summary()})
    return 0 if not report.violations else 2


def _cmd_oracle_verify(args) -> int:
    if args.max_n < 1:
        raise DomainError(f"--max-n must be at least 1, got {args.max_n}")
    results = [oracle_verify_degree(n) for n in range(1, args.max_n + 1)]
    ok = all(
        all(v for key, v in r.items() if key != "n") for r in results
    )
    if args.format == "json":
        _emit_json({"degrees": results, "all_passed": ok})
    else:
        for r in results:
            line = f"n={r['n']}:"
            for key in ("k1_match", "orthogonality", "normalization", "qn_plethysm"):
                line += f" {key}={'PASS' if r[key] else 'FAIL'}"
            sys.stdout.write(line + "\n")
        sys.stdout.write(("all degrees PASS" if ok else "FAILURES found") + "\n")
    return 0 if ok else 2


def _cmd_fstat(args) -> int:
    direct = f_stat(args.mu)
    closed = f_stat_closed(args.mu)
    if direct != closed:
        raise ConsistencyError(f"f closed form mismatch for {args.mu}")
    if args.format == "latex":
        sys.stdout.write(direct.latex() + "\n")
    elif args.format == "pretty":
        sys.stdout.write(f"f({list(args.mu)}) = {direct}\n")
    else:
        _emit_json({"mu": list(args.mu), "f": direct.to_obj()})
    return 0


def _add_common_flags(parser: argparse.ArgumentParser, top: bool) -> None:
    # on subparsers the defaults are suppressed so a flag given before
    # the subcommand is not clobbered by the subparser's default
    kw = {} if top else {"default": argparse.SUPPRESS}
    parser.add_argument(
        "--format",
        choices=_ALL_FORMATS,
        help="output format (default json); not every command renders all",
        **({"default": "json"} if top else kw),
    )
    parser.add_argument(
        "--cache-dir",
        help="matrix cache directory (default $QTKOSTKA_CACHE_DIR or ./cache)",
        **({"default": None} if top else kw),
    )
    parser.add_argument(
        "--jobs",
        type=int,
        help="worker processes for scans; 0 means all cores",
        **({"default": 1} if top else kw),
    )


def _build_parser() -> _Parser:
    parser = _Parser(prog="qtkostka", description=__doc__)
    _add_common_flags(parser, top=True)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("kcoeff", help="integral-form coefficient k(lambda, mu)")
    p.add_argument("--lambda", dest="lam", type=_partition_arg, required=True)
    p.add_argument("--mu", type=_partition_arg, required=True)
    p.set_defaults(fn=_cmd_kcoeff, formats=_ALL_FORMATS)

    p = sub.add_parser("matrix", help="emit a transition matrix for degree n")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--which", choices=tuple(MATRIX_FIELDS), required=True)
    p.set_defaults(fn=_cmd_matrix, formats=_ALL_FORMATS)

    p = sub.add_parser("reduce", help="decomposition tree of a pair")
    p.add_argument("--lambda", dest="lam", type=_partition_arg, required=True)
    p.add_argument("--mu", type=_partition_arg, required=True)
    p.set_defaults(fn=_cmd_reduce, formats=("json", "pretty"))

    p = sub.add_parser("haglund", help="dual Haglund verdict for one pair")
    p.add_argument("--lambda", dest="lam", type=_partition_arg, required=True)
    p.add_argument("--mu", type=_partition_arg, required=True)
    p.add_argument("--k", type=int, required=True)
    p.set_defaults(fn=_cmd_haglund, formats=("json", "pretty"))

    p = sub.add_parser("scan", help="batch positivity scan")
    p.add_argument("--max-n", type=int, required=True)
    p.add_argument("--max-k", type=int, required=True)
    p.add_argument("--out", default=None, help="write the report to a file")
    p.set_defaults(fn=_cmd_scan, formats=("json",))

    p = sub.add_parser("oracle-verify", help="exact certificate that K1 is Macdonald P")
    p.add_argument("--max-n", type=int, required=True)
    p.set_defaults(fn=_cmd_oracle_verify, formats=("json", "pretty"))

    p = sub.add_parser("fstat", help="the arm/leg generating statistic f_mu")
    p.add_argument("--mu", type=_partition_arg, required=True)
    p.set_defaults(fn=_cmd_fstat, formats=_ALL_FORMATS)

    for action in sub.choices.values():
        _add_common_flags(action, top=False)
    return parser


def dispatch(argv: list[str]) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    if args.format not in args.formats:
        parser.error(
            f"{args.command} renders --format {' or '.join(args.formats)}, "
            f"not {args.format}"
        )
    try:
        return args.fn(args)
    except DomainError as exc:
        sys.stderr.write(f"domain error: {exc}\n")
        return 1
    except ConsistencyError as exc:
        sys.stderr.write(f"internal consistency error: {exc}\n")
        return 2
    except OSError as exc:
        # an unusable --cache-dir or --out path is a usage error
        where = f"{exc.filename}: " if exc.filename is not None else ""
        sys.stderr.write(f"{parser.prog}: error: {where}{exc.strerror or exc}\n")
        return 64


def main() -> None:
    sys.exit(dispatch(sys.argv[1:]))


if __name__ == "__main__":
    main()
