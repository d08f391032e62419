"""Command-line interface.

Subcommands map one-to-one onto the library: ``check`` (exact oracle
verdict), ``classify`` (rule triple), ``polytope`` (planar cell
geometry), ``dyadic`` (grid search), ``enumerate`` (census sweep), and
``count-coprime`` (closed-form census).  Exit codes: 0 success, 1
invalid input, 2 internal error.

All data goes to stdout and is byte-identical across runs on the same
input; timing diagnostics go to stderr.  ``--json`` switches any
subcommand from key: value lines to a single JSON document.
"""

from __future__ import annotations

import argparse
import json
import sys
from fractions import Fraction

from . import dyadic as dyadic_mod
from . import enumeration, model, oracle, polyhedron
from .classify import classify as run_classify
from .exact_arith import format_rational
from .model import SpeedVector

__all__ = ["main", "run"]


class _Parser(argparse.ArgumentParser):
    """argparse exits with 2 on bad usage; this CLI reserves 2 for bugs."""

    def error(self, message: str) -> None:
        self.print_usage(sys.stderr)
        self.exit(1, f"{self.prog}: error: {message}\n")


def _build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="lonely-runner", description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", required=True)

    def vector_command(name: str, help_text: str) -> argparse.ArgumentParser:
        p = sub.add_parser(name, help=help_text)
        p.add_argument("speeds", type=int, nargs="+", help="integer speeds, any order")
        p.add_argument("--normalize", action="store_true", help="divide speeds by their gcd first")
        p.add_argument("--json", action="store_true", help="emit one JSON document")
        return p

    vector_command("check", "exact oracle verdict and witnesses")

    p = vector_command("classify", "sufficient-condition rule triple")
    p.add_argument("--with-oracle", action="store_true", help="also run the exact oracle")

    vector_command("polytope", "half-planes, vertices, landmarks, widths of the planar cell Q")

    vector_command("dyadic", "minimal suitable time on the dyadic grid")

    p = sub.add_parser("enumerate", help="census sweep over all subsets of {1..N}")
    p.add_argument("max_speed", type=int, metavar="N")
    p.add_argument("--require-coprime", action="store_true", help="classify only coprime vectors")
    p.add_argument("--with-oracle", action="store_true", help="run the exact oracle per vector")
    p.add_argument("--with-dyadic", action="store_true", help="run the dyadic search per vector")
    p.add_argument("--shards", type=int, default=1, metavar="S", help="number of contiguous shards")
    p.add_argument("--out", metavar="FILE", help="also write per-vector records to FILE")
    p.add_argument("--format", choices=("csv", "json"), default="csv", help="format for --out")
    p.add_argument("--json", action="store_true", help="emit the summary as JSON")

    p = sub.add_parser("count-coprime", help="closed-form count of coprime subsets of {1..N}")
    p.add_argument("max_speed", type=int, metavar="N")
    p.add_argument("--json", action="store_true", help="emit one JSON document")

    return parser


def _vector_from_args(args: argparse.Namespace) -> SpeedVector:
    if args.normalize:
        return model.normalize(args.speeds)
    # Canonical input form: descending, duplicates collapsed; the gcd is
    # divided out only under --normalize.
    return model.new_speed_vector(sorted(set(args.speeds), reverse=True))


def _fmt(value: Fraction | None) -> str:
    return "none" if value is None else format_rational(value)


def _emit(lines: list[str]) -> None:
    sys.stdout.write("\n".join(lines) + "\n")


def _emit_json(obj: dict) -> None:
    sys.stdout.write(json.dumps(obj) + "\n")


def _cmd_check(args: argparse.Namespace) -> int:
    n = _vector_from_args(args)
    times = oracle.suitable_set(n)
    instance = not times.is_empty
    earliest = times.earliest()
    witness_point = None if earliest is None else oracle.lattice_witness_from_time(n, earliest)
    half = oracle._checked_half_period(n, earliest)
    if args.json:
        _emit_json(
            {
                "vector": list(n.speeds),
                "instance": instance,
                "earliest_time": None if earliest is None else format_rational(earliest),
                "half_period_witness": None if half is None else format_rational(half),
                "lattice_witness": None if witness_point is None else list(witness_point),
                "suitable_set": times.to_json(),
            }
        )
    else:
        _emit(
            [
                f"vector: {n}",
                f"instance: {str(instance).lower()}",
                f"earliest_time: {_fmt(earliest)}",
                f"half_period_witness: {_fmt(half)}",
                "lattice_witness: "
                + ("none" if witness_point is None else "(" + ",".join(map(str, witness_point)) + ")"),
                "suitable_set: "
                + " ".join(f"[{format_rational(iv.lo)}, {format_rational(iv.hi)}]" for iv in times.intervals),
            ]
        )
    return 0


def _cmd_classify(args: argparse.Namespace) -> int:
    n = _vector_from_args(args)
    report = run_classify(n, with_oracle=args.with_oracle)
    if args.json:
        _emit_json(report.to_json_obj())
    else:
        verdict = "none" if report.oracle_verdict is None else str(report.oracle_verdict).lower()
        _emit(
            [
                f"vector: {n}",
                f"thm1: {str(report.thm1).lower()}",
                f"thm2: {str(report.thm2).lower()}",
                f"slow_fast: {str(report.slow_fast).lower()}",
                f"any_rule: {str(report.any_rule).lower()}",
                f"witness_time: {_fmt(report.witness_time)}",
                "witness_point: "
                + ("none" if report.witness_point is None else "(" + ",".join(map(str, report.witness_point)) + ")"),
                f"oracle_verdict: {verdict}",
            ]
        )
    return 0


def _cmd_polytope(args: argparse.Namespace) -> int:
    n = _vector_from_args(args)
    geom = polyhedron.q_geometry(n)
    widths = polyhedron.lemma_widths(n)
    lm = geom.landmarks
    if args.json:
        _emit_json(
            {
                "vector": list(n.speeds),
                "halfplanes": [
                    {"a1": format_rational(h.a1), "a2": format_rational(h.a2), "b": format_rational(h.b)}
                    for h in geom.halfplanes
                ],
                "vertices": [[format_rational(x1), format_rational(x2)] for x1, x2 in geom.vertices],
                "landmarks": {
                    "alpha": format_rational(lm.alpha),
                    "beta": format_rational(lm.beta),
                    "gamma": format_rational(lm.gamma),
                    "delta": format_rational(lm.delta),
                    "zeta": format_rational(lm.zeta),
                    "kappa": format_rational(lm.kappa),
                },
                "lemma_widths": {
                    "wq_e1": None if widths.wq_e1 is None else format_rational(widths.wq_e1),
                    "wq_e2": None if widths.wq_e2 is None else format_rational(widths.wq_e2),
                    "wq2_e2": None if widths.wq2_e2 is None else format_rational(widths.wq2_e2),
                    "wq5_e2": None if widths.wq5_e2 is None else format_rational(widths.wq5_e2),
                },
            }
        )
    else:
        lines = [f"vector: {n}"]
        for h in geom.halfplanes:
            lines.append(
                f"halfplane: {format_rational(h.a1)}*x1 + {format_rational(h.a2)}*x2 <= {format_rational(h.b)}"
            )
        lines.append(
            "vertices: " + " ".join(f"({format_rational(x1)}, {format_rational(x2)})" for x1, x2 in geom.vertices)
        )
        lines.append(
            "landmarks: "
            + " ".join(
                f"{name}={format_rational(value)}"
                for name, value in [
                    ("alpha", lm.alpha),
                    ("beta", lm.beta),
                    ("gamma", lm.gamma),
                    ("delta", lm.delta),
                    ("zeta", lm.zeta),
                    ("kappa", lm.kappa),
                ]
            )
        )
        lines.append(f"wq_e1: {_fmt(widths.wq_e1)}")
        lines.append(f"wq_e2: {_fmt(widths.wq_e2)}")
        lines.append(f"wq2_e2: {_fmt(widths.wq2_e2)}")
        lines.append(f"wq5_e2: {_fmt(widths.wq5_e2)}")
        _emit(lines)
    return 0


def _cmd_dyadic(args: argparse.Namespace) -> int:
    n = _vector_from_args(args)
    witness = dyadic_mod.find_dyadic_time(n)
    exponent = dyadic_mod.dyadic_exponent(n)
    denominator = dyadic_mod.dyadic_denominator(n)
    if args.json:
        _emit_json(
            {
                "vector": list(n.speeds),
                "exponent": exponent,
                "denominator": denominator,
                "m": None if witness is None else witness.m,
                "time": None if witness is None else format_rational(witness.time),
            }
        )
    else:
        _emit(
            [
                f"vector: {n}",
                f"exponent: {exponent}",
                f"denominator: {denominator}",
                f"m: {'none' if witness is None else witness.m}",
                f"time: {'none' if witness is None else format_rational(witness.time)}",
            ]
        )
    return 0


def _cmd_enumerate(args: argparse.Namespace) -> int:
    options = {
        "require_coprime": args.require_coprime,
        "with_oracle": args.with_oracle,
        "with_dyadic": args.with_dyadic,
        "shard_count": args.shards,
    }
    if args.out:
        summary = enumeration._sweep_export(args.max_speed, args.format, args.out, **options)
    else:
        summary = enumeration.sweep(args.max_speed, **options)
    obj = summary.to_json_obj(include_elapsed=False)
    if args.json:
        _emit_json(obj)
    else:
        _emit([f"{key}: {'none' if value is None else value}" for key, value in obj.items()])
    print(f"elapsed_ms={summary.elapsed}", file=sys.stderr)
    return 0


def _cmd_count_coprime(args: argparse.Namespace) -> int:
    count = enumeration.coprime_count_moebius(args.max_speed)
    if args.json:
        _emit_json(
            {
                "max_speed": args.max_speed,
                "total_vectors": (1 << args.max_speed) - 1,
                "coprime_vectors": count,
            }
        )
    else:
        _emit([str(count)])
    return 0


_COMMANDS = {
    "check": _cmd_check,
    "classify": _cmd_classify,
    "polytope": _cmd_polytope,
    "dyadic": _cmd_dyadic,
    "enumerate": _cmd_enumerate,
    "count-coprime": _cmd_count_coprime,
}


def main(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        # argparse exits on usage errors (1, via _Parser) and --help (0);
        # surface both as return codes so main stays a plain function.
        return exc.code if isinstance(exc.code, int) else 1
    try:
        return _COMMANDS[args.command](args)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except BrokenPipeError:
        return 0
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except Exception as exc:  # pragma: no cover - reserved for bugs
        print(f"internal error: {exc}", file=sys.stderr)
        return 2


def run() -> None:
    raise SystemExit(main())
