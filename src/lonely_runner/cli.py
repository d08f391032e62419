"""Command-line interface.

Subcommands map one-to-one onto the library: ``check`` (exact oracle
verdict), ``classify`` (rule triple), ``polytope`` (planar cell
geometry), ``dyadic`` (grid search), ``enumerate`` (census sweep), and
``count-coprime`` (closed-form census).  Exit codes: 0 success, 1
invalid input or bad usage, 2 an output file that cannot be written, or
an internal error.

All data goes to stdout and is byte-identical across runs on the same
input; timing diagnostics go to stderr.  Each subcommand returns one
dict of library values (fractions, speed vectors, tuples), and
:func:`main` alone prints it, once, and sets the exit code: ``--json``
as a single JSON document, otherwise as key: value lines (or the
command's own lines) rendered from the same values, so the two forms
cannot drift apart.  ``check``'s suitable set is the one lazy value:
both forms write it interval by interval as the oracle yields it.
"""

from __future__ import annotations

import argparse
import functools
import json
import sys
import time
from collections.abc import Callable, Iterator
from fractions import Fraction
from itertools import chain

from . import dyadic, enumeration, model, oracle, polyhedron
from .classify import classify as run_classify
from .model import SpeedVector

__all__ = ["main"]


@functools.cache  # parse_args leaves the parser as it was, so one serves every call
def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="lonely-runner", description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", required=True)

    def vector_command(name: str, help_text: str, run: Callable) -> argparse.ArgumentParser:
        p = sub.add_parser(name, help=help_text)
        p.set_defaults(run=lambda args: run(_vector_from_args(args), args))
        p.add_argument("speeds", type=int, nargs="+", help="integer speeds, any order")
        p.add_argument("--normalize", action="store_true", help="divide speeds by their gcd first")
        p.add_argument("--json", action="store_true", help="emit one JSON document")
        return p

    vector_command("check", "exact oracle verdict and witnesses", _cmd_check)

    p = vector_command("classify", "sufficient-condition rule triple", _cmd_classify)
    p.add_argument("--with-oracle", action="store_true", help="also run the exact oracle")

    vector_command("polytope", "half-planes, vertices, landmarks, widths of the planar cell Q", _cmd_polytope)

    vector_command("dyadic", "minimal suitable time on the dyadic grid", _cmd_dyadic)

    p = sub.add_parser("enumerate", help="census sweep over all subsets of {1..N}")
    p.set_defaults(run=_cmd_enumerate)
    p.add_argument("max_speed", type=int, metavar="N")
    p.add_argument("--require-coprime", action="store_true", help="classify only coprime vectors")
    p.add_argument("--with-oracle", action="store_true", help="run the exact oracle per vector")
    p.add_argument("--with-dyadic", action="store_true", help="run the dyadic search per vector")
    p.add_argument("--out", metavar="FILE", help="also write per-vector records to FILE")
    p.add_argument("--format", choices=("csv", "json"), default="csv", help="format for --out")
    p.add_argument("--json", action="store_true", help="emit the summary as JSON")

    p = sub.add_parser("count-coprime", help="closed-form count of coprime subsets of {1..N}")
    p.set_defaults(run=_cmd_count_coprime)
    p.add_argument("max_speed", type=int, metavar="N")
    p.add_argument("--json", action="store_true", help="emit one JSON document")

    return parser


# Python prints no int of more than 4300 digits.  The largest integers a
# command prints are the widths and vertices of Q in ``polytope``, products
# of three speeds and small multiples of k + 1, so 3 * 1400 digits leave room.
_MAX_SPEED_DIGITS = 1400
_SPEED_LIMIT = 10**_MAX_SPEED_DIGITS


def _vector_from_args(args: argparse.Namespace) -> SpeedVector:
    # Canonical input form: descending, duplicates collapsed; the gcd is
    # divided out only under --normalize, after the speeds are validated.
    n = SpeedVector(set(args.speeds))
    if args.normalize:
        n = model.normalize(n)
    if n[0] >= _SPEED_LIMIT:
        raise ValueError(f"speeds must have at most {_MAX_SPEED_DIGITS} digits, got {len(str(n[0]))}")
    return n


def _plain(value: object) -> object:
    """``json.dumps`` default for the library values in an output dict: a Fraction as its text.

    ``json.dumps`` writes every tuple as a list and never calls this for
    one, so a command turns a record into a dict itself.
    """
    if isinstance(value, Fraction):
        return _text(value)
    raise TypeError(f"cannot serialize {type(value).__name__}")


def _text(value: object) -> str:
    """Text form of one value of an output dict."""
    if value is None:
        return "none"
    if isinstance(value, bool):
        return str(value).lower()
    if isinstance(value, Fraction):
        # Reduced, with a positive denominator and n/1 for an integer, so Fraction reads each back.
        return f"{value.numerator}/{value.denominator}"
    if isinstance(value, tuple):
        return "(" + ",".join(map(_text, value)) + ")"
    return str(value)


# Per form, text and then JSON: the lead before the first key, the separator before each later one, the end,
# the key and value writers, and an interval list's open, item, separator and close.
_FORMS = (
    ("", "\n", "\n", str, _text, ("", "[%d/%d, %d/%d]", " ", "")),
    ("{", ", ", "}\n", json.dumps, functools.partial(json.dumps, default=_plain),
     ("[", '["%d/%d", "%d/%d"]', ", ", "]")),
)


def _emit(obj: dict, as_json: bool, lines: list[str] | None = None) -> None:
    """Print obj as one JSON document, or as text, in one walk over its keys.

    The text is one ``key: value`` line per key unless the command
    passes its own ``lines``, built from the same values.  Both forms
    walk obj with the tokens of their row of ``_FORMS``.  A value that
    is an iterator of reduced intervals (``check``'s suitable set) is
    written interval by interval as it is drawn, so neither form holds
    the whole set; the JSON bytes are those ``json.dumps`` would give
    for a list of ``[lo, hi]`` string pairs.
    """
    write = sys.stdout.write
    if lines is not None and not as_json:
        write("\n".join(lines) + "\n")
        return
    lead, separator, end, key_text, value_text, (open_list, item, comma, close_list) = _FORMS[as_json]
    for key, value in obj.items():
        write(f"{lead}{key_text(key)}: ")
        if isinstance(value, Iterator):
            first = next(value, None)
            write(open_list + ("" if first is None else item % first))
            sys.stdout.writelines(map((comma + item).__mod__, value))
            write(close_list)
        else:
            write(value_text(value))
        lead = separator
    write(end)


def _cmd_check(n: SpeedVector, args: argparse.Namespace) -> tuple[dict, list[str] | None]:
    # The limits, and the guard against a set that starts after 1/2, act
    # on the first draw, before anything is printed.
    intervals = oracle._suitable_quads(n)
    first = next(intervals, None)
    earliest = None if first is None else Fraction(first[0], first[1])
    obj = {
        "vector": n,
        "instance": first is not None,
        "earliest_time": earliest,
        "half_period_witness": earliest,
        "lattice_witness": None if earliest is None else oracle.lattice_witness_from_time(n, earliest),
        "suitable_set": chain(() if first is None else (first,), intervals),
    }
    return obj, None


def _cmd_classify(n: SpeedVector, args: argparse.Namespace) -> tuple[dict, list[str] | None]:
    return run_classify(n, with_oracle=args.with_oracle)._asdict(), None


def _cmd_polytope(n: SpeedVector, args: argparse.Namespace) -> tuple[dict, list[str] | None]:
    halfplanes, vertices, landmarks, widths = polyhedron.q_geometry(n)
    landmarks, widths = landmarks._asdict(), widths._asdict()
    lines = [f"vector: {n}"]
    lines += [f"halfplane: {_text(h.a1)}*x1 + {_text(h.a2)}*x2 <= {_text(h.b)}" for h in halfplanes]
    lines.append("vertices: " + " ".join(f"({_text(x1)}, {_text(x2)})" for x1, x2 in vertices))
    lines.append("landmarks: " + " ".join(f"{name}={_text(v)}" for name, v in landmarks.items()))
    lines += [f"{name}: {_text(v)}" for name, v in widths.items()]
    halfplanes = [h._asdict() for h in halfplanes]  # json.dumps would write a NamedTuple as a list
    return {"vector": n, "halfplanes": halfplanes, "vertices": vertices, "landmarks": landmarks,
            "lemma_widths": widths}, lines


def _cmd_dyadic(n: SpeedVector, args: argparse.Namespace) -> tuple[dict, list[str] | None]:
    den = dyadic.dyadic_denominator(n)
    m = dyadic.find_dyadic_time(n)
    obj = {
        "vector": n,
        "exponent": dyadic.dyadic_exponent(n),
        "denominator": den,
        "m": m,
        "time": None if m is None else Fraction(m, den),
    }
    return obj, None


def _cmd_enumerate(args: argparse.Namespace) -> tuple[dict, list[str] | None]:
    start = time.perf_counter()
    summary = enumeration.sweep(
        args.max_speed,
        require_coprime=args.require_coprime,
        with_oracle=args.with_oracle,
        with_dyadic=args.with_dyadic,
        out=args.out,
        fmt=args.format,
    )
    print(f"elapsed_ms={int((time.perf_counter() - start) * 1000)}", file=sys.stderr)
    return summary._asdict(), None


def _cmd_count_coprime(args: argparse.Namespace) -> tuple[dict, list[str] | None]:
    count = enumeration.coprime_count_moebius(args.max_speed)
    obj = {
        "max_speed": args.max_speed,
        "total_vectors": (1 << args.max_speed) - 1,
        "coprime_vectors": count,
    }
    return obj, [str(count)]


def main(argv: list[str] | None = None) -> int:
    try:
        args = _build_parser().parse_args(argv)
    except SystemExit as exc:
        # argparse exits with 2 on bad usage, which this CLI reserves for
        # an unwritable output file and for bugs, and with 0 after --help.
        return 1 if exc.code else 0
    try:
        obj, lines = args.run(args)
        _emit(obj, args.json, lines)
        return 0
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
