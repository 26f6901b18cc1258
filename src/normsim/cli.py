"""Command-line interface.

Exit codes: 0 success (for `verify`, oracle agreement), 1 verification
failure, 2 dense bound exceeded, 64 usage error, 65 unreadable or
invalid input file, 141 standard output closed by its reader (as in
`normsim simulate ... | head`; 128 + SIGPIPE, with nothing on stderr).
"""

from __future__ import annotations

import argparse
import os
import sys
from itertools import islice

from .affine import affine_test, modexp_permutation, parse_permutation_table
from .circuits import (
    CircuitError,
    ParsedCircuit,
    parse_circuit,
    parse_column_list,
    random_instance,
    serialize_gate,
)
from .engine import QuadraticGate, sample_stream, simulate
from .groups import DENSE_BOUND, ENUM_BOUND, AbelianGroup, BoundExceeded
from .homs import EndoMatrix, InvalidEndomorphism
from .quadratic import InvalidQuadratic, build_quadratic

EXIT_OK = 0
EXIT_VERIFY_FAIL = 1
EXIT_BOUND = 2
EXIT_USAGE = 64
EXIT_INPUT = 65
EXIT_PIPE = 141

# shots per write in `normsim simulate`
_CHUNK = 4096


class _UsageError(Exception):
    pass


class _InputError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise _UsageError(message)


def _build_parser() -> _Parser:
    parser = _Parser(prog="normsim", description=__doc__)
    sub = parser.add_subparsers(dest="command", parser_class=_Parser)

    p = sub.add_parser("simulate", help="sample measurement outcomes")
    p.add_argument("file")
    p.add_argument("--shots", type=int, default=1)
    p.add_argument("--seed", type=int, default=0)

    p = sub.add_parser(
        "support", help="print the output coset: offset and Howell basis"
    )
    p.add_argument("file")

    p = sub.add_parser("verify", help="compare against the dense oracle")
    p.add_argument("file")
    p.add_argument(
        "--bound",
        type=int,
        default=DENSE_BOUND,
        help=f"largest group order to build densely (default {DENSE_BOUND}; "
        f"never above {ENUM_BOUND})",
    )

    p = sub.add_parser("affine-test", help="test a permutation for affineness")
    p.add_argument("--group", type=int, nargs="+", metavar="D")
    p.add_argument(
        "--perm",
        required=True,
        help="table file path, or modexp:a,m,N for (x,y)->(x,y+a^x mod N)",
    )

    p = sub.add_parser("random-circuit", help="emit a random circuit file")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--max-order", type=int, default=64)
    p.add_argument("--gates", type=int, default=5)

    p = sub.add_parser("quadgen", help="emit a quad gate line for a named family")
    p.add_argument("--group", type=int, nargs="+", required=True, metavar="D")
    p.add_argument(
        "--kind",
        required=True,
        choices=["character", "square", "half", "cross", "from-endo"],
    )
    p.add_argument("--factor", type=int, help="1-based factor for single-factor kinds")
    p.add_argument("--a", type=int, help="coefficient for character/square/half")
    p.add_argument("--i", type=int, help="1-based first factor for cross")
    p.add_argument("--j", type=int, help="1-based second factor for cross")
    p.add_argument("--c", type=int, help="coefficient for cross")
    p.add_argument("--cols", help="column list [(..),..] for from-endo")
    return parser


def _read_file(path: str) -> str:
    try:
        with open(path, encoding="utf-8") as fh:
            return fh.read()
    except OSError as err:
        raise _InputError(f"cannot read {path}: {err}") from None


def _load_circuit(path: str) -> ParsedCircuit:
    try:
        return parse_circuit(_read_file(path))
    except CircuitError as err:
        raise _InputError(f"{path}: {err}") from None


def _cmd_simulate(args) -> int:
    circuit = _load_circuit(args.file)
    if args.shots < 0:
        raise _UsageError("--shots must be nonnegative")
    dist = simulate(circuit.coset, circuit.gates)
    lines = map(str, sample_stream(dist, args.shots, args.seed))
    while chunk := list(islice(lines, _CHUNK)):
        sys.stdout.write("\n".join(chunk) + "\n")
    return EXIT_OK


def _cmd_support(args) -> int:
    circuit = _load_circuit(args.file)
    offset, basis = simulate(circuit.coset, circuit.gates).canonical
    print(f"x0={offset}")
    for h in basis.rows:
        print(f"h={h}")
    return EXIT_OK


def _cmd_verify(args) -> int:
    # the dense oracle is the only numpy user; other commands never load it
    from .oracle import compare_with_engine

    circuit = _load_circuit(args.file)
    try:
        report = compare_with_engine(circuit.coset, circuit.gates, bound=args.bound)
    except BoundExceeded as err:
        print(f"normsim: {err}", file=sys.stderr)
        return EXIT_BOUND
    print(report.summary())
    return EXIT_OK if report.passed else EXIT_VERIFY_FAIL


def _cmd_affine_test(args) -> int:
    if args.perm.startswith("modexp:"):
        try:
            a, m, n = (int(p) for p in args.perm[len("modexp:"):].split(","))
        except ValueError:
            raise _UsageError("modexp spec must be modexp:a,m,N") from None
        if m < 0 or n < 2:
            raise _UsageError("modexp needs m >= 0 and N >= 2")
        try:
            spec = modexp_permutation(a, m, n)
        except BoundExceeded as err:
            print(f"normsim: {err}", file=sys.stderr)
            return EXIT_BOUND
        if args.group and tuple(args.group) != spec.group.moduli:
            raise _UsageError(
                f"--group {args.group} conflicts with modexp group "
                f"{list(spec.group.moduli)}"
            )
    else:
        if not args.group:
            raise _UsageError("--group is required with a table file")
        if any(d < 2 for d in args.group):
            raise _UsageError("every modulus must be >= 2")
        group = AbelianGroup(tuple(args.group))
        try:
            spec = parse_permutation_table(group, _read_file(args.perm))
        except CircuitError as err:
            raise _InputError(f"{args.perm}: {err}") from None
    try:
        print(affine_test(spec))
    except BoundExceeded as err:
        print(f"normsim: {err}", file=sys.stderr)
        return EXIT_BOUND
    return EXIT_OK


def _cmd_random_circuit(args) -> int:
    if args.max_order < 2 or args.gates < 0:
        raise _UsageError("need --max-order >= 2 and --gates >= 0")
    sys.stdout.write(random_instance(args.seed, args.max_order, args.gates))
    return EXIT_OK


def _cmd_quadgen(args) -> int:
    if any(d < 2 for d in args.group):
        raise _UsageError("every modulus must be >= 2")
    group = AbelianGroup(tuple(args.group))
    m = group.num_factors

    def factor_index(value, name):
        if value is None:
            raise _UsageError(f"--{name} is required for this kind")
        if not 1 <= value <= m:
            raise _UsageError(f"--{name} must be in 1..{m}")
        return value - 1

    kind = args.kind
    try:
        if kind in ("character", "square", "half"):
            if args.a is None:
                raise _UsageError("--a is required for this kind")
            enc = build_quadratic(
                group, kind, factor=factor_index(args.factor, "factor"), a=args.a
            )
        elif kind == "cross":
            if args.c is None:
                raise _UsageError("--c is required for cross")
            enc = build_quadratic(
                group,
                "cross",
                i=factor_index(args.i, "i"),
                j=factor_index(args.j, "j"),
                c=args.c,
            )
        else:
            if not args.cols:
                raise _UsageError("--cols is required for from-endo")
            cols = parse_column_list(args.cols)
            if len(cols) != m:
                raise _UsageError(f"need {m} columns")
            endo = EndoMatrix(group, tuple(group.element(c) for c in cols))
            enc = build_quadratic(group, "from_endo", endo=endo)
    except (InvalidQuadratic, InvalidEndomorphism, ValueError) as err:
        raise _InputError(str(err)) from None
    print(serialize_gate(QuadraticGate(enc)))
    return EXIT_OK


_COMMANDS = {
    "simulate": _cmd_simulate,
    "support": _cmd_support,
    "verify": _cmd_verify,
    "affine-test": _cmd_affine_test,
    "random-circuit": _cmd_random_circuit,
    "quadgen": _cmd_quadgen,
}


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
        if args.command is None:
            raise _UsageError("a subcommand is required")
        code = _COMMANDS[args.command](args)
        # a reader that left early surfaces here, not in the flush at exit
        sys.stdout.flush()
        return code
    except BrokenPipeError:
        # the interpreter flushes stdout again at exit; point it at
        # devnull so that flush cannot fail and print a traceback
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return EXIT_PIPE
    except _UsageError as err:
        print(f"normsim: {err}", file=sys.stderr)
        return EXIT_USAGE
    except (_InputError, CircuitError) as err:
        print(f"normsim: {err}", file=sys.stderr)
        return EXIT_INPUT


if __name__ == "__main__":
    sys.exit(main())
