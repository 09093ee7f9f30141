"""Command line interface: generate graphs, compute matrices and energy,
and run the verification suite.

Exit codes: 0 success, 2 input error, 3 domain error (disconnected graph),
4 verification failure.
"""

from __future__ import annotations

import argparse
import math
import os
import sys
from contextlib import nullcontext

from . import serialize
from .energy import resistance_laplacian_energy
from .errors import Disconnected, GraphInputError
from .graph import FAMILY_KINDS, FamilySpec, format_edge_list, generate, parse_edge_list
from .resistance import (
    resistance_laplacian,
    resistance_matrix,
    resistance_signless_laplacian,
)
from .spectral import Spectrum, _eigenvalues_in_place
from .verify import DEFAULT_TOL, SCOPES, _as_tol, run_verify

EXIT_OK = 0
EXIT_INPUT = 2
EXIT_DOMAIN = 3
EXIT_VERIFY = 4

COMPUTE_TARGETS = ("resistance", "rl", "rq", "spectrum-rl", "spectrum-rq", "energy")

# Largest --max-n of resq verify: family instances grow as max_n^2 and their
# matrix entries as max_n^4; the families scope takes 11.7-13.0 s at 150 on a
# 2-core host, its peak RSS 42.2-42.3 MB above that of order 2.
VERIFY_MAX_N = 150


def _family_from_args(args) -> FamilySpec:
    if args.family == "bipartite":
        if args.p is None or args.q is None:
            raise GraphInputError("bipartite requires --p and --q")
        return FamilySpec.bipartite(args.p, args.q)
    if args.n is None:
        raise GraphInputError(f"{args.family} requires --n")
    return FamilySpec(args.family, (args.n,))


def cmd_generate(args) -> int:
    spec = _family_from_args(args)
    g = generate(spec)
    text = format_edge_list(g)
    if args.out:
        with open(args.out, "w", encoding="ascii") as fh:
            fh.write(text)
        print(f"{spec.label()}: {g.n} vertices, {g.edge_count} edges -> {args.out}")
    else:
        sys.stdout.write(text)
        print(f"{spec.label()}: {g.n} vertices, {g.edge_count} edges", file=sys.stderr)
    return EXIT_OK


def _compute_chunks(g, what: str, fmt: str):
    """The ASCII bytes of resq compute in pieces, its final newline included:
    a matrix comes a row block at a time (serialize.matrix_chunks)."""
    if what == "energy":
        payload = resistance_laplacian_energy(g), serialize.graph_hash(g)
        to_csv, to_json = serialize.energy_report_to_csv, serialize.energy_report_to_json
    else:
        builders = {"resistance": resistance_matrix, "rl": resistance_laplacian,
                    "rq": resistance_signless_laplacian}
        matrix = builders[what.removeprefix("spectrum-")](g)
        if not what.startswith("spectrum-"):
            yield from serialize.matrix_chunks(matrix, what, fmt)
            return
        payload = (Spectrum.from_values(_eigenvalues_in_place(matrix)),)
        to_csv, to_json = serialize.spectrum_to_csv, serialize.spectrum_to_json
    text = to_csv(*payload) if fmt == "csv" else serialize.dumps(to_json(*payload))
    yield (text + "\n").encode("ascii")


def cmd_compute(args) -> int:
    try:
        with open(args.graph, "r", encoding="utf-8") as fh:
            # a BOM is dropped after decoding: an error's byte counts from the file's start
            source = fh.read().removeprefix("\ufeff")
    except UnicodeDecodeError as err:
        raise GraphInputError(f"{args.graph}: not UTF-8 text (byte {err.start})") from err
    g = parse_edge_list(source)
    del source  # the text (9 MB on G(2000, 0.5)) need not live through the O(n^3) work
    chunks = _compute_chunks(g, args.what, args.format)
    # Every input and domain error comes before the first piece, so --out is
    # opened (and an existing file replaced) only for an output to write.
    first = next(chunks)
    if not args.out:
        sys.stdout.flush()  # text printed before goes first: the bytes skip the text layer
    with open(args.out, "wb") if args.out else nullcontext(sys.stdout.buffer) as out:
        out.write(first)
        out.writelines(chunks)
    return EXIT_OK


def _print_outcome(outcome) -> None:
    status = outcome.status.upper()
    measured = "" if outcome.measured is None else f" measured={outcome.measured:.3g}"
    tol = "" if outcome.tolerance is None else f" tol={outcome.tolerance:g}"
    print(f"{status:4s} {outcome.name}{measured}{tol} ({outcome.elapsed_ms:.1f} ms)")
    if outcome.detail:
        for line in outcome.detail.splitlines():
            print(f"     {line}")
    if outcome.failing_graph:
        print("     violating graph:")
        for line in outcome.failing_graph.strip().splitlines():
            print(f"       {line}")


def cmd_verify(args) -> int:
    text = os.environ.get("RESQ_TOL", str(DEFAULT_TOL))
    tol = _as_tol(text)
    if tol is None:
        print(f"error: RESQ_TOL must be a finite number >= 0, got {text!r}", file=sys.stderr)
        return EXIT_INPUT
    outcomes = run_verify(
        scope=args.scope,
        seed=args.seed,
        max_n=args.max_n,
        count=args.count,
        tol=tol,
    )
    failed = [o for o in outcomes if not o.passed]
    skipped = sum(o.status == "skip" for o in outcomes)
    summary = (
        f"{len(outcomes)} checks: {len(outcomes) - len(failed) - skipped} passed, "
        + (f"{skipped} skipped, " if skipped else "")
        + f"{len(failed)} failed"
    )
    if args.jsonl:
        for outcome in outcomes:
            sys.stdout.write(serialize.dumps(outcome.to_json()) + "\n")
        print(summary, file=sys.stderr)
    else:
        for outcome in outcomes:
            _print_outcome(outcome)
        print(summary)
    return EXIT_VERIFY if failed else EXIT_OK


def _int_in_range(low: int, high: float = math.inf):
    def parse(text: str) -> int:
        value = int(text)
        if not low <= value <= high:
            bound = f">= {low}" if high == math.inf else f">= {low} and <= {high}"
            raise argparse.ArgumentTypeError(f"must be {bound}, got {value}")
        return value

    parse.__name__ = "int"  # argparse names the type in its error message
    return parse


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="resq",
        description="Resistance Laplacian matrices, spectra and energy of connected graphs.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    gen = sub.add_parser("generate", help="write a family graph as an edge list")
    gen.add_argument("--family", required=True, choices=FAMILY_KINDS)
    gen.add_argument("--n", type=int, help="order for complete/cycle/path")
    gen.add_argument("--p", type=int, help="first part size for bipartite")
    gen.add_argument("--q", type=int, help="second part size for bipartite")
    gen.add_argument("--out", help="output path (default: stdout)")
    gen.set_defaults(handler=cmd_generate)

    comp = sub.add_parser("compute", help="compute matrices, spectra or energy for a graph")
    comp.add_argument("graph", help="edge-list file")
    comp.add_argument("--what", required=True, choices=COMPUTE_TARGETS)
    comp.add_argument("--format", default="csv", choices=("csv", "json"))
    comp.add_argument("--out", help="output path (default: stdout)")
    comp.set_defaults(handler=cmd_compute)

    ver = sub.add_parser(
        "verify", help="run the property verification suite",
        description="Run the property verification suite. The quotient checks also run "
                    "K_{p,q} for p, q <= 8 (up to order 16), and the random trees go to "
                    "n = 15, whatever --max-n is.")
    ver.add_argument("--scope", default="all", choices=SCOPES)
    ver.add_argument("--seed", type=int, default=0)
    ver.add_argument("--max-n", dest="max_n", type=_int_in_range(2, VERIFY_MAX_N), default=12,
                     help=f"largest order of the family instances, random graphs and "
                          f"edge-addition pairs, 2 to {VERIFY_MAX_N} (default 12)")
    ver.add_argument("--count", type=_int_in_range(0), default=200, help="random corpus size")
    ver.add_argument("--jsonl", action="store_true", help="one JSON object per check")
    ver.set_defaults(handler=cmd_verify)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.handler(args)
    except GraphInputError as err:
        print(f"error: {type(err).__name__}: {err}", file=sys.stderr)
        return EXIT_INPUT
    except Disconnected as err:
        print(f"error: {type(err).__name__}: {err}", file=sys.stderr)
        return EXIT_DOMAIN
    except OSError as err:
        print(f"error: {err}", file=sys.stderr)
        return EXIT_INPUT


if __name__ == "__main__":
    raise SystemExit(main())
