"""Command-line front end.

Every subcommand wraps one library operation or report suite and offers
``--json`` for machine-readable output.  Exit codes: 0 on success, 1 on
usage or parse errors, 2 when a check suite finds a property violation.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from typing import Sequence

from .diagrams import ChordDiagram, enumerate_diagrams, partial_dual_diagram, product
from .maps import CombinatorialMap
from .polynomials import _signed_sum
from .weight_system import check_4T, dim_quotient, pd_genus_polynomial

USAGE_ERROR = 1
VIOLATION_ERROR = 2

# Highest order that enum, check4t and dims run without --force.  At order 7
# they take 0.3-0.6 s, 0.4-0.7 s and 1.2-1.8 s, and dims 49 MB peak RSS
# (fresh interpreters, 10 runs each, shared 2-CPU machine, CPython 3.11);
# at order 8 check4t takes 5.2-5.8 s (2 runs) and 181 MB, and the exact
# quotient grows into hours.
MAX_ORDER = 7

# Most subsets that poly walks: the sum of 2^k over the distinct prime
# factors, of order k each.  One prime factor of order 16, 18 or 20 takes
# 0.20 s, 0.79-0.80 s or 3.5-3.6 s (2 runs each, 2-CPU machine, CPython
# 3.11), about x4 per two orders.
MAX_POLY_SUBSETS = 1 << 20

# Most chords in the diagram words of one command (both factors of a
# product).  A canonical form normalizes only the rotations that start at
# a shortest chord: one or two for a random word, but one per chord for
# runs of isolated chords or interlaced pairs, which stay quadratic.  At
# 1 600 chords such words take poly, product, slide and interlace about
# 1.5 s at most, against 2.4 s when every rotation was normalized (2-CPU
# machine, CPython 3.11).
MAX_WORD_CHORDS = 1600

# Most bytes in a map file.  Building a map takes time and memory quadratic
# in its half-edges (one 1 << edge int per half-edge).  The densest 64 KiB
# file names about 11 800 half-edges and takes 0.1 s and 31 MB, one vertex
# of about 6 400 half-edges 0.05 s and 21 MB (2-CPU machine, CPython 3.11);
# 200 000 half-edges, a 2.7 MB file, took 15 s and 1.4 GB.
MAX_MAP_BYTES = 64 * 1024


class _CliParser(argparse.ArgumentParser):
    def error(self, message: str) -> None:  # exit 1, not argparse's default 2
        self.print_usage(sys.stderr)
        raise ValueError(message)


def _build_parser() -> argparse.ArgumentParser:
    parser = _CliParser(
        prog="pdgenus",
        description="Partial duals, genera, and the partial-dual genus polynomial "
        "of oriented ribbon graphs and chord diagrams.",
    )
    parser.add_argument("--json", action="store_true", help="machine-readable output")
    sub = parser.add_subparsers(dest="command", required=True)

    def add_parser(name: str, run, **kwargs) -> argparse.ArgumentParser:
        p = sub.add_parser(name, **kwargs)
        p.set_defaults(run=run)
        # accepted before or after the subcommand
        p.add_argument(
            "--json", action="store_true", default=argparse.SUPPRESS,
            help="machine-readable output",
        )
        return p

    def add_order(p: argparse.ArgumentParser) -> None:
        p.add_argument("n", type=int)
        p.add_argument(
            "--force", action="store_true",
            help=f"run an order above {MAX_ORDER}, which may take hours or gigabytes",
        )

    p = add_parser("poly", _cmd_poly, help="genus polynomial over all partial duals")
    p.add_argument("diagram")

    p = add_parser("dual", _cmd_dual, help="partial dual of a diagram, as circles and chords")
    p.add_argument("diagram")
    p.add_argument("--chords", default="", help="comma-separated chord labels")

    p = add_parser("genus", _cmd_genus, help="genus of a diagram or of a map file")
    source = p.add_mutually_exclusive_group(required=True)
    source.add_argument("diagram", nargs="?", help="a diagram word")
    source.add_argument("--map", metavar="FILE", help="a sigma/alpha map file")

    p = add_parser("enum", _cmd_enum, help="all chord diagrams of a given order")
    add_order(p)
    p.add_argument("--limit", type=int, default=None, help="print at most this many")

    p = add_parser("check4t", _cmd_check4t, help="verify the four-term relation exhaustively")
    add_order(p)

    p = add_parser("dims", _cmd_dims, help="dimension of diagrams modulo four-term relations")
    add_order(p)

    add_parser("table", _cmd_table, help="golden order-4 table with computed values and errata")

    p = add_parser("product", _cmd_product, help="connected sum of two diagrams")
    p.add_argument("d1")
    p.add_argument("d2")
    p.add_argument("--cuts", default="0,0", help="gap positions, e.g. 2,1")

    p = add_parser("slide", _cmd_slide, help="slide one chord end along another chord")
    p.add_argument("diagram")
    p.add_argument("--move", type=int, required=True, help="word position of the moving end")
    p.add_argument("--along", type=int, required=True, help="label of the fixed chord")

    p = add_parser("interlace", _cmd_interlace, help="interlacement graph and sequence")
    p.add_argument("diagram")
    return parser


def _format_relation(relation: dict[str, int]) -> str:
    return _signed_sum(
        (c, label if abs(c) == 1 else f"{abs(c)}*{label}") for label, c in relation.items()
    )


def _print(payload: dict, text: str, as_json: bool) -> None:
    if as_json:
        print(json.dumps(payload, sort_keys=True))
    else:
        print(text)


def _parse_words(*texts: str) -> list[ChordDiagram]:
    """The diagrams of word arguments, refused above ``MAX_WORD_CHORDS`` chords in all."""
    diagrams = [ChordDiagram.parse(text) for text in texts]
    chords = sum(d.order for d in diagrams)
    if chords > MAX_WORD_CHORDS:
        raise ValueError(
            f"diagram words with {chords} chords are above the limit of {MAX_WORD_CHORDS}"
        )
    return diagrams


def _read_map(path: str) -> CombinatorialMap:
    """The map in a file, refused above ``MAX_MAP_BYTES`` bytes before it is parsed."""
    with open(path, "rb") as fh:
        data = fh.read(MAX_MAP_BYTES + 1)
        if len(data) > MAX_MAP_BYTES:
            size = max(os.fstat(fh.fileno()).st_size, len(data))
            raise ValueError(f"map file of {size} bytes is above the limit of {MAX_MAP_BYTES}")
    return CombinatorialMap.from_text(data.decode("utf-8"))


def _cmd_poly(args) -> int:
    (diagram,) = _parse_words(args.diagram)
    canon = diagram.canonical()
    subsets = sum(1 << factor.order for factor in set(canon.join_decompose()))
    if subsets > MAX_POLY_SUBSETS:
        raise ValueError(
            f"the prime factors would walk {subsets} subsets, above the limit of "
            f"{MAX_POLY_SUBSETS}"
        )
    poly = pd_genus_polynomial(canon)
    payload = {
        "diagram": list(canon.word),
        "polynomial": poly.to_json(),
        "subset_count": 1 << canon.order,
    }
    _print(payload, str(poly), args.json)
    return 0


def _cmd_dual(args) -> int:
    (diagram,) = _parse_words(args.diagram)
    try:
        chords = {int(tok) for tok in args.chords.split(",") if tok}
    except ValueError:
        raise ValueError("--chords expects comma-separated integer labels")
    m = partial_dual_diagram(diagram, chords)
    # the dual's vertices are its circles; edge i is still chord labels()[i]
    side = ["out" if label in chords else "in" for label in diagram.labels()]
    payload = {
        "circles": [list(c) for c in m.vertices()],
        "pairing": [list(p) for p in m.edges],
        "side": side,
        "genus": m.genus(),
    }
    v, e, f, c = m.counts()
    payload["counts"] = {"v": v, "e": e, "f": f, "c": c}
    lines = [f"circle {i}: " + " ".join(map(str, circle)) for i, circle in enumerate(m.vertices())]
    lines.append("pairing: " + " ".join(f"{a}-{b}({s})" for (a, b), s in zip(m.edges, side)))
    lines.append(f"genus: {payload['genus']}  v={v} e={e} f={f} c={c}")
    _print(payload, "\n".join(lines), args.json)
    return 0


def _cmd_genus(args) -> int:
    if args.map is not None:
        m = _read_map(args.map)
    else:
        (diagram,) = _parse_words(args.diagram)
        m = diagram.to_map()
    v, e, f, c = m.counts()
    payload = {"genus": m.genus(), "v": v, "e": e, "f": f, "c": c}
    _print(payload, str(payload["genus"]), args.json)
    return 0


def _check_order(args) -> None:
    if args.n > MAX_ORDER and not args.force:
        raise ValueError(
            f"order {args.n} is above the limit of {MAX_ORDER}, beyond which runs "
            "take hours or gigabytes; pass --force to run it anyway"
        )


def _cmd_enum(args) -> int:
    _check_order(args)
    if args.limit is not None and args.limit < 0:
        raise ValueError(f"--limit {args.limit} is negative")
    diagrams = enumerate_diagrams(args.n)
    shown = diagrams if args.limit is None else diagrams[: args.limit]
    payload = {
        "n": args.n,
        "count": len(diagrams),
        "diagrams": [list(d.word) for d in shown],
    }
    lines = [str(d) for d in shown] + [f"count: {len(diagrams)}"]
    _print(payload, "\n".join(lines), args.json)
    return 0


def _cmd_check4t(args) -> int:
    _check_order(args)
    report = check_4T(args.n)
    if args.json:
        for violation in report["violations_list"]:
            print(json.dumps(violation, sort_keys=True))
        summary = {k: report[k] for k in ("n", "quadruples", "violations")}
        print(json.dumps(summary, sort_keys=True))
    else:
        for violation in report["violations_list"]:
            print("violation:", violation)
        print(
            f"n={report['n']}: {report['quadruples']} quadruples, "
            f"{report['violations']} violations"
        )
    return VIOLATION_ERROR if report["violations"] else 0


def _cmd_dims(args) -> int:
    _check_order(args)
    diagrams = len(enumerate_diagrams(args.n))
    dim = dim_quotient(args.n)
    payload = {"n": args.n, "dim": dim, "diagrams": diagrams}
    _print(payload, str(dim), args.json)
    return 0


def _cmd_table(args) -> int:
    from .golden import verify_golden_table  # golden loads ast; only table reads it

    rows, errata = verify_golden_table()
    if args.json:
        payload = {"rows": [r.to_json() for r in rows], "errata": errata}
        print(json.dumps(payload, sort_keys=True))
    else:
        header = f"{'row':>3}  {'name':6} {'interlace sequence':20} {'genus polynomial':18} {'status':6} relation / errata"
        print(header)
        print("-" * len(header))
        for r in rows:
            status = "ok" if r.gamma_matches and not r.issues else "errata"
            if r.basis:
                rel = "(basis)"
            else:
                rel = f"= {_format_relation(r.computed_relation or {})}"
            notes = ("; ".join(r.issues)) if r.issues else ""
            print(
                f"{r.row:>3}  {r.label:6} {r.computed_interlace:20} "
                f"{str(r.computed_gamma):18} {status:6} {rel}"
                + (f"  [{notes}]" if notes else "")
            )
        print()
        print("errata:")
        for e in errata:
            print(f"  rows {e['rows']} ({e['kind']}): {e['note']}")
    bad = any(not r.gamma_matches for r in rows)
    return VIOLATION_ERROR if bad else 0


def _cmd_product(args) -> int:
    try:
        cut1, cut2 = (int(tok) for tok in args.cuts.split(","))
    except ValueError:
        raise ValueError("--cuts expects two integers i,j")
    result = product(*_parse_words(args.d1, args.d2), cut1, cut2)
    payload = {"word": list(result.word), "canonical": list(result.canonical().word)}
    _print(payload, str(result), args.json)
    return 0


def _cmd_slide(args) -> int:
    (diagram,) = _parse_words(args.diagram)
    labels = diagram.labels()
    if args.along not in labels:
        raise ValueError(f"no chord labelled {args.along}")
    slid = diagram.to_map().slide(args.move, labels.index(args.along))
    result = ChordDiagram.from_map(slid)
    payload = {"word": list(result.word), "canonical": list(result.canonical().word)}
    _print(payload, str(result.canonical()), args.json)
    return 0


def _cmd_interlace(args) -> int:
    (diagram,) = _parse_words(args.diagram)
    matrix = diagram.interlace_graph()
    sequence = diagram.interlace_sequence()
    payload = {
        "matrix": matrix,
        "sequence": list(sequence.counts),
        "factors": [list(f) for f in sequence.factors],
        "display": str(sequence),
    }
    text = "\n".join(" ".join(map(str, row)) for row in matrix)
    text += f"\nsequence: {sequence}"
    _print(payload, text, args.json)
    return 0


def main(argv: Sequence[str] | None = None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
        return args.run(args)
    except SystemExit as exc:
        return USAGE_ERROR if exc.code else 0
    except (ValueError, OSError) as exc:
        print(f"pdgenus: error: {exc}", file=sys.stderr)
        return USAGE_ERROR


if __name__ == "__main__":
    raise SystemExit(main())
