"""Command-line front end.

Subcommands:

  invert --method {fixed,recurrent,homog,ag,bcw,jacobi,lagrange,all} --deg D
  verify --suite {lemma31,newp,prop310,gpde,euler,pde}
  flow   --t <rational or the literal t> --deg D
  power  --m <int> --deg D
  trees  --max-size K
  probe  --layers M
  bench  --deg-range A..B --methods LIST [--csv PATH]

Maps are read as JSON documents (see mapdoc) from --input (default: stdin).
invert, verify, flow and power take --format {text,json}; the symbolic flow
(--t t) and the probe report print as text only, so flow --t t --format
json is an input error and probe has no --format.
Exit codes: 0 success, 1 verification failure, 2 input error.  All output
is deterministic: exact arithmetic, canonical term order, and fixed
aggregation order.
"""

from __future__ import annotations

import argparse
import re
import sys

from . import bench as bench_mod
from . import flow as flow_mod
from .errors import ForminvError, MethodDisagreement
from .inversion import MAP_METHODS, METHODS, cross_check
from .mapdoc import MapDocument, parse_map, serialize_map
from .rat import rat_from_str
from .series import PolyMap
from .trees import enumerate_trees, order_polynomial

EXIT_OK = 0
EXIT_VERIFY_FAILED = 1
EXIT_INPUT_ERROR = 2


def _read_document(path: str):
    if path == "-":
        return parse_map(sys.stdin.read())
    with open(path, "r", encoding="utf-8") as fh:
        return parse_map(fh.read())


def _print_map(m: PolyMap, degree: int, fmt: str, names):
    if fmt == "json":
        print(serialize_map(MapDocument(m, degree, names)))
    else:
        print(m.format(names=names))


def _load(args):
    """The document at --input, its canonical map and the working degree
    (--deg, or the document's D when it is absent), checked in that order."""
    doc = _read_document(args.input)
    f = doc.to_mapf()
    degree = doc.degree if args.deg is None else _at_least("--deg", args.deg)
    return doc, f, degree


def _at_least(option: str, value: int, low: int = 1) -> int:
    """The value of `option`, or an input error naming it when below `low`."""
    if value < low:
        raise ForminvError(f"{option} must be >= {low}, got {value}")
    return value


def _cmd_invert(args) -> int:
    doc, f, degree = _load(args)
    if args.method == "all":
        report = cross_check(f, degree, list(METHODS))
        _print_map(report.inverse, degree, args.format, doc.names)
        if args.format == "text":
            print(f"all methods agree: {', '.join(report.method_names())}")
        return EXIT_OK
    g = METHODS[args.method](f, degree).truncate(degree)
    _print_map(g, degree, args.format, doc.names)
    return EXIT_OK


def _cmd_verify(args) -> int:
    doc, f, degree = _load(args)
    if args.suite == "lemma31":
        report = flow_mod.check_lemma31(f, degree)
    elif args.suite == "newp":
        report = flow_mod.check_newp(f.h, degree)
    elif args.suite == "prop310":
        s_order = _at_least("--s-order", args.s_order, 0)
        t_order = _at_least("--t-order", args.t_order, 0)
        report = flow_mod.check_prop310(f, degree, s_order, t_order)
    elif args.suite == "gpde":
        u0 = _read_document(args.u0).map if args.u0 else PolyMap.identity(f.n)
        report = flow_mod.check_gpde(u0, f.h, degree)
    elif args.suite == "euler":
        report = flow_mod.check_euler_identities(f.h, degree)
    else:  # pde
        report = flow_mod.check_pde(f, degree)
    print(report.to_json() if args.format == "json" else report.to_text())
    return EXIT_OK if report.ok else EXIT_VERIFY_FAILED


def _cmd_flow(args) -> int:
    if args.t == "t" and args.format == "json":
        raise ForminvError(
            "--t t prints the symbolic flow only as text; use --format text"
        )
    doc, f, degree = _load(args)
    if args.t != "t":
        try:
            value = rat_from_str(args.t)
        except ValueError as exc:
            raise ForminvError(str(exc)) from None
    fl = flow_mod.formal_flow(f, degree)
    if args.t == "t":
        print(fl.map.format(names=doc.names, param_names=["t"]))
    else:
        _print_map(fl.at(value).truncate(degree), degree, args.format, doc.names)
    return EXIT_OK


def _cmd_power(args) -> int:
    doc, f, degree = _load(args)
    _print_map(flow_mod.power_map(f, args.m, degree), degree, args.format, doc.names)
    return EXIT_OK


def _cmd_trees(args) -> int:
    by_size = enumerate_trees(_at_least("--max-size", args.max_size))
    total = 0
    for size in sorted(by_size):
        for t in by_size[size]:
            total += 1
            omega = order_polynomial(t).format()
            print(f"size={size} aut={t.aut} key={t.key} omega={omega}")
    print(f"total: {total} trees with <= {args.max_size} vertices")
    return EXIT_OK


def _cmd_probe(args) -> int:
    layers = _at_least("--layers", args.layers)
    f = _read_document(args.input).to_mapf()
    report = flow_mod.polynomiality_probe(f.h, layers)
    print(report.to_text())
    return EXIT_OK


def _cmd_bench(args) -> int:
    _at_least("--runs", args.runs)
    inputs = []
    for idx, path in enumerate(args.input):
        doc = _read_document(path)
        label = str(doc.metadata.get("id") or (path if path != "-" else f"input{idx}"))
        if label in (seen for seen, _ in inputs):
            raise ForminvError(f"--input {path!r} repeats input {label!r}")
        inputs.append((label, doc.to_mapf()))
    degrees = _parse_degree_range(args.deg_range)
    methods = [m.strip() for m in args.methods.split(",") if m.strip()]
    if not methods:
        raise ForminvError(f"--methods {args.methods!r} names no method")
    for i, m in enumerate(methods):
        if m in methods[:i]:
            raise ForminvError(f"--methods names {m!r} twice")
    records, skips = bench_mod.run_bench(inputs, methods, degrees, runs=args.runs)
    print(bench_mod.to_table(records, skips))
    if args.csv:
        with open(args.csv, "w", encoding="utf-8") as fh:
            fh.write(bench_mod.to_csv(records))
        print(f"csv written to {args.csv}")
    return EXIT_OK


def _parse_degree_range(spec: str) -> list[int]:
    """'A..B[:S]' or 'A,B,...'; a range with no degree, one below 1 or one
    listed twice is bad."""
    spec = spec.strip()
    try:
        if ".." in spec:
            body, _, step = spec.partition(":")
            a, _, b = body.partition("..")
            degrees = list(range(int(a), int(b) + 1, int(step) if step else 1))
        else:
            degrees = [int(x) for x in spec.split(",") if x.strip()]
    except ValueError:  # also a zero stride
        degrees = []
    if not degrees or min(degrees) < 1:
        raise ForminvError(f"bad degree range {spec!r}")
    if len(set(degrees)) < len(degrees):
        raise ForminvError(f"bad degree range {spec!r}: a degree repeats")
    return degrees


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="forminv",
        description="exact inversion of formal maps z - H(z), and the "
        "deformation/flow identities around it",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p):
        p.add_argument("--input", default="-", help="map document path, - for stdin")
        p.add_argument(
            "--deg", type=int, default=None,
            help="working degree (default: the document's D)",
        )
        p.add_argument(
            "--format", choices=("text", "json"), default="text",
            help="output format",
        )

    p = sub.add_parser("invert", help="compute the inverse map")
    p.add_argument(
        "--method", choices=sorted(METHODS) + ["all"], default="all",
        help="inversion algorithm; 'all' cross-checks every applicable one",
    )
    add_common(p)
    p.set_defaults(func=_cmd_invert)

    p = sub.add_parser("verify", help="run an identity suite")
    p.add_argument(
        "--suite", required=True, choices=("lemma31", "newp", "prop310", "gpde", "euler", "pde")
    )
    p.add_argument("--s-order", type=int, default=3)
    p.add_argument("--t-order", type=int, default=3)
    p.add_argument("--u0", default=None, help="document for the transported series")
    add_common(p)
    p.set_defaults(func=_cmd_verify)

    p = sub.add_parser("flow", help="the formal flow F(z; t)")
    p.add_argument(
        "--t", required=True,
        help="an exact rational to evaluate at, or the literal 't' for "
        "symbolic output",
    )
    add_common(p)
    p.set_defaults(func=_cmd_flow)

    p = sub.add_parser("power", help="integer power F^[m]")
    p.add_argument("--m", type=int, required=True)
    add_common(p)
    p.set_defaults(func=_cmd_power)

    p = sub.add_parser("trees", help="list rooted trees with their data")
    p.add_argument("--max-size", type=int, required=True)
    p.set_defaults(func=_cmd_trees)

    p = sub.add_parser("probe", help="layer-vanishing experiment")
    p.add_argument("--layers", type=int, required=True)
    p.add_argument("--input", default="-", help="map document path, - for stdin")
    p.set_defaults(func=_cmd_probe)

    p = sub.add_parser("bench", help="method comparison benchmark")
    p.add_argument("--deg-range", required=True, help="e.g. 4..10:2 or 4,6,8,10")
    p.add_argument(
        "--methods", default=",".join(MAP_METHODS),
        help="comma-separated method list",
    )
    p.add_argument("--input", action="append", default=None, required=False)
    p.add_argument("--csv", default=None, help="write records to this CSV path")
    p.add_argument("--runs", type=int, default=3, help="timing runs per cell")
    p.set_defaults(func=_cmd_bench)
    return parser


def _attach_negative_fractions(argv) -> list:
    """``--t -1/2`` as ``--t=-1/2``: argparse reads an argument that starts
    with "-" as an option unless it is a plain negative number."""
    out = []
    for arg in argv:
        if out and out[-1] == "--t" and re.fullmatch(r"-[0-9]+/[0-9]+", arg):
            out[-1] += "=" + arg
        else:
            out.append(arg)
    return out


def run_command(argv) -> int:
    parser = build_parser()
    args = parser.parse_args(_attach_negative_fractions(argv))
    if args.command == "bench" and not args.input:
        args.input = ["-"]
    try:
        return args.func(args)
    except MethodDisagreement as exc:
        print(f"verification failure: {exc}", file=sys.stderr)
        return EXIT_VERIFY_FAILED
    except (ForminvError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT_ERROR


def main() -> None:
    sys.exit(run_command(sys.argv[1:]))


if __name__ == "__main__":
    main()
