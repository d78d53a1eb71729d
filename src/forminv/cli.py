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
Exit codes: 0 success, 1 verification failure, 2 input error.  All output
is deterministic: exact arithmetic, canonical term order, and fixed
aggregation order regardless of worker count.
"""

from __future__ import annotations

import argparse
import os
import sys

from . import bench as bench_mod
from . import flow as flow_mod
from .errors import ForminvError, MethodDisagreement
from .inversion import MAP_METHODS, METHODS, applicable_methods, cross_check
from .mapdoc import document_from_polymap, parse_map, serialize_map
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


def _print_map(m: PolyMap, degree: int, fmt: str, names=None):
    if fmt == "json":
        print(serialize_map(document_from_polymap(m, degree, names=names)))
    else:
        print(m.format(names=names))


def _degree(args, doc) -> int:
    """The working degree: --deg, or the document's D when it is absent."""
    if args.deg is None:
        return doc.degree
    if args.deg < 1:
        raise ForminvError(f"--deg must be >= 1, got {args.deg}")
    return args.deg


def _cmd_invert(args) -> int:
    doc = _read_document(args.input)
    f = doc.to_mapf()
    degree = _degree(args, doc)
    if args.method == "all":
        names = applicable_methods(
            f, list(MAP_METHODS) + ["jacobi", "lagrange"]
        )
        report = cross_check(f, degree, names)
        _print_map(report.inverse, degree, args.format, doc.names)
        if args.format == "text":
            print(f"all methods agree: {', '.join(report.method_names())}")
        return EXIT_OK
    g = METHODS[args.method](f, degree).truncate(degree)
    _print_map(g, degree, args.format, doc.names)
    return EXIT_OK


def _cmd_verify(args) -> int:
    doc = _read_document(args.input)
    f = doc.to_mapf()
    degree = _degree(args, doc)
    if args.suite == "lemma31":
        report = flow_mod.check_lemma31(f, degree)
    elif args.suite == "newp":
        report = flow_mod.check_newp(f.h, degree)
    elif args.suite == "prop310":
        report = flow_mod.check_prop310(f, degree, args.s_order, args.t_order)
    elif args.suite == "gpde":
        if args.u0:
            u0 = _read_document(args.u0).to_polymap()
        else:
            u0 = PolyMap.identity(f.n)
        report = flow_mod.check_gpde(u0, f.h, degree)
    elif args.suite == "euler":
        report = flow_mod.check_euler_identities(f.h, degree)
    else:  # pde
        residual = flow_mod.pde_residual(flow_mod.deformation_inverse(f, degree))
        report = flow_mod.Report(
            f"deformation transport residual through degree {degree}"
        )
        report.add_equality(
            "dN_t/dt - JN_t.N_t = 0",
            residual,
            PolyMap.zero(f.n, degree, nparams=1),
            degree,
        )
    print(report.to_json() if args.format == "json" else report.to_text())
    return EXIT_OK if report.ok else EXIT_VERIFY_FAILED


def _cmd_flow(args) -> int:
    doc = _read_document(args.input)
    f = doc.to_mapf()
    degree = _degree(args, doc)
    if args.t != "t":
        try:
            value = rat_from_str(args.t)
        except ValueError as exc:
            raise ForminvError(str(exc)) from None
    fl = flow_mod.formal_flow(f, degree)
    if args.t == "t":
        if args.format == "json":
            print(
                serialize_map(
                    document_from_polymap(
                        fl.map, degree, names=doc.names + ["t"]
                    )
                )
            )
        else:
            print(fl.map.format(names=doc.names, param_names=["t"]))
        return EXIT_OK
    _print_map(fl.at(value).truncate(degree), degree, args.format, doc.names)
    return EXIT_OK


def _cmd_power(args) -> int:
    doc = _read_document(args.input)
    f = doc.to_mapf()
    degree = _degree(args, doc)
    _print_map(flow_mod.power_map(f, args.m, degree), degree, args.format, doc.names)
    return EXIT_OK


def _cmd_trees(args) -> int:
    if args.max_size < 1:
        raise ForminvError(f"--max-size must be >= 1, got {args.max_size}")
    by_size = enumerate_trees(args.max_size)
    total = 0
    for size in sorted(by_size):
        for t in by_size[size]:
            total += 1
            omega = order_polynomial(t)
            print(f"size={size} aut={t.aut} key={t.key} omega={omega}")
    print(f"total: {total} trees with <= {args.max_size} vertices")
    return EXIT_OK


def _cmd_probe(args) -> int:
    doc = _read_document(args.input)
    f = doc.to_mapf()
    report = flow_mod.polynomiality_probe(f.h, args.layers)
    print(report.to_text())
    return EXIT_OK


def _cmd_bench(args) -> int:
    max_workers = os.cpu_count() or 1
    if not 1 <= args.workers <= max_workers:
        raise ForminvError(
            f"--workers must be between 1 and {max_workers}, got {args.workers}"
        )
    if args.runs < 1:
        raise ForminvError(f"--runs must be >= 1, got {args.runs}")
    inputs = []
    for idx, path in enumerate(args.input):
        doc = _read_document(path)
        label = doc.metadata.get("id") or (path if path != "-" else f"input{idx}")
        inputs.append((str(label), doc.to_mapf()))
    degrees = _parse_degree_range(args.deg_range)
    methods = [m.strip() for m in args.methods.split(",") if m.strip()]
    for m in methods:
        if m not in METHODS:
            raise ForminvError(f"unknown method {m!r}")
    records, skips = bench_mod.run_bench(
        inputs, methods, degrees, runs=args.runs, workers=args.workers
    )
    print(bench_mod.to_table(records, skips))
    if args.csv:
        with open(args.csv, "w", encoding="utf-8") as fh:
            fh.write(bench_mod.to_csv(records))
        print(f"csv written to {args.csv}")
    return EXIT_OK


def _parse_degree_range(spec: str) -> list[int]:
    """'A..B[:S]' or 'A,B,...'; a range with no degree, or one below 1, is bad."""
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
    return degrees


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="forminv",
        description="exact inversion of formal maps z - H(z), and the "
        "deformation/flow identities around it",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p, with_deg=True):
        p.add_argument("--input", default="-", help="map document path, - for stdin")
        if with_deg:
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
        "--method",
        choices=sorted(METHODS) + ["all"],
        default="all",
        help="inversion algorithm; 'all' cross-checks every applicable one",
    )
    add_common(p)
    p.set_defaults(func=_cmd_invert)

    p = sub.add_parser("verify", help="run an identity suite")
    p.add_argument(
        "--suite",
        required=True,
        choices=("lemma31", "newp", "prop310", "gpde", "euler", "pde"),
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
    add_common(p, with_deg=False)
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
    p.add_argument(
        "--workers", type=int, default=1,
        help="process count; results are identical for any value",
    )
    p.set_defaults(func=_cmd_bench)
    return parser


def run_command(argv) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    if args.command == "bench" and not args.input:
        args.input = ["-"]
    try:
        return args.func(args)
    except MethodDisagreement as exc:
        print(f"verification failure: {exc}", file=sys.stderr)
        return EXIT_VERIFY_FAILED
    except ForminvError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT_ERROR
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT_ERROR


def main() -> None:
    sys.exit(run_command(sys.argv[1:]))


if __name__ == "__main__":
    main()
