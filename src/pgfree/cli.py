"""Command-line interface.

Subcommands: construct, analyze, spectrum, count-triangles, find-flat,
cone, verify.  Point sets are read from --in files or stdin in either the
JSON or the compact RANK:HEX form, and written as JSON by default.

Exit codes: 0 success; 1 usage or parse error; 2 check violation or
internal inconsistency (a counterexample to a proven statement); 3
resource cap exceeded.
"""

from __future__ import annotations

import argparse
import functools
import json
import sys
from fractions import Fraction

import numpy as np

from .errors import (
    ConfigError,
    GeometryError,
    HypothesisError,
    InternalInconsistencyError,
    PointSetParseError,
    RankCapError,
    ResourceCapError,
)
from .constructions import (
    GraphSpec,
    affine_set,
    bose_burton,
    direct_sum,
    graphic_representation,
    m_k5,
)
from .pointset import PointSet
from .search import cone, find_triangle_free_flat
from .spectral import walsh_hadamard
from .verify import SweepConfig, analyze, applicable_checks, extremal_records_csv, run_sweep
from .verify import _checked_triangle_count


class _UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise _UsageError(message)


def _read_text(path: str) -> str:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return fh.read()
    except UnicodeDecodeError as exc:
        raise PointSetParseError(f"not UTF-8 text (byte {exc.start})", path) from None


def _read_pointset(path: str | None) -> PointSet:
    if path is None or path == "-":
        return PointSet.parse(sys.stdin.read(), where="stdin")
    return PointSet.parse(_read_text(path), where=path)


def _emit_pointset(e: PointSet, fmt: str) -> None:
    if fmt == "compact":
        print(e.to_compact())
    else:
        print(e.to_json())


def _parse_int(text: str) -> int:
    return int(text, 0)


def _graph_int(text: str, where: str) -> int:
    try:
        return int(text)
    except ValueError:
        raise PointSetParseError(f"{text!r} is not an integer", where) from None


def _read_graph(path: str) -> GraphSpec:
    vertex_count = None
    edges = []
    for lineno, raw in enumerate(_read_text(path).split("\n"), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        fields = line.split()
        where = f"{path}:{lineno}"
        if vertex_count is None:
            if fields[0] != "vertices" or len(fields) != 2:
                raise PointSetParseError('first line must be "vertices N"', where)
            vertex_count = _graph_int(fields[1], where)
            continue
        if len(fields) != 2:
            raise PointSetParseError('edge lines must be "u v"', where)
        edges.append((_graph_int(fields[0], where), _graph_int(fields[1], where)))
    if vertex_count is None:
        raise PointSetParseError("empty graph file", path)
    return GraphSpec.from_edges(vertex_count, edges)


# parse_args leaves the parser as it found it (the append action of
# construct --in copies its default list), so one parser serves every main call
@functools.cache
def _build_parser() -> _Parser:
    p = _Parser(prog="pgfree", description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    sub = p.add_subparsers(dest="command", required=True)

    c = sub.add_parser("construct", help="emit a canonical point set")
    c.add_argument("--kind", required=True,
                   choices=["bose-burton", "affine", "graphic", "k5", "direct-sum"])
    c.add_argument("--rank", type=int)
    c.add_argument("--level", type=int)
    c.add_argument("--gamma", type=_parse_int)
    c.add_argument("--edges-file")
    c.add_argument("--in", dest="inputs", action="append", default=[],
                   help="input sets (direct-sum takes two)")
    c.add_argument("--format", default="json", choices=["json", "compact"])

    a = sub.add_parser("analyze", help="full exact report for a point set")
    a.add_argument("--in", dest="input", default=None)
    a.add_argument("--levels", default="2,3",
                   help="comma-separated subgeometry ranks to test")
    a.add_argument("--no-find-flat", action="store_true")

    s = sub.add_parser("spectrum", help="dump Fourier coefficients as CSV")
    s.add_argument("--in", dest="input", default=None)
    s.add_argument("--top", type=int, default=None,
                   help="only the k coefficients of largest magnitude")

    t = sub.add_parser("count-triangles", help="naive and spectral triangle counts")
    t.add_argument("--in", dest="input", default=None)

    f = sub.add_parser("find-flat", help="search for a triangle-free flat")
    f.add_argument("--in", dest="input", default=None)
    f.add_argument("--level", type=int, required=True)
    f.add_argument("--strategy", default="descent", choices=["descent", "exhaustive"])

    k = sub.add_parser("cone", help="the cone of the set at a point")
    k.add_argument("--in", dest="input", default=None)
    k.add_argument("--point", type=_parse_int, required=True)
    k.add_argument("--format", default="json", choices=["json", "compact"])

    v = sub.add_parser("verify", help="run a theorem sweep")
    v.add_argument("--rank", type=int, required=True)
    v.add_argument("--level", type=int, required=True)
    v.add_argument("--mode", required=True, choices=["exhaustive", "random"])
    v.add_argument("--samples", type=int, default=0)
    v.add_argument("--seed", type=int, default=0)
    v.add_argument("--checks", default=None,
                   help="comma-separated rows to run (default: every row the rank and level admit)")
    v.add_argument("--density-filter", default=None,
                   help="random mode: keep only samples with |E|/2^r above NUM/DEN")
    v.add_argument("--out", default=None, help="write outcome JSON here instead of stdout")
    v.add_argument("--csv", default=None, help="write extremal-record CSV here")
    return p


def _cmd_construct(args) -> int:
    if args.kind == "bose-burton":
        if args.rank is None or args.level is None:
            raise _UsageError("bose-burton needs --rank and --level")
        e = bose_burton(args.rank, args.level)
    elif args.kind == "affine":
        if args.rank is None or args.gamma is None:
            raise _UsageError("affine needs --rank and --gamma")
        e = affine_set(args.rank, args.gamma)
    elif args.kind == "graphic":
        if not args.edges_file:
            raise _UsageError("graphic needs --edges-file")
        e = graphic_representation(_read_graph(args.edges_file))
    elif args.kind == "k5":
        e = m_k5()
    else:  # direct-sum
        if len(args.inputs) != 2:
            raise _UsageError("direct-sum needs exactly two --in inputs")
        e = direct_sum(_read_pointset(args.inputs[0]), _read_pointset(args.inputs[1]))
    _emit_pointset(e, args.format)
    return 0


def _cmd_analyze(args) -> int:
    try:
        levels = [int(x) for x in args.levels.split(",") if x.strip()]
    except ValueError:
        raise _UsageError(f"bad --levels value {args.levels!r}") from None
    e = _read_pointset(args.input)
    report = analyze(e, levels, find_flat=not args.no_find_flat)
    print(json.dumps(report.to_json_obj()))
    return 0


def _cmd_spectrum(args) -> int:
    if args.top is not None and args.top < 0:
        raise _UsageError(f"--top must be >= 0, got {args.top}")
    coeffs = walsh_hadamard(_read_pointset(args.input)).coeffs
    print("gamma,coefficient")
    if args.top is not None:
        # a stable sort keeps ascending gamma among equal magnitudes
        order = np.argsort(-np.abs(coeffs), kind="stable")[: args.top]
        for g, v in zip(order.tolist(), coeffs[order].tolist()):
            print(f"{g},{v}")
    else:
        for g, v in enumerate(coeffs.tolist()):
            print(f"{g},{v}")
    return 0


def _cmd_count_triangles(args) -> int:
    e = _read_pointset(args.input)
    t = _checked_triangle_count(e)
    print(json.dumps({"ordered_triples": t, "triangles": t // 6}))
    return 0


def _cmd_find_flat(args) -> int:
    e = _read_pointset(args.input)
    result, trace = find_triangle_free_flat(e, args.level, args.strategy)
    obj = result.to_json_obj()
    obj["strategy"] = args.strategy
    if trace is not None:
        obj["trace"] = trace.to_json_obj()
    print(json.dumps(obj))
    return 0


def _cmd_cone(args) -> int:
    e = _read_pointset(args.input)
    _emit_pointset(cone(e, args.point), args.format)
    return 0


def _cmd_verify(args) -> int:
    density = None
    if args.density_filter is not None:
        try:
            density = Fraction(args.density_filter)
        except (ValueError, ZeroDivisionError):
            raise _UsageError(f"bad --density-filter {args.density_filter!r}") from None
    if args.checks is None:
        checks = applicable_checks(args.rank, args.level)
    else:
        checks = tuple(c.strip() for c in args.checks.split(",") if c.strip())
    cfg = SweepConfig(
        rank=args.rank,
        level=args.level,
        mode=args.mode,
        sample_count=args.samples,
        rng_seed=args.seed,
        density_filter=density,
        checks=checks,
    )
    outcome = run_sweep(cfg)
    text = outcome.to_canonical_json()
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(text + "\n")
    else:
        print(text)
    if args.csv:
        with open(args.csv, "w", encoding="utf-8") as fh:
            fh.write(extremal_records_csv(outcome))
    print(f"wall time: {outcome.wall_time_seconds:.3f}s", file=sys.stderr)
    return 2 if outcome.total_violations else 0


_COMMANDS = {
    "construct": _cmd_construct,
    "analyze": _cmd_analyze,
    "spectrum": _cmd_spectrum,
    "count-triangles": _cmd_count_triangles,
    "find-flat": _cmd_find_flat,
    "cone": _cmd_cone,
    "verify": _cmd_verify,
}


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
        return _COMMANDS[args.command](args)
    except _UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return 1
    except (PointSetParseError, ConfigError, GeometryError, HypothesisError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except InternalInconsistencyError as exc:
        print(f"check violation: {exc}", file=sys.stderr)
        return 2
    except (ResourceCapError, RankCapError) as exc:
        print(f"resource cap: {exc}", file=sys.stderr)
        return 3
    except SystemExit as exc:  # argparse -h
        return int(exc.code or 0)
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
