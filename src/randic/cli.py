"""Command-line interface.

Subcommands: compute, bounds, construct, enumerate, verify.  Graphs are read
from a file or stdin ("-") in edge-list or graph6 format; graph6 input is
streamed one graph per line, a chunk of lines at a time, so the tool
composes in shell pipelines.

Exit codes: 0 success, 2 usage or input error, 3 bound violation found
(a counterexample to a verified theorem -- never expected).
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import sys
from contextlib import closing, nullcontext
from itertools import chain, islice
from typing import Callable, Iterator

from .bounds import bounds_report
from .constructions import build_biregular, build_degree_chain, degree_chain_certificate
from .enumeration import (CSV_COLUMNS, MAX_VERTICES, _cap_jobs, _pool_map,
                          extremal_scan, verify_theorems)
from .graphs import (Graph, GraphFormatError, biregular_certificate,
                     degree_multiset, format_edge_list, parse_edge_list,
                     parse_graph6, to_graph6)
from .index import IDENTITY_TOLERANCE, randic_direct, randic_deviation

EXIT_OK = 0
EXIT_USAGE = 2
EXIT_VIOLATION = 3

#: graph6 input is read and evaluated in chunks of lines of about this many
#: bytes (about 440 graphs of n 20..62, 90 ms of ``bounds``), and spread
#: over a pool by ``enumeration._pool_map`` once it is longer than one
#: chunk: on 2 CPUs a pool is slower than one process on one chunk and
#: faster from two chunks on.
_CHUNK_BYTES = 1 << 16


def _fmt(x: float) -> str:
    return format(x, ".15g")


def _cell(x) -> str:
    """A CSV or text cell: reals at 15 significant digits, flags as 0/1 and
    None as empty."""
    if x is None:
        return ""
    if isinstance(x, float):
        return _fmt(x)
    return str(int(x) if isinstance(x, bool) else x)


def _json_ready(obj):
    """Round floats to 15 significant digits so JSON output is stable."""
    if isinstance(obj, float):
        return float(_fmt(obj))
    if isinstance(obj, dict):
        return {k: _json_ready(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_json_ready(v) for v in obj]
    return obj


def _dump_json(obj) -> str:
    # the default separators, ", " and ": ", reuse json's shared encoder
    return json.dumps(_json_ready(obj))


def _csv_lines(row: dict) -> tuple[str, str]:
    """The CSV header and record of one row, as csv.writer writes them."""
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(row.keys())
    header = buf.getvalue()
    writer.writerow(map(_cell, row.values()))
    return header, buf.getvalue()[len(header):]


def _compute_output(g: Graph, form: str) -> tuple[str, str, str, bool]:
    """compute on one graph, in form "text", "json" or "csv": (the CSV
    header, or "" in the other forms; the stdout line; the stderr text;
    False, since compute checks no bound)."""
    rv = randic_direct(g)
    dev = randic_deviation(g)
    residual = abs(rv.value - dev)
    # both forms round to a few ulp of values up to n/2, so past the
    # n <= 62 of graph6 the tolerance grows with n
    tolerance = IDENTITY_TOLERANCE * max(1, g.n / 62)
    warning = (f"warning: identity residual {residual:.3g} exceeds "
               f"tolerance {tolerance:.3g}\n" if residual > tolerance else "")
    pairs = sorted(rv.pair_counts.items())
    row = {"n": g.n, "m": g.m, "randic": rv.value, "deviation": dev,
           "residual": residual,
           "pairs": [[i, j, c] for (i, j), c in pairs]}
    if form == "json":
        return "", _dump_json(row) + "\n", warning, False
    row["pairs"] = ";".join(f"({i},{j})x{c}" for (i, j), c in pairs)
    if form == "csv":
        return (*_csv_lines(row), warning, False)
    return ("", " ".join(f"{k}={_cell(v)}" for k, v in row.items()) + "\n",
            warning, False)


def _bounds_output(g: Graph, form: str) -> tuple[str, str, str, bool]:
    """bounds on one graph, in form "text", "json" or "csv": (the CSV
    header, or "" in the other forms; the stdout line; the stderr text;
    whether g violates a bound)."""
    report = bounds_report(g)
    violation = report.lower_sign < 0 or (report.upper_sign or 0) < 0
    # graph6 encodes only n <= 62
    err = (f"BOUND VIOLATION on "
           f"{to_graph6(g) if g.n <= 62 else f'n={g.n} m={g.m} graph'}\n"
           if violation else "")
    if form == "json":
        return "", _dump_json(report.to_json_dict()) + "\n", err, violation
    if form == "csv":
        # the JSON row, less the omission reason, with each certificate
        # as a flag
        row = report.to_json_dict()
        row.pop("upperBoundOmitted", None)
        for key in ("lowerEquality", "upperEquality"):
            row[key] = row[key] is not None
        return (*_csv_lines(row), err, violation)
    upper = ("omitted(disconnected)" if report.upper is None
             else _fmt(report.upper))
    upper_slack = ("-" if report.upper_slack is None
                   else _fmt(report.upper_slack))
    return ("", f"n={report.n} d={report.d} D={report.D} "
                f"randic={_fmt(report.randic)} lower={_fmt(report.lower)} "
                f"upper={upper} baseline={_fmt(report.baseline)} "
                f"lowerSlack={_fmt(report.lower_slack)} upperSlack={upper_slack} "
                f"lowerEquality={'yes' if report.lower_equality else 'no'} "
                f"upperEquality={'yes' if report.upper_equality else 'no'}"
                + (" regular" if report.regular else "") + "\n",
            err, violation)


def _chunk_output(output: Callable, form: str, lines: list[bytes],
                  lineno: int) -> tuple:
    """output(g, form) for the graph of every graph6 line, the first of
    them line ``lineno`` of the input, and blank lines skipped: (the first
    CSV header; the stdout texts and the stderr texts, each joined; whether
    some graph violates a bound; the error of the first line that fails to
    parse or evaluate, prefixed by its number, or None).  The lines after a
    failing one are not read."""
    header, outs, errs, violation = "", [], [], False
    for lineno, raw in enumerate(lines, start=lineno):
        line = raw.decode("latin-1")
        if not line.strip(" \t\r\n"):
            continue
        try:
            head, out, err, bad = output(parse_graph6(line), form)
        except ValueError as exc:
            return (header, "".join(outs), "".join(errs), violation,
                    type(exc)(f"line {lineno}: {exc}"))
        header = header or head
        outs.append(out)
        errs.append(err)
        violation = violation or bad
    return header, "".join(outs), "".join(errs), violation, None


def _numbered_chunks(fh) -> Iterator[tuple[list[bytes], int]]:
    """(lines, number of the first) for each chunk of about _CHUNK_BYTES
    of fh's lines, split on "\\n" only."""
    lineno = 1
    for lines in iter(lambda: fh.readlines(_CHUNK_BYTES), []):
        yield lines, lineno
        lineno += len(lines)


def _read_graphs(path: str, fmt: str, output: Callable,
                 form: str) -> Iterator[tuple[str, str, str, bool]]:
    """Yield output(g, form) = (CSV header, stdout text, stderr text,
    violation) over the input graphs, in input order.

    Edge-list input holds a single graph.  graph6 input holds one graph per
    line and is read and evaluated in chunks of lines (_chunk_output), one
    tuple per chunk; input longer than one chunk is evaluated on a pool of
    one worker per usable CPU, with at most two chunks per worker in flight.
    An error parsing or evaluating a line's graph is raised, prefixed by its
    line number, after the output of the lines before it.
    """
    # input is read as bytes and decoded as latin-1, which maps each byte to
    # the code point of its value: the parsers then report a non-ASCII byte
    # on its line, from a file and from stdin alike
    with (nullcontext(sys.stdin.buffer) if path == "-"
          else open(path, "rb")) as fh:
        if fmt == "edgelist":
            yield output(parse_edge_list(fh.read().decode("latin-1")), form)
            return
        chunks = _numbered_chunks(fh)
        head = list(islice(chunks, 2))
        jobs = _cap_jobs(sys.maxsize) if len(head) > 1 else 1
        tasks = ((output, form, lines, lineno)
                 for lines, lineno in chain(head, chunks))
        with closing(_pool_map(_chunk_output, tasks, jobs)) as results:
            for header, out, err, violation, error in results:
                yield header, out, err, violation
                if error is not None:
                    raise error


def _write_reports(args, output: Callable) -> int:
    """Write output's text for every input graph, the CSV header once
    before the first row; EXIT_VIOLATION if some graph violates a bound."""
    form = "json" if args.json else "csv" if args.csv else "text"
    header_written = violation = False
    with closing(_read_graphs(args.input, args.format, output, form)) as reports:
        for header, out, err, bad in reports:
            if header and not header_written:
                sys.stdout.write(header)
                header_written = True
            sys.stderr.write(err)
            sys.stdout.write(out)
            violation = violation or bad
    return EXIT_VIOLATION if violation else EXIT_OK


def cmd_compute(args) -> int:
    return _write_reports(args, _compute_output)


def cmd_bounds(args) -> int:
    return _write_reports(args, _bounds_output)


def cmd_construct(args) -> int:
    if args.kind == "family":
        if args.scale is not None:
            raise ValueError("--scale applies only to biregular constructions")
        g = build_degree_chain(args.d, args.D)
        cert = degree_chain_certificate(g)
        tight = "upper"
        cert_text = ("chain certificate: cross edges "
                     + ", ".join(f"({u},{v})" for u, v in cert.cross_edges))
    else:
        g = build_biregular(args.d, args.D, 1 if args.scale is None else args.scale)
        cert = biregular_certificate(g)
        tight = "lower"
        cert_text = f"biregular certificate: degrees ({cert.a},{cert.b})"
    value = randic_direct(g).value
    degrees = degree_multiset(g)
    if args.json:
        doc = {
            "kind": args.kind, "d": args.d, "D": args.D,
            "graph6": to_graph6(g), "n": g.n, "m": g.m,
            "degreeMultiset": {str(k): v for k, v in degrees.items()},
            "randic": value, "tight": tight,
        }
        if args.kind == "biregular":
            doc["scale"] = 1 if args.scale is None else args.scale
        print(_dump_json(doc))
        return EXIT_OK
    # graph on stdout, human summary on stderr, so the graph pipes cleanly
    if args.format == "edgelist":
        sys.stdout.write(format_edge_list(g))
    else:
        print(to_graph6(g))
    deg_text = " ".join(f"{k}x{v}" for k, v in degrees.items())
    print(f"n={g.n} m={g.m} degrees {deg_text} randic={_fmt(value)}",
          file=sys.stderr)
    print(f"{tight} bound tight ({cert_text})", file=sys.stderr)
    return EXIT_OK


def _check_cap(n_max: int) -> None:
    if n_max > MAX_VERTICES:
        raise ValueError(
            f"--max-n is capped at {MAX_VERTICES} (exhaustive enumeration only)")
    if n_max == MAX_VERTICES:
        print(f"note: n = {MAX_VERTICES} scans take 19-23 CPU-minutes "
              "(about 66.6 billion graphs)", file=sys.stderr)


def cmd_enumerate(args) -> int:
    _check_cap(args.max_n)
    summaries = extremal_scan(args.max_n, connected_only=args.connected,
                              jobs=args.jobs)
    violations = sum(s.lower_violations + s.upper_violations for s in summaries)
    if args.json:
        for s in summaries:
            print(_dump_json(s.to_json_dict()))
    elif args.csv:
        writer = csv.writer(sys.stdout, lineterminator="\n")
        writer.writerow(CSV_COLUMNS)
        for s in summaries:
            writer.writerow(map(_cell, s))
    else:
        print(f"{'n':>2} {'d':>2} {'D':>2} {'count':>8} {'minR':>18} "
              f"{'maxR':>18} {'viol':>5} {'eq(lo/up)':>10}  argmin")
        for s in summaries:
            print(f"{s.n:>2} {s.d:>2} {s.D:>2} {s.class_count:>8} "
                  f"{_fmt(s.min_randic):>18} {_fmt(s.max_randic):>18} "
                  f"{s.lower_violations + s.upper_violations:>5} "
                  f"{s.lower_equality_witnesses:>4}/{s.upper_equality_witnesses:<5} "
                  f"{s.argmin_graph6}")
    return EXIT_VIOLATION if violations else EXIT_OK


def cmd_verify(args) -> int:
    _check_cap(args.max_n)
    report = verify_theorems(args.max_n, jobs=args.jobs)
    if args.json:
        print(_dump_json(report.to_json_dict()))
    else:
        for c in report.checks:
            line = f"{c.name:<16} {c.checked:>9} checked {c.failures:>6} failures"
            if c.counterexample:
                line += f"  counterexample {c.counterexample}"
            print(line)
        if report.ok:
            print(f"all theorems verified (n <= {report.max_n}, "
                  f"{report.graphs} graphs)")
        else:
            print("VIOLATIONS FOUND")
    return EXIT_OK if report.ok else EXIT_VIOLATION


def _add_input_options(p: argparse.ArgumentParser) -> None:
    p.add_argument("--input", "-i", default="-", metavar="PATH",
                   help="input file, or '-' for stdin (default)")
    p.add_argument("--format", choices=("edgelist", "graph6"),
                   default="edgelist",
                   help="input format; graph6 reads one graph per line")


def _add_output_options(p: argparse.ArgumentParser) -> None:
    group = p.add_mutually_exclusive_group()
    group.add_argument("--json", action="store_true",
                       help="emit JSON (one object per line)")
    group.add_argument("--csv", action="store_true", help="emit CSV")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="randic",
        description="Randic index, sharp degree bounds with certificates, "
                    "extremal constructions, and exhaustive verification")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("compute", help="index of input graphs, both forms")
    _add_input_options(p)
    _add_output_options(p)
    p.set_defaults(func=cmd_compute)

    p = sub.add_parser("bounds", help="bounds report with equality certificates")
    _add_input_options(p)
    _add_output_options(p)
    p.set_defaults(func=cmd_bounds)

    p = sub.add_parser("construct", help="build an extremal witness graph")
    p.add_argument("kind", choices=("biregular", "family"))
    p.add_argument("d", type=int)
    p.add_argument("D", type=int)
    p.add_argument("--scale", type=int, default=None,
                   help="part-size multiplier (biregular only)")
    p.add_argument("--format", choices=("graph6", "edgelist"), default="graph6",
                   help="output format for the constructed graph")
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=cmd_construct)

    p = sub.add_parser("enumerate", help="extremal scan over small graphs")
    p.add_argument("--max-n", type=int, required=True)
    p.add_argument("--connected", action="store_true",
                   help="restrict the scan to connected graphs")
    p.add_argument("--jobs", type=int, default=sys.maxsize, metavar="N",
                   help="worker processes for n >= 8, at most the usable "
                        "CPUs (default: all of them)")
    _add_output_options(p)
    p.set_defaults(func=cmd_enumerate)

    p = sub.add_parser("verify", help="exhaustively verify every bound and identity")
    p.add_argument("--max-n", type=int, required=True)
    p.add_argument("--jobs", type=int, default=sys.maxsize, metavar="N",
                   help="worker processes for n >= 8, at most the usable "
                        "CPUs (default: all of them)")
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=cmd_verify)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (GraphFormatError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
