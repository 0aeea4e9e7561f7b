"""Per-layer spans for the traced pass, recorded from outside randic.

``traced(tracer)`` rebinds each module-level name in SPANS -- in every
``randic`` module that holds it, since callers look names up at call time
-- to a wrapper that opens a span around the call, and restores the
originals on exit.  Nothing under src/ is edited.  A span's self time is
its duration minus the time of the spans it encloses, kept on a stack.
Spans are aggregated in memory by (span, enclosing span) and written when
the traced CLI exits.

Run as a script, it runs one traced CLI invocation::

    PYTHONPATH=src python3 bench/tracing.py SPANS.json -- verify --max-n 6 --jobs 1
"""

from __future__ import annotations

import functools
import importlib
import inspect
import json
import sys
import time
from contextlib import contextmanager

#: (span name, owning module, attribute path).  enumerate_graphs is a
#: generator: its span times each next(), not the caller's loop body.
SPANS = (
    ("enumeration.enumerate_graphs", "randic.enumeration", "enumerate_graphs"),
    ("enumeration.driver", "randic.enumeration", "verify_theorems"),
    ("enumeration.driver", "randic.enumeration", "extremal_scan"),
    ("enumeration.canonical_graph6", "randic.enumeration", "canonical_graph6"),
    ("index.randic_direct", "randic.index", "randic_direct"),
    ("index.randic_deviation", "randic.index", "randic_deviation"),
    ("bounds.decomposition_residual", "randic.bounds", "decomposition_residual"),
    ("bounds.bounds_report", "randic.bounds", "bounds_report"),
    ("bounds.lower_bound", "randic.bounds", "lower_bound"),
    ("bounds.upper_bound", "randic.bounds", "upper_bound"),
    ("graphs.degree_profile", "randic.graphs", "degree_profile"),
    ("graphs.is_connected", "randic.graphs", "is_connected"),
    ("graphs.biregular_certificate", "randic.graphs", "biregular_certificate"),
    ("graphs.parse_graph6", "randic.graphs", "parse_graph6"),
    ("graphs.parse_edge_list", "randic.graphs", "parse_edge_list"),
    ("graphs.to_graph6", "randic.graphs", "to_graph6"),
    ("graphs.Graph.__post_init__", "randic.graphs", "Graph.__post_init__"),
    ("constructions.degree_chain_certificate", "randic.constructions",
     "degree_chain_certificate"),
    ("cli.main", "randic.cli", "main"),
)

SPAN_NAMES = tuple(dict.fromkeys(name for name, _, _ in SPANS))


class Tracer:
    """Span stack plus per-(span, parent) totals: calls, self and total time."""

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.stack: list[list] = []  # [name, start, time in child spans]
        self.totals: dict[tuple[str, str], list] = {}

    def enter(self, name: str) -> None:
        self.stack.append([name, self.clock(), 0.0])

    def exit(self) -> None:
        name, start, child = self.stack.pop()
        duration = self.clock() - start
        parent = self.stack[-1] if self.stack else None
        if parent is not None:
            parent[2] += duration
        entry = self.totals.setdefault((name, parent[0] if parent else ""), [0, 0.0, 0.0])
        entry[0] += 1
        entry[1] += duration - child
        entry[2] += duration

    def records(self) -> list[dict]:
        return [{"span": name, "parent": parent, "calls": calls,
                 "self_s": self_s, "total_s": total_s}
                for (name, parent), (calls, self_s, total_s) in sorted(self.totals.items())]


def _wrap(fn, name: str, tracer: Tracer):
    if inspect.isgeneratorfunction(fn):
        @functools.wraps(fn)
        def traced_generator(*args, **kwargs):
            it = fn(*args, **kwargs)
            while True:
                tracer.enter(name)
                try:
                    item = next(it)
                except StopIteration:
                    return
                finally:
                    tracer.exit()
                yield item
        return traced_generator

    @functools.wraps(fn)
    def traced_call(*args, **kwargs):
        tracer.enter(name)
        try:
            return fn(*args, **kwargs)
        finally:
            tracer.exit()
    return traced_call


def _owner(module: str, path: str):
    obj = importlib.import_module(module)
    *outer, attr = path.split(".")
    for part in outer:
        obj = getattr(obj, part)
    return obj, attr


@contextmanager
def traced(tracer: Tracer):
    """Rebind every SPANS name in the loaded randic modules; restore on exit."""
    import randic.cli  # noqa: F401  -- loads every randic module
    undo: list[tuple[object, str, object]] = []
    try:
        for name, module, path in SPANS:
            owner, attr = _owner(module, path)
            original = getattr(owner, attr)
            wrapper = _wrap(original, name, tracer)
            holders = [owner] + [m for key, m in sys.modules.items()
                                 if key == "randic" or key.startswith("randic.")]
            for holder in holders:
                for key, value in list(vars(holder).items()):
                    if value is original:
                        undo.append((holder, key, original))
                        setattr(holder, key, wrapper)
        yield tracer
    finally:
        for holder, key, original in reversed(undo):
            setattr(holder, key, original)


def main(argv: list[str]) -> int:
    out, sep, *cli_args = argv
    if sep != "--":
        raise SystemExit("usage: tracing.py SPANS.json -- CLI-ARGS...")
    tracer = Tracer()
    with traced(tracer):
        import randic.cli
        try:
            code = randic.cli.main(cli_args)
        finally:
            sys.stdout.flush()
            with open(out, "w", encoding="utf-8") as fh:
                json.dump(tracer.records(), fh)
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
