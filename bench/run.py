"""Benchmark of the randic CLI, end to end and layer by layer.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the repository root; the package is taken from ./src.  The
workloads are defined in workloads.py.  Each timed pass is a fresh
``python -m randic.cli`` process, one at a time (a closed loop with one
client), repeated until S seconds have passed; every pass's output is
checked against the oracle.

--trace 0 reports the end-to-end metrics, medians over the passes:
graphs_per_s and edges_per_s (input graphs and edges over wall time),
cpu_s and peak_rss_mb (user + system CPU and the largest resident set of
the pass's process tree, from wait4), and setup_s (median wall time of a
fresh interpreter running ``import randic.cli``).

--trace 1 alternates an untraced pass with a traced one (tracing.py, one
worker process) and reports the per-layer metrics.  Per-layer numbers
compare only with other traced runs; end-to-end numbers never come from a
traced pass.

The last line of stdout is one JSON object with ``correct``, ``attempted``
and ``failed`` (input graphs) and the metrics named in BENCHMARK.json.
Lines before it give provenance, input hashes and every metric with its
unit.  Inputs and a full record go to .bench_work/ under the root.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import signal
import subprocess
import sys
import threading
import time
from dataclasses import dataclass
from pathlib import Path
from statistics import median

import tracing
from workloads import WORKLOADS, Prepared

ROOT = Path(__file__).resolve().parent.parent
BENCH = Path(__file__).resolve().parent
#: A run stops starting passes, and kills a running one, this long after start.
RUN_LIMIT_S = 170.0
SETUP_SAMPLES = 31


@dataclass
class Pass:
    wall_s: float
    cpu_s: float
    rss_mb: float
    exit_code: int
    failed: int = 0


def _kill_group(pgid: int) -> None:
    try:
        os.killpg(pgid, signal.SIGKILL)
    except (ProcessLookupError, PermissionError):
        pass


def run_process(cmd: list[str], env: dict, stdin: Path | None, stdout: Path,
                stderr: Path, timeout: float) -> Pass:
    """Run cmd in its own process group; time it and read its rusage.

    The leader is waited for without reaping (so its group id stays
    taken), its group is killed in case a descendant outlived it, and
    only then is it reaped with wait4, whose rusage covers the whole
    tree of reaped descendants.
    """
    with open(stdin or os.devnull, "rb") as fin, open(stdout, "wb") as fout, \
            open(stderr, "wb") as ferr:
        start = time.perf_counter()
        proc = subprocess.Popen(cmd, stdin=fin, stdout=fout, stderr=ferr,
                                env=env, cwd=ROOT, start_new_session=True)
        timer = threading.Timer(timeout, _kill_group, (proc.pid,))
        timer.start()
        try:
            os.waitid(os.P_PID, proc.pid, os.WEXITED | os.WNOWAIT)
            wall = time.perf_counter() - start
        finally:
            timer.cancel()
            _kill_group(proc.pid)
            _, status, usage = os.wait4(proc.pid, 0)
            proc.returncode = os.waitstatus_to_exitcode(status)
    return Pass(wall_s=wall, cpu_s=usage.ru_utime + usage.ru_stime,
                rss_mb=usage.ru_maxrss / 1024, exit_code=proc.returncode)


class Runner:
    def __init__(self, workdir: Path, deadline: float):
        self.workdir = workdir
        self.deadline = deadline
        self.env = {k: v for k, v in os.environ.items()
                    if k not in ("PYTHONPATH", "RANDIC_JOBS", "PYTHONSTARTUP")}
        self.env["PYTHONPATH"] = str(ROOT / "src")
        self.env["TMPDIR"] = str(workdir / "tmp")
        (workdir / "tmp").mkdir(parents=True, exist_ok=True)

    def run(self, args: list[str], stdin: Path | None = None) -> tuple[Pass, str]:
        out, err = self.workdir / "stdout.txt", self.workdir / "stderr.txt"
        timeout = max(1.0, self.deadline - time.perf_counter())
        result = run_process([sys.executable] + args, self.env, stdin, out, err, timeout)
        if result.exit_code != 0:
            print(f"pass exited {result.exit_code}: "
                  f"{err.read_text(errors='replace')[-500:]}", file=sys.stderr)
        return result, out.read_text(errors="replace")

    def cli_pass(self, prep: Prepared, traced_to: Path | None = None) -> Pass:
        if traced_to is None:
            args = ["-m", "randic.cli"] + prep.argv
        else:
            args = [str(BENCH / "tracing.py"), str(traced_to), "--"] + prep.traced_argv
        result, out = self.run(args, prep.stdin)
        result.failed = prep.graphs if result.exit_code else prep.check(out)
        return result

    def package_file(self) -> str:
        result, out = self.run(["-c", "import randic.cli; print(randic.cli.__file__)"])
        return out.strip() if result.exit_code == 0 else ""

    def setup_s(self, samples: int) -> list[float]:
        return [self.run(["-c", "import randic.cli"])[0].wall_s for _ in range(samples)]


def span_totals(records: list[dict]) -> dict[str, list]:
    """Per span name: [calls, self_s], summed over enclosing spans."""
    totals = {name: [0, 0.0] for name in tracing.SPAN_NAMES}
    for rec in records:
        totals[rec["span"]][0] += rec["calls"]
        totals[rec["span"]][1] += rec["self_s"]
    return totals


def layer_metrics(prep: Prepared, plain: list[Pass], traced: list[Pass],
                  traces: list[dict]) -> dict:
    """Every per-layer number of a trace run.  Rates over a span that the
    workload never enters read 0."""
    spans = {name: (traces[0][name][0], median(t[name][1] for t in traces))
             for name in tracing.SPAN_NAMES}
    table = {}
    for name, (calls, self_s) in spans.items():
        table[f"{name}.calls"] = calls
        table[f"{name}.self_s"] = self_s
    rates = (("enumeration.enumerate_graphs.graphs_per_s", "enumeration.enumerate_graphs",
              prep.graphs),
             ("graphs.parse_graph6.bytes_per_s", "graphs.parse_graph6",
              sum(i["bytes"] for i in prep.inputs)),
             ("graphs.parse_edge_list.lines_per_s", "graphs.parse_edge_list",
              prep.edges + 1))
    for metric, span, work in rates:
        calls, self_s = spans[span]
        table[metric] = work / self_s if calls and self_s > 0 else 0.0
    table["enumeration.pool.efficiency"] = median(
        p.cpu_s / (p.wall_s * prep.jobs) for p in plain)
    table["enumeration.pool.idle_s"] = median(
        prep.jobs * p.wall_s - p.cpu_s for p in plain)
    table["index.pair_histograms_per_graph"] = (
        spans["index.randic_direct"][0] + spans["graphs.degree_profile"][0]) / prep.graphs
    table["trace.overhead"] = (median(p.wall_s for p in traced)
                               / median(p.cpu_s for p in plain))
    return table


def end_to_end_metrics(prep: Prepared, plain: list[Pass], setup: list[float]) -> dict:
    return {
        "graphs_per_s": median(prep.graphs / p.wall_s for p in plain),
        "edges_per_s": median(prep.edges / p.wall_s for p in plain),
        "cpu_s": median(p.cpu_s for p in plain),
        "peak_rss_mb": median(p.rss_mb for p in plain),
        "setup_s": median(setup),
    }


def provenance(args, prep: Prepared, plain: list[Pass], traced: list[Pass]) -> dict:
    commit = None
    if (ROOT / ".git").exists():  # a benchmark checkout need not be a repository
        try:
            git = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                                 capture_output=True, text=True, check=False)
            commit = git.stdout.strip() or None
        except OSError:
            pass
    return {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "nproc": os.cpu_count(),
        "python": platform.python_version(), "platform": platform.platform(),
        "commit": commit, "command": ["python", "-m", "randic.cli"] + prep.argv,
        "jobs": prep.jobs, "graphs_per_pass": prep.graphs,
        "edges_per_pass": prep.edges, "inputs": prep.inputs,
        "passes": len(plain), "traced_passes": len(traced),
        "setup_samples": 0 if args.trace else SETUP_SAMPLES,
    }


def run_workload(args, benchmark: dict, size=None) -> dict:
    """Prepare, measure and check one workload; returns the result record."""
    started = time.perf_counter()
    workdir = ROOT / ".bench_work" / args.workload
    workdir.mkdir(parents=True, exist_ok=True)
    runner = Runner(workdir, started + RUN_LIMIT_S)
    package = runner.package_file()  # also fills the bytecode cache
    if not package.startswith(str(ROOT / "src") + os.sep):
        raise SystemExit(f"randic must import from {ROOT / 'src'}, got {package!r}")
    prepare = WORKLOADS[args.workload]
    prep = prepare(args.seed, workdir) if size is None else prepare(args.seed, workdir, size)
    setup = [] if args.trace else runner.setup_s(SETUP_SAMPLES)

    plain: list[Pass] = []
    traced: list[Pass] = []
    traces: list[dict] = []
    stop = time.perf_counter() + args.seconds
    while True:
        plain.append(runner.cli_pass(prep))
        if args.trace:
            spans_file = workdir / "spans.json"
            spans_file.unlink(missing_ok=True)
            traced.append(runner.cli_pass(prep, traced_to=spans_file))
            if traced[-1].exit_code == 0:
                traces.append(span_totals(json.loads(spans_file.read_text())))
        if plain[-1].exit_code or (traced and traced[-1].exit_code):
            break
        if time.perf_counter() >= stop:
            break

    all_passes = plain + traced
    attempted = prep.graphs * len(all_passes)
    failed = sum(p.failed for p in all_passes)
    if args.trace:
        if not traces:
            raise SystemExit("no traced pass completed")
        table = layer_metrics(prep, plain, traced, traces)
        wanted = benchmark["per_layer"]
    else:
        table = end_to_end_metrics(prep, plain, setup)
        wanted = benchmark["end_to_end"]
    metrics = {m["name"]: {"value": table[m["name"]], "unit": m["unit"]} for m in wanted}
    return {
        "provenance": provenance(args, prep, plain, traced),
        "passes": [vars(p) for p in all_passes],
        "setup_s_samples": setup,
        "table": table,
        "result": {"correct": failed == 0 and all(p.exit_code == 0 for p in all_passes),
                   "attempted": attempted, "failed": failed, "metrics": metrics},
    }


def _units(benchmark: dict) -> dict:
    units = {m["name"]: m["unit"] for m in benchmark["end_to_end"] + benchmark["per_layer"]}
    units.update({"graphs.parse_graph6.bytes_per_s": "B/s",
                  "graphs.parse_edge_list.lines_per_s": "lines/s",
                  "enumeration.enumerate_graphs.graphs_per_s": "graphs/s"})
    return units


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "randic" / "cli.py").is_file():
        print(f"error: no randic sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    benchmark = json.loads((ROOT / "BENCHMARK.json").read_text())
    record = run_workload(args, benchmark)

    units = _units(benchmark)
    result = record["result"]
    print("provenance " + json.dumps(record["provenance"], sort_keys=True))
    print(f"checked {result['attempted']} graphs, {result['failed']} failed, "
          f"failure_ratio {result['failed'] / result['attempted']:.6g}")
    for name, value in sorted(record["table"].items()):
        unit = units.get(name, "s" if name.endswith("_s") else "count")
        print(f"metric {name} = {value:.9g} {unit}")
    (ROOT / ".bench_work" / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
     ).write_text(json.dumps(record, indent=1, sort_keys=True))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
