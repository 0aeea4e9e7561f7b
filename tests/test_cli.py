import io
import json
import multiprocessing
import os
import subprocess
import sys
from pathlib import Path

import pytest

from randic import (build_biregular, build_degree_chain, format_edge_list,
                    to_graph6)
import randic.cli
import randic.enumeration
from randic.cli import main
from randic.enumeration import VerificationReport


STAR4_EDGELIST = "4\n0 1\n0 2\n0 3\n"


def run(capsys, argv, stdin=None, monkeypatch=None):
    """Run the CLI in-process; stdin (str or bytes) gets a byte buffer
    underneath, as a real process's does."""
    if stdin is not None:
        data = stdin.encode() if isinstance(stdin, str) else stdin
        monkeypatch.setattr("sys.stdin", io.TextIOWrapper(io.BytesIO(data)))
    code = main(argv)
    out = capsys.readouterr()
    return code, out.out, out.err


# ── compute ───────────────────────────────────────────────────────────

def test_compute_star_text(capsys, monkeypatch, tmp_path):
    path = tmp_path / "star.txt"
    path.write_text(STAR4_EDGELIST)
    code, out, _ = run(capsys, ["compute", "-i", str(path)])
    assert code == 0
    assert out.startswith("n=4 m=3 randic=1.73205080756888 ")
    assert "pairs=(1,3)x3" in out


def test_compute_stdin_default(capsys, monkeypatch):
    code, out, _ = run(capsys, ["compute"], stdin=STAR4_EDGELIST,
                       monkeypatch=monkeypatch)
    assert code == 0 and "randic=1.73205080756888" in out


def test_compute_graph6_stream(capsys, monkeypatch):
    code, out, _ = run(capsys, ["compute", "--format", "graph6"],
                       stdin="Dhc\nC~\n", monkeypatch=monkeypatch)
    assert code == 0
    lines = out.strip().splitlines()
    assert len(lines) == 2
    assert lines[0].startswith("n=5 m=5 randic=2.5 ")       # C5
    assert lines[1].startswith("n=4 m=6 randic=2 ")         # K4


def test_graph6_error_names_its_line(capsys, monkeypatch):
    # only " \t\r\n" count as blank, so CRLF lines are still read; a graph
    # that decodes but that the commands reject names its line too
    first_rows = {"compute": "n=5 m=5 randic=2.5 ",        # C5 streamed out first
                  "bounds": "n=5 d=2 D=2 randic=2.5 "}
    for stdin, message in (("Dhc\nbad!\n", "line 2:"),
                           ("Dhc\r\n\x0b\r\n", "line 2: invalid graph6 byte 11 "),
                           ("Dhc\nDhc\x0c\n", "line 2: invalid graph6 byte 12 "),
                           ("Dhc\nC~\nBG\n", "line 3: isolated vertex present "
                                             "(all degrees must be positive)\n"),
                           ("Dhc\n?\n", "line 2: Randic index undefined for "
                                        "the empty graph\n")):
        for command, first_row in first_rows.items():
            code, out, err = run(capsys, [command, "--format", "graph6"],
                                 stdin=stdin, monkeypatch=monkeypatch)
            assert code == 2
            assert message in err
            assert err.startswith("error: line ")
            assert out.startswith(first_row)
    # edge-list input holds one graph, so its messages carry no line
    for command in first_rows:
        code, out, err = run(capsys, [command], stdin="3\n0 1\n",
                             monkeypatch=monkeypatch)
        assert (code, out) == (2, "")
        assert err == "error: isolated vertex present (all degrees must be positive)\n"


def test_graph6_non_ascii_byte_names_its_line(capsys, monkeypatch, tmp_path):
    # \xa0 and \x85 are whitespace to str.strip(), but neither blank nor graph6
    for data, byte in ((b"Dhc\nDh\xffc\n", 255), (b"Dhc\n\xa0\n", 160),
                       (b"Dhc\n\x85\n", 133), (b"Dhc\n\xa0Dhc\n", 160)):
        path = tmp_path / "bad.g6"
        path.write_bytes(data)
        for argv, stdin in ((["--input", str(path)], None), ([], data)):
            code, out, err = run(capsys, ["compute", "--format", "graph6", *argv],
                                 stdin=stdin, monkeypatch=monkeypatch)
            assert code == 2
            assert err.startswith(f"error: line 2: invalid graph6 byte {byte} ")
            assert out.startswith("n=5 m=5 randic=2.5 ")


def test_compute_json(capsys, monkeypatch):
    code, out, _ = run(capsys, ["compute", "--json"], stdin=STAR4_EDGELIST,
                       monkeypatch=monkeypatch)
    doc = json.loads(out)
    assert doc["n"] == 4 and doc["m"] == 3
    assert doc["randic"] == 1.73205080756888
    assert doc["pairs"] == [[1, 3, 3]]
    assert doc["residual"] <= 1e-12


def test_compute_csv(capsys, monkeypatch):
    code, out, _ = run(capsys, ["compute", "--csv"], stdin=STAR4_EDGELIST,
                       monkeypatch=monkeypatch)
    lines = out.strip().splitlines()
    assert lines[0] == "n,m,randic,deviation,residual,pairs"
    assert lines[1].startswith("4,3,1.73205080756888,")


def test_compute_malformed_input_exits_2(capsys, monkeypatch):
    code, _, err = run(capsys, ["compute"], stdin="3\n0 1\n1 1\n",
                       monkeypatch=monkeypatch)
    assert code == 2
    assert "self-loop" in err


@pytest.mark.parametrize("data, message", [
    ("3\n0 1\n1 ２\n".encode(),                  # a full-width digit
     "line 3: expected ASCII decimal integers, got '1 \\xef\\xbc\\x92'"),
    (b"3\n0 1\n\xff 2\n", "line 3: expected ASCII decimal integers"),
    (b"3\n0 1\xa02\n", "line 2: expected ASCII decimal integers"),
    (b"3\n0 1\n1_1 2\n", "line 3: expected ASCII decimal integers"),
    (b"3\n\x0c\n1 1\n",                          # \x0c is no blank
     "line 2: expected ASCII decimal integers, got '\\x0c'"),
    (b"3\n0\x1c1\n1 2\n",                        # nor a separator
     "line 2: expected ASCII decimal integers, got '0\\x1c1'"),
    (b"3\n0 1\x0b\n", "line 2: expected ASCII decimal integers"),
    (b"3\n0 1\n1\x1d2\n", "line 3: expected ASCII decimal integers"),
    (b"3\x1e\n0 1\n", "line 1: expected ASCII decimal integers"),
    (b"3\n0\x1f1\n", "line 2: expected ASCII decimal integers"),
    (b"3\n0\r1\n1 2\n",                        # a \r ends no line alone
     "line 2: expected ASCII decimal integers, got '0\\r1'"),
    (b"3\n\r0 1\n1 2\n",
     "line 2: expected ASCII decimal integers, got '\\r0 1'"),
])
def test_edge_list_error_names_its_line(capsys, monkeypatch, tmp_path, data,
                                        message):
    path = tmp_path / "bad.edges"
    path.write_bytes(data)
    for argv, stdin in ((["--input", str(path)], None), ([], data)):
        code, out, err = run(capsys, ["compute", *argv], stdin=stdin,
                             monkeypatch=monkeypatch)
        assert (code, out) == (2, "")
        assert err.startswith(f"error: {message}")


@pytest.mark.parametrize("fmt", [[], ["--json"], ["--csv"]])
def test_compute_reads_crlf_edge_list(capsys, monkeypatch, fmt):
    lf = run(capsys, ["compute", *fmt], stdin=STAR4_EDGELIST,
             monkeypatch=monkeypatch)
    crlf = run(capsys, ["compute", *fmt],
               stdin=STAR4_EDGELIST.replace("\n", "\r\n"),
               monkeypatch=monkeypatch)
    assert crlf == lf and lf[0] == 0


def test_compute_large_graph_warns_nothing(capsys, monkeypatch):
    # n = 200,000: both index forms round to a few ulp of values up to n/2,
    # so the residual (about 1.5e-11) is within the tolerance scaled by n/62
    stdin = format_edge_list(build_biregular(3, 7, 20000))
    code, out, err = run(capsys, ["compute"], stdin=stdin, monkeypatch=monkeypatch)
    assert (code, err) == (0, "")
    assert out.startswith("n=200000 m=420000 ")
    deviation = randic.cli.randic_deviation
    monkeypatch.setattr(randic.cli, "randic_deviation",
                        lambda g: deviation(g) + 1e-6)
    code, _, err = run(capsys, ["compute"], stdin=stdin, monkeypatch=monkeypatch)
    assert (code, err) == (
        0, "warning: identity residual 1e-06 exceeds tolerance 3.23e-09\n")


def test_small_graph_warns_at_the_contract_tolerance(capsys, monkeypatch):
    deviation = randic.cli.randic_deviation
    monkeypatch.setattr(randic.cli, "randic_deviation",
                        lambda g: deviation(g) + 2e-12)
    code, _, err = run(capsys, ["compute"], stdin=STAR4_EDGELIST,
                       monkeypatch=monkeypatch)
    assert (code, err) == (
        0, "warning: identity residual 2e-12 exceeds tolerance 1e-12\n")


@pytest.mark.parametrize("argv", [["compute", "--tolerance", "1e-9"],
                                  ["verify", "--max-n", "3", "--tolerance", "1"]])
def test_tolerance_flags_are_gone(capsys, argv):
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    assert "unrecognized arguments: --tolerance" in capsys.readouterr().err


def test_compute_isolated_vertex_exits_2(capsys, monkeypatch):
    code, _, err = run(capsys, ["compute"], stdin="3\n0 1\n",
                       monkeypatch=monkeypatch)
    assert code == 2
    assert "isolated" in err


@pytest.mark.parametrize("command", ["compute", "bounds"])
@pytest.mark.parametrize("stdin", ["1000000000000\n",
                                   "100000000000000000000\n",
                                   "1000000000000\n0 1\n"],
                         ids=["n1e12", "n1e20", "n1e12-one-edge"])
def test_oversized_vertex_count_exits_2(capsys, monkeypatch, command, stdin):
    # n > 2m leaves a vertex isolated; no n-sized array is built to see it
    code, out, err = run(capsys, [command], stdin=stdin, monkeypatch=monkeypatch)
    assert (code, out) == (2, "")
    assert err == "error: isolated vertex present (all degrees must be positive)\n"


def test_label_beyond_machine_integers_is_out_of_range(capsys, monkeypatch):
    code, out, err = run(capsys, ["compute"],
                         stdin="3\n0 1\n1 99999999999999999999\n",
                         monkeypatch=monkeypatch)
    assert (code, out) == (2, "")
    assert err == ("error: line 3: label out of range [0, 3): "
                   "'1 99999999999999999999'\n")


# ── bounds ────────────────────────────────────────────────────────────

def test_bounds_chain_upper_equality(capsys, monkeypatch):
    g6 = to_graph6(build_degree_chain(1, 3))
    code, out, _ = run(capsys, ["bounds", "--format", "graph6"], stdin=g6,
                       monkeypatch=monkeypatch)
    assert code == 0
    assert "upperEquality=yes" in out and "lowerEquality=no" in out


def test_bounds_k23_lower_equality(capsys, monkeypatch):
    code, out, _ = run(capsys, ["bounds"],
                       stdin="5\n0 2\n0 3\n0 4\n1 2\n1 3\n1 4\n",
                       monkeypatch=monkeypatch)
    assert code == 0
    assert "lowerEquality=yes" in out and "upperEquality=no" in out


def test_bounds_p4_strict(capsys, monkeypatch):
    code, out, _ = run(capsys, ["bounds"], stdin="4\n0 1\n1 2\n2 3\n",
                       monkeypatch=monkeypatch)
    assert code == 0
    assert "lowerEquality=no" in out and "upperEquality=no" in out


def test_bounds_json_golden(capsys, monkeypatch):
    code, out, _ = run(capsys, ["bounds", "--json"], stdin=STAR4_EDGELIST,
                       monkeypatch=monkeypatch)
    assert code == 0
    # every real below cross-checked by hand: randic = 3/sqrt(3), lower =
    # sqrt(3)*4/4, upper = 2 - (1-1/sqrt(2))^2/2 - (1/sqrt(2)-1/sqrt(3))^2/2
    assert out == (
        '{"n": 4, "d": 1, "D": 3, "randic": 1.73205080756888, '
        '"lowerBound": 1.73205080756888, "upperBound": 1.94868840498374, '
        '"baseline": 1.0, "lowerSlack": 2.22044604925031e-16, '
        '"upperSlack": 0.216637597414866, "regular": false, "connected": true, '
        '"lowerEquality": {"a": 1, "b": 3, "parts": [[1, 2, 3], [0]]}, '
        '"upperEquality": null}\n')


@pytest.mark.parametrize("g, named", [
    (build_biregular(1, 3), "Cs"),
    (build_biregular(2, 3, 13), "n=65 m=78 graph"),   # beyond graph6's n <= 62
])
def test_bounds_violation_names_its_graph(capsys, monkeypatch, g, named):
    # a lower sign helper that reports -1 makes the bound read as violated
    stdin = format_edge_list(g)
    code, row, err = run(capsys, ["bounds"], stdin=stdin, monkeypatch=monkeypatch)
    assert (code, err) == (0, "")
    monkeypatch.setattr("randic.bounds._lower_sign", lambda pairs, d, D: -1)
    code, out, err = run(capsys, ["bounds"], stdin=stdin, monkeypatch=monkeypatch)
    assert (code, out, err) == (3, row, f"BOUND VIOLATION on {named}\n")


def test_bounds_upper_violation_is_reported(capsys, monkeypatch):
    g = build_degree_chain(1, 3)
    stdin = format_edge_list(g)
    code, row, err = run(capsys, ["bounds"], stdin=stdin, monkeypatch=monkeypatch)
    assert (code, err) == (0, "")
    monkeypatch.setattr("randic.bounds._upper_sign", lambda pairs, d, D: -1)
    code, out, err = run(capsys, ["bounds"], stdin=stdin, monkeypatch=monkeypatch)
    assert (code, out, err) == (3, row, f"BOUND VIOLATION on {to_graph6(g)}\n")


def test_bounds_csv_header(capsys, monkeypatch):
    code, out, _ = run(capsys, ["bounds", "--csv"], stdin=STAR4_EDGELIST,
                       monkeypatch=monkeypatch)
    lines = out.strip().splitlines()
    assert lines[0].startswith("n,d,D,randic,lowerBound,upperBound,baseline")
    assert lines[1].split(",")[:3] == ["4", "1", "3"]


# ── graph6 streams on a pool ──────────────────────────────────────────

# biregular and chain witnesses (lower and upper equality), a path, a
# regular graph and a disconnected one, each line as to_graph6 writes it
POOL_G6 = [to_graph6(g) for g in (
    build_biregular(1, 3), build_biregular(2, 3), build_biregular(2, 3, 2),
    build_degree_chain(1, 3), build_degree_chain(3, 5))] + [
    "Ch", "Cl", "Fs?GW", "Dhc", "C~"]


def run_on(capsys, monkeypatch, argv, stdin, cpus, chunk_bytes):
    """run() on ``cpus`` usable CPUs, graph6 input read in chunks of about
    ``chunk_bytes``; a fork pool's workers inherit the patches."""
    monkeypatch.setattr(randic.enumeration.os, "sched_getaffinity",
                        lambda pid: set(range(cpus)), raising=False)
    monkeypatch.setattr(randic.cli, "_CHUNK_BYTES", chunk_bytes)
    return run(capsys, argv, stdin=stdin, monkeypatch=monkeypatch)


def runs_three_ways(capsys, monkeypatch, argv, stdin):
    """(code, stdout, stderr) of one process on one chunk, of one process
    on 64-byte chunks and of a 2-worker pool on 64-byte chunks."""
    return [run_on(capsys, monkeypatch, argv, stdin, cpus, chunk_bytes)
            for cpus, chunk_bytes in ((1, 1 << 20), (1, 64), (2, 64))]


@pytest.mark.parametrize("form", ["", "--json", "--csv"])
@pytest.mark.parametrize("command", ["bounds", "compute"])
def test_pool_output_matches_one_process(capsys, monkeypatch, started_pools,
                                         command, form):
    # eight copies of the list make 9 chunks, more than the 4 that the pool
    # holds in flight, with blank lines inside chunks
    stdin = "\n".join(POOL_G6 * 8).replace("Dhc", "Dhc\n\n") + "\n"
    argv = [command, "--format", "graph6", *filter(None, [form])]
    one, chunked, pooled = runs_three_ways(capsys, monkeypatch, argv, stdin)
    assert one == chunked == pooled
    assert one[0] == 0 and one[2] == ""
    assert len(one[1].splitlines()) == len(POOL_G6) * 8 + (form == "--csv")
    assert started_pools == [2]


@pytest.mark.parametrize("command", ["bounds", "compute"])
def test_pool_error_names_its_line(capsys, monkeypatch, started_pools, command):
    # a bad line past the second 64-byte chunk, after blank lines that
    # count toward its number; the reports of the lines before it come first
    lines = POOL_G6 * 3 + ["", " \t\r", ""] + ["bad!"] + POOL_G6
    bad = lines.index("bad!") + 1
    stdin = "\n".join(lines) + "\n"
    buf = io.BytesIO(stdin.encode())
    chunks = list(iter(lambda: buf.readlines(64), []))
    assert b"bad!\n" not in chunks[0] + chunks[1]
    argv = [command, "--format", "graph6"]
    before = run_on(capsys, monkeypatch, argv, "\n".join(lines[:bad - 1]),
                    cpus=1, chunk_bytes=1 << 20)
    for code, out, err in runs_three_ways(capsys, monkeypatch, argv, stdin):
        assert (code, out) == (2, before[1])
        assert err == (f"error: line {bad}: invalid graph6 byte 33 at "
                       "position 3 (must be 63..126)\n")
    assert started_pools == [2]
    assert multiprocessing.active_children() == []


def test_pool_violation_exits_3(capsys, monkeypatch, started_pools):
    # a lower sign helper that reports -1 makes the lower bound of every
    # graph that is not regular read as violated, in the workers too
    monkeypatch.setattr("randic.bounds._lower_sign", lambda pairs, d, D: -1)
    stdin = "\n".join(POOL_G6 * 2) + "\n"
    argv = ["bounds", "--format", "graph6", "--json"]
    one, chunked, pooled = runs_three_ways(capsys, monkeypatch, argv, stdin)
    assert one == chunked == pooled
    assert one[0] == 3
    regular = {"Cl", "Dhc", "C~"}
    assert one[2] == "".join(f"BOUND VIOLATION on {g6}\n"
                             for g6 in POOL_G6 * 2 if g6 not in regular)
    assert started_pools == [2]


@pytest.mark.parametrize("command", ["bounds", "compute"])
def test_pool_without_graphs_prints_no_header(capsys, monkeypatch,
                                              started_pools, command):
    # 300 blank lines fill several chunks, so a pool starts, but no graph
    # is read and no CSV header written
    for stdin in ("", "\n" * 300):
        code, out, err = run_on(capsys, monkeypatch,
                                [command, "--format", "graph6", "--csv"],
                                stdin, cpus=2, chunk_bytes=64)
        assert (code, out, err) == (0, "", "")
    assert started_pools == [2]


# ── construct ─────────────────────────────────────────────────────────

def test_construct_family_streams_graph6(capsys):
    code, out, err = run(capsys, ["construct", "family", "1", "3"])
    assert code == 0
    assert out.strip() == to_graph6(build_degree_chain(1, 3))
    assert "upper bound tight" in err
    assert "n=9" in err


def test_construct_biregular(capsys):
    code, out, err = run(capsys, ["construct", "biregular", "2", "3"])
    assert code == 0
    assert "lower bound tight" in err
    assert "biregular certificate" in err


def test_construct_family_even_degree_exits_2(capsys):
    code, _, err = run(capsys, ["construct", "family", "2", "4"])
    assert code == 2
    assert "odd" in err


def test_construct_scale_on_family_rejected(capsys):
    code, _, err = run(capsys, ["construct", "family", "1", "3", "--scale", "2"])
    assert code == 2


def test_construct_infeasible_scale_exits_2(capsys):
    code, _, err = run(capsys, ["construct", "biregular", "2", "4"])
    assert code == 2
    assert "minimal feasible scale is 2" in err


def test_construct_edgelist_format(capsys):
    code, out, _ = run(capsys, ["construct", "biregular", "1", "3",
                                "--format", "edgelist"])
    assert code == 0
    assert out == "4\n0 1\n0 2\n0 3\n"


def test_construct_json(capsys):
    code, out, _ = run(capsys, ["construct", "family", "1", "3", "--json"])
    doc = json.loads(out)
    assert doc["kind"] == "family" and doc["tight"] == "upper"
    assert doc["n"] == 9 and doc["degreeMultiset"] == {"1": 1, "2": 3, "3": 5}


def test_construct_pipes_into_bounds(capsys, monkeypatch):
    code, out, _ = run(capsys, ["construct", "family", "1", "3"])
    g6 = out.strip()
    code, out, _ = run(capsys, ["bounds", "--format", "graph6"], stdin=g6,
                       monkeypatch=monkeypatch)
    assert code == 0 and "upperEquality=yes" in out


# ── enumerate ─────────────────────────────────────────────────────────

def test_enumerate_csv(capsys):
    code, out, _ = run(capsys, ["enumerate", "--max-n", "4", "--connected",
                                "--csv"])
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == ("n,d,D,classCount,minR,maxR,argmin,argmax,"
                        "lowerViolations,upperViolations,"
                        "lowerEqualityWitnesses,upperEqualityWitnesses")
    star_row = next(l for l in lines if l.startswith("4,1,3,"))
    assert ",1.73205080756888," in star_row


def test_enumerate_json_lines(capsys):
    code, out, _ = run(capsys, ["enumerate", "--max-n", "3", "--json"])
    assert code == 0
    docs = [json.loads(line) for line in out.strip().splitlines()]
    assert all(doc["lowerViolations"] == 0 for doc in docs)


def test_enumerate_text(capsys):
    code, out, _ = run(capsys, ["enumerate", "--max-n", "4"])
    assert code == 0
    assert "argmin" in out.splitlines()[0]


def test_enumerate_cap_exits_2(capsys):
    code, _, err = run(capsys, ["enumerate", "--max-n", "10"])
    assert code == 2
    assert "capped" in err


# ── verify ────────────────────────────────────────────────────────────

def test_verify_small(capsys):
    code, out, _ = run(capsys, ["verify", "--max-n", "4"])
    assert code == 0
    assert "all theorems verified" in out
    assert "identity" in out and "gap-positivity" in out


def test_verify_json(capsys):
    code, out, _ = run(capsys, ["verify", "--max-n", "3", "--json"])
    doc = json.loads(out)
    assert doc["ok"] is True and doc["maxN"] == 3


def test_verify_cap_exits_2(capsys):
    code, _, err = run(capsys, ["verify", "--max-n", "10"])
    assert code == 2
    assert "capped" in err


@pytest.mark.parametrize("argv, expected", [([], 3), (["--jobs", "2"], 2),
                                             (["--jobs", "5"], 3)])
def test_jobs_default_to_usable_cpus(capsys, monkeypatch, argv, expected):
    # with no --jobs the CLI asks for every CPU, which the job cap turns
    # into the CPUs this process may run on; --jobs can only lower that
    monkeypatch.setattr(randic.enumeration.os, "sched_getaffinity",
                        lambda pid: {0, 1, 2}, raising=False)
    asked = []

    def record(result):
        def library(n_max, *, jobs, **kwargs):
            asked.append(randic.enumeration._cap_jobs(jobs))
            return result
        return library

    monkeypatch.setattr(randic.cli, "verify_theorems",
                        record(VerificationReport(8, 0, ())))
    monkeypatch.setattr(randic.cli, "extremal_scan", record([]))
    for command in ("verify", "enumerate"):
        assert run(capsys, [command, "--max-n", "8", *argv])[0] == 0
    assert asked == [expected, expected]


@pytest.mark.parametrize("command", ["verify", "enumerate"])
@pytest.mark.parametrize("jobs", ["0", "-5"])
def test_jobs_below_one_exits_2(capsys, command, jobs):
    code, out, err = run(capsys, [command, "--max-n", "3", "--jobs", jobs])
    assert (code, out) == (2, "")
    assert err == f"error: jobs must be at least 1, got {jobs}\n"


def test_import_leaves_multiprocessing_unloaded():
    # the pool is imported only by a run that starts one, so construct, a
    # verify or scan at n <= 7, bounds and compute on an edge list or on
    # graph6 input of one chunk never pay for it; the records are
    # NamedTuples, so no run pays for dataclasses either, whose frozen
    # classes each build six methods with exec at import
    env = {**os.environ,
           "PYTHONPATH": str(Path(__file__).resolve().parents[1] / "src")}
    code = ("import sys, randic.cli\n"
            "if sys.argv[1:]: assert randic.cli.main(sys.argv[1:]) == 0\n"
            "print(sorted(m for m in sys.modules if m.startswith("
            "'multiprocessing') or m == 'dataclasses'), file=sys.stderr)")
    for argv, stdin in (([], ""), (["bounds", "--format", "graph6"], "Cs\n"),
                        (["bounds"], STAR4_EDGELIST)):
        err = subprocess.run([sys.executable, "-c", code, *argv], env=env,
                             check=True, input=stdin, capture_output=True,
                             text=True, timeout=60).stderr
        assert err == "[]\n", argv


def test_usage_error_exits_2():
    with pytest.raises(SystemExit) as exc:
        main(["construct", "wedge", "1", "3"])
    assert exc.value.code == 2


# ── output forms, byte for byte ───────────────────────────────────────

# K1,3, C4 (regular) and a star beside a triangle (disconnected, so its
# upper bound is omitted)
MIXED_G6 = "Cs\nCl\nFs?GW\n"

GOLDEN_OUTPUT = [
    (["compute", "--format", "graph6"], MIXED_G6, (
        "n=4 m=3 randic=1.73205080756888 deviation=1.73205080756888 "
        "residual=0 pairs=(1,3)x3\n"
        "n=4 m=4 randic=2 deviation=2 residual=0 pairs=(2,2)x4\n"
        "n=7 m=6 randic=3.23205080756888 deviation=3.23205080756888 "
        "residual=0 pairs=(1,3)x3;(2,2)x3\n"
    )),
    (["compute", "--format", "graph6", "--json"], MIXED_G6, (
        '{"n": 4, "m": 3, "randic": 1.73205080756888, "deviation": '
        '1.73205080756888, "residual": 0.0, "pairs": [[1, 3, 3]]}\n'
        '{"n": 4, "m": 4, "randic": 2.0, "deviation": 2.0, '
        '"residual": 0.0, "pairs": [[2, 2, 4]]}\n'
        '{"n": 7, "m": 6, "randic": 3.23205080756888, "deviation": '
        '3.23205080756888, "residual": 0.0, "pairs": [[1, 3, 3], [2, '
        "2, 3]]}\n"
    )),
    (["compute", "--format", "graph6", "--csv"], MIXED_G6, (
        "n,m,randic,deviation,residual,pairs\n"
        '4,3,1.73205080756888,1.73205080756888,0,"(1,3)x3"\n'
        '4,4,2,2,0,"(2,2)x4"\n'
        '7,6,3.23205080756888,3.23205080756888,0,"(1,3)x3;(2,2)x3"\n'
    )),
    (["bounds", "--format", "graph6"], MIXED_G6, (
        "n=4 d=1 D=3 randic=1.73205080756888 lower=1.73205080756888 "
        "upper=1.94868840498374 baseline=1 "
        "lowerSlack=2.22044604925031e-16 "
        "upperSlack=0.216637597414866 lowerEquality=yes "
        "upperEquality=no\n"
        "n=4 d=2 D=2 randic=2 lower=2 upper=2 baseline=2 "
        "lowerSlack=0 upperSlack=0 lowerEquality=yes "
        "upperEquality=no regular\n"
        "n=7 d=1 D=3 randic=3.23205080756888 lower=3.03108891324554 "
        "upper=omitted(disconnected) baseline=1.75 "
        "lowerSlack=0.200961894323342 upperSlack=- lowerEquality=no "
        "upperEquality=no\n"
    )),
    (["bounds", "--format", "graph6", "--json"], MIXED_G6, (
        '{"n": 4, "d": 1, "D": 3, "randic": 1.73205080756888, '
        '"lowerBound": 1.73205080756888, "upperBound": '
        '1.94868840498374, "baseline": 1.0, "lowerSlack": '
        '2.22044604925031e-16, "upperSlack": 0.216637597414866, '
        '"regular": false, "connected": true, "lowerEquality": {"a": '
        '1, "b": 3, "parts": [[1, 2, 3], [0]]}, "upperEquality": '
        "null}\n"
        '{"n": 4, "d": 2, "D": 2, "randic": 2.0, "lowerBound": 2.0, '
        '"upperBound": 2.0, "baseline": 2.0, "lowerSlack": 0.0, '
        '"upperSlack": 0.0, "regular": true, "connected": true, '
        '"lowerEquality": {"a": 2, "b": 2, "parts": [[0, 2], [1, '
        '3]]}, "upperEquality": null}\n'
        '{"n": 7, "d": 1, "D": 3, "randic": 3.23205080756888, '
        '"lowerBound": 3.03108891324554, "upperBound": null, '
        '"baseline": 1.75, "lowerSlack": 0.200961894323342, '
        '"upperSlack": null, "regular": false, "connected": false, '
        '"upperBoundOmitted": "disconnected", "lowerEquality": null, '
        '"upperEquality": null}\n'
    )),
    (["bounds", "--format", "graph6", "--csv"], MIXED_G6, (
        "n,d,D,randic,lowerBound,upperBound,baseline,lowerSlack,"
        "upperSlack,regular,connected,lowerEquality,upperEquality\n"
        "4,1,3,1.73205080756888,1.73205080756888,1.94868840498374,1,"
        "2.22044604925031e-16,0.216637597414866,0,1,1,0\n"
        "4,2,2,2,2,2,2,0,0,1,1,1,0\n"
        "7,1,3,3.23205080756888,3.03108891324554,,1.75,"
        "0.200961894323342,,0,0,0,0\n"
    )),
    (["compute", "--format", "graph6", "--csv"], "", ""),
    (["bounds", "--format", "graph6", "--csv"], "", ""),
    (["enumerate", "--max-n", "4", "--connected"], None, (
        " n  d  D    count               minR               maxR  "
        "viol  eq(lo/up)  argmin\n"
        " 3  1  2        3   1.41421356237309   1.41421356237309     "
        "0    3/0     BW\n"
        " 4  1  2       12   1.91421356237309   1.91421356237309     "
        "0    0/0     CL\n"
        " 4  1  3       16   1.73205080756888   1.89384685011735     "
        "0    4/0     CF\n"
        " 4  2  3        6   1.96632649518879   1.96632649518879     "
        "0    0/0     C^\n"
    )),
    (["enumerate", "--max-n", "4", "--connected", "--json"], None, (
        '{"n": 3, "d": 1, "D": 2, "classCount": 3, "minR": '
        '1.41421356237309, "maxR": 1.41421356237309, "argmin": "BW", '
        '"argmax": "BW", "lowerViolations": 0, "upperViolations": 0, '
        '"lowerEqualityWitnesses": 3, "upperEqualityWitnesses": 0}\n'
        '{"n": 4, "d": 1, "D": 2, "classCount": 12, "minR": '
        '1.91421356237309, "maxR": 1.91421356237309, "argmin": "CL", '
        '"argmax": "CL", "lowerViolations": 0, "upperViolations": 0, '
        '"lowerEqualityWitnesses": 0, "upperEqualityWitnesses": 0}\n'
        '{"n": 4, "d": 1, "D": 3, "classCount": 16, "minR": '
        '1.73205080756888, "maxR": 1.89384685011735, "argmin": "CF", '
        '"argmax": "CN", "lowerViolations": 0, "upperViolations": 0, '
        '"lowerEqualityWitnesses": 4, "upperEqualityWitnesses": 0}\n'
        '{"n": 4, "d": 2, "D": 3, "classCount": 6, "minR": '
        '1.96632649518879, "maxR": 1.96632649518879, "argmin": "C^", '
        '"argmax": "C^", "lowerViolations": 0, "upperViolations": 0, '
        '"lowerEqualityWitnesses": 0, "upperEqualityWitnesses": 0}\n'
    )),
    (["enumerate", "--max-n", "4", "--connected", "--csv"], None, (
        "n,d,D,classCount,minR,maxR,argmin,argmax,lowerViolations,"
        "upperViolations,lowerEqualityWitnesses,"
        "upperEqualityWitnesses\n"
        "3,1,2,3,1.41421356237309,1.41421356237309,BW,BW,0,0,3,0\n"
        "4,1,2,12,1.91421356237309,1.91421356237309,CL,CL,0,0,0,0\n"
        "4,1,3,16,1.73205080756888,1.89384685011735,CF,CN,0,0,4,0\n"
        "4,2,3,6,1.96632649518879,1.96632649518879,C^,C^,0,0,0,0\n"
    )),
    (["verify", "--max-n", "3", "--json"], None, (
        '{"maxN": 3, "graphs": 5, "ok": true, "checks": [{"name": '
        '"identity", "checked": 5, "failures": 0, "counterexample": '
        'null}, {"name": "decomposition", "checked": 3, "failures": '
        '0, "counterexample": null}, {"name": "lower-bound", '
        '"checked": 3, "failures": 0, "counterexample": null}, '
        '{"name": "lower-equality", "checked": 3, "failures": 0, '
        '"counterexample": null}, {"name": "upper-bound", "checked": '
        '3, "failures": 0, "counterexample": null}, {"name": '
        '"upper-equality", "checked": 3, "failures": 0, '
        '"counterexample": null}, {"name": "star-baseline", '
        '"checked": 5, "failures": 0, "counterexample": null}, '
        '{"name": "chain-grid", "checked": 10, "failures": 0, '
        '"counterexample": null}, {"name": "gap-positivity", '
        '"checked": 10000, "failures": 0, "counterexample": null}]}\n'
    )),
]


@pytest.mark.parametrize(
    "argv, stdin, expected", GOLDEN_OUTPUT,
    ids=[" ".join(argv) + (" <empty" if stdin == "" else "")
         for argv, stdin, _ in GOLDEN_OUTPUT])
def test_output_is_byte_exact(capsys, monkeypatch, argv, stdin, expected):
    # the CSV header names the JSON keys; compute and bounds print no
    # header for empty input, enumerate always prints one
    code, out, err = run(capsys, argv, stdin=stdin, monkeypatch=monkeypatch)
    assert (code, out, err) == (0, expected, "")
