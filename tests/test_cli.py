import io
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from randic import (build_biregular, build_degree_chain, format_edge_list,
                    to_graph6)
import randic.cli
from randic.cli import main


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


def test_jobs_default_from_env(monkeypatch):
    from randic.cli import build_parser
    monkeypatch.setenv("RANDIC_JOBS", "3")
    args = build_parser().parse_args(["verify", "--max-n", "3"])
    assert args.jobs == 3
    monkeypatch.setenv("RANDIC_JOBS", "junk")
    args = build_parser().parse_args(["verify", "--max-n", "3"])
    assert args.jobs == 1


def test_import_leaves_multiprocessing_unloaded():
    # the pool is imported only by a run that starts one, so bounds,
    # compute, construct and a verify or scan at n <= 6 never pay for it;
    # the records are NamedTuples, so no run pays for dataclasses either,
    # whose frozen classes each build six methods with exec at import
    env = {**os.environ,
           "PYTHONPATH": str(Path(__file__).resolve().parents[1] / "src")}
    code = ("import sys, randic.cli; print(sorted("
            "m for m in sys.modules if m.startswith('multiprocessing')"
            " or m == 'dataclasses'))")
    out = subprocess.run([sys.executable, "-c", code], env=env, check=True,
                         capture_output=True, text=True, timeout=60).stdout
    assert out == "[]\n"


def test_usage_error_exits_2():
    with pytest.raises(SystemExit) as exc:
        main(["construct", "wedge", "1", "3"])
    assert exc.value.code == 2
