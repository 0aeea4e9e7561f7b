#!/usr/bin/env bash
# End-to-end smoke test of the randic CLI: the enumerators at every job
# count, verify against the scans, the construct/compute/bounds pipelines in
# every input and output form, and the edge-list reader's refusals and large
# inputs.  Exits non-zero at the first failing command.
#
#   scripts/smoke.sh
#
# Runs the installed `randic` entry point, or `python -m randic.cli` on this
# checkout's src/ when no `randic` is on PATH.
set -e

if ! command -v randic > /dev/null; then
  src="$(cd "$(dirname "$0")/.." && pwd)/src"
  randic() {
    PYTHONPATH="$src${PYTHONPATH:+:$PYTHONPATH}" python -m randic.cli "$@"
  }
fi
tmp="$(mktemp -d)"
trap 'rm -rf "$tmp"' EXIT

# ── CLI commands ──
randic verify --max-n 6 --jobs 2
randic enumerate --max-n 5 --connected --json
# a run up to n = 7 walks each n whole in one process whatever --jobs
# says; n = 8 is the first split across the pool, which by default has
# one worker per usable CPU and then walks the small n too, so the
# n = 8 cmp below also covers the small n run in the workers.  The
# connected filter is decided at every leaf of the walk by the
# union-find.
for cmd in enumerate "enumerate --connected" verify; do
  randic $cmd --max-n 7 --json --jobs 1 > "$tmp/jobs-1.json"
  randic $cmd --max-n 7 --json --jobs 2 > "$tmp/jobs-2.json"
  cmp "$tmp/jobs-1.json" "$tmp/jobs-2.json"
done
randic verify --max-n 8 --json --jobs 1 > "$tmp/jobs-1.json"
randic verify --max-n 8 --json > "$tmp/jobs-all.json"
cmp "$tmp/jobs-1.json" "$tmp/jobs-all.json"
# verify's lower-bound check covers the graphs of the scan's classes,
# and its upper-bound check those of the connected scan's classes
randic verify --max-n 7 --jobs 2 --json > "$tmp/verify.json"
randic enumerate --max-n 7 --jobs 2 --json > "$tmp/scan.json"
randic enumerate --max-n 7 --jobs 2 --connected --json > "$tmp/scan-connected.json"
python -c "import json, sys; v, s, c = (open(f).read() for f in sys.argv[1:]); checked = {k['name']: k['checked'] for k in json.loads(v)['checks']}; count = lambda text: sum(json.loads(line)['classCount'] for line in text.splitlines()); assert (checked['lower-bound'], checked['upper-bound']) == (count(s), count(c)), checked" \
  "$tmp/verify.json" "$tmp/scan.json" "$tmp/scan-connected.json"
randic construct family 3 5 | randic bounds --format graph6 --json
randic construct biregular 2 3 --format edgelist | randic compute
# the edge-list and graph6 readers give the same rows on one graph,
# in every output form
for spec in "family 3 9" "biregular 1 2 --scale 20"; do
  for cmd in compute bounds; do
    for form in "" --json --csv; do
      randic construct $spec --format edgelist | randic $cmd $form > "$tmp/el.out"
      randic construct $spec | randic $cmd --format graph6 $form > "$tmp/g6.out"
      cmp "$tmp/el.out" "$tmp/g6.out"
    done
  done
done
# no graph, no CSV header
randic bounds --format graph6 --csv < /dev/null > "$tmp/empty.csv"
test ! -s "$tmp/empty.csv"
# graph6 input longer than one 64 KiB chunk is evaluated on a pool of
# one worker per usable CPU: 3,000 random graphs on 20..62 vertices
# (about 7 chunks) give byte-identical output on one CPU
python - > "$tmp/corpus.g6" <<'EOF'
import random
rng = random.Random(28)
for _ in range(3000):
    n = rng.randint(20, 62)
    p = rng.choice((0.05, 0.2, 0.5))
    edges = {(u, v) for v in range(n) for u in range(v) if rng.random() < p}
    deg = [0] * n
    for u, v in edges:
        deg[u] += 1
        deg[v] += 1
    for v in range(n - 1):  # no isolated vertex
        if not deg[v]:
            edges.add((v, v + 1))
            deg[v + 1] += 1
    if not deg[n - 1]:
        edges.add((0, n - 1))
    bits = "".join("1" if (u, v) in edges else "0"
                   for v in range(1, n) for u in range(v))
    bits += "0" * (-len(bits) % 6)
    print(chr(63 + n) + "".join(chr(63 + int(bits[i:i + 6], 2))
                                for i in range(0, len(bits), 6)))
EOF
test "$(wc -c < "$tmp/corpus.g6")" -gt $((4 * 65536))
one_cpu() {
  ( python -c "import os, sys; pid = int(sys.argv[1]); os.sched_setaffinity(pid, {min(os.sched_getaffinity(pid))})" "$BASHPID"
    "$@" )
}
for cmd in "bounds --json" "compute --csv"; do
  randic $cmd --format graph6 < "$tmp/corpus.g6" > "$tmp/pool.out"
  one_cpu randic $cmd --format graph6 < "$tmp/corpus.g6" > "$tmp/one.out"
  cmp "$tmp/pool.out" "$tmp/one.out"
done
# fewer than one job is refused
code=0
randic verify --max-n 3 --jobs 0 || code=$?
test "$code" -eq 2

# ── Edge-list reader ──
# a faulty edge list exits 2 and names the faulty line
code=0
printf '3\n0 1\n1 1\n' | randic compute 2> "$tmp/err.txt" || code=$?
cat "$tmp/err.txt"
test "$code" -eq 2
grep -q "line 3" "$tmp/err.txt"
# a 200,000-edge path whose last line repeats its first edge as
# "1 0": the bulk pass refuses the text past its first 1 MiB chunk,
# and the line-by-line pass names the line
code=0
python -c "print(200001); [print(i, i + 1) for i in range(200000)]; print(1, 0)" \
  | randic bounds 2> "$tmp/dup.txt" || code=$?
cat "$tmp/dup.txt"
test "$code" -eq 2
grep -q "line 200002: duplicate edge 0 1" "$tmp/dup.txt"
# a 60,000-vertex edge list is read in bulk and certified tight; it is
# 20,000 disjoint 3-vertex paths, so it is not connected
randic construct biregular 1 2 --scale 20000 --format edgelist \
  | randic bounds --json > "$tmp/large.json"
python -c "import json, sys; r = json.load(sys.stdin); assert r['lowerEquality'] and not r['connected']" \
  < "$tmp/large.json"
# 60,000 vertices as one path, as two disjoint 30,000-vertex paths,
# and as a 30,000-vertex cycle beside a path, whose n - 1 edges the
# union-find reads to the end; only the first gets an upper bound
python -c "print(60000); [print(i, i + 1) for i in range(59999)]" \
  | randic bounds --json > "$tmp/path.json"
python -c "print(60000); [print(i, i + 1) for i in range(59999) if i != 29999]" \
  | randic bounds --json > "$tmp/paths.json"
python -c "print(60000); print(0, 29999); [print(i, i + 1) for i in range(59999) if i != 29999]" \
  | randic bounds --json > "$tmp/cycle-path.json"
python -c "import json, sys; r = json.load(sys.stdin); assert r['connected'] and r['upperBound'] is not None" \
  < "$tmp/path.json"
for f in paths cycle-path; do
  python -c "import json, sys; r = json.load(sys.stdin); assert not r['connected'] and r['upperBoundOmitted'] == 'disconnected'" \
    < "$tmp/$f.json"
done
# randomly labelled cycles, 2-colored by the union-find on the double
# cover: 60,000 vertices split 30,000 + 30,000, and 59,999 with none
for n in 60000 59999; do
  python -c "import random; n = $n; p = list(range(n)); random.Random(n).shuffle(p); print(n); [print(p[i], p[(i + 1) % n]) for i in range(n)]" \
    | randic bounds --json > "$tmp/cycle-$n.json"
done
python -c "import json, sys; r = json.load(sys.stdin); assert r['regular'] and r['connected'] and [len(p) for p in r['lowerEquality']['parts']] == [30000, 30000]" \
  < "$tmp/cycle-60000.json"
python -c "import json, sys; r = json.load(sys.stdin); assert r['regular'] and r['connected'] and r['lowerEquality'] is None" \
  < "$tmp/cycle-59999.json"
# a 200,000-vertex (3, 7)-biregular graph: the identity residual of
# both index forms stays within the tolerance scaled by n / 62, so
# compute warns nothing, and the bounds are decided exactly, exit 0
randic construct biregular 3 7 --scale 20000 --format edgelist > "$tmp/b37.edges"
randic compute < "$tmp/b37.edges" > /dev/null 2> "$tmp/b37.err"
cat "$tmp/b37.err"
test ! -s "$tmp/b37.err"
randic bounds < "$tmp/b37.edges"
# the edges are sorted into columns, so neither their order nor their
# orientation shows: the lines shuffled, each flipped to "v u", give
# byte-identical reports
python -c "import random, sys; head, *lines = sys.stdin.read().splitlines(); random.Random(37).shuffle(lines); print(head); [print(*reversed(line.split())) for line in lines]" \
  < "$tmp/b37.edges" > "$tmp/b37-shuffled.edges"
for cmd in compute bounds; do
  randic $cmd --json < "$tmp/b37.edges" > "$tmp/b37-$cmd.json"
  randic $cmd --json < "$tmp/b37-shuffled.edges" > "$tmp/b37-shuffled-$cmd.json"
  cmp "$tmp/b37-$cmd.json" "$tmp/b37-shuffled-$cmd.json"
done
