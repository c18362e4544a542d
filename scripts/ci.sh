#!/usr/bin/env bash
# Tier-1 gate for this repository. Everything here runs fully offline —
# the workspace has zero external dependencies (see DESIGN.md §5,
# "Dependencies") — and must pass before merging.
set -euo pipefail
cd "$(dirname "$0")/.."

echo "== cargo fmt --check"
cargo fmt --all -- --check

echo "== cargo clippy -D warnings"
cargo clippy --workspace --all-targets -- -D warnings

echo "== cargo build --release"
cargo build --release

echo "== cargo test (workspace)"
cargo test --workspace -q

echo "== production-vs-oracle evaluation property tests"
cargo test -q -p fact-core --release --test oracle_equiv

echo "== list-scheduler invariant and production-vs-oracle tests"
cargo test -q -p fact-sched --release --test schedule_properties --test listsched_oracle

echo "== CFG/copy-on-write properties, transform soundness, neighbourhood digests"
cargo test -q -p fact-ir --release --test graph_properties
cargo test -q --release --test property
cargo test -q -p fact-core --release --test neighbourhood_digest

echo "== batched-vs-scalar simulation property tests"
cargo test -q -p fact-sim --release --test batched_equiv

echo "== print/parse round trip and Markov-analysis property tests"
cargo test -q -p fact-lang --release --test roundtrip
cargo test -q -p fact-estim --release --test markov_properties

echo "== factd chaos smoke (fault injection, overload, crash-safe cache)"
cargo test -q --release --test serve_chaos

echo "== bench smoke runs (JSON well-formedness)"
scripts/bench.sh search --smoke > /tmp/search_smoke.json
python3 - <<'EOF'
import json
# Structure only: throughput is a property of the machine, so no floor.
with open("/tmp/search_smoke.json") as f:
    d = json.load(f)
assert d["bench"] == "search", d
assert len(d["passes"]) == 1, f"expected one pass: {[p['mode'] for p in d['passes']]}"
suites = d["passes"][0]["suites"]
assert len(suites) == 6, f"expected six suites: {[s['name'] for s in suites]}"
idle = [s["name"] for s in suites if s["evaluated"] <= 0]
assert not idle, f"suites evaluated nothing: {idle}"
# Scheduling time is reported as a subset of estimation time.
split = [s["name"] for s in suites if not 0 <= s["schedule_s"] <= s["estimate_s"]]
assert not split, f"schedule_s missing from or above estimate_s: {split}"
# Expansion (search time outside candidate evaluation) is reported too.
unexpanded = [s["name"] for s in suites if not s["expand_s"] >= 0]
assert not unexpanded, f"expand_s missing or negative: {unexpanded}"
# So is proving candidates equivalent to their parents.
unproved = [s["name"] for s in suites if not s["prove_s"] >= 0]
assert not unproved, f"prove_s missing or negative: {unproved}"
# And deriving unrolled candidates' profiles from their parents' counts.
underived = [s["name"] for s in suites if not s["derive_s"] >= 0]
assert not underived, f"derive_s missing or negative: {underived}"
# Every loop-unroll candidate of the suite is proved through its block
# map and its profile derived: none is simulated.
simulated = [(s["name"], s["unroll_simulated"]) for s in suites if s["unroll_simulated"] != 0]
assert not simulated, f"loop-unroll candidates simulated: {simulated}"
print("search smoke ok: " + " ".join(f"{s['name']}:{s['evaluated']}" for s in suites))
EOF
scripts/bench.sh sim --smoke \
    | python3 -c 'import json,sys; d=json.load(sys.stdin); assert d["bench"] == "sim", d'
scripts/bench.sh pareto --smoke > /dev/null
scripts/bench.sh serve --smoke > /tmp/serve_smoke.json
python3 - <<'EOF'
import json
with open("crates/bench/BENCH_pareto.json") as f:
    d = json.load(f)
assert d["bench"] == "pareto", d
suites = {s["name"]: s for p in d["passes"] for s in p["suites"]}
t2 = suites["Test2"]
# The frontier counts Vdd samples, not designs: each of the archive_len
# archived structural designs is swept over the supply-voltage range, so
# archive_len = 1 still yields a frontier of several points.
what = (
    f"Test2 frontier={t2['frontier']} is {t2['frontier']} Vdd samples "
    f"of archive_len={t2['archive_len']} design(s)"
)
assert t2["frontier"] >= 8, f"frontier too small (need >= 8 Vdd samples): {what}"
# A real tradeoff needs two nondominated structural designs. IGF is the
# suite program whose search finds them at this budget (every other one
# archives a single design), so it is the one that can show the Pareto
# search exploring rather than re-sweeping one design's voltage.
igf = suites["IGF"]
assert igf["archive_len"] >= 2, (
    f"IGF archived {igf['archive_len']} structural design(s), need >= 2: {igf}"
)
print(
    f"BENCH_pareto.json ok: {what}, hv={t2['hypervolume']}; "
    f"IGF archive_len={igf['archive_len']} frontier={igf['frontier']}"
)
EOF

echo "== serve front-end smoke gate (fresh run + committed BENCH_serve.json)"
python3 - <<'EOF'
import json
# The fresh smoke run must be live and sane on this container: every
# reply within the job-timeout budget, and a conservative floor on
# requests/sec (the full run sustains thousands; 10/s only catches a
# front end that is stalling, not one that is merely slow).
FLOOR = 10.0
with open("/tmp/serve_smoke.json") as f:
    d = json.load(f)
assert d["bench"] == "serve", d
for p in d["passes"]:
    assert p["errors"] == 0, f"smoke traffic errors: {p}"
    assert p["p99_ms"] < p["timeout_budget_ms"], f"p99 over budget: {p}"
    assert p["jobs_per_sec"] >= FLOOR, f"front end stalling: {p}"
line = " ".join(f"{p['io_model']}:{p['jobs_per_sec']:.0f}/s" for p in d["passes"])
print(f"serve smoke ok: {line}")

# The committed full run is the recorded trajectory: it must carry the
# high-concurrency measurement (>= 500 held connections for epoll,
# >= 256 for the threads pass) and the event loop must not have lost
# to the thread-per-connection fallback it replaced.
with open("crates/bench/BENCH_serve.json") as f:
    d = json.load(f)
assert d["bench"] == "serve", d
passes = {p["io_model"]: p for p in d["passes"]}
epoll, threads = passes["epoll"], passes["threads"]
assert epoll["held_connections"] >= 500, f"epoll pass under 500 held: {epoll}"
assert threads["held_connections"] >= 256, f"threads pass under 256 held: {threads}"
for p in (epoll, threads):
    assert p["errors"] == 0, f"recorded run had traffic errors: {p}"
    assert p["p99_ms"] < p["timeout_budget_ms"], f"recorded p99 over budget: {p}"
    assert p["jobs_per_sec"] >= 25.0, f"recorded throughput implausibly low: {p}"
assert epoll["jobs_per_sec"] >= threads["jobs_per_sec"], (
    f"epoll lost to threads: {epoll['jobs_per_sec']} < {threads['jobs_per_sec']}"
)
print(
    f"BENCH_serve.json ok: epoll {epoll['jobs_per_sec']}/s @{epoll['held_connections']} held "
    f"(p99 {epoll['p99_ms']}ms) vs threads {threads['jobs_per_sec']}/s "
    f"(x{epoll['jobs_per_sec']/threads['jobs_per_sec']:.2f})"
)
EOF

echo "== engine-selector never-lose gate (BENCH_sim.json)"
python3 - <<'EOF'
import json
with open("crates/bench/BENCH_sim.json") as f:
    d = json.load(f)
assert d["bench"] == "sim", d
# The engine policy must never lose to the scalar baseline: every
# suite's and every crossover-sweep cell's chosen-engine speedup stays at
# parity or better.
bad = [(s["name"], s["speedup"]) for s in d["suites"] if s["speedup"] < 1.0]
bad += [(f"{c['name']}@{c['lanes']}", c["speedup"]) for c in d["crossover"] if c["speedup"] < 1.0]
assert not bad, f"selector lost on: {bad}"
# The one remaining batched path must still pay: PPS, the straight-line
# suite behavior, runs batched from the lane floor (8) on, at parity or
# better, in every crossover cell.
pps = [c for c in d["crossover"] if c["name"] == "PPS" and c["lanes"] >= 8]
assert pps, "no PPS crossover cell at 8 or more lanes"
unpaid = [(c["lanes"], c["chosen"], c["speedup"]) for c in pps
          if c["chosen"] != "batched" or c["speedup"] < 1.0]
assert not unpaid, f"PPS cells not batched at parity or better: {unpaid}"
line = " ".join(f"{s['name']}:{s['speedup']}x({s['chosen']})" for s in d["suites"])
batched = sum(c["chosen"] == "batched" for c in d["crossover"])
print(f"BENCH_sim.json ok: {line}; crossover {batched}/{len(d['crossover'])} cells batched")
EOF

echo "ci.sh: all gates passed"
