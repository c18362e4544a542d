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

echo "== compiled-interpreter vs interpreter-oracle simulation tests"
cargo test -q -p fact-sim --release --test compiled_oracle

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
# And deriving unrolled and fissioned candidates' profiles from their
# parents' counts.
underived = [s["name"] for s in suites if not s["derive_s"] >= 0]
assert not underived, f"derive_s missing or negative: {underived}"
# The search accepts only candidates it proves equivalent to their
# parent, and on the suite it proves every one: none is unproved.
unproved = [(s["name"], s["unproved"]) for s in suites if s["unproved"] != 0]
assert not unproved, f"suite candidates unproved: {unproved}"
# Set-up (baseline profile, schedule and estimate, partition, final
# re-estimate) has a timer of its own.
unset = [s["name"] for s in suites if not s["setup_s"] >= 0]
assert not unset, f"setup_s missing or negative: {unset}"
# Every suite program has commutative ops, so operand swaps inherit
# their parent's evaluation on every suite.
uninherited = [s["name"] for s in suites if not s["inherited"] > 0]
assert not uninherited, f"no operand swap inherited its parent's evaluation: {uninherited}"
# Each run starts from a fresh cache, so every evaluation is inherited,
# proved, derived, unproved, or answered by the cache within the run
# (a later region re-scoring a structure an earlier one scored).
unbalanced = [
    (s["name"], s["evaluated"], s["inherited"], s["proved"], s["derived"], s["unproved"], s["cache_hits"])
    for s in suites
    if s["evaluated"] != s["inherited"] + s["proved"] + s["derived"] + s["unproved"] + s["cache_hits"]
]
assert not unbalanced, (
    f"evaluated != inherited + proved + derived + unproved + cache_hits: {unbalanced}"
)
# Building candidate functions has a timer of its own.
unbuilt = [s["name"] for s in suites if not s["build_s"] >= 0]
assert not unbuilt, f"build_s missing or negative: {unbuilt}"
# Each suite reruns on the cache its cold run filled: the warm run must
# find what the cold one found, answering every evaluation from the
# cache, and build nothing but the designs on its reported path (one
# replayed transformation per applied step), since the expansion memo
# knows every parent it expands.
diverged = [
    (s["name"], s["evaluated"], s["warm"]["evaluated"], s["best_score"], s["warm"]["best_score"])
    for s in suites
    if (s["warm"]["evaluated"], s["warm"]["applied"], s["warm"]["applied_digest"], s["warm"]["best_score"])
    != (s["evaluated"], s["applied"], s["applied_digest"], s["best_score"])
]
assert not diverged, f"warm rerun differs from the cold run (evaluated, best score): {diverged}"
overbuilt = [
    (s["name"], s["warm"]["neighborhoods_built"], s["warm"]["applied"])
    for s in suites
    if s["warm"]["neighborhoods_built"] != s["warm"]["applied"]
]
assert not overbuilt, f"warm rerun built more than its path (built, path steps): {overbuilt}"
# Each suite then reruns on that cache with its traces plus an input no
# program reads: every score lookup misses, as for a new job, yet the
# run must find what a run without a cache finds on those traces, and
# every inherited, proved or derived candidate must take its swap or
# proof verdict from the record the cold run left it in.
retraced = [
    (s["name"], s["retraced"]["evaluated"], s["retraced"]["uncached"]["evaluated"],
     s["retraced"]["best_score"], s["retraced"]["uncached"]["best_score"])
    for s in suites
    if (s["retraced"]["evaluated"], s["retraced"]["applied_digest"], s["retraced"]["best_score"])
    != (s["retraced"]["uncached"]["evaluated"], s["retraced"]["uncached"]["applied_digest"],
        s["retraced"]["uncached"]["best_score"])
]
assert not retraced, f"retraced rerun differs from a run without a cache (evaluated, best score): {retraced}"
unrecalled = [
    (s["name"], r["verdicts_memoized"], r["inherited"], r["proved"], r["derived"])
    for s in suites
    for r in [s["retraced"]]
    if r["verdicts_memoized"] != r["inherited"] + r["proved"] + r["derived"]
]
assert not unrecalled, (
    f"retraced rerun: verdicts_memoized != inherited + proved + derived: {unrecalled}"
)
# Schedule plans (DESIGN §10.6): building them is a share of scheduling
# time, and the retraced rerun, whose designs and scheduling context are
# the cold run's, takes every plan from the cache and builds none.
unplanned = [
    (s["name"], s["plan_s"], s["schedule_s"]) for s in suites if not 0 <= s["plan_s"] <= s["schedule_s"]
]
assert not unplanned, f"plan_s missing from or above schedule_s: {unplanned}"
replanned = [
    (s["name"], s["retraced"]["plans_built"]) for s in suites if s["retraced"]["plans_built"] != 0
]
assert not replanned, f"retraced rerun built schedule plans the cold run left: {replanned}"
print("search smoke ok: " + " ".join(
    f"{s['name']}:{s['evaluated']}({s['inherited']} inherited, warm built {s['warm']['neighborhoods_built']}, "
    f"retraced verdicts {s['retraced']['verdicts_memoized']}, "
    f"plans memoized {s['retraced']['plans_memoized']})"
    for s in suites
))
EOF
scripts/bench.sh sim --smoke > /tmp/sim_smoke.json
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
line = " ".join(f"{p['jobs_per_sec']:.0f}/s" for p in d["passes"])
print(f"serve smoke ok: {line}")

# The committed full run is the recorded trajectory: its one pass must
# carry the high-concurrency measurement (>= 500 held connections),
# error-free, within the latency budget, at a plausible throughput.
with open("crates/bench/BENCH_serve.json") as f:
    d = json.load(f)
assert d["bench"] == "serve", d
(p,) = d["passes"]
assert p["held_connections"] >= 500, f"recorded pass under 500 held: {p}"
assert p["errors"] == 0, f"recorded run had traffic errors: {p}"
assert p["p99_ms"] < p["timeout_budget_ms"], f"recorded p99 over budget: {p}"
assert p["jobs_per_sec"] >= 25.0, f"recorded throughput implausibly low: {p}"
print(
    f"BENCH_serve.json ok: {p['jobs_per_sec']}/s @{p['held_connections']} held "
    f"(p99 {p['p99_ms']}ms)"
)
EOF

echo "== simulation bench structure (fresh smoke run + committed BENCH_sim.json)"
python3 - <<'EOF'
import json
# Structure only: throughput is a property of the machine, so no floor.
# Every suite behavior must be measured, and the measurement must be live.
for path in ("/tmp/sim_smoke.json", "crates/bench/BENCH_sim.json"):
    with open(path) as f:
        d = json.load(f)
    assert d["bench"] == "sim", d
    suites = d["suites"]
    assert len(suites) == 6, f"{path}: expected six suites: {[s['name'] for s in suites]}"
    dead = [s["name"] for s in suites
            if not (s["passes"] >= 1 and s["vectors"] > 0 and s["vectors_per_sec"] > 0)]
    assert not dead, f"{path}: suites measured nothing: {dead}"
    line = " ".join(f"{s['name']}:{s['vectors_per_sec']:.0f}v/s" for s in suites)
    print(f"{path} ok: {line}")
EOF

echo "ci.sh: all gates passed"
