#!/usr/bin/env bash
# Perf-trajectory benchmarks. Four harnesses:
#
#   search — search throughput (evals/sec over the §5 suite); writes
#            crates/bench/BENCH_search.json.
#   sim    — simulation throughput (trace vectors/sec of the profile
#            pass per suite behavior); writes crates/bench/BENCH_sim.json.
#   pareto — Pareto-frontier quality/throughput (frontier size,
#            hypervolume proxy, evals/sec); writes
#            crates/bench/BENCH_pareto.json (also with --smoke).
#   serve  — factd front-end load (requests/sec, p50/p99 latency under
#            hundreds of held connections, epoll vs threads); writes
#            crates/bench/BENCH_serve.json.
#
# Usage:
#   scripts/bench.sh                   # all harnesses, full runs
#   scripts/bench.sh search            # one harness
#   scripts/bench.sh sim --smoke       # tiny run, JSON to stdout only
#   scripts/bench.sh pareto --smoke    # Test2 only, still writes the file
#   scripts/bench.sh search --budget 1000 --out /tmp/b.json
#   scripts/bench.sh sim --vectors 4096
#   scripts/bench.sh serve --held 1024 --requests 500
set -euo pipefail
cd "$(dirname "$0")/.."

which=all
case "${1:-}" in
search | sim | pareto | serve) which=$1; shift ;;
all) shift ;;
esac

if [ "$which" = search ] || [ "$which" = all ]; then
    cargo bench -q -p fact-bench --bench search_perf -- "$@"
fi
if [ "$which" = sim ] || [ "$which" = all ]; then
    cargo bench -q -p fact-bench --bench sim_perf -- "$@"
fi
if [ "$which" = pareto ] || [ "$which" = all ]; then
    cargo bench -q -p fact-bench --bench pareto_perf -- "$@"
fi
if [ "$which" = serve ] || [ "$which" = all ]; then
    cargo bench -q -p fact-bench --bench serve_perf -- "$@"
fi
