#!/usr/bin/env bash
# Tier-1 gate: build, tests, lints, formatting. Run from the repo root.
set -euo pipefail
cd "$(dirname "$0")"

cargo build --release
# The whole suite at two fixed worker counts: code that defaults its batch
# configuration picks the count up via DELIN_WORKERS (units are the only
# unit of parallelism; a graph build tests its pairs on one thread), so any
# scheduling-dependent output fails one of the two runs.
DELIN_WORKERS=1 cargo test -q
DELIN_WORKERS=4 cargo test -q
# Every crate's unit tests (pair-class soundness, the reference proptests
# for the sign buffer, inline monomials and the Banerjee walk table among
# them): the root test run builds only the root package's targets.
cargo test -q --workspace --lib
# The benchmark is a Cargo package of its own that names engine types
# (access sites and their loops, subscripts, graph edges, the EngineConfig
# stubs): build it and run its unit tests, so an API change that breaks it
# fails here rather than when the benchmark runs.
CARGO_TARGET_DIR=target/perfbench cargo test -q --release --manifest-path perfbench/Cargo.toml
# Deeper differential-oracle sweep in release mode (1024 cases/property),
# including the direction/distance-vector properties, at both fixed worker
# counts so code that reads the worker count from the environment gets
# both shapes.
PROPTEST_CASES=1024 DELIN_WORKERS=1 cargo test -q --release --test oracle_differential
PROPTEST_CASES=1024 DELIN_WORKERS=4 cargo test -q --release --test oracle_differential
# The batch engine's corpus-wide determinism matrix (workers x orderings)
# plus the warm-start A/B leg, at both fixed worker counts.
DELIN_WORKERS=1 cargo run --release -q -p delin-bench --bin batch_corpus -- --verify --units 18 > /dev/null
DELIN_WORKERS=4 cargo run --release -q -p delin-bench --bin batch_corpus -- --verify --units 18 > /dev/null
cargo build --release -q -p delin-bench
repo_root="$(pwd)"
# Paper-table gate: the deterministic figures and tables (each prints in
# well under 100 ms) must regenerate byte for byte. E5's distances and
# E8's ground truth run on the exact solver, so a verdict drift or a stale
# committed table fails here.
for table in fig3_dependence_table fig5_trace table_distance_vectors \
             table_symbolic_delinearization table_technique_comparison table_precision; do
  "$repo_root/target/release/$table" | diff "results/$table.txt" - \
    || { echo "$table differs from results/$table.txt" >&2; exit 1; }
done
# Warm-start gate: a cold run writes the persistent verdict cache, a warm
# rerun loads it; stdout must be byte-identical and the warm run must
# report nonzero persistent hits on stderr.
warm_tmp="$(mktemp -d)"
"$repo_root/target/release/batch_corpus" --units 18 --cache-file "$warm_tmp/cache.bin" \
  > "$warm_tmp/cold.out" 2> "$warm_tmp/cold.err"
"$repo_root/target/release/batch_corpus" --units 18 --cache-file "$warm_tmp/cache.bin" \
  > "$warm_tmp/warm.out" 2> "$warm_tmp/warm.err"
diff "$warm_tmp/cold.out" "$warm_tmp/warm.out" \
  || { echo "warm-start report differs from cold report" >&2; exit 1; }
grep -qE 'persistent-cache: loaded=[1-9][0-9]* hits=[1-9][0-9]* saved=[1-9][0-9]*' \
  "$warm_tmp/warm.err" \
  || { echo "warm run reported no persistent-cache traffic:" >&2; cat "$warm_tmp/warm.err" >&2; exit 1; }
rm -rf "$warm_tmp"
# Trace round-trip gate: recording the CI suite twice is byte-identical,
# running the recording prints the live suite's report (every line after
# the source banner), and a flipped byte fails the run (exit 1) with the
# structured checksum error before any unit is analyzed.
trace_tmp="$(mktemp -d)"
"$repo_root/target/release/batch_corpus" --suite benchmarks/ci/config.json \
  --record "$trace_tmp/a.trace" > /dev/null
"$repo_root/target/release/batch_corpus" --suite benchmarks/ci/config.json \
  --record "$trace_tmp/b.trace" > /dev/null
cmp "$trace_tmp/a.trace" "$trace_tmp/b.trace" \
  || { echo "recording the same suite twice produced different bytes" >&2; exit 1; }
"$repo_root/target/release/batch_corpus" --trace "$trace_tmp/a.trace" > "$trace_tmp/trace.out"
"$repo_root/target/release/batch_corpus" --suite benchmarks/ci/config.json > "$trace_tmp/suite.out"
head -n 1 "$trace_tmp/trace.out" | grep -qF '(64 units)' \
  || { echo "the recorded CI suite does not hold 64 units:" >&2; head -n 1 "$trace_tmp/trace.out" >&2; exit 1; }
diff <(tail -n +2 "$trace_tmp/suite.out") <(tail -n +2 "$trace_tmp/trace.out") \
  || { echo "running the recorded CI suite reported differently from the live suite" >&2; exit 1; }
python3 - "$trace_tmp/a.trace" <<'EOF'
import sys
path = sys.argv[1]
data = bytearray(open(path, 'rb').read())
data[40] ^= 0x01  # flip one payload bit past the header
open(path, 'wb').write(data)
EOF
set +e
"$repo_root/target/release/batch_corpus" --trace "$trace_tmp/a.trace" \
  > "$trace_tmp/corrupt.out" 2> "$trace_tmp/corrupt.err"
code=$?
set -e
[ "$code" -eq 1 ] && grep -q 'checksum mismatch at record 0' "$trace_tmp/corrupt.err" \
  || { echo "corrupt trace exited $code without the checksum error:" >&2; cat "$trace_tmp/corrupt.err" >&2; exit 1; }
[ ! -s "$trace_tmp/corrupt.out" ] \
  || { echo "corrupt trace printed a report:" >&2; cat "$trace_tmp/corrupt.out" >&2; exit 1; }
rm -rf "$trace_tmp"
# Malformed-flag gate: every corpus binary rejects a non-numeric count with
# exit code 2 via the shared strict parser (delin_bench::cli); batch_corpus
# also rejects the retired sampler flags as unknown, a --trace without its
# path, and a corpus taken from both a trace and a suite.
for bad in "batch_corpus --workers four" "delin_serve --cache-cap many" \
           "delin_loadgen --clients x" "batch_corpus --trace" \
           "batch_corpus --trace a.trace --suite benchmarks/ci/config.json" \
           "batch_corpus --trajectory" "batch_corpus --sampled-check"; do
  set +e
  # shellcheck disable=SC2086
  "$repo_root/target/release/"$bad > /dev/null 2>&1
  code=$?
  set -e
  [ "$code" -eq 2 ] || { echo "'$bad' exited $code, expected 2" >&2; exit 1; }
done
# Daemon smoke gate: the golden request script through the delin_serve
# binary must reproduce the pinned response stream byte-for-byte (the
# serve protocol/robustness/budget suites already ran at DELIN_WORKERS=1
# and =4 above, as part of the whole-suite runs). The env scrub keeps
# ambient DELIN_* knobs from perturbing the pinned bytes.
serve_env() {
  env -u DELIN_DEADLINE_MS -u DELIN_CACHE_CAP -u DELIN_CHAOS_SEED \
      DELIN_WORKERS=1 "$@"
}
serve_tmp="$(mktemp -d)"
serve_env "$repo_root/target/release/delin_serve" --workers 1 \
  < tests/golden/serve_requests.jsonl > "$serve_tmp/responses.jsonl" 2> /dev/null
diff tests/golden/serve_responses.jsonl "$serve_tmp/responses.jsonl" \
  || { echo "delin_serve responses differ from tests/golden/serve_responses.jsonl" >&2; exit 1; }
# Warm daemon restart: a cold session writes the persistent cache, a
# restarted daemon must answer the same script identically on stdout while
# reporting nonzero disk hits on stderr.
serve_env "$repo_root/target/release/delin_serve" --workers 1 --cache-file "$serve_tmp/cache.bin" \
  < tests/golden/serve_requests.jsonl > "$serve_tmp/cold.jsonl" 2> /dev/null
serve_env "$repo_root/target/release/delin_serve" --workers 1 --cache-file "$serve_tmp/cache.bin" \
  < tests/golden/serve_requests.jsonl > "$serve_tmp/warm.jsonl" 2> "$serve_tmp/warm.err"
diff "$serve_tmp/cold.jsonl" "$serve_tmp/warm.jsonl" \
  || { echo "warm daemon restart answered differently from cold" >&2; exit 1; }
grep -qE 'persistent-cache: loaded=[1-9][0-9]* hits=[1-9][0-9]*' "$serve_tmp/warm.err" \
  || { echo "warm daemon restart reported no disk hits:" >&2; cat "$serve_tmp/warm.err" >&2; exit 1; }
# Stdin runs the one serve loop as a single connection: the golden session
# ends with the unified exit report, one connection and no protocol errors.
serve_env "$repo_root/target/release/delin_serve" --workers 1 \
  < tests/golden/serve_requests.jsonl > /dev/null 2> "$serve_tmp/golden.err"
grep -qE '^serve: connections=1 .* errors=0 ' "$serve_tmp/golden.err" \
  || { echo "stdin session lacks the unified exit report:" >&2; cat "$serve_tmp/golden.err" >&2; exit 1; }
# A shutdown request ends a stdin session: the request before it is
# answered, the one after it is never read, and the daemon exits 0.
{ sed -n 1p tests/golden/serve_requests.jsonl; echo '{"shutdown":true}'
  sed -n 2p tests/golden/serve_requests.jsonl; } > "$serve_tmp/shutdown.jsonl"
serve_env "$repo_root/target/release/delin_serve" --workers 1 \
  < "$serve_tmp/shutdown.jsonl" > "$serve_tmp/shutdown.out" 2> "$serve_tmp/shutdown.err" \
  || { echo "stdin session did not exit 0 after shutdown:" >&2; cat "$serve_tmp/shutdown.err" >&2; exit 1; }
[ "$(wc -l < "$serve_tmp/shutdown.out")" -eq 2 ] \
  && grep -qxF '{"type":"shutdown"}' "$serve_tmp/shutdown.out" \
  && grep -qF '{"id":"r1","type":"result"' "$serve_tmp/shutdown.out" \
  || { echo "shutdown session answered wrongly:" >&2; cat "$serve_tmp/shutdown.out" >&2; exit 1; }
rm -rf "$serve_tmp"
# Concurrent-socket gate: a real daemon on a Unix socket serving four
# simultaneous loadgen clients, one of which gets a seeded mid-stream
# disconnect (its socket dies after 37 request bytes). The surviving
# clients' responses must be byte-identical to a fresh sequential replay
# (loadgen --verify), the survivor/replay counters are deterministic, and
# the daemon must record the kill as client-gone, not a transport error.
loadgen_tmp="$(mktemp -d)"
# Backgrounded inline (not via the serve_env function): a backgrounded
# function call forks a subshell, so $! would be the subshell — which does
# not forward SIGINT — and the shutdown wait below would hang. A simple
# backgrounded `env` execs straight into the daemon, keeping the pid.
env -u DELIN_DEADLINE_MS -u DELIN_CACHE_CAP -u DELIN_CHAOS_SEED DELIN_WORKERS=1 \
  "$repo_root/target/release/delin_serve" --workers 4 \
  --socket "$loadgen_tmp/delin.sock" 2> "$loadgen_tmp/serve.err" &
serve_pid=$!
for _ in $(seq 50); do [ -S "$loadgen_tmp/delin.sock" ] && break; sleep 0.1; done
[ -S "$loadgen_tmp/delin.sock" ] \
  || { echo "delin_serve socket never appeared" >&2; cat "$loadgen_tmp/serve.err" >&2; exit 1; }
"$repo_root/target/release/delin_loadgen" --socket "$loadgen_tmp/delin.sock" \
  --clients 4 --requests 8 --disconnect 2 --verify --out "$loadgen_tmp/loadgen.json" > /dev/null \
  || { echo "delin_loadgen gate failed" >&2; cat "$loadgen_tmp/serve.err" >&2; exit 1; }
kill -INT "$serve_pid" && wait "$serve_pid" || true # 130 on SIGINT by design
for key in '"verified": true' '"surviving_clients": 3' '"replayed": 24' \
           '"replay_mismatches": 0'; do
  grep -qF "$key" "$loadgen_tmp/loadgen.json" \
    || { echo "loadgen.json missing $key" >&2; cat "$loadgen_tmp/loadgen.json" >&2; exit 1; }
done
grep -qE 'client_gone=[1-9]' "$loadgen_tmp/serve.err" \
  || { echo "daemon did not record the injected disconnect:" >&2; cat "$loadgen_tmp/serve.err" >&2; exit 1; }
rm -rf "$loadgen_tmp"
# Fault-injection suite: seeded chaos (panics, zero-node budgets, expired
# deadlines) must leave reports byte-identical across worker counts.
cargo test -q --features chaos --test chaos_suite
# Starvation soundness under fault injection: every unit a faulted batch
# still analyzes keeps every dependence and direction vector of the clean
# run, for any worker count.
cargo test -q --features chaos --test incremental_equivalence
# Chaos faults must reach every pair of a pair class, not only the pair
# that represents it.
cargo test -q -p delin-vic --features chaos --lib deps::
# The same determinism matrix with faults firing (seed 42).
cargo run --release -q -p delin-bench --features chaos --bin batch_corpus -- --chaos --verify --units 18 > /dev/null
# Every package's targets, not only the root package's.
cargo clippy --workspace --all-targets -- -D warnings
cargo clippy --workspace --all-targets --features delinearization/chaos,delin-vic/chaos -- -D warnings
cargo fmt --check
echo "ci: all green"
