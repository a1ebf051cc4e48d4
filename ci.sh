#!/usr/bin/env sh
# Tier-1 verification + lint gate. Run before every push.
#
#   ./ci.sh            # build, test, clippy, fmt, doc
#
# The workspace builds fully offline (crates.io stand-ins live in shims/),
# so this needs no network access.
set -eu

cd "$(dirname "$0")"

echo "==> cargo build --release --workspace"
cargo build --release --workspace

echo "==> cargo test -q --workspace"
cargo test -q --workspace

echo "==> cargo clippy -q --workspace --all-targets -- -D warnings"
cargo clippy -q --workspace --all-targets -- -D warnings

echo "==> cargo fmt --check"
cargo fmt --check

echo "==> cargo doc --no-deps (warnings denied)"
RUSTDOCFLAGS="-D warnings" cargo doc --no-deps -q --workspace

echo "==> fault-injection suite (crash matrix, retries, corruption properties)"
cargo test -q -p iri-store --test fault_injection

echo "==> crash-recovery matrix in release mode"
cargo test --release -q -p iri-store --test fault_injection crash_matrix

echo "==> store equivalence at paper scale (3M records, release)"
IRI_EQUIV_RECORDS=3000000 cargo test --release -q -p iri-bench --test store_equivalence

echo "==> bench_store --smoke (prune-ratio, query-speedup, batched-sync gates)"
cargo run --release -q -p iri-bench --bin bench_store -- --smoke \
    --out target/BENCH_store_smoke.json --dir target/bench_store_smoke.store
python3 -c "
import json, sys
r = json.load(open('target/BENCH_store_smoke.json'))
assert r['schema'] == 'bench-store-v3', r['schema']
assert r['reports_identical'] is True
assert r['windowed_prune_ratio'] >= 0.9, r['windowed_prune_ratio']
assert r['windowed_query_speedup'] >= 4.0, r['windowed_query_speedup']
assert r['batched_sync_speedup'] >= 0.995, r['batched_sync_speedup']
" || { echo "    bench_store smoke gates failed"; exit 1; }
echo "    bench_store smoke gates passed"
python3 -c "
import json, sys
r = json.load(open('BENCH_store.json'))
assert r['schema'] == 'bench-store-v3', r['schema']
for key in ('effective_cores', 'windowed_prune_ratio', 'windowed_query_speedup',
            'batched_sync_speedup', 'reports_identical', 'queries', 'ingest'):
    assert key in r, key
" || { echo "    committed BENCH_store.json is not a well-formed v3 report"; exit 1; }
echo "    BENCH_store.json is well-formed bench-store-v3 JSON"

echo "==> bench_serve --smoke (concurrent serving correctness gate)"
cargo run --release -q -p iri-bench --bin bench_serve -- --smoke --out target/BENCH_serve_smoke.json
python3 -m json.tool target/BENCH_serve_smoke.json > /dev/null
echo "    bench_serve smoke report is well-formed JSON"
python3 -m json.tool BENCH_serve.json > /dev/null
echo "    BENCH_serve.json is well-formed JSON"

echo "==> bench_watch --smoke (incident detection precision/recall gate)"
cargo run --release -q -p iri-bench --bin bench_watch -- --smoke --out target/BENCH_watch_smoke.json
python3 -m json.tool target/BENCH_watch_smoke.json > /dev/null
echo "    bench_watch smoke report is well-formed JSON"
python3 -m json.tool BENCH_watch.json > /dev/null
echo "    BENCH_watch.json is well-formed JSON"

echo "==> bench_obs (observability overhead gate, spans + registry on)"
cargo run --release -q -p iri-bench --bin bench_obs -- --records 1000000 --iters 3 --out target/BENCH_obs_ci.json
python3 -c "
import json, sys
r = json.load(open('target/BENCH_obs_ci.json'))
worst = max(r['obs_overhead_pct_jobs1'], r['obs_overhead_pct_jobs4'])
sys.exit(0 if worst <= r['budget_pct'] else 1)
" || { echo "    bench_obs: instrumentation overhead above the 5% budget"; exit 1; }
echo "    observability overhead within the 5% budget"

echo "==> scenario packs: strict-parse every pack in packs/"
for p in packs/*.toml; do
    ./target/release/run_scenario --pack "$p" --check
done

echo "==> scenario pack end-to-end smoke (1 simulated hour, streaming runner)"
rm -rf target/ci_pack_smoke.store target/ci_pack_smoke.store-ribspill
./target/release/run_scenario --pack packs/quiet.toml \
    --store target/ci_pack_smoke.store --hours 1 --report-json target/ci_pack_smoke.json
python3 -c "
import json, sys
r = json.load(open('target/ci_pack_smoke.json'))
sys.exit(0 if r['events_written'] > 0 and r['store_generation'] > 0 else 1)
" || { echo "    pack smoke run committed nothing"; exit 1; }
echo "    quiet pack streamed 1 simulated hour into a live store"

echo "==> chain kill-and-resume smoke (record, kill at a chunk boundary, resume)"
rm -rf target/ci_chain_ref.store target/ci_chain_ref.store-chain \
       target/ci_chain_ref.store-ribspill target/ci_chain_res.store \
       target/ci_chain_res.store-chain target/ci_chain_res.store-ribspill
./target/release/run_scenario --pack packs/quiet.toml \
    --store target/ci_chain_ref.store --hours 1 --record > /dev/null
code=0
./target/release/run_scenario --pack packs/quiet.toml \
    --store target/ci_chain_res.store --hours 1 --record \
    --kill-after-chunks 2 > /dev/null || code=$?
[ "$code" -eq 9 ] || { echo "    --kill-after-chunks must exit 9, got $code"; exit 1; }
./target/release/run_scenario --pack packs/quiet.toml \
    --store target/ci_chain_res.store --hours 1 --resume > /dev/null
./target/release/iriq diff target/ci_chain_ref.store target/ci_chain_res.store
./target/release/iriq diff target/ci_chain_ref.store-chain target/ci_chain_res.store-chain
echo "    resumed store and chain are byte-identical to the unkilled run's"

echo "==> chain replay-equivalence smoke (paper-1996 pack, 1 simulated hour)"
rm -rf target/ci_replay_rec.store target/ci_replay_rec.store-chain \
       target/ci_replay_rec.store-ribspill target/ci_replay_rep.store \
       target/ci_replay_rep.store-chain target/ci_replay_rep.store-ribspill
./target/release/run_scenario --pack packs/paper_1996.toml \
    --store target/ci_replay_rec.store --hours 1 --record > /dev/null
./target/release/run_scenario --pack packs/paper_1996.toml \
    --store target/ci_replay_rep.store --hours 1 --replay \
    --chain target/ci_replay_rec.store-chain > /dev/null
./target/release/iriq diff target/ci_replay_rec.store target/ci_replay_rep.store
echo "    replay from the chain re-derived a byte-identical store"

echo "==> tracescope watch --state restart smoke"
rm -f target/ci_watch_state.json
./target/release/tracescope watch target/ci_pack_smoke.store \
    --rounds 1 --state target/ci_watch_state.json > /dev/null
./target/release/tracescope watch target/ci_pack_smoke.store \
    --rounds 1 --state target/ci_watch_state.json > target/ci_watch_resume.log
grep -q "resuming from" target/ci_watch_resume.log
echo "    restarted watch resumed from the persisted watermark"

echo "==> bench_scale (regenerates BENCH_scale.json; RSS + detection + resume gates)"
cargo run --release -q -p iri-bench --bin bench_scale
python3 -c "
import json
r = json.load(open('BENCH_scale.json'))
assert r['schema'] == 'bench-scale-v2', r['schema']
assert r['resume']['heads_match'] is True
assert all(p['chain_head'] for p in r['scale_points'])
" || { echo "    BENCH_scale.json is not a well-formed v2 report"; exit 1; }
echo "    BENCH_scale.json is well-formed bench-scale-v2 JSON (chain heads stamped)"

echo "==> tracescope --connect smoke (live health + metrics surface)"
rm -rf target/ci_connect.store target/ci_serve.fifo target/ci_serve.log
mkfifo target/ci_serve.fifo
./target/release/iri-serve target/ci_connect.store --create-rows 2048 --addr 127.0.0.1:0 \
    < target/ci_serve.fifo > target/ci_serve.log &
SERVE_PID=$!
exec 9> target/ci_serve.fifo
i=0
while ! grep -q "listening on" target/ci_serve.log 2>/dev/null; do
    i=$((i + 1))
    [ "$i" -gt 100 ] && { echo "    iri-serve did not come up"; kill "$SERVE_PID"; exit 1; }
    sleep 0.1
done
SERVE_ADDR=$(sed -n 's/^listening on //p' target/ci_serve.log)
./target/release/iriq --connect "$SERVE_ADDR" count-by-class > /dev/null
./target/release/tracescope --connect "$SERVE_ADDR" > target/ci_tracescope.log
grep -q "span tracer" target/ci_tracescope.log
grep -q "serve.plan.total_us" target/ci_tracescope.log
echo "quit" >&9
exec 9>&-
wait "$SERVE_PID"
echo "    tracescope --connect rendered health + metrics from a live server"

echo "ci: all green"
