#!/usr/bin/env bash
# CI gate: the full tier-1 pipeline, entirely offline.
#
# The workspace's standing policy is std-only dependencies, so every step
# runs with --offline — a network fetch anywhere is itself a failure.
set -euo pipefail
cd "$(dirname "$0")/.."

echo "==> cargo build --release --offline"
cargo build --workspace --release --offline
# Every stage below calls the binary this build made; only the debug fuzz
# stage goes through cargo, because it exists to run the debug build.
BOW_CLI=target/release/bow-cli

echo "==> cargo test --offline"
cargo test --workspace -q --offline

echo "==> golden stats fingerprints (release): {pascal, modern} x {stack, barrier}, bfs at paper scale"
# The pinned per-(workload x collector) fingerprint tables must hold in
# release too: optimization-level-dependent divergence in the model is a
# bug. One test file walks the scenario matrix:
#  * pascal and modern (sub-cores, control-bit interlock, uniform RF)
#    each pin a table of their own under the SIMT stack; both land in
#    target/golden-artifacts/ as CI artifacts;
#  * the barrier scenarios, the same 15-workload x 4-collector suite on
#    *both* cores with compiler-lowered convergence barriers (BSSY/BSYNC)
#    and no stack anywhere, pin no table: every barrier cell must equal
#    the pinned *stack* row (stack and barrier reconvergence differ in no
#    counter);
#  * `bfs` at Scale::Paper on both cores is the one cell whose counts
#    depend on when one SM's global store reaches another (stores land
#    when they execute; fingerprints_bfs_paper.txt).
# Re-bless deliberately with BOW_BLESS=1 after intentional changes.
cargo test --release -q --offline -p bow --test golden_fingerprints
# Skipping quiet SM-cycles (docs/ARCHITECTURE.md, hot-path rule 6) must
# equal ticking every cycle with optimisations on too: the same launches
# run both ways and every statistic, event and report must agree.
cargo test --release -q --offline -p bow-sim --lib skipping_quiet_cycles
mkdir -p target/golden-artifacts
cp crates/bow/tests/golden/fingerprints.txt target/golden-artifacts/pascal.txt
cp crates/bow/tests/golden/fingerprints_modern.txt target/golden-artifacts/modern.txt

echo "==> bow figure all (every committed table regenerates byte for byte)"
# results/ is what EXPERIMENTS.md argues from, so a model change that
# moves a number must show up as a diff there, not go stale unnoticed:
# regenerate all 19 tables and the 5 corpus reports at paper scale and
# compare each with its committed twin. A file on one side only fails
# too (cmp on the committed side, the second loop on the regenerated
# side; the per-cell sweep exports are the other *.json and hold wall
# times, so they are neither committed nor compared). target/figures/
# is uploaded as a workflow artifact on failure; bless an intentional
# change with `bow-cli figure all`.
rm -rf target/figures
"$BOW_CLI" figure all --out target/figures > /dev/null
STALE=0
for f in results/*.txt results/corpus_*.json; do
    cmp "$f" "target/figures/$(basename "$f")" || STALE=1
done
for f in target/figures/*.txt target/figures/corpus_*.json; do
    [ -e "results/$(basename "$f")" ] || { echo "$f has no committed twin"; STALE=1; }
done
[ "$STALE" = 0 ] || { echo "results/ is stale (or a table is orphaned)"; exit 1; }

echo "==> allocation guards: a warmed-up Sm::tick never touches the heap; the static gate allocates per kernel (release)"
# A counting global allocator around {baseline, bow, bow-wr, rfc} x {pascal,
# modern} on an ALU-heavy, a memory-heavy and a divergent kernel: zero
# allocations per tick once the launch is warm, global stores
# included. It counts, it does not time, so it cannot flake; it is what
# keeps per-warp-per-scan `Vec`s (EXPERIMENTS.md, "Where a simulated
# cycle goes") from coming back.
cargo test --release -q --offline -p bow-sim --test hot_path_allocs
# The static gate every corpus candidate passes is held to a per-kernel
# rule: annotate -> emit_ctrl -> lint allocates per kernel and per block,
# never per instruction or per fixpoint round, a kernel clone a fixed
# few times, the hint verifier per write, never per explored state, and
# encode_kernel only its output.
cargo test --release -q --offline -p bow-compiler --test gate_allocs
# Corpus generation draws candidates on every core: whole 1000-kernel
# manifests (seeds 1, 2, 3 and the default) must still hash to their
# pinned digests in release, where the threads really overlap.
cargo test --release -q --offline -p bow --test corpus_digest

# The model matrix every per-axis stage below walks: both SM cores x both
# divergence models. The value names are the axes' name tables
# (CoreModelKind::ALL / DivergenceModel::ALL).
CORES="pascal modern"
DIVERGENCES="stack barrier"

# Every generated kernel runs under all collector models, each launch
# judged by the lint, oracle, reference and sanitizer checks: the static
# hint verifier, the lockstep architectural oracle, the independent host
# model and the race sanitizer. A failing cell is a finding, exit 5,
# after minimized .asm repros land in target/fuzz-repros/. On `modern`
# every kernel gets a compiler-emitted control-bit sidecar and runs under
# the sub-core pipeline; under `barrier` it is lowered to convergence
# barriers, so reconvergence rides the per-warp barrier registers. The
# sanitizer rides the same launch as the lockstep oracle, one launch per
# cell, so its hint replay (the shared `ArchWindow`) sees every annotated
# case under every BOW config; a dynamic finding the static lints do not
# vouch for fails the case. The release cells run the first 512 cases of
# the default session seed (ROADMAP item 1(d)), eight times the 64-case
# `--smoke`: clean on every cell since the scoreboard holds predicate
# reads (item 1(a)); the first known finding of that seed is item 11's
# case 1718. About 1.3-1.6 s a cell on the 2-core reference host.
for CORE in $CORES; do
    for DIV in $DIVERGENCES; do
        echo "==> bow fuzz --cases 512 --core-model ${CORE} --divergence ${DIV}"
        "$BOW_CLI" \
            fuzz --cases 512 --core-model "${CORE}" --divergence "${DIV}" \
            --out target/fuzz-repros
    done
done

# The same smoke once per core in the debug profile: there the issue
# stage re-classifies every warp of a scheduler at each scan and asserts
# the event-maintained ready set against it (docs/ARCHITECTURE.md,
# "Hot-path rules", rule 4), so generated kernels — barriers, predicated
# branches, collector pressure — cross-check it too, not only the unit
# tests and goldens. About 2.1-2.2 s a cell on the 2-core reference host
# once the debug build exists (cargo test above made most of it).
for CORE in $CORES; do
    echo "==> bow fuzz --smoke --core-model ${CORE} (debug: ready-set cross-check)"
    cargo run -q --offline -p bow-cli -- \
        fuzz --smoke --core-model "${CORE}" --out target/fuzz-repros
done

# Static-analysis gate: every workload kernel, compiled by the plan of
# the targeted models, must be free of lint errors *and* warnings
# (advisories allowed), including the independent hint-soundness verifier
# (B010). `modern` emits the control-bit sidecar first, so the sidecar
# lints (B013/B014) judge real emitter output; `barrier` lowers first, so
# the barrier-structure lints (B017/B018) judge real `lower_to_barriers`
# output. One JSON report per cell is kept as a CI artifact.
mkdir -p target/lint-reports
for CORE in $CORES; do
    for DIV in $DIVERGENCES; do
        echo "==> bow lint --all-workloads --core-model ${CORE} --divergence ${DIV}"
        "$BOW_CLI" \
            lint --all-workloads --deny-warnings \
            --core-model "${CORE}" --divergence "${DIV}" \
            --json "target/lint-reports/workloads_${CORE}_${DIV}.json"
    done
done

echo "==> bow lint --mutate --smoke (mutation sanitizer, fixed seed)"
# Audits the verifier itself: flips sound hints to BocOnly across a
# generated corpus and requires every mutant that demonstrably loses a
# live value (per `ArchWindow`, the architectural window replay) to be
# statically flagged, and every unsound mutant confirmed by the sanitizer
# (a `hint-violation` from one sanitized bow-wr pipeline launch).
"$BOW_CLI" \
    lint --mutate --smoke --json target/lint-reports/mutation.json

echo "==> bow lint --mutate --smoke --divergence barrier"
# The same audit with the replayed kernels lowered to convergence
# barriers: hint soundness must be judged identically when the stack is
# gone, so every demonstrably-unsound mutant must still be flagged and
# sanitizer-confirmed.
"$BOW_CLI" \
    lint --mutate --smoke --divergence barrier \
    --json target/lint-reports/mutation_barrier.json

echo "==> bow corpus sanitize --smoke (dynamic/static cross-validation, fixed seed)"
# The other direction of the audit: a fixed-seed 64-kernel campaign (plus
# the adversarial stratum) runs on both core models with the race
# sanitizer attached, and every dynamic finding must be vouched for by a
# static diagnostic on the same kernel (race -> B015/B003, uninit-shared
# -> B016, ...). An uncovered finding is a static-analysis false
# negative: exit 5. The campaign report (incl. the precision of the
# static race flags) lands in target/lint-reports/ as a CI artifact.
"$BOW_CLI" \
    corpus sanitize --smoke --out target/lint-reports/sanitizer_campaign.json

echo "==> bow corpus sanitize (the committed campaign regenerates)"
# results/sanitizer_campaign.json is the full campaign (the 1000-kernel
# corpus plus the adversarial stratum, both cores): rerun it into
# target/ and require every field but `wall_seconds` to match the
# committed file, so a change that moves a count or a finding shows up as
# a diff. About 2.2 s on the 2-core reference host. Bless an intentional
# change with `bow-cli corpus sanitize` (its default --out).
"$BOW_CLI" \
    corpus sanitize --out target/lint-reports/sanitizer_campaign_full.json > /dev/null
python3 - <<'EOF'
import json, sys
committed = json.load(open("results/sanitizer_campaign.json"))
fresh = json.load(open("target/lint-reports/sanitizer_campaign_full.json"))
for doc in (committed, fresh):
    doc.pop("wall_seconds", None)
if committed != fresh:
    keys = sorted(k for k in committed.keys() | fresh.keys() if committed.get(k) != fresh.get(k))
    sys.exit(f"results/sanitizer_campaign.json is stale in: {', '.join(keys)}")
print("    results/sanitizer_campaign.json regenerates (wall time aside)")
EOF

echo "==> bow-server smoke (serve / submit / cache-hit / shutdown)"
# Boots the real server on an ephemeral port, drives it with the real
# client, and proves the content-addressed cache: the second identical
# submission must come back "cached": true without invoking the
# simulator, all while another client holds a connection open without
# sending anything. It also checks that `submit` runs the design `run`
# runs for the same flags. Store stats land in
# target/server-smoke/store-stats.json (artifact).
rm -rf target/server-smoke
mkdir -p target/server-smoke
"$BOW_CLI" \
    serve --addr 127.0.0.1:0 --workers 2 \
    --store target/server-smoke/store --port-file target/server-smoke/port &
SERVER_PID=$!
trap 'kill "$SERVER_PID" 2>/dev/null || true' EXIT
for _ in $(seq 1 100); do
    [ -s target/server-smoke/port ] && break
    sleep 0.2
done
ADDR="$(cat target/server-smoke/port)"
echo "    server on ${ADDR}"
# A client that connects and never sends a byte keeps one acceptor thread
# waiting on it until the server's read timeout closes it; every request
# below, and the shutdown, must complete around it.
exec 3<>"/dev/tcp/${ADDR%:*}/${ADDR##*:}"
submit() {
    "$BOW_CLI" submit "$@" --addr "${ADDR}"
}
FIRST="$(submit vectoradd --collector bow-wr --window 3)"
echo "${FIRST}" | grep -q '"cached":false' || { echo "first submit unexpectedly cached"; exit 1; }
FP="$(echo "${FIRST}" | sed -n 's/.*"fingerprint":"\([0-9a-f]\{64\}\)".*/\1/p')"
[ -n "${FP}" ] || { echo "no fingerprint in response"; exit 1; }
# Async path: queue a different run, poll the job to completion.
JOB="$(submit lps --collector bow --no-wait | sed -n 's/.*"job":\([0-9]*\).*/\1/p')"
for _ in $(seq 1 100); do
    STATE="$(submit --job "${JOB}")"
    echo "${STATE}" | grep -q '"state":"done"' && break
    echo "${STATE}" | grep -q '"state":"failed"' && { echo "job failed: ${STATE}"; exit 1; }
    sleep 0.2
done
echo "${STATE}" | grep -q '"state":"done"' || { echo "job never finished: ${STATE}"; exit 1; }
# Cache hit: identical resubmission.
submit vectoradd --collector bow-wr --window 3 | grep -q '"cached":true' \
    || { echo "resubmission missed the cache"; exit 1; }
# The front ends agree on a design: `submit` runs what `run` runs for the
# same flags (a bow-flex buffer holds 4 x --window values on both).
FLEX_LABEL="$("$BOW_CLI" run vectoradd --collector bow-flex --window 5 \
    | sed -n '1s/^vectoradd under \(.*\): .*/\1/p')"
FLEX_CONFIG="$(submit vectoradd --collector bow-flex --window 5 \
    | python3 -c 'import json,sys; print(json.load(sys.stdin)["result"]["config"])')"
[ -n "${FLEX_LABEL}" ] && [ "${FLEX_CONFIG}" = "${FLEX_LABEL}" ] \
    || { echo "submit ran '${FLEX_CONFIG}' where run runs '${FLEX_LABEL}'"; exit 1; }
# The same for the model flags: a modern core with barrier divergence.
MODEL_FLAGS=(--collector bow-wr --window 3 --core-model modern --divergence barrier)
MODEL_LABEL="$("$BOW_CLI" run vectoradd "${MODEL_FLAGS[@]}" \
    | sed -n '1s/^vectoradd under \(.*\): .*/\1/p')"
MODEL_CONFIG="$(submit vectoradd "${MODEL_FLAGS[@]}" \
    | python3 -c 'import json,sys; print(json.load(sys.stdin)["result"]["config"])')"
[ -n "${MODEL_LABEL}" ] && [ "${MODEL_CONFIG}" = "${MODEL_LABEL}" ] \
    || { echo "submit ran '${MODEL_CONFIG}' where run runs '${MODEL_LABEL}'"; exit 1; }
# Fetch by fingerprint and check the stored document's schema tag.
submit --fetch "${FP}" | grep -q '"schema_version": 1' \
    || { echo "stored document is not schema v1"; exit 1; }
# The simulator ran exactly four times (three runs + one async job);
# cache hits add zero.
HEALTH="$(submit --health)"
echo "${HEALTH}" | grep -q '"sim_runs":4' \
    || { echo "cache hit invoked the simulator: ${HEALTH}"; exit 1; }
echo "${HEALTH}" | python3 -c 'import json,sys; print(json.dumps(json.load(sys.stdin)["store"], indent=2))' \
    > target/server-smoke/store-stats.json 2>/dev/null \
    || echo "${HEALTH}" > target/server-smoke/store-stats.json
submit --shutdown | grep -q 'shutting down' || { echo "shutdown failed"; exit 1; }
wait "$SERVER_PID"
trap - EXIT
exec 3<&-
echo "    cache and front ends verified: sim_runs=4 beside a silent connection, store stats in target/server-smoke/store-stats.json"

echo "==> corpus smoke (64 kernels, stratified gen + mini-sweep, both cores, three seeds)"
# The corpus regression tier (docs/TESTING.md, `Corpus tier`): a
# fixed-seed 64-kernel generation must populate every stratum and keep
# only lint-clean kernels, then a 16-kernel round-robin slice sweeps
# through all four collectors on both core models, every run checked
# against the lockstep oracle and the host model (a failing cell is
# listed and the sweep exits 5). The default seed's manifest and
# distribution JSON land in target/corpus-smoke/ as CI artifacts; seeds
# 1 and 2 run the same gate and sweeps in target/corpus-smoke/seed<N>/.
rm -rf target/corpus-smoke
for SEED in default 1 2; do
    DIR=target/corpus-smoke
    SEED_FLAGS=()
    if [ "${SEED}" != default ]; then
        DIR="target/corpus-smoke/seed${SEED}"
        SEED_FLAGS=(--seed "${SEED}")
    fi
    "$BOW_CLI" \
        corpus gen --count 64 "${SEED_FLAGS[@]}" --dir "${DIR}"
    python3 - "${DIR}" "${SEED}" <<'EOF'
import collections, json, sys
m = json.load(open(f"{sys.argv[1]}/manifest.json"))
kept = collections.Counter()
for k in m["kernels"]:
    if k["retained"]:
        assert "reject" not in k, f'{k["name"]}: retained but carries a reject code'
        kept[k["stratum"]] += 1
    else:
        assert k.get("reject"), f'{k["name"]}: rejected without a diagnostic code'
strata = {k["stratum"] for k in m["kernels"]}
empty = [s for s in strata if kept[s] == 0]
assert not empty, f"seed {sys.argv[2]}: strata with no retained kernel: {empty}"
print(f"    seed {sys.argv[2]}: {sum(kept.values())} retained across {len(strata)} strata, 100% lint-clean")
EOF
    for CORE in pascal modern; do
        "$BOW_CLI" \
            corpus sweep --dir "${DIR}" --limit 16 --core-model "${CORE}" \
            --out "${DIR}/dist_${CORE}.json" > /dev/null
        # The divergence matrix's population view: the same slice with
        # every kernel lowered to convergence barriers (`_barrier` twin
        # artifact, matching the corpus_report naming).
        "$BOW_CLI" \
            corpus sweep --dir "${DIR}" --limit 16 --core-model "${CORE}" \
            --divergence barrier \
            --out "${DIR}/dist_${CORE}_barrier.json" > /dev/null
        echo "    seed ${SEED}: ${CORE} distributions in ${DIR}/dist_${CORE}{,_barrier}.json"
    done
done

echo "==> benchmark/run.sh --smoke (the benchmark still builds and runs)"
# benchmark/ is a cargo workspace of its own that links the crates by
# path: bow::sim::{CollectorKind, CoreModelKind, DivergenceModel, Gpu,
# SimStats}, the GpuConfig fields it sets, the server and the corpus
# generator. A refactor that breaks that API passes every stage above
# and would first fail in the PR pipeline's benchmark run; one test-scale
# pass over every workload fails it here. Built into target/ so nothing
# is left under benchmark/ but its ignored out/ directory.
CARGO_TARGET_DIR=target/benchmark benchmark/run.sh --smoke > /dev/null

echo "==> cargo doc (warnings are errors)"
RUSTDOCFLAGS="-D warnings" cargo doc --workspace --no-deps --offline

echo "==> cargo fmt --check"
cargo fmt --all --check

echo "==> cargo clippy -D warnings"
cargo clippy --workspace --all-targets --offline -- -D warnings

echo "CI green."
