#!/usr/bin/env bash
# Tier-1 gate: everything that must be green before a commit lands.
#
#   scripts/check.sh            run the full gate
#   scripts/check.sh --fast     skip the release build, benches, the
#                               analyze round-trips, and schema diffs
#                               (debug test cycle)
#   scripts/check.sh --smoke    run only the guarded benches, recording
#                               results/BENCH_observer_overhead.json,
#                               results/BENCH_analyze.json,
#                               results/BENCH_faults.json,
#                               results/BENCH_scheduler.json,
#                               results/BENCH_sharded.json,
#                               results/BENCH_vcmesh.json, and
#                               results/BENCH_explore.json (seeded on
#                               first run; >20% ns/event regression
#                               fails with a per-case diff), then folds
#                               them into results/BENCH_summary.json
#
# The gate is a superset of ROADMAP.md's tier-1 verify
# (`cargo build --release && cargo test -q`), adding the lint and
# formatting checks this repository holds itself to, the perfbench
# workspace's own tests (so library or CLI drift that would break the
# end-to-end benchmark fails the gate), smoke runs of the
# guarded benches (the zero-observer fast path, the analysis pipeline,
# the disarmed fault hooks, the calendar-vs-heap scheduler hold
# model, the serial halves of the sharded-engine bench, and the
# credit-based VC mesh router must keep their per-event cost), a
# sharded-vs-serial differential gate (the same CLI run at
# --shards 1/2/4 must print byte-identical reports; the VC mesh's
# metrics document must match after dropping only the counters'
# shard-layout fields), a metrics -> trace -> analyze round-trip on
# every substrate, a fault oracle round-trip on every substrate (a
# violated oracle exits non-zero), a profiled sharded round-trip (the
# `--profile` document must carry the pinned asynoc-profile-v1 tag and
# must not move a byte of stdout), and diffs of the `asynoc metrics` /
# `asynoc analyze` / `asynoc faults` JSON report schemas plus the
# asynoc-profile-v1 schema skeleton against the checked-in goldens so
# report-format changes are always deliberate (the metrics golden pins
# the mot, mesh, and vcmesh document shapes side by side). The
# exploration autotuner gets three gates: an `asynoc explore --smoke`
# run on the default 8x8 whose built-in regression guard asserts
# OptHybridSpeculative lands on (or within tolerance of) the Pareto
# front, a --jobs 1 vs --jobs 2 byte-identity diff of the same report,
# and a diff of the asynoc-explore-v1 schema skeleton against its
# golden. Streaming
# telemetry gets two gates of its own: folding a `--stream` NDJSON file
# back through `asynoc watch --fold` must reproduce the batch metrics
# document byte for byte on every substrate at shards 1 and 2, and the
# memcheck binary must show a streamed run's peak heap staying put when
# the run gets 8x longer.
set -euo pipefail
cd "$(dirname "$0")/.."

fast=0
smoke=0
case "${1:-}" in
--fast) fast=1 ;;
--smoke) smoke=1 ;;
esac

# Bench binaries run with the package directory as CWD, so hand them
# absolute record paths.
run_benches() {
    echo "==> observer-overhead bench (smoke, baseline-guarded)"
    cargo bench -q -p asynoc-bench --bench observer_overhead -- --smoke \
        --json "$PWD/results/BENCH_observer_overhead.json"
    echo "==> analyze bench (smoke, baseline-guarded)"
    cargo bench -q -p asynoc-bench --bench analyze -- --smoke \
        --json "$PWD/results/BENCH_analyze.json"
    echo "==> faults bench (smoke, baseline-guarded: disarmed hooks stay free)"
    cargo bench -q -p asynoc-bench --bench faults -- --smoke \
        --json "$PWD/results/BENCH_faults.json"
    echo "==> scheduler bench (smoke, baseline-guarded: calendar >= 1.3x heap at depth 4096)"
    cargo bench -q -p asynoc-bench --bench scheduler -- --smoke \
        --json "$PWD/results/BENCH_scheduler.json"
    echo "==> sharded bench (smoke, baseline-guarded; speedup gate arms at >= 4 threads)"
    cargo bench -q -p asynoc-bench --bench sharded -- --smoke \
        --json "$PWD/results/BENCH_sharded.json"
    echo "==> vcmesh bench (smoke, baseline-guarded: credit-loop per-event cost)"
    cargo bench -q -p asynoc-bench --bench vcmesh -- --smoke \
        --json "$PWD/results/BENCH_vcmesh.json"
    echo "==> explore bench (smoke, baseline-guarded: scoring layer stays thin)"
    cargo bench -q -p asynoc-bench --bench explore -- --smoke \
        --json "$PWD/results/BENCH_explore.json"
    echo "==> folding bench records into results/BENCH_summary.json"
    scripts/bench_summary
}

if [[ "$smoke" -eq 1 ]]; then
    run_benches
    echo "OK: bench smoke passed"
    exit 0
fi

# Lints first: they fail in seconds, tests take minutes.
echo "==> cargo fmt --check"
cargo fmt --check

echo "==> cargo clippy --all-targets -- -D warnings"
cargo clippy --all-targets -- -D warnings

# Rustdoc is part of the contract: asynoc-kernel and asynoc-engine carry
# #![deny(missing_docs)], and no crate may ship broken intra-doc links.
echo "==> cargo doc --no-deps (warnings are errors)"
RUSTDOCFLAGS="-D warnings" cargo doc --no-deps --workspace --quiet

if [[ "$fast" -eq 0 ]]; then
    echo "==> cargo build --release"
    cargo build --release
fi

echo "==> cargo test -q"
cargo test -q

echo "==> cargo test --workspace -q"
cargo test --workspace -q

# The end-to-end benchmark is its own workspace; its tests replay every
# workload through the CLI and the library APIs, so API drift that would
# break the benchmark fails here.
echo "==> perfbench tests"
cargo test --release --offline -q --manifest-path perfbench/Cargo.toml

if [[ "$fast" -eq 0 ]]; then
    run_benches

    echo "==> metrics -> trace -> analyze round-trip (mot)"
    tmpdir="$(mktemp -d)"
    trap 'rm -rf "$tmpdir"' EXIT
    cargo run -q --release -p asynoc-cli -- metrics --arch BasicHybridSpeculative \
        --benchmark Multicast10 --rate 0.3 --warmup-ns 40 --measure-ns 400 \
        --trace-limit 200000 --metrics-out "$tmpdir/mot-metrics.json" \
        --trace-out "$tmpdir/mot-trace.ndjson"
    cargo run -q --release -p asynoc-cli -- analyze --trace-in "$tmpdir/mot-trace.ndjson" \
        --report-out "$tmpdir/mot-analysis.json" --top 5

    echo "==> metrics -> trace -> analyze round-trip (mesh)"
    cargo run -q --release -p asynoc-cli -- metrics --substrate mesh --benchmark Uniform-random \
        --rate 0.1 --size 4 --warmup-ns 40 --measure-ns 400 \
        --trace-limit 200000 --metrics-out "$tmpdir/mesh-metrics.json" \
        --trace-out "$tmpdir/mesh-trace.ndjson"
    cargo run -q --release -p asynoc-cli -- analyze --trace-in "$tmpdir/mesh-trace.ndjson" \
        --report-out "$tmpdir/mesh-analysis.json" --top 5

    echo "==> metrics -> trace -> analyze round-trip (vcmesh)"
    cargo run -q --release -p asynoc-cli -- metrics --substrate vcmesh --mcast dpm \
        --benchmark Multicast5 --rate 0.1 --size 4 --warmup-ns 40 --measure-ns 400 \
        --trace-limit 200000 --metrics-out "$tmpdir/vcmesh-metrics.json" \
        --trace-out "$tmpdir/vcmesh-trace.ndjson"
    cargo run -q --release -p asynoc-cli -- analyze --trace-in "$tmpdir/vcmesh-trace.ndjson" \
        --report-out "$tmpdir/vcmesh-analysis.json" --top 5

    echo "==> metrics report schema vs results/metrics_schema.golden.json"
    diff results/metrics_schema.golden.json \
        <(cargo run -q --release -p asynoc-bench --bin metrics_schema) \
        || {
            echo "metrics schema drifted; if intentional, regenerate with"
            echo "  cargo run --release -p asynoc-bench --bin metrics_schema > results/metrics_schema.golden.json"
            exit 1
        }

    echo "==> analysis report schema vs results/analysis_schema.golden.json"
    diff results/analysis_schema.golden.json \
        <(cargo run -q --release -p asynoc-bench --bin analysis_schema) \
        || {
            echo "analysis schema drifted; if intentional, regenerate with"
            echo "  cargo run --release -p asynoc-bench --bin analysis_schema > results/analysis_schema.golden.json"
            exit 1
        }

    echo "==> sharded vs serial differential (mot, 64x64): --shards 1/2/4 must agree byte-for-byte"
    cargo run -q --release -p asynoc-cli -- run --arch OptHybridSpeculative \
        --benchmark Multicast5 --rate 0.2 --size 64 --shards 1 >"$tmpdir/mot-serial.txt"
    for s in 2 4; do
        cargo run -q --release -p asynoc-cli -- run --arch OptHybridSpeculative \
            --benchmark Multicast5 --rate 0.2 --size 64 --shards "$s" >"$tmpdir/mot-sharded.txt"
        diff "$tmpdir/mot-serial.txt" "$tmpdir/mot-sharded.txt" || {
            echo "64x64 MoT report diverged at --shards $s"
            exit 1
        }
    done

    echo "==> sharded vs serial differential (mesh, 8x8): --shards 1/2/4 must agree byte-for-byte"
    cargo run -q --release -p asynoc-cli -- run --substrate mesh --benchmark Uniform-random \
        --rate 0.1 --size 8 --shards 1 >"$tmpdir/mesh-serial.txt"
    for s in 2 4; do
        cargo run -q --release -p asynoc-cli -- run --substrate mesh --benchmark Uniform-random \
            --rate 0.1 --size 8 --shards "$s" >"$tmpdir/mesh-sharded.txt"
        diff "$tmpdir/mesh-serial.txt" "$tmpdir/mesh-sharded.txt" || {
            echo "8x8 mesh report diverged at --shards $s"
            exit 1
        }
    done

    echo "==> sharded vs serial differential (vcmesh, 4x4): metrics at --shards 1/2/4 must agree"
    # The metrics document's counters section records the shard layout
    # itself (shards, shard_events), so the comparison drops exactly
    # those fields; every other byte must match.
    strip_shard_layout() {
        sed -e '/"shard_events": \[/,/\]/d' -e '/"shards":/d' "$1"
    }
    cargo run -q --release -p asynoc-cli -- metrics --substrate vcmesh --mcast dpm \
        --benchmark Multicast5 --rate 0.1 --size 4 --warmup-ns 40 --measure-ns 400 \
        --shards 1 --metrics-out "$tmpdir/vcmesh-serial.json" >/dev/null
    for s in 2 4; do
        cargo run -q --release -p asynoc-cli -- metrics --substrate vcmesh --mcast dpm \
            --benchmark Multicast5 --rate 0.1 --size 4 --warmup-ns 40 --measure-ns 400 \
            --shards "$s" --metrics-out "$tmpdir/vcmesh-sharded.json" >/dev/null
        diff <(strip_shard_layout "$tmpdir/vcmesh-serial.json") \
            <(strip_shard_layout "$tmpdir/vcmesh-sharded.json") || {
            echo "4x4 VC mesh metrics diverged at --shards $s"
            exit 1
        }
    done

    echo "==> profiled sharded round-trip (mot): --profile writes the document, stdout unmoved"
    cargo run -q --release -p asynoc-cli -- run --arch OptHybridSpeculative \
        --benchmark Multicast5 --rate 0.2 --size 64 --shards 2 \
        --profile "$tmpdir/mot-profile.json" >"$tmpdir/mot-profiled.txt"
    diff "$tmpdir/mot-serial.txt" "$tmpdir/mot-profiled.txt" || {
        echo "--profile changed the 64x64 MoT report"
        exit 1
    }
    grep -q '"schema": "asynoc-profile-v1"' "$tmpdir/mot-profile.json" || {
        echo "MoT profile document is missing the asynoc-profile-v1 tag"
        exit 1
    }

    echo "==> profiled sharded round-trip (mesh): --profile writes the document, stdout unmoved"
    cargo run -q --release -p asynoc-cli -- run --substrate mesh --benchmark Uniform-random \
        --rate 0.1 --size 8 --shards 2 \
        --profile "$tmpdir/mesh-profile.json" >"$tmpdir/mesh-profiled.txt"
    diff "$tmpdir/mesh-serial.txt" "$tmpdir/mesh-profiled.txt" || {
        echo "--profile changed the 8x8 mesh report"
        exit 1
    }
    grep -q '"schema": "asynoc-profile-v1"' "$tmpdir/mesh-profile.json" || {
        echo "mesh profile document is missing the asynoc-profile-v1 tag"
        exit 1
    }

    echo "==> profile schema vs results/profile_schema.golden.json"
    diff results/profile_schema.golden.json \
        <(cargo run -q --release -p asynoc-bench --bin profile_schema) \
        || {
            echo "profile schema drifted; if intentional, regenerate with"
            echo "  cargo run --release -p asynoc-bench --bin profile_schema > results/profile_schema.golden.json"
            exit 1
        }

    echo "==> fault oracle round-trip (mot): clean vs faulted under one seed"
    cargo run -q --release -p asynoc-cli -- faults --arch BasicHybridSpeculative \
        --benchmark Multicast5 --rate 0.2 --warmup-ns 20 --measure-ns 150 \
        --oracle --report-out "$tmpdir/mot-faults.json"

    echo "==> fault oracle round-trip (mesh): clean vs faulted under one seed"
    cargo run -q --release -p asynoc-cli -- faults --substrate mesh \
        --benchmark Uniform-random --rate 0.1 --size 4 --warmup-ns 20 --measure-ns 150 \
        --oracle --report-out "$tmpdir/mesh-faults.json"

    echo "==> fault oracle round-trip (vcmesh): clean vs faulted under one seed"
    cargo run -q --release -p asynoc-cli -- faults --substrate vcmesh --mcast dpm \
        --benchmark Multicast5 --rate 0.1 --size 4 --warmup-ns 20 --measure-ns 150 \
        --oracle --report-out "$tmpdir/vcmesh-faults.json"

    echo "==> faults report schema vs results/faults_schema.golden.json"
    diff results/faults_schema.golden.json \
        <(cargo run -q --release -p asynoc-bench --bin faults_schema) \
        || {
            echo "faults schema drifted; if intentional, regenerate with"
            echo "  cargo run --release -p asynoc-bench --bin faults_schema > results/faults_schema.golden.json"
            exit 1
        }

    echo "==> explore smoke + regression guard (8x8): OptHybridSpeculative must sit on the front"
    # The command's built-in guard exits non-zero if the preset drifts
    # off the tolerance envelope of the Pareto front.
    cargo run -q --release -p asynoc-cli -- explore --smoke --jobs 1 \
        >"$tmpdir/explore-j1.json"
    grep -q '"schema": "asynoc-explore-v1"' "$tmpdir/explore-j1.json" || {
        echo "exploration report is missing the asynoc-explore-v1 tag"
        exit 1
    }

    echo "==> explore jobs differential: --jobs 1 vs --jobs 2 must agree byte-for-byte"
    cargo run -q --release -p asynoc-cli -- explore --smoke --jobs 2 \
        >"$tmpdir/explore-j2.json"
    diff "$tmpdir/explore-j1.json" "$tmpdir/explore-j2.json" || {
        echo "8x8 exploration report diverged between --jobs 1 and 2"
        exit 1
    }

    echo "==> explore report schema vs results/explore_schema.golden.json"
    diff results/explore_schema.golden.json \
        <(cargo run -q --release -p asynoc-bench --bin explore_schema) \
        || {
            echo "explore schema drifted; if intentional, regenerate with"
            echo "  cargo run --release -p asynoc-bench --bin explore_schema > results/explore_schema.golden.json"
            exit 1
        }

    echo "==> stream fold-back gate: folded stream == batch metrics, byte for byte (all substrates, shards 1/2)"
    for sub in mot mesh vcmesh; do
        if [[ "$sub" == mot ]]; then
            sub_args=(--arch BasicHybridSpeculative --benchmark Multicast10 --rate 0.3)
        elif [[ "$sub" == mesh ]]; then
            sub_args=(--substrate mesh --benchmark Uniform-random --rate 0.1 --size 4)
        else
            sub_args=(--substrate vcmesh --mcast dpm --benchmark Multicast5 --rate 0.1 --size 4)
        fi
        for s in 1 2; do
            cargo run -q --release -p asynoc-cli -- metrics "${sub_args[@]}" \
                --warmup-ns 40 --measure-ns 400 --shards "$s" \
                --metrics-out "$tmpdir/$sub-s$s-batch.json" \
                --stream "$tmpdir/$sub-s$s-stream.ndjson" >/dev/null
            cargo run -q --release -p asynoc-cli -- watch \
                --stream-in "$tmpdir/$sub-s$s-stream.ndjson" --once \
                --fold "$tmpdir/$sub-s$s-folded.json" >/dev/null
            diff "$tmpdir/$sub-s$s-batch.json" "$tmpdir/$sub-s$s-folded.json" || {
                echo "folded $sub stream diverged from the batch document at --shards $s"
                exit 1
            }
        done
        # Everything before the end record (whose counters section names
        # the shard split) must be byte-identical across shard counts.
        diff <(sed '$d' "$tmpdir/$sub-s1-stream.ndjson") \
            <(sed '$d' "$tmpdir/$sub-s2-stream.ndjson") || {
            echo "$sub stream records diverged between --shards 1 and 2"
            exit 1
        }
    done

    echo "==> bounded-memory gate: streamed peak heap independent of run length"
    cargo run -q --release -p asynoc-bench --bin memcheck
fi

echo "OK: all tier-1 checks passed"
