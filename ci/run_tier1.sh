#!/usr/bin/env bash
# Tier-1 CI gate: the ROADMAP verify command, run from a clean build tree,
# with warnings promoted to errors so a warning regression fails the job,
# followed by a perf-smoke of the throughput driver (small instance; checks
# the engines agree and BENCH_throughput.json parses).
#
#   ci/run_tier1.sh [build-dir]
#
# Exits nonzero on any configure/build error, any compiler warning, any
# ctest failure, a test file missing from the registered ctest suite, a
# perf-smoke engine mismatch, or malformed bench JSON.
set -euo pipefail

cd "$(dirname "$0")/.."
ROOT="$(pwd)"
BUILD_DIR="${1:-build-ci}"

rm -rf "${BUILD_DIR}"

# Tier-1, verbatim (plus the clean-tree dir and the warning gate):
cmake -B "${BUILD_DIR}" -S . -DPSS_WERROR=ON
cmake --build "${BUILD_DIR}" -j "$(nproc)"
cd "${BUILD_DIR}" && ctest --output-on-failure -j

# Suite-registration gate: every tests/test_*.cpp must be discovered and
# registered with ctest — a test file that silently falls out of the build
# glob (or whose discovery fails) would otherwise pass CI without ever
# running. The json-v1 listing records each case's command line, which
# names the test binary.
ctest --show-only=json-v1 > ctest_cases.json
for test_src in "${ROOT}"/tests/test_*.cpp; do
  test_bin="$(basename "${test_src}" .cpp)"
  if ! grep -q "/${test_bin}\"" ctest_cases.json; then
    echo "FATAL: tests/${test_bin}.cpp exists but no registered ctest case runs it" >&2
    exit 1
  fi
done
echo "suite-registration: OK ($(ls "${ROOT}"/tests/test_*.cpp | wc -l) test files registered with ctest)"

# Perf-smoke: tiny streaming run of bench_throughput. The driver itself
# exits nonzero if the cached and reference engines ever disagree.
PSS_THROUGHPUT_JOBS=400 PSS_THROUGHPUT_SCALE=2000 PSS_RESULT_DIR=bench_results \
  ./bench_throughput --benchmark_filter=NONE_ > /dev/null
if command -v python3 > /dev/null; then
  python3 -m json.tool bench_results/BENCH_throughput.json > /dev/null
else
  grep -q '"decisions_match": true' bench_results/BENCH_throughput.json
fi
echo "perf-smoke: OK (${BUILD_DIR}/bench_results/BENCH_throughput.json)"

# Shard-scale smoke: tiny multi-stream run of the serving engine. The driver
# exits nonzero if per-stream results ever differ across shard counts or
# from a direct PdScheduler replay.
PSS_SHARD_JOBS=8 PSS_SHARD_MAX_STREAMS=64 PSS_SHARD_MAX_SHARDS=2 \
  PSS_RESULT_DIR=bench_results \
  ./bench_shard_scale --benchmark_filter=NONE_ > /dev/null
if command -v python3 > /dev/null; then
  python3 -m json.tool bench_results/BENCH_shard.json > /dev/null
else
  grep -q '"determinism_match": true' bench_results/BENCH_shard.json
fi
echo "shard-smoke: OK (${BUILD_DIR}/bench_results/BENCH_shard.json)"

# Ingest smoke: tiny MPSC run of the ingest front end. The driver exits
# nonzero if per-stream results differ across producer counts (with or
# without a spill budget), if residency exceeds the spill budget, or if
# the admission gate lets the ring reject.
PSS_INGEST_JOBS=6 PSS_INGEST_MAX_STREAMS=64 PSS_INGEST_MAX_PRODUCERS=4 \
  PSS_RESULT_DIR=bench_results \
  ./bench_ingest --benchmark_filter=NONE_ > /dev/null
if command -v python3 > /dev/null; then
  python3 -m json.tool bench_results/BENCH_ingest.json > /dev/null
else
  grep -q '"determinism_match": true' bench_results/BENCH_ingest.json
fi
# Op-log round trip through the CLI: a generated log must replay to the
# same per-stream results twice in a row (bitwise replayability is the
# wire format's whole contract).
./pss_cli genlog bench_results/smoke.psslog --streams 16 --jobs 6 > /dev/null
./pss_cli replay bench_results/smoke.psslog --shards 2 > replay_a.txt
./pss_cli replay bench_results/smoke.psslog --shards 2 > replay_b.txt
if ! cmp -s replay_a.txt replay_b.txt; then
  echo "FATAL: op-log replay is not reproducible" >&2
  exit 1
fi
echo "ingest-smoke: OK (${BUILD_DIR}/bench_results/BENCH_ingest.json + replayable op log)"

# Horizon-scale smoke: small refinement + full-PD run of the interval-store
# driver. The driver exits nonzero if the indexed and contiguous backends
# ever produce different boundary sets or decisions, or if the indexed
# per-insert refinement cost fails the sub-linearity check.
PSS_HORIZON_MAX_INTERVALS=16384 PSS_HORIZON_CONTIG_MAX=16384 \
  PSS_HORIZON_PD_MAX_JOBS=10000 PSS_RESULT_DIR=bench_results \
  ./bench_horizon_scale --benchmark_filter=NONE_ > /dev/null
if command -v python3 > /dev/null; then
  python3 -m json.tool bench_results/BENCH_horizon.json > /dev/null
else
  grep -q '"determinism_match": true' bench_results/BENCH_horizon.json
fi
echo "horizon-smoke: OK (${BUILD_DIR}/bench_results/BENCH_horizon.json)"

# Soak smoke: short steady-state serving run with per-tick horizon
# compaction. The driver exits nonzero if compacted memory is not flat
# after warm-up, if the uncompacted twin fails to show the linear growth
# being guarded against, or if compaction changes any decision or energy.
PSS_SOAK_TICKS=6000 PSS_SOAK_UNCOMPACTED_MAX=4000 \
  PSS_RESULT_DIR=bench_results \
  ./bench_soak --benchmark_filter=NONE_ > /dev/null
if command -v python3 > /dev/null; then
  python3 -m json.tool bench_results/BENCH_soak.json > /dev/null
else
  grep -q '"decisions_match": true' bench_results/BENCH_soak.json
fi
echo "soak-smoke: OK (${BUILD_DIR}/bench_results/BENCH_soak.json)"

# Recovery smoke: small crash-recovery run of the WAL-checkpoint stack.
# The driver exits nonzero if any recovered engine diverges from its
# uninterrupted twin (bitwise), if the torn newest generation is not
# detected and skipped, or if replayed/skipped frame counts do not match
# the checkpoint cut points.
PSS_RECOVERY_STREAMS=64 PSS_RECOVERY_JOBS=4 PSS_RESULT_DIR=bench_results \
  ./bench_recovery > /dev/null
if command -v python3 > /dev/null; then
  python3 -m json.tool bench_results/BENCH_recovery.json > /dev/null
else
  grep -q '"bitwise_recovery": true' bench_results/BENCH_recovery.json
fi
echo "recovery-smoke: OK (${BUILD_DIR}/bench_results/BENCH_recovery.json)"

# Crash drill, out of process: kill the serving CLI with an injected
# std::_Exit at the checkpoint-rename fault site, then recover from the
# torn directory + WAL and finish the streams. The kill must exit with
# the fault code (42) and the recovery must succeed.
drill_dir="bench_results/crash_drill"
rm -rf "${drill_dir}" && mkdir -p "${drill_dir}"
rc=0
PSS_FAULT_SITE=ckpt.part.rename PSS_FAULT_AFTER=3 PSS_FAULT_KIND=exit \
  ./pss_cli serve --streams 16 --jobs 6 --shards 4 \
  --wal "${drill_dir}/drill.wal" --ckpt-dir "${drill_dir}/ckpt" \
  --checkpoint-every 20 > /dev/null || rc=$?
if [ "${rc}" -ne 42 ]; then
  echo "FATAL: injected kill did not terminate the serving CLI (exit ${rc})" >&2
  exit 1
fi
./pss_cli recover --wal "${drill_dir}/drill.wal" \
  --ckpt-dir "${drill_dir}/ckpt" --shards 4 > "${drill_dir}/recover.txt"
grep -q "recovered from generation" "${drill_dir}/recover.txt"
echo "crash-drill: OK (serve killed at ckpt.part.rename, recovery clean)"

# Docs-consistency gate: every BENCH_*.json a smoke stage emitted must
# have its schema documented in docs/BUILDING.md — a new bench artifact
# cannot land without its format being written down.
for artifact in bench_results/BENCH_*.json; do
  name="$(basename "${artifact}")"
  if ! grep -q "${name}" "${ROOT}/docs/BUILDING.md"; then
    echo "FATAL: ${name} is emitted but its schema is not documented in docs/BUILDING.md" >&2
    exit 1
  fi
done
echo "docs-consistency: OK (all emitted BENCH_*.json schemas documented)"

# Sanitizer pass: the compaction/checkpoint code paths relink the interval
# store's payload slab, recycle handles and rebuild state from byte
# streams — exactly the code where a stale pointer or uninitialised read
# hides from a plain build. Build a second tree with ASan+UBSan and run the
# suites that exercise prefix compaction, checkpoint/restore, restore
# validation of hostile bytes (test_io), the stream engine end to end, the
# curve cache's in-place rebuilds and hinted knot walks (test_incremental,
# test_util), fractional PD on the contiguous representation
# (test_fractional), the PdScheduler / ReferencePd unit suites
# (test_core, without the Theorem 3 lower-bound cases, which are too slow
# under ASan), and the differential's cross-commit bit pins and
# underflowed-rejection-speed cases (test_differential, filtered: the
# full suite is too slow under ASan).
cd "${ROOT}"
SAN_DIR="${BUILD_DIR}-asan"
rm -rf "${SAN_DIR}"
cmake -B "${SAN_DIR}" -S . -DPSS_SANITIZE=ON -DCMAKE_BUILD_TYPE=Debug > /dev/null
cmake --build "${SAN_DIR}" -j "$(nproc)" --target test_compaction test_stream test_interval_store test_recovery test_io test_incremental test_util test_fractional test_core test_differential
cd "${SAN_DIR}"
UBSAN_OPTIONS=halt_on_error=1 ./test_compaction > /dev/null
UBSAN_OPTIONS=halt_on_error=1 ./test_stream > /dev/null
UBSAN_OPTIONS=halt_on_error=1 ./test_interval_store > /dev/null
UBSAN_OPTIONS=halt_on_error=1 ./test_recovery > /dev/null
UBSAN_OPTIONS=halt_on_error=1 ./test_io > /dev/null
UBSAN_OPTIONS=halt_on_error=1 ./test_incremental > /dev/null
UBSAN_OPTIONS=halt_on_error=1 ./test_util > /dev/null
UBSAN_OPTIONS=halt_on_error=1 ./test_fractional > /dev/null
UBSAN_OPTIONS=halt_on_error=1 ./test_core '--gtest_filter=-Theorem3*' > /dev/null
UBSAN_OPTIONS=halt_on_error=1 ./test_differential '--gtest_filter=BitPin.*:*Underflow*' > /dev/null
echo "sanitizers: OK (ASan+UBSan clean on compaction/restore/stream/recovery/io/incremental/util/fractional/core suites and the differential's bit pins and underflow cases)"

# ThreadSanitizer pass over the concurrent surface: the MPSC rings, the
# producer handles, the shutdown gate and the engine/ingest suites that
# hammer them from real threads. TSan needs its runtime library, which not
# every toolchain image ships — probe first and skip (loudly) if absent
# rather than fail the gate on a missing .a.
cd "${ROOT}"
if echo 'int main(){return 0;}' | g++ -x c++ -fsanitize=thread -o /tmp/pss_tsan_probe - 2>/dev/null; then
  TSAN_DIR="${BUILD_DIR}-tsan"
  rm -rf "${TSAN_DIR}"
  cmake -B "${TSAN_DIR}" -S . -DPSS_SANITIZE=thread -DCMAKE_BUILD_TYPE=Debug > /dev/null
  cmake --build "${TSAN_DIR}" -j "$(nproc)" --target test_engine test_stream test_ingest
  cd "${TSAN_DIR}"
  TSAN_OPTIONS=halt_on_error=1 ./test_engine > /dev/null
  TSAN_OPTIONS=halt_on_error=1 ./test_stream > /dev/null
  TSAN_OPTIONS=halt_on_error=1 ./test_ingest > /dev/null
  echo "tsan: OK (TSan clean on engine/stream/ingest suites)"
else
  echo "tsan: SKIPPED (toolchain lacks -fsanitize=thread runtime)"
fi

echo "tier-1: OK"
