// Online time-partition refinement at long horizons: the O(n) contiguous
// representation against the O(log n) stable-handle interval store, at
// ~10k / ~100k / ~1M atomic intervals.
//
// Two measurements:
//
//  1. Refinement-only ("split cost"): a bisection boundary stream driven
//     straight into the two representations — seed [0, N), then insert the
//     interior integer boundaries in bit-reversed order so every insert
//     splits an existing interval and lands in the middle of the boundary
//     order, with committed load present so splits divide nonempty
//     intervals. This isolates the refinement data structure: per-insert
//     cost of TimePartition::insert_boundary + WorkAssignment::
//     split_interval through core::refine_partition (contiguous, O(n)
//     vector shifting) vs IntervalStore::ensure_boundary (indexed,
//     O(log n) treap insert). The contiguous representation is capped
//     below the largest size by default — it is quadratic there, which is
//     the point of the exercise.
//
//  2. Full-PD arrivals/sec on a heavy-tailed lookahead stream: releases
//     sweep forward while every 16th job's deadline lands 100-300 ticks
//     ahead, planting boundaries that later short-window arrivals keep
//     splitting behind. Run with the production engine ("indexed") at all
//     sizes and with core::ReferencePd at the smaller sizes as the
//     in-driver determinism guard (decisions, planned energy and split
//     counts compared bitwise).
//
// Every timed run is repeated kRepeats times; the JSON reports the fastest
// repeat and the spread (slowest / fastest - 1).
//
// The driver fails (exit 1) if any determinism check trips or if the
// indexed per-insert refinement cost fails to grow sub-linearly in the
// interval count.
//
// Env knobs (all optional):
//   PSS_HORIZON_MAX_INTERVALS  largest refinement size   (default 1048576)
//   PSS_HORIZON_CONTIG_MAX     contiguous / reference cap (default 131072)
//   PSS_HORIZON_PD_MAX_JOBS    largest full-PD stream    (default 640000)
#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdlib>
#include <iostream>
#include <string>
#include <type_traits>
#include <utility>
#include <vector>

#include "common.hpp"
#include "core/pd_scheduler.hpp"
#include "core/reference_pd.hpp"
#include "model/interval_store.hpp"
#include "model/job.hpp"
#include "model/time_partition.hpp"
#include "model/work_assignment.hpp"
#include "sim/metrics.hpp"
#include "util/random.hpp"
#include "workload/generators.hpp"

namespace {

using clock_type = std::chrono::steady_clock;
using pss::core::PdScheduler;
using pss::core::ReferencePd;

const pss::model::Machine kMachine{4, 2.0};
constexpr std::uint64_t kSeed = 97;
constexpr int kRepeats = 3;

int env_int(const char* name, int fallback) {
  const char* value = std::getenv(name);
  return value ? std::atoi(value) : fallback;
}

// Bit-reversal of i in `bits` bits: the van der Corput order, which makes
// every insert bisect an existing interval.
std::uint32_t reverse_bits(std::uint32_t i, int bits) {
  std::uint32_t r = 0;
  for (int b = 0; b < bits; ++b) r |= ((i >> b) & 1u) << (bits - 1 - b);
  return r;
}

struct RefinementResult {
  double seconds = 0.0;      // fastest repeat
  double seconds_max = 0.0;  // slowest repeat
  double ns_per_insert = 0.0;
  bool boundaries_ok = false;
};

// N must be a power of two; produces exactly N intervals [t, t+1).
RefinementResult refine_once(bool indexed, std::uint32_t n, int bits) {
  pss::model::IntervalStore store;
  pss::model::TimePartition partition;
  pss::model::WorkAssignment assignment;
  const auto refine = [&](double t) {
    if (indexed)
      (void)store.ensure_boundary(t);
    else
      (void)pss::core::refine_partition(partition, assignment, t);
  };
  refine(0.0);
  refine(double(n));
  if (indexed)
    store.set_load(store.handle_at(0), 0, 1000.0);
  else
    assignment.set_load(0, 0, 1000.0);

  const auto start = clock_type::now();
  for (std::uint32_t i = 1; i < n; ++i)
    refine(double(reverse_bits(i, bits)));
  RefinementResult result;
  result.seconds =
      std::chrono::duration<double>(clock_type::now() - start).count();

  // Guard: the boundary set must be exactly the integers 0..n.
  const auto boundaries = indexed ? store.snapshot_partition().boundaries()
                                  : partition.boundaries();
  result.boundaries_ok = boundaries.size() == std::size_t(n) + 1;
  for (std::size_t k = 0; result.boundaries_ok && k < boundaries.size(); ++k)
    result.boundaries_ok = boundaries[k] == double(k);
  // And the committed load must have survived every split.
  const double total =
      indexed ? store.total_of(0) : assignment.total_of(0);
  result.boundaries_ok =
      result.boundaries_ok && std::abs(total - 1000.0) < 1e-6;
  return result;
}

RefinementResult run_refinement(bool indexed, std::uint32_t n, int bits,
                                int repeats) {
  RefinementResult best;
  double slowest = 0.0;
  bool ok = true;
  for (int r = 0; r < repeats; ++r) {
    const RefinementResult run = refine_once(indexed, n, bits);
    ok = ok && run.boundaries_ok;
    slowest = std::max(slowest, run.seconds);
    if (r == 0 || run.seconds < best.seconds) best = run;
  }
  best.seconds_max = slowest;
  best.boundaries_ok = ok;
  best.ns_per_insert = best.seconds * 1e9 / double(n - 1);
  return best;
}

// Heavy-tailed lookahead stream (see header comment).
std::vector<pss::model::Job> lookahead_stream(int num_jobs, double alpha,
                                              std::uint64_t seed) {
  pss::util::Rng rng(seed);
  std::vector<pss::model::Job> jobs;
  jobs.reserve(std::size_t(num_jobs));
  for (int i = 0; i < num_jobs; ++i) {
    pss::model::Job job;
    job.id = i;
    job.release = double(i) * 0.5;
    const bool anchor = i % 16 == 0;
    job.deadline = job.release + (anchor ? rng.uniform(100.0, 300.0)
                                         : rng.uniform(0.7, 6.0));
    job.work = rng.uniform(0.3, 2.0);
    job.value = pss::workload::energy_fair_value(job, alpha) *
                rng.uniform(0.5, 4.0);
    jobs.push_back(job);
  }
  return jobs;
}

struct PdRun {
  double seconds = 0.0;      // fastest repeat
  double seconds_max = 0.0;  // slowest repeat
  double arrivals_per_sec = 0.0;
  pss::sim::Aggregate latency_us;  // of the fastest repeat
  long long interval_splits = 0;
  long long accepted = 0;
  long long rejected = 0;
  std::size_t max_intervals = 0;
  double planned_energy = 0.0;
  std::vector<std::pair<bool, double>> decisions;
};

// One timed pass. The reference keeps no counters: its tallies come from
// its decisions and its final partition (it never compacts, so the final
// size is the high-water mark).
template <class Engine>
PdRun pd_once(const std::vector<pss::model::Job>& jobs, Engine& engine,
              bool keep_decisions) {
  PdRun run;
  if (keep_decisions) run.decisions.reserve(jobs.size());
  const auto start = clock_type::now();
  for (const pss::model::Job& job : jobs) {
    const auto t0 = clock_type::now();
    const auto decision = engine.on_arrival(job);
    const auto t1 = clock_type::now();
    run.latency_us.add(
        std::chrono::duration<double, std::micro>(t1 - t0).count());
    ++(decision.accepted ? run.accepted : run.rejected);
    if (keep_decisions)
      run.decisions.push_back({decision.accepted, decision.speed});
  }
  run.seconds =
      std::chrono::duration<double>(clock_type::now() - start).count();
  if constexpr (std::is_same_v<Engine, ReferencePd>) {
    run.interval_splits = engine.interval_splits();
    run.max_intervals = engine.partition().num_intervals();
  } else {
    run.interval_splits = engine.counters().interval_splits;
    run.max_intervals = engine.counters().max_intervals;
  }
  run.planned_energy = engine.planned_energy();
  return run;
}

PdRun run_pd_stream(const std::vector<pss::model::Job>& jobs, bool reference,
                    bool keep_decisions) {
  PdRun best;
  double slowest = 0.0;
  for (int r = 0; r < kRepeats; ++r) {
    PdRun run;
    if (reference) {
      ReferencePd engine(kMachine);
      run = pd_once(jobs, engine, keep_decisions);
    } else {
      PdScheduler engine(kMachine);
      run = pd_once(jobs, engine, keep_decisions);
    }
    slowest = std::max(slowest, run.seconds);
    if (r == 0 || run.seconds < best.seconds) best = std::move(run);
  }
  best.seconds_max = slowest;
  best.arrivals_per_sec = double(jobs.size()) / best.seconds;
  return best;
}

void BM_RefinementInsert(benchmark::State& state) {
  const bool indexed = state.range(0) != 0;
  for (auto _ : state) {
    const auto result = refine_once(indexed, 1u << 12, 12);
    benchmark::DoNotOptimize(result.seconds);
  }
  state.SetItemsProcessed(state.iterations() * ((1 << 12) - 1));
}
BENCHMARK(BM_RefinementInsert)
    ->Arg(0)
    ->Arg(1)
    ->ArgNames({"indexed"})
    ->Unit(benchmark::kMillisecond);

}  // namespace

int main(int argc, char** argv) {
  const int max_intervals = env_int("PSS_HORIZON_MAX_INTERVALS", 1 << 20);
  const int contig_max = env_int("PSS_HORIZON_CONTIG_MAX", 1 << 17);
  const int pd_max_jobs = env_int("PSS_HORIZON_PD_MAX_JOBS", 640000);

  pss::bench::print_header(
      "HORIZON-SCALE",
      "online refinement at long horizons: contiguous O(n) vs indexed "
      "O(log n) interval store");

  using pss::bench::JsonValue;
  bool determinism_match = true;

  // ---- 1. refinement-only split cost ------------------------------------
  std::vector<std::pair<std::uint32_t, int>> sizes;  // (N, bits)
  for (int bits : {14, 17, 20})
    if ((1 << bits) <= max_intervals) sizes.push_back({1u << bits, bits});
  if (sizes.empty()) {
    int bits = 1;
    while ((2 << bits) <= max_intervals) ++bits;
    sizes.push_back({1u << bits, bits});
  }

  pss::util::Table refinement_table(
      {"backend", "intervals", "seconds", "ns/insert"});
  refinement_table.set_precision(1);
  JsonValue refinement_runs = JsonValue::array();
  double indexed_small = 0.0, indexed_large = 0.0;
  double small_n = 0.0, large_n = 0.0;
  for (const auto& [n, bits] : sizes) {
    for (const bool indexed : {false, true}) {
      if (!indexed && int(n) > contig_max) continue;  // quadratic; capped
      const RefinementResult r = run_refinement(indexed, n, bits, kRepeats);
      if (!r.boundaries_ok) {
        determinism_match = false;
        std::cerr << "FATAL: refinement produced a wrong boundary set "
                     "(backend="
                  << (indexed ? "indexed" : "contiguous") << ", n=" << n
                  << ")\n";
      }
      const char* backend = indexed ? "indexed" : "contiguous";
      refinement_table.add_row({std::string(backend), (long long)n,
                                r.seconds, r.ns_per_insert});
      refinement_runs.push(
          JsonValue::object()
              .set("backend", JsonValue::string(backend))
              .set("intervals", JsonValue::integer((long long)n))
              .set("seconds", JsonValue::number(r.seconds))
              .set("spread", JsonValue::number(r.seconds_max / r.seconds - 1.0))
              .set("ns_per_insert", JsonValue::number(r.ns_per_insert)));
      if (indexed && (small_n == 0.0 || double(n) < small_n)) {
        small_n = double(n);
        indexed_small = r.ns_per_insert;
      }
      if (indexed && double(n) > large_n) {
        large_n = double(n);
        indexed_large = r.ns_per_insert;
      }
    }
  }
  pss::bench::emit(refinement_table, "horizon_refinement.csv");

  // Sub-linearity guard: across the size ratio R, O(log n) per-insert cost
  // grows by a constant factor while O(n) grows by R. Require less than
  // sqrt(R) — far above log-growth noise, far below linear growth.
  const double size_ratio = large_n / small_n;
  const double growth = indexed_large / std::max(indexed_small, 1e-9);
  const bool sublinear =
      size_ratio < 2.0 || growth < std::sqrt(size_ratio);
  if (!sublinear) {
    determinism_match = false;
    std::cerr << "FATAL: indexed per-insert cost grew " << growth
              << "x over a " << size_ratio
              << "x size ratio — not sub-linear\n";
  }

  // ---- 2. full-PD arrivals/sec on the lookahead stream ------------------
  pss::util::Table pd_table({"engine", "jobs", "intervals", "arr/s",
                             "mean us", "p99 us", "splits", "accepted"});
  pd_table.set_precision(1);
  JsonValue pd_runs = JsonValue::array();
  std::vector<int> pd_sizes;
  for (int jobs : {10000, 80000, 640000})
    if (jobs <= pd_max_jobs) pd_sizes.push_back(jobs);
  if (pd_sizes.empty()) pd_sizes.push_back(pd_max_jobs);

  for (const int jobs : pd_sizes) {
    const auto stream = lookahead_stream(jobs, kMachine.alpha, kSeed);
    // Reference guard run at the sizes where it is affordable.
    const bool with_guard = jobs <= std::max(contig_max, 10000);
    PdRun reference;
    if (with_guard) reference = run_pd_stream(stream, true, true);
    const PdRun indexed = run_pd_stream(stream, false, with_guard);
    if (with_guard && (indexed.decisions != reference.decisions ||
                       indexed.planned_energy != reference.planned_energy ||
                       indexed.interval_splits != reference.interval_splits)) {
      determinism_match = false;
      std::cerr << "FATAL: the production engine and ReferencePd disagree at "
                << jobs << " jobs — perf numbers void\n";
    }
    for (const bool is_indexed : {false, true}) {
      if (!is_indexed && !with_guard) continue;
      const PdRun& run = is_indexed ? indexed : reference;
      const char* engine = is_indexed ? "indexed" : "reference";
      pd_table.add_row({std::string(engine), (long long)jobs,
                        (long long)run.max_intervals, run.arrivals_per_sec,
                        run.latency_us.mean(), run.latency_us.percentile(99),
                        run.interval_splits, run.accepted});
      pd_runs.push(
          JsonValue::object()
              .set("engine", JsonValue::string(engine))
              .set("jobs", JsonValue::integer(jobs))
              .set("intervals",
                   JsonValue::integer((long long)run.max_intervals))
              .set("seconds", JsonValue::number(run.seconds))
              .set("spread",
                   JsonValue::number(run.seconds_max / run.seconds - 1.0))
              .set("arrivals_per_sec",
                   JsonValue::number(run.arrivals_per_sec))
              .set("latency_us_mean", JsonValue::number(run.latency_us.mean()))
              .set("latency_us_p99",
                   JsonValue::number(run.latency_us.percentile(99)))
              .set("interval_splits", JsonValue::integer(run.interval_splits))
              .set("accepted", JsonValue::integer(run.accepted))
              .set("rejected", JsonValue::integer(run.rejected))
              .set("planned_energy", JsonValue::number(run.planned_energy)));
    }
  }
  pss::bench::emit(pd_table, "horizon_full_pd.csv");
  std::cout << "expected shape: indexed ns/insert roughly flat from 16k to "
               "1M intervals while contiguous grows linearly; full-PD "
               "arrivals/sec holds steady as the horizon grows\n";

  JsonValue root = JsonValue::object();
  root.set("bench", JsonValue::string("horizon_scale"))
      .set("machine", JsonValue::object()
                          .set("processors",
                               JsonValue::integer(kMachine.num_processors))
                          .set("alpha", JsonValue::number(kMachine.alpha)))
      .set("repeats", JsonValue::integer(kRepeats))
      .set("determinism_match", JsonValue::boolean(determinism_match))
      .set("sublinear_refinement", JsonValue::boolean(sublinear))
      .set("indexed_growth", JsonValue::object()
                                 .set("size_ratio",
                                      JsonValue::number(size_ratio))
                                 .set("ns_per_insert_ratio",
                                      JsonValue::number(growth)))
      .set("refinement", std::move(refinement_runs))
      .set("full_pd", std::move(pd_runs));
  pss::bench::emit_json(std::move(root), "BENCH_horizon.json", kSeed);

  if (!determinism_match) return 1;
  return pss::bench::run_benchmarks(argc, argv);
}
