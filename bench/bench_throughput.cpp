// Streaming throughput of the online PD scheduler: arrivals/sec and
// per-arrival latency for the production engine (interval store +
// curve cache + lazy-sum water filling) against core::ReferencePd, the
// stateless contiguous transcription of Listing 1, across workload
// densities. Each run is repeated kRepeats times; the JSON reports the
// fastest repeat and the spread across repeats.
//
// The workloads are tick-quantized so boundaries are shared between jobs:
// `jobs_per_tick` controls how many jobs pile onto each atomic interval
// (the density), spans control the window width in intervals. This is the
// regime the ROADMAP's "heavy traffic" north star cares about — thousands
// of overlapping jobs contending for the same intervals.
//
// Output: the human table, a CSV mirror, and a machine-readable
// BENCH_throughput.json (format documented in docs/BUILDING.md). The run
// aborts if the two engines ever disagree on a decision — the perf numbers
// are only meaningful while the fast path is decision-identical.
//
// Env knobs (all optional):
//   PSS_THROUGHPUT_JOBS   instance size for the comparison runs (default 10000)
//   PSS_THROUGHPUT_SCALE  size of the production-only scaling run (default
//                         100000, 0 disables)
#include <algorithm>
#include <chrono>
#include <cstdlib>
#include <iostream>
#include <string>
#include <string_view>
#include <type_traits>
#include <utility>
#include <vector>

#include "common.hpp"
#include "core/pd_scheduler.hpp"
#include "core/reference_pd.hpp"
#include "model/instance.hpp"
#include "sim/metrics.hpp"
#include "util/random.hpp"
#include "workload/generators.hpp"

namespace {

using pss::core::PdScheduler;
using pss::core::ReferencePd;

struct Density {
  std::string name;
  double jobs_per_tick;  // arrivals sharing each tick
  int min_span, max_span;  // window width in ticks
};

const std::vector<Density> kDensities = {
    {"sparse", 2.0, 2, 8},
    {"medium", 10.0, 4, 16},
    {"dense", 50.0, 8, 24},
};

// Tick-quantized contested stream: arrivals at integer ticks, integer
// spans, workloads and values chosen so accept/reject is genuinely mixed.
std::vector<pss::model::Job> make_stream(int num_jobs, const Density& density,
                                         double alpha, std::uint64_t seed) {
  pss::util::Rng rng(seed);
  std::vector<pss::model::Job> jobs;
  jobs.reserve(std::size_t(num_jobs));
  for (int i = 0; i < num_jobs; ++i) {
    pss::model::Job job;
    job.id = i;
    job.release = std::floor(double(i) / density.jobs_per_tick);
    job.deadline =
        job.release + double(rng.uniform_int(density.min_span,
                                             density.max_span));
    job.work = rng.uniform(0.5, 5.0);
    job.value = pss::workload::energy_fair_value(job, alpha) *
                rng.uniform(0.5, 4.0);
    jobs.push_back(job);
  }
  return jobs;
}

struct RunResult {
  double seconds = 0.0;      // fastest repeat
  double seconds_max = 0.0;  // slowest repeat
  double arrivals_per_sec = 0.0;
  pss::sim::Aggregate latency_us;  // per-arrival latency of the fastest repeat
  pss::core::PdCounters counters;
  double planned_energy = 0.0;
  std::vector<std::pair<bool, double>> decisions;  // (accepted, speed)
};

// The two engines whose perf trajectory the JSON tracks: the reference
// (core::ReferencePd) and the production engine. `windowed` is pinned off
// in the production engine so its label keeps meaning the same machinery
// across changes and the committed BENCH_throughput.json stays
// reproducible; the windowed screen has its own driver
// (bench_window_scale) measuring the workload shape it exists for.
const char* const kReference = "reference";
const char* const kIndexed = "indexed";
const pss::core::PdOptions kIndexedOptions{.delta = {}, .windowed = false};

constexpr std::uint64_t kStreamSeed = 42;
constexpr int kRepeats = 5;

// One timed pass of `engine` over the stream. The reference keeps no
// counters, so its accept/reject tallies and partition size are rebuilt
// from its decisions and final partition (it never compacts, so the final
// size is the high-water mark).
template <class Engine>
RunResult run_once(const std::vector<pss::model::Job>& jobs, Engine& engine) {
  using clock = std::chrono::steady_clock;
  RunResult result;
  result.decisions.reserve(jobs.size());
  const auto start = clock::now();
  for (const pss::model::Job& job : jobs) {
    const auto t0 = clock::now();
    const auto decision = engine.on_arrival(job);
    const auto t1 = clock::now();
    result.latency_us.add(
        std::chrono::duration<double, std::micro>(t1 - t0).count());
    result.decisions.push_back({decision.accepted, decision.speed});
  }
  result.seconds = std::chrono::duration<double>(clock::now() - start).count();
  result.seconds_max = result.seconds;
  result.arrivals_per_sec = double(jobs.size()) / result.seconds;
  if constexpr (std::is_same_v<Engine, ReferencePd>) {
    for (const auto& [accepted, speed] : result.decisions)
      ++(accepted ? result.counters.accepted : result.counters.rejected);
    result.counters.arrivals = (long long)jobs.size();
    result.counters.interval_splits = engine.interval_splits();
    result.counters.max_intervals = engine.partition().num_intervals();
  } else {
    result.counters = engine.counters();
  }
  result.planned_energy = engine.planned_energy();
  return result;
}

// kRepeats fresh passes; keeps the fastest and records the slowest.
RunResult run_engine(const std::vector<pss::model::Job>& jobs,
                     pss::model::Machine machine, const char* engine) {
  RunResult best;
  double slowest = 0.0;
  for (int r = 0; r < kRepeats; ++r) {
    RunResult run;
    if (std::string_view(engine) == kReference) {
      ReferencePd reference(machine);
      run = run_once(jobs, reference);
    } else {
      PdScheduler scheduler(machine, kIndexedOptions);
      run = run_once(jobs, scheduler);
    }
    slowest = std::max(slowest, run.seconds);
    if (r == 0 || run.seconds < best.seconds) best = std::move(run);
  }
  best.seconds_max = slowest;
  return best;
}

int env_int(const char* name, int fallback) {
  const char* value = std::getenv(name);
  return value ? std::atoi(value) : fallback;
}

void BM_PdArrivals(benchmark::State& state) {
  const bool indexed = state.range(0) != 0;
  const auto stream =
      make_stream(2000, kDensities.back(), 2.0, 7);
  for (auto _ : state) {
    if (indexed) {
      PdScheduler scheduler({4, 2.0}, kIndexedOptions);
      for (const pss::model::Job& job : stream)
        benchmark::DoNotOptimize(scheduler.on_arrival(job));
    } else {
      ReferencePd reference({4, 2.0});
      for (const pss::model::Job& job : stream)
        benchmark::DoNotOptimize(reference.on_arrival(job));
    }
  }
  state.SetItemsProcessed(state.iterations() * std::int64_t(stream.size()));
}
BENCHMARK(BM_PdArrivals)
    ->Arg(0)
    ->Arg(1)
    ->ArgNames({"indexed"})
    ->Unit(benchmark::kMillisecond);

void add_row(pss::util::Table& table, pss::bench::JsonValue& runs,
             const std::string& workload, int jobs, const char* engine,
             const RunResult& r) {
  const double hit_total = double(r.counters.curve_cache_hits +
                                  r.counters.curve_cache_rebuilds);
  const double hit_rate =
      hit_total > 0.0 ? double(r.counters.curve_cache_hits) / hit_total : 0.0;
  table.add_row({workload, (long long)jobs, std::string(engine),
                 r.arrivals_per_sec, r.latency_us.mean(),
                 r.latency_us.percentile(99), r.counters.accepted,
                 100.0 * hit_rate});
  using pss::bench::JsonValue;
  JsonValue run = JsonValue::object();
  run.set("workload", JsonValue::string(workload))
      .set("jobs", JsonValue::integer(jobs))
      .set("engine", JsonValue::string(engine))
      .set("seconds", JsonValue::number(r.seconds))
      .set("seconds_max", JsonValue::number(r.seconds_max))
      .set("spread", JsonValue::number(r.seconds_max / r.seconds - 1.0))
      .set("arrivals_per_sec", JsonValue::number(r.arrivals_per_sec))
      .set("latency_us_mean", JsonValue::number(r.latency_us.mean()))
      .set("latency_us_p50", JsonValue::number(r.latency_us.percentile(50)))
      .set("latency_us_p99", JsonValue::number(r.latency_us.percentile(99)))
      .set("accepted", JsonValue::integer(r.counters.accepted))
      .set("rejected", JsonValue::integer(r.counters.rejected))
      .set("interval_splits", JsonValue::integer(r.counters.interval_splits))
      .set("max_intervals",
           JsonValue::integer((long long)r.counters.max_intervals))
      .set("cache_hits", JsonValue::integer(r.counters.curve_cache_hits))
      .set("cache_rebuilds",
           JsonValue::integer(r.counters.curve_cache_rebuilds))
      .set("planned_energy", JsonValue::number(r.planned_energy));
  runs.push(std::move(run));
}

}  // namespace

int main(int argc, char** argv) {
  const pss::model::Machine machine{4, 2.0};
  const int jobs = env_int("PSS_THROUGHPUT_JOBS", 10000);
  const int scale_jobs = env_int("PSS_THROUGHPUT_SCALE", 100000);

  pss::bench::print_header(
      "THROUGHPUT",
      "streaming PD arrivals/sec, production engine vs ReferencePd");

  pss::util::Table table({"workload", "jobs", "engine", "arr/s", "mean us",
                          "p99 us", "accepted", "hit %"});
  table.set_precision(1);
  using pss::bench::JsonValue;
  JsonValue runs = JsonValue::array();
  JsonValue speedups = JsonValue::object();
  bool decisions_match = true;
  double dense_speedup = 0.0;

  for (const Density& density : kDensities) {
    const auto stream = make_stream(jobs, density, machine.alpha, kStreamSeed);
    const RunResult reference = run_engine(stream, machine, kReference);
    add_row(table, runs, density.name, jobs, kReference, reference);
    const RunResult fast = run_engine(stream, machine, kIndexed);
    if (fast.decisions != reference.decisions ||
        fast.planned_energy != reference.planned_energy ||
        fast.counters.interval_splits != reference.counters.interval_splits) {
      decisions_match = false;
      std::cerr << "FATAL: engine '" << kIndexed
                << "' disagrees with the reference on workload '"
                << density.name << "' — perf numbers void\n";
    }
    add_row(table, runs, density.name, jobs, kIndexed, fast);
    const double speedup = fast.arrivals_per_sec / reference.arrivals_per_sec;
    speedups.set(std::string(kIndexed) + "_" + density.name + "_" +
                     std::to_string(jobs),
                 JsonValue::number(speedup));
    if (density.name == "dense") dense_speedup = speedup;
  }

  if (scale_jobs > 0) {
    // Production-only scaling run: the reference is too slow here.
    const Density& density = kDensities.back();
    const auto stream =
        make_stream(scale_jobs, density, machine.alpha, kStreamSeed);
    add_row(table, runs, density.name + "-scale", scale_jobs, kIndexed,
            run_engine(stream, machine, kIndexed));
  }

  pss::bench::emit(table, "throughput.csv");

  JsonValue root = JsonValue::object();
  root.set("bench", JsonValue::string("throughput"))
      .set("machine", JsonValue::object()
                          .set("processors",
                               JsonValue::integer(machine.num_processors))
                          .set("alpha", JsonValue::number(machine.alpha)))
      .set("comparison_jobs", JsonValue::integer(jobs))
      .set("repeats", JsonValue::integer(kRepeats))
      .set("decisions_match", JsonValue::boolean(decisions_match))
      .set("runs", std::move(runs))
      .set("speedup", std::move(speedups));
  pss::bench::emit_json(std::move(root), "BENCH_throughput.json",
                        kStreamSeed);

  if (!decisions_match) return 1;
  std::cout.precision(2);
  std::cout << "dense " << jobs << "-job speedup: indexed is " << std::fixed
            << dense_speedup << "x the reference engine\n";
  return pss::bench::run_benchmarks(argc, argv);
}
