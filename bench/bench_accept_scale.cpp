// Accept-heavy wide-window streams: eager per-interval commits against the
// lazy water-level annotations (PdOptions::lazy), at ~16k / ~131k / ~1M
// atomic intervals.
//
// The workload separates grid planting from the measured accepts:
//
//   * Planters: one job per integer tick t with window [t, t+W+2) and a
//     hopeless value (0.1% of energy-fair). Each plants the boundary grid
//     two ticks ahead of the widest window and is rejected through the
//     segment-tree screen's certified O(log n) path — it commits no load,
//     so the grid it leaves behind is virgin.
//   * Accepters: every W ticks, a job whose window [t, t+W) spans exactly
//     W virgin unit intervals at an irresistible value. The eager engine
//     pays Theta(W) per accept (one water-filling scan plus one load write
//     per window interval); the lazy engine decides it with the certified
//     closed-form replay (convex::water_fill_uniform) and commits one
//     O(log n) range annotation.
//
// W scales with the horizon (W = ticks/64), so per-accept cost under the
// eager engine grows linearly with the interval count while the lazy
// engine's stays polylogarithmic — that growth ratio is the tentpole
// guard. The driver fails (exit 1) if
//   * any lazy run disagrees bitwise with its eager twin on decisions,
//     speeds or planned energy (determinism guard), or
//   * the lazy per-accept cost fails to grow sub-linearly: across the
//     interval-count ratio R from the smallest to the largest size, the
//     mean accept latency must grow by less than sqrt(R), or
//   * the lazy fast path did not actually serve every accepter.
//
// Env knobs (all optional):
//   PSS_ACCEPT_MAX_TICKS   largest horizon in ticks       (default 1048576)
//   PSS_ACCEPT_EAGER_MAX   eager-twin cap in ticks        (default 1048576)
#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdlib>
#include <iostream>
#include <string>
#include <vector>

#include "common.hpp"
#include "convex/water_fill.hpp"
#include "core/pd_scheduler.hpp"
#include "model/job.hpp"
#include "sim/metrics.hpp"
#include "workload/generators.hpp"

namespace {

using clock_type = std::chrono::steady_clock;
using pss::core::PdScheduler;

const pss::model::Machine kMachine{4, 2.0};
constexpr std::uint64_t kSeed = 131;

int env_int(const char* name, int fallback) {
  const char* value = std::getenv(name);
  return value ? std::atoi(value) : fallback;
}

struct AcceptJob {
  pss::model::Job job;
  bool accepter = false;  // measured separately from the planters
};

// See the header comment: planters at every tick, accepters every W ticks
// once the grid reaches their deadline.
std::vector<AcceptJob> accept_stream(int ticks, int window) {
  std::vector<AcceptJob> jobs;
  jobs.reserve(std::size_t(ticks) + std::size_t(ticks / window) + 1);
  int id = 0;
  for (int t = 0; t < ticks; ++t) {
    AcceptJob planter;
    planter.job.id = id++;
    planter.job.release = double(t);
    planter.job.deadline = double(t + window + 2);
    planter.job.work = 1.0;
    planter.job.value =
        pss::workload::energy_fair_value(planter.job, kMachine.alpha) * 1e-3;
    jobs.push_back(planter);
    if (t >= 2 * window && t % window == 0 && t + window < ticks) {
      AcceptJob accepter;
      accepter.accepter = true;
      accepter.job.id = id++;
      accepter.job.release = double(t);
      accepter.job.deadline = double(t + window);
      accepter.job.work = 0.5 * double(window);
      accepter.job.value =
          pss::workload::energy_fair_value(accepter.job, kMachine.alpha) * 4.0;
      jobs.push_back(accepter);
    }
  }
  return jobs;
}

struct AcceptRun {
  double seconds = 0.0;
  double arrivals_per_sec = 0.0;
  pss::sim::Aggregate accept_us;   // accepter arrivals only
  pss::sim::Aggregate planter_us;  // certified-reject planters
  pss::core::PdCounters counters;
  double planned_energy = 0.0;
  std::vector<std::pair<bool, double>> decisions;
};

AcceptRun run_accept_stream(const std::vector<AcceptJob>& jobs, bool lazy,
                            bool keep_decisions) {
  PdScheduler scheduler(kMachine, {.delta = {},
                                   .windowed = true,
                                   .lazy = lazy});
  AcceptRun run;
  if (keep_decisions) run.decisions.reserve(jobs.size());
  const auto start = clock_type::now();
  for (const AcceptJob& entry : jobs) {
    const auto t0 = clock_type::now();
    const auto decision = scheduler.on_arrival(entry.job);
    const auto t1 = clock_type::now();
    (entry.accepter ? run.accept_us : run.planter_us)
        .add(std::chrono::duration<double, std::micro>(t1 - t0).count());
    if (keep_decisions)
      run.decisions.push_back({decision.accepted, decision.speed});
  }
  run.seconds =
      std::chrono::duration<double>(clock_type::now() - start).count();
  run.arrivals_per_sec = double(jobs.size()) / run.seconds;
  run.counters = scheduler.counters();
  run.planned_energy = scheduler.planned_energy();
  return run;
}

// Registered timing: the closed-form uniform replay itself, the O(log n)
// arithmetic the lazy accept path runs per arrival.
void BM_UniformClosedForm(benchmark::State& state) {
  const std::size_t count = std::size_t(state.range(0));
  for (auto _ : state) {
    const auto fill = pss::convex::water_fill_uniform(
        1.0, count, kMachine.num_processors, 0.5 * double(count), 10.0);
    benchmark::DoNotOptimize(fill.level);
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_UniformClosedForm)
    ->Arg(1 << 10)
    ->Arg(1 << 16)
    ->Arg(1 << 20)
    ->ArgNames({"window"});

}  // namespace

int main(int argc, char** argv) {
  const int max_ticks = env_int("PSS_ACCEPT_MAX_TICKS", 1 << 20);
  const int eager_max = env_int("PSS_ACCEPT_EAGER_MAX", 1 << 20);

  pss::bench::print_header(
      "ACCEPT-SCALE",
      "accept-heavy wide-window streams: eager per-interval commits vs "
      "lazy water-level annotations");

  using pss::bench::JsonValue;
  bool determinism_match = true;
  bool fast_path_complete = true;

  std::vector<int> sizes;
  for (int bits : {14, 17, 20})
    if ((1 << bits) <= max_ticks) sizes.push_back(1 << bits);
  if (sizes.empty()) sizes.push_back(max_ticks);

  pss::util::Table table({"engine", "ticks", "window", "intervals",
                          "accepts", "accept us", "planter us", "arr/s"});
  table.set_precision(2);
  JsonValue runs = JsonValue::array();
  double lazy_small = 0.0, lazy_large = 0.0;
  double small_n = 0.0, large_n = 0.0;

  for (const int ticks : sizes) {
    const int window = std::max(ticks / 64, 4);
    const auto stream = accept_stream(ticks, window);
    const bool with_eager = ticks <= eager_max;
    AcceptRun eager;
    if (with_eager) eager = run_accept_stream(stream, false, true);
    const AcceptRun lazy = run_accept_stream(stream, true, with_eager);
    if (with_eager && (lazy.decisions != eager.decisions ||
                       lazy.planned_energy != eager.planned_energy)) {
      determinism_match = false;
      std::cerr << "FATAL: lazy and eager engines disagree at " << ticks
                << " ticks — perf numbers void\n";
    }
    // Every accepter must have been served by the closed-form fast path —
    // a silent fallback to the exact scan would fake the eager cost
    // profile while claiming the lazy one.
    if (lazy.counters.lazy_commits <
        (long long)lazy.accept_us.count()) {
      fast_path_complete = false;
      std::cerr << "FATAL: only " << lazy.counters.lazy_commits << " of "
                << lazy.accept_us.count() << " accepts took the lazy fast "
                << "path at " << ticks << " ticks\n";
    }
    for (const bool is_lazy : {false, true}) {
      if (!is_lazy && !with_eager) continue;
      const AcceptRun& run = is_lazy ? lazy : eager;
      const char* engine = is_lazy ? "lazy" : "eager";
      table.add_row({std::string(engine), (long long)ticks,
                     (long long)window,
                     (long long)run.counters.max_intervals,
                     (long long)run.accept_us.count(),
                     run.accept_us.mean(), run.planter_us.mean(),
                     run.arrivals_per_sec});
      runs.push(
          JsonValue::object()
              .set("engine", JsonValue::string(engine))
              .set("ticks", JsonValue::integer(ticks))
              .set("window", JsonValue::integer(window))
              .set("intervals",
                   JsonValue::integer((long long)run.counters.max_intervals))
              .set("accepts",
                   JsonValue::integer((long long)run.accept_us.count()))
              .set("accept_us_mean", JsonValue::number(run.accept_us.mean()))
              .set("accept_us_p99",
                   JsonValue::number(run.accept_us.percentile(99)))
              .set("planter_us_mean",
                   JsonValue::number(run.planter_us.mean()))
              .set("seconds", JsonValue::number(run.seconds))
              .set("arrivals_per_sec", JsonValue::number(run.arrivals_per_sec))
              .set("window_prunes",
                   JsonValue::integer(run.counters.window_prunes))
              .set("lazy_fast_path",
                   JsonValue::integer(run.counters.lazy_fast_path))
              .set("lazy_commits",
                   JsonValue::integer(run.counters.lazy_commits))
              .set("lazy_materializations",
                   JsonValue::integer(run.counters.lazy_materializations))
              .set("planned_energy", JsonValue::number(run.planned_energy)));
    }
    if (small_n == 0.0) {
      small_n = double(lazy.counters.max_intervals);
      lazy_small = lazy.accept_us.mean();
    }
    if (double(lazy.counters.max_intervals) > large_n) {
      large_n = double(lazy.counters.max_intervals);
      lazy_large = lazy.accept_us.mean();
    }
  }
  pss::bench::emit(table, "accept_scale.csv");

  // The tentpole guard: across the interval-count ratio R the lazy
  // per-accept cost must grow by less than sqrt(R) — far above
  // polylog-growth noise, far below the eager engine's linear growth
  // (its window, and thus its per-accept scan, scales with the horizon).
  const double size_ratio = large_n / std::max(small_n, 1.0);
  const double growth = lazy_large / std::max(lazy_small, 1e-9);
  const bool sublinear = size_ratio < 2.0 || growth < std::sqrt(size_ratio);
  if (!sublinear)
    std::cerr << "FATAL: lazy per-accept cost grew " << growth << "x over a "
              << size_ratio << "x interval ratio — not sub-linear\n";
  std::cout << "expected shape: lazy accept cost roughly flat from 16k to "
               "1M intervals while eager grows with its window; planter "
               "cost stays O(log n) on both\n";

  JsonValue root = JsonValue::object();
  root.set("bench", JsonValue::string("accept_scale"))
      .set("machine", JsonValue::object()
                          .set("processors",
                               JsonValue::integer(kMachine.num_processors))
                          .set("alpha", JsonValue::number(kMachine.alpha)))
      .set("determinism_match", JsonValue::boolean(determinism_match))
      .set("lazy_fast_path_complete", JsonValue::boolean(fast_path_complete))
      .set("sublinear_accept", JsonValue::boolean(sublinear))
      .set("lazy_growth",
           JsonValue::object()
               .set("intervals_ratio", JsonValue::number(size_ratio))
               .set("accept_us_ratio", JsonValue::number(growth)))
      .set("runs", std::move(runs));
  pss::bench::emit_json(std::move(root), "BENCH_accept.json", kSeed);

  if (!determinism_match || !sublinear || !fast_path_complete) return 1;
  return pss::bench::run_benchmarks(argc, argv);
}
