// Differential harness: the production PD engine against the reference.
//
// core::ReferencePd transcribes Listing 1 over the contiguous
// TimePartition + WorkAssignment representation with stateless curves and
// eager commits. The production core::PdScheduler keeps its state in the
// stable-handle interval store and places through the insertion-curve
// cache and the lazy-sum water filling. The two must be
// *decision-identical*: same accept/reject bits, and bitwise-equal
// lambdas, speeds, planned energies, final-schedule cost and split counts,
// on every instance we can generate. The production path mirrors the
// reference arithmetic operation for operation (see util::LazyLinearSum
// and model::IntervalStore), so the comparisons here are exact EQ, not
// NEAR — any reordering of floating-point work in a future change will
// show up as a hard failure, which is the point.
//
// Identity cannot catch a bug both engines share, so every instance is
// also held to Theorem 3: at the default delta, PD's certified ratio
// cost / g(lambda-tilde) stays within alpha^alpha.
//
// Coverage: ~1k seeded instances across uniform, bursty (Poisson heavy
// tail), tight-laxity, and the adversarial Theorem-3 stream, for
// alpha in {1.1, 2, 3} x m in {1, 4, 16}; plus split-heavy long-horizon
// families (bisection deadlines and heavy-tailed lookahead anchors) that
// stress the Section-3 refinement machinery, wide windows from one
// interval to the full horizon, a refinement torture with tolerance
// prepends, an accept-heavy long-horizon family, recycled (reset())
// schedulers, and fractional and integral PD at an underflowed rejection
// speed.
#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <cstdint>
#include <span>
#include <string>
#include <vector>

#include "core/fractional_pd.hpp"
#include "core/pd_scheduler.hpp"
#include "core/reference_pd.hpp"
#include "core/rejection.hpp"
#include "core/run.hpp"
#include "model/instance.hpp"
#include "model/schedule.hpp"
#include "util/math.hpp"
#include "util/random.hpp"
#include "workload/generators.hpp"

namespace pss {
namespace {

using core::PdScheduler;
using core::ReferencePd;
using model::Machine;

struct DiffParam {
  double alpha;
  int m;
};

class PdDifferential : public ::testing::TestWithParam<DiffParam> {};

// Feeds `arrivals` (the instance in release order when empty) to the
// reference and the production engine in lockstep and asserts
// bitwise-identical decisions, then holds the instance to Theorem 3. A
// non-empty `warmup` is served by the production engine first, compacted
// away and dropped by reset() — the stream engine's session-recycling
// path — so the comparison also proves a recycled scheduler carries
// nothing over.
void expect_engines_identical(const model::Instance& instance,
                              std::span<const model::Job> arrivals = {},
                              std::span<const model::Job> warmup = {}) {
  const std::vector<model::Job> by_release = instance.jobs_by_release();
  if (arrivals.empty()) arrivals = by_release;
  ReferencePd reference(instance.machine());
  PdScheduler production(instance.machine());
  if (!warmup.empty()) {
    for (const model::Job& job : warmup) (void)production.on_arrival(job);
    production.advance_to(warmup.back().deadline, /*compact=*/true);
    production.reset();
  }
  for (const model::Job& job : arrivals) {
    const auto a = reference.on_arrival(job);
    const auto b = production.on_arrival(job);
    ASSERT_EQ(a.accepted, b.accepted) << job.to_string();
    ASSERT_EQ(a.speed, b.speed) << job.to_string();
    ASSERT_EQ(a.lambda, b.lambda) << job.to_string();
    ASSERT_EQ(a.planned_energy, b.planned_energy) << job.to_string();
  }
  ASSERT_EQ(reference.planned_energy(), production.planned_energy());
  ASSERT_EQ(reference.final_schedule().cost(instance).total(),
            production.final_schedule().cost(instance).total());
  ASSERT_EQ(reference.interval_splits(),
            production.counters().interval_splits);
  // The production engine must actually have gone through the curve cache.
  EXPECT_GT(production.counters().curve_cache_hits +
                production.counters().curve_cache_rebuilds,
            0);

  // Theorem 3 at the default (optimal) delta.
  const double alpha = instance.machine().alpha;
  EXPECT_LE(core::run_pd(instance).certified_ratio,
            std::pow(alpha, alpha) * (1.0 + 1e-6));
}

constexpr int kSeedsPerFamily = 25;

TEST_P(PdDifferential, UniformInstances) {
  const DiffParam param = GetParam();
  for (int seed = 0; seed < kSeedsPerFamily; ++seed) {
    SCOPED_TRACE("uniform seed " + std::to_string(seed));
    workload::UniformConfig config;
    config.num_jobs = 30 + 7 * (seed % 5);
    config.value_scale = 0.8 + 0.4 * (seed % 4);  // contested accept/reject
    config.must_finish = seed % 6 == 0;
    const auto inst = workload::uniform_random(
        config, Machine{param.m, param.alpha}, 5000 + std::uint64_t(seed));
    expect_engines_identical(inst);
  }
}

TEST_P(PdDifferential, BurstyHeavyTailInstances) {
  const DiffParam param = GetParam();
  for (int seed = 0; seed < kSeedsPerFamily; ++seed) {
    SCOPED_TRACE("bursty seed " + std::to_string(seed));
    workload::PoissonConfig config;
    config.num_jobs = 30 + 5 * (seed % 6);
    config.arrival_rate = 0.5 + double(seed % 3);  // bursts of simultaneity
    config.value_scale = 1.0 + 0.5 * (seed % 3);
    const auto inst = workload::poisson_heavy_tail(
        config, Machine{param.m, param.alpha}, 6000 + std::uint64_t(seed));
    expect_engines_identical(inst);
  }
}

TEST_P(PdDifferential, TightLaxityInstances) {
  const DiffParam param = GetParam();
  for (int seed = 0; seed < kSeedsPerFamily; ++seed) {
    SCOPED_TRACE("tight seed " + std::to_string(seed));
    workload::TightConfig config;
    config.num_jobs = 25 + 5 * (seed % 4);
    config.speed_target = 1.0 + 0.5 * (seed % 5);
    const auto inst = workload::tight_laxity(
        config, Machine{param.m, param.alpha}, 7000 + std::uint64_t(seed));
    expect_engines_identical(inst);
  }
}

TEST_P(PdDifferential, AdversarialTheorem3Instances) {
  const DiffParam param = GetParam();
  for (int n = 4; n <= 40; n += 6) {
    for (const double multiplier : {-1.0, 2.0, 100.0}) {
      SCOPED_TRACE("adversarial n=" + std::to_string(n) +
                   " mult=" + std::to_string(multiplier));
      const auto inst = workload::adversarial_theorem3(
          n, Machine{param.m, param.alpha}, multiplier);
      expect_engines_identical(inst);
    }
  }
}

// Split-heavy long-horizon family: every arrival's deadline bisects the
// existing partition (bit-reversed over a wide horizon), so the stream is
// nearly all Section-3 splits — the regime the interval store exists for.
model::Instance bisection_instance(int num_jobs, Machine machine,
                                   std::uint64_t seed) {
  util::Rng rng(seed);
  std::vector<model::Job> jobs;
  const double horizon = 1 << 14;
  // Anchor pinning [0, horizon).
  jobs.push_back({0, 0.0, horizon, 2.0, 20.0});
  int bits = 1;
  while ((1 << bits) < num_jobs + 2) ++bits;
  for (int i = 1; i < num_jobs; ++i) {
    std::uint32_t r = 0;
    for (int b = 0; b < bits; ++b) r |= ((std::uint32_t(i) >> b) & 1u)
                                        << (bits - 1 - b);
    const double deadline = horizon * double(r) / double(1u << bits);
    model::Job job;
    job.id = i;
    job.release = 0.0;
    job.deadline = std::max(deadline, 1.0);
    job.work = rng.uniform(0.5, 2.0);
    job.value = workload::energy_fair_value(job, machine.alpha) *
                rng.uniform(0.5, 4.0);
    jobs.push_back(job);
  }
  return model::make_instance(machine, std::move(jobs));
}

TEST_P(PdDifferential, SplitHeavyBisectionInstances) {
  const DiffParam param = GetParam();
  for (int seed = 0; seed < 3; ++seed) {
    SCOPED_TRACE("bisection seed " + std::to_string(seed));
    const auto inst = bisection_instance(120, Machine{param.m, param.alpha},
                                         8000 + std::uint64_t(seed));
    expect_engines_identical(inst);
  }
}

// Heavy-tailed lookahead: releases sweep forward while occasional far
// deadlines plant boundaries deep into the future, so later short-window
// arrivals keep splitting behind already-planted boundaries.
model::Instance lookahead_instance(int num_jobs, Machine machine,
                                   std::uint64_t seed) {
  util::Rng rng(seed);
  std::vector<model::Job> jobs;
  for (int i = 0; i < num_jobs; ++i) {
    model::Job job;
    job.id = i;
    job.release = double(i) * 0.5;
    const bool anchor = i % 17 == 0;
    const double span =
        anchor ? rng.uniform(50.0, 400.0) : rng.uniform(0.7, 6.0);
    job.deadline = job.release + span;
    job.work = rng.uniform(0.3, 2.0);
    job.value = workload::energy_fair_value(job, machine.alpha) *
                rng.uniform(0.5, 4.0);
    jobs.push_back(job);
  }
  return model::make_instance(machine, std::move(jobs));
}

TEST_P(PdDifferential, SplitHeavyLookaheadInstances) {
  const DiffParam param = GetParam();
  for (int seed = 0; seed < 3; ++seed) {
    SCOPED_TRACE("lookahead seed " + std::to_string(seed));
    const auto inst = lookahead_instance(150, Machine{param.m, param.alpha},
                                         8100 + std::uint64_t(seed));
    expect_engines_identical(inst);
  }
}

// Wide-window family: a loaded backdrop whose lookahead plants load far
// ahead of the release frontier, punctuated by arrivals whose windows
// span up to the whole horizon at values from hopeless to irresistible.
model::Instance wide_window_instance(int num_jobs, Machine machine,
                                     std::uint64_t seed) {
  util::Rng rng(seed);
  std::vector<model::Job> jobs;
  jobs.push_back({0, 0.0, 400.0, 2.0, 50.0});  // umbrella anchor
  for (int i = 1; i < num_jobs; ++i) {
    model::Job job;
    job.id = i;
    job.release = double(i) * 0.25;
    const bool wide = i % 5 == 0;
    job.deadline =
        job.release + (wide ? rng.uniform(100.0, 360.0) : rng.uniform(2.0, 30.0));
    job.work = rng.uniform(0.3, 2.0) * (wide ? 20.0 : 1.0);
    job.value = workload::energy_fair_value(job, machine.alpha) *
                std::pow(10.0, rng.uniform(-2.5, 2.5));
    jobs.push_back(job);
  }
  return model::make_instance(machine, std::move(jobs));
}

TEST_P(PdDifferential, WideWindowInstances) {
  const DiffParam param = GetParam();
  for (int seed = 0; seed < 3; ++seed) {
    SCOPED_TRACE("wide-window seed " + std::to_string(seed));
    const auto inst = wide_window_instance(150, Machine{param.m, param.alpha},
                                           8200 + std::uint64_t(seed));
    expect_engines_identical(inst);
  }
}

// Accept-heavy long-horizon family. A stream of tick jobs marches along an
// integer grid, each with a one-interval empty window at the release
// frontier and a value chosen to be accepted. Periodic wide jobs overlap
// many committed tick loads, rare low-value losers are the only
// rejections, and in the second half occasional half-tick releases split
// committed intervals.
model::Instance accept_heavy_instance(int num_ticks, Machine machine,
                                      std::uint64_t seed) {
  util::Rng rng(seed);
  std::vector<model::Job> jobs;
  int id = 0;
  for (int t = 0; t < num_ticks; ++t) {
    model::Job tick;
    tick.id = id++;
    tick.release = double(t);
    tick.deadline = double(t) + 1.0;
    tick.work = rng.uniform(0.4, 1.6);
    tick.value = workload::energy_fair_value(tick, machine.alpha) *
                 rng.uniform(4.0, 8.0);  // comfortably accepted
    jobs.push_back(tick);
    if (t % 8 == 5) {
      model::Job wide;  // overlaps the committed tick loads ahead
      wide.id = id++;
      wide.release = double(t);
      wide.deadline = double(t) + 9.0;
      wide.work = rng.uniform(3.0, 8.0);
      wide.value = workload::energy_fair_value(wide, machine.alpha) *
                   rng.uniform(2.0, 5.0);
      jobs.push_back(wide);
    }
    if (t % 16 == 11) {
      model::Job loser;  // the rare rejection
      loser.id = id++;
      loser.release = double(t);
      loser.deadline = double(t) + 2.0;
      loser.work = rng.uniform(0.5, 1.5);
      loser.value = workload::energy_fair_value(loser, machine.alpha) * 0.01;
      jobs.push_back(loser);
    }
    if (t >= num_ticks / 2 && t % 10 == 7) {
      model::Job half;  // off-tick boundary: splits committed intervals
      half.id = id++;
      half.release = double(t) + 0.5;
      half.deadline = double(t) + 2.5;
      half.work = rng.uniform(0.3, 1.0);
      half.value = workload::energy_fair_value(half, machine.alpha) *
                   rng.uniform(1.0, 3.0);
      jobs.push_back(half);
    }
  }
  return model::make_instance(machine, std::move(jobs));
}

TEST_P(PdDifferential, AcceptHeavyLongHorizonInstances) {
  const DiffParam param = GetParam();
  for (int seed = 0; seed < 2; ++seed) {
    SCOPED_TRACE("accept-heavy seed " + std::to_string(seed));
    const auto inst = accept_heavy_instance(96, Machine{param.m, param.alpha},
                                            8300 + std::uint64_t(seed));
    expect_engines_identical(inst);
    if (::testing::Test::HasFatalFailure()) return;
    // The family really is accept-heavy.
    PdScheduler production(inst.machine());
    for (const model::Job& job : inst.jobs_by_release())
      (void)production.on_arrival(job);
    EXPECT_LT(production.counters().rejected,
              production.counters().accepted / 4);
  }
}

// Window widths spanning one interval to the full horizon: an umbrella and
// a backdrop of lookahead jobs load a unit grid past the release frontier,
// then probes from the frontier double in width up to the whole horizon at
// hopeless, contested and generous values.
model::Instance width_sweep_instance(Machine machine, std::uint64_t seed) {
  util::Rng rng(seed);
  const int horizon = 256;
  const int lookahead = 64;
  std::vector<model::Job> jobs;
  jobs.push_back({0, 0.0, double(horizon + lookahead), 1.0, util::kInf});
  for (int t = 0; t < horizon; ++t) {
    model::Job job{model::JobId(jobs.size()), double(t),
                   double(t + lookahead), rng.uniform(0.3, 1.5), 0.0};
    job.value = workload::energy_fair_value(job, machine.alpha) *
                rng.uniform(0.5, 4.0);
    jobs.push_back(job);
  }
  for (int width = 1; width <= horizon; width *= 2) {
    for (const double value_scale : {0.02, 1.0, 50.0}) {
      model::Job job{model::JobId(jobs.size()), double(horizon),
                     double(horizon + width),
                     rng.uniform(0.5, 2.0) * double(width), 0.0};
      job.value = workload::energy_fair_value(job, machine.alpha) *
                  value_scale;
      jobs.push_back(job);
    }
  }
  return model::make_instance(machine, std::move(jobs));
}

TEST_P(PdDifferential, WidthsFromOneToFullHorizonInstances) {
  const DiffParam param = GetParam();
  for (int seed = 0; seed < 2; ++seed) {
    SCOPED_TRACE("width-sweep seed " + std::to_string(seed));
    expect_engines_identical(width_sweep_instance(
        Machine{param.m, param.alpha}, 8400 + std::uint64_t(seed)));
  }
}

// Refinement torture: an umbrella, then a tolerance prepend (released a
// hair before the umbrella, inside the clock tolerance, but fed after it),
// then interleaved splits and far horizon extensions with committed loads
// present. The jobs come back in feed order, which is not release order.
std::vector<model::Job> refinement_torture_jobs(std::uint64_t seed) {
  util::Rng rng(seed);
  std::vector<model::Job> jobs;
  jobs.push_back({0, 1.0, 65.0, rng.uniform(4.0, 10.0), util::kInf});
  jobs.push_back({1, 1.0 - 0.5e-12, 1.5, 0.4, 3.0});
  double t = 1.0;
  for (int i = 2; i < 40; ++i) {
    t += rng.uniform(0.1, 2.0);
    const bool extend = rng.bernoulli(0.2);
    const double span =
        extend ? rng.uniform(70.0, 120.0) : rng.uniform(0.3, 9.0);
    jobs.push_back({i, t, t + span, rng.uniform(0.2, 3.0),
                    std::pow(10.0, rng.uniform(-2.0, 2.0))});
  }
  return jobs;
}

TEST_P(PdDifferential, RefinementTortureInstances) {
  const DiffParam param = GetParam();
  for (int seed = 0; seed < 4; ++seed) {
    SCOPED_TRACE("refinement-torture seed " + std::to_string(seed));
    const std::vector<model::Job> jobs =
        refinement_torture_jobs(8500 + std::uint64_t(seed));
    expect_engines_identical(
        model::make_instance(Machine{param.m, param.alpha}, jobs), jobs);
  }
}

// Recycled schedulers: the production engine first serves another stream,
// compacts it and is reset() — the stream engine's session pooling — and
// must then match the reference as if fresh.
TEST_P(PdDifferential, RecycledSchedulerInstances) {
  const DiffParam param = GetParam();
  const Machine machine{param.m, param.alpha};
  for (int seed = 0; seed < 2; ++seed) {
    SCOPED_TRACE("recycled seed " + std::to_string(seed));
    const std::vector<model::Job> warmup =
        accept_heavy_instance(48, machine, 8600 + std::uint64_t(seed))
            .jobs_by_release();
    expect_engines_identical(
        lookahead_instance(120, machine, 8700 + std::uint64_t(seed)), {},
        warmup);
  }
}

// A rejection speed can be finite yet exactly zero: instances require
// value > 0, but s_cap = (v/(delta*alpha*w))^(1/(alpha-1)) underflows to
// 0.0 for a legal tiny value once the exponent is large (alpha near 1).
// Fractional PD must take the fully-unserved branch for it.
TEST_P(PdDifferential, UnderflowedRejectionSpeedFractionalInstances) {
  const DiffParam param = GetParam();
  const Machine machine{param.m, param.alpha};
  util::Rng rng(8800);
  std::vector<model::Job> jobs;
  jobs.push_back({0, 0.0, 8.0, 2.0, util::kInf});
  for (int i = 1; i < 16; ++i) {
    const double release = 0.5 * double(i);
    model::Job job{i, release, release + rng.uniform(1.0, 6.0),
                   rng.uniform(0.5, 2.0), 1e-300};
    if (i % 2 == 0)
      job.value = workload::energy_fair_value(job, machine.alpha) *
                  rng.uniform(0.5, 4.0);
    jobs.push_back(job);
  }
  const auto production =
      core::run_fractional_pd(model::make_instance(machine, jobs));
  int underflowed = 0;
  for (const model::Job& job : jobs) {
    if (core::rejection_speed(job.value, job.work, machine.alpha, 1.0) != 0.0)
      continue;
    ++underflowed;
    EXPECT_EQ(production.fraction[std::size_t(job.id)], 0.0);
  }
  if (machine.alpha < 1.5) {
    EXPECT_GT(underflowed, 0);
  }
}

// The same stream through integral PD: a zero rejection speed is a cap
// like any other, so both engines reject such a job with lambda = v
// (Listing 1, line 12), bitwise alike.
TEST_P(PdDifferential, UnderflowedRejectionSpeedIntegralInstances) {
  const DiffParam param = GetParam();
  const Machine machine{param.m, param.alpha};
  util::Rng rng(8800);
  std::vector<model::Job> jobs;
  jobs.push_back({0, 0.0, 8.0, 2.0, util::kInf});
  for (int i = 1; i < 16; ++i) {
    const double release = 0.5 * double(i);
    model::Job job{i, release, release + rng.uniform(1.0, 6.0),
                   rng.uniform(0.5, 2.0), 1e-300};
    if (i % 2 == 0)
      job.value = workload::energy_fair_value(job, machine.alpha) *
                  rng.uniform(0.5, 4.0);
    jobs.push_back(job);
  }
  expect_engines_identical(model::make_instance(machine, jobs));
  if (::testing::Test::HasFatalFailure()) return;
  PdScheduler production(machine);
  int underflowed = 0;
  for (const model::Job& job : jobs) {
    const auto decision = production.on_arrival(job);
    if (core::rejection_speed(job.value, job.work, machine.alpha,
                              production.delta()) != 0.0)
      continue;
    ++underflowed;
    EXPECT_FALSE(decision.accepted) << job.to_string();
    EXPECT_EQ(decision.speed, 0.0) << job.to_string();
    EXPECT_EQ(decision.lambda, job.value) << job.to_string();
  }
  if (machine.alpha < 1.5) {
    EXPECT_GT(underflowed, 0);
  }
}

INSTANTIATE_TEST_SUITE_P(
    AlphaTimesProcessors, PdDifferential,
    ::testing::Values(DiffParam{1.1, 1}, DiffParam{1.1, 4}, DiffParam{1.1, 16},
                      DiffParam{2.0, 1}, DiffParam{2.0, 4}, DiffParam{2.0, 16},
                      DiffParam{3.0, 1}, DiffParam{3.0, 4},
                      DiffParam{3.0, 16}),
    [](const auto& info) {
      return "alpha" + std::to_string(int(info.param.alpha * 10)) + "_m" +
             std::to_string(info.param.m);
    });

// The smallest reproducer: at alpha = 1.1 a value of 1e-300 underflows the
// rejection speed to 0, and both engines reject. A value that is not
// positive is malformed, refused before any boundary is inserted.
TEST(UnderflowedRejectionSpeed, BothEnginesRejectAndRefuseNonpositiveValues) {
  const Machine machine{1, 1.1};
  PdScheduler production(machine);
  ReferencePd reference(machine);
  const model::Job tiny{0, 0.0, 1.0, 1.0, 1e-300};
  const auto a = reference.on_arrival(tiny);
  const auto b = production.on_arrival(tiny);
  EXPECT_FALSE(a.accepted);
  EXPECT_FALSE(b.accepted);
  EXPECT_EQ(std::bit_cast<std::uint64_t>(a.speed),
            std::bit_cast<std::uint64_t>(b.speed));
  EXPECT_EQ(b.speed, 0.0);
  EXPECT_EQ(a.lambda, 1e-300);
  EXPECT_EQ(b.lambda, 1e-300);
  const std::size_t intervals = production.live_intervals();
  for (const double value : {0.0, -1.0, std::nan("")}) {
    SCOPED_TRACE(testing::Message() << "value " << value);
    const model::Job bad{1, 2.0, 3.0, 1.0, value};
    EXPECT_THROW((void)production.on_arrival(bad), std::invalid_argument);
    EXPECT_THROW((void)reference.on_arrival(bad), std::invalid_argument);
    EXPECT_EQ(production.live_intervals(), intervals);
  }
}

// ------------------------------------------------ cross-commit bit pin
//
// The differential above holds the two engines to each other, so it cannot
// see a change to a primitive both share (pairwise summation, insertion
// curves, piecewise-linear evaluation, the interval store). This pin holds
// the production engine to itself across commits: a seeded stream shaped
// like the serving benchmark's deep_horizon workload (one stream, 4..12
// arrivals a tick, one in four a long anchor 50..2000 ticks ahead,
// compaction every tick) must reproduce the recorded decision counts, the
// bits of planned_energy() and a digest of every decision's lambda and
// speed bits. A change that moves any of them must say why and re-record.
struct BitPin {
  long long accepted;
  long long rejected;
  std::uint64_t energy_bits;
  std::uint64_t decision_digest;
};

BitPin run_deep_horizon_shaped(Machine machine, std::uint64_t seed) {
  util::Rng rng(seed);
  PdScheduler scheduler(machine);
  model::JobId next_id = 0;
  for (int t = 0; next_id < 2000; ++t) {
    scheduler.advance_to(t, /*compact=*/true);
    const auto n = rng.uniform_int(4, 12);
    for (std::int64_t j = 0; j < n; ++j) {
      const bool anchor = rng.uniform(0.0, 1.0) < 0.25;
      model::Job job;
      job.id = next_id++;
      job.release = t;
      job.deadline =
          t + (anchor ? rng.uniform(50.0, 2000.0) : rng.uniform(1.0, 8.0));
      job.work = rng.uniform(0.3, 2.0);
      job.value = workload::energy_fair_value(job, machine.alpha) *
                  rng.uniform(0.5, 4.0);
      (void)scheduler.on_arrival(job);
    }
  }
  std::uint64_t digest = 0xcbf29ce484222325ull;  // FNV-1a over 64-bit words
  for (const auto& [id, d] : scheduler.decisions()) {
    for (const double x : {d.lambda, d.speed}) {
      digest ^= std::bit_cast<std::uint64_t>(x);
      digest *= 0x100000001b3ull;
    }
  }
  return {scheduler.counters().accepted, scheduler.counters().rejected,
          std::bit_cast<std::uint64_t>(scheduler.planned_energy()), digest};
}

void expect_pinned(const BitPin& got, const BitPin& want) {
  EXPECT_EQ(got.accepted, want.accepted);
  EXPECT_EQ(got.rejected, want.rejected);
  EXPECT_EQ(got.energy_bits, want.energy_bits)
      << std::hex << "0x" << got.energy_bits;
  EXPECT_EQ(got.decision_digest, want.decision_digest)
      << std::hex << "0x" << got.decision_digest;
}

TEST(BitPin, DeepHorizonShapedStreamSingleProcessor) {
  // The serving benchmark's machine (stream::EngineOptions' default).
  expect_pinned(run_deep_horizon_shaped(Machine{1, 2.0}, 7),
                {284, 1721, 0x40878e4458b54da1ull, 0x39db106049a04e5eull});
}

TEST(BitPin, DeepHorizonShapedStreamFourProcessors) {
  expect_pinned(run_deep_horizon_shaped(Machine{4, 3.0}, 11),
                {873, 1128, 0x409af919b86c9fcbull, 0x30c08148198c44dbull});
}

}  // namespace
}  // namespace pss
