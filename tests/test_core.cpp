// Tests for src/core: the PD algorithm of Listing 1 — decision logic, dual
// variables, the commitment/no-redistribution property, online partition
// refinement, and the certified alpha^alpha bound of Theorem 3 (as
// parameterized property sweeps).
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include "chen/interval_schedule.hpp"
#include "convex/brute_force.hpp"
#include "core/reference_pd.hpp"
#include "core/rejection.hpp"
#include "core/run.hpp"
#include "model/power.hpp"
#include "model/schedule.hpp"
#include "util/math.hpp"
#include "workload/generators.hpp"

namespace pss {
namespace {

using model::Job;
using model::Machine;

// ------------------------------------------------------- rejection formulas

TEST(Rejection, OptimalDeltaFormula) {
  EXPECT_DOUBLE_EQ(core::optimal_delta(3.0), std::pow(3.0, -2.0));
  EXPECT_DOUBLE_EQ(core::optimal_delta(2.0), 0.5);
}

TEST(Rejection, SpeedAtOptimalDeltaEqualsCllThreshold) {
  // Section 3: with delta = alpha^(1-alpha), PD's rejection speed coincides
  // with the Chan–Lam–Li admission threshold.
  for (double alpha : {1.5, 2.0, 2.5, 3.0, 4.0}) {
    for (double v : {0.1, 1.0, 7.0}) {
      for (double w : {0.3, 1.0, 4.0}) {
        EXPECT_NEAR(
            core::rejection_speed(v, w, alpha, core::optimal_delta(alpha)),
            core::cll_threshold_speed(v, w, alpha), 1e-9)
            << "alpha=" << alpha << " v=" << v << " w=" << w;
      }
    }
  }
}

TEST(Rejection, InfiniteValueNeverRejects) {
  EXPECT_TRUE(std::isinf(
      core::rejection_speed(util::kInf, 1.0, 3.0, core::optimal_delta(3.0))));
}

// ----------------------------------------------------------- PD decisions

TEST(PdScheduler, LoneJobRunsAtDensity) {
  core::PdScheduler pd(Machine{1, 3.0});
  const auto decision = pd.on_arrival(Job{0, 0.0, 4.0, 2.0, util::kInf});
  EXPECT_TRUE(decision.accepted);
  EXPECT_NEAR(decision.speed, 0.5, 1e-12);
  // lambda = delta * w * alpha * s^(alpha-1) = (1/9) * 2 * 3 * 0.25.
  EXPECT_NEAR(decision.lambda, (1.0 / 9.0) * 2.0 * 3.0 * 0.25, 1e-12);
}

TEST(PdScheduler, AcceptRejectBoundary) {
  // m=1, alpha=2, delta=1/2: a lone unit job on a unit window is accepted
  // iff v >= delta * alpha = 1.
  core::PdScheduler accept_pd(Machine{1, 2.0});
  EXPECT_TRUE(accept_pd.on_arrival(Job{0, 0, 1, 1.0, 1.01}).accepted);
  core::PdScheduler reject_pd(Machine{1, 2.0});
  const auto rejected = reject_pd.on_arrival(Job{0, 0, 1, 1.0, 0.99});
  EXPECT_FALSE(rejected.accepted);
  EXPECT_DOUBLE_EQ(rejected.lambda, 0.99);  // lambda_j = v_j on rejection
  EXPECT_DOUBLE_EQ(reject_pd.planned_energy(), 0.0);
}

TEST(PdScheduler, RejectedJobLeavesNoLoad) {
  core::PdScheduler pd(Machine{1, 2.0});
  pd.on_arrival(Job{0, 0, 1, 1.0, 0.5});
  EXPECT_DOUBLE_EQ(pd.assignment().total_of(0), 0.0);
  const auto schedule = pd.final_schedule();
  EXPECT_TRUE(schedule.is_rejected(0));
}

TEST(PdScheduler, EarlierCommitmentsNeverMove) {
  core::PdScheduler pd(Machine{1, 3.0});
  pd.on_arrival(Job{0, 0.0, 4.0, 2.0, util::kInf});
  // Snapshot job 0's per-interval loads scaled to sub-interval lengths.
  // After job 1 arrives (splitting [0,4) at 1 and 2), job 0's loads must
  // still be 0.5 * interval length everywhere (its committed speed).
  pd.on_arrival(Job{1, 1.0, 2.0, 3.0, util::kInf});
  const auto& partition = pd.partition();
  for (std::size_t k = 0; k < partition.num_intervals(); ++k) {
    EXPECT_NEAR(pd.assignment().load_of(k, 0), 0.5 * partition.length(k),
                1e-12)
        << "interval " << k;
  }
}

TEST(PdScheduler, RefinementSplitsProportionally) {
  core::PdScheduler pd(Machine{2, 2.5});
  pd.on_arrival(Job{0, 0.0, 8.0, 4.0, util::kInf});
  pd.on_arrival(Job{1, 3.0, 5.0, 1.0, util::kInf});
  // Partition now 0,3,5,8; job 0 committed at speed 0.5 throughout.
  const auto& partition = pd.partition();
  ASSERT_EQ(partition.num_intervals(), 3u);
  EXPECT_NEAR(pd.assignment().load_of(0, 0), 1.5, 1e-12);
  EXPECT_NEAR(pd.assignment().load_of(1, 0), 1.0, 1e-12);
  EXPECT_NEAR(pd.assignment().load_of(2, 0), 1.5, 1e-12);
}

TEST(PdScheduler, MarginalEqualityInvariant) {
  // After each arrival, the accepted job's own-speed must be equal on every
  // interval carrying its load and no other interval in its window may have
  // a slower slowest-processor (it would have been cheaper).
  workload::UniformConfig config;
  config.num_jobs = 25;
  config.horizon = 30.0;
  config.value_scale = 2.0;
  for (std::uint64_t seed = 1; seed <= 5; ++seed) {
    const auto inst =
        workload::uniform_random(config, Machine{3, 2.5}, seed);
    core::PdScheduler pd(inst.machine());
    for (const Job& job : inst.jobs_by_release()) {
      const auto decision = pd.on_arrival(job);
      if (!decision.accepted) continue;
      const auto& partition = pd.partition();
      const auto& assignment = pd.assignment();
      const auto window = partition.job_range(job);
      for (std::size_t k = window.first; k < window.last; ++k) {
        chen::IntervalSolution solution(assignment.loads(k), 3,
                                        partition.length(k));
        const double load = assignment.load_of(k, job.id);
        if (load > 1e-9) {
          EXPECT_NEAR(solution.speed_of(job.id), decision.speed,
                      1e-6 * std::max(1.0, decision.speed))
              << "seed " << seed << " job " << job.id << " interval " << k;
        } else {
          // No load here: inserting would have cost at least s*.
          EXPECT_GE(solution.slowest_speed(), decision.speed - 1e-7)
              << "seed " << seed << " job " << job.id << " interval " << k;
        }
      }
    }
  }
}

TEST(PdScheduler, ArrivalOrderEnforced) {
  core::PdScheduler pd(Machine{1, 3.0});
  pd.on_arrival(Job{0, 5.0, 6.0, 1.0, util::kInf});
  EXPECT_THROW(pd.on_arrival(Job{1, 1.0, 2.0, 1.0, util::kInf}),
               std::invalid_argument);
}

// A client id is not a promise of uniqueness. Job 0 commits 2 units over
// [0, 4); a second arrival reusing id 0 over [1, 3) would water-fill as if
// id 0 held nothing there and then overwrite its loads, so it is refused
// (std::invalid_argument), the earlier commitment stays whole, and the
// scheduler serves on. Its two boundaries may stay in the partition:
// refinement does not change the schedule (Section 3).
TEST(PdScheduler, RepeatedJobIdIsRefusedAndCommittedWorkSurvives) {
  core::PdScheduler pd(Machine{1, 2.0});
  ASSERT_TRUE(pd.on_arrival(Job{0, 0.0, 4.0, 2.0, util::kInf}).accepted);
  EXPECT_THROW(pd.on_arrival(Job{0, 1.0, 3.0, 1.0, util::kInf}),
               std::invalid_argument);
  EXPECT_EQ(pd.assignment().total_of(0), 2.0);
  EXPECT_EQ(pd.counters().arrivals, 1);
  const auto next = pd.on_arrival(Job{1, 1.0, 3.0, 1.0, util::kInf});
  EXPECT_TRUE(next.accepted);
  EXPECT_EQ(pd.assignment().total_of(0), 2.0);
  EXPECT_EQ(pd.assignment().total_of(1), 1.0);
  EXPECT_EQ(pd.counters().arrivals, 2);
}

// ------------------------------------------------------------ ReferencePd

// Listing 1 by hand. m = 1, alpha = 2, so delta = alpha^(1-alpha) = 1/2,
// P'(s) = 2s and the rejection speed is v / (delta * alpha * w) = v / w.
// On one processor an interval of length l already carrying load L absorbs
// z(s) = max(0, s*l - L) of a new job at own-speed s (everything shares
// the processor at speed (L + x) / l).
//   Job 0 = [0, 4), w = 2: alone, s* = 2/4 = 1/2 <= v/w, accepted with
//     lambda = delta * w * P'(s*) = 1/2 * 2 * 1 = 1 and planned energy
//     w * s*^(alpha-1) = 1; it commits load 1 to each half of [0, 4).
//   Job 1 = [2, 4), w = 1: the release splits [0, 4) at 2 (one split);
//     its window [2, 4) carries load 1, so z(s) = 2s - 1 and z(s*) = 1
//     gives s* = 1, lambda = 1/2 * 1 * 2 = 1.
//     With v = 3 (rejection speed 3 >= 1) it is accepted: planned energy
//     1, and the plan costs 2 * (1/2)^2 + 2 * (2/2)^2 = 2.5.
//     With v = 0.8 (rejection speed 0.8 < 1) it is rejected: lambda = v,
//     no load, and the plan costs 2 * (1/2)^2 * 2 = 1.
TEST(ReferencePd, HandComputedListingOne) {
  const Machine machine{1, 2.0};
  for (const double v1 : {3.0, 0.8}) {
    SCOPED_TRACE("v1 = " + std::to_string(v1));
    core::ReferencePd reference(machine);
    core::PdScheduler production(machine);
    const Job job0{0, 0.0, 4.0, 2.0, 10.0};
    const Job job1{1, 2.0, 4.0, 1.0, v1};

    const auto d0 = reference.on_arrival(job0);
    EXPECT_TRUE(d0.accepted);
    EXPECT_DOUBLE_EQ(d0.speed, 0.5);
    EXPECT_DOUBLE_EQ(d0.lambda, 1.0);
    EXPECT_DOUBLE_EQ(d0.planned_energy, 1.0);
    EXPECT_EQ(reference.interval_splits(), 0);

    const auto d1 = reference.on_arrival(job1);
    EXPECT_EQ(reference.interval_splits(), 1);
    ASSERT_EQ(reference.partition().boundaries(),
              (std::vector<double>{0.0, 2.0, 4.0}));
    EXPECT_DOUBLE_EQ(reference.assignment().load_of(0, 0), 1.0);
    EXPECT_DOUBLE_EQ(reference.assignment().load_of(1, 0), 1.0);
    if (v1 > 1.0) {
      EXPECT_TRUE(d1.accepted);
      EXPECT_DOUBLE_EQ(d1.speed, 1.0);
      EXPECT_DOUBLE_EQ(d1.lambda, 1.0);
      EXPECT_DOUBLE_EQ(d1.planned_energy, 1.0);
      EXPECT_DOUBLE_EQ(reference.assignment().load_of(1, 1), 1.0);
      EXPECT_DOUBLE_EQ(reference.planned_energy(), 2.5);
    } else {
      EXPECT_FALSE(d1.accepted);
      EXPECT_DOUBLE_EQ(d1.speed, 0.8);  // the rejection speed it missed
      EXPECT_DOUBLE_EQ(d1.lambda, 0.8);
      EXPECT_DOUBLE_EQ(d1.planned_energy, 0.0);
      EXPECT_DOUBLE_EQ(reference.assignment().total_of(1), 0.0);
      EXPECT_DOUBLE_EQ(reference.planned_energy(), 1.0);
      EXPECT_TRUE(reference.final_schedule().is_rejected(1));
    }
    ASSERT_EQ(reference.decisions().size(), 2u);
    EXPECT_EQ(reference.decisions()[1].first, 1);

    // The production engine lands on the same numbers, bitwise.
    for (const auto& [job, want] : {std::pair{job0, d0}, std::pair{job1, d1}}) {
      const auto got = production.on_arrival(job);
      EXPECT_EQ(got.accepted, want.accepted);
      EXPECT_EQ(got.speed, want.speed);
      EXPECT_EQ(got.lambda, want.lambda);
      EXPECT_EQ(got.planned_energy, want.planned_energy);
    }
    EXPECT_EQ(production.planned_energy(), reference.planned_energy());
    EXPECT_EQ(production.counters().interval_splits,
              reference.interval_splits());
  }
}

// Release-order enforcement is the same contract on both engines: a
// release behind the clock (beyond the relative tolerance) throws
// std::invalid_argument and leaves the engine usable, a release within the
// tolerance is admitted (and prepends a boundary), and both keep agreeing
// afterwards.
TEST(ReferencePd, RejectsOutOfOrderReleasesLikePdScheduler) {
  const Machine machine{2, 3.0};
  core::ReferencePd reference(machine);
  core::PdScheduler production(machine);
  const Job first{0, 5.0, 6.0, 1.0, util::kInf};
  (void)reference.on_arrival(first);
  (void)production.on_arrival(first);

  const Job stale{1, 1.0, 2.0, 1.0, util::kInf};
  const auto message = [](auto& engine, const Job& job) {
    try {
      (void)engine.on_arrival(job);
    } catch (const std::invalid_argument& e) {
      return std::string(e.what());
    }
    return std::string("no throw");
  };
  const std::string want = "jobs must arrive in nondecreasing release order";
  EXPECT_NE(message(reference, stale).find(want), std::string::npos);
  EXPECT_NE(message(production, stale).find(want), std::string::npos);
  EXPECT_EQ(reference.decisions().size(), 1u);
  EXPECT_EQ(production.counters().arrivals, 1);

  // Within tolerance: admitted by both, bitwise alike.
  const Job jitter{2, 5.0 - 1e-15, 5.5, 1.0, 4.0};
  const auto a = reference.on_arrival(jitter);
  const auto b = production.on_arrival(jitter);
  EXPECT_EQ(a.accepted, b.accepted);
  EXPECT_EQ(a.speed, b.speed);
  EXPECT_EQ(a.lambda, b.lambda);
  EXPECT_EQ(reference.partition().boundaries(),
            production.partition().boundaries());
  EXPECT_EQ(reference.planned_energy(), production.planned_energy());
}

TEST(PdScheduler, PlannedEnergyMatchesRealizedSchedule) {
  workload::UniformConfig config;
  config.num_jobs = 20;
  for (std::uint64_t seed = 1; seed <= 4; ++seed) {
    const auto inst =
        workload::uniform_random(config, Machine{2, 3.0}, seed);
    const auto result = core::run_pd(inst);
    EXPECT_NEAR(result.cost.energy,
                result.schedule.energy(inst.machine().alpha),
                1e-9 * std::max(1.0, result.cost.energy));
  }
}

TEST(PdScheduler, LargerDeltaRejectsMore) {
  workload::UniformConfig config;
  config.num_jobs = 40;
  config.value_scale = 1.0;
  const auto inst = workload::uniform_random(config, Machine{1, 3.0}, 9);
  const auto strict = core::run_pd(inst, {.delta = 1.0});
  const auto loose = core::run_pd(inst, {.delta = core::optimal_delta(3.0)});
  int strict_accepted = 0, loose_accepted = 0;
  for (bool a : strict.accepted) strict_accepted += a;
  for (bool a : loose.accepted) loose_accepted += a;
  // delta scales the perceived energy price: delta = 1 > alpha^(1-alpha)
  // makes jobs look more expensive, so acceptance cannot increase.
  EXPECT_LE(strict_accepted, loose_accepted);
}

TEST(PdCounters, AggregationSumsCountsAndMaxesHighWaterMarks) {
  core::PdCounters a;
  a.arrivals = 10;
  a.accepted = 7;
  a.rejected = 3;
  a.interval_splits = 2;
  a.horizon_extensions = 1;
  a.curve_cache_hits = 100;
  a.curve_cache_rebuilds = 5;
  a.max_intervals = 40;
  a.max_window = 12;
  core::PdCounters b;
  b.arrivals = 4;
  b.accepted = 4;
  b.curve_cache_hits = 30;
  b.max_intervals = 25;
  b.max_window = 30;

  const core::PdCounters sum = a + b;
  EXPECT_EQ(sum.arrivals, 14);
  EXPECT_EQ(sum.accepted, 11);
  EXPECT_EQ(sum.rejected, 3);
  EXPECT_EQ(sum.interval_splits, 2);
  EXPECT_EQ(sum.horizon_extensions, 1);
  EXPECT_EQ(sum.curve_cache_hits, 130);
  EXPECT_EQ(sum.curve_cache_rebuilds, 5);
  EXPECT_EQ(sum.max_intervals, 40u);  // high-water marks take the max
  EXPECT_EQ(sum.max_window, 30u);

  core::PdCounters acc = a;
  acc += b;
  EXPECT_EQ(acc.arrivals, sum.arrivals);
  EXPECT_EQ(acc.max_window, sum.max_window);
}

// The reflection table IS the aggregation, the checkpoint wire format and
// the coverage contract. This test tiles sizeof(PdCounters) with the
// table's member offsets: add a counter member without a kPdCounterFields
// row and the byte accounting below fails, pointing at the hole.
TEST(PdCounters, ReflectionTableCoversEveryMember) {
  core::PdCounters probe;
  const char* base = reinterpret_cast<const char*>(&probe);
  std::vector<std::pair<std::size_t, std::size_t>> spans;  // offset, size
  std::set<std::string> names;
  for (const core::PdCounterField& f : core::kPdCounterFields) {
    ASSERT_TRUE(names.insert(f.name).second) << "duplicate row " << f.name;
    if (f.kind == core::PdCounterField::Kind::kAdd) {
      ASSERT_NE(f.count, nullptr) << f.name;
      spans.emplace_back(
          std::size_t(reinterpret_cast<const char*>(&(probe.*f.count)) -
                      base),
          sizeof(long long));
    } else {
      ASSERT_NE(f.mark, nullptr) << f.name;
      spans.emplace_back(
          std::size_t(reinterpret_cast<const char*>(&(probe.*f.mark)) -
                      base),
          sizeof(std::size_t));
    }
  }
  std::sort(spans.begin(), spans.end());
  std::size_t covered = 0;
  for (const auto& [offset, size] : spans) {
    ASSERT_EQ(offset, covered)
        << "gap before offset " << offset
        << ": a PdCounters member has no kPdCounterFields row";
    covered = offset + size;
  }
  ASSERT_EQ(covered, sizeof(core::PdCounters))
      << "trailing PdCounters member(s) missing from kPdCounterFields";

  // Per-row semantics through the table itself: kAdd rows sum, kMax rows
  // take the high-water mark.
  for (const core::PdCounterField& f : core::kPdCounterFields) {
    core::PdCounters lhs, rhs;
    if (f.kind == core::PdCounterField::Kind::kAdd) {
      lhs.*f.count = 3;
      rhs.*f.count = 5;
      lhs += rhs;
      EXPECT_EQ(lhs.*f.count, 8) << f.name;
    } else {
      lhs.*f.mark = 7;
      rhs.*f.mark = 5;
      lhs += rhs;
      EXPECT_EQ(lhs.*f.mark, 7u) << f.name;
    }
  }
}

TEST(PdScheduler, ResetReproducesAFreshScheduler) {
  workload::UniformConfig config;
  config.num_jobs = 40;
  const auto inst = workload::uniform_random(config, Machine{2, 2.5}, 5);
  const auto jobs = inst.jobs_by_release();

  core::PdScheduler reused(Machine{2, 2.5});
  for (const Job& job : jobs) reused.on_arrival(job);
  const double first_energy = reused.planned_energy();
  EXPECT_GT(first_energy, 0.0);

  reused.reset();
  EXPECT_EQ(reused.counters().arrivals, 0);
  EXPECT_EQ(reused.decisions().size(), 0u);
  EXPECT_EQ(reused.partition().num_intervals(), 0u);

  core::PdScheduler fresh(Machine{2, 2.5});
  for (const Job& job : jobs) {
    const auto a = reused.on_arrival(job);
    const auto b = fresh.on_arrival(job);
    EXPECT_EQ(a.accepted, b.accepted);
    EXPECT_EQ(a.speed, b.speed);
    EXPECT_EQ(a.lambda, b.lambda);
    EXPECT_EQ(a.planned_energy, b.planned_energy);
  }
  EXPECT_EQ(reused.planned_energy(), first_energy);
  EXPECT_EQ(reused.counters().curve_cache_hits,
            fresh.counters().curve_cache_hits);
}

TEST(PdScheduler, AdvanceToIsStructureFreeButMovesClock) {
  core::PdScheduler pd(Machine{1, 2.0});
  pd.advance_to(5.0);
  pd.advance_to(8.0);
  // Structure-free: a pure clock advance inserts no boundary, so heartbeat
  // ticks cannot grow the partition.
  EXPECT_TRUE(pd.partition().boundaries().empty());
  // But the clock moved: arrivals released before it are refused.
  EXPECT_THROW(pd.on_arrival(Job{0, 2.0, 9.0, 1.0, util::kInf}),
               std::exception);
  const auto decision = pd.on_arrival(Job{1, 8.0, 12.0, 1.0, util::kInf});
  EXPECT_TRUE(decision.accepted);
}

TEST(PdScheduler, MustFinishInstanceAcceptsEverything) {
  workload::UniformConfig config;
  config.num_jobs = 30;
  config.must_finish = true;
  const auto inst = workload::uniform_random(config, Machine{2, 3.0}, 11);
  const auto result = core::run_pd(inst);
  for (bool a : result.accepted) EXPECT_TRUE(a);
  EXPECT_DOUBLE_EQ(result.cost.lost_value, 0.0);
}

// ----------------------------------------- Theorem 3 (parameterized sweep)

struct SweepParam {
  double alpha;
  int m;
  int family;  // 0 = uniform, 1 = poisson heavy-tail, 2 = tight laxity
};

class Theorem3Sweep : public ::testing::TestWithParam<SweepParam> {};

model::Instance make_family(int family, Machine machine, std::uint64_t seed) {
  switch (family) {
    case 0: {
      workload::UniformConfig config;
      config.num_jobs = 40;
      config.value_scale = 1.5;
      return workload::uniform_random(config, machine, seed);
    }
    case 1: {
      workload::PoissonConfig config;
      config.num_jobs = 40;
      config.value_scale = 1.5;
      return workload::poisson_heavy_tail(config, machine, seed);
    }
    default: {
      workload::TightConfig config;
      config.num_jobs = 30;
      config.value_scale = 1.0;
      return workload::tight_laxity(config, machine, seed);
    }
  }
}

TEST_P(Theorem3Sweep, CertifiedRatioWithinAlphaToAlpha) {
  const SweepParam param = GetParam();
  const double bound = std::pow(param.alpha, param.alpha);
  const Machine machine{param.m, param.alpha};
  for (std::uint64_t seed = 1; seed <= 8; ++seed) {
    const auto inst = make_family(param.family, machine, seed);
    const auto result = core::run_pd(inst);
    ASSERT_GT(result.dual_lower_bound, 0.0) << "seed " << seed;
    EXPECT_LE(result.certified_ratio, bound * (1.0 + 1e-6))
        << "alpha=" << param.alpha << " m=" << param.m
        << " family=" << param.family << " seed=" << seed;
    const auto validation = model::validate_schedule(result.schedule, inst);
    EXPECT_TRUE(validation.ok) << validation.summary();
  }
}

INSTANTIATE_TEST_SUITE_P(
    AlphaMachineFamilies, Theorem3Sweep,
    ::testing::Values(
        SweepParam{1.3, 1, 0}, SweepParam{1.3, 4, 1}, SweepParam{2.0, 1, 0},
        SweepParam{2.0, 2, 1}, SweepParam{2.0, 4, 2}, SweepParam{2.5, 3, 0},
        SweepParam{3.0, 1, 0}, SweepParam{3.0, 1, 2}, SweepParam{3.0, 2, 0},
        SweepParam{3.0, 4, 1}, SweepParam{3.0, 8, 0}, SweepParam{4.0, 2, 2}),
    [](const auto& info) {
      const SweepParam& p = info.param;
      return "alpha" + std::to_string(int(p.alpha * 10)) + "_m" +
             std::to_string(p.m) + "_f" + std::to_string(p.family);
    });

// Exact competitive ratio against brute-force OPT on tiny instances.
TEST(Theorem3, ExactRatioAgainstBruteForce) {
  workload::UniformConfig config;
  config.num_jobs = 8;
  config.horizon = 10.0;
  config.value_scale = 1.0;
  for (std::uint64_t seed = 1; seed <= 10; ++seed) {
    const int m = 1 + int(seed % 3);
    const double alpha = 2.0 + double(seed % 2);
    const auto inst =
        workload::uniform_random(config, Machine{m, alpha}, seed);
    const auto pd = core::run_pd(inst);
    const auto partition = model::TimePartition::from_jobs(inst.jobs());
    const auto opt = convex::brute_force_opt(inst, partition);
    ASSERT_GT(opt.cost, 0.0);
    const double ratio = pd.cost.total() / opt.cost;
    EXPECT_GE(ratio, 1.0 - 1e-6) << "PD beat OPT?! seed " << seed;
    EXPECT_LE(ratio, std::pow(alpha, alpha) * (1.0 + 1e-6))
        << "seed " << seed;
    // The dual bound must bracket OPT from below.
    EXPECT_LE(pd.dual_lower_bound, opt.cost * (1.0 + 1e-6))
        << "seed " << seed;
  }
}

// The adversarial instance drives PD's ratio toward alpha^alpha (tightness).
TEST(Theorem3, LowerBoundInstanceApproachesBound) {
  const double alpha = 2.0;
  const Machine machine{1, alpha};
  auto measure = [&](int n) {
    const auto inst = workload::adversarial_theorem3(n, machine, 1e6);
    const auto pd = core::run_pd(inst);
    // All jobs must be accepted (values are huge).
    for (bool a : pd.accepted) EXPECT_TRUE(a);
    // OPT for this instance: all jobs finished; energy via the convex
    // solver on one processor.
    const auto partition = model::TimePartition::from_jobs(inst.jobs());
    std::vector<model::JobId> ids;
    for (const Job& j : inst.jobs()) ids.push_back(j.id);
    const double opt =
        convex::minimize_energy(inst, partition, ids).objective;
    return pd.cost.total() / opt;
  };
  const double r16 = measure(16);
  const double r64 = measure(64);
  const double r192 = measure(192);
  EXPECT_GT(r64, r16);
  EXPECT_GT(r192, r64);
  EXPECT_LE(r192, std::pow(alpha, alpha) * (1.0 + 1e-6));
  // At n = 192 the ratio should already exceed half the asymptotic bound.
  EXPECT_GT(r192, 0.5 * std::pow(alpha, alpha));
}

}  // namespace
}  // namespace pss
