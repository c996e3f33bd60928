// Randomized differential and perturbation testing across the whole stack.
//
// These tests hammer the library with thousands of random configurations
// at extreme parameters (alpha near 1, large alpha, micro/huge jobs,
// simultaneous arrivals, degenerate windows) and check the invariants that
// must hold regardless of instance shape:
//   * water-filling produces a local (hence global) energy minimum for the
//     placed job — random feasible perturbations never reduce energy;
//   * insertion curves invert Chen's schedule exactly;
//   * PD's certificate holds at delta* for every instance we can generate;
//   * every realized schedule passes the feasibility validator.
#include <gtest/gtest.h>

#include <cmath>

#include "chen/insertion_curve.hpp"
#include "chen/interval_schedule.hpp"
#include "convex/solver.hpp"
#include "convex/water_fill.hpp"
#include "core/run.hpp"
#include "model/schedule.hpp"
#include "util/math.hpp"
#include "util/random.hpp"
#include "workload/generators.hpp"

namespace pss {
namespace {

using model::Job;
using model::Machine;

// ------------------------------------------------ water-fill optimality

// After placing a job by water-filling, moving mass between two intervals
// of its window (keeping the total fixed) must not decrease total energy.
TEST(Fuzz, WaterFillPerturbationsNeverImprove) {
  util::Rng rng(1234);
  for (int trial = 0; trial < 150; ++trial) {
    const double alpha = rng.uniform(1.3, 4.0);
    const int m = int(rng.uniform_int(1, 4));
    const std::size_t num_intervals = std::size_t(rng.uniform_int(2, 5));
    std::vector<double> bounds{0.0};
    for (std::size_t k = 0; k < num_intervals; ++k)
      bounds.push_back(bounds.back() + rng.uniform(0.3, 2.0));
    const auto partition = model::TimePartition::from_boundaries(bounds);
    model::WorkAssignment assignment(num_intervals);
    for (std::size_t k = 0; k < num_intervals; ++k)
      for (int j = 0; j < 3; ++j)
        if (rng.bernoulli(0.5))
          assignment.set_load(k, 100 + j, rng.uniform(0.1, 3.0));

    const double work = rng.uniform(0.5, 5.0);
    const model::JobId job = 7;
    const model::IntervalRange window{0, num_intervals};
    const auto placement = convex::water_fill(assignment, partition, m,
                                              window, work, util::kInf, job);
    ASSERT_TRUE(placement.has_value());
    for (std::size_t i = 0; i < num_intervals; ++i)
      assignment.set_load(i, job, placement->amounts[i]);
    const double base_energy =
        convex::assignment_energy(assignment, partition, m, alpha);

    for (int perturb = 0; perturb < 10; ++perturb) {
      const std::size_t a = std::size_t(rng.uniform_int(0, int(num_intervals) - 1));
      const std::size_t b = std::size_t(rng.uniform_int(0, int(num_intervals) - 1));
      if (a == b) continue;
      const double have = assignment.load_of(a, job);
      if (have <= 0.0) continue;
      const double move = rng.uniform(0.0, have);
      model::WorkAssignment alt = assignment;
      alt.set_load(a, job, have - move);
      alt.set_load(b, job, assignment.load_of(b, job) + move);
      const double alt_energy =
          convex::assignment_energy(alt, partition, m, alpha);
      EXPECT_GE(alt_energy, base_energy * (1.0 - 1e-9))
          << "trial " << trial << " alpha " << alpha << " move " << move;
    }
  }
}

// ---------------------------------------------- insertion-curve inversion

TEST(Fuzz, InsertionCurveInvertsChenEverywhere) {
  util::Rng rng(4321);
  for (int trial = 0; trial < 400; ++trial) {
    const int m = int(rng.uniform_int(1, 8));
    const int p = int(rng.uniform_int(0, 12));
    std::vector<double> loads;
    for (int i = 0; i < p; ++i)
      loads.push_back(std::pow(10.0, rng.uniform(-3.0, 1.0)));
    const double length = std::pow(10.0, rng.uniform(-2.0, 1.0));
    const auto curve = chen::insertion_curve(loads, m, length);

    const double s = std::pow(10.0, rng.uniform(-2.0, 1.5));
    const double z = curve.eval(s);
    if (z <= 1e-12) continue;
    std::vector<model::Load> all;
    for (int i = 0; i < p; ++i) all.push_back({model::JobId(i), loads[std::size_t(i)]});
    all.push_back({model::JobId(p), z});
    chen::IntervalSolution solution(all, m, length);
    EXPECT_NEAR(solution.speed_of(model::JobId(p)), s,
                1e-6 * std::max(1e-3, s))
        << "m=" << m << " p=" << p << " len=" << length << " s=" << s;
  }
}

// ---------------------------------------------------- PD certificate fuzz

struct FuzzParam {
  double alpha;
  int m;
};

class PdFuzz : public ::testing::TestWithParam<FuzzParam> {};

TEST_P(PdFuzz, CertificateAndFeasibilityUnderHostileShapes) {
  const FuzzParam param = GetParam();
  const double bound = std::pow(param.alpha, param.alpha);
  util::Rng rng(777 + std::uint64_t(param.m * 100) +
                std::uint64_t(param.alpha * 10));
  for (int trial = 0; trial < 25; ++trial) {
    // Hostile shapes: duplicated windows, simultaneous releases,
    // micro/huge workloads and values across 6 orders of magnitude.
    const int n = int(rng.uniform_int(2, 30));
    std::vector<Job> jobs;
    double t = 0.0;
    for (int i = 0; i < n; ++i) {
      if (!rng.bernoulli(0.3)) t += rng.uniform(0.0, 2.0);  // 30% same time
      Job job;
      job.release = t;
      job.deadline = t + std::pow(10.0, rng.uniform(-2.0, 1.0));
      job.work = std::pow(10.0, rng.uniform(-3.0, 2.0));
      job.value = std::pow(10.0, rng.uniform(-3.0, 3.0));
      if (rng.bernoulli(0.1)) job.value = util::kInf;  // some must-finish
      jobs.push_back(job);
      if (rng.bernoulli(0.2) && !jobs.empty()) {
        Job dup = jobs.back();  // exact duplicate window
        jobs.push_back(dup);
        ++i;
      }
    }
    jobs.resize(std::min<std::size_t>(jobs.size(), std::size_t(n)));
    const auto inst =
        model::make_instance(Machine{param.m, param.alpha}, std::move(jobs));

    const auto pd = core::run_pd(inst);
    ASSERT_GT(pd.dual_lower_bound, 0.0) << "trial " << trial;
    EXPECT_LE(pd.certified_ratio, bound * (1.0 + 1e-6))
        << "trial " << trial << " alpha " << param.alpha << " m " << param.m;
    const auto validation = model::validate_schedule(pd.schedule, inst);
    EXPECT_TRUE(validation.ok)
        << "trial " << trial << ": " << validation.summary();
  }
}

INSTANTIATE_TEST_SUITE_P(
    HostileShapes, PdFuzz,
    ::testing::Values(FuzzParam{1.05, 1}, FuzzParam{1.05, 4},
                      FuzzParam{2.0, 1}, FuzzParam{2.0, 3},
                      FuzzParam{3.0, 2}, FuzzParam{3.0, 8},
                      FuzzParam{6.0, 1}, FuzzParam{6.0, 4}),
    [](const auto& info) {
      return "alpha" + std::to_string(int(info.param.alpha * 100)) + "_m" +
             std::to_string(info.param.m);
    });

// -------------------------------------------------- solver self-consistency

TEST(Fuzz, CoordinateDescentIsPermutationStable) {
  // The convex optimum is unique in objective value: solving with jobs in
  // different orders must land on the same energy.
  util::Rng rng(31337);
  for (int trial = 0; trial < 10; ++trial) {
    workload::UniformConfig config;
    config.num_jobs = 12;
    config.must_finish = true;
    const int m = int(rng.uniform_int(1, 3));
    const auto inst = workload::uniform_random(
        config, Machine{m, rng.uniform(1.5, 3.5)}, 9000 + trial);
    const auto partition = model::TimePartition::from_jobs(inst.jobs());
    std::vector<model::JobId> forward, backward;
    for (const Job& j : inst.jobs()) forward.push_back(j.id);
    backward.assign(forward.rbegin(), forward.rend());
    const double e1 =
        convex::minimize_energy(inst, partition, forward).objective;
    const double e2 =
        convex::minimize_energy(inst, partition, backward).objective;
    EXPECT_NEAR(e1, e2, 1e-6 * std::max(1.0, e1)) << "trial " << trial;
  }
}

}  // namespace
}  // namespace pss
