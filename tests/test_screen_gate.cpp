// The windowed screen's width gate (core::kMinScreenWidth): PdScheduler
// queries the segment tree only for windows of at least kMinScreenWidth
// intervals. These tests pin the gate from both sides:
//   * streams whose windows straddle the threshold (width - 1, width,
//     width + 1), mixed with wide anchors, stay bitwise identical to the
//     windowed=false engine in every decision, in planned_energy() and
//     across a checkpoint round trip — and every arrival is counted by the
//     screen counters exactly when its window reaches the gate;
//   * a stream whose windows all stay below the gate never queries the
//     tree and never builds a node of it.
#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include "core/pd_scheduler.hpp"
#include "io/state_io.hpp"
#include "model/job.hpp"
#include "model/time_partition.hpp"
#include "util/math.hpp"
#include "util/random.hpp"
#include "workload/generators.hpp"

namespace pss {
namespace {

using core::ArrivalDecision;
using core::kMinScreenWidth;
using core::PdOptions;
using core::PdScheduler;
using model::Job;
using model::Machine;

const Machine kMachine{3, 2.5};

PdOptions linear_options() {
  PdOptions o;
  o.windowed = false;
  return o;
}

std::string serialize(const PdScheduler& s) {
  std::ostringstream os(std::ios::binary);
  io::save_scheduler(os, s);
  return os.str();
}

void expect_decision_eq(const ArrivalDecision& a, const ArrivalDecision& b,
                        const std::string& where) {
  ASSERT_EQ(a.accepted, b.accepted) << where;
  ASSERT_EQ(a.speed, b.speed) << where;
  ASSERT_EQ(a.lambda, b.lambda) << where;
  ASSERT_EQ(a.planned_energy, b.planned_energy) << where;
}

Job make_job(model::JobId id, double release, double deadline, double work,
             double value_factor) {
  Job job{id, release, deadline, work, 0.0};
  job.value = workload::energy_fair_value(job, kMachine.alpha) * value_factor;
  return job;
}

// A unit grid [0, horizon) laid down at release 0 by nested deadlines, then
// one arrival per integer tick whose window spans exactly gate - 1, gate or
// gate + 1 unit intervals, every 16th tick a wide anchor (>= 1k intervals)
// instead. Value factors range from hopeless (a certified reject once the
// screen runs) to generous, so prunes, exact rejects and accepts all occur.
std::vector<Job> straddling_stream(std::uint64_t seed) {
  util::Rng rng(seed);
  const int ticks = 240;
  const int horizon = ticks + 1200;
  std::vector<Job> jobs;
  model::JobId id = 0;
  for (int k = 1; k <= horizon; ++k)
    jobs.push_back(make_job(id++, 0.0, double(k), rng.uniform(0.05, 0.3),
                            rng.uniform(0.5, 4.0)));
  for (int t = 1; t <= ticks; ++t) {
    const int width = t % 16 == 0
                          ? int(rng.uniform_int(1000, 1100))
                          : int(kMinScreenWidth) - 1 +
                                int(rng.uniform_int(0, 2));
    const double factor = rng.bernoulli(0.3) ? 1e-6 : rng.uniform(0.2, 6.0);
    jobs.push_back(make_job(id++, double(t), double(t + width),
                            rng.uniform(0.5, 8.0), factor));
  }
  return jobs;
}

TEST(ScreenGate, StraddlingWidthsStayBitwiseIdenticalToLinear) {
  for (const std::uint64_t seed : {11ull, 29ull, 4242ull}) {
    const std::vector<Job> jobs = straddling_stream(seed);
    const std::size_t cut = jobs.size() - 90;  // checkpoint point
    PdScheduler windowed(kMachine, {});
    PdScheduler linear(kMachine, linear_options());
    ASSERT_TRUE(windowed.windowed());
    ASSERT_FALSE(linear.windowed());
    std::unique_ptr<PdScheduler> restored;
    // The partition every arrival sees, mirrored to recover its width.
    model::TimePartition mirror;
    long long screened = 0;
    std::size_t seen[3] = {0, 0, 0};  // gate - 1, gate, gate + 1
    for (std::size_t i = 0; i < jobs.size(); ++i) {
      const Job& job = jobs[i];
      const std::string where =
          "seed " + std::to_string(seed) + " op " + std::to_string(i);
      if (i == cut) {
        const std::string blob = serialize(windowed);
        restored = std::make_unique<PdScheduler>(kMachine, PdOptions{});
        std::istringstream is(blob, std::ios::binary);
        io::load_scheduler(is, *restored);
        ASSERT_EQ(serialize(*restored), blob) << where;
      }
      mirror.insert_boundary(job.release);
      mirror.insert_boundary(job.deadline);
      const std::size_t width = mirror.job_range(job).size();
      if (width + 1 >= kMinScreenWidth && width <= kMinScreenWidth + 1)
        ++seen[width + 1 - kMinScreenWidth];

      const core::PdCounters before = windowed.counters();
      const ArrivalDecision d_lin = linear.on_arrival(job);
      expect_decision_eq(windowed.on_arrival(job), d_lin, where);
      if (restored) expect_decision_eq(restored->on_arrival(job), d_lin, where);
      if (::testing::Test::HasFatalFailure()) return;

      // Counter semantics: a gated arrival counts in neither screen
      // counter, a screened one in exactly one of them.
      const core::PdCounters& after = windowed.counters();
      const long long delta = (after.window_prunes + after.window_exact) -
                              (before.window_prunes + before.window_exact);
      ASSERT_EQ(delta, width >= kMinScreenWidth ? 1 : 0)
          << where << " width " << width;
      screened += delta;
    }
    EXPECT_GT(seen[0], 0u) << "seed " << seed;
    EXPECT_GT(seen[1], 0u) << "seed " << seed;
    EXPECT_GT(seen[2], 0u) << "seed " << seed;
    EXPECT_GT(windowed.counters().window_prunes, 0) << "seed " << seed;
    EXPECT_EQ(windowed.counters().window_prunes +
                  windowed.counters().window_exact,
              screened);
    EXPECT_EQ(linear.counters().window_prunes, 0);
    EXPECT_EQ(linear.counters().window_exact, 0);
    EXPECT_GT(windowed.segment_tree().stats().queries, 0);
    ASSERT_EQ(windowed.planned_energy(), linear.planned_energy());
    ASSERT_EQ(restored->planned_energy(), linear.planned_energy());
  }
}

// Only windows below the gate: the screen is never queried, so the tree
// never absorbs a handle — through commits, splits and compaction alike.
TEST(ScreenGate, NarrowWindowsNeverBuildTheTree) {
  util::Rng rng(777);
  PdScheduler windowed(kMachine, {});
  PdScheduler linear(kMachine, linear_options());
  std::size_t widest = 0;
  model::JobId id = 0;
  for (int t = 0; t < 400; ++t) {
    for (int k = 0; k < 6; ++k) {
      // Half-tick deadlines split the unit grid, but a window spanning s
      // half ticks still holds at most s intervals — below the gate here.
      const double span =
          0.5 * double(rng.uniform_int(1, int(kMinScreenWidth) - 4));
      const double factor = rng.bernoulli(0.3) ? 1e-6 : rng.uniform(0.2, 6.0);
      const Job job =
          make_job(id++, double(t), double(t) + span, rng.uniform(0.3, 4.0),
                   factor);
      expect_decision_eq(windowed.on_arrival(job), linear.on_arrival(job),
                         "op " + std::to_string(id));
      if (::testing::Test::HasFatalFailure()) return;
    }
    widest = std::max(widest, windowed.counters().max_window);
    windowed.advance_to(double(t) + 1.0, /*compact=*/true);
    linear.advance_to(double(t) + 1.0, /*compact=*/true);
  }
  ASSERT_LT(widest, kMinScreenWidth);
  EXPECT_GT(windowed.counters().compactions, 0);
  EXPECT_EQ(windowed.segment_tree().stats().queries, 0);
  EXPECT_EQ(windowed.segment_tree().live_size(), 0u);
  EXPECT_EQ(windowed.counters().window_prunes, 0);
  EXPECT_EQ(windowed.counters().window_exact, 0);
  ASSERT_EQ(windowed.planned_energy(), linear.planned_energy());
}

}  // namespace
}  // namespace pss
