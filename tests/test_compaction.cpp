// Horizon compaction and checkpoint/restore (the flat-memory serving
// contract):
//   * compacted vs uncompacted twins commit bitwise-identical decisions
//     and energies;
//   * a checkpoint written mid-soak (with retired energy and recycled
//     handles in flight) restores into a fresh scheduler that replays the
//     remaining traffic bitwise identically — and re-serializes to the
//     identical bytes;
//   * steady-state serving with per-tick compaction holds O(live window)
//     structure while the uncompacted twin grows linearly;
//   * a million idle advances are structure-free: no boundary, no slab
//     growth, no cache churn;
//   * the monotonicity tolerance is relative, so day-scale timestamps
//     (t ~ 1e9) neither refuse legitimate jitter nor accept stale clocks.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <sstream>
#include <string>
#include <vector>

#include "core/pd_scheduler.hpp"
#include "io/state_io.hpp"
#include "model/job.hpp"
#include "util/math.hpp"
#include "util/random.hpp"

namespace pss {
namespace {

using core::ArrivalDecision;
using core::PdOptions;
using core::PdScheduler;
using model::Job;
using model::Machine;

const Machine kMachine{2, 2.5};

// Steady-state serving traffic: every tick carries a frontier job on the
// integer grid, plus occasional
// wide windows, off-grid releases (splits) and cheap jobs (rejections).
// Releases are nondecreasing, windows span a few ticks — after a short
// warm-up, arrivals and expiries balance.
std::vector<Job> steady_workload(int ticks, std::uint64_t seed) {
  util::Rng rng(seed);
  std::vector<Job> jobs;
  model::JobId id = 0;
  for (int t = 0; t < ticks; ++t) {
    const double tick = double(t);
    // Frontier accept: virgin unit window at the leading edge.
    jobs.push_back({id++, tick, tick + 1.0, rng.uniform(0.3, 1.2), util::kInf});
    if (rng.bernoulli(0.4)) {  // wide window, overlaps committed work
      const double span = double(rng.uniform_int(2, 6));
      jobs.push_back(
          {id++, tick, tick + span, rng.uniform(0.5, 2.0), rng.uniform(2.0, 9.0)});
    }
    if (rng.bernoulli(0.25)) {  // off-grid release: forces a split
      jobs.push_back({id++, tick + 0.3, tick + 2.3, rng.uniform(0.2, 1.0),
                      rng.uniform(1.0, 6.0)});
    }
    if (rng.bernoulli(0.2)) {  // low-value: exercises the rejection path
      jobs.push_back({id++, tick + 0.5, tick + 1.5, rng.uniform(1.0, 3.0),
                      rng.uniform(0.01, 0.1)});
    }
  }
  return jobs;
}

void expect_decision_eq(const ArrivalDecision& a, const ArrivalDecision& b,
                        const std::string& what) {
  ASSERT_EQ(a.accepted, b.accepted) << what;
  ASSERT_EQ(a.speed, b.speed) << what;
  ASSERT_EQ(a.lambda, b.lambda) << what;
  ASSERT_EQ(a.planned_energy, b.planned_energy) << what;
}

// Feeds `jobs` tick by tick into both schedulers, advancing the clock once
// per tick (`a` with compaction, `b` without), asserting bitwise-equal
// decisions throughout and bitwise-equal energies every `energy_every`.
void run_twins(PdScheduler& a, PdScheduler& b, const std::vector<Job>& jobs,
               int ticks, int energy_every) {
  std::size_t j = 0;
  for (int t = 0; t < ticks; ++t) {
    while (j < jobs.size() && jobs[j].release < double(t + 1)) {
      const ArrivalDecision da = a.on_arrival(jobs[j]);
      const ArrivalDecision db = b.on_arrival(jobs[j]);
      expect_decision_eq(da, db, "job " + std::to_string(jobs[j].id));
      if (::testing::Test::HasFatalFailure()) return;
      ++j;
    }
    a.advance_to(double(t + 1), /*compact=*/true);
    b.advance_to(double(t + 1), /*compact=*/false);
    if (t % energy_every == energy_every - 1) {
      ASSERT_EQ(a.planned_energy(), b.planned_energy()) << "tick " << t;
    }
  }
  ASSERT_EQ(a.planned_energy(), b.planned_energy());
}

// ------------------------------------------------- compaction differential

TEST(Compaction, DifferentialCubeCompactedVsUncompacted) {
  const int ticks = 120;
  const auto jobs = steady_workload(ticks, 2026);
  PdScheduler compacted(kMachine);
  PdScheduler plain(kMachine);
  run_twins(compacted, plain, jobs, ticks, 16);
  if (::testing::Test::HasFatalFailure()) return;
  // Compaction actually ran and the live window stayed small.
  EXPECT_GT(compacted.counters().compactions, 0);
  EXPECT_GT(compacted.counters().compacted_intervals, 0);
  EXPECT_LT(compacted.live_intervals(), plain.live_intervals());
  EXPECT_GT(compacted.retired_energy(), 0.0);
}

TEST(Compaction, FullRetirementPreservesEnergyBitwise) {
  const int ticks = 60;
  const auto jobs = steady_workload(ticks, 7);
  PdScheduler compacted(kMachine, {});
  PdScheduler plain(kMachine, {});
  run_twins(compacted, plain, jobs, ticks, 1000);
  if (::testing::Test::HasFatalFailure()) return;
  // Jump the clock far past every deadline: everything retires.
  compacted.advance_to(1e6, /*compact=*/true);
  plain.advance_to(1e6);
  EXPECT_EQ(compacted.live_intervals(), 0u);
  EXPECT_GT(compacted.retired_energy(), 0.0);
  EXPECT_EQ(compacted.planned_energy(), plain.planned_energy());
  // The lone surviving boundary keeps future refinement anchored: traffic
  // after the gap behaves identically on both.
  const Job late{100000, 1e6, 1e6 + 4.0, 1.0, 5.0};
  expect_decision_eq(compacted.on_arrival(late), plain.on_arrival(late),
                     "post-gap arrival");
  EXPECT_EQ(compacted.planned_energy(), plain.planned_energy());
}

TEST(Compaction, ResetAfterCompactionBehavesLikeFresh) {
  const int ticks = 40;
  const auto jobs = steady_workload(ticks, 99);
  PdScheduler recycled(kMachine, {});
  {
    PdScheduler throwaway(kMachine, {});
    run_twins(recycled, throwaway, jobs, ticks, 1000);
    if (::testing::Test::HasFatalFailure()) return;
  }
  EXPECT_GT(recycled.counters().compactions, 0);
  recycled.reset();
  EXPECT_EQ(recycled.retired_energy(), 0.0);
  EXPECT_EQ(recycled.handle_space(), 0u);
  EXPECT_EQ(recycled.planned_energy(), 0.0);
  // A reset scheduler is indistinguishable from a new one — including its
  // compaction machinery (the second run compacts again from scratch).
  const auto second = steady_workload(ticks, 100);
  PdScheduler fresh(kMachine, {});
  run_twins(recycled, fresh, second, ticks, 8);
}

TEST(Compaction, SteadyStateStructureStaysFlat) {
  PdOptions o;
  o.record_decisions = false;  // the soak posture: nothing may grow
  const int ticks = 4000;
  const auto jobs = steady_workload(ticks, 5);
  PdScheduler compacted(kMachine, o);
  PdScheduler plain(kMachine, o);
  std::size_t j = 0;
  std::size_t peak_handles = 0;
  for (int t = 0; t < ticks; ++t) {
    while (j < jobs.size() && jobs[j].release < double(t + 1)) {
      (void)compacted.on_arrival(jobs[j]);
      (void)plain.on_arrival(jobs[j]);
      ++j;
    }
    compacted.advance_to(double(t + 1), /*compact=*/true);
    plain.advance_to(double(t + 1));
    peak_handles = std::max(peak_handles, compacted.handle_space());
  }
  // Windows span <= ~6 ticks with <= ~3 boundaries each: the live window
  // is a few dozen intervals, and recycled handles keep the slab there.
  EXPECT_LE(compacted.live_intervals(), 64u);
  EXPECT_LE(peak_handles, 256u);
  // The uncompacted twin keeps every interval it ever created.
  EXPECT_GT(plain.handle_space(), 4000u);
  EXPECT_EQ(compacted.planned_energy(), plain.planned_energy());
}

TEST(Compaction, MillionIdleAdvancesAreStructureFree) {
  PdScheduler pd(kMachine, {});
  const auto jobs = steady_workload(8, 3);
  for (const Job& job : jobs) (void)pd.on_arrival(job);
  // First compacting advance retires the whole prefix...
  pd.advance_to(100.0, /*compact=*/true);
  const std::size_t intervals = pd.live_intervals();
  const std::size_t handles = pd.handle_space();
  const long long compactions = pd.counters().compactions;
  const std::size_t boundaries = pd.partition().boundaries().size();
  // ...and a million heartbeat ticks after it change nothing at all.
  for (int i = 1; i <= 1'000'000; ++i)
    pd.advance_to(100.0 + double(i) * 1e-3, /*compact=*/true);
  EXPECT_EQ(pd.live_intervals(), intervals);
  EXPECT_EQ(pd.handle_space(), handles);
  EXPECT_EQ(pd.counters().compactions, compactions);
  EXPECT_EQ(pd.partition().boundaries().size(), boundaries);
}

TEST(Compaction, IdleAdvancesNeverTouchLiveStructure) {
  // Heartbeats inside a live window — ahead of its start, short of its
  // end — must neither split nor retire anything (regression for the
  // per-tick ensure_boundary that grew the partition without arrivals).
  PdScheduler pd(kMachine, {});
  (void)pd.on_arrival({0, 50.0, 60.0, 1.0, util::kInf});
  const std::size_t boundaries = pd.partition().boundaries().size();
  for (int i = 0; i < 100000; ++i)
    pd.advance_to(50.0 + double(i) * 4e-5, /*compact=*/true);
  EXPECT_EQ(pd.partition().boundaries().size(), boundaries);
  EXPECT_EQ(pd.counters().compactions, 0);
  EXPECT_EQ(pd.counters().interval_splits, 0);
}

// ----------------------------------------------------- relative tolerance

TEST(ClockTolerance, RelativeAtLargeTimestamps) {
  // Day-scale clocks: at t ~ 1e9 an absolute 1e-12 epsilon would refuse
  // every reconverted timestamp (1 ulp of 1e9 is ~1.2e-7). The tolerance
  // is relative: jitter within ~1e-3 passes, a genuinely stale clock does
  // not.
  PdScheduler pd(kMachine, {});
  pd.advance_to(1e9, /*compact=*/true);
  EXPECT_NO_THROW(
      (void)pd.on_arrival({0, 1e9 - 1e-4, 1e9 + 8.0, 1.0, util::kInf}));
  EXPECT_THROW(
      (void)pd.on_arrival({1, 1e9 - 1.0, 1e9 + 8.0, 1.0, util::kInf}),
      std::invalid_argument);
  EXPECT_THROW(pd.advance_to(1e9 - 1.0), std::invalid_argument);
  EXPECT_NO_THROW(pd.advance_to(1e9 - 1e-4));
  EXPECT_THROW(pd.advance_to(std::nan("")), std::invalid_argument);
  // And decisions around the huge clock still match an uncompacted twin.
  PdScheduler plain(kMachine, {});
  plain.advance_to(1e9);
  const Job probe{2, 1e9, 1e9 + 4.0, 1.5, 6.0};
  expect_decision_eq(pd.on_arrival(probe), plain.on_arrival(probe), "probe");
}

// ------------------------------------------------------ checkpoint/restore

std::string serialize(const PdScheduler& s) {
  std::ostringstream os(std::ios::binary);
  io::save_scheduler(os, s);
  return os.str();
}

TEST(Checkpoint, RoundTripAcrossCubeMidSoak) {
  const int ticks = 96;
  const int cut = 48;  // checkpoint mid-stream, state in full flight
  const auto jobs = steady_workload(ticks, 31);
  PdScheduler live(kMachine);
  std::size_t j = 0;
  for (int t = 0; t < cut; ++t) {
    while (j < jobs.size() && jobs[j].release < double(t + 1))
      (void)live.on_arrival(jobs[j++]);
    live.advance_to(double(t + 1), /*compact=*/true);
  }

  const std::string blob = serialize(live);
  // Identical state serializes to identical bytes...
  ASSERT_EQ(serialize(live), blob);
  PdScheduler restored(kMachine);
  std::istringstream is(blob, std::ios::binary);
  io::load_scheduler(is, restored);
  // ...and so does the restored image.
  ASSERT_EQ(serialize(restored), blob);

  // The restored session replays the rest of the soak bitwise.
  for (int t = cut; t < ticks; ++t) {
    while (j < jobs.size() && jobs[j].release < double(t + 1)) {
      const ArrivalDecision da = live.on_arrival(jobs[j]);
      const ArrivalDecision db = restored.on_arrival(jobs[j]);
      expect_decision_eq(da, db, "job " + std::to_string(jobs[j].id));
      if (::testing::Test::HasFatalFailure()) return;
      ++j;
    }
    live.advance_to(double(t + 1), /*compact=*/true);
    restored.advance_to(double(t + 1), /*compact=*/true);
  }
  ASSERT_EQ(live.planned_energy(), restored.planned_energy());
  ASSERT_EQ(live.retired_energy(), restored.retired_energy());
  ASSERT_EQ(live.decisions().size(), restored.decisions().size());
  for (std::size_t i = 0; i < live.decisions().size(); ++i) {
    ASSERT_EQ(live.decisions()[i].first, restored.decisions()[i].first);
    expect_decision_eq(live.decisions()[i].second,
                       restored.decisions()[i].second,
                       "decision log " + std::to_string(i));
  }
}

TEST(Checkpoint, RejectsMismatchedConfigurationAndGarbage) {
  PdScheduler source(kMachine, {});
  (void)source.on_arrival({0, 0.0, 4.0, 1.0, 5.0});
  const std::string blob = serialize(source);

  PdScheduler wrong_machine(Machine{4, 2.5}, {});
  std::istringstream is1(blob, std::ios::binary);
  EXPECT_THROW(io::load_scheduler(is1, wrong_machine), std::invalid_argument);

  PdOptions no_log;
  no_log.record_decisions = false;
  PdScheduler wrong_mode(kMachine, no_log);
  std::istringstream is2(blob, std::ios::binary);
  EXPECT_THROW(io::load_scheduler(is2, wrong_mode), std::invalid_argument);

  PdScheduler truncated_target(kMachine, {});
  std::istringstream is3(blob.substr(0, blob.size() / 2), std::ios::binary);
  EXPECT_THROW(io::load_scheduler(is3, truncated_target),
               std::invalid_argument);
}

TEST(Checkpoint, FreshSchedulerRoundTrips) {
  PdScheduler a(kMachine, {});
  const std::string blob = serialize(a);
  PdScheduler b(kMachine, {});
  std::istringstream is(blob, std::ios::binary);
  io::load_scheduler(is, b);
  ASSERT_EQ(serialize(b), blob);
  const Job job{0, 1.0, 5.0, 1.0, util::kInf};
  expect_decision_eq(a.on_arrival(job), b.on_arrival(job), "first arrival");
}

}  // namespace
}  // namespace pss
