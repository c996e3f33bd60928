// Property coverage for the production engine's cache-invalidation
// triggers, each held bitwise to core::ReferencePd — the paths
// tests/test_fuzz.cpp does not reach:
//   * interior interval splits mid-stream (a later arrival's boundary lands
//     inside an interval that already carries committed load),
//   * horizon extension to the right (t > hi appends intervals),
//   * the prepend path (t < lo in ensure_boundary, reachable through the
//     1e-12 release-order tolerance and by driving OnlineState directly).
// Plus direct unit tests of CurveCache epoch/handle validation and of its
// one-walk gather (curves zero at the cap skipped, bitwise), of in-place
// curve rebuilds, of LazyLinearSum against the materialized sum, and of the
// water fill's certified cap test and its late view.
#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <cstdint>
#include <vector>

#include "chen/insertion_curve.hpp"
#include "convex/water_fill.hpp"
#include "core/curve_cache.hpp"
#include "core/online_state.hpp"
#include "core/pd_scheduler.hpp"
#include "core/reference_pd.hpp"
#include "model/instance.hpp"
#include "model/interval_store.hpp"
#include "model/time_partition.hpp"
#include "util/math.hpp"
#include "util/pairwise_sum.hpp"
#include "util/piecewise_linear.hpp"
#include "util/random.hpp"

namespace pss {
namespace {

using core::CurveCache;
using core::OnlineState;
using core::PdScheduler;
using core::ReferencePd;
using model::IntervalStore;
using model::Job;
using model::Machine;

// Positions are a test-side notion: the store addresses intervals by
// handle only, so the k-th interval is found by walking the chain.
IntervalStore::Handle handle_at(const IntervalStore& store, std::size_t pos) {
  IntervalStore::Handle h = store.front_handle();
  for (; pos > 0; --pos) h = store.next_handle(h);
  return h;
}

// The id of an arriving job that holds no load anywhere in these tests.
constexpr model::JobId kNewJob = 99;

Job make_job(model::JobId id, double release, double deadline, double work,
             double value) {
  Job job;
  job.id = id;
  job.release = release;
  job.deadline = deadline;
  job.work = work;
  job.value = value;
  return job;
}

void expect_lockstep_identical(const std::vector<Job>& jobs, Machine machine,
                               long long* splits = nullptr,
                               long long* extensions = nullptr) {
  ReferencePd reference(machine);
  PdScheduler cached(machine);
  for (const Job& job : jobs) {
    const auto a = reference.on_arrival(job);
    const auto b = cached.on_arrival(job);
    ASSERT_EQ(a.accepted, b.accepted) << job.to_string();
    ASSERT_EQ(a.speed, b.speed) << job.to_string();
    ASSERT_EQ(a.lambda, b.lambda) << job.to_string();
  }
  ASSERT_EQ(reference.planned_energy(), cached.planned_energy());
  if (splits) *splits = cached.counters().interval_splits;
  if (extensions) *extensions = cached.counters().horizon_extensions;
}

// ------------------------------------------------ interior splits mid-stream

// Jobs whose windows nest strictly inside earlier (loaded) intervals, so
// every later arrival splits an interval that carries committed work and
// the cache must discard both halves.
TEST(CacheInvalidation, InteriorSplitsMidStreamFuzz) {
  util::Rng rng(2024);
  for (int trial = 0; trial < 40; ++trial) {
    const double alpha = rng.uniform(1.2, 3.5);
    const int m = int(rng.uniform_int(1, 6));
    std::vector<Job> jobs;
    // One wide loaded umbrella, then arrivals with irrational-ish interior
    // boundaries that never coincide with existing ones.
    jobs.push_back(make_job(0, 0.0, 64.0, rng.uniform(4.0, 12.0),
                            util::kInf));
    double t = 0.0;
    for (int i = 1; i < 18; ++i) {
      t += rng.uniform(0.2, 2.8);
      const double span = rng.uniform(0.3, 7.0);
      jobs.push_back(make_job(i, t, std::min(t + span, 63.9),
                              rng.uniform(0.2, 4.0),
                              std::pow(10.0, rng.uniform(-1.0, 2.0))));
    }
    long long splits = 0;
    expect_lockstep_identical(jobs, Machine{m, alpha}, &splits);
    if (::testing::Test::HasFatalFailure()) return;
    EXPECT_GT(splits, 0) << "trial " << trial
                         << " never exercised the split path";
  }
}

// --------------------------------------------- horizon extension to the right

TEST(CacheInvalidation, HorizonExtensionFuzz) {
  util::Rng rng(77);
  for (int trial = 0; trial < 40; ++trial) {
    const double alpha = rng.uniform(1.2, 3.5);
    const int m = int(rng.uniform_int(1, 6));
    std::vector<Job> jobs;
    double t = 0.0;
    double horizon = 0.0;
    for (int i = 0; i < 20; ++i) {
      t += rng.uniform(0.1, 1.5);
      // Deadline always beyond the current horizon: every arrival appends.
      const double deadline = std::max(t, horizon) + rng.uniform(0.5, 4.0);
      horizon = deadline;
      jobs.push_back(make_job(i, t, deadline, rng.uniform(0.3, 3.0),
                              std::pow(10.0, rng.uniform(-1.0, 2.0))));
    }
    long long extensions = 0;
    expect_lockstep_identical(jobs, Machine{m, alpha}, nullptr, &extensions);
    if (::testing::Test::HasFatalFailure()) return;
    EXPECT_GT(extensions, 0) << "trial " << trial;
  }
}

// ----------------------------------------------------------- prepend (t < lo)

// The release-order guard admits releases up to 1e-12 before the previous
// one, so a second arrival can introduce a boundary strictly left of the
// horizon start — the prepend rebuild path, previously untested.
TEST(CacheInvalidation, PrependThroughReleaseTolerance) {
  const double r0 = 1.0;
  const double r1 = r0 - 0.5e-12;  // within tolerance, strictly < lo
  ASSERT_LT(r1, r0);
  const std::vector<Job> jobs = {
      make_job(0, r0, 2.0, 1.0, util::kInf),
      make_job(1, r1, 1.5, 0.7, 5.0),
  };
  ReferencePd reference(Machine{2, 2.0});
  PdScheduler cached(Machine{2, 2.0});
  for (const Job& job : jobs) {
    const auto a = reference.on_arrival(job);
    const auto b = cached.on_arrival(job);
    ASSERT_EQ(a.accepted, b.accepted);
    ASSERT_EQ(a.speed, b.speed);
    ASSERT_EQ(a.lambda, b.lambda);
  }
  EXPECT_EQ(cached.counters().horizon_extensions, 1);
  EXPECT_EQ(cached.partition().boundaries().front(), r1);
  ASSERT_EQ(reference.planned_energy(), cached.planned_energy());
  // Job 0's committed work survived the index shift.
  EXPECT_NEAR(cached.assignment().total_of(0), 1.0, 1e-9);
}

// Driving OnlineState directly: a prepend must shift positions (and the
// loads with them) while every previously built handle-keyed curve stays
// valid.
TEST(CacheInvalidation, OnlineStatePrependKeepsCacheAligned) {
  OnlineState state;
  CurveCache cache;
  state.ensure_boundary(1.0);
  state.ensure_boundary(2.0);
  state.ensure_boundary(3.0);
  ASSERT_EQ(state.num_intervals(), 2u);
  state.store.set_load(handle_at(state.store, 0), 7, 1.5);
  state.store.set_load(handle_at(state.store, 1), 8, 0.5);

  const auto before =
      cache
          .curves_for(state.store, 2, state.store.span(1.0, 3.0), kNewJob,
                      util::kInf)
          .curves;
  const std::vector<util::PiecewiseLinear::Knot> knots0 = before[0]->knots();
  ASSERT_EQ(cache.stats().rebuilds, 2);

  state.ensure_boundary(0.5);  // t < lo: prepend
  ASSERT_EQ(state.num_intervals(), 3u);
  EXPECT_EQ(state.horizon_extensions, 2);  // the append at t=3, this prepend
  // Shifted with its interval.
  EXPECT_EQ(state.store.load_of(handle_at(state.store, 1), 7), 1.5);

  const auto after =
      cache
          .curves_for(state.store, 2, state.store.span(0.5, 3.0), kNewJob,
                      util::kInf)
          .curves;
  // Only the new leading interval needed a build; the shifted entries hit.
  EXPECT_EQ(cache.stats().rebuilds, 3);
  EXPECT_EQ(cache.stats().hits, 2);
  ASSERT_EQ(after[1]->knots().size(), knots0.size());
  for (std::size_t i = 0; i < knots0.size(); ++i) {
    EXPECT_EQ(after[1]->knots()[i].x, knots0[i].x);
    EXPECT_EQ(after[1]->knots()[i].y, knots0[i].y);
  }
}

// ------------------------------------------------------- CurveCache mechanics

IntervalStore make_store(const std::vector<double>& boundaries) {
  IntervalStore store;
  for (const double t : boundaries) (void)store.ensure_boundary(t);
  return store;
}

TEST(CurveCache, EpochInvalidationOnSetLoad) {
  IntervalStore store = make_store({0.0, 1.0, 2.5, 3.0});
  store.set_load(handle_at(store, 0), 1, 2.0);
  store.set_load(handle_at(store, 1), 2, 1.0);

  CurveCache cache;
  const IntervalStore::Span window = store.span(0.0, 3.0);
  (void)cache.curves_for(store, 2, window, kNewJob, util::kInf);
  EXPECT_EQ(cache.stats().rebuilds, 3);
  EXPECT_EQ(cache.stats().hits, 0);

  (void)cache.curves_for(store, 2, window, kNewJob, util::kInf);
  EXPECT_EQ(cache.stats().rebuilds, 3);
  EXPECT_EQ(cache.stats().hits, 3);

  store.set_load(handle_at(store, 1), 3, 0.25);  // dirties interval 1 only
  const auto curves =
      cache.curves_for(store, 2, window, kNewJob, util::kInf).curves;
  EXPECT_EQ(cache.stats().rebuilds, 4);
  EXPECT_EQ(cache.stats().hits, 5);

  // The rebuilt curve matches a from-scratch build exactly.
  const IntervalStore::Handle h1 = handle_at(store, 1);
  const auto fresh =
      chen::insertion_curve(store.loads(h1), -1, 2, store.length_of(h1));
  ASSERT_EQ(curves[1]->knots().size(), fresh.knots().size());
  for (std::size_t i = 0; i < fresh.knots().size(); ++i) {
    EXPECT_EQ(curves[1]->knots()[i].x, fresh.knots()[i].x);
    EXPECT_EQ(curves[1]->knots()[i].y, fresh.knots()[i].y);
  }
}

TEST(CurveCache, SplitInvalidatesBothHalves) {
  IntervalStore store = make_store({0.0, 2.0, 4.0});
  store.set_load(handle_at(store, 0), 1, 3.0);
  store.set_load(handle_at(store, 1), 2, 1.0);

  CurveCache cache;
  (void)cache.curves_for(store, 1, store.span(0.0, 4.0), kNewJob,
                         util::kInf);
  ASSERT_EQ(cache.stats().rebuilds, 2);

  // Split interval 0 at half its length; both halves must rebuild, the
  // shifted old interval 1 must not.
  ASSERT_EQ(store.ensure_boundary(1.0), IntervalStore::Refinement::kSplit);
  (void)cache.curves_for(store, 1, store.span(0.0, 4.0), kNewJob,
                         util::kInf);
  EXPECT_EQ(cache.stats().rebuilds, 4);
  EXPECT_EQ(cache.stats().hits, 1);
}

TEST(CurveCache, RefusesAJobThatAlreadyHoldsLoad) {
  IntervalStore store = make_store({0.0, 2.0, 3.0});
  store.set_load(handle_at(store, 1), 5, 1.0);
  store.set_load(handle_at(store, 1), 6, 4.0);

  CurveCache cache;
  // PD never re-places a job: an arrival whose id already holds load in
  // its window is a repeated id, refused before any curve is handed out.
  EXPECT_THROW(
      (void)cache.curves_for(store, 2, store.span(0.0, 3.0), 5, util::kInf),
      std::invalid_argument);
  // A window that misses the earlier job's load is fine, and the refusal
  // left the cache serving all-loads curves.
  EXPECT_EQ(
      cache.curves_for(store, 2, store.span(0.0, 2.0), 5, util::kInf)
          .curves.size(),
      1u);
  const auto all =
      cache.curves_for(store, 2, store.span(0.0, 3.0), kNewJob, util::kInf)
          .curves;
  const auto expected_all = chen::insertion_curve({1.0, 4.0}, 2, 1.0);
  EXPECT_EQ(all[1]->eval(1.0), expected_all.eval(1.0));
  EXPECT_EQ(all[1]->eval(3.0), expected_all.eval(3.0));
}

// One walk hands the water fill its cap test's input: the curves and the
// sum of their values at a finite cap (0 at an infinite one).
TEST(CurveCache, GathersTheValuesAtTheCap) {
  IntervalStore store = make_store({0.0, 1.0, 2.5, 3.0});
  store.set_load(handle_at(store, 0), 1, 2.0);
  store.set_load(handle_at(store, 1), 2, 1.0);
  store.set_load(handle_at(store, 1), 3, 4.0);
  CurveCache cache;
  const IntervalStore::Span window = store.span(0.0, 3.0);
  for (const double cap : {0.0, 0.25, 1.5, 40.0}) {
    const auto gathered = cache.curves_for(store, 2, window, kNewJob, cap);
    ASSERT_EQ(gathered.curves.size(), 3u);
    EXPECT_EQ(gathered.cap, cap);
    util::CompensatedSum sum;
    for (const util::PiecewiseLinear* curve : gathered.curves)
      sum.add(curve->eval(cap));
    EXPECT_EQ(gathered.sum_at_cap, sum.value());
  }
  const auto uncapped = cache.curves_for(store, 2, window, kNewJob, util::kInf);
  EXPECT_EQ(uncapped.curves.size(), 3u);
  EXPECT_EQ(uncapped.sum_at_cap, 0.0);
  // Every cached curve starts at speed 0, so the walk checks the cap's
  // domain once, for curves it skips as well as those it evaluates.
  EXPECT_THROW((void)cache.curves_for(store, 2, window, kNewJob, -1e-6),
               std::invalid_argument);
}

// The walk skips every curve still zero at the cap (util::PiecewiseLinear::
// zero_until) without evaluating it. On windows that mix such curves with
// curves that are positive at the cap, S must still be bitwise the
// compensated sum over every curve's eval(cap), in window order.
TEST(CurveCache, SkippingCurvesZeroAtTheCapKeepsTheSumBitwise) {
  util::Rng rng(2468);
  int skipped = 0;
  int evaluated = 0;
  for (int trial = 0; trial < 300; ++trial) {
    const int m = int(rng.uniform_int(1, 4));
    const std::size_t num_intervals = std::size_t(rng.uniform_int(1, 30));
    std::vector<double> bounds{0.0};
    for (std::size_t k = 0; k < num_intervals; ++k)
      bounds.push_back(bounds.back() + rng.uniform(0.1, 2.0));
    IntervalStore store = make_store(bounds);
    for (std::size_t k = 0; k < num_intervals; ++k) {
      // Heavy intervals keep their curve at zero up to a high pool speed.
      const double scale = rng.bernoulli(0.5) ? 20.0 : 1.0;
      for (int j = 0; j < 2 * m; ++j)
        if (rng.bernoulli(0.7))
          store.set_load(handle_at(store, k), 100 + j,
                         scale * rng.uniform(0.05, 2.0));
    }
    CurveCache cache;
    const IntervalStore::Span span = store.span(bounds.front(), bounds.back());
    for (int probe = 0; probe < 4; ++probe) {
      const double cap =
          probe == 0 ? 0.0 : std::pow(10.0, rng.uniform(-2.0, 1.5));
      const auto gathered = cache.curves_for(store, m, span, kNewJob, cap);
      util::CompensatedSum sum;
      for (const util::PiecewiseLinear* curve : gathered.curves) {
        sum.add(curve->eval(cap));
        (cap <= curve->zero_until() ? skipped : evaluated) += 1;
      }
      EXPECT_EQ(std::bit_cast<std::uint64_t>(gathered.sum_at_cap),
                std::bit_cast<std::uint64_t>(sum.value()))
          << "trial " << trial << " cap " << cap;
    }
  }
  EXPECT_GT(skipped, 1000);
  EXPECT_GT(evaluated, 1000);
}

// An entry validates on (epoch, length), and an unbuilt entry holds length
// 0.0, which no interval has. So an entry is never served before its first
// build: not for a fresh handle at epoch 0, where only the length tells the
// unbuilt entry from a built one, nor for the handles a compaction freed
// once they are recycled (through a split or an append); the compaction's
// survivors keep hitting.
TEST(CurveCache, UnbuiltEntryNeverValidates) {
  IntervalStore store = make_store({0.0, 1.0});
  const IntervalStore::Handle fresh = store.front_handle();
  ASSERT_EQ(store.epoch(fresh), 0u);
  CurveCache cache;
  const auto first =
      cache.curves_for(store, 2, store.span(0.0, 1.0), kNewJob, 0.5);
  EXPECT_EQ(cache.stats().rebuilds, 1);
  EXPECT_EQ(cache.stats().hits, 0);
  ASSERT_EQ(first.curves.size(), 1u);
  EXPECT_FALSE(first.curves[0]->empty());
  (void)cache.curves_for(store, 2, store.span(0.0, 1.0), kNewJob, 0.5);
  EXPECT_EQ(cache.stats().hits, 1);

  // Grow to four loaded intervals and cache them all.
  for (const double t : {2.0, 3.0, 4.0}) (void)store.ensure_boundary(t);
  for (std::size_t k = 0; k < 4; ++k)
    store.set_load(handle_at(store, k), int(k), 1.0 + double(k));
  (void)cache.curves_for(store, 2, store.span(0.0, 4.0), kNewJob, 0.5);
  ASSERT_EQ(cache.stats().rebuilds, 5);

  // Compact the first two away; the cache releases their entries.
  std::vector<IntervalStore::Handle> freed;
  ASSERT_EQ(store.compact_before(2.0, freed), 2u);
  cache.on_compacted(freed);
  // The survivors still hit.
  const long long hits = cache.stats().hits;
  (void)cache.curves_for(store, 2, store.span(2.0, 4.0), kNewJob, 0.5);
  EXPECT_EQ(cache.stats().rebuilds, 5);
  EXPECT_EQ(cache.stats().hits, hits + 2);

  // Recycle both freed handles: one as the right half of a split, one by
  // an append. Each is built on first use, and matches a cold build.
  ASSERT_EQ(store.ensure_boundary(2.5), IntervalStore::Refinement::kSplit);
  ASSERT_EQ(store.ensure_boundary(5.0), IntervalStore::Refinement::kAppend);
  int recycled = 0;
  for (IntervalStore::Handle h = store.front_handle();
       h != IntervalStore::kNoHandle; h = store.next_handle(h))
    for (const IntervalStore::Handle f : freed) recycled += h == f;
  ASSERT_EQ(recycled, 2);
  const auto after =
      cache.curves_for(store, 2, store.span(2.0, 5.0), kNewJob, 0.5);
  // Both split halves, the append, and none of the untouched interval.
  EXPECT_EQ(cache.stats().rebuilds, 5 + 3);
  std::size_t i = 0;
  for (IntervalStore::Handle h = store.front_handle();
       h != IntervalStore::kNoHandle; h = store.next_handle(h), ++i) {
    SCOPED_TRACE(testing::Message() << "interval " << i);
    const auto cold =
        chen::insertion_curve(store.loads(h), -1, 2, store.length_of(h));
    ASSERT_EQ(after.curves[i]->knots().size(), cold.knots().size());
    for (std::size_t j = 0; j < cold.knots().size(); ++j) {
      EXPECT_EQ(after.curves[i]->knots()[j].x, cold.knots()[j].x);
      EXPECT_EQ(after.curves[i]->knots()[j].y, cold.knots()[j].y);
    }
  }
}

// The same curve, bit for bit: knots and final slope.
void expect_same_curve(const util::PiecewiseLinear& got,
                       const util::PiecewiseLinear& want) {
  ASSERT_EQ(got.knots().size(), want.knots().size());
  for (std::size_t i = 0; i < want.knots().size(); ++i) {
    EXPECT_EQ(std::bit_cast<std::uint64_t>(got.knots()[i].x),
              std::bit_cast<std::uint64_t>(want.knots()[i].x));
    EXPECT_EQ(std::bit_cast<std::uint64_t>(got.knots()[i].y),
              std::bit_cast<std::uint64_t>(want.knots()[i].y));
  }
  EXPECT_EQ(std::bit_cast<std::uint64_t>(got.final_slope()),
            std::bit_cast<std::uint64_t>(want.final_slope()));
}

TEST(CurveCache, InPlaceRebuildMatchesFreshBuild) {
  util::Rng rng(808);
  chen::CurveScratch scratch;
  for (const int m : {1, 3}) {
    util::PiecewiseLinear curve;
    // Load counts that alternately shrink and grow the curve's knot count.
    for (const int p : {8, 2, 0, 12, 5, 20, 1}) {
      std::vector<model::Load> loads;
      for (int j = 0; j < p; ++j)
        loads.push_back({j, rng.bernoulli(0.2) ? 1.5 : rng.uniform(0.05, 4.0)});
      const model::JobId ignore = p > 0 && rng.bernoulli(0.5) ? 0 : -1;
      const double length = rng.uniform(0.2, 3.0);
      const std::size_t before = curve.knots().capacity();
      chen::rebuild_insertion_curve(curve, loads, ignore, m, length, scratch);
      const auto fresh = chen::insertion_curve(loads, ignore, m, length);
      SCOPED_TRACE(testing::Message() << "m " << m << " loads " << p);
      expect_same_curve(curve, fresh);
      if (fresh.knots().size() > before)
        EXPECT_EQ(curve.knots().capacity(), curve.knots().size());
      else
        EXPECT_EQ(curve.knots().capacity(), before);
    }
  }
}

// --------------------------------------------- LazyLinearSum vs materialized

TEST(LazyLinearSum, MatchesMaterializedSumEverywhere) {
  util::Rng rng(99);
  for (int trial = 0; trial < 60; ++trial) {
    const int num_curves = int(rng.uniform_int(1, 6));
    std::vector<util::PiecewiseLinear> curves;
    for (int c = 0; c < num_curves; ++c) {
      std::vector<double> loads;
      const int p = int(rng.uniform_int(0, 6));
      for (int i = 0; i < p; ++i) loads.push_back(rng.uniform(0.05, 4.0));
      curves.push_back(
          chen::insertion_curve(loads, int(rng.uniform_int(1, 4)),
                                rng.uniform(0.2, 3.0)));
    }
    const auto total = util::PiecewiseLinear::sum(curves);
    std::vector<const util::PiecewiseLinear*> ptrs;
    for (const auto& c : curves) ptrs.push_back(&c);
    util::LazyLinearSum::Scratch scratch;
    const util::LazyLinearSum lazy(ptrs, scratch);

    EXPECT_EQ(lazy.final_slope(), total.final_slope());
    for (int probe = 0; probe < 50; ++probe) {
      const double s = std::pow(10.0, rng.uniform(-2.0, 1.5));
      EXPECT_EQ(lazy.eval(s), total.eval(s)) << "trial " << trial;
      const double target = rng.uniform(0.0, 1.5) * std::max(1.0, total.eval(s));
      const auto a = total.first_at_least(target);
      const auto b = lazy.first_at_least(target);
      ASSERT_EQ(a.has_value(), b.has_value()) << "trial " << trial;
      if (a.has_value()) {
        EXPECT_EQ(*a, *b) << "trial " << trial;
      }
    }
  }
}

TEST(LazyLinearSum, MatchesReferenceWaterFill) {
  util::Rng rng(4242);
  for (int trial = 0; trial < 80; ++trial) {
    const int m = int(rng.uniform_int(1, 4));
    const std::size_t num_intervals = std::size_t(rng.uniform_int(1, 5));
    std::vector<double> bounds{0.0};
    for (std::size_t k = 0; k < num_intervals; ++k)
      bounds.push_back(bounds.back() + rng.uniform(0.3, 2.0));
    const auto partition = model::TimePartition::from_boundaries(bounds);
    model::WorkAssignment assignment(num_intervals);
    for (std::size_t k = 0; k < num_intervals; ++k)
      for (int j = 0; j < 3; ++j)
        if (rng.bernoulli(0.5))
          assignment.set_load(k, 100 + j, rng.uniform(0.1, 3.0));

    const double work = rng.uniform(0.2, 6.0);
    const double cap = rng.bernoulli(0.3) ? util::kInf : rng.uniform(0.5, 6.0);
    const model::IntervalRange window{0, num_intervals};
    const auto reference = convex::water_fill(assignment, partition, m,
                                              window, work, cap, 7);

    // The same loads, in the same per-interval order, on the store.
    IntervalStore store = make_store(bounds);
    for (std::size_t k = 0; k < num_intervals; ++k)
      for (const model::Load& load : assignment.loads(k))
        store.set_load(handle_at(store, k), load.job, load.amount);
    CurveCache cache;
    const auto curves = cache.curves_for(
        store, m, store.span(bounds.front(), bounds.back()), 7, cap);
    const auto fast =
        convex::water_fill_over_curves(curves, work, cache.sum_scratch());

    ASSERT_EQ(reference.has_value(), fast.has_value()) << "trial " << trial;
    if (!reference.has_value()) continue;
    EXPECT_EQ(reference->speed, fast->speed) << "trial " << trial;
    ASSERT_EQ(reference->amounts.size(), fast->amounts.size());
    for (std::size_t i = 0; i < reference->amounts.size(); ++i)
      EXPECT_EQ(reference->amounts[i], fast->amounts[i])
          << "trial " << trial << " interval " << i;
  }
}

// --------------------------------------------------- certified cap test

// The water fill decides the cap test on S, the compensated sum of the
// curves' values at the cap, unless S lies within 1e-9 of the work; only
// then does it evaluate the exact Z(cap). A work of exactly Z(cap) or one
// ulp to either side lies inside that margin, so it must take the exact
// fallback and decide, and place, as the stateless reference does. Only
// instances where S and the exact value differ in bits are kept: there,
// deciding on S alone, or with a margin of the wrong sign, flips one of
// the three decisions.
TEST(WaterFillOverCurves, ExactFallbackDecidesAtTheCap) {
  util::Rng rng(2024);
  int differing = 0;
  for (int trial = 0; trial < 2000 && differing < 40; ++trial) {
    const int m = int(rng.uniform_int(1, 4));
    const std::size_t num_intervals = std::size_t(rng.uniform_int(3, 40));
    std::vector<double> bounds{0.0};
    for (std::size_t k = 0; k < num_intervals; ++k)
      bounds.push_back(bounds.back() + rng.uniform(0.3, 2.0));
    const auto partition = model::TimePartition::from_boundaries(bounds);
    model::WorkAssignment assignment(num_intervals);
    IntervalStore store = make_store(bounds);
    for (std::size_t k = 0; k < num_intervals; ++k)
      for (int j = 0; j < 5; ++j)
        if (rng.bernoulli(0.5)) {
          const double amount = rng.uniform(0.1, 3.0);
          assignment.set_load(k, 100 + j, amount);
          store.set_load(handle_at(store, k), 100 + j, amount);
        }
    const double cap = rng.uniform(0.3, 4.0);
    const model::IntervalRange window{0, num_intervals};
    const IntervalStore::Span span = store.span(bounds.front(), bounds.back());

    // S and the exact Z(cap) as the water fill computes them.
    CurveCache cache;
    const auto gathered = cache.curves_for(store, m, span, 7, cap);
    const double sum_at_cap = gathered.sum_at_cap;
    util::LazyLinearSum::Scratch scratch;
    const double exact =
        util::LazyLinearSum(gathered.curves, scratch).eval(cap);
    if (!(exact > 0.0) || std::bit_cast<std::uint64_t>(sum_at_cap) ==
                              std::bit_cast<std::uint64_t>(exact))
      continue;
    ++differing;
    EXPECT_LT(std::abs(sum_at_cap - exact), 1e-12 * exact);

    const double below = std::nextafter(exact, 0.0);
    const double above = std::nextafter(exact, util::kInf);
    for (const double work : {below, exact, above}) {
      SCOPED_TRACE(testing::Message()
                   << "trial " << trial << " work - exact " << work - exact);
      const auto reference =
          convex::water_fill(assignment, partition, m, window, work, cap, 7);
      const auto fast = convex::water_fill_over_curves(
          cache.curves_for(store, m, span, 7, cap), work,
          cache.sum_scratch());
      EXPECT_EQ(fast.has_value(), work != above);
      ASSERT_EQ(reference.has_value(), fast.has_value());
      if (!reference.has_value()) continue;
      EXPECT_EQ(std::bit_cast<std::uint64_t>(reference->speed),
                std::bit_cast<std::uint64_t>(fast->speed));
      ASSERT_EQ(reference->amounts.size(), fast->amounts.size());
      for (std::size_t i = 0; i < reference->amounts.size(); ++i)
        EXPECT_EQ(std::bit_cast<std::uint64_t>(reference->amounts[i]),
                  std::bit_cast<std::uint64_t>(fast->amounts[i]));
    }
  }
  EXPECT_EQ(differing, 40);
}

// The water fill builds its LazyLinearSum view, whose construction checks
// every curve, only once S has failed to reject: a rejection on S alone
// never reads the curves, while a placement, an uncapped call or the exact
// fallback runs every check (here: curves that do not share a domain
// start).
TEST(WaterFillOverCurves, ChecksTheCurvesOnlyPastTheRejectionTest) {
  const auto a = util::PiecewiseLinear::from_knots({{0.0, 0.0}, {1.0, 1.0}},
                                                   1.0);
  const auto b = util::PiecewiseLinear::from_knots({{0.5, 0.0}, {1.0, 1.0}},
                                                   1.0);
  const std::vector<const util::PiecewiseLinear*> curves{&a, &b};
  util::LazyLinearSum::Scratch scratch;
  EXPECT_FALSE(convex::water_fill_over_curves({curves, 1.0, 0.5}, 1.0,
                                              scratch)
                   .has_value());
  EXPECT_THROW((void)convex::water_fill_over_curves({curves, 1.0, 2.0}, 1.0,
                                                    scratch),
               std::invalid_argument);
  EXPECT_THROW((void)convex::water_fill_over_curves({curves, 1.0, 1.0}, 1.0,
                                                    scratch),
               std::invalid_argument);
  EXPECT_THROW((void)convex::water_fill_over_curves({curves, util::kInf, 0.0},
                                                    1.0, scratch),
               std::invalid_argument);
  // A zero cap (an underflowed rejection speed) rejects: Z(0) = 0 < work.
  const std::vector<const util::PiecewiseLinear*> one{&a};
  EXPECT_FALSE(
      convex::water_fill_over_curves({one, 0.0, 0.0}, 1.0, scratch).has_value());
  EXPECT_THROW((void)convex::water_fill_over_curves({one, -1.0, 0.0}, 1.0,
                                                    scratch),
               std::invalid_argument);
}

}  // namespace
}  // namespace pss
