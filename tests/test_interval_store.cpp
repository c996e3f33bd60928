// The stable-handle interval store.
//
// Two layers of coverage:
//   * model::IntervalStore semantics: bootstrap below two boundaries,
//     split / append / prepend refinements, stable handles, the cached
//     curves' fresh flags (cleared by every change to an interval's loads
//     or length, and checked against cold builds), LIFO handle recycling,
//     handle spans, the time-order successor chain (also
//     across a checkpoint round trip), and snapshot materialization —
//     core::OnlineState cross-checked against the contiguous TimePartition
//     + WorkAssignment pair refined by the reference core::refine_partition
//     (including a prepend-heavy stream the arrival-ordered schedulers can
//     never produce);
//   * torture at 100k+ intervals with duplicate / already-boundary inserts
//     for both the store and the contiguous reference representation.
#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cstdint>
#include <set>
#include <sstream>
#include <utility>
#include <vector>

#include "chen/insertion_curve.hpp"
#include "core/curve_cache.hpp"
#include "core/online_state.hpp"
#include "core/pd_scheduler.hpp"
#include "core/reference_pd.hpp"
#include "io/state_io.hpp"
#include "model/interval_store.hpp"
#include "util/math.hpp"
#include "util/random.hpp"

namespace pss {
namespace {

using core::OnlineState;
using core::refine_partition;
using model::IntervalStore;

// Positions are a test-side notion: the store addresses intervals by
// handle only, so the k-th interval is found by walking the chain.
IntervalStore::Handle handle_at(const IntervalStore& store, std::size_t pos) {
  IntervalStore::Handle h = store.front_handle();
  for (; pos > 0; --pos) h = store.next_handle(h);
  return h;
}

std::size_t position_of(const IntervalStore& store, IntervalStore::Handle h) {
  std::size_t pos = 0;
  for (IntervalStore::Handle g = store.front_handle(); g != h;
       g = store.next_handle(g))
    ++pos;
  return pos;
}

// Builds the curves of [t0, t1) through the walk PD serves arrivals with,
// at m = 2, for a job id no load carries; they come back fresh.
void build_curves(IntervalStore& store, double t0, double t1) {
  core::CurveCache cache;
  (void)cache.curves_for(store, 2, store.span(t0, t1), 1 << 30, util::kInf);
}

void build_all_curves(IntervalStore& store) {
  build_curves(store, store.front_boundary(), store.back_boundary());
}

// Number of intervals a span covers.
std::size_t span_size(const IntervalStore& store, IntervalStore::Span span) {
  std::size_t n = 0;
  for (IntervalStore::Handle h = span.first; h != span.last;
       h = store.next_handle(h))
    ++n;
  return n;
}

// ------------------------------------------------------------ IntervalStore

TEST(IntervalStore, BootstrapBelowTwoBoundaries) {
  IntervalStore store;
  EXPECT_EQ(store.num_boundaries(), 0u);
  EXPECT_EQ(store.num_intervals(), 0u);
  EXPECT_FALSE(store.has_boundary(3.0));

  EXPECT_EQ(store.ensure_boundary(3.0), IntervalStore::Refinement::kNoop);
  EXPECT_EQ(store.num_boundaries(), 1u);
  EXPECT_EQ(store.num_intervals(), 0u);
  EXPECT_TRUE(store.has_boundary(3.0));
  EXPECT_EQ(store.front_boundary(), 3.0);
  EXPECT_EQ(store.back_boundary(), 3.0);

  // Duplicate of the lone boundary stays a no-op.
  EXPECT_EQ(store.ensure_boundary(3.0), IntervalStore::Refinement::kNoop);
  EXPECT_EQ(store.num_boundaries(), 1u);

  // Second distinct boundary forms the first interval — in either order.
  EXPECT_EQ(store.ensure_boundary(1.0), IntervalStore::Refinement::kBootstrap);
  EXPECT_EQ(store.num_intervals(), 1u);
  EXPECT_EQ(store.front_boundary(), 1.0);
  EXPECT_EQ(store.back_boundary(), 3.0);
  const IntervalStore::Span span = store.span(1.0, 3.0);
  EXPECT_EQ(span.first, store.front_handle());
  EXPECT_EQ(span.last, IntervalStore::kNoHandle);
}

TEST(IntervalStore, SplitDividesLoadsProportionallyAndKeepsHandles) {
  IntervalStore store;
  store.ensure_boundary(0.0);
  store.ensure_boundary(4.0);
  const IntervalStore::Handle h = handle_at(store, 0);
  store.set_load(h, 1, 4.0);
  build_all_curves(store);
  ASSERT_TRUE(store.fresh(h));

  EXPECT_EQ(store.ensure_boundary(1.0), IntervalStore::Refinement::kSplit);
  ASSERT_EQ(store.num_intervals(), 2u);
  // Left half keeps its handle at position 0; right half is a new handle.
  EXPECT_EQ(position_of(store, h), 0u);
  EXPECT_EQ(store.start_of(h), 0.0);
  EXPECT_EQ(store.end_of(h), 1.0);
  const IntervalStore::Handle right = handle_at(store, 1);
  EXPECT_NE(right, h);
  EXPECT_EQ(store.start_of(right), 1.0);
  EXPECT_EQ(store.end_of(right), 4.0);
  // Loads divided 1/4 vs 3/4; both curves stale.
  EXPECT_DOUBLE_EQ(store.load_of(h, 1), 1.0);
  EXPECT_DOUBLE_EQ(store.load_of(right, 1), 3.0);
  EXPECT_DOUBLE_EQ(store.total_of(1), 4.0);
  EXPECT_FALSE(store.fresh(h));
  EXPECT_FALSE(store.fresh(right));
}

TEST(IntervalStore, AppendAndPrependExtendHorizon) {
  IntervalStore store;
  store.ensure_boundary(1.0);
  store.ensure_boundary(2.0);
  const IntervalStore::Handle first = handle_at(store, 0);
  store.set_load(first, 9, 5.0);
  build_all_curves(store);

  EXPECT_EQ(store.ensure_boundary(5.0), IntervalStore::Refinement::kAppend);
  EXPECT_EQ(store.ensure_boundary(0.0), IntervalStore::Refinement::kPrepend);
  ASSERT_EQ(store.num_intervals(), 3u);
  // The original interval kept its handle, moved to position 1, and its
  // loads and fresh curve were untouched by both extensions; the new
  // intervals start stale.
  EXPECT_EQ(position_of(store, first), 1u);
  EXPECT_DOUBLE_EQ(store.load_of(first, 9), 5.0);
  EXPECT_TRUE(store.fresh(first));
  EXPECT_FALSE(store.fresh(handle_at(store, 0)));
  EXPECT_FALSE(store.fresh(handle_at(store, 2)));
  EXPECT_EQ(store.front_boundary(), 0.0);
  EXPECT_EQ(store.back_boundary(), 5.0);
  EXPECT_TRUE(store.loads(handle_at(store, 0)).empty());
  EXPECT_TRUE(store.loads(handle_at(store, 2)).empty());

  const IntervalStore::Span front = store.span(0.0, 2.0);
  EXPECT_EQ(front.first, handle_at(store, 0));
  EXPECT_EQ(front.last, handle_at(store, 2));
  EXPECT_EQ(span_size(store, front), 2u);
  EXPECT_EQ(store.span(2.0, 5.0).last, IntervalStore::kNoHandle);
  EXPECT_THROW((void)store.span(0.5, 2.0), std::invalid_argument);
  EXPECT_THROW((void)store.span(0.0, 4.9), std::invalid_argument);
  EXPECT_THROW((void)store.span(5.0, 6.0), std::invalid_argument);
  EXPECT_THROW((void)store.span(2.0, 2.0), std::invalid_argument);
}

TEST(IntervalStore, SetLoadMatchesWorkAssignmentSemantics) {
  IntervalStore store;
  store.ensure_boundary(0.0);
  store.ensure_boundary(1.0);
  const auto h = handle_at(store, 0);
  store.set_load(h, 1, 2.0);
  store.set_load(h, 2, 3.0);
  EXPECT_DOUBLE_EQ(store.interval_total(h), 5.0);
  build_all_curves(store);
  ASSERT_TRUE(store.fresh(h));
  store.set_load(h, 1, 0.0);  // zero erases and stales the curve
  EXPECT_DOUBLE_EQ(store.load_of(h, 1), 0.0);
  EXPECT_EQ(store.loads(h).size(), 1u);
  EXPECT_FALSE(store.fresh(h));
  build_all_curves(store);
  store.set_load(h, 3, 0.0);  // zero for an absent job is a silent no-op
  EXPECT_TRUE(store.fresh(h));
  store.set_load(h, 2, 1.0);  // a changed amount stales it
  EXPECT_FALSE(store.fresh(h));
  EXPECT_THROW(store.set_load(h, 1, -1.0), std::invalid_argument);
}

// The job watermark bounds every live id from above: nonzero loads, set or
// appended, raise it; zero loads, removals, splits and compaction leave it;
// clear() starts it over.
TEST(IntervalStore, JobWatermarkBoundsEveryLiveId) {
  IntervalStore store;
  for (double t : {0.0, 1.0, 2.0}) store.ensure_boundary(t);
  EXPECT_EQ(store.max_job(), IntervalStore::kNoJob);
  store.set_load(handle_at(store, 0), 4, 0.0);
  store.append_load(handle_at(store, 0), 5, 0.0);
  EXPECT_EQ(store.max_job(), IntervalStore::kNoJob);
  store.set_load(handle_at(store, 0), 10, 1.0);
  store.append_load(handle_at(store, 1), 3, 1.0);
  EXPECT_EQ(store.max_job(), 10);
  store.set_load(handle_at(store, 0), 10, 0.0);
  EXPECT_EQ(store.max_job(), 10);
  ASSERT_EQ(store.ensure_boundary(0.5), IntervalStore::Refinement::kSplit);
  store.append_load(handle_at(store, 0), 12, 1.0);
  ASSERT_EQ(store.compact_before(1.0), 2u);
  EXPECT_EQ(store.max_job(), 12);
  store.clear();
  EXPECT_EQ(store.max_job(), IntervalStore::kNoJob);
}

// append_load is set_load for a job the interval does not hold: the same
// load list and fresh flag, zero a no-op, negative refused.
TEST(IntervalStore, AppendLoadIsSetLoadForAnAbsentJob) {
  IntervalStore set;
  IntervalStore appended;
  for (IntervalStore* store : {&set, &appended}) {
    store->ensure_boundary(0.0);
    store->ensure_boundary(1.0);
  }
  const auto h = handle_at(set, 0);
  ASSERT_EQ(handle_at(appended, 0), h);
  for (const auto& [job, amount] :
       std::vector<std::pair<model::JobId, double>>{{1, 2.0}, {2, 0.0},
                                                    {3, 0.5}}) {
    build_all_curves(set);
    build_all_curves(appended);
    set.set_load(h, job, amount);
    appended.append_load(h, job, amount);
    EXPECT_EQ(set.fresh(h), amount == 0.0);
    EXPECT_EQ(appended.fresh(h), set.fresh(h));
  }
  ASSERT_EQ(appended.loads(h).size(), 2u);
  for (std::size_t i = 0; i < 2; ++i) {
    EXPECT_EQ(appended.loads(h)[i].job, set.loads(h)[i].job);
    EXPECT_EQ(appended.loads(h)[i].amount, set.loads(h)[i].amount);
  }
  EXPECT_THROW(appended.append_load(h, 4, -1.0), std::invalid_argument);
}

TEST(IntervalStore, SnapshotsMatchContiguousTypes) {
  IntervalStore store;
  for (double t : {4.0, 0.0, 2.0, 6.0}) store.ensure_boundary(t);
  store.set_load(handle_at(store, 1), 1, 2.5);
  store.set_load(handle_at(store, 2), 2, 1.5);

  const model::TimePartition partition = store.snapshot_partition();
  ASSERT_EQ(partition.num_intervals(), 3u);
  EXPECT_EQ(partition.boundaries(),
            (std::vector<double>{0.0, 2.0, 4.0, 6.0}));
  const model::WorkAssignment assignment = store.snapshot_assignment();
  ASSERT_EQ(assignment.num_intervals(), 3u);
  EXPECT_DOUBLE_EQ(assignment.load_of(1, 1), 2.5);
  EXPECT_DOUBLE_EQ(assignment.load_of(2, 2), 1.5);
  EXPECT_TRUE(assignment.loads(0).empty());
}

TEST(IntervalStore, SnapshotBelowTwoBoundaries) {
  IntervalStore store;
  EXPECT_EQ(store.snapshot_partition().num_intervals(), 0u);
  EXPECT_EQ(store.snapshot_assignment().num_intervals(), 0u);
  store.ensure_boundary(7.0);
  const auto partition = store.snapshot_partition();
  EXPECT_EQ(partition.boundaries(), std::vector<double>{7.0});
}

// ----------------------------------------- OnlineState vs the reference

// The contiguous reference representation with the same split/extension
// counters OnlineState keeps.
struct ContiguousState {
  model::TimePartition partition;
  model::WorkAssignment assignment;
  long long interval_splits = 0;
  long long horizon_extensions = 0;

  void ensure_boundary(double t) {
    switch (refine_partition(partition, assignment, t)) {
      case IntervalStore::Refinement::kSplit:
        ++interval_splits;
        break;
      case IntervalStore::Refinement::kAppend:
      case IntervalStore::Refinement::kPrepend:
        ++horizon_extensions;
        break;
      default:
        break;
    }
  }
};

// Replays the same ensure_boundary / load stream through both
// representations and compares the full state bitwise.
void expect_backends_identical(const std::vector<double>& boundaries,
                               std::uint64_t load_seed) {
  ContiguousState contiguous;
  OnlineState indexed;
  util::Rng rng(load_seed);
  model::JobId next_job = 0;
  for (const double t : boundaries) {
    contiguous.ensure_boundary(t);
    indexed.ensure_boundary(t);
    const std::size_t n = contiguous.partition.num_intervals();
    ASSERT_EQ(n, indexed.num_intervals());
    // Occasionally commit load to a random interval, same on both.
    if (n > 0 && rng.uniform(0.0, 1.0) < 0.5) {
      const std::size_t k = std::size_t(rng.uniform_int(0, int(n) - 1));
      const double amount = rng.uniform(0.1, 3.0);
      contiguous.assignment.set_load(k, next_job, amount);
      indexed.store.set_load(handle_at(indexed.store, k), next_job, amount);
      ++next_job;
    }
  }
  ASSERT_EQ(contiguous.interval_splits, indexed.interval_splits);
  ASSERT_EQ(contiguous.horizon_extensions, indexed.horizon_extensions);
  // Bitwise state comparison through the snapshot types.
  const auto snapshot = indexed.store.snapshot_partition();
  ASSERT_EQ(snapshot.boundaries(), contiguous.partition.boundaries());
  const auto assignment = indexed.store.snapshot_assignment();
  ASSERT_EQ(assignment.num_intervals(), contiguous.assignment.num_intervals());
  for (std::size_t k = 0; k < assignment.num_intervals(); ++k) {
    const auto& expect = contiguous.assignment.loads(k);
    const auto& got = assignment.loads(k);
    ASSERT_EQ(got.size(), expect.size()) << "interval " << k;
    for (std::size_t i = 0; i < expect.size(); ++i) {
      ASSERT_EQ(got[i].job, expect[i].job) << "interval " << k;
      ASSERT_EQ(got[i].amount, expect[i].amount) << "interval " << k;
    }
  }
}

TEST(OnlineStateBackends, RandomRefinementStreamsMatch) {
  for (std::uint64_t seed = 0; seed < 20; ++seed) {
    SCOPED_TRACE("seed " + std::to_string(seed));
    util::Rng rng(900 + seed);
    std::vector<double> boundaries;
    for (int i = 0; i < 200; ++i)
      boundaries.push_back(double(rng.uniform_int(0, 120)));  // many repeats
    expect_backends_identical(boundaries, 7000 + seed);
  }
}

TEST(OnlineStateBackends, PrependHeavyStreamMatches) {
  // Strictly descending boundaries: every insert after the second is a
  // prepend — the refinement direction the arrival-ordered schedulers
  // never exercise (releases are nondecreasing, so PdScheduler can only
  // split or append).
  std::vector<double> boundaries;
  for (int i = 0; i < 300; ++i) boundaries.push_back(1000.0 - 3.0 * i);
  expect_backends_identical(boundaries, 31);
}

TEST(OnlineStateBackends, SplitHeavyBisectionStreamMatches) {
  // Seed [0, 1024) then bit-reversed interior points: every insert splits
  // an existing interval, spread uniformly over the whole horizon.
  std::vector<double> boundaries{0.0, 1024.0};
  for (std::uint32_t i = 1; i < 256; ++i) {
    std::uint32_t r = 0;
    for (int b = 0; b < 8; ++b) r |= ((i >> b) & 1u) << (7 - b);
    boundaries.push_back(1024.0 * double(r) / 256.0);
  }
  expect_backends_identical(boundaries, 77);
}

// ----------------------------------------------------------------- torture

// 100k+ intervals with every boundary re-offered as a duplicate. The
// indexed store takes a bisection (middle-insert) stream; the duplicate
// pass must be pure no-ops for both backends.
TEST(IntervalStoreTorture, BisectionTo100kIntervalsWithDuplicates) {
  constexpr std::uint32_t kN = 1u << 17;  // 131072 intervals
  OnlineState state;
  state.ensure_boundary(0.0);
  state.ensure_boundary(double(kN));
  // Plant a load so every split divides a nonempty interval.
  state.store.set_load(handle_at(state.store, 0), 0, 1000.0);
  for (std::uint32_t i = 1; i < kN; ++i) {
    std::uint32_t r = 0;
    for (int b = 0; b < 17; ++b) r |= ((i >> b) & 1u) << (16 - b);
    state.ensure_boundary(double(r));
  }
  ASSERT_EQ(state.store.num_intervals(), std::size_t(kN));
  ASSERT_EQ(state.interval_splits, (long long)kN - 1);
  // Duplicate pass: every existing boundary again, plus the ends.
  for (std::uint32_t t = 0; t <= kN; ++t)
    ASSERT_EQ(state.store.ensure_boundary(double(t)),
              IntervalStore::Refinement::kNoop);
  ASSERT_EQ(state.store.num_intervals(), std::size_t(kN));
  ASSERT_EQ(state.store.num_boundaries(), std::size_t(kN) + 1);
  // The planted work survived every split, spread over the whole horizon.
  EXPECT_NEAR(state.store.total_of(0), 1000.0, 1e-6);
  // Spot-check spans at scale.
  EXPECT_EQ(state.store.span(0.0, 1.0).first, state.store.front_handle());
  EXPECT_EQ(state.store.span(double(kN) - 1.0, double(kN)).last,
            IntervalStore::kNoHandle);
  EXPECT_EQ(span_size(state.store, state.store.span(100.0, 200.0)), 100u);
}

// The contiguous reference path at the same scale: ascending inserts (its
// cheap direction — middle inserts would be quadratic) with duplicates.
TEST(IntervalStoreTorture, ContiguousAscendingTo100kWithDuplicates) {
  constexpr int kN = 120000;
  ContiguousState state;
  for (int pass = 0; pass < 2; ++pass)
    for (int t = 0; t <= kN; ++t) state.ensure_boundary(double(t));
  ASSERT_EQ(state.partition.num_intervals(), std::size_t(kN));
  ASSERT_EQ(state.assignment.num_intervals(), std::size_t(kN));
  EXPECT_EQ(state.interval_splits, 0);
  EXPECT_EQ(state.horizon_extensions, (long long)kN - 1);
}

// Both representations through the bootstrap corner (<2 boundaries) of
// the refinement, which PdScheduler hits on its very first arrival and
// after every reset().
TEST(OnlineStateBackends, EnsureBoundaryBootstrap) {
  OnlineState indexed;
  ContiguousState contiguous;
  const auto step = [&](double t, std::size_t intervals, long long splits) {
    indexed.ensure_boundary(t);
    contiguous.ensure_boundary(t);
    EXPECT_EQ(indexed.num_intervals(), intervals);
    EXPECT_EQ(contiguous.partition.num_intervals(), intervals);
    EXPECT_EQ(contiguous.assignment.num_intervals(), intervals);
    EXPECT_EQ(indexed.interval_splits, splits);
    EXPECT_EQ(contiguous.interval_splits, splits);
    EXPECT_EQ(indexed.horizon_extensions, 0);
    EXPECT_EQ(contiguous.horizon_extensions, 0);
  };
  step(5.0, 0, 0);
  step(5.0, 0, 0);  // duplicate of the lone boundary
  step(9.0, 1, 0);  // second boundary: first interval
  step(7.0, 2, 1);  // now a genuine split
}

// --------------------------------------------------- successor threading

// The store against a sorted-boundary oracle: the successor chain from
// front_handle visits exactly the oracle's intervals in time order, and
// every end_of is the next interval's start (the back boundary for the
// last interval).
void expect_matches_oracle(const IntervalStore& store,
                           const std::vector<double>& oracle) {
  ASSERT_EQ(store.num_boundaries(), oracle.size());
  if (oracle.empty()) return;
  ASSERT_EQ(store.front_boundary(), oracle.front());
  ASSERT_EQ(store.back_boundary(), oracle.back());
  IntervalStore::Handle h = store.front_handle();
  for (std::size_t pos = 0; pos + 1 < oracle.size(); ++pos) {
    ASSERT_NE(h, IntervalStore::kNoHandle) << "position " << pos;
    ASSERT_EQ(store.start_of(h), oracle[pos]) << "position " << pos;
    ASSERT_EQ(store.end_of(h), oracle[pos + 1]) << "position " << pos;
    ASSERT_TRUE(store.has_boundary(oracle[pos])) << "position " << pos;
    h = store.next_handle(h);
  }
  ASSERT_EQ(h, IntervalStore::kNoHandle);
}

// span(t0, t1) walked from first to last visits exactly the snapshot
// partition's range(t0, t1), with bitwise-equal starts and lengths.
void expect_span_matches_partition(const IntervalStore& store, double t0,
                                   double t1) {
  const model::TimePartition partition = store.snapshot_partition();
  const model::IntervalRange range = partition.range(t0, t1);
  const IntervalStore::Span span = store.span(t0, t1);
  std::size_t k = range.first;
  for (IntervalStore::Handle h = span.first; h != span.last;
       h = store.next_handle(h), ++k) {
    ASSERT_LT(k, range.last) << "span overruns [" << t0 << ", " << t1 << ")";
    ASSERT_EQ(store.start_of(h), partition.start(k));
    ASSERT_EQ(store.length_of(h), partition.length(k));
  }
  ASSERT_EQ(k, range.last) << "span stops short of [" << t0 << ", " << t1
                           << ")";
}

TEST(IntervalStore, SuccessorChainSurvivesRandomRefinementAndCompaction) {
  util::Rng rng(515);
  IntervalStore store;
  std::vector<double> oracle;  // sorted boundaries
  // Handles compaction retired and no refinement has recycled yet. One
  // that comes back must be stale with no knots, so its previous tenant's
  // curve can never be served.
  std::set<IntervalStore::Handle> retired;
  int splits = 0, appends = 0, prepends = 0, empties = 0, clears = 0;
  int recycled = 0, front_spans = 0, back_spans = 0, interior_spans = 0;
  long long fresh_checked = 0;
  for (int step = 0; step < 4000; ++step) {
    const double u = rng.uniform(0.0, 1.0);
    if (u < 0.02) {
      store.clear();
      oracle.clear();
      retired.clear();  // handles restart with the slab
      ++clears;
    } else if (u < 0.12 && store.num_intervals() > 0) {
      // Compact a prefix; one time in five past the back, to empty.
      const double lo = store.front_boundary();
      const double hi = store.back_boundary();
      const double frontier = rng.bernoulli(0.2) ? hi + 1.0
                                                 : rng.uniform(lo, hi);
      std::set<IntervalStore::Handle> live;
      for (IntervalStore::Handle h = store.front_handle();
           h != IntervalStore::kNoHandle; h = store.next_handle(h))
        live.insert(h);
      (void)store.compact_before(frontier);
      for (IntervalStore::Handle h = store.front_handle();
           h != IntervalStore::kNoHandle; h = store.next_handle(h))
        live.erase(h);
      retired.insert(live.begin(), live.end());
      while (oracle.size() >= 2 && oracle[1] <= frontier)
        oracle.erase(oracle.begin());
      if (store.num_intervals() == 0) ++empties;
    } else {
      // A boundary inside, past the back, or before the front.
      double t = rng.uniform(0.0, 100.0);
      if (store.num_boundaries() >= 1) {
        const double lo = store.front_boundary();
        const double hi = store.back_boundary();
        const double v = rng.uniform(0.0, 1.0);
        t = v < 0.6 ? rng.uniform(lo, hi)
            : v < 0.85 ? hi + rng.uniform(0.1, 5.0)
                       : lo - rng.uniform(0.1, 5.0);
      }
      switch (store.ensure_boundary(t)) {
        case IntervalStore::Refinement::kSplit: ++splits; break;
        case IntervalStore::Refinement::kAppend: ++appends; break;
        case IntervalStore::Refinement::kPrepend: ++prepends; break;
        default: break;
      }
      const auto at = std::lower_bound(oracle.begin(), oracle.end(), t);
      if (at == oracle.end() || *at != t) oracle.insert(at, t);
      // Give a random interval a load so splits divide real work.
      if (store.num_intervals() > 0 && rng.bernoulli(0.3)) {
        const auto pos = std::size_t(
            rng.uniform_int(0, std::int64_t(store.num_intervals()) - 1));
        store.set_load(handle_at(store, pos), step, rng.uniform(0.1, 2.0));
      }
    }
    expect_matches_oracle(store, oracle);
    if (HasFatalFailure()) FAIL() << "after step " << step;

    for (IntervalStore::Handle h = store.front_handle();
         h != IntervalStore::kNoHandle; h = store.next_handle(h)) {
      if (store.fresh(h)) {
        // A fresh curve is the cold build from the current loads and
        // length, bit for bit.
        const auto cold = chen::insertion_curve(store.loads(h), -1, 2,
                                                store.length_of(h));
        const util::PiecewiseLinear& cached = store.curve(h);
        ASSERT_EQ(cached.knots().size(), cold.knots().size())
            << "handle " << h << " after step " << step;
        for (std::size_t i = 0; i < cold.knots().size(); ++i) {
          ASSERT_EQ(std::bit_cast<std::uint64_t>(cached.knots()[i].x),
                    std::bit_cast<std::uint64_t>(cold.knots()[i].x));
          ASSERT_EQ(std::bit_cast<std::uint64_t>(cached.knots()[i].y),
                    std::bit_cast<std::uint64_t>(cold.knots()[i].y));
        }
        ASSERT_EQ(std::bit_cast<std::uint64_t>(cached.final_slope()),
                  std::bit_cast<std::uint64_t>(cold.final_slope()));
        ++fresh_checked;
      }
      if (retired.erase(h) == 0) continue;
      ASSERT_FALSE(store.fresh(h)) << "recycled handle " << h;
      ASSERT_TRUE(store.curve(h).empty()) << "recycled handle " << h;
      ++recycled;
    }

    if (oracle.size() >= 2) {
      // A span between two boundaries: from the front, to the back, or
      // strictly inside.
      const auto last = std::int64_t(oracle.size()) - 1;
      const auto i0 = rng.bernoulli(0.3) ? 0 : rng.uniform_int(0, last - 1);
      const auto i1 = rng.bernoulli(0.3) ? last : rng.uniform_int(i0 + 1, last);
      front_spans += i0 == 0;
      back_spans += i1 == last;
      interior_spans += i0 > 0 && i1 < last;
      expect_span_matches_partition(store, oracle[std::size_t(i0)],
                                    oracle[std::size_t(i1)]);
      if (HasFatalFailure()) FAIL() << "after step " << step;
      // Non-boundaries are refused at either end, and nothing starts at
      // the back boundary.
      const double mid =
          0.5 * (oracle[std::size_t(i0)] + oracle[std::size_t(i0) + 1]);
      if (!store.has_boundary(mid)) {
        EXPECT_THROW((void)store.span(mid, oracle[std::size_t(i0) + 1]),
                     std::invalid_argument);
        EXPECT_THROW((void)store.span(oracle[std::size_t(i0)], mid),
                     std::invalid_argument);
      }
      EXPECT_THROW((void)store.span(oracle.back(), oracle.back() + 1.0),
                   std::invalid_argument);
      // Build the span's curves, so later steps find fresh curves to
      // stale (or, wrongly, to leave fresh).
      build_curves(store, oracle[std::size_t(i0)], oracle[std::size_t(i1)]);
    }
  }
  // Every mutation kind was exercised, including regrowth after emptying,
  // and spans touched both ends of the partition and its interior.
  EXPECT_GT(splits, 100);
  EXPECT_GT(appends, 100);
  EXPECT_GT(prepends, 50);
  EXPECT_GT(empties, 5);
  EXPECT_GT(clears, 20);
  EXPECT_GT(recycled, 100);
  EXPECT_GT(fresh_checked, 10000);
  EXPECT_GT(front_spans, 100);
  EXPECT_GT(back_spans, 100);
  EXPECT_GT(interior_spans, 100);
}

TEST(IntervalStore, CompactionRecyclesHandlesLifo) {
  IntervalStore store;
  for (double t : {0.0, 1.0, 2.0, 3.0, 4.0}) (void)store.ensure_boundary(t);
  const IntervalStore::Handle a = handle_at(store, 0);
  const IntervalStore::Handle b = handle_at(store, 1);
  const IntervalStore::Handle c = handle_at(store, 2);
  store.set_load(a, 1, 1.0);
  store.set_load(b, 2, 2.0);
  build_all_curves(store);
  ASSERT_FALSE(store.curve(b).empty());
  ASSERT_EQ(store.compact_before(2.0), 2u);
  EXPECT_EQ(store.front_handle(), c);
  EXPECT_EQ(store.front_boundary(), 2.0);
  // The most recently freed handle comes back first, then the other, each
  // stale with no loads and no knots; then the slab grows.
  ASSERT_EQ(store.ensure_boundary(5.0), IntervalStore::Refinement::kAppend);
  EXPECT_EQ(handle_at(store, 2), b);
  EXPECT_FALSE(store.fresh(b));
  EXPECT_TRUE(store.curve(b).empty());
  ASSERT_EQ(store.ensure_boundary(1.5), IntervalStore::Refinement::kPrepend);
  EXPECT_EQ(store.front_handle(), a);
  EXPECT_FALSE(store.fresh(a));
  EXPECT_TRUE(store.curve(a).empty());
  EXPECT_TRUE(store.loads(a).empty());
  EXPECT_TRUE(store.loads(b).empty());
  EXPECT_TRUE(store.fresh(c));
  ASSERT_EQ(store.ensure_boundary(6.0), IntervalStore::Refinement::kAppend);
  EXPECT_EQ(store.handle_space(), 5u);
  EXPECT_EQ(store.num_intervals(), 5u);
}

TEST(IntervalStore, SuccessorChainAfterCheckpointRoundTrip) {
  // The store inside a scheduler is private, so the restored chain is
  // checked through what walks it: the partition snapshot, planned_energy
  // (front to back through end_of) and further compacting arrivals, all
  // bitwise against the scheduler that was never saved.
  util::Rng rng(77);
  const model::Machine machine{2, 2.5};
  core::PdScheduler original(machine);
  core::PdScheduler restored(machine);
  model::JobId id = 0;
  const auto feed = [&](core::PdScheduler& a, core::PdScheduler* b, int t) {
    a.advance_to(t, /*compact=*/true);
    if (b) b->advance_to(t, /*compact=*/true);
    for (int j = 0; j < 5; ++j) {
      model::Job job{id++, double(t), t + rng.uniform(0.5, 40.0),
                     rng.uniform(0.2, 2.0), rng.uniform(0.5, 20.0)};
      const auto x = a.on_arrival(job);
      if (b) {
        const auto y = b->on_arrival(job);
        ASSERT_EQ(x.accepted, y.accepted);
        ASSERT_EQ(x.speed, y.speed);
        ASSERT_EQ(x.lambda, y.lambda);
      }
    }
  };
  for (int t = 0; t < 60; ++t) feed(original, nullptr, t);
  std::stringstream blob;
  io::save_scheduler(blob, original);
  io::load_scheduler(blob, restored);
  const auto check = [&] {
    EXPECT_EQ(restored.partition().boundaries(),
              original.partition().boundaries());
    EXPECT_EQ(restored.live_intervals(), original.live_intervals());
    EXPECT_EQ(std::bit_cast<std::uint64_t>(restored.planned_energy()),
              std::bit_cast<std::uint64_t>(original.planned_energy()));
  };
  check();
  for (int t = 60; t < 120; ++t) {
    feed(original, &restored, t);
    if (HasFatalFailure()) return;
  }
  check();
}

// ------------------------------------------------- PdScheduler integration

TEST(PdSchedulerIndexed, AccessorsSnapshotTheStore) {
  core::PdScheduler indexed({2, 2.0});
  core::ReferencePd contiguous({2, 2.0});
  const std::vector<model::Job> jobs = {
      {0, 0.0, 4.0, 2.0, 10.0},
      {1, 1.0, 3.0, 1.0, 8.0},
      {2, 2.0, 6.0, 1.5, 9.0},
  };
  for (const auto& job : jobs) {
    indexed.on_arrival(job);
    contiguous.on_arrival(job);
  }
  EXPECT_EQ(indexed.partition().boundaries(),
            contiguous.partition().boundaries());
  const auto& a = indexed.assignment();
  const auto& b = contiguous.assignment();
  ASSERT_EQ(a.num_intervals(), b.num_intervals());
  for (std::size_t k = 0; k < a.num_intervals(); ++k)
    for (const auto& load : b.loads(k))
      EXPECT_EQ(a.load_of(k, load.job), load.amount) << "interval " << k;
  EXPECT_EQ(indexed.planned_energy(), contiguous.planned_energy());
}

TEST(PdSchedulerIndexed, ResetKeepsTheIndexedBackend) {
  core::PdScheduler pd({2, 2.0});
  pd.on_arrival({0, 0.0, 2.0, 1.0, 5.0});
  pd.reset();
  EXPECT_EQ(pd.partition().num_intervals(), 0u);
  EXPECT_EQ(pd.handle_space(), 0u);
  const auto decision = pd.on_arrival({1, 1.0, 3.0, 1.0, 5.0});
  EXPECT_TRUE(decision.accepted);
  EXPECT_EQ(pd.counters().arrivals, 1);
  EXPECT_GT(pd.handle_space(), 0u);
}

}  // namespace
}  // namespace pss
