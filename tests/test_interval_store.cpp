// The stable-handle interval store and its order-statistics index.
//
// Three layers of coverage:
//   * util::OrderIndex against a sorted-vector oracle (insert anywhere,
//     find / last_leq / select / rank / front / back);
//   * model::IntervalStore semantics: bootstrap below two boundaries,
//     split / append / prepend refinements, stable handles, epochs, the
//     time-order successor chain (also across a checkpoint round trip),
//     and snapshot materialization — core::OnlineState cross-checked against
//     the contiguous TimePartition + WorkAssignment pair refined by the
//     reference core::refine_partition (including a prepend-heavy stream
//     the arrival-ordered schedulers can never produce);
//   * torture at 100k+ intervals with duplicate / already-boundary inserts
//     for both the store and the contiguous reference representation.
#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cstdint>
#include <sstream>
#include <vector>

#include "core/online_state.hpp"
#include "core/pd_scheduler.hpp"
#include "core/reference_pd.hpp"
#include "io/state_io.hpp"
#include "model/interval_store.hpp"
#include "util/order_index.hpp"
#include "util/random.hpp"

namespace pss {
namespace {

using core::OnlineState;
using core::refine_partition;
using model::IntervalStore;
using util::OrderIndex;

// --------------------------------------------------------------- OrderIndex

TEST(OrderIndex, InsertAnywhereKeepsOrderStatistics) {
  OrderIndex index;
  std::vector<double> oracle;
  util::Rng rng(12345);
  for (int i = 0; i < 500; ++i) {
    double key;
    do {
      key = rng.uniform(0.0, 1000.0);
    } while (std::binary_search(oracle.begin(), oracle.end(), key));
    index.insert(key);
    oracle.insert(std::lower_bound(oracle.begin(), oracle.end(), key), key);
  }
  ASSERT_EQ(index.size(), oracle.size());
  for (std::size_t pos = 0; pos < oracle.size(); ++pos) {
    const OrderIndex::NodeId id = index.select(pos);
    EXPECT_EQ(index.key(id), oracle[pos]);
    EXPECT_EQ(index.rank(id), pos);
  }
  // The select walk above covers every position; the ends agree with it.
  EXPECT_EQ(index.front(), index.select(0));
  EXPECT_EQ(index.back(), index.select(oracle.size() - 1));
}

TEST(OrderIndex, FindAndPredecessorQueries) {
  OrderIndex index;
  for (double key : {10.0, 2.0, 7.0, 30.0, 21.0}) index.insert(key);
  EXPECT_EQ(index.key(index.find(7.0)), 7.0);
  EXPECT_EQ(index.find(8.0), OrderIndex::kNull);
  EXPECT_EQ(index.key(index.last_leq(8.0)), 7.0);
  EXPECT_EQ(index.key(index.last_leq(2.0)), 2.0);
  EXPECT_EQ(index.last_leq(1.9), OrderIndex::kNull);
  EXPECT_EQ(index.key(index.last_leq(1e9)), 30.0);
  EXPECT_EQ(index.key(index.front()), 2.0);
  EXPECT_EQ(index.key(index.back()), 30.0);
}

TEST(OrderIndex, NodeIdsAreStableAcrossInserts) {
  OrderIndex index;
  const auto id_five = index.insert(5.0);
  for (int i = 0; i < 100; ++i) index.insert(5.0 + double(i + 1));
  for (int i = 0; i < 100; ++i) index.insert(5.0 - double(i + 1));
  EXPECT_EQ(index.key(id_five), 5.0);  // untouched by 200 inserts around it
  EXPECT_EQ(index.rank(id_five), 100u);
}

TEST(OrderIndex, RejectsDuplicateKeyAndStaysConsistent) {
  OrderIndex index;
  index.insert(1.0);
  index.insert(3.0);
  index.insert(2.0);
  EXPECT_THROW((void)index.insert(2.0), std::invalid_argument);
  // The failed insert must not have corrupted the subtree counts: order
  // statistics still answer correctly and further inserts work.
  EXPECT_EQ(index.size(), 3u);
  EXPECT_EQ(index.key(index.select(1)), 2.0);
  EXPECT_EQ(index.rank(index.find(3.0)), 2u);
  index.insert(4.0);
  EXPECT_EQ(index.key(index.select(3)), 4.0);
  EXPECT_EQ(index.rank(index.find(4.0)), 3u);
}

TEST(OrderIndex, ClearEmptiesTheIndex) {
  OrderIndex index;
  index.insert(1.0);
  index.insert(2.0);
  index.clear();
  EXPECT_TRUE(index.empty());
  EXPECT_EQ(index.front(), OrderIndex::kNull);
  const auto id = index.insert(9.0);
  EXPECT_EQ(id, 0u);  // ids restart after clear
}

TEST(OrderIndex, EraseAgainstSortedOracle) {
  OrderIndex index;
  std::vector<double> oracle;
  util::Rng rng(4242);
  std::vector<OrderIndex::NodeId> live;
  for (int round = 0; round < 2000; ++round) {
    const bool do_erase = !live.empty() && rng.bernoulli(0.45);
    if (do_erase) {
      const std::size_t pick =
          std::size_t(rng.uniform_int(0, std::int64_t(live.size()) - 1));
      const OrderIndex::NodeId id = live[pick];
      const double key = index.key(id);
      index.erase(id);
      oracle.erase(std::lower_bound(oracle.begin(), oracle.end(), key));
      live.erase(live.begin() + std::ptrdiff_t(pick));
      EXPECT_FALSE(index.is_live(id));
    } else {
      double key;
      do {
        key = rng.uniform(0.0, 1000.0);
      } while (std::binary_search(oracle.begin(), oracle.end(), key));
      live.push_back(index.insert(key));
      oracle.insert(std::lower_bound(oracle.begin(), oracle.end(), key), key);
    }
    ASSERT_EQ(index.size(), oracle.size());
  }
  for (std::size_t pos = 0; pos < oracle.size(); ++pos) {
    const OrderIndex::NodeId id = index.select(pos);
    EXPECT_EQ(index.key(id), oracle[pos]);
    EXPECT_EQ(index.rank(id), pos);
  }
  // Erased slots were recycled: the slab never outgrew the high-water mark
  // of the live count by more than the churn allows.
  EXPECT_LE(index.slab_size(), 2000u);
}

TEST(OrderIndex, EraseRecyclesIdsLifo) {
  OrderIndex index;
  const auto a = index.insert(1.0);
  const auto b = index.insert(2.0);
  const auto c = index.insert(3.0);
  index.erase(b);
  index.erase(a);
  EXPECT_FALSE(index.is_live(a));
  EXPECT_FALSE(index.is_live(b));
  EXPECT_TRUE(index.is_live(c));
  // LIFO free list: the most recently freed id comes back first.
  EXPECT_EQ(index.insert(4.0), a);
  EXPECT_EQ(index.insert(5.0), b);
  EXPECT_EQ(index.insert(6.0), 3u);  // free list empty: fresh slot
  EXPECT_EQ(index.size(), 4u);
  EXPECT_EQ(index.slab_size(), 4u);
}

TEST(OrderIndex, EraseToEmptyAndRebuild) {
  OrderIndex index;
  std::vector<OrderIndex::NodeId> ids;
  for (int i = 0; i < 64; ++i) ids.push_back(index.insert(double(i)));
  for (const auto id : ids) index.erase(id);
  EXPECT_TRUE(index.empty());
  EXPECT_EQ(index.front(), OrderIndex::kNull);
  EXPECT_EQ(index.size(), 0u);
  for (int i = 0; i < 64; ++i) index.insert(double(i) + 0.5);
  EXPECT_EQ(index.size(), 64u);
  EXPECT_EQ(index.slab_size(), 64u);  // all slots came from the free list
  for (int i = 0; i < 64; ++i)
    EXPECT_EQ(index.key(index.select(std::size_t(i))), double(i) + 0.5);
}

TEST(OrderIndex, EraseOfDeadSlotThrows) {
  OrderIndex index;
  const auto a = index.insert(1.0);
  index.insert(2.0);
  index.erase(a);
  EXPECT_THROW(index.erase(a), std::invalid_argument);
  EXPECT_THROW(index.erase(99), std::invalid_argument);
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
  EXPECT_EQ(store.interval_of(2.0), 0u);
}

TEST(IntervalStore, SplitDividesLoadsProportionallyAndKeepsHandles) {
  IntervalStore store;
  store.ensure_boundary(0.0);
  store.ensure_boundary(4.0);
  const IntervalStore::Handle h = store.handle_at(0);
  store.set_load(h, 1, 4.0);
  const std::uint64_t epoch_before = store.epoch(h);

  EXPECT_EQ(store.ensure_boundary(1.0), IntervalStore::Refinement::kSplit);
  ASSERT_EQ(store.num_intervals(), 2u);
  // Left half keeps its handle at position 0; right half is a new handle.
  EXPECT_EQ(store.position_of(h), 0u);
  EXPECT_EQ(store.start_of(h), 0.0);
  EXPECT_EQ(store.end_of(h), 1.0);
  const IntervalStore::Handle right = store.handle_at(1);
  EXPECT_NE(right, h);
  EXPECT_EQ(store.start_of(right), 1.0);
  EXPECT_EQ(store.end_of(right), 4.0);
  // Loads divided 1/4 vs 3/4; both epochs advanced.
  EXPECT_DOUBLE_EQ(store.load_of(h, 1), 1.0);
  EXPECT_DOUBLE_EQ(store.load_of(right, 1), 3.0);
  EXPECT_DOUBLE_EQ(store.total_of(1), 4.0);
  EXPECT_GT(store.epoch(h), epoch_before);
  EXPECT_GT(store.epoch(right), epoch_before);
}

TEST(IntervalStore, AppendAndPrependExtendHorizon) {
  IntervalStore store;
  store.ensure_boundary(1.0);
  store.ensure_boundary(2.0);
  const IntervalStore::Handle first = store.handle_at(0);
  store.set_load(first, 9, 5.0);

  EXPECT_EQ(store.ensure_boundary(5.0), IntervalStore::Refinement::kAppend);
  EXPECT_EQ(store.ensure_boundary(0.0), IntervalStore::Refinement::kPrepend);
  ASSERT_EQ(store.num_intervals(), 3u);
  // The original interval kept its handle, moved to position 1, and its
  // loads and epoch were untouched by both extensions.
  EXPECT_EQ(store.position_of(first), 1u);
  EXPECT_DOUBLE_EQ(store.load_of(first, 9), 5.0);
  EXPECT_EQ(store.front_boundary(), 0.0);
  EXPECT_EQ(store.back_boundary(), 5.0);
  EXPECT_TRUE(store.loads(store.handle_at(0)).empty());
  EXPECT_TRUE(store.loads(store.handle_at(2)).empty());

  const auto range = store.range(0.0, 2.0);
  EXPECT_EQ(range.first, 0u);
  EXPECT_EQ(range.last, 2u);
  EXPECT_THROW((void)store.range(0.5, 2.0), std::invalid_argument);
  EXPECT_EQ(store.interval_of(4.9), 2u);
  EXPECT_THROW((void)store.interval_of(5.0), std::invalid_argument);
}

TEST(IntervalStore, SetLoadMatchesWorkAssignmentSemantics) {
  IntervalStore store;
  store.ensure_boundary(0.0);
  store.ensure_boundary(1.0);
  const auto h = store.handle_at(0);
  store.set_load(h, 1, 2.0);
  store.set_load(h, 2, 3.0);
  EXPECT_DOUBLE_EQ(store.interval_total(h), 5.0);
  const std::uint64_t epoch = store.epoch(h);
  store.set_load(h, 1, 0.0);  // zero erases and bumps the epoch
  EXPECT_DOUBLE_EQ(store.load_of(h, 1), 0.0);
  EXPECT_EQ(store.loads(h).size(), 1u);
  EXPECT_GT(store.epoch(h), epoch);
  store.set_load(h, 3, 0.0);  // zero for an absent job is a silent no-op
  EXPECT_EQ(store.epoch(h), epoch + 1);
  EXPECT_THROW(store.set_load(h, 1, -1.0), std::invalid_argument);
}

TEST(IntervalStore, SnapshotsMatchContiguousTypes) {
  IntervalStore store;
  for (double t : {4.0, 0.0, 2.0, 6.0}) store.ensure_boundary(t);
  store.set_load(store.handle_at(1), 1, 2.5);
  store.set_load(store.handle_at(2), 2, 1.5);

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
      indexed.store.set_load(indexed.store.handle_at(k), next_job, amount);
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
  state.store.set_load(state.store.handle_at(0), 0, 1000.0);
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
  // Spot-check order statistics at scale.
  EXPECT_EQ(state.store.interval_of(0.5), 0u);
  EXPECT_EQ(state.store.interval_of(double(kN) - 0.5), std::size_t(kN) - 1);
  const auto range = state.store.range(100.0, 200.0);
  EXPECT_EQ(range.size(), 100u);
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

// The store's time-order successor chain against the treap's order
// statistics: front_handle / next_handle visit exactly select(0..n-1), and
// every end_of is the next interval's start (the back boundary for the
// last interval).
void expect_successor_chain(const IntervalStore& store) {
  const std::size_t n = store.num_intervals();
  IntervalStore::Handle h = store.front_handle();
  for (std::size_t pos = 0; pos < n; ++pos) {
    ASSERT_EQ(h, store.handle_at(pos)) << "position " << pos;
    const double next_start = pos + 1 < n
                                  ? store.start_of(store.handle_at(pos + 1))
                                  : store.back_boundary();
    ASSERT_EQ(store.end_of(h), next_start) << "position " << pos;
    h = store.next_handle(h);
  }
  ASSERT_EQ(h, IntervalStore::kNoHandle);
}

TEST(IntervalStore, SuccessorChainSurvivesRandomRefinementAndCompaction) {
  util::Rng rng(515);
  IntervalStore store;
  std::vector<IntervalStore::Handle> freed;
  int splits = 0, appends = 0, prepends = 0, empties = 0, clears = 0;
  for (int step = 0; step < 4000; ++step) {
    const double u = rng.uniform(0.0, 1.0);
    if (u < 0.02) {
      store.clear();
      ++clears;
    } else if (u < 0.12 && store.num_intervals() > 0) {
      // Compact a prefix; one time in five past the back, to empty.
      const double lo = store.front_boundary();
      const double hi = store.back_boundary();
      const double frontier = rng.bernoulli(0.2) ? hi + 1.0
                                                 : rng.uniform(lo, hi);
      freed.clear();
      (void)store.compact_before(frontier, freed);
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
      // Give a random interval a load so splits divide real work.
      if (store.num_intervals() > 0 && rng.bernoulli(0.3)) {
        const auto pos = std::size_t(
            rng.uniform_int(0, std::int64_t(store.num_intervals()) - 1));
        store.set_load(store.handle_at(pos), step, rng.uniform(0.1, 2.0));
      }
    }
    expect_successor_chain(store);
    if (HasFatalFailure()) FAIL() << "after step " << step;
  }
  // Every mutation kind was exercised, including regrowth after emptying.
  EXPECT_GT(splits, 100);
  EXPECT_GT(appends, 100);
  EXPECT_GT(prepends, 50);
  EXPECT_GT(empties, 5);
  EXPECT_GT(clears, 20);
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
