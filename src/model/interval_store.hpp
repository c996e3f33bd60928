// Stable-handle interval store: the online state behind the time
// partition refinement of Section 3 ("Concerning the Time Partitioning").
//
// The contiguous representation (TimePartition + WorkAssignment) pays O(n)
// per refinement: inserting a boundary shifts the tail of a sorted
// std::vector<double>, and the matching split/prepend shifts a
// vector-of-vectors of loads. This store keeps the same state — interval
// boundaries and per-interval committed loads — plus each interval's
// cached insertion curve, in a payload slab addressed by handle, with a
// std::map from interval start to handle, so ensure_boundary and span are
// O(log n).
//
// Intervals are addressed by Handle only — a slab id fixed at creation.
// Splits, appends and prepends never renumber existing handles. There are
// no positions: a placement window is a Span of handles, walked in time
// order through the successor handle every payload keeps (maintained by
// split / append / prepend / compaction), so next_handle, start_of and
// end_of are O(1) array reads. The map is read only to turn a boundary
// time into a handle.
//
// Cached curves. PD never redistributes committed load (Listing 1, the
// property behind Theorem 3), so an interval's insertion curve z_k(s)
// (Eq. 5/6) changes only when its own loads or length change, and only
// this store makes those changes. Each payload therefore carries the
// interval's curve and a fresh flag; every such change clears the flag
// (set_load and a nonzero append_load, both halves of a split, a newly
// allocated or recycled handle), and the store builds no curve itself:
// core::CurveCache::curves_for rebuilds a stale curve in place and marks
// it fresh. Curves are derived state — a store whose curves are all stale
// serves bitwise-identical curves — so checkpoints never carry them.
//
// The store also keeps a job watermark, max_job(): the largest id ever
// given a nonzero load since clear(). Nothing lowers it, so no live load
// carries a larger id, and an arrival above it (every arrival, while ids
// rise) needs no load-list search to prove it is not a repeated id. It is
// derived from the loads, never serialized: a restore that replays the
// loads through set_load rebuilds a watermark that is just as sound.
//
// The arithmetic of a split (the proportional load division) replicates
// WorkAssignment::split_interval operation for operation, so a scheduler
// running on this store commits bitwise-identical decisions to one running
// on the contiguous pair (tests/test_differential.cpp proves it end to
// end).
#pragma once

#include <cstddef>
#include <cstdint>
#include <limits>
#include <map>
#include <optional>
#include <vector>

#include "model/time_partition.hpp"
#include "model/work_assignment.hpp"
#include "util/piecewise_linear.hpp"

namespace pss::model {

class IntervalStore {
 public:
  using Handle = std::uint32_t;
  static constexpr Handle kNoHandle = 0xffffffffu;

  /// The intervals of a window [t0, t1) in time order: walk from `first`
  /// through next_handle until `last` (exclusive; kNoHandle when the window
  /// runs to the back boundary).
  struct Span {
    Handle first = kNoHandle;
    Handle last = kNoHandle;
  };

  /// What ensure_boundary did, mirroring the cases of the contiguous
  /// core::refine_partition so callers keep identical counters.
  enum class Refinement {
    kNoop,       // t was already a boundary (or the very first one)
    kBootstrap,  // second distinct boundary: the first interval appeared
    kSplit,      // t fell inside an interval: split, loads divided
    kAppend,     // t beyond the back boundary: horizon extended right
    kPrepend,    // t before the front boundary: horizon extended left
  };

  IntervalStore() = default;

  /// Returns the store to the freshly-constructed state.
  void clear();

  /// Makes t a boundary. Splits divide the interval's committed loads
  /// proportionally to the sub-lengths (Section 3); the left half keeps
  /// its handle, the right half gets a new one, and both curves go stale.
  Refinement ensure_boundary(double t);

  /// Retires every interval whose end is <= frontier, front to back. A
  /// retired slot drops its loads and its curve's knots, and its handle is
  /// recycled LIFO by later refinements (stale, like a new one), so
  /// steady-state serving holds O(live intervals) slab memory. If
  /// everything retires, the back boundary survives as the bootstrap
  /// boundary, so future refinements extend from the old horizon exactly
  /// like the uncompacted store. Returns the number of intervals retired.
  std::size_t compact_before(double frontier);

  // -- partition queries ----------------------------------------------------
  [[nodiscard]] std::size_t num_intervals() const { return index_.size(); }
  [[nodiscard]] std::size_t num_boundaries() const {
    if (!index_.empty()) return index_.size() + 1;
    return lone_boundary_.has_value() ? 1 : 0;
  }
  [[nodiscard]] bool has_boundary(double t) const;
  /// First / last boundary; require num_boundaries() >= 1.
  [[nodiscard]] double front_boundary() const;
  [[nodiscard]] double back_boundary() const;
  /// The intervals covering [t0, t1); both must be existing boundaries.
  [[nodiscard]] Span span(double t0, double t1) const;

  // -- handles, geometry (O(1)) ---------------------------------------------
  /// In-order walk; kNoHandle after the last interval.
  [[nodiscard]] Handle next_handle(Handle h) const { return payload_[h].next; }
  /// First interval in time order, or kNoHandle when there are none.
  [[nodiscard]] Handle front_handle() const { return head_; }
  [[nodiscard]] double start_of(Handle h) const { return payload_[h].start; }
  [[nodiscard]] double end_of(Handle h) const {
    const Handle n = payload_[h].next;
    return n == kNoHandle ? end_ : payload_[n].start;
  }
  [[nodiscard]] double length_of(Handle h) const {
    return end_of(h) - start_of(h);
  }

  // -- loads (by handle, O(1) plus the load-list scan) ----------------------
  [[nodiscard]] const std::vector<Load>& loads(Handle h) const {
    return payload_[h].loads;
  }
  [[nodiscard]] double load_of(Handle h, JobId job) const;
  /// Replaces `job`'s load in the interval (0 removes); the curve goes
  /// stale unless the load list is left as it was (0 for an absent job).
  void set_load(Handle h, JobId job, double amount);
  /// set_load for a job that holds no load in the interval (the caller
  /// has established that), without set_load's search of the load list:
  /// appends the load and stales the curve; 0 is a no-op, as in set_load.
  void append_load(Handle h, JobId job, double amount);
  /// Watermark of the job ids in the store: the largest id given a nonzero
  /// load since clear() (kNoJob if none). Removals, splits and compaction
  /// leave it as is, so no live load carries a larger id — a job above it
  /// holds no load anywhere, which makes the repeated-id check O(1) while
  /// ids rise.
  [[nodiscard]] JobId max_job() const { return max_job_; }
  static constexpr JobId kNoJob = std::numeric_limits<JobId>::min();
  [[nodiscard]] double interval_total(Handle h) const;
  /// Total work of `job` across all intervals (O(n); cold path).
  [[nodiscard]] double total_of(JobId job) const;

  // -- cached insertion curves (by handle, O(1)) ----------------------------
  /// The interval's cached curve. Meaningful only while fresh(h); a stale
  /// one is rebuilt in place by its one builder, core::CurveCache.
  [[nodiscard]] util::PiecewiseLinear& curve(Handle h) {
    return payload_[h].curve;
  }
  /// Whether curve(h) was built from the interval's current loads and
  /// length.
  [[nodiscard]] bool fresh(Handle h) const { return payload_[h].fresh; }
  /// Records that curve(h) was just built from the current loads and
  /// length; the next change to either clears it again.
  void mark_fresh(Handle h) { payload_[h].fresh = true; }

  /// Upper bound on ever-allocated handle values: the slab's length.
  [[nodiscard]] std::size_t handle_space() const { return payload_.size(); }

  // -- cold-path materialization into the contiguous types -----------------
  /// Boundaries in time order as a TimePartition (O(n)).
  [[nodiscard]] TimePartition snapshot_partition() const;
  /// Loads in time order as a WorkAssignment (O(total loads)).
  [[nodiscard]] WorkAssignment snapshot_assignment() const;

 private:
  struct Payload {
    std::vector<Load> loads;
    util::PiecewiseLinear curve;  // see fresh()
    double start = 0.0;
    Handle next = kNoHandle;  // time-order successor
    bool fresh = false;       // curve built from the current loads, length
  };
  // One payload per handle ever allocated, so its size shows in peak RSS.
  static_assert(sizeof(Payload) <= 80);

  /// Hands out a handle for a new interval starting at `start` and linked
  /// in front of `next` in time order (the caller relinks its predecessor):
  /// the most recently freed handle if any, else a fresh slab slot.
  Handle allocate(double start, Handle next);

  std::map<double, Handle> index_;  // interval start -> handle
  std::vector<Payload> payload_;    // indexed by handle
  std::vector<Handle> free_;        // retired handles, reused LIFO
  Handle head_ = kNoHandle;         // first interval in time order
  Handle tail_ = kNoHandle;         // last interval in time order
  JobId max_job_ = kNoJob;          // see max_job()
  double end_ = 0.0;                // end of the last interval (back boundary)
  std::optional<double> lone_boundary_;  // bootstrap: one boundary, no interval
};

}  // namespace pss::model
