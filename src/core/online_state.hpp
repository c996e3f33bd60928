// Shared online state for arrival-driven schedulers: a time partition that
// refines as jobs reveal new boundaries, kept in lockstep with a work
// assignment whose committed loads split proportionally (Section 3,
// "Concerning the Time Partitioning"). Used by both the integral PD
// scheduler and the fractional variant.
//
// Two interchangeable backends hold the state:
//   * contiguous (indexed == false): TimePartition + WorkAssignment, the
//     reference representation. Every refinement shifts vector tails, so
//     ensure_boundary is O(n) — kept as the bitwise-identical baseline the
//     differential suite compares against.
//   * indexed (indexed == true): model::IntervalStore, an order-statistics
//     indexed store with stable interval handles and O(log n) refinement.
//     Caches keyed by handle need no structural mirroring at all — a split
//     allocates a fresh handle for the right half and bumps epochs, which
//     the epoch/length validation of CurveCache already detects.
//
// Select the backend before the first ensure_boundary.
#pragma once

#include <cstddef>

#include "core/curve_cache.hpp"
#include "model/interval_store.hpp"
#include "model/time_partition.hpp"
#include "model/work_assignment.hpp"
#include "util/assert.hpp"

namespace pss::core {

struct OnlineState {
  bool indexed = false;  // backend selector; set before first use

  // Contiguous backend (live when !indexed).
  model::TimePartition partition;
  model::WorkAssignment assignment;
  // Indexed backend (live when indexed).
  model::IntervalStore store;

  long long interval_splits = 0;
  long long horizon_extensions = 0;

  /// Makes t a boundary, splitting committed loads proportionally when t
  /// falls inside an existing interval. When a CurveCache is passed on the
  /// contiguous backend, the structural change is mirrored into it so
  /// cached insertion curves stay aligned with their intervals
  /// (set_load-level invalidation is handled by WorkAssignment epochs, not
  /// here). The indexed backend ignores the cache argument: handle-keyed
  /// cache entries survive refinements by construction.
  void ensure_boundary(double t, CurveCache* cache = nullptr) {
    if (indexed) {
      // Lazy water-level hooks (no-ops unless the cache has lazy mode on):
      // before — materialize a pending annotation the new boundary would
      // split; after — classify the new boundary against the uniform grid.
      if (cache) cache->before_boundary(store, t);
      switch (store.ensure_boundary(t)) {
        case model::IntervalStore::Refinement::kSplit:
          ++interval_splits;
          break;
        case model::IntervalStore::Refinement::kAppend:
        case model::IntervalStore::Refinement::kPrepend:
          ++horizon_extensions;
          break;
        case model::IntervalStore::Refinement::kNoop:
        case model::IntervalStore::Refinement::kBootstrap:
          break;
      }
      if (cache) cache->after_boundary(store, t);
      return;
    }
    if (partition.has_boundary(t)) return;
    if (partition.boundaries().size() < 2) {
      partition.insert_boundary(t);
      if (partition.boundaries().size() == 2) {
        assignment.append_interval();
        if (cache) cache->on_append();
      }
      return;
    }
    const double lo = partition.boundaries().front();
    const double hi = partition.boundaries().back();
    const std::size_t split = partition.insert_boundary(t);
    if (split != std::size_t(-1)) {
      const double frac =
          (t - partition.start(split)) /
          (partition.end(split + 1) - partition.start(split));
      assignment.split_interval(split, frac);
      if (cache) cache->on_split(split);
      ++interval_splits;
    } else if (t > hi) {
      assignment.append_interval();
      if (cache) cache->on_append();
      ++horizon_extensions;
    } else if (t < lo) {
      ++horizon_extensions;
      assignment.prepend_interval();
      if (cache) cache->on_prepend();
    }
    PSS_CHECK(assignment.num_intervals() == partition.num_intervals(),
              "assignment drifted from partition");
  }

  [[nodiscard]] std::size_t num_intervals() const {
    return indexed ? store.num_intervals() : partition.num_intervals();
  }
};

}  // namespace pss::core
