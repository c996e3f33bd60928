// Atomic-interval time partition (Section 2.1).
//
// The timeline is split at every release time and deadline into atomic
// intervals T_k = [tau_{k-1}, tau_k). Because a job's availability window
// [r_j, d_j) is a union of *consecutive* atomic intervals, the paper's
// indicator c_{jk} is represented here as a half-open interval index range.
//
// The partition also supports the online refinement of Section 3
// ("Concerning the Time Partitioning"): when a new job introduces a boundary
// in the middle of an existing interval, the interval splits and previously
// committed work splits proportionally to the sub-lengths (handled by
// WorkAssignment::split_interval via the index returned from
// insert_boundary).
//
// Handle vs position. This class only knows *positions*: interval k is
// "the k-th interval in time order", and every insert_boundary shifts the
// positions (and the backing vector) of all downstream intervals — O(n)
// per refinement. The online engine's model::IntervalStore additionally
// gives every interval a stable *handle* that survives splits, appends and
// prepends, which is what lets caches keyed by interval identity (the
// insertion-curve cache, most importantly) ignore refinements entirely and
// drops the refinement cost to O(log n). This contiguous representation is
// what the offline solvers use, and what core::ReferencePd refines online
// as the bitwise reference.
#pragma once

#include <cstddef>
#include <vector>

#include "model/instance.hpp"

namespace pss::model {

struct IntervalRange {
  std::size_t first = 0;  // inclusive
  std::size_t last = 0;   // exclusive

  [[nodiscard]] bool contains(std::size_t k) const {
    return k >= first && k < last;
  }
  [[nodiscard]] std::size_t size() const { return last - first; }
};

class TimePartition {
 public:
  TimePartition() = default;

  /// Builds the partition from all release times and deadlines of `jobs`.
  [[nodiscard]] static TimePartition from_jobs(const std::vector<Job>& jobs);

  /// Builds from explicit boundary times (sorted, deduplicated internally).
  [[nodiscard]] static TimePartition from_boundaries(std::vector<double> times);

  [[nodiscard]] std::size_t num_intervals() const {
    return boundaries_.empty() ? 0 : boundaries_.size() - 1;
  }
  [[nodiscard]] double start(std::size_t k) const { return boundaries_[k]; }
  [[nodiscard]] double end(std::size_t k) const { return boundaries_[k + 1]; }
  [[nodiscard]] double length(std::size_t k) const {
    return boundaries_[k + 1] - boundaries_[k];
  }
  [[nodiscard]] const std::vector<double>& boundaries() const {
    return boundaries_;
  }

  /// Index range of atomic intervals covered by [t0, t1). Both t0 and t1
  /// must be existing boundaries.
  [[nodiscard]] IntervalRange range(double t0, double t1) const;

  /// Availability range of a job (its [release, deadline) window).
  [[nodiscard]] IntervalRange job_range(const Job& job) const {
    return range(job.release, job.deadline);
  }

  /// Index of the interval containing time t (t in [start, end)).
  [[nodiscard]] std::size_t interval_of(double t) const;

  /// True if t is already a boundary.
  [[nodiscard]] bool has_boundary(double t) const;

  /// Inserts a new boundary time. Returns the index of the interval that was
  /// split (i.e., the new boundary's left interval), or SIZE_MAX if t was
  /// already a boundary or lies outside the current horizon (in which case
  /// the horizon is extended instead of splitting).
  std::size_t insert_boundary(double t);

 private:
  std::vector<double> boundaries_;  // strictly increasing, size >= 2 once built
};

}  // namespace pss::model
