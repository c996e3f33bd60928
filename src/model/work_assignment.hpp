// Work assignment: how much of each job's workload is placed into each
// atomic interval. This is the variable domain of the convex program (CP)
// of Fig. 1, stored as absolute loads u_{jk} = x_{jk} * w_j (the analysis
// and Chen et al.'s algorithm both operate on absolute work).
#pragma once

#include <cstddef>
#include <vector>

#include "model/job.hpp"

namespace pss::model {

struct Load {
  JobId job = -1;
  double amount = 0.0;
};

class WorkAssignment {
 public:
  WorkAssignment() = default;
  explicit WorkAssignment(std::size_t num_intervals)
      : per_interval_(num_intervals) {}

  [[nodiscard]] std::size_t num_intervals() const {
    return per_interval_.size();
  }

  /// All nonzero loads in interval k (unsorted).
  [[nodiscard]] const std::vector<Load>& loads(std::size_t k) const {
    return per_interval_[k];
  }

  /// Load of a specific job in interval k (0 if absent).
  [[nodiscard]] double load_of(std::size_t k, JobId job) const;

  /// Sets the load of `job` in interval k (replaces any previous load;
  /// amount 0 removes the entry).
  void set_load(std::size_t k, JobId job, double amount);

  /// Removes all loads of `job` everywhere; returns the removed total.
  double remove_job(JobId job);

  /// Total work assigned to `job` across all intervals.
  [[nodiscard]] double total_of(JobId job) const;

  /// Total work assigned in interval k across all jobs.
  [[nodiscard]] double interval_total(std::size_t k) const;

  /// Appends an empty interval at the back.
  void append_interval() { per_interval_.emplace_back(); }

  /// Inserts an empty interval at the front (online horizon extension to
  /// the left); all interval indices shift up by one.
  void prepend_interval() { per_interval_.emplace(per_interval_.begin()); }

  /// Splits interval k into two intervals with length fractions
  /// frac and 1-frac (0 < frac < 1); loads split proportionally. All
  /// interval indices >= k+1 shift up by one. Mirrors
  /// TimePartition::insert_boundary, implementing the online refinement of
  /// Section 3.
  void split_interval(std::size_t k, double frac);

 private:
  std::vector<std::vector<Load>> per_interval_;
};

}  // namespace pss::model
