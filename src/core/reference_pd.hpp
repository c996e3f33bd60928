// Reference PD: a direct transcription of Listing 1 over the contiguous
// TimePartition + WorkAssignment representation, kept as the bitwise
// reference the differential suite holds the production engine
// (core::PdScheduler) to. Its Section-3 refinement, refine_partition, is
// also the state machine of core::run_fractional_pd, which runs on the same
// contiguous representation.
//
// Nothing here is fast on purpose: every arrival refines the partition by
// O(n) vector shifts (Section 3), rebuilds every insertion curve of its
// window from the committed loads and water-fills over the materialized
// curve sum (convex::water_fill), and commits its loads eagerly. There is
// no index, cache or compaction — the production engine's mechanisms are
// all optimizations of exactly this arithmetic, and each one must
// reproduce it bit for bit.
#pragma once

#include <optional>
#include <utility>
#include <vector>

#include "core/pd_scheduler.hpp"
#include "model/instance.hpp"
#include "model/interval_store.hpp"
#include "model/schedule.hpp"
#include "model/time_partition.hpp"
#include "model/work_assignment.hpp"

namespace pss::core {

/// Section-3 refinement on the contiguous representation: makes t a
/// boundary of `partition`, splitting the committed loads of `assignment`
/// proportionally when t falls inside an interval. Classifies the step
/// exactly as model::IntervalStore::ensure_boundary does, so both
/// representations count splits and horizon extensions alike.
model::IntervalStore::Refinement refine_partition(
    model::TimePartition& partition, model::WorkAssignment& assignment,
    double t);

class ReferencePd {
 public:
  explicit ReferencePd(model::Machine machine,
                       std::optional<double> delta = std::nullopt);

  /// Processes one arrival (nondecreasing release order, same checks and
  /// tolerance as PdScheduler::on_arrival, a repeated id holding load in
  /// the window refused after refinement as there) and commits the
  /// decision.
  ArrivalDecision on_arrival(const model::Job& job);

  [[nodiscard]] double planned_energy() const;
  [[nodiscard]] model::Schedule final_schedule() const;
  [[nodiscard]] const model::TimePartition& partition() const {
    return partition_;
  }
  [[nodiscard]] const model::WorkAssignment& assignment() const {
    return assignment_;
  }
  [[nodiscard]] const std::vector<std::pair<model::JobId, ArrivalDecision>>&
  decisions() const {
    return decisions_;
  }
  [[nodiscard]] long long interval_splits() const { return interval_splits_; }

 private:
  model::Machine machine_;
  double delta_;
  model::TimePartition partition_;
  model::WorkAssignment assignment_;
  std::vector<std::pair<model::JobId, ArrivalDecision>> decisions_;
  long long interval_splits_ = 0;
  double last_release_ = -1.0;
  bool first_arrival_ = true;
};

}  // namespace pss::core
