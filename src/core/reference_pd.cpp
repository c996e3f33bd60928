#include "core/reference_pd.hpp"

#include <algorithm>
#include <cmath>

#include "chen/realize.hpp"
#include "convex/solver.hpp"
#include "convex/water_fill.hpp"
#include "core/rejection.hpp"
#include "model/power.hpp"
#include "util/assert.hpp"
#include "util/math.hpp"

namespace pss::core {

using Refinement = model::IntervalStore::Refinement;

Refinement refine_partition(model::TimePartition& partition,
                            model::WorkAssignment& assignment, double t) {
  if (partition.has_boundary(t)) return Refinement::kNoop;
  if (partition.boundaries().size() < 2) {
    partition.insert_boundary(t);
    if (partition.boundaries().size() < 2) return Refinement::kNoop;
    assignment.append_interval();
    return Refinement::kBootstrap;
  }
  const double lo = partition.boundaries().front();
  const double hi = partition.boundaries().back();
  const std::size_t split = partition.insert_boundary(t);
  Refinement kind;
  if (split != std::size_t(-1)) {
    const double frac = (t - partition.start(split)) /
                        (partition.end(split + 1) - partition.start(split));
    assignment.split_interval(split, frac);
    kind = Refinement::kSplit;
  } else if (t > hi) {
    assignment.append_interval();
    kind = Refinement::kAppend;
  } else {
    PSS_CHECK(t < lo, "boundary neither inside nor outside the horizon");
    assignment.prepend_interval();
    kind = Refinement::kPrepend;
  }
  PSS_CHECK(assignment.num_intervals() == partition.num_intervals(),
            "assignment drifted from partition");
  return kind;
}

ReferencePd::ReferencePd(model::Machine machine, std::optional<double> delta)
    : machine_(machine),
      delta_(delta.value_or(optimal_delta(machine.alpha))) {
  PSS_REQUIRE(machine_.num_processors >= 1, "need at least one processor");
  PSS_REQUIRE(machine_.alpha > 1.0, "alpha must exceed 1");
  PSS_REQUIRE(delta_ > 0.0, "delta must be positive");
}

ArrivalDecision ReferencePd::on_arrival(const model::Job& job) {
  PSS_REQUIRE(job.deadline > job.release, "bad job window");
  PSS_REQUIRE(job.work > 0.0, "job work must be positive");
  PSS_REQUIRE(job.value > 0.0, "job value must be positive");
  PSS_REQUIRE(first_arrival_ ||
                  job.release >= last_release_ - util::clock_tol(last_release_),
              "jobs must arrive in nondecreasing release order");
  last_release_ = std::max(last_release_, job.release);
  first_arrival_ = false;
  for (const double t : {job.release, job.deadline})
    if (refine_partition(partition_, assignment_, t) == Refinement::kSplit)
      ++interval_splits_;

  // Lines 5-12: raise the job's loads across its window at equal marginal
  // cost until the work is placed (accept) or the marginal reaches v_j
  // (reject). Committed loads of earlier jobs stay where they are.
  const double alpha = machine_.alpha;
  const auto window = partition_.job_range(job);
  const double s_reject = rejection_speed(job.value, job.work, alpha, delta_);
  const auto placement =
      convex::water_fill(assignment_, partition_, machine_.num_processors,
                         window, job.work, s_reject, job.id);
  ArrivalDecision decision;
  if (!placement.has_value()) {
    decision.speed = s_reject;
    decision.lambda = job.value;
  } else {
    decision.accepted = true;
    decision.speed = placement->speed;
    decision.lambda = delta_ * job.work *
                      model::PowerFunction(alpha).derivative(placement->speed);
    decision.planned_energy =
        job.work * util::pos_pow(placement->speed, alpha - 1.0);
    for (std::size_t i = 0; i < window.size(); ++i)
      assignment_.set_load(window.first + i, job.id, placement->amounts[i]);
  }
  decisions_.push_back({job.id, decision});
  return decision;
}

double ReferencePd::planned_energy() const {
  return convex::assignment_energy(assignment_, partition_,
                                   machine_.num_processors, machine_.alpha);
}

model::Schedule ReferencePd::final_schedule() const {
  model::Schedule schedule = chen::realize_assignment(
      assignment_, partition_, machine_.num_processors);
  for (const auto& [id, decision] : decisions_)
    if (!decision.accepted) schedule.mark_rejected(id);
  return schedule;
}

}  // namespace pss::core
