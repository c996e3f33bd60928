#include "core/fractional_pd.hpp"

#include <algorithm>
#include <cmath>

#include "chen/realize.hpp"
#include "convex/dual.hpp"
#include "convex/solver.hpp"
#include "convex/water_fill.hpp"
#include "core/reference_pd.hpp"
#include "core/rejection.hpp"
#include "model/power.hpp"
#include "util/assert.hpp"
#include "util/math.hpp"

namespace pss::core {

FractionalPdResult run_fractional_pd(const model::Instance& instance,
                                     FractionalPdOptions options) {
  PSS_REQUIRE(instance.num_jobs() > 0, "empty instance");
  const model::Machine machine = instance.machine();
  const double alpha = machine.alpha;
  const double delta = options.delta.value_or(1.0);
  const model::PowerFunction power(alpha);
  FractionalPdResult result;
  result.fraction.assign(instance.num_jobs(), 0.0);
  result.lambda.assign(instance.num_jobs(), 0.0);
  model::TimePartition& partition = result.partition;
  model::WorkAssignment& assignment = result.assignment;

  for (const model::Job& job : instance.jobs_by_release()) {
    refine_partition(partition, assignment, job.release);
    refine_partition(partition, assignment, job.deadline);
    const auto window = partition.job_range(job);
    const double s_cap = rejection_speed(job.value, job.work, alpha, delta);

    // Work the window absorbs below the marginal price v_j; serve up to w.
    const double capacity =
        std::isfinite(s_cap)
            ? convex::window_capacity(assignment, partition,
                                      machine.num_processors, window, s_cap,
                                      job.id)
            : util::kInf;
    const double target = std::min(job.work, capacity);
    if (target <= 1e-12 * job.work) {
      result.lambda[std::size_t(job.id)] = job.value;
      continue;  // fully unserved
    }
    const auto placement =
        convex::water_fill(assignment, partition, machine.num_processors,
                           window, target, util::kInf, job.id);
    PSS_CHECK(placement.has_value(), "fractional placement failed");
    for (std::size_t i = 0; i < window.size(); ++i)
      assignment.set_load(window.first + i, job.id, placement->amounts[i]);
    result.fraction[std::size_t(job.id)] = target / job.work;
    // Full service below the cap fixes lambda at the realized marginal;
    // partial service means the marginal hit the price v_j.
    result.lambda[std::size_t(job.id)] =
        target < job.work ? job.value
                          : delta * job.work * power.derivative(
                                                   placement->speed);
  }

  result.schedule = chen::realize_assignment(assignment, partition,
                                             machine.num_processors);
  result.energy = convex::assignment_energy(assignment, partition,
                                            machine.num_processors, alpha);
  for (const model::Job& job : instance.jobs())
    if (job.rejectable())
      result.lost_value +=
          (1.0 - result.fraction[std::size_t(job.id)]) * job.value;
  result.dual_lower_bound =
      convex::dual_value(instance, partition, result.lambda).value;
  return result;
}

}  // namespace pss::core
