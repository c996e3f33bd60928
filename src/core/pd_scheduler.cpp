#include "core/pd_scheduler.hpp"

#include <algorithm>
#include <cmath>

#include "chen/interval_schedule.hpp"
#include "chen/realize.hpp"
#include "convex/water_fill.hpp"
#include "core/rejection.hpp"
#include "model/power.hpp"
#include "util/assert.hpp"
#include "util/math.hpp"

namespace pss::core {

PdScheduler::PdScheduler(model::Machine machine, PdOptions options)
    : machine_(machine),
      delta_(options.delta.value_or(optimal_delta(machine.alpha))),
      record_decisions_(options.record_decisions) {
  PSS_REQUIRE(machine_.num_processors >= 1, "need at least one processor");
  PSS_REQUIRE(machine_.alpha > 1.0, "alpha must exceed 1");
  PSS_REQUIRE(delta_ > 0.0, "delta must be positive");
}

void PdScheduler::advance_to(double t, bool compact) {
  PSS_REQUIRE(std::isfinite(t), "advance target must be finite");
  PSS_REQUIRE(first_arrival_ ||
                  t >= last_release_ - util::clock_tol(last_release_),
              "advance_to must move the clock forward");
  // Structure-free on purpose: a pure clock advance inserts no boundary
  // and dirties no cache, so heartbeat ticks cannot grow the partition.
  first_arrival_ = false;
  last_release_ = std::max(last_release_, t);
  if (compact) compact_before(t - util::clock_tol(t));
}

void PdScheduler::compact_before(double frontier) {
  model::IntervalStore& store = state_.store;
  if (store.num_intervals() == 0) return;
  // Fast exit for the common per-tick case: nothing retires.
  if (store.end_of(store.front_handle()) > frontier) return;
  // planned_energy() continues from this accumulator in the same order, so
  // it reproduces the uncompacted sum bitwise.
  retired_energy_ = energy_through(frontier, retired_energy_);
  const std::size_t retired = store.compact_before(frontier);
  if (retired == 0) return;
  ++counters_.compactions;
  counters_.compacted_intervals += static_cast<long long>(retired);
}

void PdScheduler::reset() {
  state_ = OnlineState{};
  cache_.reset();
  decisions_.clear();
  counters_ = PdCounters{};
  retired_energy_ = 0.0;
  last_release_ = -1.0;
  first_arrival_ = true;
}

ArrivalDecision PdScheduler::on_arrival(const model::Job& job) {
  PSS_REQUIRE(job.deadline > job.release, "bad job window");
  PSS_REQUIRE(job.work > 0.0, "job work must be positive");
  PSS_REQUIRE(job.value > 0.0, "job value must be positive");
  PSS_REQUIRE(!first_arrival_
                  ? job.release >=
                        last_release_ - util::clock_tol(last_release_)
                  : true,
              "jobs must arrive in nondecreasing release order");
  last_release_ = std::max(last_release_, job.release);

  state_.ensure_boundary(job.release);
  first_arrival_ = false;
  state_.ensure_boundary(job.deadline);

  const double alpha = machine_.alpha;
  const model::PowerFunction power(alpha);
  const auto window = state_.store.span(job.release, job.deadline);
  const double s_reject = rejection_speed(job.value, job.work, alpha, delta_);

  // Water-fill the job over its window's insertion curves up to the
  // rejection speed; no placement means the cap was hit first. One walk
  // over the window gathers the curves and their values at the cap, which
  // decide most rejections on their own. A job id that already holds load
  // in the window is refused here, before any commit (std::invalid_argument).
  const convex::WindowCurves curves = cache_.curves_for(
      state_.store, machine_.num_processors, window, job.id, s_reject);
  const auto placement = convex::water_fill_over_curves(curves, job.work,
                                                        cache_.sum_scratch());

  ArrivalDecision decision;
  if (placement.has_value()) {
    // Line 11(a): full workload placed at uniform own-speed s*. The job
    // holds no load in the window (curves_for checked), so each share is
    // appended without a search.
    std::size_t i = 0;
    for (model::IntervalStore::Handle h = window.first; h != window.last;
         h = state_.store.next_handle(h))
      state_.store.append_load(h, job.id, placement->amounts[i++]);
    const double level = placement->speed;
    decision.accepted = true;
    decision.speed = level;
    decision.lambda = delta_ * job.work * power.derivative(level);
    decision.planned_energy = job.work * util::pos_pow(level, alpha - 1.0);
  } else {
    // Line 12(b): the marginal hit v_j first; reset loads, fix lambda = v.
    decision.accepted = false;
    decision.speed = s_reject;
    decision.lambda = job.value;
    decision.planned_energy = 0.0;
  }
  ++counters_.arrivals;
  (decision.accepted ? counters_.accepted : counters_.rejected) += 1;
  counters_.interval_splits = state_.interval_splits;
  counters_.horizon_extensions = state_.horizon_extensions;
  counters_.curve_cache_hits = cache_.stats().hits;
  counters_.curve_cache_rebuilds = cache_.stats().rebuilds;
  counters_.max_intervals =
      std::max(counters_.max_intervals, state_.num_intervals());
  counters_.max_window =
      std::max(counters_.max_window, curves.curves.size());
  if (record_decisions_) decisions_.push_back({job.id, decision});
  return decision;
}

double PdScheduler::energy_through(double frontier, double energy) const {
  // Left to right, skipping empty intervals, with the lengths and load
  // lists the contiguous snapshot would hold: convex::assignment_energy's
  // exact summation, without materializing the snapshot.
  const model::IntervalStore& store = state_.store;
  for (model::IntervalStore::Handle h = store.front_handle();
       h != model::IntervalStore::kNoHandle && store.end_of(h) <= frontier;
       h = store.next_handle(h)) {
    if (store.loads(h).empty()) continue;
    energy += chen::interval_energy(store.loads(h), machine_.num_processors,
                                    store.length_of(h), machine_.alpha);
  }
  return energy;
}

double PdScheduler::planned_energy() const {
  return energy_through(util::kInf, retired_energy_);
}

model::Schedule PdScheduler::final_schedule() const {
  model::Schedule schedule = chen::realize_assignment(
      state_.store.snapshot_assignment(), state_.store.snapshot_partition(),
      machine_.num_processors);
  for (const auto& [id, decision] : decisions_)
    if (!decision.accepted) schedule.mark_rejected(id);
  return schedule;
}

}  // namespace pss::core
