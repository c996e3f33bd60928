#include "core/pd_scheduler.hpp"

#include <algorithm>
#include <cmath>

#include "chen/interval_schedule.hpp"
#include "chen/realize.hpp"
#include "convex/solver.hpp"
#include "convex/water_fill.hpp"
#include "core/rejection.hpp"
#include "model/power.hpp"
#include "util/assert.hpp"
#include "util/math.hpp"

namespace pss::core {

PdScheduler::PdScheduler(model::Machine machine, PdOptions options)
    : machine_(machine),
      delta_(options.delta.value_or(optimal_delta(machine.alpha))),
      windowed_(options.windowed),
      lazy_(options.lazy),
      record_decisions_(options.record_decisions) {
  PSS_REQUIRE(machine_.num_processors >= 1, "need at least one processor");
  PSS_REQUIRE(machine_.alpha > 1.0, "alpha must exceed 1");
  PSS_REQUIRE(delta_ > 0.0, "delta must be positive");
  cache_.enable_lazy(lazy_);
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
  // Lazy annotations reaching behind the frontier must land as real loads
  // first, so the retired-energy walk below sees them and the split
  // arithmetic never needs a retired interval again.
  if (lazy_) cache_.lazy_materialize_range(store, -util::kInf, frontier);
  // Retired prefix energy, accumulated left to right with the same
  // skip-empty order assignment_energy uses: planned_energy() continuing
  // from this accumulator reproduces the uncompacted sum bitwise.
  for (model::IntervalStore::Handle h = store.front_handle();
       h != model::IntervalStore::kNoHandle && store.end_of(h) <= frontier;
       h = store.next_handle(h)) {
    if (store.loads(h).empty()) continue;
    retired_energy_ +=
        chen::interval_energy(store.loads(h), machine_.num_processors,
                              store.length_of(h), machine_.alpha);
  }
  freed_scratch_.clear();
  const std::size_t retired = store.compact_before(frontier, freed_scratch_);
  if (retired == 0) return;
  cache_.on_compacted(store, frontier, freed_scratch_);
  ++counters_.compactions;
  counters_.compacted_intervals += static_cast<long long>(retired);
  // An accepted id whose whole window is behind the frontier holds no load
  // in any live interval, so the all-loads screen is valid for it again;
  // dropping the record bounds the map by the live window.
  if (windowed_) {
    for (auto it = accepted_ids_.begin(); it != accepted_ids_.end();) {
      if (it->second <= frontier)
        it = accepted_ids_.erase(it);
      else
        ++it;
    }
  }
}

void PdScheduler::reset() {
  state_ = OnlineState{};
  // reset() drops all lazy state (pending annotations, extent, grid) but
  // keeps the lazy mode flag — a recycled session must neither replay
  // stale water levels nor silently change engine variant.
  cache_.reset();
  accepted_ids_.clear();
  decisions_.clear();
  freed_scratch_.clear();
  counters_ = PdCounters{};
  retired_energy_ = 0.0;
  last_release_ = -1.0;
  first_arrival_ = true;
}

ArrivalDecision PdScheduler::on_arrival(const model::Job& job) {
  PSS_REQUIRE(job.deadline > job.release, "bad job window");
  PSS_REQUIRE(job.work > 0.0, "job work must be positive");
  PSS_REQUIRE(!first_arrival_
                  ? job.release >=
                        last_release_ - util::clock_tol(last_release_)
                  : true,
              "jobs must arrive in nondecreasing release order");
  last_release_ = std::max(last_release_, job.release);

  state_.ensure_boundary(job.release, &cache_);
  first_arrival_ = false;
  state_.ensure_boundary(job.deadline, &cache_);

  const double alpha = machine_.alpha;
  const model::PowerFunction power(alpha);
  const auto window = state_.store.range(job.release, job.deadline);
  const double s_reject = rejection_speed(job.value, job.work, alpha, delta_);

  // Windowed screen: certified capacity bounds from the segment tree. A
  // certified rejection skips the O(window) scan entirely; anything
  // inconclusive (or a re-arriving accepted id, whose committed loads the
  // all-loads bounds cannot exclude) falls through to the exact reference
  // arithmetic below, so the decision stream is bitwise independent of
  // `windowed`. Windows narrower than kMinScreenWidth are not screened at
  // all (and count in neither screen counter): their exact scan is cheaper
  // than the query.
  // s_reject > 0 also keeps a zero-value job (s_reject == 0, finite) off
  // the screen, preserving the exact path's behavior for it verbatim.
  bool screened_reject = false;
  if (windowed_ && window.size() >= kMinScreenWidth) {
    if (std::isfinite(s_reject) && s_reject > 0.0 &&
        accepted_ids_.find(job.id) == accepted_ids_.end()) {
      const convex::CapacityBounds bounds = cache_.window_capacity_bounds(
          state_.store, machine_.num_processors, window, s_reject);
      screened_reject = bounds.hi < job.work;
    }
    ++(screened_reject ? counters_.window_prunes : counters_.window_exact);
  }

  // Decide: s* when the job is accepted, nullopt when it is rejected.
  std::optional<double> level;
  double unit = 0.0;
  if (screened_reject) {
    // Certified by the screen; the window was never touched.
  } else if (lazy_ && s_reject > 0.0 &&
             cache_.lazy_virgin_uniform(state_.store, job.release,
                                        job.deadline, window.size(), &unit)) {
    // Certified closed-form replay: the window is provably `size` empty
    // intervals of bitwise-equal length, so the exact engines' entire
    // arithmetic collapses to water_fill_uniform. An accept becomes one
    // O(log n) range annotation instead of a per-interval commit loop.
    const convex::UniformFill fill = convex::water_fill_uniform(
        unit, window.size(), machine_.num_processors, job.work, s_reject);
    ++counters_.lazy_fast_path;
    if (fill.accepted) {
      level = fill.level;
      cache_.lazy_commit(job.release, job.deadline, job.id, fill.amount,
                         fill.first_amount);
    }
  } else {
    // The exact water fill reads the window's loads: expand any lazy
    // annotation intersecting it first so it sees the eager state.
    if (lazy_)
      cache_.lazy_materialize_range(state_.store, job.release, job.deadline);
    const auto curves = cache_.curves_for(
        state_.store, machine_.num_processors, window, job.id);
    const auto placement =
        convex::water_fill_over_curves(curves, job.work, s_reject);
    if (placement.has_value()) {
      level = placement->speed;
      model::IntervalStore::Handle h = state_.store.handle_at(window.first);
      for (std::size_t i = 0; i < window.size(); ++i) {
        state_.store.set_load(h, job.id, placement->amounts[i]);
        if (windowed_) cache_.note_load_changed(h);
        h = state_.store.next_handle(h);
      }
      if (lazy_) cache_.note_commit_extent(job.release, job.deadline);
    }
  }

  ArrivalDecision decision;
  if (level.has_value()) {
    // Line 11(a): full workload placed at uniform own-speed s*.
    decision.accepted = true;
    decision.speed = *level;
    decision.lambda = delta_ * job.work * power.derivative(*level);
    decision.planned_energy = job.work * util::pos_pow(*level, alpha - 1.0);
    if (windowed_) {
      double& dl = accepted_ids_[job.id];
      dl = std::max(dl, job.deadline);
    }
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
  counters_.lazy_commits = cache_.lazy_stats().commits;
  counters_.lazy_materializations = cache_.lazy_stats().materializations;
  counters_.max_intervals =
      std::max(counters_.max_intervals, state_.num_intervals());
  counters_.max_window = std::max(counters_.max_window, window.size());
  if (record_decisions_) decisions_.push_back({job.id, decision});
  return decision;
}

void PdScheduler::flush_lazy() const {
  if (!lazy_) return;
  auto* self = const_cast<PdScheduler*>(this);
  self->cache_.lazy_flush(self->state_.store);
  self->counters_.lazy_materializations =
      self->cache_.lazy_stats().materializations;
}

double PdScheduler::planned_energy() const {
  // Cold path: materialize once and reuse the contiguous evaluator — the
  // snapshot loads are bitwise-identical to the reference engine's, so the
  // energy is too.
  flush_lazy();
  return convex::assignment_energy(
      state_.store.snapshot_assignment(), state_.store.snapshot_partition(),
      machine_.num_processors, machine_.alpha, retired_energy_);
}

model::Schedule PdScheduler::final_schedule() const {
  flush_lazy();
  model::Schedule schedule = chen::realize_assignment(
      state_.store.snapshot_assignment(), state_.store.snapshot_partition(),
      machine_.num_processors);
  for (const auto& [id, decision] : decisions_)
    if (!decision.accepted) schedule.mark_rejected(id);
  return schedule;
}

}  // namespace pss::core
