// The insertion-curve walk of the incremental PD hot path.
//
// PD never redistributes committed load (the structural property behind
// Theorem 3), so the insertion curve z_k(s) of an atomic interval only
// changes when that interval's own loads or length change — an arrival
// dirties the few intervals it places work into and leaves every other
// curve intact. model::IntervalStore keeps each interval's curve beside
// its loads and clears the interval's fresh flag on every such change, so
// no invalidation call is needed on the load path and no structural
// refinement needs mirroring: this walk rebuilds whatever it finds stale.
// Cached curves are derived state: stale curves rebuild bitwise identical,
// so checkpoints never carry them.
//
// curves_for is the arrival's one walk over its window: while it serves
// (or rebuilds) each curve it also makes the repeated-id check and sums the
// curves' values at the rejection speed, so convex::water_fill_over_curves
// can decide most rejections without walking the window again. A curve
// that is still zero at that speed (the new job would not yet beat the
// interval's pool speed; util::PiecewiseLinear::zero_until) adds nothing
// and is skipped on the payload alone, without touching its knot array —
// on rejection-heavy streams that is most steps of the walk.
#pragma once

#include <span>
#include <vector>

#include "chen/insertion_curve.hpp"
#include "convex/water_fill.hpp"
#include "model/interval_store.hpp"
#include "util/piecewise_linear.hpp"

namespace pss::core {

class CurveCache {
 public:
  struct Stats {
    long long hits = 0;      // curves served without rebuilding
    long long rebuilds = 0;  // curves (re)built from interval loads
  };

  /// Drops the statistics and the walk's buffers.
  void reset();

  /// Per-interval insertion curves for the intervals of `window`, in time
  /// order, for placing the arriving job `job` under the speed cap `cap`,
  /// gathered in one walk over the window that also yields the cap test's
  /// input for convex::water_fill_over_curves: when `cap` is finite, the
  /// compensated sum of the curves' values at it (curves zero at the cap
  /// skipped, bitwise the same sum). Fresh curves are served as hits;
  /// stale ones are rebuilt in place in the store and marked fresh, so
  /// refinements between calls need no notification.
  ///
  /// PD never re-places a job, so `job` must hold no load in the window
  /// (std::invalid_argument otherwise — a repeated job id): every cached
  /// curve is the all-loads curve. The load lists are searched only when
  /// `job` is at most the store's max_job() watermark, so while ids rise
  /// the check reads none; no live load carries a larger id, so the
  /// refusals are the same.
  ///
  /// The result views a reused member buffer and the store's curves — no
  /// per-call allocation on the hot path — and stays valid until the next
  /// call or the store's next refinement (which may move its slab).
  [[nodiscard]] convex::WindowCurves curves_for(
      model::IntervalStore& store, int num_processors,
      model::IntervalStore::Span window, model::JobId job, double cap);

  [[nodiscard]] const Stats& stats() const { return stats_; }

  /// Buffers for the util::LazyLinearSum view the caller builds over the
  /// curves_for result, kept here so a warm arrival allocates none.
  [[nodiscard]] util::LazyLinearSum::Scratch& sum_scratch() {
    return sum_scratch_;
  }

 private:
  std::vector<const util::PiecewiseLinear*> out_;  // curves_for result buffer
  util::LazyLinearSum::Scratch sum_scratch_;
  Stats stats_;
};

}  // namespace pss::core
