#include "core/curve_cache.hpp"

#include <cmath>

#include "chen/insertion_curve.hpp"
#include "util/assert.hpp"
#include "util/pairwise_sum.hpp"

namespace pss::core {

void CurveCache::reset() {
  out_.clear();
  sum_scratch_ = {};
  stats_ = Stats{};
}

convex::WindowCurves CurveCache::curves_for(model::IntervalStore& store,
                                            int num_processors,
                                            model::IntervalStore::Span window,
                                            model::JobId job, double cap) {
  PSS_REQUIRE(window.first != window.last, "empty placement window");
  out_.clear();
  const bool capped = std::isfinite(cap);
  // Every curve's domain starts at 0 (checked on each rebuild below), so
  // this is each eval(cap)'s domain check, made once.
  if (capped) PSS_REQUIRE(cap >= -1e-12, "x below domain start");
  util::CompensatedSum at_cap;
  // No live load carries an id above the watermark.
  const bool may_repeat = job <= store.max_job();
  // Rebuild buffers for this call only: every stale curve of the window
  // rebuilds through them, and they are freed on return, so no rebuild
  // buffer outlives the arrival.
  chen::CurveScratch rebuild;
  for (model::IntervalStore::Handle h = window.first; h != window.last;
       h = store.next_handle(h)) {
    PSS_REQUIRE(!may_repeat || store.load_of(h, job) == 0.0,
                "arriving job already holds load in its window");
    util::PiecewiseLinear& curve = store.curve(h);
    if (store.fresh(h)) {
      ++stats_.hits;
    } else {
      // A throwing rebuild leaves the curve stale.
      chen::rebuild_insertion_curve(curve, store.loads(h), -1, num_processors,
                                    store.length_of(h), rebuild);
      // Every Chen curve starts at s = 0, so the one cap check above stands
      // in for each skipped eval's domain check.
      PSS_CHECK(curve.domain_start() == 0.0,
                "insertion curve must start at zero speed");
      store.mark_fresh(h);
      ++stats_.rebuilds;
    }
    // A curve still zero at the cap adds +0.0, which leaves both of the
    // sum's accumulators as they are (they are never -0.0), so it is
    // skipped without reading its knots.
    if (capped && !(cap <= curve.zero_until())) at_cap.add(curve.eval(cap));
    out_.push_back(&curve);
  }
  return {out_, cap, at_cap.value()};
}

}  // namespace pss::core
