#include "core/curve_cache.hpp"

#include <cmath>

#include "chen/insertion_curve.hpp"
#include "util/assert.hpp"
#include "util/pairwise_sum.hpp"

namespace pss::core {

void CurveCache::reset() {
  entries_.clear();
  out_.clear();
  sum_scratch_ = {};
  stats_ = Stats{};
}

void CurveCache::on_compacted(
    const std::vector<model::IntervalStore::Handle>& freed) {
  for (const model::IntervalStore::Handle h : freed)
    if (std::size_t(h) < entries_.size()) entries_[h] = Entry{};
}

const util::PiecewiseLinear& CurveCache::entry_curve(
    const model::IntervalStore& store, int num_processors,
    model::IntervalStore::Handle h, double length,
    chen::CurveScratch& rebuild) {
  Entry& entry = entries_[h];
  if (entry.built && entry.epoch == store.epoch(h) &&
      entry.length == length) {
    ++stats_.hits;
  } else {
    entry.built = false;  // a throwing rebuild leaves no entry that validates
    chen::rebuild_insertion_curve(entry.curve, store.loads(h), -1,
                                  num_processors, length, rebuild);
    entry.epoch = store.epoch(h);
    entry.length = length;
    entry.built = true;
    ++stats_.rebuilds;
  }
  return entry.curve;
}

convex::WindowCurves CurveCache::curves_for(const model::IntervalStore& store,
                                            int num_processors,
                                            model::IntervalStore::Span window,
                                            model::JobId job, double cap) {
  PSS_REQUIRE(window.first != window.last, "empty placement window");
  if (entries_.size() < store.handle_space())
    entries_.resize(store.handle_space());

  out_.clear();
  const bool capped = std::isfinite(cap);
  util::CompensatedSum at_cap;
  // No live load carries an id above the watermark.
  const bool may_repeat = job <= store.max_job();
  util::LazyLinearSum::Extent extent;
  // Rebuild buffers for this call only: every stale entry of the window
  // rebuilds through them, and they are freed on return, so no rebuild
  // buffer outlives the arrival.
  chen::CurveScratch rebuild;
  for (model::IntervalStore::Handle h = window.first; h != window.last;
       h = store.next_handle(h)) {
    PSS_REQUIRE(!may_repeat || store.load_of(h, job) == 0.0,
                "arriving job already holds load in its window");
    const util::PiecewiseLinear& curve =
        entry_curve(store, num_processors, h, store.length_of(h), rebuild);
    extent.add(&curve);
    if (capped) at_cap.add(curve.eval(cap));
    out_.push_back(&curve);
  }
  return {out_, extent, cap, at_cap.value()};
}

}  // namespace pss::core
