// Per-interval insertion-curve cache for the incremental PD hot path.
//
// PD never redistributes committed load (the structural property behind
// Theorem 3), so the insertion curve z_k(s) of an atomic interval only
// changes when that interval's own loads change — an arrival dirties the
// few intervals it places work into and leaves every other curve intact.
// The cache keeps one built curve per interval and revalidates it against
// the per-interval epoch counter, so a stale entry is detected without any
// explicit invalidation call on the load path.
//
// Entries live in a slab addressed by model::IntervalStore's stable
// handles, so structural refinements need no mirroring at all: a split
// allocates a fresh handle (fresh, unbuilt entry) for the right half and
// bumps the left half's epoch and length, which the ordinary hit
// validation already catches — the structural cost on the cache is O(1).
// Cached curves are derived state: a cold cache serves bitwise-identical
// curves, so checkpoints never carry it.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "chen/insertion_curve.hpp"
#include "model/interval_store.hpp"
#include "util/piecewise_linear.hpp"

namespace pss::core {

class CurveCache {
 public:
  struct Stats {
    long long hits = 0;      // curves served without rebuilding
    long long rebuilds = 0;  // curves (re)built from interval loads
  };

  /// Drops every cached curve, the statistics and the sum_scratch()
  /// buffers.
  void reset();

  /// Per-interval insertion curves for the intervals of `window`, in time
  /// order, for placing the arriving job `job`. Entries whose epoch and
  /// length still match the store are served as hits; stale entries
  /// rebuild and re-cache, so refinements between calls need no
  /// notification. PD never re-places a job, so `job` must hold no load in
  /// the window (std::invalid_argument otherwise — a repeated job id):
  /// every cached curve is the all-loads curve. The span views a reused
  /// member buffer — no per-call allocation on the hot path — and stays
  /// valid until the next call. The slab grows lazily with the store's
  /// handle space.
  [[nodiscard]] std::span<const util::PiecewiseLinear* const> curves_for(
      const model::IntervalStore& store, int num_processors,
      model::IntervalStore::Span window, model::JobId job);

  [[nodiscard]] const Stats& stats() const { return stats_; }

  /// Buffers for the util::LazyLinearSum view the caller builds over the
  /// curves_for result, kept here so a warm arrival allocates none.
  [[nodiscard]] util::LazyLinearSum::Scratch& sum_scratch() {
    return sum_scratch_;
  }

  /// Cache-side half of a prefix compaction the owner just ran on the
  /// store: releases the freed handles' cached curves, so a recycled
  /// handle starts from an unbuilt entry.
  void on_compacted(const std::vector<model::IntervalStore::Handle>& freed);

 private:
  struct Entry {
    bool built = false;
    std::uint64_t epoch = 0;
    double length = 0.0;
    util::PiecewiseLinear curve;
  };

  // The all-loads curve of `h` (of the given length) from its slab entry,
  // rebuilt in place through `rebuild` when the entry's epoch or length no
  // longer matches the store.
  const util::PiecewiseLinear& entry_curve(const model::IntervalStore& store,
                                           int num_processors,
                                           model::IntervalStore::Handle h,
                                           double length,
                                           chen::CurveScratch& rebuild);

  std::vector<Entry> entries_;  // slab indexed by store handle
  std::vector<const util::PiecewiseLinear*> out_;  // curves_for result buffer
  util::LazyLinearSum::Scratch sum_scratch_;
  Stats stats_;
};

}  // namespace pss::core
