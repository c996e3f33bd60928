// Online state of the production PD scheduler: a time partition that
// refines as jobs reveal new boundaries, with committed loads splitting
// proportionally (Section 3, "Concerning the Time Partitioning"), plus the
// split / extension counters PdCounters reports.
//
// The state lives in model::IntervalStore: stable interval handles, a
// std::map from interval start to handle, and O(log n) refinement. Caches
// keyed by handle need no structural mirroring: a split allocates a fresh
// handle for the right half and bumps epochs, which the epoch/length
// validation of CurveCache already detects. The contiguous O(n)
// transcription of the same refinement (core::refine_partition, in
// core/reference_pd) is the state of core::ReferencePd and of
// core::run_fractional_pd.
#pragma once

#include <cstddef>

#include "model/interval_store.hpp"

namespace pss::core {

struct OnlineState {
  model::IntervalStore store;

  long long interval_splits = 0;
  long long horizon_extensions = 0;

  /// Makes t a boundary, splitting committed loads proportionally when t
  /// falls inside an existing interval.
  void ensure_boundary(double t) {
    switch (store.ensure_boundary(t)) {
      case model::IntervalStore::Refinement::kSplit:
        ++interval_splits;
        break;
      case model::IntervalStore::Refinement::kAppend:
      case model::IntervalStore::Refinement::kPrepend:
        ++horizon_extensions;
        break;
      case model::IntervalStore::Refinement::kNoop:
      case model::IntervalStore::Refinement::kBootstrap:
        break;
    }
  }

  [[nodiscard]] std::size_t num_intervals() const {
    return store.num_intervals();
  }
};

}  // namespace pss::core
