// Water-filling placement of one job across atomic intervals.
//
// Given the committed loads of all other jobs, placing `work` units for a
// new job at minimum energy means running it at one uniform own-speed s*
// across every interval where that is cheapest (equal marginal energy,
// Proposition 1(b)). The per-interval insertion curves z_k(s) from
// src/chen compose additively: Z(s) = sum_k z_k(s) is the total work the
// window absorbs at level s, and s* = Z^{-1}(work).
//
// This single primitive implements, with different speed caps:
//   * the greedy variable increase of the PD algorithm (Listing 1), where
//     the cap is the rejection speed v_j-derived bound — over the contiguous
//     representation for core::ReferencePd, over cached curves
//     (water_fill_over_curves) for core::PdScheduler;
//   * fractional PD's partial service (cap = infinity, after
//     window_capacity has sized the served amount), and
//   * the exact per-job block minimization inside the offline convex solver
//     (cap = infinity).
#pragma once

#include <optional>
#include <span>
#include <vector>

#include "model/time_partition.hpp"
#include "model/work_assignment.hpp"
#include "util/piecewise_linear.hpp"

namespace pss::convex {

struct Placement {
  double speed = 0.0;            // uniform own-speed s*
  std::vector<double> amounts;   // loads per interval of the window
  double placed = 0.0;           // total amount placed (== requested work)
};

/// Places `work` units into intervals [window.first, window.last), holding
/// all loads in `assignment` fixed except those of `ignore_job` (pass the
/// job's own id when re-placing it, -1 otherwise).
///
/// If the window cannot absorb `work` at own-speed <= max_speed, returns
/// nullopt (the PD rejection branch). max_speed = +infinity always places.
[[nodiscard]] std::optional<Placement> water_fill(
    const model::WorkAssignment& assignment,
    const model::TimePartition& partition, int num_processors,
    model::IntervalRange window, double work, double max_speed,
    model::JobId ignore_job = -1);

/// Incremental variant of water_fill over pre-built per-interval insertion
/// curves (one per window interval, e.g. from core::CurveCache). Inverts
/// Z(s) through a util::LazyLinearSum view, working in `scratch`, instead
/// of materializing the summed curve, which drops the per-arrival cost from
/// O(N*W) to O(N log N) for N total knots over W intervals.
/// Decision-identical to the stateless reference above (see
/// tests/test_differential.cpp).
[[nodiscard]] std::optional<Placement> water_fill_over_curves(
    std::span<const util::PiecewiseLinear* const> curves, double work,
    double max_speed, util::LazyLinearSum::Scratch& scratch);

/// Total work the window can absorb at own-speed exactly `speed`
/// (the Z(s) above); used by tests and the fractional scheduler's
/// service cap.
[[nodiscard]] double window_capacity(const model::WorkAssignment& assignment,
                                     const model::TimePartition& partition,
                                     int num_processors,
                                     model::IntervalRange window, double speed,
                                     model::JobId ignore_job = -1);

}  // namespace pss::convex
