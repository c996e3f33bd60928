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
//     (water_fill_over_curves, with a certified cap test on values the
//     curve walk already gathered) for core::PdScheduler;
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

/// A placement window's insertion curves as one walk over the window
/// gathers them (core::CurveCache::curves_for): the curves in time order,
/// the speed cap, and S, the sum of the curves' values at the cap
/// (util::CompensatedSum over curves[i]->eval(cap); 0 when the cap is
/// +infinity).
struct WindowCurves {
  std::span<const util::PiecewiseLinear* const> curves;
  double cap = 0.0;
  double sum_at_cap = 0.0;
};

/// Incremental variant of water_fill over pre-built per-interval insertion
/// curves (one per window interval, e.g. from core::CurveCache), capped at
/// window.cap. Inverts Z(s) through a util::LazyLinearSum view, working in
/// `scratch`, instead of materializing the summed curve, which drops the
/// per-arrival cost from O(N*W) to O(N log N) for N total knots over W
/// intervals.
///
/// The cap test is certified: it rejects when S < work*(1 - 1e-9), goes on
/// to placement when S > work*(1 + 1e-9), and only in between asks the view
/// for the exact Z(cap). S and the exact value are floating-point
/// evaluations of the same real Z(cap) — every curve is linear between
/// adjacent union knots — from nonnegative terms, so each is within
/// (ceil(log2 W) + 16) * 2^-53 of it, relatively: a few roundings per
/// interpolated term, ceil(log2 W) levels of the exact value's pairwise
/// tree, 2 for S's compensated sum. That is far inside the 1e-9 margin for
/// any W below the store's 2^32 handles, so a certified answer is the exact
/// one, and a rejected arrival costs no walk beyond the one that gathered
/// the window. The view (whose construction walks the curves and checks
/// each) is built only once S has failed to reject: on accepts, uncapped
/// calls and the exact fallback. A cap of 0 (an underflowed rejection
/// speed) rejects through the same test, as Z(0) = 0 < work.
/// Decision-identical to the stateless reference above (see
/// tests/test_differential.cpp).
[[nodiscard]] std::optional<Placement> water_fill_over_curves(
    const WindowCurves& window, double work,
    util::LazyLinearSum::Scratch& scratch);

/// Total work the window can absorb at own-speed exactly `speed`
/// (the Z(s) above); used by tests and the fractional scheduler's
/// service cap.
[[nodiscard]] double window_capacity(const model::WorkAssignment& assignment,
                                     const model::TimePartition& partition,
                                     int num_processors,
                                     model::IntervalRange window, double speed,
                                     model::JobId ignore_job = -1);

}  // namespace pss::convex
