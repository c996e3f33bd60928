// Insertion curves z_k(s): the exact amount of work a *new* job can be given
// in one atomic interval such that Chen et al.'s schedule processes that job
// at uniform own-speed s, with all other loads held fixed.
//
// This function is the inverse view of Proposition 1(b): the marginal energy
// cost of the new job's load is P'(s_j), so raising its dual variable
// corresponds to raising s, and z_k(s) tells how much primal mass that buys.
// Closed form (from the dedicated/pool split of interval_schedule.hpp): with
//   D(s) = { i : u_i > s*l },  d = |D(s)|,  R(s) = sum of the other loads,
//   z_k(s) = max(0, min( (m - d(s))*l*s - R(s),  s*l ))
// The min's first branch is "the job joins the pool at level s" (raising the
// common pool level); the second is "the job gets a dedicated processor".
// z_k is continuous, nondecreasing and piecewise linear; Proposition 2 is the
// structural reason it is well-behaved under arrivals.
#pragma once

#include <vector>

#include "model/work_assignment.hpp"
#include "util/piecewise_linear.hpp"

namespace pss::chen {

/// Direct evaluation of z_k(s) for one speed (O(log p) after sorting).
/// `sorted_loads` must be the other jobs' loads sorted descending.
[[nodiscard]] double insertion_amount(
    const std::vector<double>& sorted_loads_desc, int num_processors,
    double length, double speed);

/// Builds the full piecewise-linear curve z_k : s -> insertable work.
/// `other_loads` need not be sorted; nonpositive loads are ignored.
/// The returned function starts at s = 0 with z = 0 and has final slope l.
[[nodiscard]] util::PiecewiseLinear insertion_curve(
    std::vector<double> other_loads, int num_processors, double length);

/// Same curve built straight from an interval's committed loads, skipping
/// `ignore_job` (pass -1 to keep every load). Produces the identical curve
/// the vector overload builds from the extracted amounts.
[[nodiscard]] util::PiecewiseLinear insertion_curve(
    const std::vector<model::Load>& loads, model::JobId ignore_job,
    int num_processors, double length);

/// Working storage for in-place curve builds. It carries nothing from one
/// build to the next; a caller that rebuilds several curves in a row passes
/// the same one to each, so only the first rebuilds grow its buffers.
struct CurveScratch {
  std::vector<double> loads;       // the positive loads, sorted descending
  std::vector<double> prefix;      // prefix sums of `loads`
  std::vector<double> candidates;  // speeds where the slope may change
  std::vector<util::PiecewiseLinear::Knot> knots;
};

/// Rebuilds `out` in place as the curve the Load overload above returns,
/// bitwise, reusing `out`'s knot storage (util::PiecewiseLinear::assign).
/// Both allocating overloads run through this code. This is the entry point
/// the scheduler's per-interval curve cache rebuilds through.
void rebuild_insertion_curve(util::PiecewiseLinear& out,
                             const std::vector<model::Load>& loads,
                             model::JobId ignore_job, int num_processors,
                             double length, CurveScratch& scratch);

}  // namespace pss::chen
