// Canonical pairwise (tree-shaped) summation.
//
// The library's bitwise decision-identity contract requires every engine
// — the production core::PdScheduler and the core::ReferencePd it is held
// to — to accumulate window quantities (summed curve knots, placed
// amounts, window capacities) in exactly the same floating-point order.
// The canonical order is the balanced pairwise recursion
//
//   ps(x_1..x_n) = fl( ps(x_1..x_h) + ps(x_{h+1}..x_n) ),  h = floor(n/2),
//
// which every summing site on the decision path uses (PiecewiseLinear::
// sum, LazyLinearSum, water-fill placement, window capacities). Against
// the left-to-right scan it cuts the worst-case relative error from
// O(n·eps) to O(log n · eps), so numeric tolerances downstream are
// tighter than a plain scan would allow.
#pragma once

#include <span>

namespace pss::util {

/// Sum of xs in the canonical pairwise order. Empty span sums to 0.0.
[[nodiscard]] double pairwise_sum(std::span<const double> xs);

}  // namespace pss::util
