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
//
// CompensatedSum is the one running sum beside it, for a total that only
// feeds a certified comparison (the water fill's cap test) and is never
// stored: it needs no buffer, and its relative error on nonnegative terms,
// 2u + O(n·u²) for unit roundoff u = 2^-53, is below pairwise summation's.
#pragma once

#include <cmath>
#include <span>

namespace pss::util {

/// Sum of xs in the canonical pairwise order. Empty span sums to 0.0.
[[nodiscard]] double pairwise_sum(std::span<const double> xs);

/// Running compensated (Neumaier) sum: terms are added one at a time and
/// the rounding error of each addition is carried in a second accumulator.
class CompensatedSum {
 public:
  void add(double x) {
    const double t = sum_ + x;
    carry_ += std::abs(sum_) >= std::abs(x) ? (sum_ - t) + x : (x - t) + sum_;
    sum_ = t;
  }
  [[nodiscard]] double value() const { return sum_ + carry_; }

 private:
  double sum_ = 0.0;
  double carry_ = 0.0;  // accumulated rounding error of the additions
};

}  // namespace pss::util
