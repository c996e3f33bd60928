// Monotone (nondecreasing), continuous, piecewise-linear functions.
//
// These are the workhorse of the library's convex-optimization layer: the
// amount of work z_k(s) that can be inserted into an atomic interval at a
// uniform own-speed s is a nondecreasing piecewise-linear function of s
// (src/chen), and both the PD algorithm and the offline convex solver
// water-fill by inverting the *sum* of such curves (src/core, src/convex).
//
// A function is represented by its knots (x_i, y_i) with x strictly
// increasing, linear interpolation in between, and a final slope that
// extends the last segment to +infinity. The domain starts at the first
// knot's x.
#pragma once

#include <cstddef>
#include <cstdint>
#include <optional>
#include <span>
#include <vector>

namespace pss::util {

class PiecewiseLinear {
 public:
  struct Knot {
    double x;
    double y;
  };

  PiecewiseLinear() = default;

  /// Builds a function from knots. Knots must be sorted by x; exact
  /// duplicates in x are merged (keeping the last y). y must be
  /// nondecreasing up to a small tolerance (tiny violations from
  /// floating-point noise are clamped). final_slope must be >= 0.
  [[nodiscard]] static PiecewiseLinear from_knots(std::vector<Knot> knots,
                                                  double final_slope);

  /// Rebuilds this function in place from knots, with from_knots'
  /// preconditions and arithmetic (from_knots is this on a fresh object).
  /// The knot storage is reused; when it must grow it is reserved to
  /// exactly knots.size(), so a rebuilt curve holds no doubling slack.
  void assign(std::span<const Knot> knots, double final_slope);

  /// The constant-zero function on [0, inf).
  [[nodiscard]] static PiecewiseLinear zero();

  /// Evaluate at x (x must be >= domain start).
  [[nodiscard]] double eval(double x) const;

  /// eval(x), bitwise, with the segment search started at `hint`, a guess
  /// at upper_index(x). O(1) when the hint is upper_index(x) or one below
  /// it; any other hint (out of range included) falls back to the binary
  /// search eval runs.
  [[nodiscard]] double eval(double x, std::size_t hint) const;

  /// Index of the first knot with knot.x > x (knots().size() if none).
  [[nodiscard]] std::size_t upper_index(double x) const;

  /// Smallest x with f(x) >= y, or nullopt if y is never reached
  /// (possible when the final slope is zero).
  [[nodiscard]] std::optional<double> first_at_least(double y) const;

  /// Pointwise sum. All summands must share a domain start.
  [[nodiscard]] static PiecewiseLinear sum(
      std::span<const PiecewiseLinear> fns);

  [[nodiscard]] const std::vector<Knot>& knots() const { return knots_; }
  [[nodiscard]] double final_slope() const { return final_slope_; }
  [[nodiscard]] double domain_start() const;
  [[nodiscard]] bool empty() const { return knots_.empty(); }

 private:
  // Linear interpolation on the segment [knots_[i - 1], knots_[i]).
  [[nodiscard]] double interpolate(std::size_t i, double x) const;

  std::vector<Knot> knots_;
  double final_slope_ = 0.0;
};

/// Lazy pointwise sum over a fixed set of summands.
///
/// PiecewiseLinear::sum materializes the total by evaluating every summand
/// at every union knot — O(N * W) for N total knots over W summands. This
/// view materializes nothing: queries locate the union knots bracketing a
/// point through per-summand binary searches (O(W log K) each) and invert
/// the sum by bisection over those brackets, which is all the
/// water-filling inversion needs — one eval at the speed cap, one monotone
/// search for the level. The bracket search records each summand's
/// upper_index, so evaluating the sum at the bracket's ends costs O(1) per
/// summand rather than another binary search. Construction does not walk
/// the summands: the caller hands in their Extent, gathered during a walk
/// it makes anyway (core::CurveCache::curves_for).
///
/// Query arithmetic mirrors sum() followed by eval()/first_at_least() on
/// the materialized total knot for knot (same summand order, same
/// interpolation formulas), so both routes return bit-identical results.
/// The one exception is sum()'s monotonicity clamp in from_knots, which
/// only engages on sub-ulp floating-point dips and is not reproduced here.
class LazyLinearSum {
 public:
  /// Per-summand buffers a view works in. A caller that builds one view
  /// per query (the scheduler, once per arrival) keeps one Scratch and
  /// hands it to every view, so no query allocates once it is warm.
  struct Scratch {
    std::vector<double> terms;       // summand values, pairwise-summed
    std::vector<std::uint32_t> hints;  // summand upper_index at the bracket
  };

  /// Shared domain start and last union knot of a summand set, gathered
  /// one summand at a time. add() runs the view's preconditions on each
  /// summand (non-null, non-empty, the first summand's domain start), so
  /// a walk over the summands that the caller makes anyway carries them.
  class Extent {
   public:
    void add(const PiecewiseLinear* f);
    [[nodiscard]] std::size_t count() const { return count_; }
    [[nodiscard]] double front() const { return front_; }
    [[nodiscard]] double back() const { return back_; }

   private:
    std::size_t count_ = 0;  // summands added
    double front_ = 0.0;     // shared domain start
    double back_ = 0.0;      // last union knot
  };

  /// `fns` must be nonempty and `extent` gathered over exactly `fns`. The
  /// summands and `scratch` must outlive the view, and `scratch` must
  /// serve no other live view.
  LazyLinearSum(std::span<const PiecewiseLinear* const> fns,
                const Extent& extent, Scratch& scratch);

  /// Sum of the summands at x, interpolated between the union knots
  /// bracketing x exactly as eval() on the materialized total would.
  [[nodiscard]] double eval(double x) const;

  /// Smallest x with sum(x) >= y, or nullopt if y is never reached.
  [[nodiscard]] std::optional<double> first_at_least(double y) const;

  /// Summed final slope (pairwise, as sum() computes it). Only queries
  /// that pass the last union knot need it, so it is computed on demand.
  [[nodiscard]] double final_slope() const;

 private:
  struct Bracket {
    double lo;       // largest union knot <= x
    bool has_hi;     // false when x is at or past the last union knot
    double hi;       // smallest union knot > x (when has_hi)
  };
  // Also leaves each summand's upper_index(x) in scratch_.hints, the hint
  // sum_at uses at b.lo and b.hi.
  [[nodiscard]] Bracket bracket(double x) const;
  [[nodiscard]] double sum_at(double x) const;

  std::span<const PiecewiseLinear* const> fns_;
  double front_ = 0.0;  // shared domain start (first union knot)
  double back_ = 0.0;   // last union knot
  Scratch& scratch_;    // logically const queries work in the caller's buffers
};

}  // namespace pss::util
