#include "util/piecewise_linear.hpp"

#include <algorithm>
#include <cmath>

#include "util/assert.hpp"
#include "util/pairwise_sum.hpp"

namespace pss::util {

PiecewiseLinear PiecewiseLinear::from_knots(std::vector<Knot> knots,
                                            double final_slope) {
  PiecewiseLinear f;
  f.assign(knots, final_slope);
  return f;
}

void PiecewiseLinear::assign(std::span<const Knot> knots,
                             double final_slope) {
  PSS_REQUIRE(!knots.empty(), "piecewise-linear function needs >= 1 knot");
  PSS_REQUIRE(final_slope >= 0.0, "final slope must be nonnegative");
  final_slope_ = final_slope;
  knots_.clear();
  knots_.reserve(knots.size());  // exact: a no-op unless it must grow
  for (const Knot& k : knots) {
    PSS_REQUIRE(std::isfinite(k.x) && std::isfinite(k.y), "knot not finite");
    if (!knots_.empty()) {
      Knot& prev = knots_.back();
      PSS_REQUIRE(k.x >= prev.x, "knots must be sorted by x");
      if (k.x == prev.x) {  // merge duplicate x, keep the later y
        prev.y = std::max(prev.y, k.y);
        continue;
      }
      // Monotonicity: tolerate floating-point noise, reject real decreases.
      const double dip = prev.y - k.y;
      PSS_REQUIRE(dip <= 1e-9 * std::max(1.0, std::abs(prev.y)),
                  "knots must be nondecreasing in y");
      knots_.push_back({k.x, std::max(k.y, prev.y)});
      continue;
    }
    knots_.push_back(k);
  }
}

PiecewiseLinear PiecewiseLinear::zero() {
  return from_knots({{0.0, 0.0}}, 0.0);
}

double PiecewiseLinear::domain_start() const {
  PSS_REQUIRE(!knots_.empty(), "empty function");
  return knots_.front().x;
}

std::size_t PiecewiseLinear::upper_index(double x) const {
  return std::size_t(std::upper_bound(
                         knots_.begin(), knots_.end(), x,
                         [](double v, const Knot& k) { return v < k.x; }) -
                     knots_.begin());
}

double PiecewiseLinear::interpolate(std::size_t i, double x) const {
  const Knot& hi = knots_[i];
  const Knot& lo = knots_[i - 1];
  const double t = (x - lo.x) / (hi.x - lo.x);
  return lo.y + t * (hi.y - lo.y);
}

double PiecewiseLinear::eval(double x) const {
  PSS_REQUIRE(!knots_.empty(), "empty function");
  PSS_REQUIRE(x >= knots_.front().x - 1e-12, "x below domain start");
  if (x <= knots_.front().x) return knots_.front().y;
  if (x >= knots_.back().x)
    return knots_.back().y + final_slope_ * (x - knots_.back().x);
  return interpolate(upper_index(x), x);
}

double PiecewiseLinear::eval(double x, std::size_t hint) const {
  PSS_REQUIRE(!knots_.empty(), "empty function");
  PSS_REQUIRE(x >= knots_.front().x - 1e-12, "x below domain start");
  if (x <= knots_.front().x) return knots_.front().y;
  if (x >= knots_.back().x)
    return knots_.back().y + final_slope_ * (x - knots_.back().x);
  // x is strictly inside the knot range, so upper_index(x) is some i in
  // [1, size) with knots_[i - 1].x <= x < knots_[i].x.
  const auto holds = [&](std::size_t i) {
    return i >= 1 && i < knots_.size() && knots_[i - 1].x <= x &&
           x < knots_[i].x;
  };
  if (holds(hint)) return interpolate(hint, x);
  if (holds(hint + 1)) return interpolate(hint + 1, x);
  return interpolate(upper_index(x), x);
}

std::optional<double> PiecewiseLinear::first_at_least(double y) const {
  PSS_REQUIRE(!knots_.empty(), "empty function");
  if (knots_.front().y >= y) return knots_.front().x;
  // Find the first knot whose y reaches the target.
  auto it = std::lower_bound(
      knots_.begin(), knots_.end(), y,
      [](const Knot& k, double v) { return k.y < v; });
  if (it != knots_.end()) {
    const Knot& hi = *it;
    const Knot& lo = *(it - 1);
    if (hi.y == lo.y) return hi.x;  // flat segment ending exactly at y
    const double t = (y - lo.y) / (hi.y - lo.y);
    return lo.x + t * (hi.x - lo.x);
  }
  if (final_slope_ <= 0.0) return std::nullopt;
  return knots_.back().x + (y - knots_.back().y) / final_slope_;
}

void LazyLinearSum::Extent::add(const PiecewiseLinear* f) {
  PSS_REQUIRE(f != nullptr && !f->empty(), "summand is empty");
  const double start = f->knots().front().x;
  const double last = f->knots().back().x;
  if (count_++ == 0) {
    front_ = start;
    back_ = last;
    return;
  }
  PSS_REQUIRE(start == front_, "summands must share a domain start");
  back_ = std::max(back_, last);
}

LazyLinearSum::LazyLinearSum(std::span<const PiecewiseLinear* const> fns,
                             const Extent& extent, Scratch& scratch)
    : fns_(fns), front_(extent.front()), back_(extent.back()),
      scratch_(scratch) {
  PSS_REQUIRE(!fns.empty(), "sum of zero functions");
  PSS_REQUIRE(extent.count() == fns.size(),
              "extent gathered over other summands");
  // eval is exact for any hint, so values an earlier view left behind are
  // harmless; bracket() sets the ones the bracket-end sums use.
  scratch_.hints.resize(fns.size());
}

double LazyLinearSum::final_slope() const {
  scratch_.terms.clear();
  for (const PiecewiseLinear* f : fns_)
    scratch_.terms.push_back(f->final_slope());
  return pairwise_sum(scratch_.terms);
}

double LazyLinearSum::sum_at(double x) const {
  // Canonical pairwise accumulation, matching PiecewiseLinear::sum's
  // per-knot order, so the value here is bitwise the y that the
  // materialized total stores (see util/pairwise_sum.hpp for why pairwise
  // is the canonical order).
  scratch_.terms.clear();
  for (std::size_t i = 0; i < fns_.size(); ++i)
    scratch_.terms.push_back(fns_[i]->eval(x, scratch_.hints[i]));
  return pairwise_sum(scratch_.terms);
}

LazyLinearSum::Bracket LazyLinearSum::bracket(double x) const {
  // Union predecessor/successor of x via one binary search per summand.
  // Summand i's upper_index(x) is also its upper_index at b.lo, and at
  // b.hi it is that or one more: both within eval's O(1) hint reach.
  Bracket b{front_, false, 0.0};
  for (std::size_t i = 0; i < fns_.size(); ++i) {
    const auto& knots = fns_[i]->knots();
    const std::size_t up = fns_[i]->upper_index(x);
    scratch_.hints[i] = std::uint32_t(up);
    if (up != 0) b.lo = std::max(b.lo, knots[up - 1].x);
    if (up != knots.size() && (!b.has_hi || knots[up].x < b.hi)) {
      b.has_hi = true;
      b.hi = knots[up].x;
    }
  }
  return b;
}

double LazyLinearSum::eval(double x) const {
  PSS_REQUIRE(x >= front_ - 1e-12, "x below domain start");
  if (x <= front_) return sum_at(front_);
  if (x >= back_) return sum_at(back_) + final_slope() * (x - back_);
  const Bracket b = bracket(x);  // b.has_hi: x < back_ guarantees a successor
  const double lo_y = sum_at(b.lo);
  const double hi_y = sum_at(b.hi);
  const double t = (x - b.lo) / (b.hi - b.lo);
  return lo_y + t * (hi_y - lo_y);
}

std::optional<double> LazyLinearSum::first_at_least(double y) const {
  double a = front_;
  double sum_a = sum_at(a);
  if (sum_a >= y) return a;
  double b = back_;
  double sum_b = sum_at(b);
  if (sum_b < y) {
    const double slope = final_slope();
    if (slope <= 0.0) return std::nullopt;
    return back_ + (y - sum_b) / slope;
  }
  // Invariant: a and b are union knots with sum(a) < y <= sum(b). Bisect on
  // x, snapping each midpoint to its bracketing union knots, until a and b
  // are adjacent — b is then the first union knot whose sum reaches y,
  // exactly the knot lower_bound finds on the materialized total.
  while (true) {
    const double mid = a + 0.5 * (b - a);
    if (!(mid > a && mid < b)) break;  // fp-resolution limit: treat adjacent
    const Bracket br = bracket(mid);
    double next = br.lo;  // in [a, mid]
    if (next == a) {
      if (!br.has_hi || br.hi == b) break;  // no knot strictly inside (a, b)
      next = br.hi;                         // in (mid, b)
    }
    const double sum_next = sum_at(next);
    if (sum_next < y) {
      a = next;
      sum_a = sum_next;
    } else {
      b = next;
      sum_b = sum_next;
    }
  }
  if (sum_b == sum_a) return b;  // flat segment ending exactly at y
  const double t = (y - sum_a) / (sum_b - sum_a);
  return a + t * (b - a);
}

PiecewiseLinear PiecewiseLinear::sum(std::span<const PiecewiseLinear> fns) {
  PSS_REQUIRE(!fns.empty(), "sum of zero functions");
  std::vector<double> xs;
  for (const PiecewiseLinear& f : fns) {
    PSS_REQUIRE(!f.empty(), "summand is empty");
    PSS_REQUIRE(f.domain_start() == fns.front().domain_start(),
                "summands must share a domain start");
    for (const Knot& k : f.knots()) xs.push_back(k.x);
  }
  std::sort(xs.begin(), xs.end());
  xs.erase(std::unique(xs.begin(), xs.end()), xs.end());

  std::vector<Knot> knots;
  knots.reserve(xs.size());
  std::vector<double> terms;
  terms.reserve(fns.size());
  for (double x : xs) {
    terms.clear();
    for (const PiecewiseLinear& f : fns) terms.push_back(f.eval(x));
    knots.push_back({x, pairwise_sum(terms)});
  }
  terms.clear();
  for (const PiecewiseLinear& f : fns) terms.push_back(f.final_slope());
  return from_knots(std::move(knots), pairwise_sum(terms));
}

}  // namespace pss::util
