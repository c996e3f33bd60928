// Small numeric helpers shared across the library.
#pragma once

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <limits>

namespace pss::util {

/// splitmix64 finalizer (Steele, Lea & Flood): a bijective avalanche mix.
/// The one shared definition behind every deterministic hash-like need in
/// the library — stream routing (stream::StreamRouter) and seeded fault
/// sampling (util::FaultInjector) — so the constants cannot drift apart
/// between copies.
[[nodiscard]] inline std::uint64_t splitmix64(std::uint64_t x) {
  x += 0x9e3779b97f4a7c15ull;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ull;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebull;
  return x ^ (x >> 31);
}

/// Tolerant floating-point comparison: |a-b| <= atol + rtol*max(|a|,|b|).
[[nodiscard]] inline bool almost_equal(double a, double b, double rtol = 1e-9,
                                       double atol = 1e-12) {
  return std::abs(a - b) <= atol + rtol * std::max(std::abs(a), std::abs(b));
}

/// a <= b up to tolerance (used for "bound holds" style assertions).
[[nodiscard]] inline bool leq_tol(double a, double b, double rtol = 1e-9,
                                  double atol = 1e-12) {
  return a <= b + atol + rtol * std::max(std::abs(a), std::abs(b));
}

/// Monotonicity slack for a clock reading near `t`. An absolute 1e-12 is
/// meaningless once timestamps grow (ulp(1e9) ~ 1.2e-7), so the slack
/// scales with |t|, degenerating to the old absolute bound near the origin.
[[nodiscard]] inline double clock_tol(double t) {
  return 1e-12 * std::max(1.0, std::abs(t));
}

/// x^p for x >= 0; guards the pow(0, p) corner and negative zero noise.
[[nodiscard]] inline double pos_pow(double x, double p) {
  if (x <= 0.0) return 0.0;
  return std::pow(x, p);
}

/// Solve f(s) = target for monotone nondecreasing f by bisection on [lo, hi].
/// Requires f(lo) <= target <= f(hi). Returns the smallest such s up to tol.
template <class F>
[[nodiscard]] double bisect_monotone(F&& f, double lo, double hi, double target,
                                     double tol = 1e-13, int max_iter = 200) {
  for (int i = 0; i < max_iter && (hi - lo) > tol * std::max(1.0, hi); ++i) {
    const double mid = 0.5 * (lo + hi);
    if (f(mid) < target)
      lo = mid;
    else
      hi = mid;
  }
  return hi;
}

inline constexpr double kInf = std::numeric_limits<double>::infinity();

}  // namespace pss::util
