#include "chen/insertion_curve.hpp"

#include <algorithm>
#include <cmath>
#include <functional>
#include <limits>

#include "util/assert.hpp"

namespace pss::chen {

namespace {

/// d(s) and R(s) for sorted-descending loads: d = #loads strictly above
/// s*l, R = total minus the d largest.
struct PoolState {
  std::size_t dedicated;
  double pool_load;
};

PoolState pool_state(const std::vector<double>& sorted_desc,
                     const std::vector<double>& prefix_sums, double level) {
  // First index whose load is <= level  ==> number of loads > level.
  auto it = std::lower_bound(sorted_desc.begin(), sorted_desc.end(), level,
                             [](double load, double lv) { return load > lv; });
  const std::size_t d = std::size_t(it - sorted_desc.begin());
  const double total = prefix_sums.back();
  return {d, total - prefix_sums[d]};
}

/// Builds the curve of scratch.loads (raw amounts, in any order) into
/// `out`. The one copy of the construction both overloads share.
void build_curve(CurveScratch& scratch, int num_processors, double length,
                 util::PiecewiseLinear& out) {
  PSS_REQUIRE(num_processors >= 1 && length > 0.0, "bad interval parameters");
  std::vector<double>& u = scratch.loads;
  std::size_t kept = 0;
  for (const double x : u) {
    PSS_REQUIRE(x >= 0.0 && std::isfinite(x), "loads must be >= 0 and finite");
    if (x > 0.0) u[kept++] = x;
  }
  u.resize(kept);
  std::sort(u.begin(), u.end(), std::greater<>());
  std::vector<double>& prefix = scratch.prefix;
  prefix.resize(u.size() + 1);
  prefix[0] = 0.0;
  for (std::size_t i = 0; i < u.size(); ++i) prefix[i + 1] = prefix[i] + u[i];
  const double total = prefix.back();

  // Candidate speeds where the curve can change slope: the thresholds
  // u_i / l (where a dedicated job dissolves into the pool) plus, per linear
  // segment, the clamp crossings of the two min/max branches.
  std::vector<double>& candidates = scratch.candidates;
  candidates.assign(1, 0.0);
  for (double load : u) candidates.push_back(load / length);
  std::sort(candidates.begin(), candidates.end());
  candidates.erase(std::unique(candidates.begin(), candidates.end()),
                   candidates.end());

  // The crossings are appended behind the thresholds, in segment order.
  const std::size_t thresholds = candidates.size();
  const double inf = std::numeric_limits<double>::infinity();
  for (std::size_t i = 0; i < thresholds; ++i) {
    const double a = candidates[i];
    const double b = (i + 1 < thresholds) ? candidates[i + 1] : inf;
    // Segment-constant pool state: probe just inside the segment.
    const double probe = std::isinf(b) ? a + 1.0 : 0.5 * (a + b);
    const PoolState st = pool_state(u, prefix, probe * length);
    if (st.dedicated >= std::size_t(num_processors)) continue;
    const double c = (double(num_processors) - double(st.dedicated)) * length;
    // pool branch: c*s - R; crossings with 0 and with length*s.
    if (c > 0.0 && st.pool_load > 0.0) {
      const double zero_cross = st.pool_load / c;
      if (zero_cross > a && zero_cross < b) candidates.push_back(zero_cross);
    }
    if (c > length && st.pool_load > 0.0) {
      const double min_cross = st.pool_load / (c - length);
      if (min_cross > a && min_cross < b) candidates.push_back(min_cross);
    }
  }
  // One candidate beyond the largest threshold so the final linear piece
  // (slope l) anchors correctly even when the last crossing is far out.
  // (back() is the last crossing appended, or the largest threshold.)
  const double top =
      std::max(candidates.back(), (total > 0.0 ? 2.0 * total / length : 1.0));
  candidates.push_back(top + 1.0);
  std::sort(candidates.begin(), candidates.end());
  candidates.erase(std::unique(candidates.begin(), candidates.end()),
                   candidates.end());

  std::vector<util::PiecewiseLinear::Knot>& knots = scratch.knots;
  knots.clear();
  for (double s : candidates) {
    double z = 0.0;
    if (s > 0.0) {
      const PoolState st = pool_state(u, prefix, s * length);
      if (st.dedicated < std::size_t(num_processors)) {
        const double c =
            (double(num_processors) - double(st.dedicated)) * length;
        z = std::max(0.0, std::min(c * s - st.pool_load, s * length));
      }
    }
    knots.push_back({s, z});
  }
  out.assign(knots, length);
}

}  // namespace

double insertion_amount(const std::vector<double>& sorted_loads_desc,
                        int num_processors, double length, double speed) {
  PSS_REQUIRE(num_processors >= 1 && length > 0.0, "bad interval parameters");
  if (speed <= 0.0) return 0.0;
  std::vector<double> prefix(sorted_loads_desc.size() + 1, 0.0);
  for (std::size_t i = 0; i < sorted_loads_desc.size(); ++i)
    prefix[i + 1] = prefix[i] + sorted_loads_desc[i];
  const PoolState st =
      pool_state(sorted_loads_desc, prefix, speed * length);
  if (st.dedicated >= std::size_t(num_processors)) return 0.0;
  const double pool_procs = double(num_processors) - double(st.dedicated);
  const double pool_branch = pool_procs * length * speed - st.pool_load;
  const double dedicated_branch = speed * length;
  return std::max(0.0, std::min(pool_branch, dedicated_branch));
}

util::PiecewiseLinear insertion_curve(std::vector<double> other_loads,
                                      int num_processors, double length) {
  CurveScratch scratch;
  scratch.loads = std::move(other_loads);
  util::PiecewiseLinear curve;
  build_curve(scratch, num_processors, length, curve);
  return curve;
}

util::PiecewiseLinear insertion_curve(const std::vector<model::Load>& loads,
                                      model::JobId ignore_job,
                                      int num_processors, double length) {
  CurveScratch scratch;
  util::PiecewiseLinear curve;
  rebuild_insertion_curve(curve, loads, ignore_job, num_processors, length,
                          scratch);
  return curve;
}

void rebuild_insertion_curve(util::PiecewiseLinear& out,
                             const std::vector<model::Load>& loads,
                             model::JobId ignore_job, int num_processors,
                             double length, CurveScratch& scratch) {
  scratch.loads.clear();
  for (const model::Load& l : loads)
    if (l.job != ignore_job) scratch.loads.push_back(l.amount);
  build_curve(scratch, num_processors, length, out);
}

}  // namespace pss::chen
