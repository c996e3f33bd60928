#include "model/work_assignment.hpp"

#include <algorithm>

#include "util/assert.hpp"

namespace pss::model {

double WorkAssignment::load_of(std::size_t k, JobId job) const {
  PSS_REQUIRE(k < per_interval_.size(), "interval index out of range");
  for (const Load& l : per_interval_[k])
    if (l.job == job) return l.amount;
  return 0.0;
}

void WorkAssignment::set_load(std::size_t k, JobId job, double amount) {
  PSS_REQUIRE(k < per_interval_.size(), "interval index out of range");
  PSS_REQUIRE(amount >= 0.0, "load must be nonnegative");
  auto& loads = per_interval_[k];
  auto it = std::find_if(loads.begin(), loads.end(),
                         [job](const Load& l) { return l.job == job; });
  if (amount == 0.0) {
    if (it != loads.end()) loads.erase(it);
    return;
  }
  if (it != loads.end())
    it->amount = amount;
  else
    loads.push_back({job, amount});
}

double WorkAssignment::remove_job(JobId job) {
  double removed = 0.0;
  for (std::size_t k = 0; k < per_interval_.size(); ++k) {
    auto& loads = per_interval_[k];
    auto it = std::find_if(loads.begin(), loads.end(),
                           [job](const Load& l) { return l.job == job; });
    if (it != loads.end()) {
      removed += it->amount;
      loads.erase(it);
    }
  }
  return removed;
}

double WorkAssignment::total_of(JobId job) const {
  double total = 0.0;
  for (const auto& loads : per_interval_)
    for (const Load& l : loads)
      if (l.job == job) total += l.amount;
  return total;
}

double WorkAssignment::interval_total(std::size_t k) const {
  PSS_REQUIRE(k < per_interval_.size(), "interval index out of range");
  double total = 0.0;
  for (const Load& l : per_interval_[k]) total += l.amount;
  return total;
}

void WorkAssignment::split_interval(std::size_t k, double frac) {
  PSS_REQUIRE(k < per_interval_.size(), "interval index out of range");
  PSS_REQUIRE(frac > 0.0 && frac < 1.0, "split fraction must be in (0,1)");
  std::vector<Load> left = per_interval_[k];
  std::vector<Load> right = per_interval_[k];
  for (Load& l : left) l.amount *= frac;
  for (Load& l : right) l.amount *= (1.0 - frac);
  per_interval_[k] = std::move(left);
  per_interval_.insert(per_interval_.begin() + std::ptrdiff_t(k) + 1,
                       std::move(right));
}

}  // namespace pss::model
