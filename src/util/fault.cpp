#include "util/fault.hpp"

#include <algorithm>
#include <cstdlib>

#include "util/math.hpp"

namespace pss::util {

FaultInjector& FaultInjector::instance() {
  static FaultInjector injector;
  return injector;
}

void FaultInjector::arm(const std::string& site, long long after, Kind kind,
                        long long times) {
  std::lock_guard lock(mutex_);
  armed_[site] = Armed{after, times, kind, 0};
  enabled_.store(true, std::memory_order_relaxed);
}

void FaultInjector::arm_from_seed(const std::string& site, std::uint64_t seed,
                                  long long num_hits, Kind kind) {
  const long long span = std::max<long long>(1, num_hits);
  arm(site, static_cast<long long>(splitmix64(seed) %
                                   static_cast<std::uint64_t>(span)),
      kind);
}

void FaultInjector::arm_from_env() {
  const char* site = std::getenv("PSS_FAULT_SITE");
  if (site == nullptr || *site == '\0') return;
  const char* after_env = std::getenv("PSS_FAULT_AFTER");
  const char* kind_env = std::getenv("PSS_FAULT_KIND");
  const char* times_env = std::getenv("PSS_FAULT_TIMES");
  const long long after = after_env ? std::atoll(after_env) : 0;
  const long long times = times_env ? std::atoll(times_env) : 1;
  // Default to a true process kill: the env path exists for out-of-process
  // drills (ci/run_tier1.sh), where an exception would unwind and flush
  // buffers a real kill would lose.
  Kind kind = Kind::kExit;
  if (kind_env != nullptr) {
    const std::string k = kind_env;
    if (k == "error") kind = Kind::kError;
    else if (k == "crash") kind = Kind::kCrash;
    else kind = Kind::kExit;
  }
  arm(site, after, kind, times);
}

void FaultInjector::disarm_all() {
  std::lock_guard lock(mutex_);
  armed_.clear();
  enabled_.store(counting_, std::memory_order_relaxed);
}

void FaultInjector::set_counting(bool on) {
  std::lock_guard lock(mutex_);
  counting_ = on;
  enabled_.store(counting_ || !armed_.empty(), std::memory_order_relaxed);
}

void FaultInjector::reset_counts() {
  std::lock_guard lock(mutex_);
  hits_.clear();
}

long long FaultInjector::hits(const std::string& site) const {
  std::lock_guard lock(mutex_);
  auto it = hits_.find(site);
  return it == hits_.end() ? 0 : it->second;
}

std::vector<std::string> FaultInjector::sites_seen() const {
  std::lock_guard lock(mutex_);
  std::vector<std::string> out;
  out.reserve(hits_.size());
  for (const auto& [site, count] : hits_) out.push_back(site);
  std::sort(out.begin(), out.end());
  return out;
}

void FaultInjector::check(const char* site) {
  Kind kind;
  {
    std::lock_guard lock(mutex_);
    ++hits_[site];
    auto it = armed_.find(site);
    if (it == armed_.end()) return;
    Armed& armed = it->second;
    const long long index = armed.seen++;
    if (index < armed.after || index >= armed.after + armed.times) return;
    kind = armed.kind;
  }
  // Trigger outside the lock: an unwinding exception must not hold the
  // injector mutex (the drill harness may consult hits() while unwinding).
  switch (kind) {
    case Kind::kError:
      throw InjectedError(std::string("injected IO error at ") + site);
    case Kind::kCrash:
      throw InjectedCrash{site};
    case Kind::kExit:
      std::_Exit(42);
  }
}

}  // namespace pss::util
