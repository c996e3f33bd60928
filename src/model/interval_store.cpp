#include "model/interval_store.hpp"

#include <algorithm>
#include <cmath>

#include "util/assert.hpp"

namespace pss::model {

void IntervalStore::clear() {
  index_.clear();
  payload_.clear();
  free_.clear();
  head_ = tail_ = kNoHandle;
  max_job_ = kNoJob;
  end_ = 0.0;
  lone_boundary_.reset();
}

IntervalStore::Handle IntervalStore::allocate(double start, Handle next) {
  Handle h;
  if (!free_.empty()) {
    // Recycled slot: its old tenant left it with no loads, no knots and a
    // stale curve (compact_before).
    h = free_.back();
    free_.pop_back();
  } else {
    PSS_REQUIRE(payload_.size() < std::size_t(kNoHandle),
                "interval store full");
    h = Handle(payload_.size());
    payload_.emplace_back();
  }
  payload_[h].start = start;
  payload_[h].next = next;
  return h;
}

std::size_t IntervalStore::compact_before(double frontier) {
  std::size_t retired = 0;
  while (head_ != kNoHandle && end_of(head_) <= frontier) {
    Payload& p = payload_[head_];
    p.loads.clear();
    p.curve = {};
    p.fresh = false;
    index_.erase(index_.begin());  // the front interval's entry
    free_.push_back(head_);
    ++retired;
    head_ = p.next;
  }
  if (head_ == kNoHandle && retired > 0) {
    // Everything retired: the back boundary becomes the bootstrap boundary,
    // so the next refinement grows the horizon exactly as it would have.
    tail_ = kNoHandle;
    lone_boundary_ = end_;
  }
  return retired;
}

IntervalStore::Refinement IntervalStore::ensure_boundary(double t) {
  PSS_REQUIRE(std::isfinite(t), "boundary must be finite");
  if (index_.empty()) {
    // Bootstrap: fewer than two boundaries, no interval yet.
    if (!lone_boundary_.has_value()) {
      lone_boundary_ = t;
      return Refinement::kNoop;
    }
    if (*lone_boundary_ == t) return Refinement::kNoop;
    const double lo = std::min(*lone_boundary_, t);
    head_ = tail_ = allocate(lo, kNoHandle);
    index_.emplace(lo, head_);
    end_ = std::max(*lone_boundary_, t);
    lone_boundary_.reset();
    return Refinement::kBootstrap;
  }
  if (t == end_) return Refinement::kNoop;
  if (t > end_) {
    // Horizon extension right: new empty interval [old back, t).
    const Handle h = allocate(end_, kNoHandle);
    index_.emplace_hint(index_.end(), end_, h);
    payload_[tail_].next = h;
    tail_ = h;
    end_ = t;
    return Refinement::kAppend;
  }
  auto it = index_.upper_bound(t);
  if (it == index_.begin()) {
    // Horizon extension left: new empty interval [t, old front).
    head_ = allocate(t, head_);
    index_.emplace_hint(it, t, head_);
    return Refinement::kPrepend;
  }
  const Handle at = std::prev(it)->second;
  if (payload_[at].start == t) return Refinement::kNoop;

  // Split the interval `at` = [lo, hi) at t. Same arithmetic as the
  // contiguous path: frac from the full interval, loads scaled by frac and
  // (1 - frac). The right half comes stale from allocate; the left half
  // lost length and load.
  const double lo = payload_[at].start;
  const double hi = end_of(at);
  const double frac = (t - lo) / (hi - lo);
  const Handle right = allocate(t, payload_[at].next);
  index_.emplace_hint(it, t, right);
  payload_[at].next = right;
  if (tail_ == at) tail_ = right;
  Payload& left_payload = payload_[at];
  Payload& right_payload = payload_[right];
  right_payload.loads = left_payload.loads;
  for (Load& l : left_payload.loads) l.amount *= frac;
  for (Load& l : right_payload.loads) l.amount *= (1.0 - frac);
  left_payload.fresh = false;
  return Refinement::kSplit;
}

bool IntervalStore::has_boundary(double t) const {
  if (index_.empty())
    return lone_boundary_.has_value() && *lone_boundary_ == t;
  return t == end_ || index_.contains(t);
}

double IntervalStore::front_boundary() const {
  PSS_REQUIRE(num_boundaries() >= 1, "store has no boundaries");
  if (index_.empty()) return *lone_boundary_;
  return payload_[head_].start;
}

double IntervalStore::back_boundary() const {
  PSS_REQUIRE(num_boundaries() >= 1, "store has no boundaries");
  if (index_.empty()) return *lone_boundary_;
  return end_;
}

IntervalStore::Span IntervalStore::span(double t0, double t1) const {
  PSS_REQUIRE(t0 < t1, "empty time range");
  const auto first = index_.find(t0);
  PSS_REQUIRE(first != index_.end(), "span start is not an interval start");
  if (t1 == end_) return {first->second, kNoHandle};
  const auto last = index_.find(t1);
  PSS_REQUIRE(last != index_.end(), "span end is not a partition boundary");
  return {first->second, last->second};
}

double IntervalStore::load_of(Handle h, JobId job) const {
  for (const Load& l : payload_[h].loads)
    if (l.job == job) return l.amount;
  return 0.0;
}

void IntervalStore::set_load(Handle h, JobId job, double amount) {
  PSS_REQUIRE(std::size_t(h) < payload_.size(), "interval handle out of range");
  PSS_REQUIRE(amount >= 0.0, "load must be nonnegative");
  auto& loads = payload_[h].loads;
  auto it = std::find_if(loads.begin(), loads.end(),
                         [job](const Load& l) { return l.job == job; });
  if (amount == 0.0) {
    if (it != loads.end()) {
      loads.erase(it);
      payload_[h].fresh = false;
    }
    return;
  }
  if (it != loads.end())
    it->amount = amount;
  else
    loads.push_back({job, amount});
  payload_[h].fresh = false;
  max_job_ = std::max(max_job_, job);
}

void IntervalStore::append_load(Handle h, JobId job, double amount) {
  PSS_REQUIRE(std::size_t(h) < payload_.size(), "interval handle out of range");
  PSS_REQUIRE(amount >= 0.0, "load must be nonnegative");
  if (amount == 0.0) return;
  payload_[h].loads.push_back({job, amount});
  payload_[h].fresh = false;
  max_job_ = std::max(max_job_, job);
}

double IntervalStore::interval_total(Handle h) const {
  double total = 0.0;
  for (const Load& l : payload_[h].loads) total += l.amount;
  return total;
}

double IntervalStore::total_of(JobId job) const {
  double total = 0.0;
  for (const Payload& p : payload_)
    for (const Load& l : p.loads)
      if (l.job == job) total += l.amount;
  return total;
}

TimePartition IntervalStore::snapshot_partition() const {
  TimePartition partition;
  if (index_.empty()) {
    if (lone_boundary_.has_value()) partition.insert_boundary(*lone_boundary_);
    return partition;
  }
  // Ascending inserts append at the vector's back, so the snapshot is
  // O(n) amortized despite going through the one-at-a-time API.
  for (Handle h = front_handle(); h != kNoHandle; h = next_handle(h))
    partition.insert_boundary(start_of(h));
  partition.insert_boundary(end_);
  return partition;
}

WorkAssignment IntervalStore::snapshot_assignment() const {
  WorkAssignment assignment(num_intervals());
  std::size_t pos = 0;
  for (Handle h = front_handle(); h != kNoHandle; h = next_handle(h), ++pos)
    for (const Load& l : payload_[h].loads)
      assignment.set_load(pos, l.job, l.amount);
  return assignment;
}

}  // namespace pss::model
