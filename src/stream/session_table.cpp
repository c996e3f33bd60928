#include "stream/session_table.hpp"

#include <algorithm>
#include <istream>
#include <ostream>
#include <sstream>
#include <stdexcept>

#include "io/state_io.hpp"
#include "util/assert.hpp"

namespace pss::stream {

std::unique_ptr<core::PdScheduler> SessionTable::recycled_scheduler() {
  if (!free_.empty()) {
    std::unique_ptr<core::PdScheduler> scheduler = std::move(free_.back());
    free_.pop_back();
    return scheduler;
  }
  return std::make_unique<core::PdScheduler>(machine_, options_);
}

void SessionTable::evict_to_budget() {
  if (!store_) return;
  while (open_.size() > spill_options_.max_resident && open_.size() > 1) {
    const StreamId victim = lru_.back();  // coldest resident
    auto it = open_.find(victim);
    PSS_CHECK(it != open_.end(), "lru/table desync");
    std::ostringstream blob;
    io::save_scheduler(blob, *it->second.scheduler);
    try {
      store_->put(victim, std::move(blob).str());
    } catch (const std::exception&) {
      // Retries are already spent (the store backs off internally). Failing
      // to spill must not lose the session: keep it resident — over budget
      // but correct — and try again on the next eviction pressure.
      // (util::InjectedCrash is not a std::exception and propagates.)
      ++spill_errors_;
      return;
    }
    ++spills_;
    it->second.scheduler->reset();
    free_.push_back(std::move(it->second.scheduler));
    lru_.pop_back();
    open_.erase(it);
  }
}

core::PdScheduler& SessionTable::session(StreamId id) {
  auto it = open_.find(id);
  if (it != open_.end()) {
    // Touch: move to the LRU front so the budget evicts someone colder.
    if (store_ && it->second.lru != lru_.begin())
      lru_.splice(lru_.begin(), lru_, it->second.lru);
    return *it->second.scheduler;
  }
  std::unique_ptr<core::PdScheduler> scheduler = recycled_scheduler();
  std::string blob;
  bool restored = false;
  try {
    restored = store_ && store_->take(id, blob);
  } catch (const std::exception&) {
    // Restore failure is NOT containable here: serving this stream from a
    // fresh scheduler would silently fork its history. Count it and let
    // the caller's per-op containment shed the op instead.
    ++spill_errors_;
    free_.push_back(std::move(scheduler));
    throw;
  }
  if (restored) {
    std::istringstream in(std::move(blob));
    io::load_scheduler(in, *scheduler);
    ++spill_restores_;
  }
  lru_.push_front(id);
  core::PdScheduler& ref =
      *open_.emplace(id, Resident{std::move(scheduler), lru_.begin()})
           .first->second.scheduler;
  evict_to_budget();
  return ref;
}

void SessionTable::open(StreamId id) { session(id); }

core::ArrivalDecision SessionTable::feed(StreamId id, const model::Job& job) {
  return session(id).on_arrival(job);
}

bool SessionTable::advance(StreamId id, double t) {
  core::PdScheduler& scheduler = session(id);
  try {
    scheduler.advance_to(t, /*compact=*/true);
  } catch (const std::invalid_argument&) {
    return false;  // precondition violation: this op only; session serves on
  }
  return true;
}

const StreamResult* SessionTable::close(StreamId id) {
  auto it = open_.find(id);
  if (it == open_.end()) {
    if (!store_ || !store_->contains(id)) return nullptr;
    session(id);  // restore the spilled session so it can be finalized
    it = open_.find(id);
    PSS_CHECK(it != open_.end(), "restored session missing");
  }
  core::PdScheduler& scheduler = *it->second.scheduler;
  StreamResult result;
  result.id = id;
  result.counters = scheduler.counters();
  result.planned_energy = scheduler.planned_energy();
  if (record_decisions_) result.decisions = scheduler.decisions();
  completed_.push_back(std::move(result));
  ++num_closed_;
  scheduler.reset();
  free_.push_back(std::move(it->second.scheduler));
  lru_.erase(it->second.lru);
  open_.erase(it);
  return &completed_.back();
}

void SessionTable::checkpoint(std::ostream& os) const {
  // One sorted id walk over residents and spilled sessions together. A
  // spilled blob *is* a save_scheduler image, and identical state serializes
  // to identical bytes, so writing stored blobs verbatim keeps the format —
  // and the checkpoint bytes — independent of what happened to be resident.
  std::vector<StreamId> ids;
  ids.reserve(num_open());
  for (const auto& [id, resident] : open_) ids.push_back(id);
  if (store_)
    for (std::uint64_t key : store_->keys()) ids.push_back(key);
  std::sort(ids.begin(), ids.end());
  io::write_u64(os, ids.size());
  for (StreamId id : ids) {
    io::write_u64(os, id);
    auto it = open_.find(id);
    if (it != open_.end()) {
      io::save_scheduler(os, *it->second.scheduler);
    } else {
      std::string blob;
      PSS_CHECK(store_ && store_->peek(id, blob), "spilled blob missing");
      os.write(blob.data(), static_cast<std::streamsize>(blob.size()));
    }
  }
  io::write_i64(os, num_closed_);
  io::write_u64(os, completed_.size());
  for (const StreamResult& r : completed_) {
    io::write_u64(os, r.id);
    io::save_counters(os, r.counters);
    io::write_f64(os, r.planned_energy);
    io::write_u64(os, r.decisions.size());
    for (const auto& [job, d] : r.decisions) {
      io::write_i64(os, job);
      io::write_u8(os, d.accepted ? 1 : 0);
      io::write_f64(os, d.speed);
      io::write_f64(os, d.lambda);
      io::write_f64(os, d.planned_energy);
    }
  }
}

namespace {
// Count sanity ahead of any allocation (a corrupt stream must not turn a
// garbage u64 into a giant resize).
std::uint64_t read_count(std::istream& is) {
  const std::uint64_t n = io::read_u64(is);
  PSS_REQUIRE(n <= (std::uint64_t(1) << 40), "corrupt checkpoint: count");
  return n;
}
}  // namespace

void SessionTable::restore(std::istream& is) {
  PSS_REQUIRE(open_.empty() && num_spilled() == 0 && completed_.empty() &&
                  num_closed_ == 0,
              "restore target table must be empty");
  const std::uint64_t n_open = read_count(is);
  for (std::uint64_t i = 0; i < n_open; ++i) {
    const auto id = static_cast<StreamId>(io::read_u64(is));
    // session() may evict an earlier restored session to honor the budget;
    // the load lands in the fresh resident either way.
    io::load_scheduler(is, session(id));
  }
  num_closed_ = io::read_i64(is);
  const std::uint64_t n_completed = read_count(is);
  for (std::uint64_t i = 0; i < n_completed; ++i) {
    StreamResult r;
    r.id = static_cast<StreamId>(io::read_u64(is));
    io::load_counters(is, r.counters);
    r.planned_energy = io::read_f64(is);
    // Appended as read, never presized: a corrupt count fails as a
    // truncated stream instead of a giant allocation.
    const std::uint64_t n_decisions = read_count(is);
    for (std::uint64_t k = 0; k < n_decisions; ++k) {
      const auto job = static_cast<model::JobId>(io::read_i64(is));
      core::ArrivalDecision d;
      d.accepted = io::read_u8(is) != 0;
      d.speed = io::read_f64(is);
      d.lambda = io::read_f64(is);
      d.planned_energy = io::read_f64(is);
      r.decisions.push_back({job, d});
    }
    completed_.push_back(std::move(r));
  }
}

}  // namespace pss::stream
