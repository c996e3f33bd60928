// Session lifecycle for one shard: stream id -> live PdScheduler.
//
// A session is one independent run of the online PD algorithm (the paper's
// scheduler is embarrassingly parallel across instances — nothing is shared
// between streams). The table opens sessions lazily on first arrival,
// advances their horizons, and on close finalizes the stream into a
// StreamResult and parks the scheduler object on a free list for the next
// stream (PdScheduler::reset() is the reuse entry point, so a long-running
// shard serving millions of short streams does not churn allocations).
//
// Under an ingest::SpillOptions residency budget the table additionally
// keeps at most `max_resident` sessions live: the least-recently-touched
// session is serialized through the state_io checkpoint path into a spill
// store and its scheduler recycled; the next op touching the stream restores
// the blob and serves on. Spilling is decision-identical by construction
// (the checkpoint contract round-trips semantic state bitwise; only derived
// caches rebuild cold), so it bounds memory without perturbing the algorithm.
//
// Single-threaded by design: each shard worker owns exactly one table.
// Cross-thread aggregation happens above, in the engine's snapshot path.
#pragma once

#include <cstddef>
#include <deque>
#include <iosfwd>
#include <iterator>
#include <list>
#include <memory>
#include <unordered_map>
#include <utility>
#include <vector>

#include "core/pd_scheduler.hpp"
#include "ingest/spill.hpp"
#include "model/job.hpp"
#include "stream/router.hpp"

namespace pss::stream {

/// Final accounting of one closed stream.
struct StreamResult {
  StreamId id = 0;
  core::PdCounters counters;
  /// Exact committed plan energy at close (sum of interval P_k).
  double planned_energy = 0.0;
  /// Per-arrival decisions in arrival order; captured only when the table
  /// records decisions (bulk serving keeps this off to bound memory).
  std::vector<std::pair<model::JobId, core::ArrivalDecision>> decisions;
};

class SessionTable {
 public:
  SessionTable(model::Machine machine, core::PdOptions options,
               bool record_decisions, ingest::SpillOptions spill = {})
      : machine_(machine),
        options_(options),
        record_decisions_(record_decisions),
        spill_options_(std::move(spill)),
        store_(ingest::make_spill_store(spill_options_)) {
    // The capture flag reaches into the schedulers themselves: with it off,
    // no per-arrival log accumulates anywhere, so an indefinitely-running
    // stream holds O(live window) memory, not O(arrivals).
    options_.record_decisions = record_decisions;
  }

  /// Opens a session explicitly (idempotent). feed() auto-opens, so this
  /// exists for callers that want the session to exist before traffic.
  void open(StreamId id);

  /// Routes one arrival into the stream's scheduler, opening it if needed.
  /// Client job ids pass through unchanged, so a repeated id reaches
  /// PdScheduler::on_arrival and is refused there (std::invalid_argument).
  core::ArrivalDecision feed(StreamId id, const model::Job& job);

  /// Advances the stream's horizon to time t (opens the session if needed,
  /// so an idle stream can still track the clock) and compacts the
  /// session's retired prefix — the steady-state GC driver: every advance
  /// retires the intervals that can no longer intersect a future window.
  /// A malformed advance (non-finite t, or t behind the session's clock)
  /// is contained here: it returns false and leaves the session serving,
  /// instead of letting the precondition throw poison the whole batch.
  bool advance(StreamId id, double t);

  /// Finalizes the stream into completed() and recycles its scheduler.
  /// Returns the finalized result, or nullptr if the id has no session.
  /// The pointer stays valid until take_completed() (completed results
  /// live in a deque, so later closes never relocate earlier ones).
  const StreamResult* close(StreamId id);

  /// Logically-open sessions: resident plus spilled.
  [[nodiscard]] std::size_t num_open() const {
    return open_.size() + num_spilled();
  }
  [[nodiscard]] long long num_closed() const { return num_closed_; }

  /// Residency accounting (all zero-cost; spilled is 0 without a budget).
  [[nodiscard]] std::size_t num_resident() const { return open_.size(); }
  [[nodiscard]] std::size_t num_spilled() const {
    return store_ ? store_->size() : 0;
  }
  [[nodiscard]] long long num_spills() const { return spills_; }
  [[nodiscard]] long long num_spill_restores() const {
    return spill_restores_;
  }
  /// Spill IO failures that exhausted the store's retries. An eviction
  /// failure keeps the session resident (over budget but serving); a
  /// restore failure propagates to the caller's per-op containment.
  [[nodiscard]] long long num_spill_errors() const { return spill_errors_; }
  /// Failed-then-retried spill IO attempts (the store's backoff loop).
  [[nodiscard]] long long num_spill_retries() const {
    return store_ ? store_->io_retries() : 0;
  }

  [[nodiscard]] const std::deque<StreamResult>& completed() const {
    return completed_;
  }
  [[nodiscard]] std::vector<StreamResult> take_completed() {
    std::vector<StreamResult> out(
        std::make_move_iterator(completed_.begin()),
        std::make_move_iterator(completed_.end()));
    completed_.clear();
    return out;
  }

  /// Serializes every open session (sorted by stream id), the completed
  /// results not yet taken, and the close tally. Binary format of
  /// src/io/state_io.hpp.
  void checkpoint(std::ostream& os) const;
  /// Restores a checkpoint() image into this table, which must be empty
  /// and configured identically (machine/options checked per session;
  /// throws std::invalid_argument on mismatch).
  void restore(std::istream& is);

 private:
  struct Resident {
    std::unique_ptr<core::PdScheduler> scheduler;
    std::list<StreamId>::iterator lru;  // position in lru_ (front = hottest)
  };

  core::PdScheduler& session(StreamId id);
  [[nodiscard]] std::unique_ptr<core::PdScheduler> recycled_scheduler();
  void evict_to_budget();

  model::Machine machine_;
  core::PdOptions options_;
  bool record_decisions_;
  ingest::SpillOptions spill_options_;
  std::unique_ptr<ingest::SpillStore> store_;  // null => spilling disabled
  std::unordered_map<StreamId, Resident> open_;
  std::list<StreamId> lru_;  // residents, most recently touched first
  std::vector<std::unique_ptr<core::PdScheduler>> free_;  // reset, reusable
  std::deque<StreamResult> completed_;  // pointer-stable across closes
  long long num_closed_ = 0;
  long long spills_ = 0;
  long long spill_restores_ = 0;
  long long spill_errors_ = 0;
};

}  // namespace pss::stream
