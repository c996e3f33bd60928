#include "stream/engine.hpp"

#include <algorithm>
#include <chrono>
#include <istream>
#include <ostream>

#include <string>
#include <thread>

#include "io/state_io.hpp"
#include "util/assert.hpp"
#include "util/fault.hpp"

namespace pss::stream {

namespace {
// Balances the in_flight_ registration on every exit path out of enqueue()
// (including the PSS_REQUIRE throw on a blocking push into a paused engine).
struct InFlightGuard {
  std::atomic<long long>& counter;
  ~InFlightGuard() { counter.fetch_sub(1, std::memory_order_seq_cst); }
};

// Poll, then park. A parked thread's CPU goes idle, and on a virtual
// machine waking it again is a round trip through the hypervisor whose
// latency follows the host's load. A caller that feeds a tick and then
// drains pays two such wakes per tick: the worker parks once its rings run
// dry and is woken by the next tick's first push, and drain() parks until
// the last publish. With sub-millisecond ticks those wakes are a large,
// host-dependent share of each tick, so both sides first poll for a short,
// bounded time. Polling only helps while every worker and the draining
// thread have a CPU of their own; with fewer CPUs it would take the CPU
// from the thread being waited for, so the engine then parks at once.
constexpr std::chrono::microseconds kIdlePoll{100};    // worker, rings empty
constexpr std::chrono::microseconds kDrainPoll{2000};  // drain(), per call

void cpu_relax() {
#if defined(__x86_64__) || defined(__i386__)
  __builtin_ia32_pause();
#elif defined(__aarch64__)
  asm volatile("yield");
#endif
}

/// Polls `ready` until it holds (returns true) or `deadline` passes.
template <typename Ready>
bool poll_until(std::chrono::steady_clock::time_point deadline,
                Ready&& ready) {
  for (unsigned n = 1;; ++n) {
    if (ready()) return true;
    cpu_relax();
    if (n % 64 == 0 && std::chrono::steady_clock::now() >= deadline)
      return false;
  }
}
}  // namespace

StreamEngine::StreamEngine(EngineOptions options)
    : options_(options),
      router_(options.num_shards),
      admission_(options.admission),
      paused_(options.start_paused),
      poll_before_park_(std::thread::hardware_concurrency() >
                        options.num_shards) {
  PSS_REQUIRE(options_.num_shards >= 1, "need at least one shard");
  PSS_REQUIRE(options_.max_producers >= 1, "need at least one producer slot");
  PSS_REQUIRE(options_.drain_batch >= 1, "drain_batch must be positive");
  slot_used_.assign(options_.max_producers, false);
  slot_used_[0] = true;  // the owner thread
  shards_.reserve(options_.num_shards);
  for (std::size_t i = 0; i < options_.num_shards; ++i)
    shards_.push_back(std::make_unique<Shard>(options_, i));
  for (auto& shard : shards_)
    shard->worker = std::thread([this, s = shard.get()] { worker_loop(*s); });
}

StreamEngine::~StreamEngine() { stop(); }

// ------------------------------------------------------------- producers

StreamEngine::Producer& StreamEngine::Producer::operator=(
    Producer&& other) noexcept {
  if (this != &other) {
    release();
    engine_ = other.engine_;
    slot_ = other.slot_;
    other.engine_ = nullptr;
    other.slot_ = 0;
  }
  return *this;
}

void StreamEngine::Producer::release() {
  if (engine_ != nullptr) {
    engine_->release_producer(slot_);
    engine_ = nullptr;
    slot_ = 0;
  }
}

bool StreamEngine::Producer::open(StreamId id) {
  PSS_REQUIRE(engine_ != nullptr, "empty producer handle");
  return engine_->enqueue(slot_, engine_->router_.shard_of(id),
                          ShardOp{ShardOp::Kind::kOpen, id, 0.0, {}});
}

bool StreamEngine::Producer::feed(StreamId id, const model::Job& job) {
  PSS_REQUIRE(engine_ != nullptr, "empty producer handle");
  return engine_->enqueue(slot_, engine_->router_.shard_of(id),
                          ShardOp{ShardOp::Kind::kArrival, id, 0.0, job});
}

bool StreamEngine::Producer::advance(StreamId id, double t) {
  PSS_REQUIRE(engine_ != nullptr, "empty producer handle");
  return engine_->enqueue(slot_, engine_->router_.shard_of(id),
                          ShardOp{ShardOp::Kind::kAdvance, id, t, {}});
}

bool StreamEngine::Producer::close_stream(StreamId id) {
  PSS_REQUIRE(engine_ != nullptr, "empty producer handle");
  return engine_->enqueue(slot_, engine_->router_.shard_of(id),
                          ShardOp{ShardOp::Kind::kClose, id, 0.0, {}});
}

StreamEngine::Producer StreamEngine::producer() {
  std::lock_guard lock(producer_mutex_);
  PSS_REQUIRE(accepting_.load(std::memory_order_seq_cst),
              "engine already finished");
  for (std::size_t slot = 1; slot < options_.max_producers; ++slot) {
    if (!slot_used_[slot]) {
      slot_used_[slot] = true;
      ++active_producers_;
      return Producer(this, slot);
    }
  }
  PSS_REQUIRE(false, "all producer slots in use (raise max_producers)");
  return {};  // unreachable
}

void StreamEngine::release_producer(std::size_t slot) {
  std::lock_guard lock(producer_mutex_);
  PSS_CHECK(slot > 0 && slot < slot_used_.size() && slot_used_[slot],
            "releasing an unclaimed producer slot");
  slot_used_[slot] = false;
  --active_producers_;
}

std::size_t StreamEngine::active_producers() const {
  std::lock_guard lock(producer_mutex_);
  return active_producers_;
}

// ------------------------------------------------------------- ingestion

void StreamEngine::wake(Shard& shard) {
  // Dekker-style handshake with the worker's sleep path: the ring push
  // (seq_cst fence below) and the worker's sleeping-flag store are ordered
  // so that either we observe sleeping == true and notify, or the worker's
  // post-flag emptiness recheck observes our push — never neither. The
  // argument is per-ring, so it survives multiple producers: each pushes to
  // its own ring before fencing, and the worker rechecks every ring.
  std::atomic_thread_fence(std::memory_order_seq_cst);
  if (shard.sleeping.load(std::memory_order_relaxed)) {
    std::lock_guard lock(shard.wake_mutex);
    shard.wake_cv.notify_one();
  }
}

bool StreamEngine::enqueue(std::size_t slot, std::size_t shard_index,
                           ShardOp op) {
  Shard& shard = *shards_[shard_index];
  // Shutdown gate: register as in flight *before* reading accepting_, the
  // mirror order of stop()'s write-then-wait — so either stop() sees this
  // op in flight and waits for the push, or this op sees the closed gate
  // and becomes a counted late reject. Never a push into a dying ring.
  in_flight_.fetch_add(1, std::memory_order_seq_cst);
  InFlightGuard guard{in_flight_};
  if (!accepting_.load(std::memory_order_seq_cst)) {
    shard.late_rejects.fetch_add(1, std::memory_order_relaxed);
    return false;
  }
  // A quarantined shard has no worker: refuse-and-count instead of filling
  // a ring nobody will ever drain (or blocking on it forever).
  if (shard.quarantined.load(std::memory_order_acquire)) {
    shard.quarantined_rejects.fetch_add(1, std::memory_order_relaxed);
    return false;
  }
  SpscQueue<ShardOp>& queue = *shard.queues[slot];
  // Admission: shed-before-enqueue, arrivals only (a shed open/advance/
  // close would corrupt the stream's lifecycle rather than its load).
  if (op.kind == ShardOp::Kind::kArrival && !admission_.admit(queue.size())) {
    shard.admission_rejects.fetch_add(1, std::memory_order_relaxed);
    return false;
  }
  if (!queue.try_push(op)) {
    if (options_.backpressure == Backpressure::kReject) {
      shard.queue_rejects.fetch_add(1, std::memory_order_relaxed);
      return false;
    }
    PSS_REQUIRE(!paused_.load(std::memory_order_relaxed),
                "blocking push on a paused engine would deadlock");
    shard.full_waits.fetch_add(1, std::memory_order_relaxed);
    // Timed retry instead of a wake-perfect protocol: this is the
    // backpressure slow path, and a bounded poll makes a missed producer
    // wake impossible by construction.
    while (!queue.try_push(op)) {
      // The worker may die while we block; its quarantine flips before the
      // notify, so this bounded poll always observes it and escapes.
      if (shard.quarantined.load(std::memory_order_acquire)) {
        shard.quarantined_rejects.fetch_add(1, std::memory_order_relaxed);
        return false;
      }
      std::unique_lock lock(shard.stats_mutex);
      shard.drained_cv.wait_for(lock, std::chrono::microseconds(100));
    }
  }
  shard.enqueued.fetch_add(1, std::memory_order_relaxed);
  wake(shard);
  return true;
}

bool StreamEngine::open(StreamId id) {
  return enqueue(0, router_.shard_of(id),
                 ShardOp{ShardOp::Kind::kOpen, id, 0.0, {}});
}

bool StreamEngine::feed(StreamId id, const model::Job& job) {
  return enqueue(0, router_.shard_of(id),
                 ShardOp{ShardOp::Kind::kArrival, id, 0.0, job});
}

bool StreamEngine::advance(StreamId id, double t) {
  return enqueue(0, router_.shard_of(id),
                 ShardOp{ShardOp::Kind::kAdvance, id, t, {}});
}

bool StreamEngine::close_stream(StreamId id) {
  return enqueue(0, router_.shard_of(id),
                 ShardOp{ShardOp::Kind::kClose, id, 0.0, {}});
}

void StreamEngine::resume() {
  paused_.store(false, std::memory_order_release);
  for (auto& shard : shards_) {
    std::lock_guard lock(shard->wake_mutex);
    shard->wake_cv.notify_one();
  }
}

void StreamEngine::drain_shard(Shard& shard,
                               std::chrono::steady_clock::time_point poll) {
  const long long target = shard.enqueued.load(std::memory_order_relaxed);
  if (poll_before_park_)
    poll_until(poll, [&] {
      return shard.processed.load(std::memory_order_acquire) >= target ||
             shard.quarantined.load(std::memory_order_acquire);
    });
  std::unique_lock lock(shard.stats_mutex);
  // A quarantined shard will never reach the target; waiting on a dead
  // worker must not wedge the caller (the stranded ops are part of the
  // shard's blast radius, reported via degraded_sessions).
  shard.drained_cv.wait(lock, [&] {
    return shard.published.processed >= target ||
           shard.quarantined.load(std::memory_order_acquire);
  });
}

void StreamEngine::drain() {
  PSS_REQUIRE(!paused_.load(std::memory_order_relaxed),
              "draining a paused engine would deadlock");
  const auto poll = std::chrono::steady_clock::now() + kDrainPoll;
  for (auto& shard : shards_) drain_shard(*shard, poll);
}

void StreamEngine::stop() {
  if (finished_.load(std::memory_order_acquire)) return;
  // Quiesce producers first: close the gate, then wait out every enqueue
  // already past it. Workers keep draining, so a producer blocked on a full
  // ring makes progress and the wait terminates.
  accepting_.store(false, std::memory_order_seq_cst);
  while (in_flight_.load(std::memory_order_seq_cst) != 0)
    std::this_thread::yield();
  stopping_.store(true, std::memory_order_release);
  for (auto& shard : shards_) {
    std::lock_guard lock(shard->wake_mutex);
    shard->wake_cv.notify_one();
  }
  for (auto& shard : shards_)
    if (shard->worker.joinable()) shard->worker.join();
  finished_.store(true, std::memory_order_release);
}

// ------------------------------------------------------ checkpoint/restore

namespace {
// "PSSCKPT7" as a little-endian u64 — version byte last. (v2 added the
// admission/late-reject tallies to the per-shard stats block; v3 added the
// WAL checkpoint-mark stamp for crash recovery; v4 added an adaptive-backend
// block that v5 dropped again, together with its config byte and its two
// counters in the counter table; v6 dropped the incremental/indexed config
// bytes and the session blob's contiguous layout; v7 dropped the two
// screen/lazy config bytes, one counter, and the session blob's mode,
// accepted-id and annotation blocks. No reader for older versions.)
constexpr std::uint64_t kCheckpointMagic = 0x3754504B43535350ull;
// "PSSSHRD5": a single-shard image (checkpoint_shard / restore_shard),
// version-bumped in lockstep with the v7 session-blob format.
constexpr std::uint64_t kShardMagic = 0x3544524853535350ull;
}  // namespace

bool StreamEngine::quiesce_producers() {
  // Bounded grace instead of an immediate refusal: a checkpoint cadence
  // usually lands while short-lived producer handles wind down, and waiting
  // out that window beats failing the cadence. The deadline keeps a leaked
  // handle from wedging the serving loop — on timeout the checkpoint is
  // refused and counted, and the caller retries at the next cadence.
  const auto deadline = std::chrono::steady_clock::now() +
                        std::chrono::milliseconds(options_.quiesce_timeout_ms);
  while (active_producers() != 0) {
    if (std::chrono::steady_clock::now() >= deadline) {
      checkpoint_refusals_.fetch_add(1, std::memory_order_relaxed);
      return false;
    }
    std::this_thread::sleep_for(std::chrono::microseconds(100));
  }
  return true;
}

void StreamEngine::write_config(std::ostream& os) const {
  io::write_u64(os, options_.num_shards);
  io::write_i64(os, options_.machine.num_processors);
  io::write_f64(os, options_.machine.alpha);
  io::write_u8(os, options_.scheduler.delta.has_value() ? 1 : 0);
  io::write_f64(os, options_.scheduler.delta.value_or(0.0));
  io::write_u8(os, options_.record_decisions ? 1 : 0);
}

void StreamEngine::check_config(std::istream& is) const {
  PSS_REQUIRE(io::read_u64(is) == options_.num_shards,
              "checkpoint shard count mismatch");
  PSS_REQUIRE(io::read_i64(is) == options_.machine.num_processors &&
                  io::read_f64(is) == options_.machine.alpha,
              "checkpoint machine mismatch");
  const bool has_delta = io::read_u8(is) != 0;
  const double delta = io::read_f64(is);
  PSS_REQUIRE(has_delta == options_.scheduler.delta.has_value() &&
                  delta == options_.scheduler.delta.value_or(0.0),
              "checkpoint delta mismatch");
  PSS_REQUIRE((io::read_u8(is) != 0) == options_.record_decisions,
              "checkpoint record_decisions mismatch");
}

void StreamEngine::write_shard_state(std::ostream& os, Shard& shard) const {
  ShardSnapshot p;
  {
    std::lock_guard lock(shard.stats_mutex);
    p = shard.published;
  }
  io::write_i64(os, shard.enqueued.load(std::memory_order_relaxed));
  io::write_i64(os, shard.admission_rejects.load(std::memory_order_relaxed));
  io::write_i64(os, shard.queue_rejects.load(std::memory_order_relaxed));
  io::write_i64(os, shard.full_waits.load(std::memory_order_relaxed));
  io::write_i64(os, shard.late_rejects.load(std::memory_order_relaxed));
  io::write_i64(os, p.processed);
  io::write_i64(os, p.batches);
  io::write_i64(os, p.op_errors);
  io::write_i64(os, p.arrivals);
  io::write_i64(os, p.accepted);
  io::write_i64(os, p.rejected);
  io::write_f64(os, p.decision_energy);
  io::write_i64(os, p.closed_streams);
  io::write_f64(os, p.closed_energy);
  io::save_counters(os, p.counters);
  shard.sessions.checkpoint(os);
}

void StreamEngine::read_shard_state(std::istream& is, Shard& shard) {
  const long long enqueued = io::read_i64(is);
  shard.admission_rejects.store(io::read_i64(is), std::memory_order_relaxed);
  shard.queue_rejects.store(io::read_i64(is), std::memory_order_relaxed);
  shard.full_waits.store(io::read_i64(is), std::memory_order_relaxed);
  shard.late_rejects.store(io::read_i64(is), std::memory_order_relaxed);
  ShardSnapshot p;
  p.processed = io::read_i64(is);
  p.batches = io::read_i64(is);
  p.op_errors = io::read_i64(is);
  p.arrivals = io::read_i64(is);
  p.accepted = io::read_i64(is);
  p.rejected = io::read_i64(is);
  p.decision_energy = io::read_f64(is);
  p.closed_streams = io::read_i64(is);
  p.closed_energy = io::read_f64(is);
  io::load_counters(is, p.counters);
  // The worker only touches its session table when a ring hands it an
  // op; this shard has accepted no traffic, so the table is ours to
  // fill. The ring's release/acquire pair on the next enqueue publishes
  // these writes to the worker. (The restoring table re-applies its own
  // residency budget, so a spill-less checkpoint restores into a
  // budgeted engine and vice versa.)
  shard.sessions.restore(is);
  p.open_streams = shard.sessions.num_open();
  p.resident_sessions = shard.sessions.num_resident();
  p.spilled_sessions = shard.sessions.num_spilled();
  p.session_spills = shard.sessions.num_spills();
  p.session_restores = shard.sessions.num_spill_restores();
  p.spill_errors = shard.sessions.num_spill_errors();
  p.spill_retries = shard.sessions.num_spill_retries();
  {
    std::lock_guard lock(shard.stats_mutex);
    shard.published = p;
    shard.processed.store(p.processed, std::memory_order_release);
  }
  // drain() waits for processed >= enqueued; the restored tallies must
  // keep that invariant (they were drained-equal at checkpoint time).
  shard.enqueued.store(enqueued, std::memory_order_relaxed);
}

void StreamEngine::checkpoint(std::ostream& os, std::uint64_t wal_mark) {
  PSS_REQUIRE(!finished_.load(std::memory_order_acquire),
              "engine already finished");
  PSS_REQUIRE(quiesce_producers(),
              "extra producers still registered after the quiesce timeout");
  // After drain() every worker has applied all ops it will ever see until
  // the next enqueue, and a worker facing empty rings never touches its
  // session table — so the tables are quiescent for the reads below. The
  // stats-mutex handshake inside drain() ordered the workers' session
  // writes before them. (No extra producers exist — just checked — so the
  // owner thread is the only possible enqueuer, and it is here.)
  drain();
  // Checked after the drain, which returns early for a worker that dies
  // meanwhile: a dead shard's stranded ops and half-applied batch must
  // never become a checkpoint (its restore would wait on them forever).
  for (auto& shard : shards_)
    PSS_REQUIRE(!shard->quarantined.load(std::memory_order_acquire),
                "cannot checkpoint a quarantined shard (checkpoint_shard "
                "the healthy ones)");
  io::write_u64(os, kCheckpointMagic);
  io::write_u64(os, wal_mark);
  write_config(os);
  for (auto& shard : shards_) write_shard_state(os, *shard);
}

std::uint64_t StreamEngine::restore(std::istream& is) {
  PSS_REQUIRE(!finished_.load(std::memory_order_acquire),
              "engine already finished");
  for (auto& shard : shards_) {
    PSS_REQUIRE(shard->enqueued.load(std::memory_order_relaxed) == 0,
                "restore target engine must be fresh");
  }
  PSS_REQUIRE(io::read_u64(is) == kCheckpointMagic,
              "not a PSS checkpoint (bad magic)");
  const std::uint64_t wal_mark = io::read_u64(is);
  check_config(is);
  for (auto& shard : shards_) read_shard_state(is, *shard);
  return wal_mark;
}

void StreamEngine::checkpoint_shard(std::size_t shard_index, std::ostream& os,
                                    std::uint64_t wal_mark) {
  PSS_REQUIRE(!finished_.load(std::memory_order_acquire),
              "engine already finished");
  PSS_REQUIRE(shard_index < shards_.size(), "shard index out of range");
  Shard& shard = *shards_[shard_index];
  PSS_REQUIRE(quiesce_producers(),
              "extra producers still registered after the quiesce timeout");
  PSS_REQUIRE(!paused_.load(std::memory_order_relaxed),
              "draining a paused engine would deadlock");
  drain_shard(shard, std::chrono::steady_clock::now() + kDrainPoll);
  // After the drain, as in checkpoint(): the worker may die while we wait.
  PSS_REQUIRE(!shard.quarantined.load(std::memory_order_acquire),
              "cannot checkpoint a quarantined shard");
  io::write_u64(os, kShardMagic);
  io::write_u64(os, wal_mark);
  io::write_u64(os, shard_index);
  write_config(os);
  write_shard_state(os, shard);
}

std::uint64_t StreamEngine::restore_shard(std::size_t shard_index,
                                          std::istream& is) {
  PSS_REQUIRE(!finished_.load(std::memory_order_acquire),
              "engine already finished");
  PSS_REQUIRE(shard_index < shards_.size(), "shard index out of range");
  Shard& shard = *shards_[shard_index];
  PSS_REQUIRE(shard.enqueued.load(std::memory_order_relaxed) == 0,
              "restore target shard must be fresh");
  PSS_REQUIRE(io::read_u64(is) == kShardMagic,
              "not a PSS shard checkpoint (bad magic)");
  const std::uint64_t wal_mark = io::read_u64(is);
  PSS_REQUIRE(io::read_u64(is) == shard_index,
              "shard checkpoint for a different shard");
  check_config(is);
  read_shard_state(is, shard);
  return wal_mark;
}

std::size_t StreamEngine::num_quarantined_shards() const {
  std::size_t n = 0;
  for (const auto& shard : shards_)
    if (shard->quarantined.load(std::memory_order_acquire)) ++n;
  return n;
}

std::vector<StreamResult> StreamEngine::finish() {
  if (!finished_.load(std::memory_order_acquire)) {
    if (paused_.load(std::memory_order_relaxed)) resume();
    // stop() closes the accepting gate and waits out in-flight enqueues
    // before setting stopping_, and the workers drain their rings to empty
    // before exiting — so every accepted op is applied, and every op that
    // raced the shutdown is a counted late reject.
    stop();
  }
  std::vector<StreamResult> results;
  for (auto& shard : shards_) {
    auto completed = shard->sessions.take_completed();
    results.insert(results.end(), std::make_move_iterator(completed.begin()),
                   std::make_move_iterator(completed.end()));
  }
  std::sort(results.begin(), results.end(),
            [](const StreamResult& a, const StreamResult& b) {
              return a.id < b.id;
            });
  return results;
}

EngineSnapshot StreamEngine::snapshot() const {
  EngineSnapshot snap;
  snap.shards.reserve(shards_.size());
  for (const auto& shard : shards_) {
    ShardSnapshot s;
    {
      std::lock_guard lock(shard->stats_mutex);
      s = shard->published;
    }
    s.queue_depth = shard->queue_depth();
    s.enqueued = shard->enqueued.load(std::memory_order_relaxed);
    s.admission_rejects =
        shard->admission_rejects.load(std::memory_order_relaxed);
    s.queue_rejects = shard->queue_rejects.load(std::memory_order_relaxed);
    s.full_waits = shard->full_waits.load(std::memory_order_relaxed);
    s.late_rejects = shard->late_rejects.load(std::memory_order_relaxed);
    s.quarantined_rejects =
        shard->quarantined_rejects.load(std::memory_order_relaxed);
    // A late reject IS a contained op error — misuse of the shutdown
    // contract, surfaced in the same ledger clients already watch.
    s.op_errors += s.late_rejects;
    snap.arrivals += s.arrivals;
    snap.accepted += s.accepted;
    snap.rejected += s.rejected;
    snap.admission_rejects += s.admission_rejects;
    snap.queue_rejects += s.queue_rejects;
    snap.full_waits += s.full_waits;
    snap.late_rejects += s.late_rejects;
    snap.op_errors += s.op_errors;
    snap.queue_depth += s.queue_depth;
    snap.open_streams += s.open_streams;
    snap.resident_sessions += s.resident_sessions;
    snap.spilled_sessions += s.spilled_sessions;
    snap.session_spills += s.session_spills;
    snap.session_restores += s.session_restores;
    snap.spill_errors += s.spill_errors;
    snap.spill_retries += s.spill_retries;
    snap.closed_streams += s.closed_streams;
    if (s.degraded) {
      ++snap.degraded_shards;
      snap.degraded_sessions += s.degraded_sessions;
    }
    snap.quarantined_rejects += s.quarantined_rejects;
    snap.decision_energy += s.decision_energy;
    snap.closed_energy += s.closed_energy;
    snap.counters += s.counters;
    snap.shards.push_back(std::move(s));
  }
  snap.checkpoint_refusals =
      checkpoint_refusals_.load(std::memory_order_relaxed);
  return snap;
}

void StreamEngine::worker_loop(Shard& shard) {
  std::vector<ShardOp> batch;
  batch.reserve(options_.drain_batch);
  const std::size_t num_queues = shard.queues.size();
  // Per-shard fault site: drills can kill shard 2's worker specifically
  // and watch shards 0,1,3.. keep serving.
  const std::string fault_site = "shard.worker." + std::to_string(shard.index);
  // Combining drain: sweep all producer rings into one batch, starting at a
  // rotating ring so no producer slot is structurally favored.
  std::size_t next_queue = 0;
  for (;;) {
    if (paused_.load(std::memory_order_acquire) &&
        !stopping_.load(std::memory_order_acquire)) {
      std::unique_lock lock(shard.wake_mutex);
      shard.wake_cv.wait(lock, [&] {
        return !paused_.load(std::memory_order_relaxed) ||
               stopping_.load(std::memory_order_relaxed);
      });
    }

    batch.clear();
    for (std::size_t k = 0;
         k < num_queues && batch.size() < options_.drain_batch; ++k) {
      shard.queues[(next_queue + k) % num_queues]->pop_batch(
          batch, options_.drain_batch - batch.size());
    }
    next_queue = (next_queue + 1) % num_queues;
    if (batch.empty()) {
      // On stop, exit only once every ring is fully drained: every op
      // accepted before stop() is applied (correct shutdown). An empty
      // batch means the sweep above found all rings empty.
      if (stopping_.load(std::memory_order_acquire)) return;
      if (poll_before_park_ &&
          poll_until(std::chrono::steady_clock::now() + kIdlePoll, [&] {
            return !shard.queues_empty() ||
                   stopping_.load(std::memory_order_relaxed) ||
                   paused_.load(std::memory_order_relaxed);
          }))
        continue;
      // Sleep handshake, consumer half (see wake()): flag, fence, recheck.
      shard.sleeping.store(true, std::memory_order_relaxed);
      std::atomic_thread_fence(std::memory_order_seq_cst);
      if (shard.queues_empty() &&
          !stopping_.load(std::memory_order_relaxed) &&
          !paused_.load(std::memory_order_relaxed)) {
        std::unique_lock lock(shard.wake_mutex);
        shard.wake_cv.wait(lock, [&] {
          return !shard.queues_empty() ||
                 stopping_.load(std::memory_order_relaxed) ||
                 paused_.load(std::memory_order_relaxed);
        });
      }
      shard.sleeping.store(false, std::memory_order_relaxed);
      continue;
    }

    // Apply the batch without holding any lock; fold tallies locally.
    long long arrivals = 0, accepted = 0, rejected = 0;
    long long closed = 0, op_errors = 0;
    double decision_energy = 0.0, closed_energy = 0.0;
    core::PdCounters closed_counters;
    try {
      for (ShardOp& op : batch) {
        // A precondition violation (a client feeding a malformed job or
        // breaking release order) poisons that op only: the engine counts
        // it and keeps serving every other stream.
        try {
          // Inside the per-op containment on purpose: an injected *error*
          // (std::exception) is shed like any recoverable op failure; an
          // injected *crash* (not a std::exception) escapes to the
          // quarantine handler below, like a real worker death would.
          PSS_FAULT_POINT(fault_site.c_str());
          switch (op.kind) {
            case ShardOp::Kind::kOpen:
              shard.sessions.open(op.stream);
              break;
            case ShardOp::Kind::kArrival: {
              const core::ArrivalDecision decision =
                  shard.sessions.feed(op.stream, op.job);
              ++arrivals;
              if (decision.accepted) {
                ++accepted;
                decision_energy += decision.planned_energy;
              } else {
                ++rejected;
              }
              break;
            }
            case ShardOp::Kind::kAdvance:
              // The table contains malformed advances itself (returns
              // false instead of throwing), so a bad clock never reaches
              // the batch-level catch — but it still counts as an op error.
              if (!shard.sessions.advance(op.stream, op.time)) ++op_errors;
              break;
            case ShardOp::Kind::kClose: {
              const StreamResult* result = shard.sessions.close(op.stream);
              if (result != nullptr) {
                ++closed;
                closed_energy += result->planned_energy;
                closed_counters += result->counters;
              }
              break;
            }
          }
        } catch (const std::exception&) {
          ++op_errors;
        }
      }
    } catch (...) {
      // Anything beyond a std::exception is a worker death, not an op
      // failure: quarantine the shard. The flag flips before the notify,
      // so blocked producers and drain() waiters observe it and escape;
      // enqueue refuses new traffic from here on. Sessions stay intact in
      // the (now worker-less) table for finish() to report and for
      // degraded accounting — recovery rebuilds the shard from its last
      // checkpoint + WAL tail in a fresh engine.
      shard.quarantined.store(true, std::memory_order_seq_cst);
      {
        std::lock_guard lock(shard.stats_mutex);
        shard.published.degraded = true;
        shard.published.degraded_sessions = shard.sessions.num_open();
      }
      shard.drained_cv.notify_all();
      return;
    }

    // One stats lock per batch — the amortization the ring exists for.
    {
      std::lock_guard lock(shard.stats_mutex);
      ShardSnapshot& p = shard.published;
      p.processed += static_cast<long long>(batch.size());
      p.batches += 1;
      p.op_errors += op_errors;
      p.arrivals += arrivals;
      p.accepted += accepted;
      p.rejected += rejected;
      p.decision_energy += decision_energy;
      p.closed_streams += closed;
      p.closed_energy += closed_energy;
      p.counters += closed_counters;
      p.open_streams = shard.sessions.num_open();
      p.resident_sessions = shard.sessions.num_resident();
      p.spilled_sessions = shard.sessions.num_spilled();
      p.session_spills = shard.sessions.num_spills();
      p.session_restores = shard.sessions.num_spill_restores();
      p.spill_errors = shard.sessions.num_spill_errors();
      p.spill_retries = shard.sessions.num_spill_retries();
      shard.processed.store(p.processed, std::memory_order_release);
    }
    shard.drained_cv.notify_all();  // drain() waiters and blocked producers
  }
}

}  // namespace pss::stream
