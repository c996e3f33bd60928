// Serving benchmark: seeded workloads through a default stream::StreamEngine.
//
//   serve_bench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//               [--trace-dir <dir>]
//
// One producer thread drives a 3-shard engine in a tick-synchronous closed
// loop: feed every op of tick t, drain(), then start tick t + 1. A pass is
// one engine built from scratch (set-up), every tick of the workload, and
// finish(); passes repeat on the same ops until --seconds have elapsed.
//
// --trace 0 prints the end-to-end metrics. --trace 1 alternates untraced
// and traced engine passes, then replays the same op streams outside-in
// into each layer's public API — SessionTable per shard (session layer),
// PdScheduler per stream (core, with io::save/load_scheduler at the spill
// points an LRU model of the table predicts) — and prints per-layer metrics
// derived from those replays.
//
// Every run checks its outputs: all passes close every stream with the same
// result digest; the digest equals that of per-shard SessionTable replays;
// and sampled (traced: all) streams match a direct PdScheduler replay
// bitwise in planned energy and accept/reject counts. The last stdout line
// is one JSON object: {"correct", "attempted", "failed", "metrics"}.
#include <malloc.h>
#include <sched.h>
#include <unistd.h>

#include <algorithm>
#include <array>
#include <bit>
#include <charconv>
#include <cstdint>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <list>
#include <memory>
#include <sstream>
#include <stdexcept>
#include <string>
#include <thread>
#include <unordered_map>
#include <unordered_set>
#include <utility>
#include <vector>

#include "core/pd_scheduler.hpp"
#include "io/state_io.hpp"
#include "stream/engine.hpp"
#include "stream/session_table.hpp"
#include "trace.hpp"
#include "util/random.hpp"
#include "workloads.hpp"

namespace {

using e2e::Clock;
using e2e::Op;
using e2e::OpKind;
using e2e::Workload;
using pss::stream::StreamEngine;
using pss::stream::StreamId;
using pss::stream::StreamResult;

constexpr double kSpinSeconds = 1.5;
constexpr double kWarmupSeconds = 1.5;
// Set-ups are timed in short rounds, one before every timed pass, so their
// median covers the whole run rather than one instant of the host.
constexpr double kSetupRoundSeconds = 0.05;
constexpr int kMinSetupsPerRound = 3;
constexpr int kMinPasses = 3;
constexpr double kMaxSteal = 0.05;   // share of the machine's CPU time
constexpr double kMaxStretch = 1.2;  // x --seconds, waiting out steal
constexpr std::size_t kSampledStreams = 16;  // direct-PD checks, untraced

// ------------------------------------------------------------------ utils

std::uint64_t digest(const std::vector<StreamResult>& results) {
  // Order-independent over streams: the engine returns results sorted by
  // id, the table replays shard by shard.
  std::uint64_t sum = 0;
  for (const StreamResult& r : results) {
    std::uint64_t h = pss::util::splitmix64(r.id);
    h = pss::util::splitmix64(
        h ^ std::bit_cast<std::uint64_t>(r.planned_energy));
    h = pss::util::splitmix64(h ^ std::uint64_t(r.counters.accepted));
    h = pss::util::splitmix64(h ^ std::uint64_t(r.counters.rejected));
    sum += h;
  }
  return sum;
}

bool same_outcome(const StreamResult& a, const StreamResult& b) {
  return std::bit_cast<std::uint64_t>(a.planned_energy) ==
             std::bit_cast<std::uint64_t>(b.planned_energy) &&
         a.counters.accepted == b.counters.accepted &&
         a.counters.rejected == b.counters.rejected;
}

/// A field of /proc/self/status given in kB ("VmRSS:", "VmHWM:"), in MB.
double status_mb(const std::string& field) {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line))
    if (line.rfind(field, 0) == 0)
      return std::stod(line.substr(field.size())) / 1024.0;
  return 0.0;
}

/// Resets the process's peak RSS (VmHWM) to its current RSS. Returns false
/// where the kernel does not allow it.
bool reset_peak_rss() {
  std::ofstream clear("/proc/self/clear_refs");
  clear << "5" << std::flush;
  return static_cast<bool>(clear);
}

std::string number(double v) {
  if (!std::isfinite(v)) v = 0.0;
  std::array<char, 64> buf{};
  auto [end, ec] = std::to_chars(buf.data(), buf.data() + buf.size(), v);
  return std::string(buf.data(), end);
}

double ratio(double num, double den) { return den == 0.0 ? 0.0 : num / den; }

/// Machine-wide CPU time from /proc/stat, in clock ticks: all of it, and
/// the part the hypervisor stole.
struct CpuTimes {
  long long total = 0, steal = 0;
};

CpuTimes cpu_times() {
  std::ifstream stat("/proc/stat");
  std::string label;
  stat >> label;  // "cpu"
  CpuTimes t;
  // user nice system idle iowait irq softirq steal
  for (int field = 0; field < 8; ++field) {
    long long v = 0;
    if (!(stat >> v)) break;
    t.total += v;
    if (field == 7) t.steal = v;
  }
  return t;
}

template <typename T>
void append(std::vector<T>& to, const std::vector<T>& from) {
  to.insert(to.end(), from.begin(), from.end());
}

// Every thread a timed pass or replay runs is pinned to a CPU of its own:
// the producer (main thread) to CPU 0, shard workers and replay threads to
// CPUs 1, 2, ... An engine is built unpinned, as in service, and its threads
// are pinned once it has started them. On a virtual machine whose scheduler
// is slow to balance, unpinned threads were seen stacked on one vCPU for a
// second while the others idled, which no code change should be measured
// against.
void pin_to_cpu(pid_t tid, std::size_t cpu) {
  cpu_set_t set;
  CPU_ZERO(&set);
  CPU_SET(cpu % std::thread::hardware_concurrency(), &set);
  sched_setaffinity(tid, sizeof(set), &set);  // best effort
}

/// Lets the main thread run anywhere again. Threads inherit their creator's
/// affinity, so an engine built while the main thread is pinned would start
/// with every worker on CPU 0.
void unpin_main() {
  cpu_set_t set;
  CPU_ZERO(&set);
  for (unsigned cpu = 0; cpu < std::thread::hardware_concurrency(); ++cpu)
    CPU_SET(cpu, &set);
  sched_setaffinity(0, sizeof(set), &set);
}

/// Pins the main thread to CPU 0 and every other live thread, in thread-id
/// (creation) order, to CPUs 1, 2, ...
void pin_threads() {
  std::vector<pid_t> tids;
  for (const auto& entry : std::filesystem::directory_iterator("/proc/self/task"))
    tids.push_back(static_cast<pid_t>(std::stol(entry.path().filename())));
  std::sort(tids.begin(), tids.end());
  std::size_t cpu = 1;
  for (pid_t tid : tids) pin_to_cpu(tid, tid == getpid() ? 0 : cpu++);
}

/// Runs fn(i) for i in [0, n) on n threads, thread i pinned to CPU
/// first_cpu + i.
template <typename Fn>
void in_parallel(std::size_t n, std::size_t first_cpu, Fn&& fn) {
  std::vector<std::thread> threads;
  threads.reserve(n);
  for (std::size_t i = 0; i < n; ++i)
    threads.emplace_back([&fn, i, first_cpu] {
      pin_to_cpu(0, first_cpu + i);  // 0: the calling thread
      fn(i);
    });
  for (auto& t : threads) t.join();
}

/// Keeps every CPU busy for a while. On a virtual machine whose idle vCPUs
/// were descheduled, the first second of a multi-threaded process can run
/// all its threads on one CPU; this absorbs that ramp before any timing.
void spin_all_cpus(unsigned n, double seconds) {
  in_parallel(n, 0, [seconds](std::size_t) {
    const auto start = Clock::now();
    std::uint64_t x = 0;
    while (e2e::seconds_between(start, Clock::now()) < seconds)
      for (int i = 0; i < 4096; ++i) x = x * 6364136223846793005ull + 1;
    volatile std::uint64_t sink = x;
    (void)sink;
  });
}

// ------------------------------------------------------------ engine pass

bool apply(StreamEngine& engine, const Op& op) {
  switch (op.kind) {
    case OpKind::kOpen: return engine.open(op.stream);
    case OpKind::kArrival: return engine.feed(op.stream, op.job);
    case OpKind::kAdvance: return engine.advance(op.stream, op.time);
    case OpKind::kClose: return engine.close_stream(op.stream);
    case OpKind::kCheckpointMark: return true;  // never generated
  }
  return false;
}

/// Engine construction plus pre-opening the population, up to the point
/// where the first tick would be fed. The engine is built unpinned; its
/// threads are pinned before the pre-open, outside the timed span: with
/// threads left where the kernel put them, the producer shared a CPU with a
/// worker in some set-ups, and skewed_spill's set-up took 22 ms, 50 ms or
/// 80 ms by turns.
double set_up(const Workload& w, std::unique_ptr<StreamEngine>& engine) {
  unpin_main();
  auto t0 = Clock::now();
  engine = std::make_unique<StreamEngine>(w.options);
  double seconds = e2e::seconds_between(t0, Clock::now());
  pin_threads();
  t0 = Clock::now();
  for (StreamId id : w.population) engine->open(id);
  engine->drain();
  return seconds + e2e::seconds_between(t0, Clock::now());
}

/// Times set-ups for at least kSetupRoundSeconds and kMinSetupsPerRound.
void time_setup_round(const Workload& w, std::vector<double>& out) {
  const auto start = Clock::now();
  for (int n = 0; n < kMinSetupsPerRound ||
                  e2e::seconds_between(start, Clock::now()) <
                      kSetupRoundSeconds;
       ++n) {
    std::unique_ptr<StreamEngine> engine;
    out.push_back(set_up(w, engine));
  }
}

struct PassTrace {
  e2e::SpanLog spans;
  std::vector<double> feed_ns;   // per-op StreamEngine call time
  std::vector<double> feed_ms;   // per-tick time feeding
  std::vector<double> drain_ms;  // per-tick drain() wait
};

struct Pass {
  double run_s = 0.0;  // first feed to last drain()
  double serving_hwm_mb = 0.0;  // VmHWM after the last drain(), before finish()
  std::vector<double> tick_ms;
  pss::stream::EngineSnapshot snap;
  std::vector<StreamResult> results;
  pss::stream::StreamRouter router{1};
};

Pass run_pass(const Workload& w, PassTrace* trace) {
  Pass p;
  std::unique_ptr<StreamEngine> engine;
  (void)set_up(w, engine);
  p.router = engine->router();
  p.tick_ms.reserve(w.tick_end.size());
  const auto first = Clock::now();
  std::size_t begin = 0;
  for (std::size_t t = 0; t < w.tick_end.size(); ++t) {
    const auto tick = static_cast<long long>(t);
    const auto ts = Clock::now();
    long tick_span = -1, child = -1;
    if (trace) {
      tick_span = trace->spans.open("stream.tick", -1, tick);
      child = trace->spans.open("stream.feed", tick_span, tick);
    }
    for (std::size_t i = begin; i < w.tick_end[t]; ++i)
      e2e::timed<std::nano>(trace ? &trace->feed_ns : nullptr,
                            [&] { apply(*engine, w.ops[i]); });
    if (trace) {
      trace->spans.close(child);
      trace->feed_ms.push_back(trace->spans.millis(child));
      child = trace->spans.open("stream.drain", tick_span, tick);
    }
    e2e::timed<std::milli>(trace ? &trace->drain_ms : nullptr,
                           [&] { engine->drain(); });
    if (trace) {
      trace->spans.close(child);
      trace->spans.close(tick_span);
    }
    p.tick_ms.push_back(e2e::seconds_between(ts, Clock::now()) * 1e3);
    begin = w.tick_end[t];
  }
  p.run_s = e2e::seconds_between(first, Clock::now());
  p.serving_hwm_mb = status_mb("VmHWM:");
  p.snap = engine->snapshot();
  p.results = engine->finish();
  unpin_main();
  return p;
}

double ops_per_batch(const pss::stream::EngineSnapshot& s) {
  double processed = 0.0, batches = 0.0;
  for (const auto& shard : s.shards) {
    processed += double(shard.processed);
    batches += double(shard.batches);
  }
  return ratio(processed, batches);
}

/// Ops the engine refused or failed: admission, queue, late and
/// quarantined rejects plus op errors (which already fold late rejects in).
long long failed_ops(const pss::stream::EngineSnapshot& s) {
  return s.admission_rejects + s.queue_rejects + s.quarantined_rejects +
         s.op_errors;
}

// --------------------------------------------------------- layer replays

struct ShardOps {
  std::vector<StreamId> population;
  std::vector<const Op*> ops;
  /// ops[tick_end[t - 1], tick_end[t]) is tick t, as in Workload.
  std::vector<std::size_t> tick_end;
};

std::vector<ShardOps> split_by_shard(const Workload& w,
                                     const pss::stream::StreamRouter& router) {
  std::vector<ShardOps> shards(router.num_shards());
  for (StreamId id : w.population)
    shards[router.shard_of(id)].population.push_back(id);
  std::size_t begin = 0;
  for (std::size_t end : w.tick_end) {
    for (std::size_t i = begin; i < end; ++i)
      shards[router.shard_of(w.ops[i].stream)].ops.push_back(&w.ops[i]);
    for (ShardOps& shard : shards) shard.tick_end.push_back(shard.ops.size());
    begin = end;
  }
  return shards;
}

/// One shard's ops through a SessionTable with the engine's per-shard
/// configuration: the session layer, without rings or workers.
struct TableReplay {
  double busy_s = 0.0;  // ops only; the pre-open is set-up
  std::vector<double> tick_s;  // timed replays: busy time per tick
  std::vector<double> feed_ns, close_ns;
  long long ops = 0, spills = 0, restores = 0;
  std::vector<StreamResult> results;
};

TableReplay replay_table(const Workload& w, const ShardOps& shard,
                         const pss::ingest::SpillOptions& spill, bool timed,
                         e2e::SpanLog* log) {
  TableReplay r;
  pss::stream::SessionTable table(w.options.machine, w.options.scheduler,
                                  w.options.record_decisions, spill);
  for (StreamId id : shard.population) table.open(id);
  const long long spills_before = table.num_spills();
  const long long restores_before = table.num_spill_restores();
  const long span = log ? log->open("session.replay") : -1;
  const auto t0 = Clock::now();
  std::size_t begin = 0;
  for (std::size_t end : shard.tick_end) {
    const auto ts = Clock::now();
    for (std::size_t i = begin; i < end; ++i) {
      const Op& op = *shard.ops[i];
      switch (op.kind) {
        case OpKind::kOpen:
          table.open(op.stream);
          break;
        case OpKind::kArrival:
          e2e::timed<std::nano>(timed ? &r.feed_ns : nullptr,
                                [&] { table.feed(op.stream, op.job); });
          break;
        case OpKind::kAdvance:
          table.advance(op.stream, op.time);
          break;
        case OpKind::kClose:
          e2e::timed<std::nano>(timed ? &r.close_ns : nullptr,
                                [&] { table.close(op.stream); });
          break;
        case OpKind::kCheckpointMark:
          break;
      }
    }
    if (timed) r.tick_s.push_back(e2e::seconds_between(ts, Clock::now()));
    begin = end;
  }
  r.busy_s = e2e::seconds_between(t0, Clock::now());
  if (log) log->close(span);
  r.ops = static_cast<long long>(shard.ops.size());
  r.spills = table.num_spills() - spills_before;
  r.restores = table.num_spill_restores() - restores_before;
  r.results = table.take_completed();
  return r;
}

/// SessionTable's residency policy on ids alone: which sessions a table
/// with this budget spills, and when.
class LruModel {
 public:
  explicit LruModel(std::size_t budget) : budget_(budget) {}

  /// SessionTable::session(): touch a resident, or restore and then evict
  /// the coldest residents down to the budget. Returns the evicted ids.
  std::vector<StreamId> touch(StreamId id) {
    std::vector<StreamId> evicted;
    if (budget_ == 0) return evicted;
    auto it = pos_.find(id);
    if (it != pos_.end()) {
      lru_.splice(lru_.begin(), lru_, it->second);
      return evicted;
    }
    spilled_.erase(id);
    lru_.push_front(id);
    pos_[id] = lru_.begin();
    while (pos_.size() > budget_ && pos_.size() > 1) {
      const StreamId victim = lru_.back();
      lru_.pop_back();
      pos_.erase(victim);
      spilled_.insert(victim);
      evicted.push_back(victim);
    }
    return evicted;
  }

  /// SessionTable::close(): a spilled session is restored first.
  std::vector<StreamId> close(StreamId id) {
    std::vector<StreamId> evicted;
    if (budget_ == 0) return evicted;
    if (!pos_.count(id)) {
      if (!spilled_.count(id)) return evicted;
      evicted = touch(id);
    }
    lru_.erase(pos_[id]);
    pos_.erase(id);
    return evicted;
  }

 private:
  std::size_t budget_;
  std::list<StreamId> lru_;
  std::unordered_map<StreamId, std::list<StreamId>::iterator> pos_;
  std::unordered_set<StreamId> spilled_;
};

/// One shard's ops straight into PdScheduler sessions (the core layer),
/// every session resident. At each spill point the LRU model predicts, the
/// session is saved and loaded through io::save/load_scheduler, timed apart
/// (the io layer); the replay itself continues on the resident session.
struct CoreReplay {
  std::vector<double> arrival_us, advance_us, save_us, load_us, blob_bytes;
  long long modeled_spills = 0;
  std::vector<StreamResult> results;
  [[nodiscard]] double busy_s() const {
    return (e2e::sum(arrival_us) + e2e::sum(advance_us)) * 1e-6;
  }
  [[nodiscard]] double io_s() const {
    return (e2e::sum(save_us) + e2e::sum(load_us)) * 1e-6;
  }
};

CoreReplay replay_core(const Workload& w, const ShardOps& shard,
                       std::size_t budget, e2e::SpanLog* log) {
  using pss::core::PdScheduler;
  CoreReplay r;
  pss::core::PdOptions options = w.options.scheduler;
  options.record_decisions = w.options.record_decisions;
  std::unordered_map<StreamId, std::unique_ptr<PdScheduler>> live;
  std::vector<std::unique_ptr<PdScheduler>> free;
  auto session = [&](StreamId id) -> PdScheduler& {
    auto& slot = live[id];
    if (!slot) {
      if (free.empty()) {
        slot = std::make_unique<PdScheduler>(w.options.machine, options);
      } else {
        slot = std::move(free.back());
        free.pop_back();
      }
    }
    return *slot;
  };

  PdScheduler scratch(w.options.machine, options);
  const PdScheduler opened(w.options.machine, options);
  LruModel lru(budget);
  for (StreamId id : shard.population) (void)lru.touch(id);
  auto spill = [&](const std::vector<StreamId>& victims) {
    for (StreamId victim : victims) {
      ++r.modeled_spills;
      // A session opened but never fed or advanced is still fresh.
      auto it = live.find(victim);
      const PdScheduler& state = it == live.end() ? opened : *it->second;
      std::ostringstream out;
      e2e::timed<std::micro>(&r.save_us,
                             [&] { pss::io::save_scheduler(out, state); });
      std::istringstream in(std::move(out).str());
      r.blob_bytes.push_back(double(in.str().size()));
      e2e::timed<std::micro>(&r.load_us,
                             [&] { pss::io::load_scheduler(in, scratch); });
    }
  };

  const long span = log ? log->open("core.replay") : -1;
  for (const Op* op : shard.ops) {
    switch (op->kind) {
      case OpKind::kOpen:
        spill(lru.touch(op->stream));
        break;
      case OpKind::kArrival: {
        spill(lru.touch(op->stream));
        PdScheduler& s = session(op->stream);
        e2e::timed<std::micro>(&r.arrival_us,
                               [&] { s.on_arrival(op->job); });
        break;
      }
      case OpKind::kAdvance: {
        spill(lru.touch(op->stream));
        PdScheduler& s = session(op->stream);
        e2e::timed<std::micro>(&r.advance_us, [&] {
          s.advance_to(op->time, /*compact=*/true);
        });
        break;
      }
      case OpKind::kClose: {
        spill(lru.close(op->stream));
        PdScheduler& s = session(op->stream);
        StreamResult result;
        result.id = op->stream;
        result.counters = s.counters();
        result.planned_energy = s.planned_energy();
        r.results.push_back(std::move(result));
        s.reset();
        auto it = live.find(op->stream);
        free.push_back(std::move(it->second));
        live.erase(it);
        break;
      }
      case OpKind::kCheckpointMark:
        break;
    }
  }
  if (log) log->close(span);
  return r;
}

// ------------------------------------------------------------ correctness

struct Verdict {
  long long mismatches = 0;
  std::vector<std::string> notes;
  void fail(std::string why) {
    ++mismatches;
    notes.push_back(std::move(why));
  }
};

/// Compares replayed results with the engine's, stream by stream.
void check_streams(const std::vector<StreamResult>& engine,
                   const std::vector<StreamResult>& replayed, Verdict& v) {
  if (replayed.empty()) v.fail("direct PD replay closed no stream");
  std::unordered_map<StreamId, const StreamResult*> by_id;
  for (const StreamResult& r : engine) by_id[r.id] = &r;
  for (const StreamResult& r : replayed) {
    auto it = by_id.find(r.id);
    if (it == by_id.end() || !same_outcome(*it->second, r))
      v.fail("direct PD replay differs on stream " + std::to_string(r.id));
  }
}

/// Direct PdScheduler replay of a seeded sample of whole streams.
void check_sample(const Workload& w, const std::vector<StreamResult>& engine,
                  std::uint64_t seed, Verdict& v) {
  pss::util::Rng pick(seed ^ 0x5eedull);
  std::unordered_set<StreamId> wanted;
  const std::size_t k = std::min<std::size_t>(
      kSampledStreams, std::max<std::size_t>(1, engine.size() / 3));
  while (wanted.size() < std::min(k, engine.size()))
    wanted.insert(engine[std::size_t(pick.uniform_int(
                             0, std::int64_t(engine.size()) - 1))].id);
  ShardOps sample;
  for (const Op& op : w.ops)
    if (wanted.count(op.stream)) sample.ops.push_back(&op);
  check_streams(engine, replay_core(w, sample, 0, nullptr).results, v);
}

// ----------------------------------------------------------------- output

struct Metric {
  std::string name;
  double value;
  std::string unit;
  std::string note;  // direction or sample count, for the report lines
};

Metric percentile_metric(std::string name, const std::vector<double>& v,
                         double q, std::string unit) {
  return {std::move(name), e2e::percentile(v, q), std::move(unit),
          std::to_string(v.size()) + " samples, " +
              std::to_string(e2e::samples_beyond(v.size(), q)) + " beyond"};
}

void print_result(bool correct, long long attempted, long long failed,
                  const std::vector<Metric>& metrics) {
  for (const Metric& m : metrics)
    std::cout << "metric " << m.name << " = " << number(m.value) << ' '
              << m.unit << (m.note.empty() ? "" : "  (" + m.note + ")")
              << '\n';
  std::cout << "{\"correct\": " << (correct ? "true" : "false")
            << ", \"attempted\": " << attempted << ", \"failed\": " << failed
            << ", \"metrics\": {";
  for (std::size_t i = 0; i < metrics.size(); ++i)
    std::cout << (i ? ", " : "") << '"' << metrics[i].name
              << "\": {\"value\": " << number(metrics[i].value)
              << ", \"unit\": \"" << metrics[i].unit << "\"}";
  std::cout << "}}" << std::endl;
}

// ---------------------------------------------------------------- metrics

/// What the timed passes of a run produced.
struct Timings {
  std::vector<double> setups;          // set-up-only repetitions
  std::size_t setup_rounds = 0;
  std::vector<double> rates;           // counted passes, arrivals/s
  std::vector<double> p50s, p90s;      // counted passes, tick latency, ms
  std::vector<double> ticks;           // traced runs: untraced ticks, ms
  std::vector<double> untraced_walls;  // traced runs: the untraced passes
  std::vector<double> traced_walls;
  double rss_mb = 0.0;     // median over passes of the serving peak RSS
  bool peak_reset = true;  // the kernel let every pass reset the peak RSS
  PassTrace trace;      // the last traced pass
  pss::stream::EngineSnapshot traced_snap;
};

/// Untraced timed passes, each after a round of timed set-ups. A pass
/// during which the hypervisor stole more than kMaxSteal of the machine's
/// CPU time measures the host, not the program: it is checked but not
/// counted, and timing goes on until `seconds` of counted passes, or
/// kMaxStretch x `seconds` in all. Should fewer than kMinPasses be clean by
/// then, every pass counts.
template <typename Account>
void time_passes(const Workload& w, double seconds, Account&& account,
                 Timings& t) {
  struct PassStat {
    double rate, p50, p90, steal;
  };
  std::vector<PassStat> stats;
  // Every pass: peak RSS from set-up to the last drain() above the RSS
  // before the pass. finish() is left out: its gather of the shards'
  // results overlapped them by one shard's worth (~3.5 MB on fanout_short)
  // or not, by thread timing, and the host's load tipped it one way.
  std::vector<double> rss;
  const auto start = Clock::now();
  double clean_s = 0.0;
  for (int n = 1;; ++n) {
    time_setup_round(w, t.setups);
    ++t.setup_rounds;
    // Free heap is handed back first, so little of what earlier passes
    // freed is still resident for this one to reuse. The generated ops and
    // the first pass's results, kept for the checks, are the harness's:
    // they are in the RSS before the pass.
    malloc_trim(0);
    const double rss_before = status_mb("VmRSS:");
    t.peak_reset = reset_peak_rss() && t.peak_reset;
    const auto pass_start = Clock::now();
    const CpuTimes before = cpu_times();
    Pass p = run_pass(w, nullptr);
    const CpuTimes after = cpu_times();
    rss.push_back(p.serving_hwm_mb - rss_before);
    const double steal = ratio(double(after.steal - before.steal),
                               double(after.total - before.total));
    stats.push_back({double(w.arrivals) / p.run_s,
                     e2e::percentile(p.tick_ms, 0.50),
                     e2e::percentile(p.tick_ms, 0.90), steal});
    account(std::move(p));
    if (steal <= kMaxSteal)
      clean_s += e2e::seconds_between(pass_start, Clock::now());
    if (n >= kMinPasses &&
        (clean_s >= seconds || e2e::seconds_between(start, Clock::now()) >=
                                   kMaxStretch * seconds))
      break;
  }
  const auto clean =
      std::count_if(stats.begin(), stats.end(),
                    [](const PassStat& s) { return s.steal <= kMaxSteal; });
  std::cout << "pass arrivals/s (host steal %):";
  for (const PassStat& s : stats) {
    std::cout << ' ' << number(s.rate) << " (" << number(100.0 * s.steal)
              << ')';
    if (clean >= kMinPasses && s.steal > kMaxSteal) continue;
    t.rates.push_back(s.rate);
    t.p50s.push_back(s.p50);
    t.p90s.push_back(s.p90);
  }
  std::cout << "\ncounted passes: " << t.rates.size() << " of "
            << stats.size() << "\nset-up s p10/p25/p50/p75/p90:";
  for (double q : {0.10, 0.25, 0.50, 0.75, 0.90})
    std::cout << ' ' << number(e2e::percentile(t.setups, q));
  std::cout << "\npass peak RSS growth MB p10/p50/p90:";
  for (double q : {0.10, 0.50, 0.90})
    std::cout << ' ' << number(e2e::percentile(rss, q));
  std::cout << '\n';
  // Memory does not depend on host steal, so every pass counts.
  t.rss_mb = e2e::median(rss);
}

/// Traced runs alternate untraced and traced passes for `seconds`,
/// swapping the order every pair.
template <typename Account>
void time_traced_passes(const Workload& w, double seconds, Account&& account,
                        Timings& t) {
  const auto deadline =
      Clock::now() + std::chrono::duration_cast<Clock::duration>(
                         std::chrono::duration<double>(seconds));
  for (int n = 0; n < kMinPasses || Clock::now() < deadline; ++n) {
    for (int k = 0; k < 2; ++k) {
      if ((k + n) % 2 == 0) {
        Pass p = run_pass(w, nullptr);
        t.untraced_walls.push_back(p.run_s);
        append(t.ticks, p.tick_ms);
        account(std::move(p));
      } else {
        t.trace = PassTrace{};
        Pass p = run_pass(w, &t.trace);
        t.traced_walls.push_back(p.run_s);
        t.traced_snap = p.snap;
        account(std::move(p));
      }
    }
  }
}

std::vector<Metric> end_to_end_metrics(const Timings& t,
                                       std::size_t ticks_per_pass) {
  // Like arrivals_per_s, each tick percentile is a median over passes, so a
  // few passes caught in a slow phase of the host do not move it.
  auto tick_percentile = [&](const char* name,
                             const std::vector<double>& per_pass, double q) {
    return Metric{name, e2e::median(per_pass), "ms",
                  "lower is better; median of " +
                      std::to_string(per_pass.size()) + " passes of " +
                      std::to_string(ticks_per_pass) + " ticks, " +
                      std::to_string(e2e::samples_beyond(ticks_per_pass, q)) +
                      " beyond"};
  };
  return {
      {"arrivals_per_s", e2e::median(t.rates), "1/s",
       "higher is better; median of " + std::to_string(t.rates.size()) +
           " passes"},
      tick_percentile("tick_latency_p50_ms", t.p50s, 0.50),
      // p90, not p99: on a shared 4-vCPU machine the five-seed spread of
      // p99 was twice that of p90 (e2ebench/README.md).
      tick_percentile("tick_latency_p90_ms", t.p90s, 0.90),
      {"setup_s", e2e::median(t.setups), "s",
       "lower is better; median of " + std::to_string(t.setups.size()) +
           " set-ups in " + std::to_string(t.setup_rounds) + " rounds"},
      {"peak_rss_mb", t.rss_mb, "MB",
       "lower is better; median of " + std::to_string(t.setup_rounds) +
           " passes of each pass's peak RSS up to its last drain() minus "
           "the RSS before it"},
  };
}

/// Replays the shards outside-in and derives the per-layer metrics. Times
/// are taken on the critical shard — the slowest SessionTable replay, which
/// bounds the engine's wall time — where
///   table replay = session self + io + core busy.
/// The stream layer's self time is measured apart, from the traced pass:
/// the producer's time feeding plus, per tick, the drain() wait beyond that
/// tick's slowest shard replay. The residual against the untraced wall is
/// what no layer accounts for; it is negative where layers overlap (shard
/// workers run table work while the producer still feeds).
std::vector<Metric> layer_metrics(const Workload& w,
                                  const std::vector<ShardOps>& shards,
                                  const std::vector<StreamResult>& engine,
                                  const Timings& t,
                                  std::vector<e2e::SpanLog>& logs,
                                  Verdict& verdict) {
  const std::size_t n = shards.size();
  const std::size_t budget = w.options.spill.max_resident;
  std::vector<TableReplay> tables(n), unbudgeted(n);
  std::vector<CoreReplay> cores(n);
  in_parallel(n, 1, [&](std::size_t s) {
    tables[s] = replay_table(w, shards[s], w.options.spill, true, &logs[s]);
  });
  if (budget > 0)  // the same replay without the budget prices spilling
    in_parallel(n, 1, [&](std::size_t s) {
      unbudgeted[s] = replay_table(w, shards[s], {}, false, nullptr);
    });
  in_parallel(n, 1, [&](std::size_t s) {
    cores[s] = replay_core(w, shards[s], budget, &logs[s]);
  });

  std::vector<StreamResult> core_results;
  std::vector<double> feed_ns, close_ns, arrival_us, advance_us, save_us,
      load_us, blob_bytes;
  long long restores = 0, spills = 0, table_ops = 0, modeled_spills = 0;
  std::size_t crit = 0;
  double table_sum = 0.0;
  for (std::size_t s = 0; s < n; ++s) {
    const TableReplay& tr = tables[s];
    const CoreReplay& c = cores[s];
    append(core_results, c.results);
    append(feed_ns, tr.feed_ns);
    append(close_ns, tr.close_ns);
    append(arrival_us, c.arrival_us);
    append(advance_us, c.advance_us);
    append(save_us, c.save_us);
    append(load_us, c.load_us);
    append(blob_bytes, c.blob_bytes);
    restores += tr.restores;
    spills += tr.spills;
    table_ops += tr.ops;
    modeled_spills += c.modeled_spills;
    table_sum += tr.busy_s;
    if (tr.busy_s > tables[crit].busy_s) crit = s;
  }
  check_streams(engine, core_results, verdict);
  if (core_results.size() != engine.size())
    verdict.fail("direct PD replay closed a different stream count");
  // io.* is sampled at the spill points the model predicts: a model that
  // drifted from the table would time the wrong sessions.
  if (modeled_spills != spills)
    verdict.fail("the LRU model predicts " + std::to_string(modeled_spills) +
                 " spills, the tables made " + std::to_string(spills));

  double stream_self = 0.0;
  for (std::size_t tick = 0; tick < t.trace.drain_ms.size(); ++tick) {
    double slowest_ms = 0.0;
    for (const TableReplay& tr : tables)
      slowest_ms = std::max(slowest_ms, tr.tick_s[tick] * 1e3);
    stream_self += (t.trace.feed_ms[tick] +
                    std::max(0.0, t.trace.drain_ms[tick] - slowest_ms)) *
                   1e-3;
  }

  const double table_max = tables[crit].busy_s;
  const double traced_wall = e2e::median(t.traced_walls);
  const double untraced_wall = e2e::median(t.untraced_walls);
  const double core_busy = cores[crit].busy_s();
  const double io_self = cores[crit].io_s();
  const double session_self = table_max - core_busy - io_self;
  const double spill_cost =
      budget > 0 ? table_max - unbudgeted[crit].busy_s : 0.0;
  const double selves = stream_self + session_self + io_self + core_busy;
  std::cout << "critical shard " << crit << ": table replay " << table_max
            << " s = session self " << session_self << " + io " << io_self
            << " + core " << core_busy << "; stream self " << stream_self
            << " s; engine wall traced " << traced_wall << " s, untraced "
            << untraced_wall << " s\n";

  const pss::core::PdCounters& pc = t.traced_snap.counters;
  auto count = [](const char* name, double value) {
    return Metric{name, value, "count", ""};
  };
  return {
      percentile_metric("stream.feed_ns_p50", t.trace.feed_ns, 0.50, "ns"),
      percentile_metric("stream.feed_ns_p99", t.trace.feed_ns, 0.99, "ns"),
      percentile_metric("stream.drain_wait_ms_p50", t.trace.drain_ms, 0.50,
                        "ms"),
      percentile_metric("stream.tick_latency_p99_ms", t.ticks, 0.99, "ms"),
      count("stream.full_waits", double(t.traced_snap.full_waits)),
      {"stream.ops_per_batch", ops_per_batch(t.traced_snap), "ops", ""},
      {"stream.overhead_s", traced_wall - table_max, "s",
       "traced engine wall - slowest table replay"},
      {"stream.self_s", stream_self, "s",
       "feeding + drain wait beyond each tick's slowest shard replay"},
      {"stream.shard_skew", ratio(table_max, table_sum / double(n)), "ratio",
       "max / mean table replay"},
      percentile_metric("session.feed_ns_p50", feed_ns, 0.50, "ns"),
      percentile_metric("session.close_ns_p50", close_ns, 0.50, "ns"),
      {"session.self_s", session_self, "s", "critical shard"},
      count("session.restores", double(restores)),
      {"session.restore_ratio", ratio(double(restores), double(table_ops)),
       "ratio", "restores per op"},
      {"session.spill_cost_s", spill_cost, "s",
       "critical shard, with budget - without"},
      {"ingest.spill_bytes", e2e::sum(blob_bytes), "B",
       std::to_string(blob_bytes.size()) + " spills"},
      percentile_metric("ingest.spill_blob_bytes_p50", blob_bytes, 0.50, "B"),
      percentile_metric("io.save_us_p50", save_us, 0.50, "us"),
      percentile_metric("io.load_us_p50", load_us, 0.50, "us"),
      percentile_metric("core.on_arrival_us_p50", arrival_us, 0.50, "us"),
      percentile_metric("core.on_arrival_us_p99", arrival_us, 0.99, "us"),
      percentile_metric("core.advance_us_p50", advance_us, 0.50, "us"),
      {"core.busy_s", core_busy, "s", "critical shard"},
      {"core.cache_hit_ratio",
       ratio(double(pc.curve_cache_hits),
             double(pc.curve_cache_hits + pc.curve_cache_rebuilds)),
       "ratio", ""},
      count("core.lazy_fast_path", double(pc.lazy_fast_path)),
      count("core.lazy_materializations", double(pc.lazy_materializations)),
      count("convex.window_prunes", double(pc.window_prunes)),
      count("convex.window_exact", double(pc.window_exact)),
      {"convex.prune_ratio",
       ratio(double(pc.window_prunes),
             double(pc.window_prunes + pc.window_exact)),
       "ratio", "prunes per screened arrival"},
      count("model.interval_splits", double(pc.interval_splits)),
      count("model.compacted_intervals", double(pc.compacted_intervals)),
      count("model.max_intervals", double(pc.max_intervals)),
      count("model.max_window", double(pc.max_window)),
      {"trace.overhead_ratio", ratio(traced_wall, untraced_wall), "ratio",
       std::to_string(t.traced_walls.size()) + " traced passes"},
      {"trace.residual_ratio", ratio(untraced_wall - selves, untraced_wall),
       "ratio",
       "(untraced wall - stream, session, io and core self times) / "
       "untraced wall"},
  };
}

// ------------------------------------------------------------------- args

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  std::string trace_dir;
};

Args parse(int argc, char** argv) {
  Args a;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string key = argv[i], value = argv[i + 1];
    if (key == "--workload") a.workload = value;
    else if (key == "--seed") a.seed = std::stoull(value);
    else if (key == "--seconds") a.seconds = std::stod(value);
    else if (key == "--trace") a.trace = value == "1";
    else if (key == "--trace-dir") a.trace_dir = value;
    else throw std::invalid_argument("unknown argument " + key);
  }
  if (a.workload.empty()) throw std::invalid_argument("--workload is required");
  if (!(a.seconds > 0.0)) throw std::invalid_argument("--seconds must be > 0");
  return a;
}

}  // namespace

int main(int argc, char** argv) {
  Args args;
  Workload w;
  try {
    args = parse(argc, argv);
    w = e2e::make_workload(args.workload, args.seed);
  } catch (const std::exception& e) {
    std::cerr << "serve_bench: " << e.what() << "\n";
    return 2;
  }
  const unsigned nproc = std::thread::hardware_concurrency();
  if (e2e::kShards + e2e::kProducers > nproc) {
    std::cerr << "serve_bench: thread budget " << e2e::kShards << " shards + "
              << e2e::kProducers << " producer exceeds nproc = " << nproc
              << "\n";
    return 3;
  }
  std::cout << "workload " << w.name << "  seed " << args.seed << "  nproc "
            << nproc << "  shards " << w.options.num_shards << "  producers "
            << w.options.max_producers << "  ticks " << w.tick_end.size()
            << "  ops " << w.ops.size() << "  arrivals " << w.arrivals
            << "  streams " << w.streams << "  pre-opened "
            << w.population.size() << "  resident budget/shard "
            << w.options.spill.max_resident << "\n";

  const auto origin = Clock::now();
  Verdict verdict;
  long long attempted = 0, failed = 0;
  Pass first;  // keeps its results and router for the checks
  bool have_first = false;
  std::uint64_t first_digest = 0;
  auto account = [&](Pass&& p) {
    attempted += static_cast<long long>(w.ops.size());
    failed += failed_ops(p.snap);
    if (static_cast<long long>(p.results.size()) != w.streams)
      verdict.fail("pass closed " + std::to_string(p.results.size()) +
                   " of " + std::to_string(w.streams) + " streams");
    const std::uint64_t d = digest(p.results);
    if (!have_first) {
      first_digest = d;
      first = std::move(p);
      have_first = true;
    } else if (d != first_digest) {
      verdict.fail("pass digest differs from the first pass");
    }
  };

  // Nothing is timed before the CPUs are up and a warm-up pass or two has
  // filled the allocator: the first pass of a process runs well below
  // steady state. Warm-up results are checked like every other pass.
  spin_all_cpus(nproc, kSpinSeconds);
  std::cout << "warm-up pass arrivals/s:";
  const auto warm_start = Clock::now();
  for (int n = 0; n == 0 || e2e::seconds_between(warm_start, Clock::now()) <
                                kWarmupSeconds;
       ++n) {
    Pass warm = run_pass(w, nullptr);
    std::cout << ' ' << number(double(w.arrivals) / warm.run_s);
    account(std::move(warm));
  }
  std::cout << '\n';

  Timings t;
  if (args.trace) {
    time_traced_passes(w, args.seconds, account, t);
  } else {
    time_passes(w, args.seconds, account, t);
    if (!t.peak_reset)
      std::cout << "note: the peak RSS could not be reset; peak_rss_mb "
                   "includes earlier peaks\n";
  }

  // The SessionTable replays of the per-shard op subsequences the engine
  // routed must close every stream exactly as the engine did. Timed
  // replays come after this one, so none of them touches a cold heap.
  const std::vector<ShardOps> shards = split_by_shard(w, first.router);
  std::vector<TableReplay> tables(shards.size());
  in_parallel(shards.size(), 1, [&](std::size_t s) {
    tables[s] = replay_table(w, shards[s], w.options.spill, false, nullptr);
  });
  std::vector<StreamResult> table_results;
  for (const TableReplay& tr : tables) append(table_results, tr.results);
  if (digest(table_results) != first_digest ||
      table_results.size() != first.results.size())
    verdict.fail("SessionTable replay digest differs from the engine's");

  std::vector<e2e::SpanLog> logs(shards.size());
  std::vector<Metric> metrics;
  if (args.trace) {
    metrics = layer_metrics(w, shards, first.results, t, logs, verdict);
  } else {
    check_sample(w, first.results, args.seed, verdict);
    metrics = end_to_end_metrics(t, w.tick_end.size());
  }

  if (args.trace && !args.trace_dir.empty()) {
    std::filesystem::create_directories(args.trace_dir);
    std::ofstream out(args.trace_dir + "/" + w.name + "-seed" +
                      std::to_string(args.seed) + ".jsonl");
    long base = 0;
    t.trace.spans.dump(out, origin, "producer", base);
    base += long(t.trace.spans.spans().size());
    for (std::size_t s = 0; s < logs.size(); ++s) {
      logs[s].dump(out, origin, ("replay.shard" + std::to_string(s)).c_str(),
                   base);
      base += long(logs[s].spans().size());
    }
  }

  for (const std::string& note : verdict.notes)
    std::cout << "CHECK FAILED: " << note << "\n";
  failed += verdict.mismatches;
  std::cout << "failed_op_ratio "
            << number(ratio(double(failed), double(attempted))) << "  ("
            << failed << " of " << attempted << " ops; lower is better)\n";
  print_result(verdict.mismatches == 0, attempted, failed, metrics);
  return 0;
}
