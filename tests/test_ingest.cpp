// Tests for the ingest front end (src/ingest/ + its src/stream hooks):
// the framed binary op-log wire format (malformed-frame containment and
// bitwise round trips), MPSC multi-producer ingestion (producer-count
// bitwise invariance), admission control (shed-before-enqueue, distinct
// from post-ring queue rejects), bounded-memory session spill (LRU budget,
// decision identity, checkpoint byte invariance), and the multi-producer
// shutdown contract (late ops contained and counted, never raced).
#include <gtest/gtest.h>

#include <atomic>
#include <bit>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <filesystem>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "core/pd_scheduler.hpp"
#include "ingest/admission.hpp"
#include "ingest/op_log.hpp"
#include "ingest/spill.hpp"
#include "sim/stream_sweep.hpp"
#include "stream/engine.hpp"
#include "stream/replay.hpp"
#include "stream/session_table.hpp"
#include "util/math.hpp"

namespace {

using namespace pss;
using stream::StreamId;

const model::Machine kMachine{2, 2.0};

sim::StreamWorkloadConfig small_config(int num_streams, int jobs_per_stream) {
  sim::StreamWorkloadConfig config;
  config.num_streams = num_streams;
  config.jobs_per_stream = jobs_per_stream;
  config.base_seed = 1234;
  return config;
}

stream::EngineOptions engine_options(std::size_t shards) {
  stream::EngineOptions options;
  options.num_shards = shards;
  options.machine = kMachine;
  options.record_decisions = true;
  return options;
}

// Bitwise comparison of two per-stream result lists (decision identity).
void expect_streams_bitwise_equal(
    const std::vector<stream::StreamResult>& a,
    const std::vector<stream::StreamResult>& b) {
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t s = 0; s < a.size(); ++s) {
    SCOPED_TRACE("stream " + std::to_string(a[s].id));
    ASSERT_EQ(a[s].id, b[s].id);
    EXPECT_EQ(a[s].planned_energy, b[s].planned_energy);
    EXPECT_EQ(a[s].counters.arrivals, b[s].counters.arrivals);
    EXPECT_EQ(a[s].counters.accepted, b[s].counters.accepted);
    EXPECT_EQ(a[s].counters.rejected, b[s].counters.rejected);
    ASSERT_EQ(a[s].decisions.size(), b[s].decisions.size());
    for (std::size_t i = 0; i < a[s].decisions.size(); ++i) {
      EXPECT_EQ(a[s].decisions[i].first, b[s].decisions[i].first);
      EXPECT_EQ(a[s].decisions[i].second.accepted,
                b[s].decisions[i].second.accepted);
      EXPECT_EQ(a[s].decisions[i].second.speed,
                b[s].decisions[i].second.speed);
      EXPECT_EQ(a[s].decisions[i].second.lambda,
                b[s].decisions[i].second.lambda);
      EXPECT_EQ(a[s].decisions[i].second.planned_energy,
                b[s].decisions[i].second.planned_energy);
    }
  }
}

// A valid one-arrival op log, as raw bytes, for corruption tests.
std::string valid_log_bytes() {
  std::ostringstream os(std::ios::binary);
  ingest::OpLogWriter writer(os);
  ingest::IngestOp op;
  op.kind = ingest::OpKind::kArrival;
  op.stream = 7;
  op.job.id = 0;
  op.job.release = 1.0;
  op.job.deadline = 5.0;
  op.job.work = 2.0;
  op.job.value = 9.0;
  writer.append(op);
  return std::move(os).str();
}

// ------------------------------------------------------------ wire format

TEST(OpLog, RoundTripsEveryOpKindBitwise) {
  std::ostringstream os(std::ios::binary);
  ingest::OpLogWriter writer(os);
  std::vector<ingest::IngestOp> ops;
  {
    ingest::IngestOp op;
    op.kind = ingest::OpKind::kOpen;
    op.stream = 3;
    ops.push_back(op);
    op.kind = ingest::OpKind::kArrival;
    op.stream = 0xDEADBEEFCAFEF00Dull;
    op.job.id = -17;
    op.job.release = 0.1;          // not exactly representable: bit test
    op.job.deadline = 1.0 / 3.0;
    op.job.work = 5e-324;          // denormal min
    op.job.value = 1e308;
    ops.push_back(op);
    op = ingest::IngestOp{};
    op.kind = ingest::OpKind::kAdvance;
    op.stream = 12;
    op.time = -0.0;  // signed zero must survive
    ops.push_back(op);
    op.kind = ingest::OpKind::kCheckpointMark;
    op.time = 0.0;
    ops.push_back(op);
    op.kind = ingest::OpKind::kClose;
    ops.push_back(op);
  }
  for (const ingest::IngestOp& op : ops) writer.append(op);
  EXPECT_EQ(writer.frames_written(), 5);

  std::istringstream is(std::move(os).str(), std::ios::binary);
  ingest::OpLogReader reader(is);
  ingest::IngestOp got;
  for (const ingest::IngestOp& want : ops) {
    ASSERT_TRUE(reader.next(got));
    EXPECT_EQ(got.kind, want.kind);
    EXPECT_EQ(got.stream, want.stream);
    if (want.kind == ingest::OpKind::kAdvance) {
      EXPECT_EQ(std::bit_cast<std::uint64_t>(got.time),
                std::bit_cast<std::uint64_t>(want.time));
    }
    if (want.kind == ingest::OpKind::kArrival) {
      EXPECT_EQ(got.job.id, want.job.id);
      EXPECT_EQ(std::bit_cast<std::uint64_t>(got.job.release),
                std::bit_cast<std::uint64_t>(want.job.release));
      EXPECT_EQ(std::bit_cast<std::uint64_t>(got.job.deadline),
                std::bit_cast<std::uint64_t>(want.job.deadline));
      EXPECT_EQ(std::bit_cast<std::uint64_t>(got.job.work),
                std::bit_cast<std::uint64_t>(want.job.work));
      EXPECT_EQ(std::bit_cast<std::uint64_t>(got.job.value),
                std::bit_cast<std::uint64_t>(want.job.value));
    }
  }
  EXPECT_FALSE(reader.next(got));  // clean EOF
  EXPECT_EQ(reader.frames_read(), 5);
}

TEST(OpLog, RejectsBadFileMagic) {
  std::string bytes = valid_log_bytes();
  bytes[0] ^= 0x01;
  std::istringstream is(bytes, std::ios::binary);
  EXPECT_THROW(ingest::OpLogReader reader(is), std::invalid_argument);
}

TEST(OpLog, RejectsBadVersionByte) {
  std::string bytes = valid_log_bytes();
  bytes[7] = '2';  // "PSSOPLG2": a future version this reader must refuse
  std::istringstream is(bytes, std::ios::binary);
  EXPECT_THROW(ingest::OpLogReader reader(is), std::invalid_argument);
}

TEST(OpLog, RejectsBadFrameMagic) {
  std::string bytes = valid_log_bytes();
  bytes[8] ^= 0xFF;  // first frame's magic byte
  std::istringstream is(bytes, std::ios::binary);
  ingest::OpLogReader reader(is);
  ingest::IngestOp op;
  EXPECT_THROW(reader.next(op), std::invalid_argument);
}

TEST(OpLog, RejectsOversizedLengthField) {
  std::string bytes = valid_log_bytes();
  // Overwrite body_len (8 bytes after the frame magic at offset 8) with an
  // absurd value; the reader must refuse before allocating anything.
  for (int i = 0; i < 8; ++i) bytes[9 + i] = char(0xEE);
  std::istringstream is(bytes, std::ios::binary);
  ingest::OpLogReader reader(is);
  ingest::IngestOp op;
  EXPECT_THROW(reader.next(op), std::invalid_argument);
}

TEST(OpLog, TruncatedTailIsCleanEndOfLog) {
  const std::string bytes = valid_log_bytes();
  // Chop mid-length, mid-body and mid-trailer: every byte-prefix of a
  // valid log is what a crash mid-append leaves behind. The reader ends
  // the log cleanly at the tear (tail_truncated set) instead of throwing —
  // the torn op was never fed anywhere, so recovery drops it by design.
  for (const std::size_t keep : {bytes.size() - 4, bytes.size() - 12,
                                 std::size_t(8 + 1 + 8 + 3),
                                 std::size_t(8 + 1 + 2)}) {
    std::istringstream is(bytes.substr(0, keep), std::ios::binary);
    ingest::OpLogReader reader(is);
    ingest::IngestOp op;
    EXPECT_NO_THROW({
      while (reader.next(op)) {
      }
    }) << "keep=" << keep;
    EXPECT_TRUE(reader.tail_truncated()) << "keep=" << keep;
    EXPECT_EQ(reader.frames_read(), 0) << "keep=" << keep;
  }
  // The intact log reads to EOF without the flag.
  std::istringstream is(bytes, std::ios::binary);
  ingest::OpLogReader reader(is);
  ingest::IngestOp op;
  EXPECT_TRUE(reader.next(op));
  EXPECT_FALSE(reader.next(op));
  EXPECT_FALSE(reader.tail_truncated());
}

TEST(OpLog, RejectsCorruptedBodyViaChecksum) {
  std::string bytes = valid_log_bytes();
  bytes[9 + 8 + 5] ^= 0x10;  // flip one bit inside the frame body
  std::istringstream is(bytes, std::ios::binary);
  ingest::OpLogReader reader(is);
  ingest::IngestOp op;
  EXPECT_THROW(reader.next(op), std::invalid_argument);
}

TEST(OpLog, RejectsUnknownOpKind) {
  std::string bytes = valid_log_bytes();
  // Patch the kind byte to an undefined value and re-stamp the checksum so
  // only the kind check can object.
  const std::size_t body_at = 8 + 1 + 8;
  const std::size_t body_len = bytes.size() - body_at - 8;
  bytes[body_at] = 9;
  const std::uint32_t crc = ingest::crc32(
      reinterpret_cast<const unsigned char*>(bytes.data() + body_at),
      body_len);
  for (int i = 0; i < 8; ++i)
    bytes[body_at + body_len + std::size_t(i)] =
        char((std::uint64_t(crc) >> (8 * i)) & 0xff);
  std::istringstream is(bytes, std::ios::binary);
  ingest::OpLogReader reader(is);
  ingest::IngestOp op;
  EXPECT_THROW(reader.next(op), std::invalid_argument);
}

TEST(OpLog, NanPayloadIsContainedPerOpNotPoisonous) {
  // A NaN-laden arrival is structurally a valid frame — the wire layer
  // round-trips it — but the session precondition rejects it on apply, and
  // the stream keeps serving: contained per op, like any malformed job.
  std::ostringstream os(std::ios::binary);
  ingest::OpLogWriter writer(os);
  ingest::IngestOp op;
  op.kind = ingest::OpKind::kArrival;
  op.stream = 4;
  op.job.id = 0;
  op.job.release = 1.0;
  op.job.deadline = 4.0;
  op.job.work = 1.0;
  writer.append(op);
  op.job.id = 1;
  op.job.work = std::nan("");  // malformed: non-positive/non-finite work
  writer.append(op);
  op.job.id = 2;
  op.job.work = 1.0;
  op.job.release = std::nan("");  // malformed: NaN clock
  op.job.deadline = std::nan("");
  writer.append(op);
  op.job.id = 3;
  op.job.release = 2.0;
  op.job.deadline = 6.0;
  writer.append(op);
  op = ingest::IngestOp{};
  op.kind = ingest::OpKind::kClose;
  op.stream = 4;
  writer.append(op);

  stream::StreamEngine engine(engine_options(1));
  std::istringstream is(std::move(os).str(), std::ios::binary);
  const stream::ReplayStats stats = stream::replay_op_log(is, engine);
  EXPECT_EQ(stats.frames, 5);
  const auto results = engine.finish();
  ASSERT_EQ(results.size(), 1u);
  EXPECT_EQ(results[0].counters.arrivals, 2);  // the two well-formed jobs
  const auto snap = engine.snapshot();
  EXPECT_EQ(snap.op_errors, 2);
  EXPECT_EQ(snap.arrivals, 2);
}

TEST(OpLog, Crc32MatchesKnownVector) {
  // The standard check value for CRC-32/ISO-HDLC: crc32("123456789").
  const unsigned char data[] = {'1', '2', '3', '4', '5', '6', '7', '8', '9'};
  EXPECT_EQ(ingest::crc32(data, 9), 0xCBF43926u);
}

// Replay is bitwise identical to direct ingestion.
TEST(OpLog, ReplayMatchesDirectIngestionAcrossOptionCube) {
  const auto config = small_config(6, 14);
  std::vector<std::vector<model::Job>> jobs;
  for (int s = 0; s < config.num_streams; ++s)
    jobs.push_back(sim::make_stream_jobs(config, s, kMachine.alpha));

  std::ostringstream os(std::ios::binary);
  ingest::OpLogWriter writer(os);
  ingest::IngestOp op;
  for (int i = 0; i < config.jobs_per_stream; ++i) {
    for (int s = 0; s < config.num_streams; ++s) {
      op.kind = ingest::OpKind::kArrival;
      op.stream = std::uint64_t(s);
      op.job = jobs[std::size_t(s)][std::size_t(i)];
      writer.append(op);
    }
  }
  op = ingest::IngestOp{};
  op.kind = ingest::OpKind::kClose;
  for (int s = 0; s < config.num_streams; ++s) {
    op.stream = std::uint64_t(s);
    writer.append(op);
  }
  const std::string log = std::move(os).str();

  const stream::EngineOptions options = engine_options(2);
  stream::StreamEngine direct(options);
  for (int i = 0; i < config.jobs_per_stream; ++i)
    for (int s = 0; s < config.num_streams; ++s)
      direct.feed(StreamId(s), jobs[std::size_t(s)][std::size_t(i)]);
  for (int s = 0; s < config.num_streams; ++s)
    direct.close_stream(StreamId(s));
  const auto want = direct.finish();

  stream::StreamEngine replayed(options);
  std::istringstream is(log, std::ios::binary);
  const stream::ReplayStats stats = stream::replay_op_log(is, replayed);
  EXPECT_EQ(stats.arrival_sheds, 0);
  const auto got = replayed.finish();
  expect_streams_bitwise_equal(want, got);
}

// -------------------------------------------------------------- admission

TEST(AdmissionGate, NonePolicyAdmitsEverything) {
  ingest::AdmissionGate gate({});
  for (int i = 0; i < 100; ++i) EXPECT_TRUE(gate.admit(1u << 20));
}

TEST(AdmissionGate, ManualTokenBucketIsDeterministic) {
  ingest::AdmissionOptions options;
  options.policy = ingest::AdmissionPolicy::kTokenBucket;
  options.burst = 3.0;
  options.tokens_per_sec = 0.0;
  options.manual_refill = true;
  ingest::AdmissionGate gate(options);
  EXPECT_TRUE(gate.admit(0));  // the bucket starts full: burst of 3
  EXPECT_TRUE(gate.admit(0));
  EXPECT_TRUE(gate.admit(0));
  EXPECT_FALSE(gate.admit(0));  // dry
  EXPECT_FALSE(gate.admit(0));
  gate.refill(2.0);
  EXPECT_TRUE(gate.admit(0));
  EXPECT_TRUE(gate.admit(0));
  EXPECT_FALSE(gate.admit(0));
  gate.refill(100.0);  // clamped at burst
  EXPECT_EQ(gate.tokens(), 3.0);
}

TEST(AdmissionGate, QueueDepthPolicyShedsBackedUpRings) {
  ingest::AdmissionOptions options;
  options.policy = ingest::AdmissionPolicy::kQueueDepth;
  options.max_queue_depth = 4;
  ingest::AdmissionGate gate(options);
  EXPECT_TRUE(gate.admit(0));
  EXPECT_TRUE(gate.admit(3));
  EXPECT_FALSE(gate.admit(4));
  EXPECT_FALSE(gate.admit(100));
}

TEST(AdmissionGate, RejectsSenselessConfiguration) {
  ingest::AdmissionOptions bucket;
  bucket.policy = ingest::AdmissionPolicy::kTokenBucket;
  bucket.burst = 0.0;
  EXPECT_THROW(ingest::AdmissionGate{bucket}, std::invalid_argument);
  ingest::AdmissionOptions depth;
  depth.policy = ingest::AdmissionPolicy::kQueueDepth;
  depth.max_queue_depth = 0;
  EXPECT_THROW(ingest::AdmissionGate{depth}, std::invalid_argument);
}

TEST(StreamEngine, AdmissionShedsArrivalsBeforeTheRing) {
  stream::EngineOptions options = engine_options(1);
  options.admission.policy = ingest::AdmissionPolicy::kTokenBucket;
  options.admission.burst = 5.0;
  options.admission.tokens_per_sec = 0.0;
  options.admission.manual_refill = true;
  stream::StreamEngine engine(options);

  const auto jobs =
      sim::make_stream_jobs(small_config(1, 10), 0, kMachine.alpha);
  int fed = 0;
  for (const model::Job& job : jobs)
    if (engine.feed(9, job)) ++fed;
  EXPECT_EQ(fed, 5);  // exactly the burst
  // Control ops always pass a dry bucket: shedding a close would drop the
  // stream's whole result.
  EXPECT_TRUE(engine.advance(9, jobs.back().release));
  engine.admission().refill(1.0);
  model::Job extra = jobs.back();
  extra.id = 99;
  EXPECT_TRUE(engine.feed(9, extra));
  EXPECT_TRUE(engine.close_stream(9));

  const auto results = engine.finish();
  ASSERT_EQ(results.size(), 1u);
  EXPECT_EQ(results[0].counters.arrivals, 6);
  const auto snap = engine.snapshot();
  EXPECT_EQ(snap.admission_rejects, 5);
  EXPECT_EQ(snap.queue_rejects, 0);  // distinct ledgers: nothing hit a ring
  EXPECT_EQ(snap.arrivals, 6);
}

TEST(StreamEngine, QueueDepthAdmissionIsDistinctFromQueueRejects) {
  stream::EngineOptions options = engine_options(1);
  options.queue_capacity = 64;
  options.start_paused = true;  // nothing drains: depth only grows
  options.admission.policy = ingest::AdmissionPolicy::kQueueDepth;
  options.admission.max_queue_depth = 4;
  stream::StreamEngine engine(options);

  const auto jobs =
      sim::make_stream_jobs(small_config(1, 10), 0, kMachine.alpha);
  int fed = 0;
  for (const model::Job& job : jobs)
    if (engine.feed(2, job)) ++fed;
  EXPECT_EQ(fed, 4);  // depth threshold, far below ring capacity
  const auto stalled = engine.snapshot();
  EXPECT_EQ(stalled.admission_rejects, 6);
  EXPECT_EQ(stalled.queue_rejects, 0);
  engine.resume();
  engine.close_stream(2);
  const auto results = engine.finish();
  ASSERT_EQ(results.size(), 1u);
  EXPECT_EQ(results[0].counters.arrivals, 4);
}

// ------------------------------------------------------------------ spill

TEST(SpillStore, MemoryStorePutTakePeek) {
  ingest::MemorySpillStore store;
  EXPECT_EQ(store.size(), 0u);
  store.put(5, "five");
  store.put(3, "three");
  store.put(5, "five2");  // replace
  EXPECT_EQ(store.size(), 2u);
  EXPECT_TRUE(store.contains(5));
  EXPECT_FALSE(store.contains(4));
  EXPECT_EQ(store.keys(), (std::vector<std::uint64_t>{3, 5}));
  std::string blob;
  ASSERT_TRUE(store.peek(5, blob));
  EXPECT_EQ(blob, "five2");
  EXPECT_EQ(store.size(), 2u);  // peek does not remove
  ASSERT_TRUE(store.take(5, blob));
  EXPECT_EQ(blob, "five2");
  EXPECT_FALSE(store.contains(5));
  EXPECT_FALSE(store.take(5, blob));
}

TEST(SpillStore, FileStorePersistsAcrossInstances) {
  const std::string dir =
      testing::TempDir() + "pss_spill_test_" +
      std::to_string(::getpid());
  std::filesystem::remove_all(dir);
  {
    ingest::FileSpillStore store(dir);
    store.put(42, std::string("blob\0with\0nuls", 14));
    store.put(7, "seven");
    EXPECT_EQ(store.keys(), (std::vector<std::uint64_t>{7, 42}));
  }
  {
    ingest::FileSpillStore store(dir);  // adopts the existing files
    EXPECT_EQ(store.size(), 2u);
    std::string blob;
    ASSERT_TRUE(store.take(42, blob));
    EXPECT_EQ(blob, std::string("blob\0with\0nuls", 14));
    EXPECT_EQ(store.size(), 1u);
  }
  {
    ingest::FileSpillStore store(dir);
    EXPECT_EQ(store.keys(), (std::vector<std::uint64_t>{7}));
  }
  std::filesystem::remove_all(dir);
}

TEST(SpillStore, FactoryHonorsOptions) {
  EXPECT_EQ(ingest::make_spill_store({}), nullptr);  // budget 0: disabled
  ingest::SpillOptions memory;
  memory.max_resident = 4;
  EXPECT_NE(dynamic_cast<ingest::MemorySpillStore*>(
                ingest::make_spill_store(memory).get()),
            nullptr);
}

TEST(SessionTable, SpillKeepsResidencyAtBudgetAndResultsBitwise) {
  const int streams = 12;
  const auto config = small_config(streams, 16);
  std::vector<std::vector<model::Job>> jobs;
  for (int s = 0; s < streams; ++s)
    jobs.push_back(sim::make_stream_jobs(config, s, kMachine.alpha));

  ingest::SpillOptions spill;
  spill.max_resident = 3;
  stream::SessionTable budgeted(kMachine, {}, true, spill);
  stream::SessionTable unbounded(kMachine, {}, true);

  // Interleave across streams so every feed touches the LRU cold end.
  for (int i = 0; i < config.jobs_per_stream; ++i) {
    for (int s = 0; s < streams; ++s) {
      budgeted.feed(StreamId(s), jobs[std::size_t(s)][std::size_t(i)]);
      unbounded.feed(StreamId(s), jobs[std::size_t(s)][std::size_t(i)]);
      EXPECT_LE(budgeted.num_resident(), 3u);
    }
  }
  EXPECT_EQ(budgeted.num_open(), std::size_t(streams));
  EXPECT_EQ(budgeted.num_spilled(), std::size_t(streams - 3));
  EXPECT_GT(budgeted.num_spills(), 0);
  EXPECT_GT(budgeted.num_spill_restores(), 0);
  EXPECT_EQ(unbounded.num_resident(), std::size_t(streams));

  for (int s = 0; s < streams; ++s) {
    const stream::StreamResult* a = budgeted.close(StreamId(s));
    const stream::StreamResult* b = unbounded.close(StreamId(s));
    ASSERT_NE(a, nullptr);
    ASSERT_NE(b, nullptr);
    EXPECT_EQ(a->planned_energy, b->planned_energy);
    EXPECT_EQ(a->counters.accepted, b->counters.accepted);
    EXPECT_EQ(a->counters.rejected, b->counters.rejected);
    ASSERT_EQ(a->decisions.size(), b->decisions.size());
    for (std::size_t i = 0; i < a->decisions.size(); ++i) {
      EXPECT_EQ(a->decisions[i].second.speed, b->decisions[i].second.speed);
      EXPECT_EQ(a->decisions[i].second.lambda,
                b->decisions[i].second.lambda);
    }
  }
  EXPECT_EQ(budgeted.num_open(), 0u);
  EXPECT_EQ(budgeted.num_spilled(), 0u);
}

// A spill restore goes through load_scheduler, which rebuilds the store's
// job watermark from the restored loads: a repeated id is still refused.
TEST(SessionTable, RepeatedJobIdIsRefusedAfterSpillRestore) {
  ingest::SpillOptions spill;
  spill.max_resident = 1;
  stream::SessionTable table(kMachine, {}, false, spill);
  const model::Job first{10, 0.0, 4.0, 1.0, util::kInf};
  ASSERT_TRUE(table.feed(StreamId(0), first).accepted);
  ASSERT_TRUE(table.feed(StreamId(1), first).accepted);  // spills stream 0
  ASSERT_EQ(table.num_spills(), 1);
  EXPECT_THROW(table.feed(StreamId(0), {10, 1.0, 3.0, 1.0, util::kInf}),
               std::invalid_argument);
  EXPECT_EQ(table.num_spill_restores(), 1);
  EXPECT_TRUE(
      table.feed(StreamId(0), {3, 1.0, 3.0, 1.0, util::kInf}).accepted);
}

TEST(SessionTable, CheckpointBytesAreSpillInvariant) {
  // A spilled blob IS a save_scheduler image, and checkpoint() walks one
  // sorted id order — so the bytes cannot depend on who happened to be
  // resident when the checkpoint was cut.
  const int streams = 10;
  const auto config = small_config(streams, 12);
  ingest::SpillOptions spill;
  spill.max_resident = 2;
  stream::SessionTable budgeted(kMachine, {}, false, spill);
  stream::SessionTable unbounded(kMachine, {}, false);
  for (int s = 0; s < streams; ++s) {
    const auto jobs = sim::make_stream_jobs(config, s, kMachine.alpha);
    for (const model::Job& job : jobs) {
      budgeted.feed(StreamId(s), job);
      unbounded.feed(StreamId(s), job);
    }
  }
  EXPECT_GT(budgeted.num_spilled(), 0u);
  std::ostringstream a(std::ios::binary), b(std::ios::binary);
  budgeted.checkpoint(a);
  unbounded.checkpoint(b);
  EXPECT_EQ(a.str(), b.str());

  // And the image restores into a fresh budgeted table losslessly.
  stream::SessionTable restored(kMachine, {}, false, spill);
  std::istringstream image(a.str(), std::ios::binary);
  restored.restore(image);
  EXPECT_EQ(restored.num_open(), std::size_t(streams));
  EXPECT_LE(restored.num_resident(), 2u);
  std::ostringstream again(std::ios::binary);
  restored.checkpoint(again);
  EXPECT_EQ(again.str(), a.str());
}

TEST(StreamEngine, SpillOnOffIsDecisionIdenticalWithFlatResidency) {
  const int streams = 40;
  const auto config = small_config(streams, 10);
  std::vector<std::vector<model::Job>> jobs;
  for (int s = 0; s < streams; ++s)
    jobs.push_back(sim::make_stream_jobs(config, s, kMachine.alpha));

  stream::EngineOptions with_spill = engine_options(1);
  with_spill.spill.max_resident = 6;
  stream::StreamEngine budgeted(with_spill);
  stream::StreamEngine unbounded(engine_options(1));

  for (int i = 0; i < config.jobs_per_stream; ++i) {
    for (int s = 0; s < streams; ++s) {
      budgeted.feed(StreamId(s), jobs[std::size_t(s)][std::size_t(i)]);
      unbounded.feed(StreamId(s), jobs[std::size_t(s)][std::size_t(i)]);
    }
  }
  budgeted.drain();
  unbounded.drain();
  const auto mid_budgeted = budgeted.snapshot();
  const auto mid_unbounded = unbounded.snapshot();
  // The LRU budget holds while every stream is still live...
  EXPECT_LE(mid_budgeted.resident_sessions, 6u);
  EXPECT_EQ(mid_budgeted.spilled_sessions, std::size_t(streams - 6));
  EXPECT_EQ(mid_budgeted.open_streams, std::size_t(streams));
  EXPECT_GT(mid_budgeted.session_spills, 0);
  // ...while the unbounded engine grows with the stream count.
  EXPECT_EQ(mid_unbounded.resident_sessions, std::size_t(streams));
  EXPECT_EQ(mid_unbounded.session_spills, 0);

  for (int s = 0; s < streams; ++s) {
    budgeted.close_stream(StreamId(s));
    unbounded.close_stream(StreamId(s));
  }
  expect_streams_bitwise_equal(unbounded.finish(), budgeted.finish());
}

TEST(StreamEngine, FileBackedSpillServesFromDisk) {
  const std::string dir = testing::TempDir() + "pss_engine_spill_" +
                          std::to_string(::getpid());
  std::filesystem::remove_all(dir);
  const int streams = 16;
  const auto config = small_config(streams, 8);

  stream::EngineOptions options = engine_options(2);
  options.spill.max_resident = 2;
  options.spill.directory = dir;
  stream::StreamEngine on_disk(options);
  stream::StreamEngine in_memory(engine_options(2));
  for (int s = 0; s < streams; ++s) {
    const auto jobs = sim::make_stream_jobs(config, s, kMachine.alpha);
    for (const model::Job& job : jobs) {
      on_disk.feed(StreamId(s), job);
      in_memory.feed(StreamId(s), job);
    }
  }
  on_disk.drain();
  EXPECT_GT(on_disk.snapshot().session_spills, 0);
  // Each shard spills under its own subdirectory; blobs really hit disk.
  std::size_t files = 0;
  for (const auto& entry :
       std::filesystem::recursive_directory_iterator(dir))
    files += entry.is_regular_file() ? 1 : 0;
  EXPECT_GT(files, 0u);

  for (int s = 0; s < streams; ++s) {
    on_disk.close_stream(StreamId(s));
    in_memory.close_stream(StreamId(s));
  }
  expect_streams_bitwise_equal(in_memory.finish(), on_disk.finish());
  std::filesystem::remove_all(dir);
}

TEST(StreamEngine, CheckpointWithSpilledSessionsRestoresBitwise) {
  const int streams = 10;
  const auto config = small_config(streams, 20);
  std::vector<std::vector<model::Job>> jobs;
  for (int s = 0; s < streams; ++s)
    jobs.push_back(sim::make_stream_jobs(config, s, kMachine.alpha));

  stream::EngineOptions spilling = engine_options(2);
  spilling.spill.max_resident = 2;
  stream::StreamEngine live(spilling);
  for (int s = 0; s < streams; ++s)
    for (std::size_t i = 0; i < jobs[std::size_t(s)].size() / 2; ++i)
      live.feed(StreamId(s), jobs[std::size_t(s)][i]);
  live.drain();
  EXPECT_GT(live.snapshot().spilled_sessions, 0u);
  std::ostringstream blob(std::ios::binary);
  live.checkpoint(blob);

  // Restore into an engine with NO spill budget: the image is state, the
  // budget is a serving-side knob.
  stream::StreamEngine restored(engine_options(2));
  std::istringstream image(blob.str(), std::ios::binary);
  restored.restore(image);
  for (int s = 0; s < streams; ++s) {
    const auto& js = jobs[std::size_t(s)];
    for (std::size_t i = js.size() / 2; i < js.size(); ++i) {
      live.feed(StreamId(s), js[i]);
      restored.feed(StreamId(s), js[i]);
    }
    live.close_stream(StreamId(s));
    restored.close_stream(StreamId(s));
  }
  expect_streams_bitwise_equal(live.finish(), restored.finish());
}

// ------------------------------------------------- MPSC producer handles

TEST(StreamEngine, ProducerCountInvarianceBitwise1_2_4_8) {
  // The headline MPSC property: the same streams, fed from 1, 2, 4 or 8
  // producer threads (each stream owned by one producer), close with
  // bitwise-identical decisions and energies — at every shard count, with
  // and without a spill budget underneath.
  const auto config = small_config(32, 12);
  std::vector<sim::StreamSweepResult> runs;
  for (const std::size_t producers : {1u, 2u, 4u, 8u}) {
    for (const std::size_t shards : {1u, 4u, 16u}) {
      for (const std::size_t budget : {0u, 5u}) {
        stream::EngineOptions options = engine_options(shards);
        options.max_producers = producers;
        options.spill.max_resident = budget;
        runs.push_back(sim::sweep_streams(config, options));
      }
    }
  }
  for (std::size_t r = 1; r < runs.size(); ++r) {
    SCOPED_TRACE("run " + std::to_string(r));
    expect_streams_bitwise_equal(runs[0].streams, runs[r].streams);
  }
  // Aggregate counts are invariant too (energy sums only to rounding).
  for (std::size_t r = 1; r < runs.size(); ++r) {
    EXPECT_EQ(runs[0].snapshot.accepted, runs[r].snapshot.accepted);
    EXPECT_EQ(runs[0].snapshot.rejected, runs[r].snapshot.rejected);
  }
}

TEST(StreamEngine, ProducerSlotsAreClaimedAndRecycled) {
  stream::EngineOptions options = engine_options(1);
  options.max_producers = 3;
  stream::StreamEngine engine(options);
  EXPECT_EQ(engine.active_producers(), 0u);
  {
    stream::StreamEngine::Producer a = engine.producer();
    stream::StreamEngine::Producer b = engine.producer();
    EXPECT_TRUE(a.valid());
    EXPECT_TRUE(b.valid());
    EXPECT_NE(a.slot(), b.slot());
    EXPECT_EQ(engine.active_producers(), 2u);
    EXPECT_THROW(engine.producer(), std::invalid_argument);  // exhausted
    a.release();
    EXPECT_FALSE(a.valid());
    EXPECT_EQ(engine.active_producers(), 1u);
    stream::StreamEngine::Producer c = engine.producer();  // slot recycled
    EXPECT_TRUE(c.valid());
    EXPECT_EQ(engine.active_producers(), 2u);
  }
  EXPECT_EQ(engine.active_producers(), 0u);  // destructors released
}

TEST(StreamEngine, SingleProducerEngineHasNoExtraSlots) {
  stream::StreamEngine engine(engine_options(1));
  EXPECT_THROW(engine.producer(), std::invalid_argument);
}

TEST(StreamEngine, CheckpointRefusesWhenProducersOutliveQuiesce) {
  stream::EngineOptions options = engine_options(1);
  options.max_producers = 2;
  options.quiesce_timeout_ms = 1;  // a held handle must fail fast here
  stream::StreamEngine engine(options);
  model::Job job;
  job.id = 0;
  job.release = 1.0;
  job.deadline = 4.0;
  job.work = 1.0;
  {
    stream::StreamEngine::Producer p = engine.producer();
    EXPECT_TRUE(p.feed(5, job));
    std::ostringstream os(std::ios::binary);
    // The handle outlives the quiesce window: refused and counted, so a
    // serving loop can retry at its next cadence instead of crashing.
    EXPECT_THROW(engine.checkpoint(os), std::invalid_argument);
    EXPECT_EQ(engine.snapshot().checkpoint_refusals, 1);
  }
  std::ostringstream os(std::ios::binary);
  engine.checkpoint(os);  // fine once the handle is gone
  EXPECT_GT(os.str().size(), 0u);
  EXPECT_EQ(engine.snapshot().checkpoint_refusals, 1);
}

TEST(StreamEngine, CheckpointWaitsOutAProducerReleasedConcurrently) {
  stream::EngineOptions options = engine_options(1);
  options.max_producers = 2;
  options.quiesce_timeout_ms = 5000;  // far beyond the release below
  stream::StreamEngine engine(options);
  model::Job job;
  job.id = 0;
  job.release = 1.0;
  job.deadline = 4.0;
  job.work = 1.0;
  stream::StreamEngine::Producer p = engine.producer();
  EXPECT_TRUE(p.feed(5, job));
  std::thread releaser([&p] {
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
    p.release();
  });
  std::ostringstream os(std::ios::binary);
  engine.checkpoint(os);  // quiesce-wait bridges the handle's wind-down
  releaser.join();
  EXPECT_GT(os.str().size(), 0u);
  EXPECT_EQ(engine.snapshot().checkpoint_refusals, 0);
}

TEST(StreamEngine, ProducerFeedsMergeWithOwnerFeeds) {
  stream::EngineOptions options = engine_options(2);
  options.max_producers = 2;
  stream::StreamEngine engine(options);
  const auto jobs =
      sim::make_stream_jobs(small_config(2, 30), 0, kMachine.alpha);
  const auto jobs2 =
      sim::make_stream_jobs(small_config(2, 30), 1, kMachine.alpha);
  std::thread feeder([&] {
    stream::StreamEngine::Producer handle = engine.producer();
    for (const model::Job& job : jobs2)
      while (!handle.feed(1, job)) std::this_thread::yield();
    while (!handle.close_stream(1)) std::this_thread::yield();
  });
  for (const model::Job& job : jobs)
    while (!engine.feed(0, job)) std::this_thread::yield();
  engine.close_stream(0);
  feeder.join();
  const auto results = engine.finish();
  ASSERT_EQ(results.size(), 2u);
  EXPECT_EQ(results[0].counters.arrivals, 30);
  EXPECT_EQ(results[1].counters.arrivals, 30);

  // Ground truth for both streams: the direct scheduler.
  core::PdScheduler direct(kMachine);
  for (const model::Job& job : jobs2) direct.on_arrival(job);
  EXPECT_EQ(results[1].planned_energy, direct.planned_energy());
}

// ------------------------------------------------------ shutdown contract

TEST(StreamEngine, OpsAfterFinishAreContainedLateRejects) {
  stream::StreamEngine engine(engine_options(1));
  model::Job job;
  job.id = 0;
  job.release = 1.0;
  job.deadline = 4.0;
  job.work = 1.0;
  EXPECT_TRUE(engine.feed(3, job));
  engine.close_stream(3);
  const auto results = engine.finish();
  ASSERT_EQ(results.size(), 1u);

  // Misuse after shutdown: refused and counted, never raced or thrown.
  job.id = 1;
  job.release = 2.0;
  EXPECT_FALSE(engine.feed(3, job));
  EXPECT_FALSE(engine.advance(3, 9.0));
  EXPECT_FALSE(engine.close_stream(3));
  const auto snap = engine.snapshot();
  EXPECT_EQ(snap.late_rejects, 3);
  EXPECT_EQ(snap.op_errors, 3);  // late rejects surface as op errors
  EXPECT_EQ(snap.arrivals, 1);   // nothing leaked into the session
}

TEST(StreamEngine, FinishRacingProducerLosesNoAcceptedOp) {
  // A producer hammers the engine while the owner finishes: every op that
  // feed() accepted must be applied, every op after the gate must be a
  // counted late reject, and the sum must reconcile exactly.
  stream::EngineOptions options = engine_options(2);
  options.max_producers = 2;
  stream::StreamEngine engine(options);
  const auto jobs =
      sim::make_stream_jobs(small_config(1, 4000), 0, kMachine.alpha);

  std::atomic<long long> accepted_feeds{0};
  std::atomic<bool> saw_gate{false};
  std::thread producer_thread([&] {
    stream::StreamEngine::Producer handle = engine.producer();
    for (const model::Job& job : jobs) {
      if (handle.feed(7, job)) {
        accepted_feeds.fetch_add(1, std::memory_order_relaxed);
      } else {
        saw_gate.store(true, std::memory_order_relaxed);
        break;  // engine is finishing: stop producing
      }
    }
  });
  // Let the producer get going, then finish under its feet.
  while (accepted_feeds.load(std::memory_order_relaxed) < 100)
    std::this_thread::yield();
  const auto results = engine.finish();
  producer_thread.join();

  EXPECT_TRUE(results.empty());  // stream 7 was never closed
  const auto snap = engine.snapshot();
  // Exactly the accepted feeds were applied — no loss, no duplication.
  EXPECT_EQ(snap.arrivals, accepted_feeds.load());
  if (saw_gate.load()) {
    EXPECT_GE(snap.late_rejects, 1);
  }
}

TEST(StreamSweep, MultiProducerSweepMatchesSingleAndCountsAllArrivals) {
  const auto config = small_config(24, 10);
  stream::EngineOptions single = engine_options(2);
  stream::EngineOptions multi = engine_options(2);
  multi.max_producers = 4;
  const auto a = sim::sweep_streams(config, single);
  const auto b = sim::sweep_streams(config, multi);
  EXPECT_EQ(b.snapshot.arrivals, 24LL * 10LL);
  EXPECT_EQ(b.snapshot.closed_streams, 24);
  EXPECT_EQ(b.snapshot.late_rejects, 0);
  expect_streams_bitwise_equal(a.streams, b.streams);
}

}  // namespace
