// Crash-recovery drills (src/util/fault + src/io/checkpoint_dir +
// src/stream/recovery): deterministic fault injection semantics, the
// torn-checkpoint fallback matrix, kill-at-every-fault-site WAL recovery
// drills with session spill off and on, quarantined-shard serving and
// WAL failover, restore under live multi-producer ingest, and bounded
// spill-IO retry. Every recovery assertion is bitwise: the recovered
// engine must finish with byte-identical decisions, energies and counters
// to an uninterrupted twin fed the same ops.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "core/pd_scheduler.hpp"
#include "ingest/op_log.hpp"
#include "ingest/spill.hpp"
#include "io/checkpoint_dir.hpp"
#include "model/instance.hpp"
#include "sim/stream_sweep.hpp"
#include "stream/engine.hpp"
#include "stream/recovery.hpp"
#include "stream/session_table.hpp"
#include "util/fault.hpp"

namespace {

using namespace pss;
using stream::StreamId;
using util::FaultInjector;
using util::FaultScope;
using util::InjectedCrash;
using util::InjectedError;

const model::Machine kMachine{2, 2.0};

std::string fresh_dir(const std::string& tag) {
  const std::string dir = testing::TempDir() + "pss_recovery_" + tag + "_" +
                          std::to_string(::getpid());
  std::filesystem::remove_all(dir);
  return dir;
}

stream::EngineOptions engine_options(std::size_t shards) {
  stream::EngineOptions options;
  options.num_shards = shards;
  options.machine = kMachine;
  options.record_decisions = true;
  return options;
}

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

// The drill traffic: opens, interleaved contested arrivals, a mid-run
// advance per stream, closes. Deterministic in (streams, jobs) alone.
std::vector<ingest::IngestOp> drill_ops(int streams, int jobs) {
  sim::StreamWorkloadConfig config;
  config.num_streams = streams;
  config.jobs_per_stream = jobs;
  config.base_seed = 4242;
  std::vector<std::vector<model::Job>> stream_jobs;
  stream_jobs.reserve(std::size_t(streams));
  for (int s = 0; s < streams; ++s)
    stream_jobs.push_back(sim::make_stream_jobs(config, s, kMachine.alpha));

  std::vector<ingest::IngestOp> ops;
  ingest::IngestOp op;
  op.kind = ingest::OpKind::kOpen;
  for (int s = 0; s < streams; ++s) {
    op.stream = std::uint64_t(s);
    ops.push_back(op);
  }
  for (int i = 0; i < jobs; ++i) {
    for (int s = 0; s < streams; ++s) {
      op = ingest::IngestOp{};
      op.kind = ingest::OpKind::kArrival;
      op.stream = std::uint64_t(s);
      op.job = stream_jobs[std::size_t(s)][std::size_t(i)];
      ops.push_back(op);
    }
    if (i == jobs / 2) {
      // Mid-run horizon advances exercise the kAdvance replay path; a
      // too-early advance is contained identically on both twins.
      for (int s = 0; s < streams; ++s) {
        op = ingest::IngestOp{};
        op.kind = ingest::OpKind::kAdvance;
        op.stream = std::uint64_t(s);
        op.time = double(i) / 2.0;
        ops.push_back(op);
      }
    }
  }
  op = ingest::IngestOp{};
  op.kind = ingest::OpKind::kClose;
  for (int s = 0; s < streams; ++s) {
    op.stream = std::uint64_t(s);
    ops.push_back(op);
  }
  return ops;
}

// Applies one op through any write handle (StreamEngine or its Producer).
// Retry loops match stream::recover_engine; arrivals are offered once.
template <typename Sink>
void apply_op(Sink& sink, const ingest::IngestOp& op) {
  switch (op.kind) {
    case ingest::OpKind::kArrival:
      sink.feed(StreamId(op.stream), op.job);
      break;
    case ingest::OpKind::kOpen:
      while (!sink.open(StreamId(op.stream))) std::this_thread::yield();
      break;
    case ingest::OpKind::kAdvance:
      while (!sink.advance(StreamId(op.stream), op.time))
        std::this_thread::yield();
      break;
    case ingest::OpKind::kClose:
      while (!sink.close_stream(StreamId(op.stream)))
        std::this_thread::yield();
      break;
    case ingest::OpKind::kCheckpointMark:
      break;
  }
}

std::vector<stream::StreamResult> run_uninterrupted(
    const stream::EngineOptions& options,
    const std::vector<ingest::IngestOp>& ops) {
  stream::StreamEngine engine(options);
  for (const ingest::IngestOp& op : ops) apply_op(engine, op);
  return engine.finish();
}

// What a killed serving process leaves behind: the WAL bytes as written
// (possibly ending in a torn frame) and the count of ops actually fed.
// The checkpoint directory persists on disk at `ckpt_path`.
struct ServeArtifacts {
  std::string wal_bytes;
  std::size_t ops_fed = 0;
  bool crashed = false;
};

// Log-then-feed serving loop with a checkpoint every `every` ops. Stops
// either at an injected crash (artifacts.crashed) or after `stop_after`
// ops (a clean-cut abandon: simulates a kill between two appends).
ServeArtifacts serve_with_wal(const stream::EngineOptions& options,
                              const std::vector<ingest::IngestOp>& ops,
                              const std::string& ckpt_path, int every,
                              std::size_t stop_after = SIZE_MAX) {
  ServeArtifacts out;
  std::ostringstream wal_os(std::ios::binary);
  ingest::OpLogWriter wal(wal_os);
  io::CheckpointDir dir(ckpt_path);
  stream::StreamEngine engine(options);
  stream::CheckpointCoordinator coordinator(engine, wal, wal_os, dir);
  try {
    int since = 0;
    for (const ingest::IngestOp& op : ops) {
      if (out.ops_fed >= stop_after) {
        out.crashed = true;
        break;
      }
      wal.append(op);  // log THEN feed: the WAL never lags the engine
      apply_op(engine, op);
      ++out.ops_fed;
      if (++since >= every) {
        since = 0;
        coordinator.checkpoint();
      }
    }
    if (!out.crashed) coordinator.checkpoint();
  } catch (const InjectedCrash&) {
    out.crashed = true;  // everything written so far stays as-is
  }
  out.wal_bytes = wal_os.str();
  return out;
}

// Failover: fresh engine, restore newest-valid parts + WAL tail replay,
// then feed the ops the dead process never fed, exactly once each.
std::vector<stream::StreamResult> recover_and_resume(
    const stream::EngineOptions& options,
    const std::vector<ingest::IngestOp>& ops, const ServeArtifacts& artifacts,
    const std::string& ckpt_path,
    stream::RecoveryReport* report_out = nullptr) {
  stream::StreamEngine engine(options);
  io::CheckpointDir dir(ckpt_path);
  std::istringstream wal_is(artifacts.wal_bytes, std::ios::binary);
  const stream::RecoveryReport report =
      stream::recover_engine(engine, dir, wal_is);
  if (report_out) *report_out = report;
  for (std::size_t i = artifacts.ops_fed; i < ops.size(); ++i)
    apply_op(engine, ops[i]);
  return engine.finish();
}

// ---------------------------------------------------------- fault injector

TEST(FaultInjector, ErrorFiresOnTheArmedHitAndIsAStdException) {
  FaultScope scope;
  FaultInjector& fi = FaultInjector::instance();
  fi.arm("unit.site", 2, FaultInjector::Kind::kError);
  EXPECT_NO_THROW(PSS_FAULT_POINT("unit.site"));  // hit 0
  EXPECT_NO_THROW(PSS_FAULT_POINT("unit.site"));  // hit 1
  bool contained = false;
  try {
    PSS_FAULT_POINT("unit.site");  // hit 2: fires
  } catch (const std::exception& error) {
    contained = true;  // per-op containment nets must catch it
    EXPECT_NE(std::string(error.what()).find("unit.site"), std::string::npos);
  }
  EXPECT_TRUE(contained);
  EXPECT_NO_THROW(PSS_FAULT_POINT("unit.site"));  // times=1: one-shot
}

TEST(FaultInjector, CrashEscapesStdExceptionHandlers) {
  FaultScope scope;
  FaultInjector::instance().arm("unit.crash", 0,
                                FaultInjector::Kind::kCrash);
  bool escaped = false;
  try {
    try {
      PSS_FAULT_POINT("unit.crash");
      FAIL() << "armed crash did not fire";
    } catch (const std::exception&) {
      FAIL() << "InjectedCrash must not be containable as std::exception";
    }
  } catch (const InjectedCrash& crash) {
    escaped = true;
    EXPECT_STREQ(crash.site, "unit.crash");
  }
  EXPECT_TRUE(escaped);
}

TEST(FaultInjector, CountsHitsForRehearsalRuns) {
  FaultScope scope;
  FaultInjector& fi = FaultInjector::instance();
  fi.set_counting(true);
  for (int i = 0; i < 5; ++i) PSS_FAULT_POINT("unit.count.a");
  PSS_FAULT_POINT("unit.count.b");
  EXPECT_EQ(fi.hits("unit.count.a"), 5);
  EXPECT_EQ(fi.hits("unit.count.b"), 1);
  EXPECT_EQ(fi.hits("unit.count.never"), 0);
  const std::vector<std::string> seen = fi.sites_seen();
  EXPECT_NE(std::find(seen.begin(), seen.end(), "unit.count.a"), seen.end());
  EXPECT_NE(std::find(seen.begin(), seen.end(), "unit.count.b"), seen.end());
}

TEST(FaultInjector, SeededArmIsDeterministic) {
  FaultScope scope;
  FaultInjector& fi = FaultInjector::instance();
  const auto fire_index = [&fi]() -> int {
    fi.arm_from_seed("unit.seeded", 99, 10, FaultInjector::Kind::kError);
    for (int i = 0; i < 10; ++i) {
      try {
        PSS_FAULT_POINT("unit.seeded");
      } catch (const InjectedError&) {
        return i;
      }
    }
    return -1;
  };
  const int first = fire_index();
  const int second = fire_index();
  EXPECT_GE(first, 0);
  EXPECT_EQ(first, second);
}

// -------------------------------------------------------- checkpoint store

TEST(CheckpointDir, RoundTripsNewestGeneration) {
  const std::string path = fresh_dir("dir_roundtrip");
  io::CheckpointDir dir(path);
  EXPECT_EQ(dir.next_generation(), 1u);
  dir.write_part(1, 0, "alpha-0");
  dir.write_part(1, 1, "alpha-1");
  dir.commit_generation(1, 2);
  dir.write_part(2, 0, "beta-0");
  dir.write_part(2, 1, "beta-1");
  dir.commit_generation(2, 2);
  EXPECT_EQ(dir.next_generation(), 3u);

  std::string blob;
  std::uint64_t generation = 0;
  ASSERT_TRUE(dir.load_part(0, blob, generation));
  EXPECT_EQ(blob, "beta-0");
  EXPECT_EQ(generation, 2u);
  ASSERT_TRUE(dir.load_part(1, blob, generation));
  EXPECT_EQ(blob, "beta-1");
  const auto manifest = dir.manifest();
  ASSERT_TRUE(manifest.has_value());
  EXPECT_EQ(manifest->generation, 2u);
  EXPECT_EQ(manifest->num_parts, 2u);
  std::filesystem::remove_all(path);
}

// Torn matrix: truncate the newest part at every interesting boundary —
// mid-header, after the header, mid-body, missing CRC — and flip a body
// byte. Every defect must be skipped (tallied) with fallback to the older
// generation; only when no candidate is left does load_part say so.
TEST(CheckpointDir, TornOrCorruptPartsFallBackAGeneration) {
  // Part frame: magic u64, generation u64, part u64, body_len u64 = 32
  // header bytes, then the body, then crc32 as u64.
  const std::string body = "the-good-generation-two-body";
  const std::vector<std::size_t> cuts = {4, 31, 32, 32 + body.size() / 2,
                                         32 + body.size() + 4};
  for (const std::size_t cut : cuts) {
    SCOPED_TRACE("truncate at byte " + std::to_string(cut));
    const std::string path = fresh_dir("dir_torn");
    io::CheckpointDir dir(path);
    dir.write_part(1, 0, "the-fallback-generation-one-body");
    dir.commit_generation(1, 1);
    dir.write_part(2, 0, body);
    dir.commit_generation(2, 1);

    std::filesystem::resize_file(path + "/g00000002_p000.pssc", cut);
    std::string blob;
    std::uint64_t generation = 0;
    io::CheckpointDirStats stats;
    ASSERT_TRUE(dir.load_part(0, blob, generation, &stats));
    EXPECT_EQ(blob, "the-fallback-generation-one-body");
    EXPECT_EQ(generation, 1u);
    EXPECT_EQ(stats.torn, 1);
    EXPECT_EQ(stats.crc_bad, 0);
    std::filesystem::remove_all(path);
  }

  const std::string path = fresh_dir("dir_crcflip");
  io::CheckpointDir dir(path);
  dir.write_part(1, 0, "the-fallback-generation-one-body");
  dir.write_part(2, 0, body);
  {
    std::fstream f(path + "/g00000002_p000.pssc",
                   std::ios::binary | std::ios::in | std::ios::out);
    f.seekp(32 + 3);
    f.put('\xFF');  // flip a body byte: full-length file, bad checksum
  }
  std::string blob;
  std::uint64_t generation = 0;
  io::CheckpointDirStats stats;
  ASSERT_TRUE(dir.load_part(0, blob, generation, &stats));
  EXPECT_EQ(blob, "the-fallback-generation-one-body");
  EXPECT_EQ(generation, 1u);
  EXPECT_EQ(stats.crc_bad, 1);

  // Tear the fallback too: no valid candidate may be invented.
  std::filesystem::resize_file(path + "/g00000001_p000.pssc", 10);
  EXPECT_FALSE(dir.load_part(0, blob, generation, &stats));
  std::filesystem::remove_all(path);
}

// A length field claiming far more bytes than the file holds (2^36 here)
// must be refused before anything is allocated: the part counts as torn
// and the load falls back to the older generation.
TEST(CheckpointDir, ImplausibleLengthFieldCountsAsTorn) {
  const std::string path = fresh_dir("dir_biglen");
  io::CheckpointDir dir(path);
  dir.write_part(1, 0, "the-fallback-generation-one-body");
  dir.commit_generation(1, 1);
  dir.write_part(2, 0, "the-good-generation-two-body");
  dir.commit_generation(2, 1);
  {
    // The length is the fourth u64 of the part header.
    std::fstream f(path + "/g00000002_p000.pssc",
                   std::ios::binary | std::ios::in | std::ios::out);
    f.seekp(24);
    const std::uint64_t claimed = std::uint64_t(1) << 36;
    for (int b = 0; b < 8; ++b)
      f.put(static_cast<char>((claimed >> (8 * b)) & 0xff));
  }
  std::string blob;
  std::uint64_t generation = 0;
  io::CheckpointDirStats stats;
  ASSERT_TRUE(dir.load_part(0, blob, generation, &stats));
  EXPECT_EQ(blob, "the-fallback-generation-one-body");
  EXPECT_EQ(generation, 1u);
  EXPECT_EQ(stats.torn, 1);
  EXPECT_EQ(stats.crc_bad, 0);
  std::filesystem::remove_all(path);
}

TEST(CheckpointDir, ManifestIsAdvisoryNotACorrectnessDependency) {
  const std::string path = fresh_dir("dir_manifest");
  io::CheckpointDir dir(path);
  dir.write_part(1, 0, "found-by-directory-scan");
  // A crash between part renames and the manifest commit: no manifest at
  // all. Then a torn manifest. Neither may hide the published part.
  EXPECT_FALSE(dir.manifest().has_value());
  dir.commit_generation(1, 1);
  ASSERT_TRUE(dir.manifest().has_value());
  std::filesystem::resize_file(path + "/MANIFEST.pssm", 9);
  EXPECT_FALSE(dir.manifest().has_value());

  std::string blob;
  std::uint64_t generation = 0;
  ASSERT_TRUE(dir.load_part(0, blob, generation));
  EXPECT_EQ(blob, "found-by-directory-scan");
  std::filesystem::remove_all(path);
}

TEST(CheckpointDir, CrashDuringWriteLeavesTornTempThatIsIgnored) {
  FaultScope scope;
  const std::string path = fresh_dir("dir_crash");
  io::CheckpointDir dir(path);
  dir.write_part(1, 0, "previous-good");
  dir.commit_generation(1, 1);

  FaultInjector::instance().arm("ckpt.part.body", 0,
                                FaultInjector::Kind::kCrash);
  EXPECT_THROW(dir.write_part(2, 0, "never-finishes"), InjectedCrash);
  FaultInjector::instance().disarm_all();

  std::string blob;
  std::uint64_t generation = 0;
  io::CheckpointDirStats stats;
  ASSERT_TRUE(dir.load_part(0, blob, generation, &stats));
  EXPECT_EQ(blob, "previous-good");
  EXPECT_EQ(generation, 1u);
  // The torn temp is invisible to readers but reserves its generation, so
  // the next writer can never collide with the leftover.
  EXPECT_GE(dir.next_generation(), 3u);
  std::filesystem::remove_all(path);
}

// ---------------------------------------------------- per-shard checkpoint

TEST(ShardCheckpoint, RestoresShardByShardWithTheStampedMark) {
  const std::vector<ingest::IngestOp> ops = drill_ops(6, 4);
  const stream::EngineOptions options = engine_options(2);
  const std::vector<stream::StreamResult> want =
      run_uninterrupted(options, ops);

  // Feed everything except the closes, cut per-shard images, restore them
  // into a fresh engine shard by shard, then close there.
  std::vector<std::string> blobs(2);
  {
    stream::StreamEngine live(options);
    for (const ingest::IngestOp& op : ops)
      if (op.kind != ingest::OpKind::kClose) apply_op(live, op);
    for (std::size_t shard = 0; shard < 2; ++shard) {
      std::ostringstream blob;
      live.checkpoint_shard(shard, blob, 17);
      blobs[shard] = std::move(blob).str();
    }
    live.finish();
  }

  stream::StreamEngine restored(options);
  for (std::size_t shard = 0; shard < 2; ++shard) {
    std::istringstream in(blobs[shard], std::ios::binary);
    EXPECT_EQ(restored.restore_shard(shard, in), 17u);
  }
  for (const ingest::IngestOp& op : ops)
    if (op.kind == ingest::OpKind::kClose) apply_op(restored, op);
  expect_streams_bitwise_equal(restored.finish(), want);
}

TEST(ShardCheckpoint, RestoreRejectsTheWrongShardIndex) {
  const stream::EngineOptions options = engine_options(2);
  stream::StreamEngine live(options);
  std::ostringstream blob;
  live.checkpoint_shard(0, blob, 1);
  live.finish();

  stream::StreamEngine restored(options);
  std::istringstream in(std::move(blob).str(), std::ios::binary);
  EXPECT_THROW(restored.restore_shard(1, in), std::invalid_argument);
}

// --------------------------------------------- WAL recovery: spill on/off

// A kill between two appends (clean WAL tail) at 60% of the workload, with
// session spill off and on: the recovered engine must finish bitwise
// identical to a twin that never died.
TEST(WalRecovery, BitwiseAcrossTheOptionCube) {
  const std::vector<ingest::IngestOp> ops = drill_ops(4, 8);
  for (const bool spill_on : {false, true}) {
    SCOPED_TRACE("spill=" + std::to_string(spill_on));
    stream::EngineOptions options = engine_options(2);
    const std::string spill_dir = fresh_dir("cube_spill");
    if (spill_on) {
      options.spill.max_resident = 2;
      options.spill.directory = spill_dir;
      options.spill.retry_backoff_us = 0;
    }
    const std::vector<stream::StreamResult> want =
        run_uninterrupted(options, ops);

    const std::string ckpt = fresh_dir("cube_ckpt");
    const ServeArtifacts artifacts =
        serve_with_wal(options, ops, ckpt, 9, ops.size() * 3 / 5);
    ASSERT_TRUE(artifacts.crashed);
    // Spill files are scratch, not durable state (checkpoints carry the
    // spilled sessions' blobs): a failover engine starts a clean spill dir.
    stream::EngineOptions failover = options;
    if (spill_on) failover.spill.directory = fresh_dir("cube_spill2");
    stream::RecoveryReport report;
    const std::vector<stream::StreamResult> got =
        recover_and_resume(failover, ops, artifacts, ckpt, &report);
    EXPECT_FALSE(report.wal_tail_truncated);
    EXPECT_GT(report.generation, 0u);
    EXPECT_GT(report.frames_skipped, 0);  // the checkpoint earned its keep
    EXPECT_EQ(report.arrival_sheds, 0);
    expect_streams_bitwise_equal(got, want);
    std::filesystem::remove_all(ckpt);
    std::filesystem::remove_all(spill_dir);
    if (spill_on) std::filesystem::remove_all(failover.spill.directory);
  }
}

// ------------------------------------------- kill at every fault site

// The tentpole drill: rehearse once to count how often each owner-thread
// fault site fires, then kill the serving loop at chosen hits of EVERY
// site — mid WAL append (torn tail), mid checkpoint body (torn temp),
// before the part rename, before the manifest — and prove recovery plus
// resumed feeding is bitwise identical to the uninterrupted twin.
TEST(WalRecovery, KillAtEveryFaultSiteRecoversBitwise) {
  const std::vector<ingest::IngestOp> ops = drill_ops(5, 6);
  const stream::EngineOptions options = engine_options(2);
  const std::vector<stream::StreamResult> want =
      run_uninterrupted(options, ops);
  constexpr int kEvery = 11;

  FaultScope scope;
  FaultInjector& fi = FaultInjector::instance();

  // Rehearsal: same loop, counting only.
  fi.set_counting(true);
  {
    const std::string ckpt = fresh_dir("kill_rehearsal");
    const ServeArtifacts rehearsal = serve_with_wal(options, ops, ckpt, kEvery);
    ASSERT_FALSE(rehearsal.crashed);
    std::filesystem::remove_all(ckpt);
  }
  const std::vector<std::string> sites = {"wal.append", "ckpt.part.body",
                                          "ckpt.part.rename",
                                          "ckpt.manifest"};
  std::vector<long long> counts;
  for (const std::string& site : sites) {
    counts.push_back(fi.hits(site));
    ASSERT_GT(counts.back(), 0) << site << " never fired in rehearsal";
  }
  fi.set_counting(false);
  fi.reset_counts();

  for (std::size_t s = 0; s < sites.size(); ++s) {
    // First, middle and last hit of each site; every hit for small counts.
    std::vector<long long> hits = {0, 1, counts[s] / 2, counts[s] - 1};
    if (counts[s] <= 6) {
      hits.clear();
      for (long long h = 0; h < counts[s]; ++h) hits.push_back(h);
    }
    long long previous = -1;
    for (const long long hit : hits) {
      if (hit == previous || hit >= counts[s]) continue;
      previous = hit;
      SCOPED_TRACE(sites[s] + " hit " + std::to_string(hit));
      const std::string ckpt = fresh_dir("kill_drill");
      fi.arm(sites[s], hit, FaultInjector::Kind::kCrash);
      const ServeArtifacts artifacts = serve_with_wal(options, ops, ckpt,
                                                      kEvery);
      fi.disarm_all();
      ASSERT_TRUE(artifacts.crashed);

      stream::RecoveryReport report;
      const std::vector<stream::StreamResult> got =
          recover_and_resume(options, ops, artifacts, ckpt, &report);
      if (sites[s] == "wal.append") {
        EXPECT_TRUE(report.wal_tail_truncated);  // killed mid-frame
      }
      expect_streams_bitwise_equal(got, want);
      std::filesystem::remove_all(ckpt);
    }
  }
}

// --------------------------------------------------- quarantined shards

std::vector<StreamId> streams_of_shard(const stream::StreamEngine& engine,
                                       std::size_t shard, int universe) {
  std::vector<StreamId> ids;
  for (int s = 0; s < universe; ++s)
    if (engine.router().shard_of(StreamId(s)) == shard)
      ids.push_back(StreamId(s));
  return ids;
}

TEST(Quarantine, CrashedShardRefusesWhileOthersKeepServing) {
  FaultScope scope;
  const std::vector<ingest::IngestOp> ops = drill_ops(8, 4);
  const stream::EngineOptions options = engine_options(4);

  stream::StreamEngine engine(options);
  const std::size_t victim = 2;
  const std::vector<StreamId> victim_streams =
      streams_of_shard(engine, victim, 8);
  ASSERT_FALSE(victim_streams.empty());

  // A worker-thread crash after a few applied ops: the outer quarantine
  // net must catch it — the process survives, the shard is dead.
  FaultInjector::instance().arm("shard.worker." + std::to_string(victim), 2,
                                FaultInjector::Kind::kCrash);
  std::vector<ingest::IngestOp> healthy_ops;
  for (const ingest::IngestOp& op : ops) {
    if (engine.router().shard_of(StreamId(op.stream)) == victim) {
      if (op.kind == ingest::OpKind::kArrival)
        engine.feed(StreamId(op.stream), op.job);
      else if (op.kind == ingest::OpKind::kOpen)
        engine.open(StreamId(op.stream));
      // Closes to the victim are attempted below, after quarantine.
    } else {
      healthy_ops.push_back(op);
      apply_op(engine, op);
    }
  }
  engine.drain();  // returns even though the victim died mid-queue
  ASSERT_EQ(engine.num_quarantined_shards(), 1u);

  // The dead shard refuses new work immediately (no kBlock wedge)...
  EXPECT_FALSE(engine.feed(victim_streams.front(),
                           ops[std::size_t(8)].job));
  EXPECT_FALSE(engine.close_stream(victim_streams.front()));
  // ...while healthy shards keep accepting.
  stream::EngineSnapshot snap = engine.snapshot();
  EXPECT_EQ(snap.degraded_shards, 1u);
  EXPECT_TRUE(snap.shards[victim].degraded);
  EXPECT_GT(snap.degraded_sessions, 0u);
  EXPECT_GT(snap.quarantined_rejects, 0);

  const std::vector<stream::StreamResult> got = engine.finish();

  // The healthy shards' results are exactly what an engine that never had
  // the victim's traffic would have produced.
  const std::vector<stream::StreamResult> want =
      run_uninterrupted(options, healthy_ops);
  expect_streams_bitwise_equal(got, want);
}

// Failover: the WAL outlives the quarantined shard. Every op was logged
// before it was offered, so recovering into a fresh engine replays the
// dead shard's lost tail — the full serve finishes bitwise identical to a
// run where no worker ever died.
TEST(Quarantine, WalFailoverReplaysTheDeadShardsLostTail) {
  FaultScope scope;
  const std::vector<ingest::IngestOp> ops = drill_ops(6, 5);
  const stream::EngineOptions options = engine_options(3);
  const std::vector<stream::StreamResult> want =
      run_uninterrupted(options, ops);

  const std::string ckpt = fresh_dir("quarantine_failover");
  std::ostringstream wal_os(std::ios::binary);
  ingest::OpLogWriter wal(wal_os);
  io::CheckpointDir dir(ckpt);
  {
    stream::StreamEngine engine(options);
    stream::CheckpointCoordinator coordinator(engine, wal, wal_os, dir);
    FaultInjector::instance().arm("shard.worker.1", 3,
                                  FaultInjector::Kind::kCrash);
    int since = 0;
    bool cadence = true;
    long long refused = 0;
    for (const ingest::IngestOp& op : ops) {
      wal.append(op);  // logged even when the offer below is refused
      const StreamId id(op.stream);
      switch (op.kind) {
        case ingest::OpKind::kArrival:
          if (!engine.feed(id, op.job)) ++refused;
          break;
        case ingest::OpKind::kOpen:
          if (!engine.open(id)) ++refused;
          break;
        case ingest::OpKind::kAdvance:
          if (!engine.advance(id, op.time)) ++refused;
          break;
        case ingest::OpKind::kClose:
          if (!engine.close_stream(id)) ++refused;
          break;
        case ingest::OpKind::kCheckpointMark:
          break;
      }
      if (cadence && ++since >= 8) {
        since = 0;
        try {
          coordinator.checkpoint();
        } catch (const std::invalid_argument&) {
          cadence = false;  // quarantined shard: stop cutting checkpoints
        }
      }
    }
    engine.drain();
    EXPECT_EQ(engine.num_quarantined_shards(), 1u);
    EXPECT_GT(refused, 0);
    // Abandon the degraded engine; its disk artifacts are the handoff.
  }

  stream::StreamEngine engine(options);
  std::istringstream wal_is(wal_os.str(), std::ios::binary);
  const stream::RecoveryReport report =
      stream::recover_engine(engine, dir, wal_is);
  EXPECT_EQ(report.arrival_sheds, 0);
  expect_streams_bitwise_equal(engine.finish(), want);
  std::filesystem::remove_all(ckpt);
}

// ------------------------------------------- restore under live ingest

TEST(WalRecovery, RecoveredEngineAcceptsLiveProducerTraffic) {
  const std::vector<ingest::IngestOp> ops = drill_ops(4, 6);
  stream::EngineOptions options = engine_options(2);
  options.max_producers = 2;
  const std::vector<stream::StreamResult> want =
      run_uninterrupted(options, ops);

  const std::string ckpt = fresh_dir("live_ingest");
  const ServeArtifacts artifacts =
      serve_with_wal(options, ops, ckpt, 7, ops.size() / 2);
  ASSERT_TRUE(artifacts.crashed);

  stream::StreamEngine engine(options);
  io::CheckpointDir dir(ckpt);
  std::istringstream wal_is(artifacts.wal_bytes, std::ios::binary);
  stream::recover_engine(engine, dir, wal_is);

  // The remainder of the workload arrives through a claimed producer slot
  // on another thread — recovery hands back a fully serving engine, not a
  // read-only replica.
  {
    stream::StreamEngine::Producer producer = engine.producer();
    std::thread feeder([&producer, &ops, &artifacts] {
      for (std::size_t i = artifacts.ops_fed; i < ops.size(); ++i)
        apply_op(producer, ops[i]);
      producer.release();
    });
    feeder.join();
  }
  expect_streams_bitwise_equal(engine.finish(), want);
  std::filesystem::remove_all(ckpt);
}

// -------------------------------------------------- spill IO degradation

TEST(SpillRetry, TransientPutErrorsAreRetriedWithBackoff) {
  FaultScope scope;
  const std::string dir = fresh_dir("spill_retry");
  ingest::FileSpillStore store(dir, 3, 0);
  FaultInjector::instance().arm("spill.put", 0, FaultInjector::Kind::kError,
                                2);
  EXPECT_NO_THROW(store.put(5, "survives-two-transient-errors"));
  EXPECT_EQ(store.io_retries(), 2);
  std::string blob;
  ASSERT_TRUE(store.peek(5, blob));
  EXPECT_EQ(blob, "survives-two-transient-errors");
  std::filesystem::remove_all(dir);
}

TEST(SpillRetry, ExhaustedRetriesPropagateTheError) {
  FaultScope scope;
  const std::string dir = fresh_dir("spill_exhaust");
  ingest::FileSpillStore store(dir, 1, 0);
  FaultInjector::instance().arm("spill.put", 0, FaultInjector::Kind::kError,
                                100);
  EXPECT_THROW(store.put(5, "never-lands"), InjectedError);
  EXPECT_FALSE(store.contains(5));
  std::filesystem::remove_all(dir);
}

TEST(SpillRetry, FailedRestoreIsCountedAndRetriableNotFatal) {
  FaultScope scope;
  const std::string dir = fresh_dir("spill_restore_fail");
  ingest::SpillOptions spill;
  spill.max_resident = 1;
  spill.directory = dir;
  spill.max_retries = 1;
  spill.retry_backoff_us = 0;
  stream::SessionTable table(kMachine, core::PdOptions{}, false, spill);

  model::Job job;
  job.id = 0;
  job.release = 0.0;
  job.deadline = 4.0;
  job.work = 1.0;
  job.value = 50.0;
  table.feed(StreamId(1), job);
  job.id = 1;
  table.feed(StreamId(2), job);  // evicts stream 1 to the file store

  // A restore that fails past its retries must surface (feeding a fresh
  // scheduler would silently fork the stream's history)...
  FaultInjector::instance().arm("spill.take", 0, FaultInjector::Kind::kError,
                                100);
  job.id = 2;
  EXPECT_THROW(table.feed(StreamId(1), job), InjectedError);
  EXPECT_EQ(table.num_spill_errors(), 1);
  FaultInjector::instance().disarm_all();

  // ...but the session is still on disk: the next touch restores it.
  EXPECT_NO_THROW(table.feed(StreamId(1), job));
  EXPECT_EQ(table.num_spill_errors(), 1);
  std::filesystem::remove_all(dir);
}

TEST(SpillRetry, EngineServesThroughSpillFailures) {
  FaultScope scope;
  const std::vector<ingest::IngestOp> ops = drill_ops(6, 4);

  // Twin without spill: the reference decisions.
  const std::vector<stream::StreamResult> want =
      run_uninterrupted(engine_options(1), ops);

  const std::string dir = fresh_dir("spill_degraded");
  stream::EngineOptions options = engine_options(1);
  options.spill.max_resident = 2;
  options.spill.directory = dir;
  options.spill.max_retries = 1;
  options.spill.retry_backoff_us = 0;
  FaultInjector::instance().arm("spill.put", 0, FaultInjector::Kind::kError,
                                1000000);
  stream::StreamEngine engine(options);
  for (const ingest::IngestOp& op : ops) apply_op(engine, op);
  engine.drain();
  const stream::EngineSnapshot snap = engine.snapshot();
  EXPECT_GT(snap.spill_errors, 0);
  EXPECT_EQ(snap.degraded_shards, 0u);  // degraded IO, not a dead shard

  // Every eviction failed, so every session stayed resident — and served:
  // the decisions are exactly the no-spill twin's.
  expect_streams_bitwise_equal(engine.finish(), want);
  std::filesystem::remove_all(dir);
}

TEST(SpillRetry, EngineCountsRetriesInSnapshots) {
  FaultScope scope;
  const std::vector<ingest::IngestOp> ops = drill_ops(6, 4);
  const std::string dir = fresh_dir("spill_transient");
  stream::EngineOptions options = engine_options(1);
  options.spill.max_resident = 2;
  options.spill.directory = dir;
  options.spill.max_retries = 3;
  options.spill.retry_backoff_us = 0;
  FaultInjector::instance().arm("spill.put", 0, FaultInjector::Kind::kError,
                                2);
  stream::StreamEngine engine(options);
  for (const ingest::IngestOp& op : ops) apply_op(engine, op);
  engine.drain();
  const stream::EngineSnapshot snap = engine.snapshot();
  EXPECT_GE(snap.spill_retries, 2);
  EXPECT_EQ(snap.spill_errors, 0);
  EXPECT_GT(snap.session_spills, 0);
  engine.finish();
  std::filesystem::remove_all(dir);
}

}  // namespace
