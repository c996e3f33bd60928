// Seeded op streams for the serving benchmark.
//
// Every workload is built in full before any timing starts: the engine and
// the layer replays receive only these generated ops, in this order. The
// same (name, seed) always yields the same ops.
//
// Ops are grouped into ticks. The benchmark feeds every op of tick t, calls
// StreamEngine::drain(), and only then starts tick t + 1 (a tick-synchronous
// closed loop with one producer). Every stream is closed by the last tick,
// because the engine aggregates PD counters only over closed sessions.
#pragma once

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "ingest/op_log.hpp"
#include "stream/engine.hpp"

namespace e2e {

using pss::stream::StreamId;

/// The repository's ingestion op (what an op log records); the generator
/// emits no kCheckpointMark.
using Op = pss::ingest::IngestOp;
using OpKind = pss::ingest::OpKind;

struct Workload {
  std::string name;
  pss::stream::EngineOptions options;
  /// Streams opened during set-up, before the first fed tick.
  std::vector<StreamId> population;
  /// Every op of the run, tick after tick.
  std::vector<Op> ops;
  /// ops[tick_end[t - 1], tick_end[t]) is tick t (tick_end[-1] == 0).
  std::vector<std::size_t> tick_end;
  long long arrivals = 0;
  long long streams = 0;  // distinct streams, all closed by the last tick
};

/// Shards and producers every workload uses (the thread budget).
inline constexpr std::size_t kShards = 3;
inline constexpr std::size_t kProducers = 1;

/// Builds the named workload from `seed`; throws std::invalid_argument on an
/// unknown name.
[[nodiscard]] Workload make_workload(const std::string& name,
                                     std::uint64_t seed);

}  // namespace e2e
