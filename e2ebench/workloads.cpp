#include "workloads.hpp"

#include <algorithm>
#include <cmath>
#include <numeric>
#include <stdexcept>
#include <unordered_map>

#include "stream/router.hpp"
#include "util/random.hpp"
#include "workload/generators.hpp"

namespace e2e {

namespace {

using pss::model::Job;
using pss::util::Rng;

// Stream ids: the seed in the high half keeps two seeds' ids apart; the
// router mixes them, so sequential low halves still spread over shards.
StreamId stream_id(std::uint64_t seed, std::uint64_t k) {
  return (seed << 32) | (k & 0xFFFFFFFFull);
}

pss::stream::EngineOptions default_engine() {
  pss::stream::EngineOptions options;  // EngineOptions{} / PdOptions{} ...
  options.num_shards = kShards;        // ... except the shard count
  options.max_producers = kProducers;
  return options;
}

Job make_job(Rng& rng, int id, double release, double deadline, double work,
             double alpha) {
  Job job;
  job.id = id;
  job.release = release;
  job.deadline = deadline;
  job.work = work;
  job.value = pss::workload::energy_fair_value(job, alpha) *
              rng.uniform(0.5, 4.0);
  return job;
}

class Builder {
 public:
  explicit Builder(Workload& w) : w_(w) {}
  void open(StreamId id) { push({OpKind::kOpen, id, 0.0, {}}); }
  void advance(StreamId id, double t) {
    push({OpKind::kAdvance, id, t, {}});
  }
  void close(StreamId id) { push({OpKind::kClose, id, 0.0, {}}); }
  void arrival(StreamId id, const Job& job) {
    push({OpKind::kArrival, id, 0.0, job});
    ++w_.arrivals;
  }
  void end_tick() { w_.tick_end.push_back(w_.ops.size()); }

 private:
  void push(Op op) { w_.ops.push_back(op); }
  Workload& w_;
};

// Hyperexponential (H2) distribution fitted from mean and SCV >= 1 with
// balanced means — the `phase_parameters` fit of SNIPPETS.md
// (Adaptive-Schedule). quantile(u) inverts its CDF by bisection.
struct Hyperexponential {
  double p, mu1, mu2;
  Hyperexponential(double mean, double scv)
      : p((1.0 + std::sqrt((scv - 1.0) / (scv + 1.0))) / 2.0),
        mu1(2.0 * p / mean),
        mu2(2.0 * (1.0 - p) / mean) {}
  [[nodiscard]] double cdf(double x) const {
    return 1.0 - p * std::exp(-mu1 * x) - (1.0 - p) * std::exp(-mu2 * x);
  }
  [[nodiscard]] double quantile(double u) const {
    double lo = 0.0, hi = -std::log1p(-u) / std::min(mu1, mu2);
    for (int i = 0; i < 60; ++i) {
      const double mid = 0.5 * (lo + hi);
      (cdf(mid) < u ? lo : hi) = mid;
    }
    return 0.5 * (lo + hi);
  }
};

// ---------------------------------------------------------------- fanout
// A rolling population of short streams: each opens, takes ~2 arrivals per
// tick for 3..8 ticks (integer windows of 8..24 ticks), advances, and
// closes. Stream starts per tick are H2(mean, SCV) counts, pinned to a
// total of mean * ticks, so two seeds differ in burst placement, not in
// offered volume. The warm-up ticks before tick 0, whose live streams form
// the pre-opened population, each start exactly the mean: with H2 draws
// there, the population ranged 73-816 streams over seeds, and set-up time
// with it.
constexpr int kFanTicks = 600;
constexpr double kFanStartsMean = 40.0;
constexpr double kFanStartsScv = 4.0;
constexpr int kFanMinLife = 3, kFanMaxLife = 8;
constexpr int kFanMinSpan = 8, kFanMaxSpan = 24;
constexpr std::size_t kFanSpreadBursts = 8;  // placed apart, see below

struct FanStream {
  StreamId id;
  int start;  // first arrival tick (negative: alive before tick 0)
  int life;   // arrival ticks; closes at start + life
  int next_job = 0;
};

Workload fanout_short(std::uint64_t seed) {
  Workload w;
  w.name = "fanout_short";
  w.options = default_engine();
  Rng rng(seed);
  const double alpha = w.options.machine.alpha;

  // Burst sizes are stratified: the midpoint of each of kFanTicks quantile
  // bands, randomly rounded, so every seed has the same sizes; placement is
  // seeded. The peak of live sessions, and with it peak RSS, follows the
  // largest bursts and what lies beside them: with a random point in each
  // band and a plain shuffle, the peak live count ranged 1049-1873 over ten
  // seeds (peak RSS 11.1-15.0 MB). So the kFanSpreadBursts largest bursts
  // go to ticks more than two stream lives apart, the ticks within one
  // stream life of them take the smallest bursts, and the rest are
  // shuffled over the remaining ticks.
  const Hyperexponential h2(kFanStartsMean, kFanStartsScv);
  const std::size_t n = kFanTicks, life = kFanMaxLife;
  std::vector<long long> sizes(n);  // ascending
  long long total = 0;
  for (std::size_t i = 0; i < n; ++i) {
    const double u = (double(i) + 0.5) / double(n);
    sizes[i] = static_cast<long long>(
        std::floor(h2.quantile(u) + rng.uniform(0.0, 1.0)));
    total += sizes[i];
  }
  std::vector<std::size_t> peaks(n);
  std::iota(peaks.begin(), peaks.end(), std::size_t{0});
  const auto peaks_end = peaks.begin() + kFanSpreadBursts;
  auto too_close = [life](std::size_t a, std::size_t b) {
    return b - a <= 2 * life;
  };
  do {
    std::shuffle(peaks.begin(), peaks.end(), rng.engine());
    std::sort(peaks.begin(), peaks_end);
  } while (std::adjacent_find(peaks.begin(), peaks_end, too_close) !=
           peaks_end);
  peaks.resize(kFanSpreadBursts);
  std::shuffle(peaks.begin(), peaks.end(), rng.engine());

  constexpr long long kUnset = -1;
  std::vector<long long> starts(n, kUnset);
  for (std::size_t k = 0; k < peaks.size(); ++k)
    starts[peaks[k]] = sizes[n - 1 - k];
  std::vector<std::size_t> quiet, rest;
  for (std::size_t t = 0; t < n; ++t) {
    if (starts[t] != kUnset) continue;
    const bool near_peak =
        std::any_of(peaks.begin(), peaks.end(), [t, life](std::size_t p) {
          return (t > p ? t - p : p - t) <= life;
        });
    (near_peak ? quiet : rest).push_back(t);
  }
  std::shuffle(quiet.begin(), quiet.end(), rng.engine());
  std::shuffle(rest.begin(), rest.end(), rng.engine());
  std::size_t next = 0;
  for (std::size_t t : quiet) starts[t] = sizes[next++];
  for (std::size_t t : rest) starts[t] = sizes[next++];
  const auto target =
      static_cast<long long>(kFanStartsMean * double(starts.size()));
  while (total != target) {
    auto& k = starts[std::size_t(rng.uniform_int(0, std::int64_t(starts.size()) - 1))];
    if (total < target) {
      ++k, ++total;
    } else if (k > 0) {
      --k, --total;
    }
  }
  starts.insert(starts.begin(), kFanMaxLife,
                static_cast<long long>(kFanStartsMean));

  // starts[0 .. kFanMaxLife) are the warm-up ticks -kFanMaxLife .. -1:
  // streams still alive at tick 0 form the pre-opened population.
  std::vector<FanStream> streams;
  std::uint64_t next_id = 0;
  for (std::size_t i = 0; i < starts.size(); ++i)
    for (long long k = 0; k < starts[i]; ++k)
      streams.push_back({stream_id(seed, next_id++),
                         int(i) - kFanMaxLife,
                         int(rng.uniform_int(kFanMinLife, kFanMaxLife))});
  std::vector<FanStream> live;
  std::size_t next_start = 0;
  while (next_start < streams.size() && streams[next_start].start < 0) {
    if (streams[next_start].start + streams[next_start].life >= 0) {
      w.population.push_back(streams[next_start].id);
      live.push_back(streams[next_start]);
    }
    ++next_start;
  }
  w.streams = static_cast<long long>(live.size() + streams.size() - next_start);

  Builder b(w);
  for (int t = 0; !live.empty() || next_start < streams.size(); ++t) {
    while (next_start < streams.size() && streams[next_start].start == t)
      live.push_back(streams[next_start++]);
    std::vector<FanStream> still;
    still.reserve(live.size());
    for (FanStream& s : live) {
      if (t == s.start)
        b.open(s.id);
      else
        b.advance(s.id, t);
      if (t == s.start + s.life) {
        b.close(s.id);
        continue;
      }
      const auto n = rng.uniform_int(1, 3);
      for (std::int64_t j = 0; j < n; ++j) {
        const double span = double(rng.uniform_int(kFanMinSpan, kFanMaxSpan));
        b.arrival(s.id, make_job(rng, s.next_job++, t, t + span,
                                 rng.uniform(0.5, 5.0), alpha));
      }
      still.push_back(s);
    }
    live.swap(still);
    b.end_tick();
  }
  return w;
}

// ---------------------------------------------------------- deep horizon
// A handful of long-lived streams (four per shard, so every shard carries
// the same load) with a compaction heartbeat every tick. One arrival in
// four is an anchor with a deadline 50..2000 ticks ahead; the rest have
// short real-valued windows. Partitions grow into the thousands of live
// intervals, so the core does nearly all the work. With two streams per
// shard, peak RSS differed by up to 35% between seeds (8.4-11.8 MB; each
// seed repeats its own figure); four per shard average that out.
constexpr int kDeepStreamsPerShard = 4;
constexpr int kDeepTicks = 1000;
constexpr int kDeepMinArrivals = 4, kDeepMaxArrivals = 12;  // per stream/tick

Workload deep_horizon(std::uint64_t seed) {
  Workload w;
  w.name = "deep_horizon";
  w.options = default_engine();
  Rng rng(seed);
  const double alpha = w.options.machine.alpha;
  const pss::stream::StreamRouter router(kShards);

  std::vector<int> per_shard(kShards, 0);
  for (std::uint64_t k = 0;
       w.population.size() < kShards * kDeepStreamsPerShard; ++k) {
    const StreamId id = stream_id(seed, k);
    if (per_shard[router.shard_of(id)]++ < kDeepStreamsPerShard)
      w.population.push_back(id);
  }
  w.streams = static_cast<long long>(w.population.size());
  std::vector<int> next_job(w.population.size(), 0);

  Builder b(w);
  for (int t = 0; t <= kDeepTicks; ++t) {
    for (std::size_t s = 0; s < w.population.size(); ++s) {
      const StreamId id = w.population[s];
      b.advance(id, t);
      if (t == kDeepTicks) {
        b.close(id);
        continue;
      }
      const auto n = rng.uniform_int(kDeepMinArrivals, kDeepMaxArrivals);
      for (std::int64_t j = 0; j < n; ++j) {
        const bool anchor = rng.uniform(0.0, 1.0) < 0.25;
        const double ahead =
            anchor ? rng.uniform(50.0, 2000.0) : rng.uniform(1.0, 8.0);
        b.arrival(id, make_job(rng, next_job[s]++, t, t + ahead,
                               rng.uniform(0.3, 2.0), alpha));
      }
    }
    b.end_tick();
  }
  return w;
}

// ---------------------------------------------------------- skewed spill
// A large long-lived population with Zipf(1) popularity under a per-shard
// residency budget far below it (memory spill store). Only streams touched
// in a tick advance. Popularity ranks are dealt round-robin over shards so
// every seed puts the same popularity mass on each shard.
constexpr int kSkewStreams = 30000;
constexpr std::size_t kSkewResidentPerShard = 256;
constexpr int kSkewTicks = 800;
constexpr int kSkewArrivalsPerTick = 256;
constexpr int kSkewMinSpan = 8, kSkewMaxSpan = 24;

Workload skewed_spill(std::uint64_t seed) {
  Workload w;
  w.name = "skewed_spill";
  w.options = default_engine();
  w.options.spill.max_resident = kSkewResidentPerShard;
  Rng rng(seed);
  const double alpha = w.options.machine.alpha;
  const pss::stream::StreamRouter router(kShards);

  const std::size_t per_shard = kSkewStreams / kShards;
  std::vector<std::vector<StreamId>> by_shard(kShards);
  for (std::uint64_t k = 0; w.population.size() < per_shard * kShards; ++k) {
    const StreamId id = stream_id(seed, k);
    auto& bucket = by_shard[router.shard_of(id)];
    if (bucket.size() < per_shard) {
      bucket.push_back(id);
      w.population.push_back(id);
    }
  }
  for (auto& bucket : by_shard) std::shuffle(bucket.begin(), bucket.end(), rng.engine());
  w.streams = static_cast<long long>(w.population.size());
  std::vector<StreamId> by_rank(w.population.size());
  for (std::size_t r = 0; r < by_rank.size(); ++r)
    by_rank[r] = by_shard[r % kShards][r / kShards];

  std::vector<double> cdf(by_rank.size());
  double acc = 0.0;
  for (std::size_t r = 0; r < cdf.size(); ++r) cdf[r] = acc += 1.0 / double(r + 1);
  std::unordered_map<StreamId, int> next_job;

  Builder b(w);
  std::vector<std::size_t> ranks(kSkewArrivalsPerTick);
  std::vector<std::size_t> order;
  std::unordered_map<std::size_t, int> count;
  for (int t = 0; t < kSkewTicks; ++t) {
    count.clear();
    order.clear();
    for (auto& r : ranks) {
      r = std::size_t(std::lower_bound(cdf.begin(), cdf.end(),
                                       rng.uniform(0.0, acc)) -
                      cdf.begin());
      r = std::min(r, cdf.size() - 1);
      if (count[r]++ == 0) order.push_back(r);
    }
    for (std::size_t r : order) {
      const StreamId id = by_rank[r];
      b.advance(id, t);
      for (int j = 0; j < count[r]; ++j) {
        const double span = double(rng.uniform_int(kSkewMinSpan, kSkewMaxSpan));
        b.arrival(id, make_job(rng, next_job[id]++, t, t + span,
                               rng.uniform(0.5, 5.0), alpha));
      }
    }
    b.end_tick();
  }
  for (StreamId id : w.population) b.close(id);
  b.end_tick();
  return w;
}

}  // namespace

Workload make_workload(const std::string& name, std::uint64_t seed) {
  if (name == "fanout_short") return fanout_short(seed);
  if (name == "deep_horizon") return deep_horizon(seed);
  if (name == "skewed_spill") return skewed_spill(seed);
  throw std::invalid_argument("unknown workload: " + name);
}

}  // namespace e2e
