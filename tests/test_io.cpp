// Tests for src/io: instance round-trips, parse-error reporting, schedule
// CSV export, the ASCII Gantt renderer, and scheduler-restore validation
// (hostile field values, corrupt counts, foreign format tags).
#include <gtest/gtest.h>

#include <bit>
#include <cstdint>
#include <cstring>
#include <iterator>
#include <limits>
#include <sstream>
#include <string>

#include "core/pd_scheduler.hpp"
#include "io/instance_io.hpp"
#include "io/schedule_io.hpp"
#include "io/state_io.hpp"
#include "util/math.hpp"
#include "workload/generators.hpp"

namespace pss {
namespace {

using model::Machine;

TEST(InstanceIo, RoundTripsExactly) {
  workload::PoissonConfig config;
  config.num_jobs = 40;
  const auto original =
      workload::poisson_heavy_tail(config, Machine{3, 2.75}, 9);
  std::stringstream buffer;
  io::write_instance(buffer, original);
  const auto restored = io::read_instance(buffer);

  EXPECT_EQ(restored.machine().num_processors, 3);
  EXPECT_DOUBLE_EQ(restored.machine().alpha, 2.75);
  ASSERT_EQ(restored.num_jobs(), original.num_jobs());
  for (std::size_t i = 0; i < original.num_jobs(); ++i) {
    EXPECT_DOUBLE_EQ(restored.jobs()[i].release, original.jobs()[i].release);
    EXPECT_DOUBLE_EQ(restored.jobs()[i].deadline,
                     original.jobs()[i].deadline);
    EXPECT_DOUBLE_EQ(restored.jobs()[i].work, original.jobs()[i].work);
    EXPECT_DOUBLE_EQ(restored.jobs()[i].value, original.jobs()[i].value);
  }
}

TEST(InstanceIo, InfiniteValuesSurvive) {
  auto inst = model::make_instance(
      Machine{1, 3.0},
      {model::Job{-1, 0, 1, 1, util::kInf}, model::Job{-1, 0, 2, 1, 5.0}});
  std::stringstream buffer;
  io::write_instance(buffer, inst);
  const auto restored = io::read_instance(buffer);
  EXPECT_FALSE(restored.jobs()[0].rejectable());
  EXPECT_TRUE(restored.jobs()[1].rejectable());
}

TEST(InstanceIo, CommentsAndBlankLinesIgnored) {
  std::stringstream buffer(
      "# header comment\n\nmachine 2 3\n# job comment\njob 0 1 1 5\n");
  const auto inst = io::read_instance(buffer);
  EXPECT_EQ(inst.num_jobs(), 1u);
  EXPECT_EQ(inst.machine().num_processors, 2);
}

TEST(InstanceIo, ReportsLineNumbersOnErrors) {
  std::stringstream missing_field("machine 1 3\njob 0 1 1\n");
  try {
    (void)io::read_instance(missing_field);
    FAIL() << "expected parse error";
  } catch (const std::invalid_argument& e) {
    EXPECT_NE(std::string(e.what()).find("line 2"), std::string::npos);
  }
}

TEST(InstanceIo, RejectsUnknownKeyword) {
  std::stringstream buffer("machine 1 3\ntask 0 1 1 1\n");
  EXPECT_THROW(io::read_instance(buffer), std::invalid_argument);
}

TEST(InstanceIo, RejectsBadNumbers) {
  std::stringstream buffer("machine 1 3\njob 0 1 abc 1\n");
  EXPECT_THROW(io::read_instance(buffer), std::invalid_argument);
}

TEST(InstanceIo, RejectsMissingMachine) {
  std::stringstream buffer("job 0 1 1 1\n");
  EXPECT_THROW(io::read_instance(buffer), std::invalid_argument);
}

TEST(InstanceIo, FileSaveLoad) {
  workload::UniformConfig config;
  config.num_jobs = 10;
  const auto inst = workload::uniform_random(config, Machine{2, 3.0}, 4);
  const std::string path = testing::TempDir() + "/pss_io_test.pssi";
  io::save_instance(path, inst);
  const auto restored = io::load_instance(path);
  EXPECT_EQ(restored.num_jobs(), 10u);
  EXPECT_THROW(io::load_instance("/nonexistent/nope.pssi"),
               std::invalid_argument);
}

TEST(ScheduleIo, CsvListsSegmentsAndRejections) {
  model::Schedule s(2);
  s.add_segment(0, {0.0, 1.0, 2.0, 7});
  s.add_segment(1, {0.5, 1.5, 1.0, 8});
  s.mark_rejected(9);
  std::stringstream buffer;
  io::write_schedule_csv(buffer, s);
  const std::string out = buffer.str();
  EXPECT_NE(out.find("processor,start,end,speed,job"), std::string::npos);
  EXPECT_NE(out.find("0,0,1,2,7"), std::string::npos);
  EXPECT_NE(out.find("1,0.5,1.5,1,8"), std::string::npos);
  EXPECT_NE(out.find("-1,,,,9"), std::string::npos);
}

TEST(Gantt, RendersLanesAndRejections) {
  model::Schedule s(2);
  s.add_segment(0, {0.0, 5.0, 1.0, 0});
  s.add_segment(1, {5.0, 10.0, 2.0, 11});  // glyph 'b'
  s.mark_rejected(3);
  std::stringstream buffer;
  io::render_gantt(buffer, s, 0.0, 10.0, {.width = 20, .show_speeds = true});
  const std::string out = buffer.str();
  EXPECT_NE(out.find("CPU0"), std::string::npos);
  EXPECT_NE(out.find("CPU1"), std::string::npos);
  EXPECT_NE(out.find("0000000000.........."), std::string::npos);
  EXPECT_NE(out.find("..........bbbbbbbbbb"), std::string::npos);
  EXPECT_NE(out.find("rejected: 3"), std::string::npos);
  EXPECT_NE(out.find("mean speed"), std::string::npos);
}

TEST(Gantt, DominantJobWinsSharedCell) {
  model::Schedule s(1);
  s.add_segment(0, {0.0, 0.9, 1.0, 5});
  s.add_segment(0, {0.9, 1.0, 1.0, 6});
  std::stringstream buffer;
  io::render_gantt(buffer, s, 0.0, 1.0, {.width = 10, .show_speeds = false});
  // Cell 9 covers [0.9, 1.0): job 6 dominates there; earlier cells job 5.
  EXPECT_NE(buffer.str().find("5555555556"), std::string::npos);
}

TEST(Gantt, RejectsDegenerateArguments) {
  model::Schedule s(1);
  std::stringstream buffer;
  EXPECT_THROW(io::render_gantt(buffer, s, 1.0, 1.0), std::invalid_argument);
  EXPECT_THROW(io::render_gantt(buffer, s, 0.0, 1.0, {.width = 2}),
               std::invalid_argument);
}

// ------------------------------------------------- scheduler restore audit

// Byte offset of the single f64 field holding `v` in a scheduler blob.
// Locating fields by value keeps the patching independent of the layout.
std::size_t unique_f64_offset(const std::string& blob, double v) {
  const std::uint64_t bits = std::bit_cast<std::uint64_t>(v);
  std::size_t found = std::string::npos;
  for (std::size_t i = 0; i + 8 <= blob.size(); ++i) {
    std::uint64_t word = 0;
    for (int b = 0; b < 8; ++b)
      word |= std::uint64_t(static_cast<unsigned char>(blob[i + b])) << (8 * b);
    if (word != bits) continue;
    EXPECT_EQ(found, std::string::npos) << "value " << v << " is not unique";
    found = i;
  }
  EXPECT_NE(found, std::string::npos) << "value " << v << " not in blob";
  return found;
}

// A valid blob patched in one field at a time must be refused, not
// restored into a session that later throws on every arrival (NaN clock)
// or reports a non-finite or negative planned energy.
TEST(SchedulerRestore, RejectsPatchedFieldsNoLiveSessionCanHold) {
  const Machine machine{2, 2.0};
  const core::PdOptions options;
  core::PdScheduler source(machine, options);
  (void)source.on_arrival({0, 0.0, 4.0, 1.0, util::kInf});
  (void)source.on_arrival({1, 1.0, 9.0, 3.0, util::kInf});
  source.advance_to(4.5, /*compact=*/true);  // retires [0, 1) and [1, 4)
  ASSERT_GT(source.retired_energy(), 0.0);
  ASSERT_EQ(source.live_intervals(), 1u);
  const double load = source.assignment().loads(0).at(0).amount;

  std::ostringstream os(std::ios::binary);
  io::save_scheduler(os, source);
  const std::string blob = os.str();
  {
    core::PdScheduler intact(machine, options);
    std::istringstream is(blob, std::ios::binary);
    io::load_scheduler(is, intact);
    EXPECT_EQ(intact.planned_energy(), source.planned_energy());
  }

  const double nan = std::numeric_limits<double>::quiet_NaN();
  const struct {
    const char* field;
    double valid;
    double patched;
  } cases[] = {
      {"last_release NaN", 4.5, nan},
      {"retired_energy +Inf", source.retired_energy(), util::kInf},
      {"retired_energy -5", source.retired_energy(), -5.0},
      {"load amount +Inf", load, util::kInf},
      {"load amount NaN", load, nan},
      {"load amount negative", load, -load},
  };
  for (const auto& c : cases) {
    SCOPED_TRACE(c.field);
    const std::size_t at = unique_f64_offset(blob, c.valid);
    ASSERT_NE(at, std::string::npos);
    std::string patched = blob;
    const std::uint64_t bits = std::bit_cast<std::uint64_t>(c.patched);
    for (int b = 0; b < 8; ++b)
      patched[at + b] = static_cast<char>((bits >> (8 * b)) & 0xff);
    core::PdScheduler target(machine, options);
    std::istringstream is(patched, std::ios::binary);
    EXPECT_THROW(io::load_scheduler(is, target), std::invalid_argument);
  }
}

std::string save_blob(const core::PdScheduler& s) {
  std::ostringstream os(std::ios::binary);
  io::save_scheduler(os, s);
  return os.str();
}

void patch_u64(std::string& blob, std::size_t at, std::uint64_t v) {
  ASSERT_LE(at + 8, blob.size());
  for (int b = 0; b < 8; ++b)
    blob[at + std::size_t(b)] = static_cast<char>((v >> (8 * b)) & 0xff);
}

// A corrupt decision count must be refused as a truncated blob, not
// turned into an allocation sized by the wire (2^39 records would be
// terabytes): restore appends records as it reads them.
TEST(SchedulerRestore, CorruptDecisionCountIsRefusedNotAllocated) {
  const Machine machine{2, 2.0};
  core::PdScheduler source(machine);
  (void)source.on_arrival({0, 0.0, 4.0, 1.0, util::kInf});
  (void)source.on_arrival({1, 1.0, 9.0, 3.0, 0.01});
  ASSERT_EQ(source.decisions().size(), 2u);
  const std::string blob = save_blob(source);
  // Layout tail: decision count, 33 bytes per decision (i64 id, bool,
  // three f64), then the fixed-size counter block.
  const std::size_t counters = std::size(core::kPdCounterFields) * 8;
  const std::size_t count_at = blob.size() - counters - 2 * 33 - 8;
  {
    std::string intact = blob;
    patch_u64(intact, count_at, 2);
    ASSERT_EQ(intact, blob);  // the offset really is the decision count
  }
  for (const std::uint64_t count :
       {std::uint64_t(3), std::uint64_t(1) << 20, std::uint64_t(1) << 30,
        std::uint64_t(1) << 39}) {
    SCOPED_TRACE("decision count " + std::to_string(count));
    std::string patched = blob;
    patch_u64(patched, count_at, count);
    core::PdScheduler target(machine);
    std::istringstream is(patched, std::ios::binary);
    EXPECT_THROW(io::load_scheduler(is, target), std::invalid_argument);
  }
}

// Every scheduler blob leads with a format tag. A blob of another layout —
// a spill file left by an older build, say — is refused outright instead
// of being misread at a shifted offset.
TEST(SchedulerRestore, RefusesForeignFormatTag) {
  const Machine machine{2, 2.0};
  core::PdScheduler source(machine);
  (void)source.on_arrival({0, 0.0, 4.0, 1.0, util::kInf});
  const std::string blob = save_blob(source);
  ASSERT_EQ(blob.substr(0, 8), "PSSSCHD1");
  for (const char* tag :
       {"PSSSCHD0", "PSSSCHD2", "PSSCKPT7", "\0\0\0\0\0\0\0\0"}) {
    std::string patched = blob;
    std::memcpy(patched.data(), tag, 8);
    core::PdScheduler target(machine);
    std::istringstream is(patched, std::ios::binary);
    EXPECT_THROW(io::load_scheduler(is, target), std::invalid_argument)
        << "tag " << std::string(tag, 8);
  }
  // The untagged layout (configuration first) is refused as well.
  core::PdScheduler target(machine);
  std::istringstream untagged(blob.substr(8), std::ios::binary);
  EXPECT_THROW(io::load_scheduler(untagged, target), std::invalid_argument);
}

}  // namespace
}  // namespace pss
