#include "io/checkpoint_dir.hpp"

#include <fcntl.h>
#include <unistd.h>

#include <algorithm>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <vector>

#include "io/state_io.hpp"
#include "util/assert.hpp"
#include "util/fault.hpp"

namespace pss::io {

namespace {

// "PSSCKPF1" / "PSSMANI1" as little-endian u64s — version byte last.
constexpr std::uint64_t kPartMagic = 0x3146504B43535350ull;
constexpr std::uint64_t kManifestMagic = 0x31494E414D535350ull;

// Durability primitive: fsync by path. A rename is only crash-safe once
// both the file's bytes and the directory entry are on stable storage.
void fsync_path(const std::string& path, bool directory) {
  const int fd = ::open(path.c_str(),
                        directory ? (O_RDONLY | O_DIRECTORY) : O_RDONLY);
  if (fd < 0) return;  // best effort: e.g. a filesystem without dir fds
  ::fsync(fd);
  ::close(fd);
}

std::uint32_t crc_of(const std::string& bytes) {
  return crc32(reinterpret_cast<const unsigned char*>(bytes.data()),
               bytes.size());
}

// Parses "g<gen>_p<part>.pssc"; returns false for anything else.
bool parse_part_name(const std::string& name, std::uint64_t& generation,
                     std::uint64_t& part) {
  unsigned long long g = 0, p = 0;
  int consumed = 0;
  if (std::sscanf(name.c_str(), "g%llu_p%llu.pssc%n", &g, &p, &consumed) != 2)
    return false;
  if (consumed != static_cast<int>(name.size())) return false;
  generation = g;
  part = p;
  return true;
}

std::string format_part_name(std::uint64_t generation, std::uint64_t part) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "g%08llu_p%03llu.pssc",
                static_cast<unsigned long long>(generation),
                static_cast<unsigned long long>(part));
  return buf;
}

}  // namespace

CheckpointDir::CheckpointDir(std::string path) : path_(std::move(path)) {
  PSS_REQUIRE(!path_.empty(), "checkpoint dir needs a path");
  std::filesystem::create_directories(path_);
}

std::string CheckpointDir::part_path(std::uint64_t generation,
                                     std::uint64_t part) const {
  return path_ + "/" + format_part_name(generation, part);
}

std::uint64_t CheckpointDir::next_generation() const {
  std::uint64_t newest = 0;
  for (const auto& entry : std::filesystem::directory_iterator(path_)) {
    std::string name = entry.path().filename().string();
    // A torn temp write still reserves its generation: "g...pssc.tmp".
    const std::string tmp_suffix = ".tmp";
    if (name.size() > tmp_suffix.size() &&
        name.compare(name.size() - tmp_suffix.size(), tmp_suffix.size(),
                     tmp_suffix) == 0)
      name.resize(name.size() - tmp_suffix.size());
    std::uint64_t generation = 0, part = 0;
    if (parse_part_name(name, generation, part))
      newest = std::max(newest, generation);
  }
  return newest + 1;
}

void CheckpointDir::write_part(std::uint64_t generation, std::uint64_t part,
                               const std::string& blob) {
  const std::string final_path = part_path(generation, part);
  const std::string tmp_path = final_path + ".tmp";
  {
    std::ofstream out(tmp_path, std::ios::binary | std::ios::trunc);
    PSS_CHECK(out.good(), "checkpoint temp open failed: " + tmp_path);
    write_u64(out, kPartMagic);
    write_u64(out, generation);
    write_u64(out, part);
    write_u64(out, blob.size());
    // Body in two halves around the tear site, so a drill can leave a
    // deterministically-truncated temp file exactly where a kill would.
    const std::size_t half = blob.size() / 2;
    out.write(blob.data(), static_cast<std::streamsize>(half));
    out.flush();
    PSS_FAULT_POINT("ckpt.part.body");
    out.write(blob.data() + half,
              static_cast<std::streamsize>(blob.size() - half));
    const std::uint32_t crc = crc_of(blob);
    write_u64(out, crc);
    out.flush();
    PSS_CHECK(out.good(), "checkpoint temp write failed: " + tmp_path);
  }
  fsync_path(tmp_path, /*directory=*/false);
  PSS_FAULT_POINT("ckpt.part.rename");
  std::filesystem::rename(tmp_path, final_path);
  fsync_path(path_, /*directory=*/true);
}

void CheckpointDir::commit_generation(std::uint64_t generation,
                                      std::uint64_t num_parts) {
  std::string payload(16, '\0');
  store_u64(reinterpret_cast<unsigned char*>(payload.data()), generation);
  store_u64(reinterpret_cast<unsigned char*>(payload.data()) + 8, num_parts);
  const std::string final_path = path_ + "/MANIFEST.pssm";
  const std::string tmp_path = final_path + ".tmp";
  {
    std::ofstream out(tmp_path, std::ios::binary | std::ios::trunc);
    PSS_CHECK(out.good(), "manifest temp open failed: " + tmp_path);
    write_u64(out, kManifestMagic);
    out.write(payload.data(), static_cast<std::streamsize>(payload.size()));
    write_u64(out, crc_of(payload));
    out.flush();
    PSS_CHECK(out.good(), "manifest temp write failed: " + tmp_path);
  }
  fsync_path(tmp_path, /*directory=*/false);
  PSS_FAULT_POINT("ckpt.manifest");
  std::filesystem::rename(tmp_path, final_path);
  fsync_path(path_, /*directory=*/true);
}

std::optional<CheckpointDir::Manifest> CheckpointDir::manifest() const {
  std::ifstream in(path_ + "/MANIFEST.pssm", std::ios::binary);
  if (!in.good()) return std::nullopt;
  try {
    PSS_REQUIRE(read_u64(in) == kManifestMagic, "manifest magic");
    std::string payload(16, '\0');
    in.read(payload.data(), 16);
    PSS_REQUIRE(in.gcount() == 16, "manifest truncated");
    const std::uint64_t crc = read_u64(in);
    PSS_REQUIRE(crc == crc_of(payload), "manifest checksum");
    Manifest m;
    m.generation =
        fetch_u64(reinterpret_cast<const unsigned char*>(payload.data()));
    m.num_parts =
        fetch_u64(reinterpret_cast<const unsigned char*>(payload.data()) + 8);
    return m;
  } catch (const std::invalid_argument&) {
    return std::nullopt;  // torn/corrupt manifest: the scan takes over
  }
}

bool CheckpointDir::load_part(std::uint64_t part, std::string& blob,
                              std::uint64_t& generation,
                              CheckpointDirStats* stats) const {
  // Candidate generations for this part, newest first.
  std::vector<std::uint64_t> candidates;
  for (const auto& entry : std::filesystem::directory_iterator(path_)) {
    std::uint64_t g = 0, p = 0;
    if (parse_part_name(entry.path().filename().string(), g, p) && p == part)
      candidates.push_back(g);
  }
  std::sort(candidates.rbegin(), candidates.rend());
  for (std::uint64_t g : candidates) {
    std::ifstream in(part_path(g, part), std::ios::binary);
    if (!in.good()) continue;
    try {
      if (read_u64(in) != kPartMagic || read_u64(in) != g ||
          read_u64(in) != part) {
        if (stats != nullptr) ++stats->crc_bad;
        continue;
      }
      const std::uint64_t body_len = read_u64(in);
      // Bound the length field by the bytes actually left in the file
      // before allocating: a corrupt length reads as a torn part, not as
      // a giant allocation.
      const std::streamoff body_at = in.tellg();
      in.seekg(0, std::ios::end);
      const std::streamoff file_end = in.tellg();
      in.seekg(body_at);
      PSS_REQUIRE(body_at >= 0 && file_end >= body_at &&
                      body_len <= std::uint64_t(file_end - body_at),
                  "checkpoint length exceeds the file");
      std::string body(body_len, '\0');
      in.read(body.data(), static_cast<std::streamsize>(body_len));
      PSS_REQUIRE(static_cast<std::uint64_t>(in.gcount()) == body_len,
                  "truncated checkpoint body");
      const std::uint64_t crc = read_u64(in);
      if (crc != crc_of(body)) {
        if (stats != nullptr) ++stats->crc_bad;
        continue;
      }
      blob = std::move(body);
      generation = g;
      return true;
    } catch (const std::invalid_argument&) {
      if (stats != nullptr) ++stats->torn;  // short read: torn candidate
      continue;
    }
  }
  return false;
}

void CheckpointDir::prune_below(std::uint64_t keep_from) {
  std::vector<std::filesystem::path> doomed;
  for (const auto& entry : std::filesystem::directory_iterator(path_)) {
    std::string name = entry.path().filename().string();
    const std::string tmp_suffix = ".tmp";
    if (name.size() > tmp_suffix.size() &&
        name.compare(name.size() - tmp_suffix.size(), tmp_suffix.size(),
                     tmp_suffix) == 0)
      name.resize(name.size() - tmp_suffix.size());
    std::uint64_t g = 0, p = 0;
    if (parse_part_name(name, g, p) && g < keep_from)
      doomed.push_back(entry.path());
  }
  for (const auto& path : doomed) std::filesystem::remove(path);
}

}  // namespace pss::io
