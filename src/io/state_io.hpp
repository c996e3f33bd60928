// Binary checkpoint/restore of live scheduler state.
//
// A steady-state serving process (src/stream) runs for days; restarting it
// must not replay days of traffic. This module serializes the *semantic*
// state of a PD session — partition boundaries, committed loads, the
// decision log, counters, the monotonicity clock and the retired-energy
// accumulator — and restores it into a freshly-constructed scheduler so
// that every subsequent decision and energy is bitwise identical to the
// uninterrupted run.
//
// Derived state is deliberately NOT serialized: cached insertion curves
// restore stale and rebuild on first touch through the same code path a
// live run uses, so a restore can only change cache-hit *counters*, never
// a decision.
//
// Wire format: little-endian fixed-width scalars, no padding, no varints.
//   u8/u64/i64  — unsigned / two's-complement integers
//   f64         — IEEE-754 binary64 bit pattern in a u64
// Container = u64 count followed by the elements in deterministic order
// (time order for intervals, arrival order for decisions). Identical state
// therefore serializes to identical bytes, which the round-trip tests
// check directly.
#pragma once

#include <cstddef>
#include <cstdint>
#include <iosfwd>

namespace pss::core {
class PdScheduler;
struct PdCounters;
}  // namespace pss::core

namespace pss::io {

// -- primitives (shared by the stream layer's own container framing) -------
void write_u8(std::ostream& os, std::uint8_t v);
void write_u64(std::ostream& os, std::uint64_t v);
void write_i64(std::ostream& os, std::int64_t v);
void write_f64(std::ostream& os, double v);
[[nodiscard]] std::uint8_t read_u8(std::istream& is);
[[nodiscard]] std::uint64_t read_u64(std::istream& is);
[[nodiscard]] std::int64_t read_i64(std::istream& is);
[[nodiscard]] double read_f64(std::istream& is);

// -- buffer variants (for framed formats that checksum their own bytes) ----
// Same little-endian encoding as the stream primitives, but against a raw
// byte buffer, so a codec can assemble a frame body, checksum it, and only
// then commit it to the stream (src/ingest/op_log).
void store_u64(unsigned char* p, std::uint64_t v);
[[nodiscard]] std::uint64_t fetch_u64(const unsigned char* p);
void store_f64(unsigned char* p, double v);
[[nodiscard]] double fetch_f64(const unsigned char* p);

/// CRC-32 (reflected, poly 0xEDB88320) — the frame checksum shared by the
/// op-log wire format (src/ingest/op_log) and the crash-consistent
/// checkpoint files (src/io/checkpoint_dir).
[[nodiscard]] std::uint32_t crc32(const unsigned char* data, std::size_t len);

/// Full PdCounters image, fixed field order.
void save_counters(std::ostream& os, const core::PdCounters& c);
void load_counters(std::istream& is, core::PdCounters& c);

/// Serializes one scheduler session, led by a format tag. The stream must
/// be binary-clean (std::ios::binary on files).
void save_scheduler(std::ostream& os, const core::PdScheduler& s);

/// Restores a blob written by save_scheduler into `s`, which must have
/// been constructed with the same machine, delta and record_decisions
/// (checked). Throws std::invalid_argument on a foreign format tag, a
/// mismatch, a truncated stream (a corrupt count included: records are
/// appended as read, never presized), or a value no live session can
/// hold: a non-finite release clock, a non-finite or negative retired
/// energy or load amount. Any prior state of `s` is discarded.
void load_scheduler(std::istream& is, core::PdScheduler& s);

}  // namespace pss::io
