// CRC-32 (IEEE 802.3, polynomial 0xEDB88320) for frame sealing.
//
// The integrity layer checksums every frame that crosses a simulated
// channel, so the implementation must be deterministic across
// platforms, incremental (a sealed frame hashes a header and payload
// runs that live in separate slabs), and fast enough that the seal is
// not the wire path's bottleneck. Three tiers, all producing identical
// IEEE digests (pinned by golden tests in tests/crc32_test.cpp):
//
//  * bytewise  — the classic one-table-lookup-per-byte loop; the
//    reference implementation, and the inline fast path for short
//    updates (individual metadata fields);
//  * slicing-by-8 — eight 256-entry tables consume 8 bytes per
//    iteration with independent lookups, ~5-8x the bytewise
//    throughput; the portable default for slab-sized updates;
//  * hardware — runtime-dispatched carry-less-multiply folding on
//    x86-64 (PCLMULQDQ; the SSE4.2 `crc32` *instruction* is the
//    Castagnoli polynomial and cannot reproduce IEEE digests, so the
//    x86 path folds with PCLMULQDQ instead) and the ARMv8 CRC32
//    extension (which does implement the IEEE polynomial) on AArch64.
//    Selected once per process via CPU feature detection; digests are
//    bit-identical to the portable tiers by construction and by test.
//
// bench_wire keeps us honest about the overhead; crc32_backend_name()
// reports which tier large updates run on.
#pragma once

#include <array>
#include <cstddef>
#include <cstdint>
#include <cstring>
#include <type_traits>

namespace torex {

namespace detail {

constexpr std::array<std::uint32_t, 256> make_crc32_table() {
  std::array<std::uint32_t, 256> table{};
  for (std::uint32_t i = 0; i < 256; ++i) {
    std::uint32_t c = i;
    for (int k = 0; k < 8; ++k) {
      c = (c & 1u) != 0 ? (0xEDB88320u ^ (c >> 1)) : (c >> 1);
    }
    table[i] = c;
  }
  return table;
}

inline constexpr std::array<std::uint32_t, 256> kCrc32Table = make_crc32_table();

/// Reference bytewise update (also the inline short-input fast path).
inline std::uint32_t crc32_update_bytewise(std::uint32_t state, const void* data,
                                           std::size_t len) {
  const auto* bytes = static_cast<const unsigned char*>(data);
  std::uint32_t c = state;
  for (std::size_t i = 0; i < len; ++i) {
    c = kCrc32Table[static_cast<std::size_t>((c ^ bytes[i]) & 0xFFu)] ^ (c >> 8);
  }
  return c;
}

/// Portable slicing-by-8 update; same digests as bytewise.
std::uint32_t crc32_update_sliced(std::uint32_t state, const void* data, std::size_t len);

/// Dispatched slab update: hardware folding when the CPU supports it,
/// slicing-by-8 otherwise. Same digests as bytewise, always.
std::uint32_t crc32_update_large(std::uint32_t state, const void* data, std::size_t len);

/// Inputs shorter than this stay on the inline bytewise loop — the
/// call + dispatch overhead beats the table win below ~2 words.
inline constexpr std::size_t kCrc32InlineCutoff = 16;

}  // namespace detail

/// Name of the backend large updates dispatch to ("pclmul", "armv8-crc",
/// or "slice8"); for diagnostics and tests.
const char* crc32_backend_name();

/// Incremental CRC-32 accumulator. Feed bytes with update(), read the
/// finalized digest with value(); value() does not consume the state,
/// so it can be sampled mid-stream.
class Crc32 {
 public:
  Crc32() = default;

  void update(const void* data, std::size_t len) {
    if (len < detail::kCrc32InlineCutoff) {
      state_ = detail::crc32_update_bytewise(state_, data, len);
    } else {
      state_ = detail::crc32_update_large(state_, data, len);
    }
  }

  /// Hashes the object representation of a trivially copyable value.
  template <typename T>
  void update_value(const T& v) {
    static_assert(std::is_trivially_copyable_v<T>, "can only hash trivially copyable values");
    update(&v, sizeof(T));
  }

  std::uint32_t value() const { return state_ ^ 0xFFFFFFFFu; }

 private:
  std::uint32_t state_ = 0xFFFFFFFFu;
};

/// One-shot CRC-32 of a byte range.
inline std::uint32_t crc32(const void* data, std::size_t len) {
  Crc32 crc;
  crc.update(data, len);
  return crc.value();
}

}  // namespace torex
