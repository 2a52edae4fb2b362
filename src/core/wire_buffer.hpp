// Pooled wire frames and non-owning wire views (the zero-copy layer).
//
// Paper §3.3 argues that with the right buffer ordering every step's
// send set is physically contiguous, so a message can be handed to the
// router without copying. The payload executors honor that claim by
// encoding each message into a sealed TOX3 *frame* (see
// core/payload_exchange.hpp) — one header, a run table, and the send
// set's raw parcel runs — and by recycling frame storage across steps
// and exchanges through a WireArena, so the steady-state hot path
// performs no heap allocation and one memcpy per run in each
// direction (a single run per message under the §3.3 layout in 2D).
//
// Three pieces:
//  * WireView — a non-owning (pointer, length) view of wire bytes, so
//    verification and integration read frames in place instead of
//    materializing intermediate vectors;
//  * WireArena — a freelist of frame buffers with pool and traffic
//    statistics (hits/misses, bytes copied/encoded, and §3.3-style run
//    accounting mirroring data_array's LayoutStats);
//  * PooledFrame — RAII handle that returns its buffer to the arena.
//
// The arena is deliberately not thread-safe: each executor (or each
// worker thread) owns its own arena, matching the one-port model where
// a node drives one send at a time.
#pragma once

#include <algorithm>
#include <bit>
#include <cstddef>
#include <cstdint>
#include <cstring>
#include <utility>
#include <vector>

namespace torex {

/// Non-owning view of a contiguous span of wire bytes.
class WireView {
 public:
  WireView() = default;
  WireView(const std::byte* data, std::size_t size) : data_(data), size_(size) {}
  WireView(const std::vector<std::byte>& bytes) : data_(bytes.data()), size_(bytes.size()) {}

  const std::byte* data() const { return data_; }
  std::size_t size() const { return size_; }
  bool empty() const { return size_ == 0; }

 private:
  const std::byte* data_ = nullptr;
  std::size_t size_ = 0;
};

namespace detail {

/// Little-endian word at a raw position: one word-sized copy on
/// little-endian hosts (the frame codec reads and writes a run table
/// of these per message), byte by byte elsewhere.
template <typename U>
U wire_load_le(const std::byte* at) {
  U v = 0;
  if constexpr (std::endian::native == std::endian::little) {
    std::memcpy(&v, at, sizeof(U));
  } else {
    for (std::size_t i = 0; i < sizeof(U); ++i) {
      v |= static_cast<U>(std::to_integer<std::uint8_t>(at[i])) << (8 * i);
    }
  }
  return v;
}

template <typename U>
void wire_store_le(std::byte* at, U v) {
  if constexpr (std::endian::native == std::endian::little) {
    std::memcpy(at, &v, sizeof(U));
  } else {
    for (std::size_t i = 0; i < sizeof(U); ++i) {
      at[i] = static_cast<std::byte>((v >> (8 * i)) & 0xFFu);
    }
  }
}

}  // namespace detail

/// Little-endian read of a 32-bit word from a view; false when short.
inline bool wire_get_u32(WireView in, std::size_t& offset, std::uint32_t& v) {
  if (in.size() < offset + 4) return false;
  v = detail::wire_load_le<std::uint32_t>(in.data() + offset);
  offset += 4;
  return true;
}

/// Little-endian read of a 64-bit word from a view; false when short.
inline bool wire_get_u64(WireView in, std::size_t& offset, std::uint64_t& v) {
  if (in.size() < offset + 8) return false;
  v = detail::wire_load_le<std::uint64_t>(in.data() + offset);
  offset += 8;
  return true;
}

/// Little-endian write of a 32-bit word at a raw position (the caller
/// guarantees 4 bytes of room) — used to patch frame headers in place.
inline void wire_write_u32(std::byte* at, std::uint32_t v) { detail::wire_store_le(at, v); }

/// Little-endian write of a 64-bit word at a raw position.
inline void wire_write_u64(std::byte* at, std::uint64_t v) { detail::wire_store_le(at, v); }

/// Little-endian append of a 32-bit word: one grow, one store.
inline void wire_put_u32(std::vector<std::byte>& out, std::uint32_t v) {
  const std::size_t at = out.size();
  out.resize(at + 4);
  detail::wire_store_le(out.data() + at, v);
}

/// Pool and traffic statistics of a WireArena. Pool counters describe
/// buffer recycling; traffic counters describe what crossed the wire;
/// run counters mirror data_array's LayoutStats so the payload path
/// reports the same §3.3 contiguity evidence the block-level layout
/// simulator does.
struct WirePoolStats {
  // -- pool --
  std::int64_t acquires = 0;        ///< frames handed out
  std::int64_t releases = 0;        ///< frames returned to the pool
  std::int64_t pool_hits = 0;       ///< satisfied from the freelist
  std::int64_t pool_misses = 0;     ///< needed a fresh allocation
  std::int64_t undersized_hits = 0; ///< pooled frame will regrow for this use
  std::int64_t peak_in_use = 0;     ///< most frames outstanding at once

  /// Leased frames never returned: acquires - releases. Zero whenever
  /// no exchange is mid-step; a session that tears down with a nonzero
  /// balance has leaked a PooledFrame (or released one twice).
  std::int64_t outstanding_frames() const { return acquires - releases; }

  // -- traffic --
  std::int64_t messages = 0;        ///< frames encoded
  std::int64_t parcels = 0;         ///< parcels carried by those frames
  std::int64_t bytes_encoded = 0;   ///< total frame bytes produced
  std::int64_t bytes_copied = 0;    ///< payload bytes memcpy'd (gather + splice)

  // -- §3.3 run accounting --
  std::int64_t total_sends = 0;        ///< send events
  std::int64_t contiguous_sends = 0;   ///< sends that were a single run
  std::int64_t gathered_parcels = 0;   ///< parcels of multi-run (gathered) sends
  std::int64_t runs_encoded = 0;       ///< total runs across all sends
  std::int64_t max_runs_per_send = 1;  ///< worst fragmentation seen
  std::int64_t rearrangement_passes = 0;  ///< phase-boundary passes
  std::int64_t parcels_rearranged = 0;    ///< parcels touched by those passes

  /// Records one send of `count` parcels that occupied `runs` runs.
  void note_message(std::int64_t count, std::int64_t runs) {
    ++messages;
    ++total_sends;
    parcels += count;
    runs_encoded += runs;
    if (runs == 1) {
      ++contiguous_sends;
    } else {
      gathered_parcels += count;
    }
    max_runs_per_send = std::max(max_runs_per_send, runs);
  }

  bool fully_contiguous() const { return contiguous_sends == total_sends; }
};

/// Field-wise difference `after - before` (max_runs_per_send and
/// peak_in_use take `after`'s value — they are high-water marks).
WirePoolStats wire_stats_delta(const WirePoolStats& after, const WirePoolStats& before);

/// Recycling pool for wire frame buffers. acquire() prefers the largest
/// pooled buffer (so capacity converges to the biggest message and
/// stops reallocating); release() returns storage for the next step.
class WireArena {
 public:
  WireArena() = default;
  WireArena(const WireArena&) = delete;
  WireArena& operator=(const WireArena&) = delete;

  /// Hands out an empty frame with at least `size_hint` capacity when
  /// the pool can provide it (a smaller pooled frame is still reused —
  /// it regrows once and then sticks).
  std::vector<std::byte> acquire(std::size_t size_hint = 0);

  /// Returns a frame's storage to the pool.
  void release(std::vector<std::byte>&& frame);

  WirePoolStats& stats() { return stats_; }
  const WirePoolStats& stats() const { return stats_; }
  void reset_stats() { stats_ = WirePoolStats{}; }

  /// Frames currently sitting in the freelist.
  std::size_t pooled() const { return free_.size(); }
  /// Frames handed out and not yet released.
  std::int64_t in_use() const { return in_use_; }
  /// Drops all pooled storage (stats survive).
  void trim();

 private:
  std::vector<std::vector<std::byte>> free_;
  WirePoolStats stats_;
  std::int64_t in_use_ = 0;
};

/// RAII frame: acquired from an arena, released on destruction. Default
/// construction yields an unbound frame that can be rebound later —
/// executors keep one slot per receiver and bind it per step.
class PooledFrame {
 public:
  PooledFrame() = default;
  explicit PooledFrame(WireArena& arena, std::size_t size_hint = 0)
      : arena_(&arena), bytes_(arena.acquire(size_hint)), bound_(true) {}
  PooledFrame(PooledFrame&& other) noexcept
      : arena_(other.arena_), bytes_(std::move(other.bytes_)), bound_(other.bound_) {
    other.arena_ = nullptr;
    other.bound_ = false;
  }
  PooledFrame& operator=(PooledFrame&& other) noexcept {
    if (this != &other) {
      reset();
      arena_ = other.arena_;
      bytes_ = std::move(other.bytes_);
      bound_ = other.bound_;
      other.arena_ = nullptr;
      other.bound_ = false;
    }
    return *this;
  }
  PooledFrame(const PooledFrame&) = delete;
  PooledFrame& operator=(const PooledFrame&) = delete;
  ~PooledFrame() { reset(); }

  /// Binds (or rebinds) to an arena, acquiring a fresh empty frame.
  void bind(WireArena& arena, std::size_t size_hint = 0) {
    reset();
    arena_ = &arena;
    bytes_ = arena.acquire(size_hint);
    bound_ = true;
  }

  /// Returns the storage to the arena early.
  void reset() {
    if (bound_ && arena_ != nullptr) arena_->release(std::move(bytes_));
    bytes_ = {};
    bound_ = false;
  }

  bool bound() const { return bound_; }
  std::vector<std::byte>& bytes() { return bytes_; }
  const std::vector<std::byte>& bytes() const { return bytes_; }
  WireView view() const { return WireView(bytes_); }

 private:
  WireArena* arena_ = nullptr;
  std::vector<std::byte> bytes_;
  bool bound_ = false;
};

}  // namespace torex
